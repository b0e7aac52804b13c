"""Resistive-force dynamics of the three-link swimmer.

Everything here rests on one object: the grand resistance matrix ``Mh``.
Resistive-force theory gives the drag force density on a slender link moving
with local velocity ``v`` as

    f = -xi (v . e) e - eta (v . n) n

with ``e``, ``n`` the link tangent and normal.  Integrating force and torque
densities over the three links for each unit generalized rate yields a 5x5
matrix such that the total generalized drag load is ``-Mh qdot``.  The five
load rows are: net force (x, y), torque about the chain point A1 of all
three links, torque about A2 of links 2 and 3, and torque about A3 of link 3
alone.  That staircase of torque rows makes the joint-torque balance local:
row k+2 is exactly the balance dual to the rate ``qdot[k+2]``.

Because drag densities are linear in the velocity and link parameterizations
are affine, every integral reduces to the exact moments ``m0 = b - a``,
``m1 = (b^2 - a^2)/2``, ``m2 = (b^3 - a^3)/3`` of the parameter interval;
the assembly has no quadrature error.

Balancing drag against the joint elasticity and the magnetic torques gives
the drift-affine control system

    Mh qdot = elastic(q) - Mx(q) Hx - My(q) Hy
    qdot = f0(q) + fx(q) Hx + fy(q) Hy.

Every evaluation assembles through ``_load_core``; the RK4 rate solves
one load per call, and ``_solve_poses`` solves f0, fx and fy at a batch
of poses, for ``control_fields`` and for the bracket layer alike.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NearSingularError
from .model import Configuration, SwimmerParams

__all__ = [
    "GrandResistance",
    "MagneticCoupling",
    "ControlFields",
    "grand_resistance",
    "magnetic_coupling",
    "elastic_load",
    "control_fields",
    "rhs",
    "make_rate_function",
]

COND_LIMIT = 1e12


def _assemble(theta: float, a2: float, a3: float, L: float,
              xi1: float, xi2: float, xi3: float,
              eta1: float, eta2: float, eta3: float,
              M: float) -> tuple[np.ndarray, tuple, tuple]:
    """Straight-line assembly of (Mh, Mx, My) at a configuration; ``Mh`` is
    a 5x5 array, ``Mx`` and ``My`` are tuples of five floats.

    Mh is independent of (x, y), so the geometry is built with the middle
    link centered at the origin: ``A3 = -A2 = (L/2) e2`` and
    ``A1 = A2 - L e1``.  Link i runs from its start point along ``e_i`` over
    a parameter interval with moments ``m0, m1, m2`` (``L, L^2/2, L^3/3``
    for the outer links on ``[0, L]``; ``L, 0, L^3/12`` for the middle one
    on ``[-L/2, L/2]``).  Under a unit rate its velocity is
    ``v(p) = V0 + W p``, and with the drag tensor
    ``D = xi e e^T + eta n n^T`` it loads the force rows with
    ``-D (V0 m0 + W m1)`` and the torque row about a chain point with
    ``-[(r x D V0) m0 + (r x D W + e x D V0) m1 + (e x D W) m2]``, ``r``
    running from that point to the link's start.

    Each drag tensor, lever arm and cross product is computed once, and
    only the terms that the unit rates leave non-zero are kept; dropping
    an exact zero from a sum moves no bit of a non-zero result.  Each
    load is summed link by link from +0.0, so a load that cancels to zero
    is +0.0 whatever the signs of its terms' zeros, and the entry of
    ``Mh``, its negation, is -0.0.  This routine sits inside the RK4 hot
    loop, hence plain float arithmetic and one array, ``Mh``.
    """
    th1 = theta + a2
    th3 = theta + a3
    c1, s1 = cos(th1), sin(th1)
    c2, s2 = cos(theta), sin(theta)
    c3, s3 = cos(th3), sin(th3)
    # drag tensors [[X, Y], [Y, Z]]
    X1 = xi1 * c1 * c1 + eta1 * s1 * s1
    Y1 = (xi1 - eta1) * c1 * s1
    Z1 = xi1 * s1 * s1 + eta1 * c1 * c1
    X2 = xi2 * c2 * c2 + eta2 * s2 * s2
    Y2 = (xi2 - eta2) * c2 * s2
    Z2 = xi2 * s2 * s2 + eta2 * c2 * c2
    X3 = xi3 * c3 * c3 + eta3 * s3 * s3
    Y3 = (xi3 - eta3) * c3 * s3
    Z3 = xi3 * s3 * s3 + eta3 * c3 * c3
    half = 0.5 * L
    m1 = 0.5 * (L * L)
    m2 = L ** 3 / 3.0
    m2c = (half ** 3 - (-half) ** 3) / 3.0
    Lc1, Ls1 = L * c1, L * s1
    A3x, A3y = half * c2, half * s2
    A1x, A1y = -A3x - Lc1, -A3y - Ls1
    # lever arms to link 3's start A3 from A1 and from A2
    r1x, r1y = A3x - A1x, A3y - A1y
    r2x, r2y = A3x + A3x, A3y + A3y
    # k = D n, the drag of a unit normal velocity; its components are also
    # e x D (1, 0) and e x D (0, 1), the torque arms of the unit translations
    k1x, k1y = c1 * Y1 - s1 * X1, c1 * Z1 - s1 * Y1
    k2x, k2y = c2 * Y2 - s2 * X2, c2 * Z2 - s2 * Y2
    k3x, k3y = c3 * Y3 - s3 * X3, c3 * Z3 - s3 * Y3
    # e x D n, times the second moment
    w1 = (c1 * k1y - s1 * k1x) * m2
    w2 = (c2 * k2y - s2 * k2x) * m2c
    w3 = (c3 * k3y - s3 * k3x) * m2
    # r x D n of link 3 about A1 and about A2
    q1 = r1x * k3y - r1y * k3x
    q2 = r2x * k3y - r2y * k3x
    # unit theta rate: links 1 and 3 start at A1 and A3, moving with
    # V0 = (-A1y, A1x) and (-A3y, A3x); W = n for every link
    u1x, u1y = Y1 * A1x - X1 * A1y, Z1 * A1x - Y1 * A1y
    u3x, u3y = Y3 * A3x - X3 * A3y, Z3 * A3x - Y3 * A3y
    v1 = c1 * u1y - s1 * u1x
    v3 = c3 * u3y - s3 * u3x
    # unit alpha2 rate: link 1 alone, V0 = -L n1
    g1x, g1y = X1 * Ls1 - Y1 * Lc1, Y1 * Ls1 - Z1 * Lc1
    fy = 0.0 - Y1 * L - Y2 * L - Y3 * L
    # row-major: rows force x, force y, torques about A1, A2, A3; columns
    # the unit rates of x, y, theta, alpha2, alpha3
    load = np.array((
        0.0 - X1 * L - X2 * L - X3 * L, fy,
        0.0 - (u1x * L + k1x * m1) - (u3x * L + k3x * m1),
        0.0 - (g1x * L + k1x * m1), 0.0 - k3x * m1,
        fy, 0.0 - Z1 * L - Z2 * L - Z3 * L,
        0.0 - (u1y * L + k1y * m1) - (u3y * L + k3y * m1),
        0.0 - (g1y * L + k1y * m1), 0.0 - k3y * m1,
        0.0 - k1x * m1 - (A1y * X2 - A1x * Y2) * L
        - ((r1x * Y3 - r1y * X3) * L + k3x * m1),
        0.0 - k1y * m1 - (A1y * Y2 - A1x * Z2) * L
        - ((r1x * Z3 - r1y * Y3) * L + k3y * m1),
        0.0 - (v1 * m1 + w1) - w2
        - ((r1x * u3y - r1y * u3x) * L + (q1 + v3) * m1 + w3),
        0.0 - ((c1 * g1y - s1 * g1x) * m1 + w1),
        0.0 - (q1 * m1 + w3),
        0.0 - (A3x * Y2 - A3y * X2) * L
        - ((r2x * Y3 - r2y * X3) * L + k3x * m1),
        0.0 - (A3x * Z2 - A3y * Y2) * L
        - ((r2x * Z3 - r2y * Y3) * L + k3y * m1),
        0.0 - w2 - ((r2x * u3y - r2y * u3x) * L + (q2 + v3) * m1 + w3),
        0.0,
        0.0 - (q2 * m1 + w3),
        0.0 - k3x * m1,
        0.0 - k3y * m1,
        0.0 - (v3 * m1 + w3),
        0.0,
        0.0 - w3,
    ))
    Mx = (0.0, 0.0, M * (s1 + s2 + s3), M * (s2 + s3), M * s3)
    My = (0.0, 0.0, -M * (c1 + c2 + c3), -M * (c2 + c3), -M * c3)
    return np.negative(load, out=load).reshape(5, 5), Mx, My


def _unpack(params: SwimmerParams) -> tuple:
    return (params.L, *params.xi, *params.eta)


def _load_core(params: SwimmerParams) -> Callable[..., tuple]:
    """Bind the parameters into ``(theta, alpha2, alpha3) -> (Mh, elastic,
    Mx, My)``, the terms of ``Mh qdot = elastic - Mx Hx - My Hy`` that every
    evaluation of the dynamics assembles through; ``elastic`` is a tuple of
    the five load rows, so the rate closure builds no array for it."""
    consts = (*_unpack(params), params.M)
    K = params.K

    def loads(theta, a2, a3):
        Mh, Mx, My = _assemble(theta, a2, a3, *consts)
        # restoring spring load in the staircase torque rows; signs calibrated
        # against the joint balance (tests: free springs relax, energy decays)
        return Mh, (0.0, 0.0, 0.0, K * a2, -K * a3), Mx, My

    return loads


def _loads_at(config: Configuration, params: SwimmerParams) -> tuple:
    return _load_core(params)(config.theta, config.alpha2, config.alpha3)


def _solve_poses(loads: Callable[..., tuple],
                 poses: list) -> tuple[np.ndarray, np.ndarray]:
    """``(Mh, F)`` for ``poses``, n angle triples, and ``loads`` from
    :func:`_load_core`: ``Mh[i]`` is the matrix of ``poses[i]``, and
    ``F[i]`` (3, 5) holds f0, fx, fy there as contiguous rows.

    Every pose is assembled, as often as it recurs, and all are solved for
    the columns ``elastic, -Mx, -My`` by one call of the LAPACK gufunc
    inside ``np.linalg.solve``, under the error state it enters, so an
    exactly singular ``Mh`` still raises ``LinAlgError('Singular matrix')``.
    """
    matrices, rows = [], []
    for pose in poses:
        Mh, elastic, Mx, My = loads(*pose)
        matrices.append(Mh)
        rows += (*elastic, *Mx, *My)
    mh = np.array(matrices)
    # rows elastic, -Mx, -My: the transposed right-hand side of the solve
    rhs = np.array(rows).reshape(len(matrices), 3, 5)
    np.negative(rhs[:, 1:], out=rhs[:, 1:])
    with _solve_errstate():
        cols = _umath_linalg.solve(mh, rhs.transpose(0, 2, 1),
                                   signature="dd->d")
    return mh, np.ascontiguousarray(cols.transpose(0, 2, 1))


@dataclass(frozen=True)
class GrandResistance:
    """The 5x5 grand resistance and its blocks.

    ``ah`` (2x2) couples rigid translations, ``bh`` (2x3) translations to
    angle rates, ``ch`` (3x3) the angle rates.  ``cond`` is the 2-norm
    condition number of the full matrix.  Note the staircase torque rows
    make ``mh`` nonsymmetric; the block below ``ah`` is ``mh[2:, :2]``,
    not ``bh.T``.
    """

    mh: np.ndarray
    ah: np.ndarray
    bh: np.ndarray
    ch: np.ndarray
    cond: float


@dataclass(frozen=True)
class MagneticCoupling:
    """Coupling vectors: magnetic load = -mx * Hx - my * Hy."""

    mx: np.ndarray
    my: np.ndarray


@dataclass(frozen=True)
class ControlFields:
    """Drift and control vector fields, full and shape-reduced.

    ``f0, fx, fy`` act on the full 5-dimensional state; ``g0, gx, gy`` are
    their angle components after eliminating the force balance, and
    ``position_coupling`` is the 2x3 matrix G with ``(xdot, ydot) =
    G (thetadot, a2dot, a3dot)``.
    """

    f0: np.ndarray
    fx: np.ndarray
    fy: np.ndarray
    g0: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    position_coupling: np.ndarray


def _checked_resistance(Mh: np.ndarray) -> GrandResistance:
    cond = float(np.linalg.cond(Mh))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise NearSingularError(
            f"grand resistance nearly singular: cond = {cond:.3e}")
    return GrandResistance(mh=Mh, ah=Mh[:2, :2].copy(), bh=Mh[:2, 2:].copy(),
                           ch=Mh[2:, 2:].copy(), cond=cond)


def grand_resistance(config: Configuration,
                     params: SwimmerParams) -> GrandResistance:
    """Assemble the grand resistance at a configuration.

    Raises :class:`NearSingularError` when the condition number exceeds
    ``COND_LIMIT``; downstream solves would then be meaningless.
    """
    return _checked_resistance(_loads_at(config, params)[0])


def magnetic_coupling(config: Configuration,
                      params: SwimmerParams) -> MagneticCoupling:
    """Torque coupling of the uniform external field to the magnetized links.

    A link at absolute angle ``phi`` with moment M along its tangent feels
    torque ``M (e(phi) x H)``; summing over the links that enter each
    staircase row gives cumulative sine/cosine patterns.
    """
    _, _, Mx, My = _loads_at(config, params)
    return MagneticCoupling(mx=np.array(Mx), my=np.array(My))


def elastic_load(config: Configuration, params: SwimmerParams) -> np.ndarray:
    """Generalized load of the joint springs at a configuration."""
    return np.array(_loads_at(config, params)[1])


def control_fields(config: Configuration,
                   params: SwimmerParams) -> ControlFields:
    """Drift and control fields of the affine system at one configuration.

    Computes the full-space fields by the 3-column solve of
    :func:`_solve_poses`, the one the bracket layer uses, and the reduced
    fields by block elimination of the force balance, then cross-checks
    the two (angle components must agree, position components must be G
    times the angle components).  A mismatch beyond 1e-10
    relative indicates a broken assembly and raises.
    """
    loads = _load_core(params)
    pose = (config.theta, config.alpha2, config.alpha3)
    Mh, el, Mx, My = loads(*pose)
    gr = _checked_resistance(Mh)
    f0, fx, fy = _solve_poses(loads, [pose])[1][0]
    ah_inv_bh = np.linalg.solve(gr.ah, gr.bh)
    G = -ah_inv_bh
    # Mh is not symmetric (torque rows sit at staircase points), so the
    # lower-left block is mh[2:, :2] rather than bh.T
    ct = gr.ch - Mh[2:, :2] @ ah_inv_bh
    # the magnetic and elastic loads have zero force rows, so the reduced
    # loads are just their angle rows
    g0 = np.linalg.solve(ct, el[2:])
    gx = -np.linalg.solve(ct, Mx[2:])
    gy = -np.linalg.solve(ct, My[2:])
    scale = max(1.0, float(np.max(np.abs([f0, fx, fy]))))
    worst = 0.0
    for full, red in ((f0, g0), (fx, gx), (fy, gy)):
        worst = max(worst, float(np.max(np.abs(full[2:] - red))))
        worst = max(worst, float(np.max(np.abs(full[:2] - G @ red))))
    if worst > 1e-10 * scale:
        raise NearSingularError(
            f"full/reduced field mismatch {worst:.3e} exceeds tolerance; "
            f"cond = {gr.cond:.3e}")
    return ControlFields(f0=f0, fx=fx, fy=fy, g0=g0, gx=gx, gy=gy,
                         position_coupling=G)


def _raise_singular(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("Singular matrix")


def _solve_errstate() -> np.errstate:
    """The floating-point state ``np.linalg.solve`` enters around each of its
    calls: the invalid flag that the LAPACK gufunc raises on a zero pivot
    becomes ``LinAlgError('Singular matrix')``, while overflow, division
    and underflow inside the factorization are ignored.  The rate closure
    calls the gufunc bare, so its callers enter this state once around a
    whole loop of calls; inside it, no other numpy operation that can set
    the invalid flag may run, or it would read as a singular matrix."""
    return np.errstate(call=_raise_singular, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def rhs(config: Configuration, h: tuple[float, float],
        params: SwimmerParams) -> np.ndarray:
    """Configuration velocity under field ``h = (Hx, Hy)``."""
    with _solve_errstate():
        return make_rate_function(params)(config.as_array().tolist(),
                                          h[0], h[1])


def make_rate_function(params: SwimmerParams) -> Callable[[Sequence[float], float, float], np.ndarray]:
    """Bind the parameters into a fast ``(state, hx, hy) -> qdot`` closure.

    This is the integrator hot path: one assembly, the load as a tuple of
    Python floats, and a single 5x5 solve per call.  The state is any
    sequence of five floats; a list is fastest.

    The solve is ``_umath_linalg.solve1``, the LAPACK gufunc inside
    ``np.linalg.solve``, called directly: the public function's input
    checks and the ``errstate`` it enters on every call cost more than the
    factorization itself.  The closure therefore raises
    ``LinAlgError('Singular matrix')`` on an exactly singular ``Mh`` only
    inside :func:`_solve_errstate`, which ``simulate._advance`` enters once
    around its stepping loop and :func:`rhs` around its one call;
    elsewhere such a solve returns NaN with a RuntimeWarning.
    """
    loads = _load_core(params)
    solve = _umath_linalg.solve1

    def rate(state: Sequence[float], hx: float, hy: float) -> np.ndarray:
        _, _, theta, a2, a3 = state
        Mh, elastic, mx, my = loads(theta, a2, a3)
        # negate before converting: an integer 0 field has no signed zero
        nhx, hy = float(-hx), float(hy)
        # (-hx Mx - hy My) + elastic, adding only the spring rows: a zero
        # load row keeps the sign of its zero
        load = (nhx * mx[0] - hy * my[0], nhx * mx[1] - hy * my[1],
                nhx * mx[2] - hy * my[2],
                nhx * mx[3] - hy * my[3] + elastic[3],
                nhx * mx[4] - hy * my[4] + elastic[4])
        return solve(Mh, load, signature="dd->d")

    return rate
