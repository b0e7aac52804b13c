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
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin
from typing import Callable

import numpy as np

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


def _moments(a: float, b: float) -> tuple[float, float, float]:
    return b - a, 0.5 * (b * b - a * a), (b ** 3 - a ** 3) / 3.0


def _assemble(theta: float, a2: float, a3: float, L: float,
              xi1: float, xi2: float, xi3: float,
              eta1: float, eta2: float, eta3: float,
              M: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalarized assembly of (Mh, Mx, My) at a configuration.

    Mh is independent of (x, y), so the geometry is built with the middle
    link centered at the origin.  The inner loops are plain float arithmetic
    on purpose; this routine sits inside the RK4 hot loop and the scalar
    form is about 8x faster than the equivalent vectorized numpy.
    """
    th1 = theta + a2
    th3 = theta + a3
    c1, s1 = cos(th1), sin(th1)
    c2, s2 = cos(theta), sin(theta)
    c3, s3 = cos(th3), sin(th3)
    d1xx = xi1 * c1 * c1 + eta1 * s1 * s1
    d1xy = (xi1 - eta1) * c1 * s1
    d1yy = xi1 * s1 * s1 + eta1 * c1 * c1
    d2xx = xi2 * c2 * c2 + eta2 * s2 * s2
    d2xy = (xi2 - eta2) * c2 * s2
    d2yy = xi2 * s2 * s2 + eta2 * c2 * c2
    d3xx = xi3 * c3 * c3 + eta3 * s3 * s3
    d3xy = (xi3 - eta3) * c3 * s3
    d3yy = xi3 * s3 * s3 + eta3 * c3 * c3
    D = ((d1xx, d1xy, d1yy), (d2xx, d2xy, d2yy), (d3xx, d3xy, d3yy))
    e = ((c1, s1), (c2, s2), (c3, s3))
    half = 0.5 * L
    A2x, A2y = -half * c2, -half * s2
    A3x, A3y = half * c2, half * s2
    A1x, A1y = A2x - L * c1, A2y - L * s1
    # link i is parameterized from P0[i] along e[i] over an interval with
    # moments mom[i]; the middle link runs from its center so its first
    # moment vanishes
    P0 = ((A1x, A1y), (0.0, 0.0), (A3x, A3y))
    outer = _moments(0.0, L)
    mom = (outer, _moments(-half, half), outer)
    refs = ((A1x, A1y), (A2x, A2y), (A3x, A3y))
    zero = (0.0, 0.0)
    n1 = (-s1, c1)
    n2 = (-s2, c2)
    n3 = (-s3, c3)
    # velocity of link i under unit rate j: v(p) = V0 + W * p
    vels = (
        (((1.0, 0.0), zero), ((1.0, 0.0), zero), ((1.0, 0.0), zero)),
        (((0.0, 1.0), zero), ((0.0, 1.0), zero), ((0.0, 1.0), zero)),
        (((-half * n2[0] - L * n1[0], -half * n2[1] - L * n1[1]), n1),
         (zero, n2),
         ((half * n2[0], half * n2[1]), n3)),
        (((-L * n1[0], -L * n1[1]), n1), (zero, zero), (zero, zero)),
        ((zero, zero), (zero, zero), (zero, n3)),
    )
    Mh = np.empty((5, 5))
    for j in range(5):
        Fx = Fy = T1 = T2 = T3 = 0.0
        for i in range(3):
            (V0x, V0y), (Wx, Wy) = vels[j][i]
            if V0x == 0.0 and V0y == 0.0 and Wx == 0.0 and Wy == 0.0:
                continue
            dxx, dxy, dyy = D[i]
            DV0x = dxx * V0x + dxy * V0y
            DV0y = dxy * V0x + dyy * V0y
            DWx = dxx * Wx + dxy * Wy
            DWy = dxy * Wx + dyy * Wy
            m0, m1, m2 = mom[i]
            Fx -= DV0x * m0 + DWx * m1
            Fy -= DV0y * m0 + DWy * m1
            ex, ey = e[i]
            p0x, p0y = P0[i]
            cr_eDV0 = ex * DV0y - ey * DV0x
            cr_eDW = ex * DWy - ey * DWx
            # link 1 contributes only to the A1 torque row, link 2 to the
            # A1 and A2 rows, link 3 to all three
            which = (0,) if i == 0 else ((0, 1) if i == 1 else (0, 1, 2))
            for k in which:
                rx = p0x - refs[k][0]
                ry = p0y - refs[k][1]
                t = -((rx * DV0y - ry * DV0x) * m0
                      + (rx * DWy - ry * DWx + cr_eDV0) * m1
                      + cr_eDW * m2)
                if k == 0:
                    T1 += t
                elif k == 1:
                    T2 += t
                else:
                    T3 += t
        Mh[0, j] = -Fx
        Mh[1, j] = -Fy
        Mh[2, j] = -T1
        Mh[3, j] = -T2
        Mh[4, j] = -T3
    Mx = np.array([0.0, 0.0, M * (s1 + s2 + s3), M * (s2 + s3), M * s3])
    My = np.array([0.0, 0.0, -M * (c1 + c2 + c3), -M * (c2 + c3), -M * c3])
    return Mh, Mx, My


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


def _field_columns(Mh: np.ndarray, elastic: tuple, Mx: np.ndarray,
                   My: np.ndarray) -> np.ndarray:
    """``f0, fx, fy`` as the columns of one multi-column solve."""
    return np.linalg.solve(Mh, np.array((elastic, -Mx, -My)).T)


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

    @property
    def g1(self) -> np.ndarray:
        return self.position_coupling[:, 0]

    @property
    def g2(self) -> np.ndarray:
        return self.position_coupling[:, 1]

    @property
    def g3(self) -> np.ndarray:
        return self.position_coupling[:, 2]


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
    return MagneticCoupling(mx=Mx, my=My)


def elastic_load(config: Configuration, params: SwimmerParams) -> np.ndarray:
    """Generalized load of the joint springs at a configuration."""
    return np.array(_loads_at(config, params)[1])


def control_fields(config: Configuration,
                   params: SwimmerParams) -> ControlFields:
    """Drift and control fields of the affine system at one configuration.

    Computes the full-space fields by one multi-column 5x5 solve and the
    reduced fields by block elimination of the force balance, then
    cross-checks the two (angle components must agree, position components
    must be G times the angle components).  A mismatch beyond 1e-10
    relative indicates a broken assembly and raises.
    """
    Mh, el, Mx, My = _loads_at(config, params)
    gr = _checked_resistance(Mh)
    f0, fx, fy = _field_columns(Mh, el, Mx, My).T
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


def rhs(config: Configuration, h: tuple[float, float],
        params: SwimmerParams) -> np.ndarray:
    """Configuration velocity under field ``h = (Hx, Hy)``."""
    return make_rate_function(params)(config.as_array(), h[0], h[1])


def make_rate_function(params: SwimmerParams) -> Callable[[np.ndarray, float, float], np.ndarray]:
    """Bind the parameters into a fast ``(state, hx, hy) -> qdot`` closure.

    This is the integrator hot path: one assembly plus a single combined
    5x5 solve per call, no dataclass construction.
    """
    loads = _load_core(params)

    def rate(state: np.ndarray, hx: float, hy: float) -> np.ndarray:
        Mh, elastic, Mx, My = loads(state[2], state[3], state[4])
        # (-hx Mx - hy My) + elastic, adding only the spring rows: a zero
        # load row keeps the sign of its zero
        load = -hx * Mx
        load -= hy * My
        load[3] += elastic[3]
        load[4] += elastic[4]
        return np.linalg.solve(Mh, load)

    return rate
