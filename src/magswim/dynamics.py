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

Every evaluation assembles through ``_load_core``.  Called with the field,
that is the RK4 rate, solved by ``_solve_drag`` on Python floats; without
it, ``_solve_poses`` solves f0, fx and fy from its load tuples for the
bracket layer: one table, one conversion, one solve.
"""
from __future__ import annotations

import cmath
import math
import struct
from functools import partial
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .model import SwimmerParams

__all__ = ["make_rate_function"]


def _assembler(cos: Callable, sin: Callable) -> Callable[..., tuple]:
    """The straight-line assembly of (drag, elastic, Mx, My) at a
    configuration, over the trigonometric functions ``cos`` and ``sin``:
    tuples of the 25 drag loads, ``-Mh`` row-major, and of the five rows of
    the spring load, Mx and My.  The per-swimmer values lead the arguments
    (``L``, ``L/2``, the moments ``L^2/2``, ``L^3/3``, ``L^3/12``, then
    ``xi_i``, ``eta_i``, ``xi_i - eta_i``, ``M`` and ``K``), so
    :func:`_load_core` binds them once; the angles come next.  Given the
    field ``hx, hy`` last, it returns ``qdot``: :func:`_solve_drag` of its
    loads and of the torque rows of ``Mx hx + My hy - elastic``.

    Mh is independent of (x, y), so the geometry is built with the middle
    link centered at the origin: ``A3 = -A2 = (L/2) e2`` and
    ``A1 = A2 - L e1``.  Link i runs from its start point along ``e_i``
    over a parameter interval with moments ``m0, m1, m2`` (``L, L^2/2,
    L^3/3`` for the outer links on ``[0, L]``; ``L, 0, L^3/12`` for the
    middle one on ``[-L/2, L/2]``).  Under a unit rate its velocity is
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
    ``Mh``, its negation, is -0.0.  The float instance ``_assemble`` sits
    inside the RK4 hot loop, hence plain arithmetic and no array.  The
    same source over ``cmath`` is ``_assemble_complex``: every step is
    analytic, so at ``q + i h e`` its imaginary parts over ``h`` are the
    derivatives along ``e`` to roundoff (a complex step)."""

    def assemble(L, half, m1, m2, m2c, xi1, xi2, xi3, eta1, eta2, eta3,
                 d1, d2, d3, M, K, theta, a2, a3, hx=None, hy=None):
        th1 = theta + a2
        th3 = theta + a3
        c1, s1 = cos(th1), sin(th1)
        c2, s2 = cos(theta), sin(theta)
        c3, s3 = cos(th3), sin(th3)
        # drag tensors [[X, Y], [Y, Z]]
        X1 = xi1 * c1 * c1 + eta1 * s1 * s1
        Y1 = d1 * c1 * s1
        Z1 = xi1 * s1 * s1 + eta1 * c1 * c1
        X2 = xi2 * c2 * c2 + eta2 * s2 * s2
        Y2 = d2 * c2 * s2
        Z2 = xi2 * s2 * s2 + eta2 * c2 * c2
        X3 = xi3 * c3 * c3 + eta3 * s3 * s3
        Y3 = d3 * c3 * s3
        Z3 = xi3 * s3 * s3 + eta3 * c3 * c3
        Lc1, Ls1 = L * c1, L * s1
        A3x, A3y = half * c2, half * s2
        A1x, A1y = -A3x - Lc1, -A3y - Ls1
        # lever arms to link 3's start A3 from A1 and from A2
        r1x, r1y = A3x - A1x, A3y - A1y
        r2x, r2y = A3x + A3x, A3y + A3y
        # k = D n, the drag of a unit normal velocity; its components are
        # also e x D (1, 0) and e x D (0, 1), the torque arms of the unit
        # translations
        k1x, k1y = c1 * Y1 - s1 * X1, c1 * Z1 - s1 * Y1
        k2x, k2y = c2 * Y2 - s2 * X2, c2 * Z2 - s2 * Y2
        k3x, k3y = c3 * Y3 - s3 * X3, c3 * Z3 - s3 * Y3
        # k times the first moment, shared by the force and torque rows
        p1x, p1y, p3x, p3y = k1x * m1, k1y * m1, k3x * m1, k3y * m1
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
        # the 25 loads of -Mh, gRC for row R and column C; rows force x,
        # force y, torques about A1, A2, A3; columns the unit rates of x, y,
        # theta, alpha2, alpha3
        g00 = 0.0 - X1 * L - X2 * L - X3 * L
        g01 = g10 = 0.0 - Y1 * L - Y2 * L - Y3 * L
        g02 = 0.0 - (u1x * L + p1x) - (u3x * L + p3x)
        g03, g13 = 0.0 - (g1x * L + p1x), 0.0 - (g1y * L + p1y)
        g04 = g40 = 0.0 - p3x
        g11 = 0.0 - Z1 * L - Z2 * L - Z3 * L
        g12 = 0.0 - (u1y * L + p1y) - (u3y * L + p3y)
        g14 = g41 = 0.0 - p3y
        g20 = (0.0 - p1x - (A1y * X2 - A1x * Y2) * L
               - ((r1x * Y3 - r1y * X3) * L + p3x))
        g21 = (0.0 - p1y - (A1y * Y2 - A1x * Z2) * L
               - ((r1x * Z3 - r1y * Y3) * L + p3y))
        g22 = (0.0 - (v1 * m1 + w1) - w2
               - ((r1x * u3y - r1y * u3x) * L + (q1 + v3) * m1 + w3))
        g23 = 0.0 - ((c1 * g1y - s1 * g1x) * m1 + w1)
        g24, g34 = 0.0 - (q1 * m1 + w3), 0.0 - (q2 * m1 + w3)
        g30 = (0.0 - (A3x * Y2 - A3y * X2) * L
               - ((r2x * Y3 - r2y * X3) * L + p3x))
        g31 = (0.0 - (A3x * Z2 - A3y * Y2) * L
               - ((r2x * Z3 - r2y * Y3) * L + p3y))
        g32 = 0.0 - w2 - ((r2x * u3y - r2y * u3x) * L + (q2 + v3) * m1 + w3)
        g42, g44 = 0.0 - (v3 * m1 + w3), 0.0 - w3
        # a link at angle phi with moment M along its tangent feels the torque
        # M (e(phi) x H); each staircase row sums the links it holds.  Spring
        # signs calibrated against the joint balance (tests: free springs
        # relax, energy decays)
        if hx is None:
            return ((g00, g01, g02, g03, g04, g10, g11, g12, g13, g14,
                     g20, g21, g22, g23, g24, g30, g31, g32, 0.0, g34,
                     g40, g41, g42, 0.0, g44),
                    (0.0, 0.0, 0.0, K * a2, -K * a3),
                    (0.0, 0.0, M * (s1 + s2 + s3), M * (s2 + s3), M * s3),
                    (0.0, 0.0, -M * (c1 + c2 + c3), -M * (c2 + c3), -M * c3))
        # the torque rows of Mx Hx + My Hy - elastic, as the tuples give them
        return _solve_drag(
            g00, g01, g02, g03, g04, g10, g11, g12, g13, g14,
            g20, g21, g22, g23, g24, g30, g31, g32, 0.0, g34,
            g40, g41, g42, 0.0, g44,
            hx * (M * (s1 + s2 + s3)) + hy * (-M * (c1 + c2 + c3)),
            hx * (M * (s2 + s3)) + hy * (-M * (c2 + c3)) - K * a2,
            hx * (M * s3) + hy * (-M * c3) - (-K * a3))

    return assemble


_assemble = _assembler(math.cos, math.sin)
_assemble_complex = _assembler(cmath.cos, cmath.sin)


def _load_core(params: SwimmerParams,
               complex_step: bool = False) -> Callable[..., tuple]:
    """Bind the parameters into ``(theta, alpha2, alpha3) -> (drag,
    elastic, Mx, My)``, the tuples of ``-Mh qdot = Mx Hx + My Hy - elastic``
    that every evaluation of the dynamics assembles through: a ``partial``
    of the assembly, so a call enters it with no Python frame between.
    Called with ``hx, hy`` after the angles, it is the RK4 rate.
    With ``complex_step`` the angles may be complex and the assembly is
    ``_assemble_complex``; no integrator or bracket path asks for it."""
    L, xi, eta = params.L, params.xi, params.eta
    half = 0.5 * L
    return partial(_assemble_complex if complex_step else _assemble,
                   L, half, 0.5 * (L * L), L ** 3 / 3.0,
                   (half ** 3 - (-half) ** 3) / 3.0, *xi, *eta,
                   *(x - e for x, e in zip(xi, eta)), params.M, params.K)


def _resistance(drag: Sequence) -> np.ndarray:
    """The (n, 5, 5) stack of ``Mh`` from the drag loads of n poses."""
    return np.negative(np.array(drag)).reshape(-1, 5, 5)


def _solve_poses(loads: Callable[..., tuple],
                 poses: list) -> tuple[np.ndarray, np.ndarray]:
    """``(Mh, F)`` for ``poses``, n angle triples, and ``loads`` from
    :func:`_load_core`: ``Mh[i]`` is the matrix of ``poses[i]``, and
    ``F[i]`` (3, 5) holds f0, fx, fy there as contiguous rows.  Each pose
    is assembled as often as it recurs, its 40 loads (drag, elastic, Mx,
    My) appended to one table of Python floats that ``struct`` copies
    into numpy once, byte for byte, and all are solved for the columns
    ``elastic, -Mx, -My`` by one ``np.linalg.solve``, so an exactly
    singular ``Mh`` raises ``LinAlgError('Singular matrix')``.
    """
    table = []
    for pose in poses:
        for part in loads(*pose):
            table += part
    rows = np.empty((len(poses), 40))
    struct.pack_into(f"{rows.size}d", rows, 0, *table)
    mh = np.negative(rows[:, :25]).reshape(-1, 5, 5)
    # rows elastic, -Mx, -My: the transposed right-hand side of the solve
    rhs = rows[:, 25:].reshape(-1, 3, 5)
    np.negative(rhs[:, 1:], out=rhs[:, 1:])
    cols = np.linalg.solve(mh, rhs.transpose(0, 2, 1))
    return mh, np.ascontiguousarray(cols.transpose(0, 2, 1))


def _solve_drag(g00, g01, g02, g03, g04, g10, g11, g12, g13, g14,
                g20, g21, g22, g23, g24, g30, g31, g32, g33, g34,
                g40, g41, g42, g43, g44, r2, r3, r4) -> tuple:
    """``qdot`` with ``-Mh qdot = (0, 0, r2, r3, r4)``, ``g00 .. g44`` the
    drag loads (``-Mh`` row-major), by Gaussian elimination on Python
    floats (or complex numbers, for the origin model's complex steps).  The
    x and y columns go first, without a pivot, as the force block ``L sum
    D_i`` is symmetric definite for positive xi and eta; then the 3x3 Schur
    complement in the torque rows, by partial pivoting.  A zero pivot
    raises ``LinAlgError('Singular matrix')``."""
    try:
        # x and y columns unpivoted: zero force loads leave r2-r4 as they are
        m = g10 / g00
        g11, g12 = g11 - m * g01, g12 - m * g02
        g13, g14 = g13 - m * g03, g14 - m * g04
        m = g20 / g00
        n = (g21 - m * g01) / g11
        s22, s23, s24 = (g22 - m * g02 - n * g12, g23 - m * g03 - n * g13,
                         g24 - m * g04 - n * g14)
        m = g30 / g00
        n = (g31 - m * g01) / g11
        s32, s33, s34 = (g32 - m * g02 - n * g12, g33 - m * g03 - n * g13,
                         g34 - m * g04 - n * g14)
        m = g40 / g00
        n = (g41 - m * g01) / g11
        s42, s43, s44 = (g42 - m * g02 - n * g12, g43 - m * g03 - n * g13,
                         g44 - m * g04 - n * g14)
        # the Schur complement in the torque rows, by partial pivoting
        if abs(s32) > abs(s22):
            s22, s23, s24, r2, s32, s33, s34, r3 = \
                s32, s33, s34, r3, s22, s23, s24, r2
        if abs(s42) > abs(s22):
            s22, s23, s24, r2, s42, s43, s44, r4 = \
                s42, s43, s44, r4, s22, s23, s24, r2
        m = s32 / s22
        s33, s34, r3 = s33 - m * s23, s34 - m * s24, r3 - m * r2
        m = s42 / s22
        s43, s44, r4 = s43 - m * s23, s44 - m * s24, r4 - m * r2
        if abs(s43) > abs(s33):
            s33, s34, r3, s43, s44, r4 = s43, s44, r4, s33, s34, r3
        m = s43 / s33
        w4 = (r4 - m * r3) / (s44 - m * s34)
        w3 = (r3 - s34 * w4) / s33
        w2 = (r2 - s23 * w3 - s24 * w4) / s22
        # the y row, then the x row, give the translation rates
        w1 = -(g12 * w2 + g13 * w3 + g14 * w4) / g11
        return (-(g01 * w1 + g02 * w2 + g03 * w3 + g04 * w4) / g00,
                w1, w2, w3, w4)
    except ZeroDivisionError:
        raise LinAlgError("Singular matrix") from None


def make_rate_function(params: SwimmerParams) -> Callable[..., tuple]:
    """The integrator hot path ``(theta, alpha2, alpha3, hx, hy) -> qdot``,
    ``qdot`` a tuple of five floats: the bound assembly of
    :func:`_load_core` itself, one frame for the assembly and one for
    :func:`_solve_drag` per call, on Python floats, under no numpy error
    state.  The rates do not depend on ``x`` and ``y``, so it takes none."""
    return _load_core(params)
