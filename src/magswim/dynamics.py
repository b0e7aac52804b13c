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

Turning the swimmer and the field together turns its motion,
``qdot(theta, alpha, H) = T(theta) qdot(0, alpha, R(-theta) H)`` with ``T``
turning ``(x, y)`` and ``R`` the field, so ``_load_core`` assembles in the
body frame, heading 0, from the joint angles alone.  Its rate form turns
the field in and ``(xdot, ydot)`` back out around one ``_solve_drag`` on
Python floats; its load form feeds ``_solve_poses``, which solves f0, fx
and fy at heading 0 for the bracket layer in one batch.
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
    """The straight-line assembly of (drag, elastic, Mx, My) in the body
    frame over ``cos`` and ``sin``: tuples of the 25 drag loads, ``-Mh``
    row-major, and of the five rows of the spring load, Mx and My.  The
    per-swimmer values lead the arguments (``L``, ``L/2``, ``L^2/2``,
    ``L^3/3``, the middle link's ``eta_2 L^3/12``, ``xi_i``, ``eta_i``, the
    outer links' ``xi_i - eta_i``, ``M``, ``K``) and :func:`_load_core`
    binds them; then come the heading, read by the field branch alone, and
    the joint angles.  Given the field ``hx, hy`` last, it turns the field
    into the body frame, solves the torque rows of ``Mx hx + My hy -
    elastic`` by :func:`_solve_drag`, and turns ``(xdot, ydot)`` back.

    The middle link lies along the x axis, centred at the origin: ``A3 =
    -A2 = (L/2, 0)`` and ``A1 = A2 - L e1``.  Link i runs from its start
    along ``e_i`` over a parameter interval with moments ``m0, m1, m2``
    (``L, L^2/2, L^3/3`` on ``[0, L]``; ``L, 0, L^3/12`` for the middle
    link on ``[-L/2, L/2]``).  Under a unit rate its velocity is ``V0 + W
    p``, and its drag ``D = xi e e^T + eta n n^T`` loads the force rows
    with ``-D (V0 m0 + W m1)`` and the torque row about a chain point with
    ``-[(r x D V0) m0 + (r x D W + e x D V0) m1 + (e x D W) m2]``, ``r``
    running from that point to the link's start.

    Each term is computed once, and only those the unit rates leave
    non-zero are kept; dropping an exact zero moves no bit of a non-zero
    sum.  Each load is summed from +0.0, so one that cancels is +0.0 and
    its ``Mh`` entry -0.0.  ``_assemble``, the float instance, sits in the
    RK4 hot loop, hence plain arithmetic; the same source over ``cmath``,
    ``_assemble_complex``, is analytic, so at ``q + i h e`` its imaginary
    parts over ``h`` are the derivatives along ``e`` (a complex step)."""

    def assemble(L, half, m1, m2, w2, xi1, xi2, xi3, eta1, eta2, eta3,
                 d1, d3, M, K, theta, a2, a3, hx=None, hy=None):
        # the link angles at heading +0.0: a -0.0 joint angle reads +0.0
        th1 = 0.0 + a2
        th3 = 0.0 + a3
        c1, s1 = cos(th1), sin(th1)
        c3, s3 = cos(th3), sin(th3)
        # drag tensors [[X, Y], [Y, Z]]; the middle link's is (xi2, 0, eta2)
        X1 = xi1 * c1 * c1 + eta1 * s1 * s1
        Y1 = d1 * c1 * s1
        Z1 = xi1 * s1 * s1 + eta1 * c1 * c1
        X3 = xi3 * c3 * c3 + eta3 * s3 * s3
        Y3 = d3 * c3 * s3
        Z3 = xi3 * s3 * s3 + eta3 * c3 * c3
        Lc1, Ls1 = L * c1, L * s1
        # A3 = (half, 0) and A1 = -A3 - L e1
        A1x, A1y = -half - Lc1, -Ls1
        # lever arms to link 3's start A3 from A1, and (L, 0) from A2
        r1x, r1y = half - A1x, 0.0 - A1y
        # k = D n, the drag of a unit normal velocity; its components are
        # also e x D (1, 0) and e x D (0, 1), the torque arms of the unit
        # translations
        k1x, k1y = c1 * Y1 - s1 * X1, c1 * Z1 - s1 * Y1
        k3x, k3y = c3 * Y3 - s3 * X3, c3 * Z3 - s3 * Y3
        # k times the first moment, shared by the force and torque rows
        p1x, p1y, p3x, p3y = k1x * m1, k1y * m1, k3x * m1, k3y * m1
        # e x D n, times the second moment (w2 = eta2 L^3 / 12)
        w1 = (c1 * k1y - s1 * k1x) * m2
        w3 = (c3 * k3y - s3 * k3x) * m2
        # r x D n of link 3 about A1 and about A2
        q1 = r1x * k3y - r1y * k3x
        q2 = L * k3y
        # unit theta rate: links 1 and 3 start at A1 and A3, moving with
        # V0 = (-A1y, A1x) and (0, half); W = n for every link
        u1x, u1y = Y1 * A1x - X1 * A1y, Z1 * A1x - Y1 * A1y
        u3x, u3y = Y3 * half, Z3 * half
        v1 = c1 * u1y - s1 * u1x
        v3 = c3 * u3y - s3 * u3x
        # unit alpha2 rate: link 1 alone, V0 = -L n1
        g1x, g1y = X1 * Ls1 - Y1 * Lc1, Y1 * Ls1 - Z1 * Lc1
        # the 25 loads of -Mh, gRC for row R and column C; rows force x,
        # force y, torques about A1, A2, A3; columns the unit rates of x, y,
        # theta, alpha2, alpha3
        g00 = 0.0 - X1 * L - xi2 * L - X3 * L
        g01 = g10 = 0.0 - Y1 * L - Y3 * L
        g02 = 0.0 - (u1x * L + p1x) - (u3x * L + p3x)
        g03, g13 = 0.0 - (g1x * L + p1x), 0.0 - (g1y * L + p1y)
        g04 = g40 = 0.0 - p3x
        g11 = 0.0 - Z1 * L - eta2 * L - Z3 * L
        g12 = 0.0 - (u1y * L + p1y) - (u3y * L + p3y)
        g14 = g41 = 0.0 - p3y
        g20 = (0.0 - p1x - A1y * xi2 * L
               - ((r1x * Y3 - r1y * X3) * L + p3x))
        g21 = (0.0 - p1y + A1x * eta2 * L
               - ((r1x * Z3 - r1y * Y3) * L + p3y))
        g22 = (0.0 - (v1 * m1 + w1) - w2
               - ((r1x * u3y - r1y * u3x) * L + (q1 + v3) * m1 + w3))
        g23 = 0.0 - ((c1 * g1y - s1 * g1x) * m1 + w1)
        g24, g34 = 0.0 - (q1 * m1 + w3), 0.0 - (q2 * m1 + w3)
        g30 = 0.0 - (L * Y3 * L + p3x)
        g31 = 0.0 - half * eta2 * L - (L * Z3 * L + p3y)
        g32 = 0.0 - w2 - (L * u3y * L + (q2 + v3) * m1 + w3)
        g42, g44 = 0.0 - (v3 * m1 + w3), 0.0 - w3
        # a link at angle phi with moment M along its tangent feels the torque
        # M (e(phi) x H); each staircase row sums the links it holds, the
        # middle one with sin 0 = +0.0 and cos 0 = 1.0.  Spring signs
        # calibrated against the joint balance (tests: free springs relax,
        # energy decays)
        if hx is None:
            return ((g00, g01, g02, g03, g04, g10, g11, g12, g13, g14,
                     g20, g21, g22, g23, g24, g30, g31, g32, 0.0, g34,
                     g40, g41, g42, 0.0, g44),
                    (0.0, 0.0, 0.0, K * a2, -K * a3),
                    (0.0, 0.0, M * (s1 + 0.0 + s3), M * (0.0 + s3), M * s3),
                    (0.0, 0.0, -M * (c1 + 1.0 + c3), -M * (1.0 + c3),
                     -M * c3))
        # the field in the body frame, R(-theta) H; the torque rows of
        # Mx Hx + My Hy - elastic there, as the tuples give them; and the
        # translation rates turned back by theta
        c, s = cos(theta), sin(theta)
        hx, hy = c * hx + s * hy, c * hy - s * hx
        dx, dy, dth, da2, da3 = _solve_drag(
            g00, g01, g02, g03, g04, g10, g11, g12, g13, g14,
            g20, g21, g22, g23, g24, g30, g31, g32, 0.0, g34,
            g40, g41, g42, 0.0, g44,
            hx * (M * (s1 + 0.0 + s3)) + hy * (-M * (c1 + 1.0 + c3)),
            hx * (M * (0.0 + s3)) + hy * (-M * (1.0 + c3)) - K * a2,
            hx * (M * s3) + hy * (-M * c3) + K * a3)
        return c * dx - s * dy, s * dx + c * dy, dth, da2, da3

    return assemble


_assemble = _assembler(math.cos, math.sin)
_assemble_complex = _assembler(cmath.cos, cmath.sin)


def _load_core(params: SwimmerParams, complex_step: bool = False,
               rate: bool = False) -> Callable[..., tuple]:
    """Bind the parameters into ``(alpha2, alpha3) -> (drag, elastic, Mx,
    My)``, the body-frame tuples of ``-Mh qdot = Mx Hx + My Hy - elastic``:
    a ``partial`` of the assembly, so a call enters it with no frame
    between.  With ``rate`` it takes ``(theta, alpha2, alpha3, hx, hy)``,
    the RK4 rate; with ``complex_step`` the arguments may be complex
    (``_assemble_complex``), which no integrator or bracket path asks."""
    L, xi, eta = params.L, params.xi, params.eta
    half = 0.5 * L
    bound = partial(_assemble_complex if complex_step else _assemble,
                    L, half, 0.5 * (L * L), L ** 3 / 3.0,
                    eta[1] * ((half ** 3 - (-half) ** 3) / 3.0), *xi, *eta,
                    xi[0] - eta[0], xi[2] - eta[2], params.M, params.K)
    return bound if rate else partial(bound, None)


def _resistance(drag: Sequence) -> np.ndarray:
    """The (n, 5, 5) stack of ``Mh`` from n poses' rows of 25 drag loads."""
    return np.negative(np.asarray(drag)).reshape(-1, 5, 5)


def _solve_poses(loads: Callable[..., tuple],
                 poses: list) -> tuple[np.ndarray, np.ndarray]:
    """``(Mh, F)`` for ``poses``, n joint-angle pairs, and ``loads`` from
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
    mh = _resistance(rows[:, :25])
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
    :func:`_load_core` itself, which turns the field in and the rates out,
    one frame for the assembly and one for :func:`_solve_drag` per call, on
    Python floats, under no numpy error state.  The rates do not depend on
    ``x`` and ``y``, so it takes none."""
    return _load_core(params, rate=True)
