"""Helpers shared by the tests.

``segment_frames`` builds the link geometry of a configuration directly
from its angles: the independent oracle from which the quadrature check
of ``test_dynamics`` takes its material points, knowing nothing of the
moment integrals of the assembly.  ``velocity`` is the configuration
velocity as one call of the rate, as an array; the rate solves on Python
floats and needs no numpy error state.  ``two_call_rate`` is that rate as
two calls, load tuples then elimination, which the one-call rate must
match bit for bit.  ``loop_assemble`` is the reference assembly at any
heading, a loop over links and unit rates that the body-frame assembly
matches bit for bit at heading +0.0, and ``resistance`` its ``Mh`` at
one pose as a 5x5 array.  ``complex_step_theta_column`` and
``central_difference_origin`` measure the derivatives at the straight
state on the loop form, pose by pose through ``np.linalg.solve``, the
first by a complex step along theta, the second by central differences
along every angle.
``shifted`` and ``with_neighbours`` build the difference stencil of the
bracket layer as (n, 5) arrays of full states, each pose ``x +- dx`` with
dx the whole 5-vector step, against which the Python-float poses of
``brackets._stencil`` are checked bit for bit.  ``solve_poses`` is the
batched pose solve built from two ``np.array`` conversions, against which
the one-table ``dynamics._solve_poses`` is checked byte for byte.
"""
import cmath
import math
from dataclasses import dataclass

import numpy as np

from magswim import Configuration, SwimmerParams, make_rate_function
from magswim.brackets import BASE_STEP
from magswim.dynamics import _load_core, _solve_drag

# the unit steps e_3, e_4 of the two joint angles on the full state
ANGLE_UNITS = np.eye(5)[3:]


def shifted(states: np.ndarray, step: float) -> np.ndarray:
    """The states ``x +- step e_j`` of a central difference over the
    joint angles alpha2 and alpha3, for each x of the (..., 5)
    ``states``: (..., 4, 5) in the order +e_3, -e_3, +e_4, -e_4.

    Each is ``x + dx`` or ``x - dx`` with dx the full 5-vector step: the
    other entries move by +-0.0, and -0.0 + 0.0 is +0.0, so a -0.0 of x
    becomes +0.0 on the + side of another angle's difference.
    """
    dx = step * ANGLE_UNITS
    out = np.empty(states.shape[:-1] + (4, 5))
    out[..., 0::2, :] = states[..., None, :] + dx
    out[..., 1::2, :] = states[..., None, :] - dx
    return out


def with_neighbours(centres: np.ndarray) -> np.ndarray:
    """The (n, 5) ``centres``, then the ``BASE_STEP`` neighbours of each."""
    return np.concatenate([
        centres, shifted(centres, BASE_STEP).reshape(-1, 5)])


def velocity(config: Configuration, h: tuple[float, float],
             params: SwimmerParams) -> np.ndarray:
    """Configuration velocity under the field ``h = (Hx, Hy)``: one call of
    the rate on the configuration's angles, which solves on Python floats,
    so no numpy error state is entered around it."""
    return np.array(make_rate_function(params)(
        *config.as_array().tolist()[2:], h[0], h[1]))


def two_call_rate(params: SwimmerParams):
    """The rate as two calls, the reference for the one-call rate of
    ``make_rate_function``: the body-frame load tuples of ``_load_core``,
    then ``_solve_drag`` of the drag loads and the torque rows of
    ``Mx hx + My hy - elastic`` formed from the tuples, under the field
    turned into the body frame, and the translation rates turned back."""
    loads = _load_core(params)

    def rate(theta, a2, a3, hx, hy):
        g, elastic, mx, my = loads(a2, a3)
        c, s = math.cos(theta), math.sin(theta)
        hx, hy = c * hx + s * hy, c * hy - s * hx
        dx, dy, *turns = _solve_drag(*g, hx * mx[2] + hy * my[2],
                                     hx * mx[3] + hy * my[3] - elastic[3],
                                     hx * mx[4] + hy * my[4] - elastic[4])
        return (c * dx - s * dy, s * dx + c * dy, *turns)
    return rate


def loop_assemble(params: SwimmerParams, theta, a2, a3):
    """Reference assembly at any heading: the generic column x link x row
    loop over the unit-rate velocity table, every term kept, ``(Mh, Mx,
    My)`` as arrays.  The body-frame ``_assemble`` must reproduce it at
    theta = +0.0 bit for bit, signed zeros included.  Complex angles take
    ``cmath`` and give complex arrays (a complex step)."""
    L, (xi1, xi2, xi3), (eta1, eta2, eta3), M = \
        params.L, params.xi, params.eta, params.M
    complex_step = any(isinstance(v, complex) for v in (theta, a2, a3))
    cos, sin = (cmath.cos, cmath.sin) if complex_step else (math.cos,
                                                             math.sin)

    def moments(a, b):
        return b - a, 0.5 * (b * b - a * a), (b ** 3 - a ** 3) / 3.0

    th1, th3 = theta + a2, theta + a3
    c1, s1 = cos(th1), sin(th1)
    c2, s2 = cos(theta), sin(theta)
    c3, s3 = cos(th3), sin(th3)
    D = tuple((xi * c * c + eta * s * s, (xi - eta) * c * s,
               xi * s * s + eta * c * c)
              for xi, eta, c, s in ((xi1, eta1, c1, s1), (xi2, eta2, c2, s2),
                                    (xi3, eta3, c3, s3)))
    e = ((c1, s1), (c2, s2), (c3, s3))
    half = 0.5 * L
    A2x, A2y = -half * c2, -half * s2
    A3x, A3y = half * c2, half * s2
    A1x, A1y = A2x - L * c1, A2y - L * s1
    P0 = ((A1x, A1y), (0.0, 0.0), (A3x, A3y))
    outer = moments(0.0, L)
    mom = (outer, moments(-half, half), outer)
    refs = ((A1x, A1y), (A2x, A2y), (A3x, A3y))
    zero = (0.0, 0.0)
    n1, n2, n3 = (-s1, c1), (-s2, c2), (-s3, c3)
    vels = (
        (((1.0, 0.0), zero),) * 3,
        (((0.0, 1.0), zero),) * 3,
        (((-half * n2[0] - L * n1[0], -half * n2[1] - L * n1[1]), n1),
         (zero, n2), ((half * n2[0], half * n2[1]), n3)),
        (((-L * n1[0], -L * n1[1]), n1), (zero, zero), (zero, zero)),
        ((zero, zero), (zero, zero), (zero, n3)),
    )
    Mh = np.empty((5, 5), dtype=complex if complex_step else float)
    for j in range(5):
        F = [0.0, 0.0]
        T = [0.0, 0.0, 0.0]
        for i in range(3):
            (V0x, V0y), (Wx, Wy) = vels[j][i]
            if V0x == 0.0 and V0y == 0.0 and Wx == 0.0 and Wy == 0.0:
                continue
            dxx, dxy, dyy = D[i]
            DV0x, DV0y = dxx * V0x + dxy * V0y, dxy * V0x + dyy * V0y
            DWx, DWy = dxx * Wx + dxy * Wy, dxy * Wx + dyy * Wy
            m0, m1, m2 = mom[i]
            F[0] -= DV0x * m0 + DWx * m1
            F[1] -= DV0y * m0 + DWy * m1
            ex, ey = e[i]
            cr_eDV0 = ex * DV0y - ey * DV0x
            cr_eDW = ex * DWy - ey * DWx
            for k in range(i + 1):
                rx, ry = P0[i][0] - refs[k][0], P0[i][1] - refs[k][1]
                T[k] += -((rx * DV0y - ry * DV0x) * m0
                          + (rx * DWy - ry * DWx + cr_eDV0) * m1
                          + cr_eDW * m2)
        Mh[:, j] = (-F[0], -F[1], -T[0], -T[1], -T[2])
    Mx = np.array([0.0, 0.0, M * (s1 + s2 + s3), M * (s2 + s3), M * s3])
    My = np.array([0.0, 0.0, -M * (c1 + c2 + c3), -M * (c2 + c3), -M * c3])
    return Mh, Mx, My


def resistance(params: SwimmerParams, pose) -> np.ndarray:
    """``Mh`` at the angle triple ``pose``, any heading, from the loop
    form."""
    return loop_assemble(params, *pose)[0]


def solve_poses(loads, poses) -> tuple[np.ndarray, np.ndarray]:
    """``(Mh, F)`` of ``dynamics._solve_poses`` built by two conversions:
    ``np.array`` of the drag list for ``Mh``, and ``np.array`` of the rows
    ``elastic, Mx, My``, negated in place, for the right-hand side."""
    drag, rows = [], []
    for pose in poses:
        g, elastic, Mx, My = loads(*pose)
        drag += g
        rows += (*elastic, *Mx, *My)
    mh = np.negative(np.array(drag)).reshape(-1, 5, 5)
    rhs = np.array(rows).reshape(len(mh), 3, 5)
    np.negative(rhs[:, 1:], out=rhs[:, 1:])
    cols = np.linalg.solve(mh, rhs.transpose(0, 2, 1))
    return mh, np.ascontiguousarray(cols.transpose(0, 2, 1))


def _shape_rates_and_gx(params: SwimmerParams, pose):
    """Shape rates under ``(Hx, Hy) = (1, 0)`` and the coupling x-row
    ``Gx`` at the angle triple ``pose``, from the loop form by the public
    solve."""
    mh, mx, _ = loop_assemble(params, *pose)
    elastic = np.array([0.0, 0.0, 0.0, params.K * pose[1],
                        -params.K * pose[2]])
    rates = np.linalg.solve(mh, elastic - mx)
    gx = -np.linalg.solve(mh[:2, :2], mh[:2, 2:])[0]
    return rates[2:], gx


def complex_step_theta_column(params: SwimmerParams) -> np.ndarray:
    """``A e1``: the theta-derivative of the shape rates at the origin
    under ``(1, 0)``, as ``Im / h`` at the pose ``(i h, 0, 0)`` of the
    loop form."""
    h = 2.0 ** -100
    rates, _ = _shape_rates_and_gx(params, (1j * h, 0.0, 0.0))
    return rates.imag / h


def central_difference_origin(params: SwimmerParams, step: float
                              ) -> tuple[np.ndarray, np.ndarray]:
    """``(A, grad Gx)`` at the origin by central differences of ``step``
    along theta, alpha2 and alpha3 of the loop form, pose by pose."""
    a, grad = np.empty((3, 3)), np.empty((3, 3))
    for j in range(3):
        dq = [0.0, 0.0, 0.0]
        dq[j] = step
        plus = _shape_rates_and_gx(params, dq)
        minus = _shape_rates_and_gx(params, [-x for x in dq])
        a[:, j] = (plus[0] - minus[0]) / (2.0 * step)
        grad[j] = (plus[1] - minus[1]) / (2.0 * step)
    return a, grad


@dataclass(frozen=True)
class SegmentFrames:
    """Endpoints, centers, and orthonormal frames of the three links.

    ``endpoints`` stacks the four chain points A1..A4 (shape (4, 2)); link i
    runs from ``endpoints[i]`` to ``endpoints[i+1]``.  ``tangents[i]`` and
    ``normals[i]`` are the unit tangent/normal of link i and ``angles[i]``
    its absolute angle.
    """

    endpoints: np.ndarray
    centers: np.ndarray
    tangents: np.ndarray
    normals: np.ndarray
    angles: np.ndarray


def segment_frames(config: Configuration,
                   params: SwimmerParams) -> SegmentFrames:
    """Assemble the per-link frames for a configuration.

    The chain closes by construction: ``endpoints[i+1] - endpoints[i]``
    equals ``L * tangents[i]`` exactly.
    """
    L = params.L
    th1 = config.theta + config.alpha2
    th2 = config.theta
    th3 = config.theta + config.alpha3
    angles = np.array([th1, th2, th3])
    tangents = np.column_stack([np.cos(angles), np.sin(angles)])
    normals = np.column_stack([-np.sin(angles), np.cos(angles)])
    c2 = np.array([config.x, config.y])
    a2 = c2 - 0.5 * L * tangents[1]
    a3 = c2 + 0.5 * L * tangents[1]
    a1 = a2 - L * tangents[0]
    a4 = a3 + L * tangents[2]
    endpoints = np.vstack([a1, a2, a3, a4])
    centers = np.vstack([
        0.5 * (a1 + a2),
        c2,
        0.5 * (a3 + a4),
    ])
    return SegmentFrames(endpoints=endpoints, centers=centers,
                         tangents=tangents, normals=normals, angles=angles)
