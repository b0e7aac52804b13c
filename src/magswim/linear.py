"""Linearized analysis around the straight, field-aligned equilibrium.

With the steady field component scaled to ``Hx = 1`` and lengths to the
link length, the shape coordinates ``q = (theta, alpha2, alpha3)`` obey

    qdot = g(q) + gy(q) * Hy(t),      g = g0 + gx,

and ``q = 0`` is an equilibrium.  For the weak transverse drive
``Hy = eps sin(omega t)`` the response at first order in eps is governed by
``A = grad g(0)`` and ``b = gy(0)``:

    qdot = A q + b eps sin(omega t).

The steady periodic orbit of that system, pushed through the quadratic
term of the x-displacement map, produces the per-cycle net displacement at
order eps^2.  Everything in this module is that chain: ``A``, ``b`` and
``grad Gx`` at the straight state and their closed forms, stability of
``A``, the quadratic displacement as a rational function of omega, and the
resolvent orbit, its second route.  The derivatives take no step size: the
theta column and row follow from the rotation rule, the joint-angle ones
from complex steps through the assembly itself, exact to roundoff.

Closed forms assume the head-asymmetric drag pattern: links 2 and 3 share
coefficients (xi, eta), link 1 may differ (xi1, eta1).  They are exact in
that regime; the numeric paths work for any parameters.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import _load_core, _resistance, _solve_drag, make_rate_function
from .errors import AnalysisError
from .model import SwimmerParams

__all__ = [
    "LinearizedModel",
    "DisplacementCurve",
    "linearize_angles",
    "closed_form_angle_matrix",
    "char_poly",
    "routh_hurwitz_stable",
    "closed_form_char_coeffs",
    "resolvents",
    "closed_form_grad_gx",
    "closed_form_skew_kernel",
    "net_displacement_quadratic",
    "frequency_sweep",
    "displacement_model",
]

# the complex step: Im f(q + i h e) / h is the derivative of f along e to
# roundoff for any h this small, as no difference cancels
_COMPLEX_STEP = 2.0 ** -100


@dataclass(frozen=True)
class LinearizedModel:
    """Shape-space linearization: ``qdot = a q + b Hy``."""

    a: np.ndarray
    b: np.ndarray


def _require_head_asymmetric(params: SwimmerParams) -> None:
    if params.xi[1] != params.xi[2] or params.eta[1] != params.eta[2]:
        raise ValueError(
            "closed forms need links 2 and 3 to share drag coefficients")


def _complex_steps(params: SwimmerParams, poses: list
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The complex poses ``poses`` (angle triples), assembled once each by
    ``_assemble_complex``: shape rates under ``(Hx, Hy) = (1, 0)`` (n, 3)
    by ``b``'s solve, ``_solve_drag``, whose rounding ``A`` must share with
    ``-b``, and ``Ah^-1 Bh`` (n, 2, 3) in one batch, whose rows map the
    angle rates to ``-(xdot, ydot)`` under zero net force."""
    loads = _load_core(params, complex_step=True)
    drag, elastic, mx, _ = zip(*(loads(*q) for q in poses))
    rates = [_solve_drag(*g, m[2], m[3] - e[3], m[4] - e[4])[2:]
             for g, e, m in zip(drag, elastic, mx)]
    mh = _resistance(drag)
    return np.array(rates), np.linalg.solve(mh[:, :2, :2], mh[:, :2, 2:])


def _origin_derivatives(params: SwimmerParams
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(A, b, grad Gx)`` at the straight state from three assemblies.

    Entry ``[j, k]`` of ``grad Gx`` is the derivative of ``Gx_k`` along
    shape coordinate ``j``, where ``xdot = Gx(q) . qdot``; ``Gx(0) = 0``
    by symmetry, so it carries the whole quadratic displacement.
    ``b`` is one call of the rate at the origin under ``(Hx, Hy) = (0,
    1)``.  The theta column and row follow from the rotation rule:
    turning the swimmer by theta is turning the field by -theta, so
    ``A e1 = -b``, and ``(xdot, ydot)`` turn with the swimmer, so
    ``d Gx / d theta = -Gy``, the y-row of ``Ah^-1 Bh`` at the origin.
    The alpha2 and alpha3 columns are ``Im(.) / h`` of the complex-step
    poses ``i h e_2`` and ``i h e_3`` (``_complex_steps``); the real part
    of the first gives ``Ah^-1 Bh`` at the origin to roundoff.
    """
    b = np.array(make_rate_function(params)(0.0, 0.0, 0.0, 0.0, 1.0)[2:])
    step = 1j * _COMPLEX_STEP
    rates, coupling = _complex_steps(params, [(0.0, step, 0.0),
                                              (0.0, 0.0, step)])
    a = np.empty((3, 3))
    a[:, 0] = -b
    a[:, 1:] = rates.imag.T / _COMPLEX_STEP
    grad_gx = np.empty((3, 3))
    grad_gx[0] = coupling[0, 1].real
    # Gx is minus the x-row of Ah^-1 Bh
    grad_gx[1:] = coupling[:, 0].imag / -_COMPLEX_STEP
    return a, b, grad_gx


def linearize_angles(params: SwimmerParams) -> LinearizedModel:
    """Exact ``A`` and ``b`` at the straight equilibrium, to roundoff.

    ``b`` is one call of the rate at the origin, ``A e1 = -b`` the
    rotation rule and the other two columns complex steps through the
    same assembly (``_origin_derivatives``, which ``displacement_model``
    reads); no step size enters.
    """
    a, b, _ = _origin_derivatives(params)
    return LinearizedModel(a=a, b=b)


def closed_form_angle_matrix(params: SwimmerParams) -> LinearizedModel:
    """Analytic ``A`` and ``b`` for the head-asymmetric swimmer.

    ``b`` equals the negated first column of ``A``: tilting the swimmer
    relative to the field axis and tilting the field relative to the
    swimmer are the same perturbation to first order.
    """
    _require_head_asymmetric(params)
    L, K, M = params.L, params.K, params.M
    eta1, eta = params.eta[0], params.eta[1]
    d = 6.0 / (L ** 3 * eta * eta1 * (8.0 * eta + 7.0 * eta1))
    a = d * np.array([
        [M * eta1 * (5 * eta + eta1),
         (19 * K + 9 * M) * eta * eta1 + 2 * K * eta1 ** 2,
         2 * (8 * K + 3 * M) * eta * eta1 + (5 * K + 3 * M) * eta1 ** 2],
        [-M * (4 * eta ** 2 + 13 * eta1 * eta + eta1 ** 2),
         -4 * (K + M) * eta ** 2 - (42 * K + 23 * M) * eta1 * eta
         - 2 * K * eta1 ** 2,
         -(28 * K + 9 * M) * eta * eta1 - (5 * K + 3 * M) * eta1 ** 2],
        [-6 * M * (2 * eta * eta1 + eta1 ** 2),
         -4 * (7 * K + 3 * M) * eta * eta1 - 5 * K * eta1 ** 2,
         -16 * (2 * K + M) * eta * eta1 - (16 * K + 11 * M) * eta1 ** 2],
    ])
    return LinearizedModel(a=a, b=-a[:, 0].copy())


def char_poly(a: np.ndarray) -> tuple[float, float, float, float]:
    """Coefficients of ``det(a - lam I) = a3 lam^3 + a2 lam^2 + a1 lam + a0``.

    Built on Python floats from the trace, the principal 2x2 minors, and
    the determinant by cofactors of the first row, so ``a3`` is always
    exactly -1.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3):
        raise ValueError("char_poly expects a 3x3 matrix")
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a.tolist()
    minor0 = a11 * a22 - a12 * a21
    minors = (a00 * a11 - a01 * a10) + (a00 * a22 - a02 * a20) + minor0
    det = (a00 * minor0 - a01 * (a10 * a22 - a12 * a20)
           + a02 * (a10 * a21 - a11 * a20))
    return (-1.0, a00 + a11 + a22, -minors, det)


def routh_hurwitz_stable(coeffs: tuple[float, float, float, float]) -> bool:
    """Strict Hurwitz test for a cubic ``a3 x^3 + a2 x^2 + a1 x + a0``.

    All four coefficients must share a strict sign and the pair product
    condition ``a2 a1 > a3 a0`` must hold.
    """
    a3, a2, a1, a0 = (float(c) for c in coeffs)
    if a3 == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    same_sign = (a3 > 0 and a2 > 0 and a1 > 0 and a0 > 0) or \
                (a3 < 0 and a2 < 0 and a1 < 0 and a0 < 0)
    return bool(same_sign and a2 * a1 > a3 * a0)


def closed_form_char_coeffs(params: SwimmerParams
                            ) -> tuple[float, float, float, float]:
    """Characteristic coefficients of the closed-form ``A``, normalized to
    leading coefficient -1."""
    _require_head_asymmetric(params)
    L, K, M = params.L, params.K, params.M
    eta1, eta = params.eta[0], params.eta[1]
    pole = 8.0 * eta * eta1 + 7.0 * eta1 ** 2
    n2 = (K * (2 * eta ** 2 + 37 * eta * eta1 + 9 * eta1 ** 2)
          + M * (2 * eta ** 2 + 17 * eta * eta1 + 5 * eta1 ** 2))
    n1 = (K ** 2 * (16 * eta ** 2 + 64 * eta * eta1 + eta1 ** 2)
          + K * M * (31 * eta ** 2 + 98 * eta * eta1 + 3 * eta1 ** 2)
          + M ** 2 * (10 * eta ** 2 + 28 * eta * eta1 + eta1 ** 2))
    n0 = M * (K + M) * (3 * K + M) * (2 * eta + eta1)
    a2 = -12.0 * n2 / (L ** 3 * eta * pole)
    a1 = -36.0 * n1 / (L ** 6 * eta ** 2 * pole)
    a0 = -432.0 * n0 / (L ** 9 * eta ** 2 * pole)
    return (-1.0, a2, a1, a0)


def resolvents(a: np.ndarray, omega: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """``(-a + i omega I)^-1`` and ``(-a - i omega I)^-1`` for a real 3x3
    ``a`` and a finite ``omega > 0``."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3):
        raise ValueError("resolvents expects a 3x3 matrix")
    if not math.isfinite(omega):
        raise ValueError("omega must be finite")
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    a_plus = np.linalg.inv(-a + omega * (1j * np.eye(3)))
    # a is real, so the second resolvent is the conjugate of the first
    return a_plus, a_plus.conj()


def closed_form_grad_gx(params: SwimmerParams) -> np.ndarray:
    """Analytic gradient of the coupling x-row, head-asymmetric pattern."""
    _require_head_asymmetric(params)
    L = params.L
    xi1, xi = params.xi[0], params.xi[1]
    eta1, eta = params.eta[0], params.eta[1]
    pref = L / (2.0 * (2.0 * eta + eta1))
    den = 2.0 * xi + xi1
    return pref * np.array([
        [2 * (eta - eta1), -eta1, eta],
        [-(6 * eta * eta1 - 4 * eta * xi1 + eta1 * xi1) / den,
         -eta1 * (2 * eta + xi1) / den,
         -eta * (eta1 - xi1) / den],
        [(2 * eta ** 2 + 4 * eta * eta1 - 3 * eta1 * xi) / den,
         eta1 * (eta - xi) / den,
         eta * (eta + eta1 + xi) / den],
    ])


def closed_form_skew_kernel(params: SwimmerParams) -> np.ndarray:
    """Unit kernel of ``grad Gx - (grad Gx)^T`` from the analytic entries."""
    _require_head_asymmetric(params)
    xi1, xi = params.xi[0], params.xi[1]
    eta1, eta = params.eta[0], params.eta[1]
    u = np.array([
        eta1 * xi + eta * xi1 - 2 * eta * eta1,
        2 * eta ** 2 + 4 * eta1 * eta - 2 * xi * eta - xi1 * eta
        - 3 * eta1 * xi,
        6 * eta * eta1 - 2 * xi * eta1 - 4 * eta * xi1,
    ])
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        raise ValueError("kernel vector degenerates for these parameters")
    return u / norm


@dataclass(frozen=True)
class _QuadraticModel:
    """``A``, ``b``, ``grad Gx``, its skew part ``w = grad Gx - grad Gx^T``
    and the coefficients of ``dx2`` (``_rational_coeffs``)."""

    a: np.ndarray
    b: np.ndarray
    grad_gx: np.ndarray
    w: np.ndarray
    coeffs: tuple[float, ...]


def _matvec(m: list, x: list) -> list[float]:
    """``m x`` for the rows ``m`` of three floats and the three floats
    ``x``, on Python floats."""
    return [r0 * x[0] + r1 * x[1] + r2 * x[2] for r0, r1, r2 in m]


def _rational_coeffs(a: np.ndarray, b: np.ndarray, w: np.ndarray,
                     poly: tuple[float, ...]) -> tuple[float, ...]:
    """``(alpha, beta, q2, q1, q0)`` with ``dx2(omega) = -pi omega (alpha -
    beta omega^2) / Q(omega^2)``, ``Q(x) = x^3 + q2 x^2 + q1 x + q0``, on
    Python floats.

    ``poly = char_poly(a)`` holds the trace ``T``, the sum ``m`` of the
    principal 2x2 minors and the determinant ``D``.  By Cayley-Hamilton
    ``c = (-A + i omega I)^-1 b = (v - omega^2 b + i omega u) / p(i omega)``
    with ``p(s) = s^3 - T s^2 + m s - D``, ``u = (A - T I) b`` and ``v = A u
    + m b``.  ``w`` is skew, so ``(pi/2) Im(c^T w conj(c))`` has ``alpha =
    v^T w u``, ``beta = b^T w u`` and ``Q(omega^2) = |p(i omega)|^2``.
    """
    _, trace, neg_minors, det = poly
    a, b = a.tolist(), b.tolist()
    u = [ab - trace * bk for ab, bk in zip(_matvec(a, b), b)]
    v = [au - neg_minors * bk for au, bk in zip(_matvec(a, u), b)]
    alpha, beta = _matvec((v, b), _matvec(w.tolist(), u))
    return (alpha, beta, trace * trace + 2.0 * neg_minors,
            neg_minors * neg_minors - 2.0 * trace * det, det * det)


def displacement_model(params: SwimmerParams) -> _QuadraticModel:
    """The (A, b, grad Gx) bundle used by the displacement formulas, from
    one float and two complex assemblies (``_origin_derivatives``), with
    the coefficients of ``dx2``."""
    a, b, grad_gx = _origin_derivatives(params)
    poly = char_poly(a)
    if not routh_hurwitz_stable(poly):
        raise AnalysisError(
            "straight equilibrium is not strictly stable; periodic "
            "response is undefined")
    w = grad_gx - grad_gx.T
    return _QuadraticModel(a=a, b=b, grad_gx=grad_gx, w=w,
                           coeffs=_rational_coeffs(a, b, w, poly))


def _dx2_fraction(coeffs: tuple[float, ...], hat, sigma):
    """``(n, d)`` with ``dx2 = -pi n / d`` at ``omega = hat / sigma``,
    ``sigma = 1 / max(omega, 1)``, floats or arrays: ``n = omega (alpha -
    beta x)`` and ``d = Q(x)``, ``x = omega^2``, both divided by
    ``max(omega, 1)^6`` so that neither overflows."""
    alpha, beta, q2, q1, q0 = coeffs
    y, tau = hat * hat, sigma * sigma
    return (hat * sigma * tau * (alpha * tau - beta * y),
            q0 * tau * tau * tau + y * (q1 * tau * tau + y * (q2 * tau + y)))


def _dx2_terms(model: _QuadraticModel, omega: float
               ) -> tuple[float, float, float]:
    """``dx2`` at ``omega`` and its first two ``omega``-derivatives, by the
    quotient rule on ``_dx2_fraction``, in the grid's rounding.  A value
    that is not finite, or a zero ``d``, raises ``AnalysisError``."""
    if not math.isfinite(omega):
        raise ValueError("omega must be finite")
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    sigma = 1.0 / max(omega, 1.0)
    hat = omega * sigma
    num, den = _dx2_fraction(model.coeffs, hat, sigma)
    value = -math.pi * num / den if den != 0.0 else math.nan
    if not math.isfinite(value):
        raise AnalysisError(f"dx2 = {value:.3e} at omega = {omega:g} is "
                            f"not finite")
    # the omega-derivatives of n and d, divided by max(omega, 1)^6 alike
    alpha, beta, q2, q1, q0 = model.coeffs
    y, tau = hat * hat, sigma * sigma
    num1 = tau * tau * (alpha * tau - 3.0 * beta * y)
    num2 = -6.0 * beta * hat * sigma * tau * tau
    den1 = 2.0 * hat * sigma * (q1 * tau * tau
                                + y * (2.0 * q2 * tau + 3.0 * y))
    den2 = 2.0 * tau * (q1 * tau * tau + y * (6.0 * q2 * tau + 15.0 * y))
    ratio = num / den
    slope = (num1 - ratio * den1) / den
    curvature = (num2 - 2.0 * slope * den1 - ratio * den2) / den
    return value, -math.pi * slope, -math.pi * curvature


def _dx2_grid(model: _QuadraticModel, omegas: np.ndarray) -> np.ndarray:
    """``_dx2_terms``' value at each of the positive ``omegas``, to the bit;
    the first frequency whose value is not finite raises."""
    sigma = 1.0 / np.maximum(omegas, 1.0)
    num, den = _dx2_fraction(model.coeffs, omegas * sigma, sigma)
    dx2 = -math.pi * num / np.where(den != 0.0, den, math.nan)
    finite = np.isfinite(dx2)
    if not finite.all():
        k = int(finite.argmin())
        raise AnalysisError(f"dx2 = {dx2[k]:.3e} at omega = {omegas[k]:g} "
                            f"is not finite")
    return dx2


def _dx2_quadrature(model: _QuadraticModel, omegas: np.ndarray,
                    a_plus: np.ndarray) -> np.ndarray:
    """Time-domain value of ``dx2`` at each of ``omegas``: the integral
    over one period of ``q . grad Gx . qdot`` along the steady orbit, from
    the stacked resolvents ``a_plus = (-A + i omega I)^-1``.

    With ``c = a_plus b`` and the phase row ``p = [cos, sin]`` of
    ``omega t``, ``q = p S`` with ``S = [Im c; Re c]`` and ``qdot = p R``
    with ``R = omega [Re c; -Im c]``, so the integrand is
    ``p (S grad Gx R^T) p^T``.  Its period mean takes the mean of
    ``p^T p``, which is ``I / 2``, so the integral is
    ``(pi / omega) tr(S grad Gx R^T)``.  The trapezoid sum on N >= 3
    uniform nodes is the same number, because the integrand is a
    trigonometric polynomial of degree 2.  It is a second route to
    ``dx2``, by an LU inverse where the sweep takes the adjugate:
    ``validate`` and acceptance criterion 04 compare the two.
    """
    c = a_plus @ model.b
    shape_coef = np.stack([c.imag, c.real], axis=1)
    rate_coef = omegas[:, None, None] * np.stack([c.real, -c.imag], axis=1)
    form = shape_coef @ model.grad_gx @ rate_coef.transpose(0, 2, 1)
    return (math.pi / omegas) * np.trace(form, axis1=1, axis2=2)


def net_displacement_quadratic(params: SwimmerParams, omega: float) -> float:
    """Per-cycle x-displacement at quadratic order, per unit eps^2, from the
    rational form of ``dx2`` (``_dx2_terms``)."""
    return _dx2_terms(displacement_model(params), omega)[0]


@dataclass(frozen=True)
class DisplacementCurve:
    """A frequency sweep of the quadratic displacement.

    ``omega_star`` maximizes ``|dx2|``; when the grid maximum sits on the
    boundary the refinement is skipped and ``boundary`` is set.
    ``near_zero`` flags curves that vanish to roundoff (equal-coefficient
    swimmers cannot translate at this order).  ``evaluations`` counts the
    frequencies the sweep evaluated: the grid, the Newton iterates of the
    refinement (none on the boundary or near-zero paths) and
    ``omega_star``.
    """

    omegas: np.ndarray
    dx2: np.ndarray
    omega_star: float
    dx2_star: float
    boundary: bool
    near_zero: bool
    evaluations: int


def _newton_peak(evaluate, omegas: np.ndarray, peak: int,
                 terms: tuple[float, float, float]) -> float:
    """The stationary point of ``|dx2|`` next to the interior grid peak.

    ``terms`` are ``_dx2_terms`` at ``omegas[peak]``.  With ``s`` the sign
    of ``dx2`` there, the slope ``s dx2'`` falls through zero in the grid
    cell on the side it points to, which is the first bracket.  Each step
    is a Newton step on that slope, or the bracket's midpoint when the
    Newton step would leave the bracket or ``s dx2''`` is not negative;
    each point evaluated (``evaluate`` returns its terms) becomes the
    bracket end on its side.  Once a step is below 1e-9 of ``omega`` the
    point it reaches is returned: Newton converges quadratically, so that
    point is far closer than 1e-9 to the root.
    """
    sign = math.copysign(1.0, terms[0])
    omega = float(omegas[peak])
    if sign * terms[1] > 0.0:
        lo, hi = omega, float(omegas[peak + 1])
    else:
        lo, hi = float(omegas[peak - 1]), omega
    while True:
        _, slope, curvature = terms
        step = -slope / curvature if sign * curvature < 0.0 else math.nan
        # a Newton step from a bracket end points into the bracket; one
        # below the tolerance may round back onto that end
        if not (abs(step) < 1e-9 * omega or lo < omega + step < hi):
            step = 0.5 * (lo + hi) - omega
        if abs(step) < 1e-9 * omega:
            return omega + step
        omega += step
        terms = evaluate(omega)
        if sign * terms[1] > 0.0:
            lo = omega
        else:
            hi = omega


def frequency_sweep(params: SwimmerParams, omega_min: float,
                    omega_max: float, n_grid: int = 64) -> DisplacementCurve:
    """Sweep ``dx2`` over a log-spaced grid and refine the peak.

    ``dx2`` is a rational function of omega, evaluated over the whole
    grid as arrays (``_dx2_grid``); the peak of ``|dx2|`` is then refined,
    one frequency at a time, by a safeguarded Newton iteration on the exact
    ``omega``-slope of ``dx2`` inside the grid cell that brackets it
    (``_newton_peak``), typically 2-4 points before ``omega_star``.
    """
    if not (math.isfinite(omega_min) and math.isfinite(omega_max)):
        raise ValueError("omega_min and omega_max must be finite")
    if not (0.0 < omega_min < omega_max):
        raise ValueError("need 0 < omega_min < omega_max")
    if isinstance(n_grid, bool) or not isinstance(n_grid, numbers.Integral):
        raise ValueError("n_grid must be an integer")
    if n_grid < 16:
        raise ValueError("n_grid must be at least 16")
    model = displacement_model(params)
    # np.logspace's bits by linspace's own arithmetic, without its overhead
    lo, hi = math.log10(omega_min), math.log10(omega_max)
    y = np.arange(n_grid, dtype=float)
    y *= (hi - lo) / (n_grid - 1)
    y += lo
    y[-1] = hi
    omegas = np.power(10.0, y)
    dx2 = _dx2_grid(model, omegas)
    evaluations = n_grid

    def evaluate(w: float) -> tuple[float, float, float]:
        nonlocal evaluations
        evaluations += 1
        return _dx2_terms(model, w)

    magnitude = np.abs(dx2)
    peak = int(magnitude.argmax())
    near_zero = bool(magnitude[peak] <= 1e-12)
    boundary = peak in (0, n_grid - 1)
    if near_zero or boundary:
        # a curve zero to roundoff has no meaningful peak, and a grid peak
        # on the boundary no bracket to refine in
        omega_star = float(omegas[peak])
    else:
        omega_star = _newton_peak(evaluate, omegas, peak,
                                  _dx2_terms(model, float(omegas[peak])))
    dx2_star = evaluate(omega_star)[0]
    return DisplacementCurve(
        omegas=omegas, dx2=dx2, omega_star=omega_star, dx2_star=dx2_star,
        boundary=boundary, near_zero=near_zero, evaluations=evaluations)
