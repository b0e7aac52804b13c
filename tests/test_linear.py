"""Linearization, stability, and quadratic displacement cross-checks."""
import dataclasses
import hashlib
import math
import operator
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import magswim.dynamics
import magswim.linear
from magswim import AnalysisError, Configuration, SwimmerParams
from magswim.brackets import lie_rank
from magswim.linear import (
    char_poly,
    closed_form_angle_matrix,
    closed_form_char_coeffs,
    closed_form_grad_gx,
    closed_form_skew_kernel,
    displacement_model,
    frequency_sweep,
    linearize_angles,
    net_displacement_quadratic,
    resolvents,
    routh_hurwitz_stable,
    _dx2_grid,
    _dx2_quadrature,
    _dx2_terms,
    _newton_peak,
    _origin_derivatives,
    _rational_coeffs,
)
from magswim.model import SinusoidalField
from magswim.simulate import integrate
from oracles import (central_difference_origin, complex_step_theta_column,
                     resistance)

CANON = SwimmerParams(1.0, (1.2, 0.8, 0.8), (3.0, 1.5, 1.5), 1.0, 1.0)


def with_inputs(model, **inputs):
    """``model`` with some of ``a``, ``b`` and ``w`` replaced, and the
    rational coefficients of ``dx2`` derived from them again."""
    model = dataclasses.replace(model, **inputs)
    return dataclasses.replace(model, coeffs=_rational_coeffs(
        model.a, model.b, model.w, char_poly(model.a)))


# head-asymmetric family: links 2 and 3 share coefficients.  Property
# tests deliberately roam outside the slender-body ordering eta > xi, so
# the advisory warning is silenced here.
def head_asymmetric(l, xi1, xi, eta1, eta, k, m):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return SwimmerParams(l, (xi1, xi, xi), (eta1, eta, eta), k, m)


ha_params = st.builds(
    head_asymmetric,
    l=st.floats(0.2, 5.0),
    xi1=st.floats(0.2, 5.0),
    xi=st.floats(0.2, 5.0),
    eta1=st.floats(0.2, 5.0),
    eta=st.floats(0.2, 5.0),
    k=st.floats(0.1, 5.0),
    m=st.floats(0.1, 5.0),
)


class TestLinearization:
    def test_canonical_regression(self):
        lin = linearize_angles(CANON)
        assert lin.a[0, 0] == pytest.approx(14.0 / 11.0, rel=1e-9)
        np.testing.assert_allclose(
            lin.b, [-14.0 / 11.0, 34.0 / 11.0, 48.0 / 11.0], rtol=1e-9)

    def test_outputs_are_frozen(self):
        # values of the rotation rule and the complex steps; since b and
        # the complex-step rates are solved by the rate's float
        # elimination, not LAPACK, b and A moved by at most 1.0e-15 and
        # 7.7e-16 of their largest entries, and grad Gx kept its bits
        lin = linearize_angles(CANON)
        assert lin.a.tolist() == [
            [1.2727272727272725, 5.818181818181816, 6.909090909090906],
            [-3.09090909090909, -13.272727272727266, -9.636363636363628],
            [-4.363636363636364, -9.09090909090909, -18.545454545454543]]
        assert lin.b.tolist() == [
            -1.2727272727272725, 3.09090909090909, 4.363636363636364]
        assert _origin_derivatives(CANON)[2].tolist() == [
            [-0.25, -0.25, 0.125],
            [-0.6964285714285716, -0.375, -0.08035714285714286],
            [0.4553571428571429, 0.0625, 0.23660714285714285]]

    def test_second_set_regression(self):
        p = head_asymmetric(1.3, 1.2, 0.8, 3.0, 1.5, 0.7, 1.1)
        lin = linearize_angles(p)
        expected = np.array([
            [0.63723259, 2.15169446, 2.59858485],
            [-1.54756486, -5.05648198, -3.56684735],
            [-2.18479745, -3.29374767, -7.1667977],
        ])
        np.testing.assert_allclose(lin.a, expected, atol=2e-8)

    @given(params=ha_params)
    @settings(max_examples=30, deadline=None)
    def test_closed_form_matches_numeric(self, params):
        # no step enters, so A and b meet the closed forms to roundoff
        # (the central differences were 7e-13 off)
        lin = linearize_angles(params)
        closed = closed_form_angle_matrix(params)
        scale = np.max(np.abs(closed.a))
        assert np.max(np.abs(lin.a - closed.a)) < 1e-13 * scale
        assert np.max(np.abs(lin.b - closed.b)) < 1e-13 * scale

    @pytest.mark.parametrize("params", [
        SwimmerParams(0.8, (0.9, 0.6, 0.7), (2.2, 1.3, 1.1), 2.0, 0.5),
        SwimmerParams(1.3, (0.7, 0.4, 0.6), (1.9, 1.2, 0.8), 0.6, 1.4)])
    def test_unequal_tail_matches_central_differences(self, params):
        # no closed form covers links 2 and 3 apart; central differences
        # with the former step 1e-6 agree to about 6e-13 there
        a, grad = central_difference_origin(params, 1e-6)
        lin = linearize_angles(params)
        assert np.max(np.abs(lin.a - a)) <= 1e-9 * np.max(np.abs(a))
        assert np.max(np.abs(_origin_derivatives(params)[2] - grad)) <= \
            1e-9 * np.max(np.abs(grad))

    def test_tangential_drag_does_not_enter(self):
        # A depends only on the normal coefficients; swapping the
        # tangential set must leave it unchanged to roundoff
        a1 = linearize_angles(
            head_asymmetric(1.0, 1.2, 0.8, 3.0, 1.5, 1.0, 1.0)).a
        a2 = linearize_angles(
            head_asymmetric(1.0, 0.4, 2.9, 3.0, 1.5, 1.0, 1.0)).a
        assert np.max(np.abs(a1 - a2)) < 1e-13 * np.max(np.abs(a1))

    @given(params=ha_params)
    @settings(max_examples=25, deadline=None)
    def test_drive_column_identity(self, params):
        """Tilting the field equals tilting the swimmer: b = -A e1, with
        A e1 measured by a complex step along theta."""
        lin = linearize_angles(params)
        scale = max(1.0, float(np.max(np.abs(lin.a))))
        column = complex_step_theta_column(params)
        assert np.max(np.abs(lin.b + column)) < 1e-7 * scale

    def test_closed_form_rejects_unequal_tail(self):
        p = SwimmerParams(1.0, (1.2, 0.8, 0.9), (3.0, 1.5, 1.5), 1.0, 1.0)
        with pytest.raises(ValueError):
            closed_form_angle_matrix(p)


class TestCharPoly:
    def test_matches_determinant_evaluation(self):
        a = closed_form_angle_matrix(CANON).a
        a3, a2, a1, a0 = char_poly(a)
        for lam in (-2.3, 0.0, 0.7, 5.1):
            direct = np.linalg.det(a - lam * np.eye(3))
            poly = a3 * lam ** 3 + a2 * lam ** 2 + a1 * lam + a0
            assert poly == pytest.approx(direct, rel=1e-10, abs=1e-10)

    @given(params=ha_params)
    @settings(max_examples=30, deadline=None)
    def test_closed_coeffs_match_closed_matrix(self, params):
        coeffs = np.array(closed_form_char_coeffs(params))
        direct = np.array(char_poly(closed_form_angle_matrix(params).a))
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(coeffs - direct)) < 1e-10 * scale

    def test_leading_coefficient_is_minus_one(self):
        assert char_poly(np.diag([-1.0, -2.0, -3.0]))[0] == -1.0


class TestRouthHurwitz:
    def test_known_cases(self):
        assert routh_hurwitz_stable(char_poly(np.diag([-1.0, -2.0, -3.0])))
        assert not routh_hurwitz_stable(char_poly(np.diag([1.0, -2.0, -3.0])))
        # undamped oscillator pair: marginal, must be rejected
        a = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        assert not routh_hurwitz_stable(char_poly(a))

    def test_rejects_degenerate_leading(self):
        with pytest.raises(ValueError):
            routh_hurwitz_stable((0.0, 1.0, 1.0, 1.0))

    @given(e1=st.floats(-4, 4), e2=st.floats(-4, 4), e3=st.floats(-4, 4))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_eigenvalues(self, e1, e2, e3):
        assume(min(abs(e1), abs(e2), abs(e3)) > 1e-3)
        rng = np.random.default_rng(42)
        basis = rng.normal(size=(3, 3)) + np.eye(3)
        assume(abs(np.linalg.det(basis)) > 1e-2)
        a = basis @ np.diag([e1, e2, e3]) @ np.linalg.inv(basis)
        expected = e1 < 0 and e2 < 0 and e3 < 0
        assert routh_hurwitz_stable(char_poly(a)) == expected


class TestResolvents:
    def test_scalar_case(self):
        ap, am = resolvents(-np.eye(3), 1.0)
        np.testing.assert_allclose(ap, np.eye(3) / (1.0 + 1.0j), atol=1e-14)
        np.testing.assert_allclose(am, np.eye(3) / (1.0 - 1.0j), atol=1e-14)

    def test_high_frequency_expansion(self):
        a = closed_form_angle_matrix(CANON).a
        eye = np.eye(3)
        errs = []
        for omega in (1e3, 1e4):
            ap, am = resolvents(a, omega)
            errs.append(max(
                np.max(np.abs(ap - (eye / (1j * omega) - a / omega ** 2))),
                np.max(np.abs(am - (-eye / (1j * omega) - a / omega ** 2)))))
        assert errs[0] < 1e-6
        # third-order remainder: a decade in omega gains three decades
        assert errs[0] / errs[1] == pytest.approx(1e3, rel=0.2)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            resolvents(-np.eye(3), 0.0)

    @pytest.mark.parametrize("params", [
        CANON, head_asymmetric(1.3, 1.2, 0.8, 3.0, 1.5, 0.7, 1.1),
        SwimmerParams(0.8, (0.9, 0.6, 0.7), (2.2, 1.3, 1.1), 2.0, 0.5)])
    def test_second_resolvent_is_the_direct_inverse(self, params):
        # the conjugate of the first resolvent stands in for inverting
        # -a - i omega I; it must be that inverse to the last bit
        a = linearize_angles(params).a
        for omega in np.logspace(-2.0, 2.0, 20):
            direct = np.linalg.inv(-a - 1j * omega * np.eye(3))
            assert resolvents(a, omega)[1].tobytes() == direct.tobytes()

    @pytest.mark.parametrize("omega,message", [
        (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"),
        (0.0, "positive"), (-1.0, "positive")])
    def test_rejects_invalid_frequency(self, omega, message):
        model = displacement_model(CANON)
        with pytest.raises(ValueError, match=f"^omega must be {message}$"):
            resolvents(-np.eye(3), omega)
        with pytest.raises(ValueError, match=f"^omega must be {message}$"):
            _dx2_terms(model, omega)
        with pytest.raises(ValueError, match=f"^omega must be {message}$"):
            net_displacement_quadratic(CANON, omega)

    def test_exactly_singular_matrix_raises(self):
        # -a + i I has the singular block [[i, 1], [-1, i]]: LU meets an
        # exact zero pivot, which the bare inverse must still report
        a = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            resolvents(a, 1.0)
        # Q(x) = (x - 1)^2 (x + 1) vanishes exactly at omega = 1
        model = with_inputs(displacement_model(CANON), a=a)
        message = "^dx2 = nan at omega = 1 is not finite$"
        with pytest.raises(AnalysisError, match=message):
            _dx2_terms(model, 1.0)
        with pytest.raises(AnalysisError, match=message):
            _dx2_grid(model, np.array([0.5, 1.0, 2.0]))


def steady_orbit(model, omega, t):
    """Shape and rate along the steady response of ``qdot = A q + b
    sin(omega t)`` per unit drive: ``q = Im(c e^{i omega t})`` with
    ``c = (-A + i omega)^-1 b``, and its derivative."""
    c = resolvents(model.a, omega)[0] @ model.b
    orbit = np.multiply.outer(np.exp(1j * omega * np.asarray(t)), c)
    return np.imag(orbit), omega * np.real(orbit)


class TestSteadyPeriodic:
    def test_solves_the_ode(self):
        model = displacement_model(CANON)
        omega = 0.8
        ts = np.linspace(0.0, 2 * np.pi / omega, 65)
        shape, rate = steady_orbit(model, omega, ts)
        residual = rate - (shape @ model.a.T
                           + np.outer(np.sin(omega * ts), model.b))
        assert np.max(np.abs(residual)) < 1e-12

    def test_conjugate_symmetry_keeps_orbit_real(self):
        model = displacement_model(CANON)
        ap, am = resolvents(model.a, 1.3)
        np.testing.assert_allclose(am @ model.b, np.conj(ap @ model.b),
                                   atol=1e-12)

    def test_matches_nonlinear_simulation_at_small_drive(self):
        eps, omega = 1e-3, 0.62
        model = displacement_model(CANON)
        period = 2 * np.pi / omega
        field = SinusoidalField(hx0=1.0, epsilon=eps, omega=omega)
        traj = integrate(CANON, Configuration.straight(), field,
                         t_final=11 * period, dt=period / 1000)
        tail = traj.times >= 10 * period
        sim = traj.states[tail][:, 2:]
        predicted = eps * steady_orbit(model, omega, traj.times[tail])[0]
        # agreement is first order in eps; the gap is the eps^2 remainder
        gap = np.max(np.abs(sim - predicted))
        assert gap < 100.0 * eps ** 2


class TestGradGx:
    @given(params=ha_params)
    @settings(max_examples=25, deadline=None)
    def test_closed_form_matches_numeric(self, params):
        # to roundoff, as for A and b
        num = _origin_derivatives(params)[2]
        closed = closed_form_grad_gx(params)
        assert np.max(np.abs(num - closed)) < 1e-13 * np.max(np.abs(closed))

    def test_leading_entry(self):
        # (1,1) entry is 2 (eta - eta1) L / (2 (2 eta + eta1))
        p = head_asymmetric(1.4, 1.2, 0.8, 3.0, 1.5, 1.0, 1.0)
        expected = 2 * (1.5 - 3.0) * 1.4 / (2 * (2 * 1.5 + 3.0))
        assert closed_form_grad_gx(p)[0, 0] == pytest.approx(expected)

    def test_transverse_row_gradient_vanishes(self):
        # the y-row of the coupling is even around the straight shape, so
        # its gradient must vanish to finite-difference noise
        step = 1e-6

        def gy_row(q):
            mh = resistance(CANON, q)
            return -np.linalg.solve(mh[:2, :2], mh[:2, 2:])[1, :]

        worst = 0.0
        for j in range(3):
            dq = np.zeros(3)
            dq[j] = step
            worst = max(worst, np.max(np.abs(
                (gy_row(dq) - gy_row(-dq)) / (2 * step))))
        assert worst <= 1e-6


class TestSkewKernel:
    @given(params=ha_params)
    @settings(max_examples=25, deadline=None)
    def test_closed_kernel_annihilates_numeric_skew(self, params):
        n = _origin_derivatives(params)[2]
        w = n - n.T
        assume(np.max(np.abs(w)) > 1e-8)
        u = closed_form_skew_kernel(params)
        assert np.max(np.abs(w @ u)) < 1e-6 * np.max(np.abs(w))


class TestNetDisplacement:
    def test_canonical_value(self):
        assert net_displacement_quadratic(CANON, 0.62) == pytest.approx(
            0.03202696038636, rel=1e-9)

    @pytest.mark.parametrize("samples", [3, 8, 64, 4096])
    def test_quadrature_is_the_node_by_node_trapezoid_sum(self, samples):
        # the integrand is a trigonometric polynomial of degree 2, so the
        # trapezoid sum on N >= 3 nodes is its exact integral; it swings up
        # to 256 times its mean (at omega = 0.03), so agreement is measured
        # against the same sum of |integrand|, the scale its rounding
        # errors carry
        model = displacement_model(CANON)
        for omega in (0.03, 0.62, 7.0):
            c = np.linalg.inv(-model.a + 1j * omega * np.eye(3)) @ model.b
            terms = []
            for k in range(samples):
                cos = math.cos(2.0 * math.pi * k / samples)
                sin = math.sin(2.0 * math.pi * k / samples)
                q = cos * c.imag + sin * c.real
                qdot = omega * (cos * c.real - sin * c.imag)
                terms.append(q @ model.grad_gx @ qdot)
            weight = 2.0 * math.pi / omega / samples
            loop = math.fsum(terms) * weight
            scale = math.fsum(abs(t) for t in terms) * weight
            got = _dx2_quadrature(model, omega)
            assert abs(got - loop) <= 1e-15 * scale

    def test_equal_coefficients_cannot_translate(self):
        p = SwimmerParams.uniform(1.0, 0.8, 1.5, 1.0, 1.0)
        assert abs(net_displacement_quadratic(p, 0.7)) < 1e-12

    def test_asymptotic_scalings(self):
        low = [net_displacement_quadratic(CANON, w) for w in (1e-3, 2e-3)]
        high = [net_displacement_quadratic(CANON, w) for w in (1e3, 2e3)]
        assert low[1] / low[0] == pytest.approx(2.0, rel=0.05)
        assert high[0] / high[1] == pytest.approx(8.0, rel=0.05)

    def test_inverts_no_matrix(self, monkeypatch):
        # the rational form needs no resolvent; only the second route
        # (resolvents, for the quadrature) inverts
        calls = []
        inverse = np.linalg.inv

        def counted(m):
            calls.append(m.shape)
            return inverse(m)
        monkeypatch.setattr(np.linalg, "inv", counted)
        # 9.7e-17 (3.0e-15 relative) below the closed form's
        # 0.03202696038633996; with b and the complex-step rates solved
        # by LAPACK it was 3.3e-16 above, and the central-difference model
        # gave 0.03202696038636466
        assert net_displacement_quadratic(CANON, 0.62) == \
            0.03202696038633986
        frequency_sweep(CANON, 1e-2, 1e2, 64)
        assert calls == []
        resolvents(-np.eye(3), 0.62)
        assert calls == [(3, 3)]

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4])
    def test_extreme_frequencies_match_the_resolvent(self, seed):
        # above omega = 1 the fraction is evaluated divided by omega^6, so
        # neither of its parts overflows: undivided, omega = 1e60 gave 0.0
        # and 1e110 and 1e150 NaN
        model = displacement_model(CANON if seed is None
                                   else seeded_swimmer(seed))
        omegas = np.array([1e-150, 1e-8, 1e-3, 1.0, 1e3, 1e8, 1e60, 1e150])
        grid = _dx2_grid(model, omegas)
        for omega, value in zip(omegas.tolist(), grid.tolist()):
            terms = _dx2_terms(model, omega)
            assert all(map(math.isfinite, terms)) and terms[0] == value
            quad = _dx2_quadrature(model, omega)
            if abs(quad) > 1e-300:
                assert abs(value - quad) <= 1e-12 * abs(quad)

    def test_unstable_matrix_is_rejected(self):
        # zero stiffness and zero magnetization: no restoring force at all
        p = SwimmerParams(1.0, (1.2, 0.8, 0.8), (3.0, 1.5, 1.5), 0.0, 0.0)
        with pytest.raises(AnalysisError):
            net_displacement_quadratic(p, 1.0)


class TestFrequencySweep:
    def test_canonical_peak(self):
        sw = frequency_sweep(CANON, 1e-2, 1e2, n_grid=48)
        assert not sw.boundary and not sw.near_zero
        assert sw.omega_star == pytest.approx(0.62006001, rel=1e-4)
        assert sw.dx2_star == pytest.approx(0.0320269605, rel=1e-6)

    def test_boundary_peak_is_reported_by_the_flag_only(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sw = frequency_sweep(CANON, 5.0, 50.0, n_grid=16)
        assert sw.boundary is True
        assert sw.omega_star == pytest.approx(5.0)

    def test_equal_coefficient_curve_flagged(self):
        p = SwimmerParams.uniform(1.0, 0.8, 1.5, 1.0, 1.0)
        sw = frequency_sweep(p, 1e-1, 1e1, n_grid=16)
        assert sw.near_zero
        assert np.max(np.abs(sw.dx2)) < 1e-12

    def test_outputs_are_frozen(self):
        # the outputs of the exact model, and the closed forms' as bounds:
        # the grid within 1e-13 of its maximum (closed A, b and grad Gx
        # through the resolvents), the peak within 1e-13 relative (closed
        # A, b and grad Gx through this sweep's own peak search)
        sw = frequency_sweep(CANON, 1e-1, 1e1, n_grid=16)
        assert sw.omega_star == 0.6200600334508405
        assert sw.dx2_star == 0.03202696054211936
        assert abs(sw.omega_star - 0.6200600334508413) <= \
            1e-13 * 0.6200600334508413
        assert abs(sw.dx2_star - 0.0320269605421194) <= \
            1e-13 * 0.0320269605421194
        # the golden section's peak, 1e-6 wide, bounds the new one, whose
        # value is the closed forms' there to within its rounding
        assert_peak_within_golden_bound(sw, CANON, 0.6200599044339132)
        assert sw.dx2.tolist() == [
            0.009981438730755958, 0.013290289383721022, 0.017406715218213062,
            0.0221650659497187, 0.02697095442478938, 0.03069359265660837,
            0.03202191433165247, 0.030330512976665346, 0.02620497470878684,
            0.020932868852134592, 0.01564600119954815, 0.010975319667377977,
            0.007173727516468326, 0.004315258200718686, 0.002370849504632158,
            0.0011967390089208565]
        closed = np.array([
            0.009981438730755994, 0.013290289383721074, 0.017406715218213166,
            0.02216506594971879, 0.026970954424789462, 0.030693592656608513,
            0.03202191433165265, 0.030330512976665478, 0.02620497470878698,
            0.02093286885213474, 0.015646001199548253, 0.010975319667378016,
            0.00717372751646838, 0.004315258200718699,
            0.002370849504632165, 0.0011967390089208595])
        assert np.max(np.abs(sw.dx2 - closed)) <= \
            1e-13 * np.max(np.abs(closed))
        assert not sw.boundary and not sw.near_zero

    def test_guard_rejects_a_nan_value(self):
        # a NaN in w makes the form NaN at every frequency, a drive scaled
        # by 1e155 overflows alpha and beta; next to the pole that an A
        # with eigenvalues +-i puts at omega = 1, a w scaled by 1e307
        # overflows the value at part of the grid only, on both sides of
        # omega = 1.  The grid names the first such frequency in its
        # order, as the scalar loop meets it
        model = displacement_model(CANON)
        w = model.w.copy()
        w[0, 1] = math.nan
        pole = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        grid = np.logspace(-2.0, 2.0, 64)
        with np.errstate(over="ignore", invalid="ignore"):
            cases = [(with_inputs(model, w=w), False),
                     (with_inputs(model, b=1e155 * model.b), False),
                     (with_inputs(model, a=pole, w=1e307 * model.w), True)]
        for broken, partial in cases:
            for omegas in (grid, grid[::-1]):
                messages = []
                with np.errstate(over="ignore", invalid="ignore"):
                    for omega in omegas:
                        try:
                            _dx2_terms(broken, float(omega))
                        except AnalysisError as exc:
                            messages.append(str(exc))
                    with pytest.raises(AnalysisError) as caught:
                        _dx2_grid(broken, omegas)
                assert messages and str(caught.value) == messages[0]
                assert "nan" in messages[0] or "inf" in messages[0]
                assert (1 < len(messages) < len(grid)) == partial

    @pytest.mark.parametrize("n_grid", [16, 64, 128])
    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4])
    def test_grid_is_the_scalar_loop(self, seed, n_grid):
        # the batched grid must be a loop of scalar evaluations to the bit,
        # also on the equal-coefficient swimmer (seed None)
        params = SwimmerParams.uniform(1.0, 0.8, 1.5, 1.0, 1.0) \
            if seed is None else seeded_swimmer(seed)
        model = displacement_model(params)
        grid = np.logspace(-2.0, 2.0, n_grid)
        loop = np.array([_dx2_terms(model, w)[0] for w in grid])
        assert _dx2_grid(model, grid).tobytes() == loop.tobytes()

    def test_reports_guard_gap_and_evaluations(self):
        sw = frequency_sweep(CANON, 1e-2, 1e2, 64)
        # 64 grid points, 3 Newton iterates and omega_star
        assert sw.evaluations == 68

    @pytest.mark.parametrize("bounds", [(1e-2, math.inf), (math.nan, 1e2),
                                        (1e-2, math.nan), (-math.inf, 1e2)])
    def test_rejects_non_finite_bounds(self, bounds):
        with pytest.raises(ValueError, match="must be finite"):
            frequency_sweep(CANON, *bounds)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            frequency_sweep(CANON, 1e-1, 1e1, n_grid=8)
        with pytest.raises(ValueError):
            frequency_sweep(CANON, 1.0, 0.5)

    @pytest.mark.parametrize("n_grid", [64.0, 16.5, True, "64"])
    def test_rejects_a_grid_size_that_is_not_an_integer(self, n_grid):
        # 64.0 used to escape as numpy's TypeError from the grid
        with pytest.raises(ValueError, match="n_grid must be an integer"):
            frequency_sweep(CANON, 1e-2, 1e2, n_grid)

    def test_accepts_a_numpy_integer_grid_size(self):
        assert sweep_digest(frequency_sweep(CANON, 1e-1, 1e1,
                                            np.int64(16))) == \
            sweep_digest(frequency_sweep(CANON, 1e-1, 1e1, 16))

    @given(bounds=st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=2,
                           unique=True),
           adjacent=st.booleans(), n_grid=st.integers(16, 300))
    @settings(max_examples=100, deadline=None)
    def test_grid_is_np_logspace_bit_for_bit(self, bounds, adjacent,
                                             n_grid):
        omega_min, omega_max = sorted(bounds)
        if adjacent:
            omega_max = math.nextafter(omega_min, math.inf)
        sw = frequency_sweep(CANON, omega_min, omega_max, n_grid)
        grid = np.logspace(math.log10(omega_min), math.log10(omega_max),
                           n_grid)
        assert sw.omegas.tobytes() == grid.tobytes()


class TestNewtonPeak:
    """``_newton_peak`` on a narrow Gaussian peak of either sign, whose
    curvature has the wrong sign at the grid peak and one cell further:
    the safeguard must bisect there, and Newton steps finish the job."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_bisects_where_the_curvature_has_the_wrong_sign(self, sign):
        center, width = 1.047, 0.02

        def terms(w):
            u = (w - center) / width
            g = sign * math.exp(-u * u)
            return (g, -2.0 * u / width * g,
                    (4.0 * u * u - 2.0) / width ** 2 * g)

        seen = []

        def evaluate(w):
            seen.append(w)
            return terms(w)

        omega = _newton_peak(evaluate, np.array([0.9, 1.0, 1.2]), 1,
                             terms(1.0))
        assert omega == pytest.approx(center, rel=1e-12)
        # the midpoints of [1.0, 1.2] and [1.0, 1.1] come first
        assert seen[:2] == [1.1, 1.05]
        assert all(1.0 < w < 1.2 for w in seen)


def seeded_swimmer(seed):
    """A head-asymmetric swimmer drawn from ``seed``: heavy head, slender
    links, strongly stable straight state."""
    rng = random.Random(seed)
    return SwimmerParams(1.0, (rng.uniform(0.6, 0.9), 0.5, 0.5),
                         (rng.uniform(1.6, 2.6), 1.0, 1.0),
                         rng.uniform(0.7, 1.5), rng.uniform(0.7, 1.5))


def exact_closed_forms(params):
    """``A``, ``b`` and ``w = grad Gx - grad Gx^T`` of the closed forms
    (``closed_form_angle_matrix``, ``closed_form_grad_gx``) as nested lists
    of ``Fraction``: exact on the swimmer's float parameters."""
    L, K, M, xi1, xi, eta1, eta = map(Fraction, (
        params.L, params.K, params.M, params.xi[0], params.xi[1],
        params.eta[0], params.eta[1]))
    d = 6 / (L ** 3 * eta * eta1 * (8 * eta + 7 * eta1))
    a = [[d * e for e in row] for row in (
        (M * eta1 * (5 * eta + eta1),
         (19 * K + 9 * M) * eta * eta1 + 2 * K * eta1 ** 2,
         2 * (8 * K + 3 * M) * eta * eta1 + (5 * K + 3 * M) * eta1 ** 2),
        (-M * (4 * eta ** 2 + 13 * eta1 * eta + eta1 ** 2),
         -4 * (K + M) * eta ** 2 - (42 * K + 23 * M) * eta1 * eta
         - 2 * K * eta1 ** 2,
         -(28 * K + 9 * M) * eta * eta1 - (5 * K + 3 * M) * eta1 ** 2),
        (-6 * M * (2 * eta * eta1 + eta1 ** 2),
         -4 * (7 * K + 3 * M) * eta * eta1 - 5 * K * eta1 ** 2,
         -16 * (2 * K + M) * eta * eta1 - (16 * K + 11 * M) * eta1 ** 2))]
    pref = L / (2 * (2 * eta + eta1))
    den = 2 * xi + xi1
    g = [[pref * e for e in row] for row in (
        (2 * (eta - eta1), -eta1, eta),
        (-(6 * eta * eta1 - 4 * eta * xi1 + eta1 * xi1) / den,
         -eta1 * (2 * eta + xi1) / den, -eta * (eta1 - xi1) / den),
        ((2 * eta ** 2 + 4 * eta * eta1 - 3 * eta1 * xi) / den,
         eta1 * (eta - xi) / den, eta * (eta + eta1 + xi) / den))]
    w = [[g[i][j] - g[j][i] for j in range(3)] for i in range(3)]
    return a, [-row[0] for row in a], w


def exact_rational_coeffs(a, b, w):
    """``(alpha, beta, q2, q1, q0)`` of ``_rational_coeffs`` in exact
    arithmetic on nested lists: ``u = (A - T I) b``, ``v = A u + m b``,
    ``alpha = v^T w u``, ``beta = b^T w u``, and ``Q(x) = |p(i omega)|^2``
    from the trace ``T``, the principal minors' sum ``m`` and ``det A``."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    trace = a00 + a11 + a22
    minors = (a00 * a11 - a01 * a10) + (a00 * a22 - a02 * a20) \
        + (a11 * a22 - a12 * a21)
    det = (a00 * (a11 * a22 - a12 * a21) - a01 * (a10 * a22 - a12 * a20)
           + a02 * (a10 * a21 - a11 * a20))

    def matvec(m, x):
        return [sum(r * xk for r, xk in zip(row, x)) for row in m]
    u = [ab - trace * bk for ab, bk in zip(matvec(a, b), b)]
    v = [au + minors * bk for au, bk in zip(matvec(a, u), b)]
    wu = matvec(w, u)
    return (sum(map(operator.mul, v, wu)), sum(map(operator.mul, b, wu)),
            trace * trace - 2 * minors, minors * minors - 2 * trace * det,
            det * det)


def _gamma(k):
    """Higham's ``gamma_k = k u / (1 - k u)``, ``u = 2^-53``: a product
    of k factors ``(1 + delta)^(+-1)``, ``|delta| <= u``, is ``1 + theta``
    with ``|theta| <= gamma_k``."""
    return Fraction(k, 2 ** 53 - k)


def assert_peak_within_golden_bound(sw, params, omega_star):
    """The Newton peak within 1e-6 relative of the golden section's
    ``omega_star``, and ``dx2_star`` within a derived rounding bound of
    the closed forms' ``dx2`` at ``sw.omega_star``.

    That value is ``-pi n / d``, ``n = omega (alpha - beta x)`` and ``d =
    Q(x) = x^3 + q2 x^2 + q1 x + q0`` at ``x = omega^2``, the coefficients
    of the closed forms by ``exact_rational_coeffs``: exact in
    ``Fraction`` but for ``pi``, which both sides take as ``math.pi``.  The
    sweep evaluates the same ``n`` and ``d`` (``_dx2_terms``, scaled by
    ``sigma^6``, ``sigma = fl(1 / max(omega, 1))``, which cancels in the
    quotient) from the model's float coefficients ``c^``.  Counting one
    rounding for ``hat = omega sigma``, three for ``y = hat^2``, one for
    ``tau = sigma^2`` and one per operation, each term of ``n`` passes at
    most 12 roundings, the product by ``-pi`` and the quotient included,
    and each term of ``d`` at most 14.  So ``n^ = n(c^) + e_n`` with ``|e_n|
    <= gamma_12 omega (|alpha^| + |beta^| x)``, and ``n(c^) - n(c)`` is at
    most ``omega (|d alpha| + |d beta| x)``, the coefficients' exact
    distances; likewise for ``d`` with ``gamma_14`` over its five terms.
    With ``e_n`` and ``e_d`` the two relative bounds, ``|n^/d^ - n/d| <=
    (e_n + e_d) / (1 - e_d) |n/d|``.  Over ``seeded_swimmer(1..120)`` at 64
    and 128 points the error reaches at most 0.81 of this bound (median
    0.33), which spans 3.5e-15 to 3.4e-14 relative.  The model's own
    accuracy, which enters through the distances, is pinned by the frozen
    sweep digests and ``test_outputs_are_frozen``."""
    assert abs(sw.omega_star - omega_star) <= 1e-6 * omega_star
    exact = exact_rational_coeffs(*exact_closed_forms(params))
    alpha, beta, q2, q1, q0 = exact
    got = [Fraction(c) for c in displacement_model(params).coeffs]
    dist = [abs(g - e) for g, e in zip(got, exact)]
    omega = Fraction(sw.omega_star)
    x = omega * omega
    n = omega * (alpha - beta * x)
    d = ((x + q2) * x + q1) * x + q0
    e_n = (dist[0] + dist[1] * x
           + _gamma(12) * (abs(got[0]) + abs(got[1]) * x)) * omega / abs(n)
    e_d = (dist[4] + dist[3] * x + dist[2] * x * x + _gamma(14) * (
        abs(got[4]) + abs(got[3]) * x + abs(got[2]) * x * x + x ** 3)) / d
    value = -Fraction(math.pi) * n / d
    assert abs(Fraction(sw.dx2_star) - value) <= \
        (e_n + e_d) / (1 - e_d) * abs(value)


def sweep_digest(sw):
    """sha256 of every sweep output, bit for bit but ``omega_star``, which
    enters rounded to 12 significant digits: the peak is flat, so a
    regrouping of the same slope formula moves it by ulps (its
    stationarity is ``test_seeded_peak_is_stationary``'s to check)."""
    h = hashlib.sha256(np.ascontiguousarray(sw.dx2, dtype=float).tobytes())
    h.update(" ".join([f"{sw.omega_star:.11e}", sw.dx2_star.hex(),
                       str(sw.evaluations), str(sw.boundary),
                       str(sw.near_zero)]).encode())
    return h.hexdigest()


class TestFrozenSweepDigests:
    """Sweep outputs of the rational form on the exact origin model, the
    peak as the Newton refinement places it; every output is pinned,
    ``omega_star`` to 12 digits.  Against the central-difference model's
    outputs the grids moved by at most 8.1e-13 of their maximum,
    ``omega_star`` by 2.9e-13 and ``dx2_star`` by 7.7e-13 relative; since
    ``b`` and the complex-step rates are solved by the rate's float
    elimination rather than LAPACK, by at most 7.6e-15, 1.9e-15 and
    7.4e-15."""

    SWEEPS = {
        (1, 64): "620754f9b79406e51f458ce62fa82686095779a368023d4c48098d1dce68553c",
        (1, 128): "de30ff7b0bc3a44eec5a69ad81dd16a2bc2e2b896db99752e35132c611f01602",
        (2, 64): "e05ccd18f60339bc398e78e3bd26db126700929a05de6ee373763029fea77e74",
        (2, 128): "4b4584af43dde188024e94a54c7075d16e8f275006e4a4147ec83f343ce48f2a",
        (3, 64): "6da0edeb85f2c2eadd2c98e559bbf068e9bfcae574de0024574aaee08d37ea7c",
        (3, 128): "24054ef17f1bfdba1262e4a6a47374c9dfb25292f43d01fbbe414cd14502b473",
        (4, 64): "180c8b4abbb893061cb1279d9646683aac0ad191ef49effd36548ceff3c73067",
        (4, 128): "6a7ef2e13f0ce7b8d8721864f63a3580c652dabe0a5cebf692fab69394498f8a",
        (5, 64): "ebf7998aa3659fec66c9b024079108bad7b0bacc8e338cd8eac990a876859ed7",
        (5, 128): "96257fdbead90d4b24f1e0090f091109b1f69571f05914b9642c60e0311d92de",
        (6, 64): "152495170a1a01e329bf4ed474e96c307ad54633d78149c53cddb72ea4b9e630",
        (6, 128): "1b0262f5dd4453c137df40461f8ef50a05a3f4559b2a2ed4ef8f87cf0c5edc4b",
        (7, 64): "0b36a471a442160896bb3510120ffdfd59dd32bb25434cc9fe32f81799b4bf4a",
        (7, 128): "0e6b316bf9646864a8c66298d9196a9e91645933e2bba33d66a92297825d99d0",
        (8, 64): "77f3a73828cb2807ec51b0c281d1bdf13bbc0fcb87923e1ed21ee9fe642bab32",
        (8, 128): "8854a7406c610219e8df4df8f4f47f9c8323b139b881dfc034b427080a9cbfe3",
    }
    # omega_star of the golden section that placed the peak before, to
    # 1e-6 relative
    GOLDEN = {
        (1, 64): 0.7832598664189729,
        (1, 128): 0.7832597757570863,
        (2, 64): 0.6474690130660008,
        (2, 128): 0.6474691549927747,
        (3, 64): 1.060993217924033,
        (3, 128): 1.0609930103218363,
        (4, 64): 0.8269339716471611,
        (4, 128): 0.8269341891293625,
        (5, 64): 1.2642809736405658,
        (5, 128): 1.2642807062433323,
        (6, 64): 0.7874985213932141,
        (6, 128): 0.7874985470341831,
        (7, 64): 0.7580201150156745,
        (7, 128): 0.7580202554963875,
        (8, 64): 1.043328551720466,
        (8, 128): 1.0433285299497086,
    }

    @pytest.mark.parametrize("seed,n_grid", sorted(SWEEPS))
    def test_seeded_sweep(self, seed, n_grid):
        sw = frequency_sweep(seeded_swimmer(seed), 1e-2, 1e2, n_grid)
        assert not sw.boundary and not sw.near_zero
        assert sweep_digest(sw) == self.SWEEPS[seed, n_grid]
        assert_peak_within_golden_bound(sw, seeded_swimmer(seed),
                                        self.GOLDEN[seed, n_grid])

    @pytest.mark.parametrize("seed,n_grid", sorted(SWEEPS))
    def test_seeded_peak_is_stationary(self, seed, n_grid):
        params = seeded_swimmer(seed)
        sw = frequency_sweep(params, 1e-2, 1e2, n_grid)
        _, slope, _ = _dx2_terms(displacement_model(params),
                                     sw.omega_star)
        assert abs(slope) * sw.omega_star <= 1e-12 * abs(sw.dx2_star)
        assert net_displacement_quadratic(params, sw.omega_star) == \
            sw.dx2_star

    @pytest.mark.parametrize("seed,n_grid", sorted(SWEEPS))
    def test_iterates_stay_in_the_bracket_cell(self, seed, n_grid,
                                               monkeypatch):
        # the first terms are the grid peak's; the sign of dx2 times its
        # slope there names the cell, which holds every later point
        real = magswim.linear._dx2_terms
        seen = []

        def recorded(model, omega):
            seen.append((omega, real(model, omega)))
            return seen[-1][1]

        monkeypatch.setattr(magswim.linear, "_dx2_terms", recorded)
        sw = frequency_sweep(seeded_swimmer(seed), 1e-2, 1e2, n_grid)
        (omega, (value, slope, _)), *refinement = seen
        peak = int(np.argmax(np.abs(sw.dx2)))
        assert omega == sw.omegas[peak]
        step = 1 if value * slope > 0.0 else -1
        lo, hi = sorted([omega, sw.omegas[peak + step]])
        assert refinement[-1][0] == sw.omega_star
        assert 2 <= len(refinement) <= 8
        for w, _ in refinement:
            assert lo < w < hi

    def test_equal_coefficient_sweep(self):
        sw = frequency_sweep(SwimmerParams.uniform(1.0, 0.8, 1.5, 1.0, 1.0),
                             1e-1, 1e1, 16)
        assert sw.near_zero and np.max(np.abs(sw.dx2)) < 1e-12
        assert sweep_digest(sw) == (
            "47b74e480bc5d48f0215e0d6236b045aa9c1099d900dfeeccb619ab2bed82bf0")

    def test_net_displacement_values(self):
        values = [net_displacement_quadratic(CANON, float(w))
                  for w in np.logspace(-3.0, 3.0, 20)]
        assert hashlib.sha256(np.array(values).tobytes()).hexdigest() == (
            "f130ccf3e1ecd6926fefc2385ec54498748c35f2a2a692792fb2f90dc24a87be")


class TestSlopeAndCurvature:
    """The exact omega-derivatives of ``dx2`` from the resolvent powers,
    against central differences of the value.  Errors are scaled by
    ``|dx2| / omega`` and ``|dx2| / omega^2``; the differences' own error
    is about 1e-9 and 1e-6 of those at these steps."""

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_match_central_differences(self, seed):
        model = displacement_model(seeded_swimmer(seed))
        for omega in (0.05, 0.3, 0.9, 3.0, 20.0):
            value, slope, curvature = _dx2_terms(model, omega)

            def at(step):
                return _dx2_terms(model, omega * (1.0 + step))[0]

            h = 1e-5 * omega
            first = (at(1e-5) - at(-1e-5)) / (2.0 * h)
            assert abs(slope - first) * omega <= 1e-8 * abs(value)
            h = 1e-4 * omega
            second = (at(1e-4) - 2.0 * value + at(-1e-4)) / h ** 2
            assert abs(curvature - second) * omega ** 2 <= \
                2e-5 * abs(value)


class TestFrozenOriginDigests:
    """``A``, ``b`` and ``grad Gx`` as the rotation rule and the complex
    steps give them, sign bits included, also with links 2 and 3 unequal.
    ``b`` kept the bits of the central-difference route; ``A`` and
    ``grad Gx`` moved by at most 6.3e-13 and 6.8e-13 of their largest
    entries.  With ``b`` and the complex-step rates solved by the rate's
    float elimination rather than LAPACK, ``A`` and ``b`` moved by at
    most 2.6e-15 and 2.2e-15 of their largest entries; ``grad Gx`` kept
    its bits."""

    CASES = {
        "canon": CANON,
        "uniform": SwimmerParams.uniform(1.0, 0.8, 1.5, 1.0, 1.0),
        "unequal_tail": SwimmerParams(0.8, (0.9, 0.6, 0.7),
                                      (2.2, 1.3, 1.1), 2.0, 0.5),
        **{f"seed_{s}": seeded_swimmer(s) for s in (1, 2, 3, 4)},
    }
    DIGESTS = {
        "canon": "8e833af958dd4c8c5f7958a8b0e2f463563115655ff54ae6ec3f38587d08a887",
        "seed_1": "1702ace1fd856edd7f0125dc14c8393ece5fdbcd74f1799eaed6fab085160f78",
        "seed_2": "b203837d00028f2fd52063fb0b3d5c8e2b1eb549676366e534b7e9963ee8d2ad",
        "seed_3": "96eae0b205f523ad3268896008ecf14c2e0f5b40addfd487f79f916b19663ea6",
        "seed_4": "5a7591c21b9e2bcdad0652a1d3c61f258077e23d4a3dd8fb9f6c4e985db3d1d1",
        "unequal_tail": "f9ea05c3cb9624aabeeffe3c2d4f88517b423c4edf9f00e83d1b827079031cf8",
        "uniform": "995f00a39091c45b558a88c395ea197b915f2885cfa4a2d7ad5b85ea0f38c22d",
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_origin_derivatives(self, case):
        params = self.CASES[case]
        lin = linearize_angles(params)
        h = hashlib.sha256()
        for arr in (lin.a, lin.b, _origin_derivatives(params)[2]):
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == self.DIGESTS[case]

    def test_three_assemblies_per_model(self, monkeypatch):
        # one float assembly at the origin (the rate call for b) and one
        # complex assembly per joint angle; the heading and the joint
        # angles follow the 20 bound swimmer values, the load form binding
        # no heading, and the rate call adds the field after them
        calls = []
        for name in ("_assemble", "_assemble_complex"):
            real = getattr(magswim.dynamics, name)

            def counted(*args, name=name, real=real):
                calls.append((name, args[20:23]))
                return real(*args)
            monkeypatch.setattr(magswim.dynamics, name, counted)
        displacement_model(CANON)
        h = 1j * 2.0 ** -100
        assert calls == [("_assemble", (0.0, 0.0, 0.0)),
                         ("_assemble_complex", (None, h, 0.0)),
                         ("_assemble_complex", (None, 0.0, h))]

    def test_no_complex_argument_reaches_the_float_assembly(
            self, monkeypatch):
        # the RK4 and bracket paths assemble on floats only, and never
        # through the complex instance
        real = magswim.dynamics._assemble
        seen = []

        def checked(*args):
            # the load form binds no heading
            seen.append(all(type(x) is float for x in args if x is not None))
            return real(*args)

        def refused(*args):
            raise AssertionError("complex assembly outside the origin")
        monkeypatch.setattr(magswim.dynamics, "_assemble", checked)
        monkeypatch.setattr(magswim.dynamics, "_assemble_complex", refused)
        field = SinusoidalField(hx0=1.0, epsilon=0.3, omega=2.0)
        integrate(CANON, Configuration(0.0, 0.0, 0.2, 0.3, -0.2), field,
                  t_final=0.1, dt=0.01)
        lie_rank(CANON, np.array([0.1, -0.2, 0.3, 0.2, -0.1]), depth=3)
        assert len(seen) == 40 + 25 and all(seen)
