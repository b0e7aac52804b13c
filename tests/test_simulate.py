"""Integrator behavior and period-level experiments."""
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from magswim import (
    Configuration,
    ConstantField,
    IntegrationError,
    SinusoidalField,
    SwimmerParams,
    TabulatedField,
)
from magswim.simulate import (
    displacement_per_period,
    integrate,
    symmetry_experiment,
)

CANON = SwimmerParams(1.0, (1.2, 0.8, 0.8), (3.0, 1.5, 1.5), 1.0, 1.0)
UNIFORM = SwimmerParams.uniform(1.0, 0.8, 1.5, 1.0, 1.0)
# links 1 and 3 alike, the middle link not
PALINDROME = SwimmerParams(1.1, (1.2, 0.8, 1.2), (3.0, 1.5, 3.0), 0.9, 1.1)


def bent_start():
    return Configuration(0.0, 0.0, 0.1, 0.3, -0.2)


def digest(traj):
    """sha256 of the times, states and field samples, signed zeros and all."""
    h = hashlib.sha256()
    for a in (traj.times, traj.states, traj.field_samples):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class TestIntegrate:
    def test_lands_exactly_on_final_time(self):
        field = ConstantField(1.0, 0.0)
        traj = integrate(CANON, bent_start(), field, t_final=1.0, dt=0.3)
        assert traj.times[-1] == 1.0
        assert len(traj) == 5  # 3 full steps, 1 shortened
        np.testing.assert_allclose(np.diff(traj.times), [0.3, 0.3, 0.3, 0.1],
                                   rtol=1e-12)

    def test_divisible_span_has_no_extra_row(self):
        traj = integrate(CANON, bent_start(), ConstantField(1.0, 0.0),
                         t_final=1.0, dt=0.25)
        assert len(traj) == 5
        assert traj.times[-1] == 1.0

    def test_records_field_samples(self):
        f = SinusoidalField(hx0=1.0, epsilon=0.5, omega=2.0)
        traj = integrate(CANON, bent_start(), f, t_final=0.5, dt=0.1)
        np.testing.assert_allclose(
            traj.field_samples[:, 1],
            0.5 * np.sin(2.0 * traj.times), rtol=1e-12, atol=1e-15)

    def test_time_translation_with_constant_field(self):
        f = ConstantField(0.9, 0.2)
        a = integrate(CANON, bent_start(), f, t_final=2.0, dt=0.05)
        b = integrate(CANON, bent_start(), f, t_final=7.0, dt=0.05, t0=5.0)
        np.testing.assert_array_equal(a.states, b.states)

    def test_magnetization_field_product_invariance(self):
        f1 = SinusoidalField(hx0=1.0, epsilon=0.02, omega=1.0)
        f2 = SinusoidalField(hx0=2.0, epsilon=0.04, omega=1.0)
        half = dataclasses.replace(CANON, M=0.5)
        a = integrate(CANON, bent_start(), f1, t_final=3.0, dt=0.01)
        b = integrate(half, bent_start(), f2, t_final=3.0, dt=0.01)
        np.testing.assert_array_equal(a.states, b.states)

    def test_fourth_order_convergence(self):
        f = SinusoidalField(hx0=1.0, epsilon=0.3, omega=2.0)
        dt = 0.05
        y1 = integrate(CANON, bent_start(), f, 2.0, dt).states[-1]
        y2 = integrate(CANON, bent_start(), f, 2.0, dt / 2).states[-1]
        y4 = integrate(CANON, bent_start(), f, 2.0, dt / 4).states[-1]
        order = np.log2(np.linalg.norm(y1 - y2) / np.linalg.norm(y2 - y4))
        assert 3.7 < order < 4.6

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            integrate(CANON, bent_start(), ConstantField(), 1.0, dt=0.0)
        with pytest.raises(ValueError):
            integrate(CANON, bent_start(), ConstantField(), -1.0, dt=0.1)

    @pytest.mark.parametrize("t0,t_final,dt", [
        (0.0, 1.0, math.nan), (0.0, 1.0, math.inf),
        (0.0, math.nan, 0.1), (0.0, math.inf, 0.1),
        (math.nan, 1.0, 0.1), (-math.inf, 1.0, 0.1),
        # finite inputs whose step count span / dt overflows
        (0.0, 1.0, 1e-320),
    ])
    def test_rejects_non_finite_times(self, t0, t_final, dt):
        with pytest.raises(ValueError, match="finite"):
            integrate(CANON, bent_start(), ConstantField(), t_final, dt,
                      t0=t0)

    def test_rows_that_do_not_fit_name_dt(self, monkeypatch):
        # a finite dt whose planned rows exceed memory; the allocation
        # fails by fiat, whatever the host would grant
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "empty", no_memory)
        with pytest.raises(ValueError, match=r"^dt = 1e-12 is too small: "
                           r"the 1000000000001 rows "):
            integrate(CANON, bent_start(), ConstantField(), 1.0, 1e-12)

    @pytest.mark.parametrize("dt,state,hy", [
        # 80 full steps: the last field sample is taken where the last
        # step ends, at 0.7 + 80 * 0.03 = 3.0999999999999996, and only
        # the time stamp reads t_final
        (0.03, [0.16467151752162154, -0.3550750048502577,
                0.12541583074545817, -0.027136495483185388,
                -0.05264863562915781], -0.15521366541766635),
        # 34 full steps and a shortened one, stamped and sampled at t_final
        (0.07, [0.16471779690691488, -0.3550696938112198,
                0.12541364567029614, -0.027130590791748885,
                -0.05264112991384498], -0.15521366541766646),
    ])
    def test_outputs_are_frozen(self, dt, state, hy):
        # values of the float elimination in the rate closure; against the
        # LAPACK solve the final states moved by at most 3.2e-16 of their
        # largest entry, and they must not move by a single bit
        traj = integrate(CANON, Configuration(0.1, -0.2, 0.3, 0.4, -0.2),
                         SinusoidalField(1.0, 0.2, 1.3), t_final=3.1,
                         dt=dt, t0=0.7)
        assert traj.times[-1] == 3.1
        assert traj.states[-1].tolist() == state
        assert traj.field_samples[-1].tolist() == [1.0, hy]

    def test_tabulated_output_is_frozen(self):
        # 32 full steps from t0 = 0.6 and a shortened one; values of the
        # float elimination in the rate closure (1.5e-16 of the largest
        # entry from the LAPACK solve's)
        field = TabulatedField([0.5, 1.0, 2.0, 3.0], [1.0, 0.4, 1.3, 0.8],
                               [0.0, 0.9, -0.6, 0.2])
        traj = integrate(CANON, Configuration(0.1, -0.2, 0.3, 0.4, -0.2),
                         field, t_final=2.9, dt=0.07, t0=0.6)
        assert len(traj) == 34
        assert traj.times[-1] == 2.9
        assert traj.states[-1].tolist() == [
            0.16410274876802908, -0.36919509880527274, 0.06927921474480578,
            0.00651372479265747, 0.002054251654653427]
        assert traj.field_samples[-1].tolist() == [0.8500000000000001, 0.12]

    @pytest.mark.parametrize("start,field,t_final,dt,rows,sha", [
        # integer zero field: the rate negates before converting, so the
        # load rows carry the signs a float 0.0 field gives them
        (Configuration.straight(), ConstantField(0, 0), 1.0, 0.05, 21,
         "dbb1e3519b82426dc84da5dc43ec722d7e8ae1639c48ac15f7fc4f4047f7142b"),
        (Configuration(0.0, 0.0, 0.1, 0.3, -0.2), ConstantField(0, 0), 1.0,
         0.05, 21,
         "24f79643bb051c20e0bffa9c8fde9beeff510f3548a7088d8da71fd19ae90fad"),
        # signed zeros in the start and the field stay signed zeros
        (Configuration(-0.0, 0.0, -0.0, 0.0, -0.0), ConstantField(-0.0, -0.0),
         1.0, 0.05, 21,
         "2d192871b7f5bf908888b82edd03d35f99969b323ed18cba060f366ce913d5f7"),
        # an integer hx0 is sampled as given and recorded as a float
        (Configuration(0.0, 0.0, 0.1, 0.3, -0.2),
         SinusoidalField(hx0=1, epsilon=0.2, omega=1.3), 2.0, 0.03, 68,
         "2dd967d7203c3a5cddb1cfa254a508f354d2471d242dd6deb56f2b7860f7be38"),
    ])
    def test_zero_and_integer_fields_are_frozen(self, start, field, t_final,
                                                dt, rows, sha):
        # digests of the float elimination in the rate closure; from the
        # LAPACK solve's, the states moved by at most 1.9e-16 of their
        # largest entry, and the zero run only in the signs of its zeros
        traj = integrate(CANON, start, field, t_final, dt)
        assert len(traj) == rows
        assert digest(traj) == sha

    def test_aborts_on_blowup(self):
        # absurd stiffness with a coarse step makes RK4 diverge; the
        # integrator must stop with a diagnostic instead of returning junk
        stiff = SwimmerParams(1.0, (1.2, 0.8, 0.8), (3.0, 1.5, 1.5),
                              1e8, 1.0)
        with pytest.raises(IntegrationError):
            integrate(stiff, bent_start(), ConstantField(1.0, 0.0),
                      t_final=50.0, dt=0.5)


class TestDisplacementPerPeriod:
    def test_symmetric_swimmer_does_not_translate(self):
        rep = displacement_per_period(
            UNIFORM, Configuration(0.0, 0.0, 0.0, 0.2, 0.2),
            epsilon=1e-2, omega=1.0, burn_in_periods=2, measure_periods=1)
        assert abs(rep.delta_x) < 1e-9
        assert abs(rep.delta_y) < 1e-9
        assert rep.converged

    def test_asymmetric_swimmer_translates(self):
        rep = displacement_per_period(
            CANON, Configuration.straight(), epsilon=1e-2, omega=0.62,
            burn_in_periods=4, measure_periods=1)
        assert rep.converged
        assert rep.shape_gap < 1e-8
        assert abs(rep.delta_x) > 1e-7
        # the settled orbit is periodic, so theta comes back
        assert abs(rep.theta_drift) < 1e-8

    def test_displacement_is_even_in_ripple_sign(self):
        # eps -> -eps is a half-period shift of the drive and, from the
        # straight start, the mirror y -> -y of the run: dx is even in
        # eps, which is why the eps^2 law has an eps^4 (not eps^3) error
        plus = displacement_per_period(
            CANON, Configuration.straight(), epsilon=1e-2, omega=0.62,
            burn_in_periods=4, measure_periods=1)
        minus = displacement_per_period(
            CANON, Configuration.straight(), epsilon=-1e-2, omega=0.62,
            burn_in_periods=4, measure_periods=1)
        assert minus.delta_x == pytest.approx(plus.delta_x, rel=1e-12)
        assert minus.delta_y == pytest.approx(-plus.delta_y, rel=1e-12)

    def test_burn_in_doubles_when_not_settled(self):
        # one burn-in period cannot settle a transient this slow; the
        # doubling loop must extend it
        rep = displacement_per_period(
            CANON, Configuration(0.0, 0.0, 0.0, 1.2, -0.8),
            epsilon=1e-2, omega=2.0, burn_in_periods=1, measure_periods=1)
        assert rep.burn_in_periods > 1
        assert rep.converged

    def test_outputs_are_frozen(self):
        # a one-period burn-in at T / 100 doubles twice before the shape
        # settles; values of the float elimination in the rate closure
        # (delta_x 1.6e-15 relative from the LAPACK solve's, the shape gap
        # 3.2e-19 absolute)
        rep = displacement_per_period(CANON, Configuration.straight(), 1e-2,
                                      0.62, burn_in_periods=1,
                                      dt=2.0 * math.pi / 0.62 / 100)
        assert rep.delta_x == 3.2024857675768192e-06
        assert rep.burn_in_periods == 4
        assert rep.shape_gap == 2.4820484098730012e-11
        assert rep.converged

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            displacement_per_period(CANON, Configuration.straight(),
                                    1e-2, -1.0)
        with pytest.raises(ValueError):
            displacement_per_period(CANON, Configuration.straight(),
                                    1e-2, 1.0, burn_in_periods=0)

    @pytest.mark.parametrize("counts", [
        {"burn_in_periods": 2.5}, {"burn_in_periods": 2.0},
        {"burn_in_periods": True}, {"measure_periods": 1.0},
        {"measure_periods": False}, {"measure_periods": "1"}],
        ids=["burn_in_fraction", "burn_in_float", "burn_in_bool",
             "measure_float", "measure_bool", "measure_str"])
    def test_rejects_counts_that_are_not_integers(self, counts):
        # a float count used to escape as range()'s TypeError, and True
        # ran as one period
        with pytest.raises(ValueError, match="must be integers"):
            displacement_per_period(CANON, Configuration.straight(), 1e-2,
                                    2.0, dt=0.05, **counts)

    def test_accepts_numpy_integer_counts(self):
        args = (CANON, Configuration.straight(), 1e-2, 2.0)
        assert displacement_per_period(
            *args, burn_in_periods=np.int64(1), measure_periods=np.int32(1),
            dt=0.05) == displacement_per_period(
            *args, burn_in_periods=1, measure_periods=1, dt=0.05)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
    def test_rejects_bad_step(self, dt):
        # a non-positive or infinite step used to plan zero steps and
        # report a converged, motionless swimmer
        with pytest.raises(ValueError, match="dt must be finite and "
                                             "positive"):
            displacement_per_period(CANON, Configuration.straight(),
                                    1e-2, 1.0, dt=dt)


class TestSymmetryExperiment:
    def test_symmetric_set_is_invariant(self):
        field = SinusoidalField(hx0=1.0, epsilon=0.05, omega=1.3)
        rep = symmetry_experiment(
            UNIFORM, Configuration(0.0, 0.0, 0.2, 0.4, 0.4), field,
            t_final=2 * field.period)
        assert rep.within_tolerance
        assert rep.max_alpha_gap < 1e-12
        assert rep.max_abs_x < 1e-12
        assert rep.max_abs_y < 1e-12

    def test_arbitrary_field_keeps_symmetry(self):
        rng = np.random.default_rng(7)
        t = np.linspace(0.0, 4.0, 41)
        field = TabulatedField(t, rng.normal(0.7, 0.3, t.size),
                               rng.normal(0.0, 0.5, t.size))
        rep = symmetry_experiment(
            UNIFORM, Configuration(0.0, 0.0, -0.3, 0.7, 0.7), field,
            t_final=4.0, dt=0.002)
        assert rep.within_tolerance

    def test_palindromic_swimmer_keeps_symmetry(self):
        # the half-turn that swaps links 1 and 3 needs only those two
        # alike; under a sinusoid and under validate's tabulated field
        rng = np.random.default_rng(2024)
        times = np.linspace(0.0, 4.0, 17)
        tabulated = TabulatedField(times, 1.0 + 0.3 * rng.standard_normal(17),
                                   0.4 * rng.standard_normal(17))
        sine = SinusoidalField(hx0=1.0, epsilon=0.3, omega=1.0)
        for field, t_final, dt in ((sine, 2 * sine.period, None),
                                   (tabulated, 4.0, 0.01)):
            rep = symmetry_experiment(
                PALINDROME, Configuration(0.0, 0.0, 0.2, 0.4, 0.4), field,
                t_final=t_final, dt=dt)
            assert rep.within_tolerance
            assert max(rep.max_alpha_gap, rep.max_abs_x,
                       rep.max_abs_y) < 1e-14

    def test_report_is_frozen(self):
        # one period at the default step; values of the float elimination
        # in the rate closure (the three gaps are rounding, and moved by
        # at most 1.4e-17 absolute from the LAPACK solve's)
        field = SinusoidalField(hx0=1.0, epsilon=0.05, omega=1.3)
        rep = symmetry_experiment(
            UNIFORM, Configuration(0.0, 0.0, 0.2, 0.4, 0.4), field,
            t_final=field.period)
        assert [v.hex() for v in (rep.max_alpha_gap, rep.max_abs_x,
                                  rep.max_abs_y, rep.dt, rep.tolerance)] == [
            "0x1.0000000000000p-54", "0x1.80a37d061b736p-58",
            "0x1.77d1e440eeda6p-57", "0x1.3cbff78ba08bcp-9",
            "0x1.76fed0b5bff22p-32"]
        assert rep.steps == 2000

    def test_rejects_asymmetric_setup(self):
        field = ConstantField(1.0, 0.0)
        with pytest.raises(ValueError):
            symmetry_experiment(CANON, Configuration(0, 0, 0, 0.2, 0.2),
                                field, 1.0)
        with pytest.raises(ValueError):
            symmetry_experiment(UNIFORM, Configuration(0.1, 0, 0, 0.2, 0.2),
                                field, 1.0)
        with pytest.raises(ValueError):
            symmetry_experiment(UNIFORM, Configuration(0, 0, 0, 0.2, 0.3),
                                field, 1.0)

    def test_default_step_from_field_period(self):
        field = SinusoidalField(hx0=1.0, epsilon=0.01, omega=4.0)
        rep = symmetry_experiment(
            UNIFORM, Configuration(0.0, 0.0, 0.0, 0.1, 0.1), field,
            t_final=field.period)
        assert rep.dt == pytest.approx(field.period / 2000.0)
        assert rep.steps == 2000
