"""Integrator behavior and period-level experiments."""
import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magswim.simulate
from magswim import (
    Configuration,
    ConstantField,
    FieldProgram,
    IntegrationError,
    SinusoidalField,
    SwimmerParams,
    TabulatedField,
)
from magswim.simulate import (
    Trajectory,
    displacement_per_period,
    integrate,
    symmetry_experiment,
)
from oracles import rk4_table

CANON = SwimmerParams(1.0, (1.2, 0.8, 0.8), (3.0, 1.5, 1.5), 1.0, 1.0)
UNIFORM = SwimmerParams.uniform(1.0, 0.8, 1.5, 1.0, 1.0)
# links 1 and 3 alike, the middle link not
PALINDROME = SwimmerParams(1.1, (1.2, 0.8, 1.2), (3.0, 1.5, 3.0), 0.9, 1.1)


def bent_start():
    return Configuration(0.0, 0.0, 0.1, 0.3, -0.2)


class CountingField(FieldProgram):
    """A field program that counts the samples taken of it."""

    def __init__(self, inner: FieldProgram) -> None:
        self.inner = inner
        self.calls = 0

    def sample(self, t):
        self.calls += 1
        return self.inner.sample(t)


@st.composite
def shortened_runs(draw):
    """A head-asymmetric swimmer, a bent start at any heading, a sinusoidal
    or tabulated field, and ``(t0, t_final, dt, n_full)`` with ``n_full``
    full steps and a shortened last one."""
    params = SwimmerParams(
        draw(st.floats(0.8, 1.5)),
        (draw(st.floats(0.3, 0.9)),) + (draw(st.floats(0.3, 0.9)),) * 2,
        (draw(st.floats(1.0, 3.0)),) + (draw(st.floats(1.0, 3.0)),) * 2,
        draw(st.floats(0.2, 1.5)), draw(st.floats(0.2, 1.5)))
    start = Configuration(draw(st.floats(-2.0, 2.0)),
                          draw(st.floats(-2.0, 2.0)),
                          draw(st.floats(-10.0, 10.0)),
                          draw(st.floats(-1.2, 1.2)),
                          draw(st.floats(-1.2, 1.2)))
    if draw(st.booleans()):
        field = SinusoidalField(draw(st.floats(-1.5, 1.5)),
                                draw(st.floats(-1.0, 1.0)),
                                draw(st.floats(0.1, 10.0)))
    else:
        times = sorted(draw(st.lists(st.floats(-1.5, 2.5), min_size=2,
                                     max_size=8, unique=True)))
        values = st.lists(st.floats(-1.5, 1.5), min_size=len(times),
                          max_size=len(times))
        field = TabulatedField(times, draw(values), draw(values))
    t0, dt = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.005, 0.05))
    n_full = draw(st.integers(0, 12))
    t_final = t0 + (n_full + draw(st.floats(0.05, 0.95))) * dt
    return params, start, field, t0, t_final, dt, n_full


def digest(traj):
    """sha256 of the times, states and field samples, signed zeros and all."""
    h = hashlib.sha256()
    for a in (traj.times, traj.states, traj.field_samples):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class TestTrajectory:
    def test_table_is_float64_with_column_views(self):
        # an integer table is recorded as floats, so it writes as 1.0
        traj = Trajectory(np.arange(24).reshape(3, 8))
        assert traj.table.dtype == np.float64
        assert len(traj) == 3
        assert traj.times.tolist() == [0.0, 8.0, 16.0]
        assert traj.states.tolist()[1] == [9.0, 10.0, 11.0, 12.0, 13.0]
        assert traj.field_samples.tolist()[2] == [22.0, 23.0]
        for view in (traj.times, traj.states, traj.field_samples):
            assert view.base is traj.table

    @pytest.mark.parametrize("shape", [(3, 7), (3, 9), (8,), (2, 8, 1)])
    def test_rejects_a_table_not_of_eight_columns(self, shape):
        with pytest.raises(ValueError, match=r"shape \(n, 8\)"):
            Trajectory(np.zeros(shape))


class TestIntegrate:
    @pytest.mark.parametrize("field", [
        SinusoidalField(hx0=1.0, epsilon=0.3, omega=2.0),
        TabulatedField([0.0, 1.0], [1.0, 0.5], [0.0, -0.4])])
    def test_four_rate_calls_of_five_floats_per_step(self, monkeypatch,
                                                     field):
        # the benchmark counts the calls of what make_rate_function
        # returns; every RK4 stage must go through it
        make_rate = magswim.simulate.make_rate_function
        calls = []

        def counted(params):
            rate = make_rate(params)

            def traced(*args):
                calls.append(tuple(type(x) for x in args))
                return rate(*args)
            return traced
        monkeypatch.setattr(magswim.simulate, "make_rate_function", counted)
        integrate(CANON, bent_start(), field, t_final=0.7, dt=0.1)
        assert calls == [(float,) * 5] * (4 * 7)

    @given(run=shortened_runs())
    @settings(max_examples=60, deadline=None)
    def test_table_matches_the_array_form(self, run):
        # the float-local loop gives the bits of RK4 on arrays, row for row
        params, start, field, t0, t_final, dt, n_full = run
        traj = integrate(params, start, field, t_final, dt, t0)
        assert len(traj) == n_full + 2
        assert traj.table.tobytes() == rk4_table(
            params, start, field, t_final, dt, t0).tobytes()

    def test_memory_is_the_table(self):
        # each step writes its row into the one preallocated table, so the
        # traced peak is the table's 64 bytes a row and little else
        tracemalloc.start()
        try:
            traj = integrate(CANON, bent_start(),
                             SinusoidalField(1.0, 0.3, 2.0), 1.0, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == 1_001
        assert peak <= 1.25 * 64 * len(traj)

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

    @pytest.mark.parametrize("field", [
        SinusoidalField(hx0=1.0, epsilon=0.5, omega=2.0),
        TabulatedField([0.0, 0.45, 1.0], [1.0, 0.7, 1.3], [0.0, 0.6, -0.4])],
        ids=["sinusoidal", "tabulated"])
    @pytest.mark.parametrize("t0, t_final, dt, n_full, shortened", [
        # dt divides the span, but 0.1 + 6 * 0.1 = 0.7000000000000001
        (0.1, 0.7, 0.1, 6, False),
        (0.3, 0.7, 0.07, 5, True)], ids=["divides", "remainder"])
    def test_rows_are_stamped_and_sampled(self, field, t0, t_final, dt,
                                          n_full, shortened):
        # row k is stamped t0 + k*dt and the last row t_final; each row's
        # field is sampled at its stamp, except that the last row of a span
        # dt divides is sampled where its step ends, at t0 + n_full*dt
        counting = CountingField(field)
        traj = integrate(CANON, bent_start(), counting, t_final, dt, t0=t0)
        at = [t0 + k * dt for k in range(n_full + 1)] + [t_final] * shortened
        assert shortened or at[-1] != t_final
        assert [t.hex() for t in traj.times.tolist()] == \
            [t.hex() for t in at[:-1] + [t_final]]
        assert [h.hex() for h in traj.field_samples.ravel().tolist()] == \
            [float(h).hex() for t in at for h in field.sample(t)]
        # three samples a step, the first shared with the row before it,
        # and one for the last row
        assert counting.calls == 3 * (n_full + shortened) + 1

    @pytest.mark.parametrize("t_final", [-0.0, 0.0, 1e-12])
    def test_no_step_samples_at_t0(self, t_final):
        # a span too short for a step is one row, stamped t_final, whose
        # field is sampled at t0 itself, signed zero included
        field = SinusoidalField(hx0=1.0, epsilon=0.5, omega=2.0)
        traj = integrate(CANON, bent_start(), field, t_final, 0.1, t0=-0.0)
        assert traj.times.tolist() == [t_final]
        assert [h.hex() for h in traj.field_samples[0].tolist()] == \
            ["0x1.0000000000000p+0", "-0x0.0p+0"]

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
        (0.03, [0.16467151752162157, -0.35507500485025784,
                0.12541583074545815, -0.027136495483185363,
                -0.05264863562915779], -0.15521366541766635),
        # 34 full steps and a shortened one, stamped and sampled at t_final
        (0.07, [0.16471779690691488, -0.3550696938112198,
                0.1254136456702961, -0.027130590791748854,
                -0.05264112991384496], -0.15521366541766646),
    ])
    def test_outputs_are_frozen(self, dt, state, hy):
        # values of the rate's float elimination; against the
        # LAPACK solve the final states moved by at most 3.2e-16 of their
        # largest entry, and by the body-frame rate by 4.2e-16 of each
        # column's; they must not move by a single bit
        traj = integrate(CANON, Configuration(0.1, -0.2, 0.3, 0.4, -0.2),
                         SinusoidalField(1.0, 0.2, 1.3), t_final=3.1,
                         dt=dt, t0=0.7)
        assert traj.times[-1] == 3.1
        assert traj.states[-1].tolist() == state
        assert traj.field_samples[-1].tolist() == [1.0, hy]

    def test_tabulated_output_is_frozen(self):
        # 32 full steps from t0 = 0.6 and a shortened one; values of the
        # rate's float elimination (1.5e-16 of the largest
        # entry from the LAPACK solve's, and 6.9e-16 of each column's from
        # the rate before the body frame)
        field = TabulatedField([0.5, 1.0, 2.0, 3.0], [1.0, 0.4, 1.3, 0.8],
                               [0.0, 0.9, -0.6, 0.2])
        traj = integrate(CANON, Configuration(0.1, -0.2, 0.3, 0.4, -0.2),
                         field, t_final=2.9, dt=0.07, t0=0.6)
        assert len(traj) == 34
        assert traj.times[-1] == 2.9
        assert traj.states[-1].tolist() == [
            0.16410274876802908, -0.3691950988052728, 0.06927921474480582,
            0.006513724792657473, 0.0020542516546534044]
        assert traj.field_samples[-1].tolist() == [0.8500000000000001, 0.12]

    @pytest.mark.parametrize("start,field,t_final,dt,rows,sha", [
        # integer zero field: the rate negates before converting, so the
        # load rows carry the signs a float 0.0 field gives them
        (Configuration.straight(), ConstantField(0, 0), 1.0, 0.05, 21,
         "dbb1e3519b82426dc84da5dc43ec722d7e8ae1639c48ac15f7fc4f4047f7142b"),
        (Configuration(0.0, 0.0, 0.1, 0.3, -0.2), ConstantField(0, 0), 1.0,
         0.05, 21,
         "68756c7b852f6f25e8781aea71c3c2cb9f62f3aa505d4428c792958f5ea5c232"),
        # signed zeros in the start and the field stay signed zeros
        (Configuration(-0.0, 0.0, -0.0, 0.0, -0.0), ConstantField(-0.0, -0.0),
         1.0, 0.05, 21,
         "2d192871b7f5bf908888b82edd03d35f99969b323ed18cba060f366ce913d5f7"),
        # an integer hx0 is sampled as given and recorded as a float
        (Configuration(0.0, 0.0, 0.1, 0.3, -0.2),
         SinusoidalField(hx0=1, epsilon=0.2, omega=1.3), 2.0, 0.03, 68,
         "c85ca49b85c696db940e08f1d9568578123d107da633210565b1a068d25d87ce"),
    ])
    def test_zero_and_integer_fields_are_frozen(self, start, field, t_final,
                                                dt, rows, sha):
        # digests of the rate's float elimination; from the
        # LAPACK solve's, the states moved by at most 1.9e-16 of their
        # largest entry, and the zero run only in the signs of its zeros;
        # the two runs at theta != 0 re-recorded for the body-frame rate,
        # by at most 7.6e-16 of each column's largest entry
        traj = integrate(CANON, start, field, t_final, dt)
        assert len(traj) == rows
        assert digest(traj) == sha

    @pytest.mark.parametrize("params", [CANON, PALINDROME],
                             ids=["canon", "palindrome"])
    @pytest.mark.parametrize("phi", [0.3, -1.1, math.pi / 2, 2.5, 10.0])
    def test_turned_start_and_field_turn_the_run(self, params, phi):
        # turning the start and every field sample by phi turns the run:
        # it ends at the turned position with the heading moved by phi and
        # the same shape.  Measured: at most 1.8e-15 absolute on these
        # runs, whose columns are O(1); the bound is 1e-13 of each
        # column's scale
        rng = np.random.default_rng(7)
        times = np.linspace(0.0, 4.0, 17)
        hx = 1.0 + 0.3 * rng.standard_normal(17)
        hy = 0.4 * rng.standard_normal(17)
        c, s = math.cos(phi), math.sin(phi)
        run = integrate(params, Configuration(0.3, -0.2, 0.4, 0.5, -0.3),
                        TabulatedField(times, hx, hy), 4.0, 0.01)
        turned = integrate(
            params, Configuration(c * 0.3 + s * 0.2, s * 0.3 - c * 0.2,
                                  0.4 + phi, 0.5, -0.3),
            TabulatedField(times, c * hx - s * hy, s * hx + c * hy), 4.0,
            0.01)
        x, y, theta, a2, a3 = run.states[-1].tolist()
        want = np.array([c * x - s * y, s * x + c * y, theta + phi, a2, a3])
        scale = np.maximum(1.0, np.max(np.abs(turned.states), axis=0))
        assert np.all(np.abs(turned.states[-1] - want) <= 1e-13 * scale)

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
        # settles; values of the rate's float elimination
        # (delta_x 1.6e-15 relative from the LAPACK solve's, the shape gap
        # 3.2e-19 absolute; from the rate before the body frame, 5.3e-16
        # relative and 1.8e-18 absolute)
        rep = displacement_per_period(CANON, Configuration.straight(), 1e-2,
                                      0.62, burn_in_periods=1,
                                      dt=2.0 * math.pi / 0.62 / 100)
        assert rep.delta_x == 3.2024857675768176e-06
        assert rep.burn_in_periods == 4
        assert rep.shape_gap == 2.4820482249794924e-11
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
        # one period at the default step; values of the rate's float
        # elimination (the three gaps are rounding, and moved by
        # at most 1.4e-17 absolute from the LAPACK solve's, and by 5.6e-17
        # for the body-frame rate)
        field = SinusoidalField(hx0=1.0, epsilon=0.05, omega=1.3)
        rep = symmetry_experiment(
            UNIFORM, Configuration(0.0, 0.0, 0.2, 0.4, 0.4), field,
            t_final=field.period)
        assert [v.hex() for v in (rep.max_alpha_gap, rep.max_abs_x,
                                  rep.max_abs_y, rep.dt, rep.tolerance)] == [
            "0x1.0000000000000p-53", "0x1.9e0ac78b7ac51p-57",
            "0x1.41ce8a09c886ep-56", "0x1.3cbff78ba08bcp-9",
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
