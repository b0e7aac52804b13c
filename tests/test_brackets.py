"""Control fields, Lie bracket words, and accessibility rank."""
import hashlib
import math
import random
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import magswim.dynamics
from magswim import Configuration, SwimmerParams
from magswim.brackets import (
    ControlSystem,
    VectorField,
    control_vector_fields,
    equilibrium_identities,
    lie_rank,
)
from magswim.dynamics import control_fields, rhs

CANON = SwimmerParams(1.0, (1.2, 0.8, 0.8), (3.0, 1.5, 1.5), 1.0, 1.0)


class TestControlVectorFields:
    def test_matches_balance_decomposition(self):
        system = control_vector_fields(CANON)
        for state in ([0.4, -0.2, 0.3, 0.25, -0.15],
                      [0.0, 0.0, -1.1, 0.6, 0.4],
                      [2.0, 1.0, 0.0, -0.5, 0.9]):
            x = np.array(state)
            cf = control_fields(Configuration.from_array(x), CANON)
            np.testing.assert_allclose(system.f0(x), cf.f0, atol=1e-13)
            np.testing.assert_allclose(system.fx(x), cf.fx, atol=1e-13)
            np.testing.assert_allclose(system.fy(x), cf.fy, atol=1e-13)

    def test_affine_reconstruction(self):
        system = control_vector_fields(CANON)
        x = np.array([0.1, -0.3, 0.5, 0.2, -0.4])
        h = (0.8, -1.3)
        direct = rhs(Configuration.from_array(x), h, CANON)
        affine = system.f0(x) + h[0] * system.fx(x) + h[1] * system.fy(x)
        np.testing.assert_allclose(affine, direct, atol=1e-12)

    def test_drift_vanishes_on_straight_shapes(self):
        system = control_vector_fields(CANON)
        for theta in (0.0, 0.4, -1.2):
            x = np.array([0.7, -0.2, theta, 0.0, 0.0])
            assert np.all(system.f0(x) == 0.0)

    def test_outputs_are_frozen(self):
        # values as the fields produced them before the elastic load and
        # the solve moved into the shared load core
        system = control_vector_fields(CANON)
        x = np.array([0.1, -0.2, 0.3, 0.4, -0.5])
        assert system.f0(x).tolist() == [
            0.055650881791887576, -0.47344608014859224, -0.5550658171056579,
            -0.05844130475830731, 2.5998317126304227]
        assert system.fx(x).tolist() == [
            0.19995740597905345, -0.375282623483358, -0.08885546458184482,
            -1.1177533660892092, 1.0367924595871028]
        assert system.fy(x).tolist() == [
            -0.424205840204711, -0.26871801339754925, -0.7219105166185491,
            2.087076465655916, 3.6786530840548037]

    def test_in_place_change_does_not_reach_the_next_call(self):
        system = control_vector_fields(CANON)
        x = np.array([0.1, -0.2, 0.3, 0.4, -0.5])
        for field in system.generators():
            before = field(x).tolist()
            field(x)[:] = 7.0
            assert field(x).tolist() == before

    def test_memo_stays_bounded(self):
        # the shared solve holds the last state only, however many it saw
        system = control_vector_fields(CANON)
        solve = system.f0.fn.__self__
        for theta in np.linspace(-1.0, 1.0, 1000):
            x = np.array([0.0, 0.0, theta, 0.1, -0.2])
            system.fy(x)
            assert solve._fields.shape == (3, 5)
        assert solve._key == ((5,), x[2:].tobytes())

    def test_memo_of_stacks_stays_bounded(self):
        # the bound is one stack, so stacks cannot outgrow it either
        system = control_vector_fields(CANON)
        solve = system.f0.fn.__self__
        states = np.zeros((49, 5))
        for theta in np.linspace(-1.0, 1.0, 40):
            states[:, 2] = theta + np.arange(49) * 1e-3
            system.fx(states)
            assert solve._fields.shape == (49, 3, 5)
        assert solve._key == ((49, 5), states[:, 2:].tobytes())

    def test_stack_matches_each_state(self, monkeypatch):
        # a stack of states gives each state's field bit for bit, and the
        # three fields on one stack assemble each of its 12 poses once,
        # the one that recurs included
        calls = TestSharedSolve._count_assemblies(monkeypatch)
        rng = np.random.default_rng(8)
        states = rng.uniform(-1.0, 1.0, size=(4, 3, 5))
        states[0, 0, 2:] = states[1, 2, 2:]
        states[2, 1, 2:] = [-0.0, 0.0, -0.0]
        system = control_vector_fields(CANON)
        stacked = [field(states) for field in system.generators()]
        assert len(calls) == 12
        for field, out in zip(system.generators(), stacked):
            assert out.shape == (4, 3, 5)
            for index in np.ndindex(4, 3):
                assert out[index].tolist() == field(states[index]).tolist()
                # a stack of one state has the bytes of that state
                assert field(states[index][None]).shape == (1, 5)

    def test_fields_ignore_position(self):
        system = control_vector_fields(CANON)
        a = np.array([0.0, 0.0, 0.3, 0.2, -0.1])
        b = a + np.array([5.0, -7.0, 0.0, 0.0, 0.0])
        for field in system.generators():
            np.testing.assert_array_equal(field(a), field(b))


class TestLastStack:
    """The shared solve holds the last state or stack only; a field never
    returns what another state or shape left there.  That a caller cannot
    change it: ``test_in_place_change_does_not_reach_the_next_call``."""

    A = [0.1, -0.2, 0.3, 0.4, -0.5]
    B = [0.0, 0.0, -0.7, 0.2, 0.6]

    @staticmethod
    def bits(out):
        return [v.hex() for v in np.ravel(out).tolist()], out.shape

    def fresh(self, x):
        """Each field at ``x`` from a system that saw nothing else."""
        return [self.bits(field(x)) for field in
                control_vector_fields(CANON).generators()]

    def seen(self, system, x):
        return [self.bits(field(x)) for field in system.generators()]

    def test_alternating_stacks(self):
        system = control_vector_fields(CANON)
        a = np.array([self.A, self.B])
        b = np.array([self.B, self.A, self.B])
        for x in (a, b, a):
            assert self.seen(system, x) == self.fresh(x)

    def test_array_changed_in_place_between_calls(self):
        system = control_vector_fields(CANON)
        x = np.array(self.A)
        self.seen(system, x)
        x[2:] = self.B[2:]
        assert self.seen(system, x) == self.fresh(np.array(self.B))

    def test_same_bytes_in_another_shape(self):
        system = control_vector_fields(CANON)
        x = np.array(self.A)
        for state in (x, x[None], x):
            assert self.seen(system, state) == self.fresh(state)

    def test_signed_zero_theta(self):
        # fx at these two poses differs in the sign of one zero
        system = control_vector_fields(CANON)
        minus = np.array([0.0, 0.0, -0.0, -0.0, -0.0])
        plus = np.array([0.0, 0.0, 0.0, -0.0, -0.0])
        assert self.fresh(minus) != self.fresh(plus)
        for x in (minus, plus, minus):
            assert self.seen(system, x) == self.fresh(x)

    @pytest.mark.parametrize("state", [
        [0.0, 0.0, np.nan, 0.0, 0.0],
        [0.0, 0.0, np.inf, 0.0, 0.0],
        [0.0, 0.0, 0.3, -np.inf, 0.0],
        [[0.0, 0.0, 0.3, 0.1, 0.2], [0.0, 0.0, 0.3, 0.1, np.nan]]],
        ids=["nan", "inf", "-inf", "stack"])
    def test_rejects_non_finite_angles(self, state):
        for field in control_vector_fields(CANON).generators():
            with pytest.raises(ValueError, match="angles must be finite"):
                field(state)

    @pytest.mark.parametrize("state", [
        [0.0, 0.0, 0.3, 0.1], [0.0] * 6, np.zeros((3, 4)), 0.3],
        ids=["4-vector", "6-vector", "stack-of-4", "scalar"])
    def test_rejects_states_that_are_not_5_vectors(self, state):
        for field in control_vector_fields(CANON).generators():
            with pytest.raises(ValueError, match="5-vectors"):
                field(state)


class TestEquilibriumIdentities:
    @pytest.mark.parametrize("theta", [0.0, 0.3, -0.3, 0.7, -0.7])
    def test_control_columns_align(self, theta):
        report = equilibrium_identities(CANON, theta)
        assert report.alignment_residual < 1e-12

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.7])
    def test_stencil_identity_holds(self, theta):
        report = equilibrium_identities(CANON, theta)
        assert report.corrected_gap < 1e-6 * report.bracket_norm

    def test_scalar_shortcut_is_not_an_identity(self):
        # the first bracket is NOT (fy)_theta fy; document the order-one
        # defect so nobody "fixes" the stencil back to the shortcut
        report = equilibrium_identities(CANON, 0.3)
        assert report.claimed_gap > report.fy_norm

    def test_gap_is_even_in_theta(self):
        plus = equilibrium_identities(CANON, 0.3)
        minus = equilibrium_identities(CANON, -0.3)
        assert plus.claimed_gap == pytest.approx(minus.claimed_gap, rel=1e-9)
        assert plus.corrected_gap == pytest.approx(
            minus.corrected_gap, abs=1e-8)

    def test_rejects_transverse_pose(self):
        with pytest.raises(ValueError):
            equilibrium_identities(CANON, 1.55)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_theta(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            equilibrium_identities(CANON, theta)

    def test_report_is_frozen(self):
        # exact bits, recorded before the generators shared one solve
        report = equilibrium_identities(CANON, 0.3)
        assert {k: float(v).hex() for k, v in vars(report).items()} == {
            "theta": "0x1.3333333333333p-2",
            "alignment_residual": "0x1.41251357a6ae7p-53",
            "claimed_gap": "0x1.769d1bed25089p+5",
            "corrected_gap": "0x1.4e3a4b58483b9p-28",
            "fy_norm": "0x1.50210dd42d428p+2",
            "bracket_norm": "0x1.43bab1734a19fp+5",
        }


class TestLieRank:
    def test_depth_progression_at_origin(self):
        ranks = [lie_rank(CANON, np.zeros(5), depth=d).rank for d in (1, 2, 3)]
        assert ranks == [1, 3, 4]

    def test_rank_four_with_clean_gap(self):
        report = lie_rank(CANON, np.zeros(5), depth=3)
        assert report.rank == 4
        assert report.is_straight
        assert report.gap_4_5 > 1e6

    @pytest.mark.parametrize("theta", [0.3, 0.7])
    def test_straight_rotated_states(self, theta):
        report = lie_rank(CANON, np.array([0, 0, theta, 0, 0.0]), depth=3)
        assert report.rank == 4
        assert report.is_straight
        assert report.gap_4_5 > 1e5

    def test_bent_state_reaches_full_rank(self):
        report = lie_rank(
            CANON, np.array([0.0, 0.0, 0.2, 0.4, -0.3]), depth=2)
        assert report.rank == 5
        assert not report.is_straight

    def test_rank_ignores_position(self):
        here = lie_rank(CANON, np.array([0, 0, 0.3, 0, 0.0]), depth=2)
        there = lie_rank(CANON, np.array([3, -2, 0.3, 0, 0.0]), depth=2)
        np.testing.assert_array_equal(
            here.singular_values, there.singular_values)
        assert here.rank == there.rank

    def test_word_labels(self):
        report = lie_rank(CANON, np.zeros(5), depth=3)
        assert len(report.labels) == 15
        assert report.labels[:3] == ("f0", "fx", "fy")
        assert "[fx,fy]" in report.labels
        assert "[f0,[fx,fy]]" in report.labels

    def test_coarser_tolerance_cannot_raise_rank(self):
        point = np.array([0.0, 0.0, 0.2, 0.4, -0.3])
        fine = lie_rank(CANON, point, depth=2, tol_factor=1e-8)
        coarse = lie_rank(CANON, point, depth=2, tol_factor=1e-2)
        assert coarse.rank <= fine.rank

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lie_rank(CANON, np.zeros(5), depth=4)
        with pytest.raises(ValueError):
            lie_rank(CANON, np.zeros(4), depth=2)

    @pytest.mark.parametrize("depth", [
        True, False, np.bool_(True), 2.0, 3.0, np.float64(3.0), "3", None],
        ids=["True", "False", "bool_", "2.0", "3.0", "float64", "str",
             "None"])
    def test_rejects_depth_that_is_not_an_integer(self, depth):
        with pytest.raises(ValueError, match="depth must be 1, 2, or 3"):
            lie_rank(CANON, np.zeros(5), depth=depth)

    def test_numpy_integer_depth_is_stored_as_int(self):
        point = np.array([0.0, 0.0, 0.2, 0.4, -0.3])
        report = lie_rank(CANON, point, depth=np.int64(3))
        assert type(report.depth) is int and report.depth == 3
        np.testing.assert_array_equal(
            report.singular_values,
            lie_rank(CANON, point, depth=3).singular_values)

    @pytest.mark.parametrize("index, value", [
        (2, np.nan), (2, np.inf), (0, np.nan), (4, -np.inf)])
    def test_rejects_non_finite_point(self, index, value):
        point = np.zeros(5)
        point[index] = value
        with pytest.raises(ValueError, match="point must be finite"):
            lie_rank(CANON, point, depth=2)

    @pytest.mark.parametrize("tol_factor", [np.nan, -1.0, 0.0, 1.0, 2.0])
    def test_rejects_tolerance_outside_unit_interval(self, tol_factor):
        with pytest.raises(ValueError, match="tol_factor"):
            lie_rank(CANON, np.zeros(5), depth=2, tol_factor=tol_factor)


# exact bits of (singular_values, rank, gap_4_5), recorded before the
# generators shared one solve and the nested Jacobians were hoisted
FROZEN_POSES = {
    "straight": [0.4, -0.3, 0.3, 0.0, 0.0],
    "bent": [0.0, 0.0, 0.2, 0.4, -0.3],
    "signed_zero": [0.0, 0.0, -0.0, 0.25, -0.15],
}
FROZEN_RANKS = {
    ("straight", 1): (
        ["0x1.5fd7fc2fd7d4ep+2", "0x1.2e60a66a8df3dp-51", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0"], 1, "nan"),
    ("straight", 2): (
        ["0x1.a887d25e4f1f4p+6", "0x1.23314de709b85p+1",
         "0x1.f410787d1bb58p-2", "0x1.e29c943b84704p-50",
         "0x1.14b90d2be7712p-53"], 3, "0x1.be786f83efd31p+3"),
    ("straight", 3): (
        ["0x1.e954072b73645p+10", "0x1.24fee9b43a74fp+5",
         "0x1.371831119b3b9p+1", "0x1.01a224c994307p+0",
         "0x1.903150fad05acp-20"], 4, "0x1.499caa7254760p+19"),
    ("bent", 1): (
        ["0x1.2ead5d355ee15p+2", "0x1.05db4cf734768p+1",
         "0x1.6f37d64af9c0ep-4", "0x0.0p+0", "0x0.0p+0"], 3, "nan"),
    ("bent", 2): (
        ["0x1.5dad1339b6b86p+6", "0x1.6340e83d33777p+1",
         "0x1.b1225cb62d51bp-1", "0x1.bf11cc74d22b2p-5",
         "0x1.f32c86cc40d4bp-8"], 5, "0x1.ca8e89fb9d107p+2"),
    ("bent", 3): (
        ["0x1.85d015d432ef0p+10", "0x1.4b7cd447228a2p+5",
         "0x1.b48c38d648cf9p+3", "0x1.5bc295c1c4e25p+1",
         "0x1.28dfd1aa91a02p+0"], 5, "0x1.2be1367630b69p+1"),
    ("signed_zero", 1): (
        ["0x1.51848b1a4a07ep+2", "0x1.4addce0da2897p+0",
         "0x1.2c49e04fa1effp-4", "0x0.0p+0", "0x0.0p+0"], 3, "nan"),
    ("signed_zero", 2): (
        ["0x1.8e6c5933f0bd4p+6", "0x1.3ccca1d459253p+1",
         "0x1.5443a8ad23407p-1", "0x1.3fd7a4da3b21ap-5",
         "0x1.18f0bf6a4890dp-11"], 5, "0x1.2372cc2b211dep+6"),
    ("signed_zero", 3): (
        ["0x1.c5fc913d53069p+10", "0x1.49fc688e5d170p+5",
         "0x1.336554def3e15p+3", "0x1.f64cdb35ceb82p+0",
         "0x1.6fb2e1446314bp-1"], 5, "0x1.5db667b1282e2p+1"),
}


class TestSharedSolve:
    @pytest.mark.parametrize("pose, depth", sorted(FROZEN_RANKS))
    def test_rank_report_is_frozen(self, pose, depth):
        report = lie_rank(CANON, np.array(FROZEN_POSES[pose]), depth=depth)
        singular, rank, gap = FROZEN_RANKS[pose, depth]
        assert [v.hex() for v in report.singular_values.tolist()] == singular
        assert report.rank == rank
        assert float(report.gap_4_5).hex() == gap

    @staticmethod
    def _count_assemblies(monkeypatch):
        calls = []
        assemble = magswim.dynamics._assemble

        def counted(*args):
            calls.append(args[:3])
            return assemble(*args)
        monkeypatch.setattr(magswim.dynamics, "_assemble", counted)
        return calls

    @pytest.mark.parametrize("depth, assemblies", [(1, 1), (2, 7), (3, 49)])
    def test_one_assembly_per_stencil_pose(self, monkeypatch, depth,
                                           assemblies):
        calls = self._count_assemblies(monkeypatch)
        lie_rank(CANON, np.array([0.1, -0.2, 0.3, 0.2, -0.1]), depth=depth)
        assert len(calls) == assemblies

    def test_one_batched_solve_per_call(self, monkeypatch):
        # every stencil pose is assembled once and all of them are solved
        # by one call of the batched LAPACK gufunc: 49 poses at depth 3,
        # the point and its six BASE_STEP neighbours in the identities
        solves = []
        solve = magswim.dynamics._umath_linalg.solve

        def counted(*args, **kwargs):
            solves.append(args[0].shape)
            return solve(*args, **kwargs)
        monkeypatch.setattr(magswim.dynamics, "_umath_linalg",
                            SimpleNamespace(solve=counted))
        assemblies = self._count_assemblies(monkeypatch)
        lie_rank(CANON, np.array([0.1, -0.2, 0.3, 0.2, -0.1]), depth=3)
        assert (len(assemblies), solves) == (49, [(49, 5, 5)])
        del assemblies[:], solves[:]
        equilibrium_identities(CANON, 0.3)
        assert (len(assemblies), solves) == (7, [(7, 5, 5)])

    @pytest.mark.parametrize("depth, poses", [(1, 1), (2, 7), (3, 49)])
    def test_rank_evaluates_each_generator_once_on_the_stencil(
            self, monkeypatch, depth, poses):
        # lie_rank reads the generators of control_vector_fields, once
        # each, on the stack of its stencil states
        shapes = []
        fields = magswim.brackets.control_vector_fields

        def recorded(params):
            system = fields(params)
            return ControlSystem(*(
                VectorField(lambda x, f=f: shapes.append(x.shape) or f(x),
                            f.label) for f in system.generators()))
        monkeypatch.setattr(magswim.brackets, "control_vector_fields",
                            recorded)
        lie_rank(CANON, np.array([0.1, -0.2, 0.3, 0.2, -0.1]), depth=depth)
        assert shapes == [(poses, 5)] * 3

    def test_signed_zero_poses_are_kept_apart(self, monkeypatch):
        # -0.0 + 0.0 is 0.0, so at theta = -0.0 the stencil poses that move
        # another angle carry theta = +0.0 on their + side and -0.0 on their
        # - side; each of the 49 stencil poses keeps its own signed zeros
        calls = self._count_assemblies(monkeypatch)
        lie_rank(CANON, np.array(FROZEN_POSES["signed_zero"]), depth=3)
        assert len(calls) == 49
        signs = [math.copysign(1.0, t) for t, _, _ in calls if t == 0.0]
        assert (signs.count(1.0), signs.count(-1.0)) == (16, 9)

    def test_collapsed_steps_assemble_each_pose_once(self, monkeypatch):
        # at theta = 1e300 every theta step rounds away, so stencil poses
        # recur, some differing only in the sign of alpha2's zero; each of
        # the 49 is assembled once, and the report keeps the bits recorded
        # when the 28 distinct ones were assembled once each
        calls = self._count_assemblies(monkeypatch)
        report = lie_rank(CANON, np.array([0.0, 0.0, 1e300, -0.0, 0.2]),
                          depth=3)
        assert len(calls) == 49
        assert [v.hex() for v in report.singular_values.tolist()] == [
            "0x1.a7292a697bc1dp+10", "0x1.18cb5d73bb9b9p+0",
            "0x1.2705be9ef12d7p-1", "0x1.a2c062ae05a02p-17",
            "0x1.6ffe62812c380p-33"]
        assert (report.rank, float(report.gap_4_5).hex()) == (
            3, "0x1.234f75b5efbdbp+16")

    def test_field_memo_keeps_signed_zeros_apart(self, monkeypatch):
        # the solve of control_vector_fields is keyed on bytes: theta =
        # -0.0 and theta = 0.0 are two poses, and as only the last one is
        # held, each turn assembles once for the three fields
        calls = self._count_assemblies(monkeypatch)
        system = control_vector_fields(CANON)
        for theta in (-0.0, 0.0, -0.0, 0.0):
            for field in system.generators():
                field(np.array([0.0, 0.0, theta, 0.25, -0.15]))
        assert [math.copysign(1.0, t) for t, _, _ in calls] == [
            -1.0, 1.0, -1.0, 1.0]

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_exactly_singular_matrix_raises(self, monkeypatch, depth):
        assemble = magswim.dynamics._assemble

        def singular(*args):
            Mh, Mx, My = assemble(*args)
            Mh[4] = 0.0
            return Mh, Mx, My
        monkeypatch.setattr(magswim.dynamics, "_assemble", singular)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            lie_rank(CANON, np.array([0.1, -0.2, 0.3, 0.2, -0.1]),
                     depth=depth)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            equilibrium_identities(CANON, 0.3)

    @pytest.mark.parametrize("point", [
        [0.0, 0.0, -0.0, -0.0, -0.0],
        [1e308, -1e308, 0.3, 0.2, -0.1],
        [0.0, 0.0, 1e300, -1e300, 5e-324],
        [0.0, 0.0, 40.0, -25.0, 3.0]])
    def test_finite_points_do_not_trip_the_solve_error_state(self, point):
        # only the batched solve runs under the error state that turns an
        # invalid flag into LinAlgError; no finite pose sets that flag
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = lie_rank(CANON, np.array(point), depth=3)
        assert np.all(np.isfinite(report.singular_values))


def seeded_swimmer(seed):
    """A head-asymmetric swimmer drawn from ``seed``: heavy head, slender
    links, strongly stable straight state."""
    rng = random.Random(seed)
    return SwimmerParams(1.0, (rng.uniform(0.6, 0.9), 0.5, 0.5),
                         (rng.uniform(1.6, 2.6), 1.0, 1.0),
                         rng.uniform(0.7, 1.5), rng.uniform(0.7, 1.5))


def seeded_poses(seed):
    """Eight poses drawn from ``seed``, straight and bent in turn."""
    rng = random.Random(1000 + seed)
    poses = []
    for k in range(8):
        x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
        theta = rng.uniform(-1.2, 1.2)
        a2, a3 = ((0.0, 0.0) if k % 2 == 0 else
                  (rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)))
        poses.append([x, y, theta, a2, a3])
    return poses


SIGNED_ZERO_POSES = [
    [0.0, 0.0, -0.0, 0.0, 0.0],
    [0.0, 0.0, -0.0, -0.0, -0.0],
    [0.3, -0.1, -0.0, 0.25, -0.15],
    [0.0, 0.0, 0.4, -0.0, 0.2],
    [-0.2, 0.5, -0.7, 0.1, -0.0],
    [0.0, 0.0, 0.0, -0.0, -0.0],
]


def rank_digest(params, poses, depth):
    """sha256 of ``lie_rank``'s singular values, rank, gap and labels at
    each pose, bit for bit."""
    h = hashlib.sha256()
    for pose in poses:
        r = lie_rank(params, np.array(pose), depth=depth)
        h.update(" ".join([*(v.hex() for v in r.singular_values.tolist()),
                           str(r.rank), float(r.gap_4_5).hex(),
                           *r.labels]).encode())
    return h.hexdigest()


def identities_digest(params, thetas):
    """sha256 of every ``equilibrium_identities`` field at each theta."""
    h = hashlib.sha256()
    for theta in thetas:
        report = equilibrium_identities(params, theta)
        h.update(" ".join(float(v).hex()
                          for v in vars(report).values()).encode())
    return h.hexdigest()


class TestFrozenRankDigests:
    """Rank reports and identities as the former pose-by-pose route
    through ``lie_bracket`` produced them: 40 seeded poses over five
    swimmers and six poses with signed-zero angles, at every depth."""

    RANKS = {
        (1, 1): "8a21024bbfbd309cafd5d9f88f4da08e35e4e8d123d59950269c162a444060e7",
        (1, 2): "ace1a767cf114e6ee117d8ae630756b77e2595f4008f72364ccf6bcd3256651a",
        (1, 3): "2b3b93783dfcb1648b3dea4d0f7fd32b1d9a8a2dc53b4fa356a6c22b09fd001f",
        (2, 1): "16df9099049c486527ebb3a1b94e815dca832497b031cdd5678c45e7bc07deba",
        (2, 2): "762a9e19d10c8aca5b2808a862368c827308ebd55cab220e2bbd3301aa3619b3",
        (2, 3): "04a1e149562c003ba23f77fc89d717ce7b27dc1afcb61bfefeb91f9fd11b6b0c",
        (3, 1): "f2db6bd74a8b202ba2d23a08925326c329863c7cdbf28a1d69a383dd5a8bc519",
        (3, 2): "950eb7371bc858ba541d9e6af3dc9be0882b07a4b531114b854a0245a91cb75e",
        (3, 3): "37a1521e60684a48914cbe9725f60e185dddc5ea4c7c7fec4aefd3060d4e7bfe",
        (4, 1): "bc0be78e04ce8d74ab91b83888e777a1886554515dd286abefce33621b06d66d",
        (4, 2): "af7afb3803004faff2e7d6b408520e846ec469f008238452462890ed44ad79f6",
        (4, 3): "7867309509cad162fe01a8bacab58a6005a69aa77d527c83b7918059ad7d5bfd",
        (5, 1): "ae927c6ae44d79d0ada4b37e1297ca99a3bb761d19a77f2df37dda28eb614497",
        (5, 2): "da74ede073f9b98fc65c8e37c02dac558eccfeba6792289688103507deb3add9",
        (5, 3): "1280932e413c922e122927573b6feb89e64f7a1c1d87335d694c36ef8824c37d",
    }
    SIGNED_ZERO_RANKS = {
        1: "e129447882fe6a67dc97f62b3602f35ffeb5cd22ffd0c00720562c7a5cbadb0c",
        2: "4ac1210a70c5f2a00b075eba2465bbf5cc1d6e6f47acb7b5e56764635e2b90c7",
        3: "540bd9c53633ce99b9c6d479f64c905692420b81c8e27addc8bd84b99cb38d8d",
    }
    IDENTITIES = {
        1: "306a04a2d82fca39382fea9984774a9e674db9d5eab35c4d12acdc9022a288ad",
        2: "052d23414cb0663f658fbecc025cd73d8f927c3c15c5202ad44efed35f890e72",
        3: "c8f447bfa4fbe4d41c1175d31bd4be5af4b63b753c3b69ae01a447a92713e688",
        4: "00cf376cc657cb631decac62282fa925ed1790914496982c20f2a6e116b3b9c6",
        5: "a554bc6b58ae275a2ca89fc1efdb042b78816be52a6dc8aea7edbb406e248227",
    }

    @pytest.mark.parametrize("seed, depth", sorted(RANKS))
    def test_seeded_ranks(self, seed, depth):
        assert rank_digest(seeded_swimmer(seed), seeded_poses(seed),
                           depth) == self.RANKS[seed, depth]

    @pytest.mark.parametrize("depth", sorted(SIGNED_ZERO_RANKS))
    def test_signed_zero_ranks(self, depth):
        assert rank_digest(CANON, SIGNED_ZERO_POSES, depth) == (
            self.SIGNED_ZERO_RANKS[depth])

    @pytest.mark.parametrize("seed", sorted(IDENTITIES))
    def test_seeded_identities(self, seed):
        thetas = [pose[2] for pose in seeded_poses(seed)[::2]]
        assert identities_digest(seeded_swimmer(seed), thetas) == (
            self.IDENTITIES[seed])

    def test_signed_zero_identities(self):
        assert identities_digest(CANON, [-0.0, 0.0, 0.3, -0.3]) == (
            "69bd521c2029226f172bcbc33896c2f41a7e59e7039874f51c276f6782d16443")
