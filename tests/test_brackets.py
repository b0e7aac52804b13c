"""Control fields, Lie bracket words, and accessibility rank."""
import dataclasses
import hashlib
import math
import random
import warnings

import numpy as np
import pytest

import magswim.dynamics
from magswim import Configuration, SwimmerParams
from magswim.brackets import (
    BASE_STEP,
    NESTED_STEP,
    ControlSystem,
    VectorField,
    _SECOND,
    _jacobians,
    _stencil,
    _stencil_words,
    control_vector_fields,
    equilibrium_identities,
    lie_rank,
)
from magswim.dynamics import _load_core, _solve_poses
from oracles import (loop_assemble, shifted, solve_poses, velocity,
                     with_neighbours)

CANON = SwimmerParams(1.0, (1.2, 0.8, 0.8), (3.0, 1.5, 1.5), 1.0, 1.0)


class TestControlVectorFields:
    def test_matches_balance_decomposition(self):
        system = control_vector_fields(CANON)
        for state in ([0.4, -0.2, 0.3, 0.25, -0.15],
                      [0.0, 0.0, -1.1, 0.6, 0.4],
                      [2.0, 1.0, 0.0, -0.5, 0.9]):
            x = np.array(state)
            # Mh f0 = elastic, Mh fx = -Mx, Mh fy = -My, with Mh, Mx, My
            # of the loop form at the state's heading
            elastic = _load_core(CANON)(*state[3:])[1]
            Mh, Mx, My = loop_assemble(CANON, *state[2:])
            np.testing.assert_allclose(Mh @ system.f0(x), elastic,
                                       atol=1e-13)
            np.testing.assert_allclose(Mh @ system.fx(x), np.negative(Mx),
                                       atol=1e-13)
            np.testing.assert_allclose(Mh @ system.fy(x), np.negative(My),
                                       atol=1e-13)

    def test_affine_reconstruction(self):
        system = control_vector_fields(CANON)
        x = np.array([0.1, -0.3, 0.5, 0.2, -0.4])
        h = (0.8, -1.3)
        direct = velocity(Configuration.from_array(x), h, CANON)
        affine = system.f0(x) + h[0] * system.fx(x) + h[1] * system.fy(x)
        np.testing.assert_allclose(affine, direct, atol=1e-12)

    def test_drift_vanishes_on_straight_shapes(self):
        system = control_vector_fields(CANON)
        for theta in (0.0, 0.4, -1.2):
            x = np.array([0.7, -0.2, theta, 0.0, 0.0])
            assert np.all(system.f0(x) == 0.0)

    def test_outputs_are_frozen(self):
        # values as the fields produced them before the elastic load and
        # the solve moved into the shared load core; re-recorded for the
        # body-frame solve turned to theta, which moved them by at most
        # 9.3e-16 of each field's largest entry
        system = control_vector_fields(CANON)
        x = np.array([0.1, -0.2, 0.3, 0.4, -0.5])
        assert system.f0(x).tolist() == [
            0.05565088179188772, -0.47344608014859224, -0.5550658171056578,
            -0.058441304758307805, 2.5998317126304222]
        assert system.fx(x).tolist() == [
            0.19995740597905357, -0.37528262348335795, -0.08885546458184493,
            -1.1177533660892092, 1.0367924595871028]
        assert system.fy(x).tolist() == [
            -0.42420584020471075, -0.26871801339754897, -0.7219105166185484,
            2.0870764656559144, 3.678653084054801]

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
        solve = system.f0.fn.func.__self__
        for theta in np.linspace(-1.0, 1.0, 1000):
            x = np.array([0.0, 0.0, theta, 0.1, -0.2])
            system.fy(x)
            assert solve._fields.shape == (3, 5)
        assert solve._key == ((5,), x[2:].tobytes())

    def test_memo_of_stacks_stays_bounded(self):
        # the bound is one stack, so stacks cannot outgrow it either
        system = control_vector_fields(CANON)
        solve = system.f0.fn.func.__self__
        states = np.zeros((49, 5))
        for theta in np.linspace(-1.0, 1.0, 40):
            states[:, 2] = theta + np.arange(49) * 1e-3
            system.fx(states)
            assert solve._fields.shape == (49, 3, 5)
        assert solve._key == ((49, 5), states[:, 2:].tobytes())

    def test_stack_matches_each_state(self, monkeypatch):
        # a stack of states gives each state's field bit for bit, signed
        # zeros included, and the three fields on one stack assemble each
        # of its 12 poses once, the one that recurs included; the straight
        # poses at heading +0.0 and -0.0 sit among turned headings
        calls = TestSharedSolve._count_assemblies(monkeypatch)
        rng = np.random.default_rng(8)
        states = rng.uniform(-1.0, 1.0, size=(4, 3, 5))
        states[0, 0, 2:] = states[1, 2, 2:]
        states[2, 1, 2:] = [-0.0, 0.0, -0.0]
        states[3, 2, 2:] = [0.0, 0.0, 0.0]
        system = control_vector_fields(CANON)
        stacked = [field(states) for field in system.generators()]
        assert len(calls) == 12
        for field, out in zip(system.generators(), stacked):
            assert out.shape == (4, 3, 5)
            for index in np.ndindex(4, 3):
                assert out[index].tobytes() == field(states[index]).tobytes()
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("angle", [2, 3, 4])
    def test_rejects_non_finite_angles_at_the_last_pose(self, value, angle):
        states = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, 2, 5))
        states[1, 1, angle] = value
        for field in control_vector_fields(CANON).generators():
            with pytest.raises(ValueError, match="angles must be finite"):
                field(states)

    def test_fields_handed_out_outlive_the_next_stack(self):
        # each field returns a copy, not a view of the held solve: what it
        # returned for one stack is unchanged after a call on another
        system = control_vector_fields(CANON)
        solve = system.f0.fn.func.__self__
        a = np.array([self.A, self.B])
        b = np.array([self.B, self.A, self.B])
        outs = [field(a) for field in system.generators()]
        kept = [self.bits(out) for out in outs]
        for field in system.generators():
            assert not np.shares_memory(field(b), solve._fields)
        assert [self.bits(out) for out in outs] == kept == self.fresh(a)
        assert not any(np.shares_memory(out, solve._fields) for out in outs)

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

    @pytest.mark.parametrize("moment", [0.0, 5e-324])
    def test_zero_moment_is_refused(self, moment):
        # with M = 0 fx and fy vanish, and at 5e-324 [fx, fy] underflows:
        # the residuals would divide by zero, so no report is made
        params = dataclasses.replace(CANON, M=moment)
        with pytest.raises(ValueError) as info:
            equilibrium_identities(params, 0.3)
        assert str(info.value) == (
            f"[fx, fy] has zero norm at theta = 0.3 (M = {moment!r}): the "
            "field cannot steer this swimmer")

    def test_tiny_bracket_keeps_its_norm(self):
        # [fx, fy] scales with M^2 by powers of two, exactly; at 2^-664
        # its squares underflow, yet its norm is measured, not zero
        tiny = dataclasses.replace(CANON, M=2.0 ** -332)
        norm = equilibrium_identities(tiny, 0.3).bracket_norm
        one = equilibrium_identities(CANON, 0.3).bracket_norm
        assert norm == pytest.approx(2.0 ** -664 * one, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_theta(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            equilibrium_identities(CANON, theta)

    def test_report_is_frozen(self):
        # exact bits, recorded with the exact theta derivative and
        # re-recorded for the norms read in the body frame: the bracket
        # norms moved by 1.2e-10 relative (the difference error of
        # BASE_STEP), fy_norm by one ulp, and the two rounding residuals
        # fell, the alignment from 1.4e-16 to 2.4e-17 and the corrected gap
        # from 5.1e-9 to 3.7e-11
        report = equilibrium_identities(CANON, 0.3)
        assert {k: float(v).hex() for k, v in vars(report).items()} == {
            "theta": "0x1.3333333333333p-2",
            "alignment_residual": "0x1.b42478dad1486p-56",
            "claimed_gap": "0x1.769d1bedc1947p+5",
            "corrected_gap": "0x1.46f9efca903b8p-35",
            "fy_norm": "0x1.50210dd42d429p+2",
            "bracket_norm": "0x1.43bab173e6a3dp+5",
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


# exact bits of (singular_values, rank, gap_4_5), recorded when the rank
# moved to the body frame with an exact theta derivative
FROZEN_POSES = {
    "straight": [0.4, -0.3, 0.3, 0.0, 0.0],
    "bent": [0.0, 0.0, 0.2, 0.4, -0.3],
    "signed_zero": [0.0, 0.0, -0.0, 0.25, -0.15],
}
FROZEN_RANKS = {
    ("straight", 1): (
        ["0x1.5fd7fc2fd7d4ep+2", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0"], 1, "nan"),
    ("straight", 2): (
        ["0x1.a887d25e6d61ep+6", "0x1.23314de4a4720p+1",
         "0x1.f410787af595cp-2", "0x1.294dfb74fd3b6p-53",
         "0x0.0p+0"], 3, "inf"),
    ("straight", 3): (
        ["0x1.e954072b1463cp+10", "0x1.24fee9b150b4cp+5",
         "0x1.3718310fbdb75p+1", "0x1.01a219d6ad32cp+0",
         "0x1.790ac1ddfe69cp-27"], 4, "0x1.5dd9a273d05b4p+26"),
    ("bent", 1): (
        ["0x1.2ead5d355ee05p+2", "0x1.05db4cf73476cp+1",
         "0x1.6f37d64af9c07p-4", "0x0.0p+0", "0x0.0p+0"], 3, "nan"),
    ("bent", 2): (
        ["0x1.5dad1339e8b0bp+6", "0x1.6340e83d15a2ep+1",
         "0x1.b1225cb5cf785p-1", "0x1.bf11cc72b3b8ep-5",
         "0x1.f32c86e8938b8p-8"], 5, "0x1.ca8e89df6bf27p+2"),
    ("bent", 3): (
        ["0x1.85d01a15a0fbfp+10", "0x1.4b7ca0c841297p+5",
         "0x1.b48c2145dbc5ap+3", "0x1.5bc296d3e239ep+1",
         "0x1.28defeb8088f9p+0"], 5, "0x1.2be20c786524cp+1"),
    ("signed_zero", 1): (
        ["0x1.51848b1a4a07ep+2", "0x1.4addce0da2897p+0",
         "0x1.2c49e04fa1effp-4", "0x0.0p+0", "0x0.0p+0"], 3, "nan"),
    ("signed_zero", 2): (
        ["0x1.8e6c5933e3f02p+6", "0x1.3ccca1d3e645bp+1",
         "0x1.5443a8ad3f6c2p-1", "0x1.3fd7a4da16665p-5",
         "0x1.18f0bf21c0139p-11"], 5, "0x1.2372cc763ea70p+6"),
    ("signed_zero", 3): (
        ["0x1.c5fc90fc2a1c8p+10", "0x1.49fc6625734a3p+5",
         "0x1.33654f6a71634p+3", "0x1.f64cd8376bb2bp+0",
         "0x1.6fb2ccbdf361dp-1"], 5, "0x1.5db67920ff542p+1"),
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
            calls.append(args[-2:])
            return assemble(*args)
        monkeypatch.setattr(magswim.dynamics, "_assemble", counted)
        return calls

    @pytest.mark.parametrize("depth, assemblies", [(1, 1), (2, 5), (3, 25)])
    def test_one_assembly_per_stencil_pose(self, monkeypatch, depth,
                                           assemblies):
        calls = self._count_assemblies(monkeypatch)
        lie_rank(CANON, np.array([0.1, -0.2, 0.3, 0.2, -0.1]), depth=depth)
        assert len(calls) == assemblies

    def test_one_batched_solve_per_call(self, monkeypatch):
        # every stencil pose is assembled once and all of them are solved
        # by one batched np.linalg.solve: 25 poses at depth 3, the point
        # and its four BASE_STEP neighbours in the identities, which then
        # solve once more for the corrected formula
        solves = []
        solve = np.linalg.solve

        def counted(a, b):
            solves.append(a.shape)
            return solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", counted)
        assemblies = self._count_assemblies(monkeypatch)
        lie_rank(CANON, np.array([0.1, -0.2, 0.3, 0.2, -0.1]), depth=3)
        assert (len(assemblies), solves) == (25, [(25, 5, 5)])
        del assemblies[:], solves[:]
        equilibrium_identities(CANON, 0.3)
        assert (len(assemblies), solves) == (5, [(5, 5, 5), (5, 5)])

    @pytest.mark.parametrize("depth, poses", [(1, 1), (2, 5), (3, 25)])
    def test_rank_evaluates_each_generator_once_on_the_stencil(
            self, monkeypatch, depth, poses):
        # lie_rank reads the generators of control_vector_fields, once
        # each, on the stack of its stencil states
        shapes = []
        fields = magswim.brackets.control_vector_fields

        def recorded(params):
            system = fields(params)
            return ControlSystem(*(
                VectorField(lambda x, f=f: shapes.append(x.shape) or f(x))
                for f in system.generators()))
        monkeypatch.setattr(magswim.brackets, "control_vector_fields",
                            recorded)
        lie_rank(CANON, np.array([0.1, -0.2, 0.3, 0.2, -0.1]), depth=depth)
        assert shapes == [(poses, 5)] * 3

    def test_signed_zero_poses_are_kept_apart(self, monkeypatch):
        # -0.0 + 0.0 is 0.0, so at alpha2 = -0.0 the stencil poses that move
        # alpha3 carry alpha2 = +0.0 on their + side and -0.0 on their -
        # side; each of the 25 stencil poses keeps its own signed zeros, and
        # none of them carries the heading
        calls = self._count_assemblies(monkeypatch)
        lie_rank(CANON, np.array([0.0, 0.0, 0.4, -0.0, 0.2]), depth=3)
        assert len(calls) == 25
        signs = [math.copysign(1.0, a2) for a2, _ in calls if a2 == 0.0]
        assert (signs.count(1.0), signs.count(-1.0)) == (5, 4)

    def test_collapsed_steps_assemble_each_pose_once(self, monkeypatch):
        # at theta = 1e300 a theta step would round away and leave the
        # bent pose at rank 3; the stencil takes no theta step, so its 25
        # poses are those of the body frame, each assembled once, and the
        # pose reads rank 5 like every bent pose
        calls = self._count_assemblies(monkeypatch)
        report = lie_rank(CANON, np.array([0.0, 0.0, 1e300, -0.0, 0.2]),
                          depth=3)
        assert len(calls) == 25
        assert [v.hex() for v in report.singular_values.tolist()] == [
            "0x1.d7189a3a73512p+10", "0x1.2c97203ad8944p+5",
            "0x1.46043d3a31aafp+3", "0x1.8aa81b2c16b45p+0",
            "0x1.43a66531038dcp-2"]
        assert (report.rank, float(report.gap_4_5).hex()) == (
            5, "0x1.382a2b2504f8cp+2")

    def test_field_memo_keeps_signed_zeros_apart(self, monkeypatch):
        # the solve of control_vector_fields is keyed on bytes: theta =
        # -0.0 and theta = 0.0 are two states, and as only the last one is
        # held, each turn assembles the body pose once for the three fields
        calls = self._count_assemblies(monkeypatch)
        system = control_vector_fields(CANON)
        for theta in (-0.0, 0.0, -0.0, 0.0):
            for field in system.generators():
                field(np.array([0.0, 0.0, theta, 0.25, -0.15]))
        assert calls == [(0.25, -0.15)] * 4

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_exactly_singular_matrix_raises(self, monkeypatch, depth):
        assemble = magswim.dynamics._assemble

        def singular(*args):
            drag, elastic, Mx, My = assemble(*args)
            # the last row of Mh zeroed
            return drag[:20] + (0.0,) * 5, elastic, Mx, My
        monkeypatch.setattr(magswim.dynamics, "_assemble", singular)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            lie_rank(CANON, np.array([0.1, -0.2, 0.3, 0.2, -0.1]),
                     depth=depth)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            equilibrium_identities(CANON, 0.3)

    @pytest.mark.parametrize("point", [
        [0.0, 0.0, -0.0, -0.0, -0.0],
        [1e308, -1e308, 0.3, 0.2, -0.1],
        # a large spring load whose depth-3 products stay below overflow;
        # 1e300 overflows, see test_overflowing_words_raise
        [0.0, 0.0, 1e100, -1e100, 5e-324],
        [0.0, 0.0, 40.0, -25.0, 3.0]])
    def test_finite_points_do_not_trip_the_solve_error_state(self, point):
        # only the batched solve runs under the error state that turns an
        # invalid flag into LinAlgError; no finite pose sets that flag
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = lie_rank(CANON, np.array(point), depth=3)
        assert np.all(np.isfinite(report.singular_values))

    def test_overflowing_words_raise(self):
        # the spring load of alpha2 = -1e300 makes f0 about 3e300, and the
        # depth-3 products of its exact theta column overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                lie_rank(CANON, np.array([0.0, 0.0, 1e300, -1e300, 5e-324]),
                         depth=3)


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


class TestSolvePoses:
    """The one-table ``_solve_poses`` against the two ``np.array``
    conversions of ``oracles.solve_poses``: ``Mh`` and ``F`` byte for byte,
    with the same shapes and strides, on 1, 5 and 25 poses around seeded
    and signed-zero points and a heading of 1e300."""

    POINTS = ([pose for seed in (1, 2, 3) for pose in seeded_poses(seed)]
              + SIGNED_ZERO_POSES
              + [[0.0, 0.0, 1e300, a2, a3]
                 for a2, a3 in ((0.0, -0.0), (-0.0, 0.2), (0.3, -0.1))])

    @staticmethod
    def poses(point, n):
        centres = [tuple(point[3:])]
        if n == 25:
            centres = _stencil(centres, NESTED_STEP)
        return _stencil(centres, BASE_STEP) if n > 1 else centres

    @staticmethod
    def layout(a):
        return a.tobytes(), a.shape, a.strides, a.flags.c_contiguous

    @pytest.mark.parametrize("n", [1, 5, 25])
    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_matches_the_np_array_construction(self, n, seed):
        params = CANON if seed is None else seeded_swimmer(seed)
        loads = _load_core(params)
        for point in self.POINTS:
            poses = self.poses(point, n)
            assert len(poses) == n
            got, want = _solve_poses(loads, poses), solve_poses(loads, poses)
            assert [self.layout(a) for a in got] == [
                self.layout(a) for a in want], point

    @pytest.mark.parametrize("n", [1, 5, 25])
    def test_zeroed_row_is_singular(self, n):
        loads = _load_core(CANON)

        def singular(*pose):
            drag, elastic, Mx, My = loads(*pose)
            # the last row of Mh zeroed at the last pose only
            if pose == poses[-1]:
                drag = drag[:20] + (0.0,) * 5
            return drag, elastic, Mx, My
        poses = self.poses([0.1, -0.2, 0.3, 0.2, -0.1], n)
        for solve in (_solve_poses, solve_poses):
            with pytest.raises(np.linalg.LinAlgError,
                               match="^Singular matrix$"):
                solve(singular, poses)


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
    """Rank reports and identities as the body-frame stencil with an exact
    theta derivative produced them: 40 seeded poses over five swimmers
    and six poses with signed-zero angles, at every depth."""

    RANKS = {
        (1, 1): "14b7ed81e8fdf8910dd3d499237caf300e8ddbc93966502b9735a7f0a7ab29f9",
        (1, 2): "812e7231151af526766db348220173f9bb84836bc4a897232c729579580f5b17",
        (1, 3): "3f45a785fb5893933db3ff71de4b0287f77d3ad6870e271a5ca00734e87cf9af",
        (2, 1): "937e79853b64e7d420ae1dbecaa197434061bbdd12ac81940c2ea56887e2dfc2",
        (2, 2): "0b3209eccc964f3f89d4c273958496a7cf7d5f481d0815a89fa35ce722304f30",
        (2, 3): "151ca8e6941636878d53e6d01508a905db64e82c04727ed54398c7b2b529b1a8",
        (3, 1): "61d63b86c4040706aa6d6ab3b1878bc225dd7bbc14c2934c645403d69efdddd2",
        (3, 2): "6f209a8875618e75a76b62d5a4961ca049543b7df1776691d6ed310f62e93a30",
        (3, 3): "aaa038fa2f000cd5a4b682592e35824a02d0cf893cd1463bcebe8c42cefe8346",
        (4, 1): "7f7151ea070ada2bd7000353ccfb1bca33c7ffdc07166796f8ef219177075ce9",
        (4, 2): "080dea45f9f1f3274a70fc3f0a7c9be315ec8987cf01227174e0834ce707b95d",
        (4, 3): "859e907553e56c2cc2601d888c4c92dc69cb0db0e098155ba396825625d74ad6",
        (5, 1): "6b250c87271aebc67924caabcc58f3ba12bbea016097d02eaa8f3f4744aaff66",
        (5, 2): "943936653bc3f7c61456be805c0f33e73c8b43dc202b0f9eb68f91d9bb7b1694",
        (5, 3): "72ee8fcc7e0e039ea89daeab2b6c52ea74096436b7623dadf9f7e381e9c32ef9",
    }
    SIGNED_ZERO_RANKS = {
        1: "3e03598bc117552a0c247b17ee735a4105b32171decf445f927ea77ca1578b9c",
        2: "4df2ae058eb2885622f64ab6eb4e0b2dcd40943ee266ea7c12d2021f069c3fba",
        3: "0a61be10f2f3b375a7500a1a07dea04c811a3e178a553e2ebba40e4d55f311f2",
    }
    # the identities re-recorded for the norms read in the body frame:
    # claimed_gap and bracket_norm moved by at most 2.8e-10 relative
    # (BASE_STEP's difference error), fy_norm by 2.8e-15; the rounding
    # residuals fell (alignment from at most 5.5e-16 to 1.5e-16, the
    # corrected gap over the bracket from 2.9e-10 to 8.9e-13)
    IDENTITIES = {
        1: "defc620214fc181c8a4d0b430ce2f8f350b964ecea29a018d53fb99323ac9899",
        2: "bb7dab6e600986fc5a72a86910e89ff68337b1175a8d674cd2eb33b3186c3bac",
        3: "ab0e4b165a26e7a0d68a6b2d1e34f24ee584315d412e3a595af0e5cca051a50f",
        4: "a3f99032a7779d55227e77bba7b2a26c3caa14771d385ce6040824e7a9d49850",
        5: "e8ed50f6eba6d83e4d2868f3063c4ec8878c5ceab352b417f8196851495a265e",
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
        # headings -0.0 and 0.0 kept their bits in the body frame; 0.3 and
        # -0.3 were re-recorded as the seeded identities were
        assert identities_digest(CANON, [-0.0, 0.0, 0.3, -0.3]) == (
            "5e0443a09efa9b660d2549ddd077ac7aa22cece594b475040dad528159c16e00")


def generators_at(system, x):
    """f0, fx, fy at the (..., 5) states ``x``: (..., 3, 5)."""
    return np.stack([f(x) for f in system.generators()], axis=-2)


def second_words_at(system, x):
    """[f0,fx], [f0,fy], [fx,fy] at the state ``x`` (3, 5), differenced
    over the joint angles as ``lie_rank`` does."""
    return _stencil_words(generators_at(system, with_neighbours(x[None])),
                          1, BASE_STEP, 1, 2, _SECOND)[0]


def theta_column(rows, u, w):
    """The exact theta-derivative of the (3, 5) fields ``rows``, whose pair
    (u, w) turns with the field: the theta column ``_jacobians`` writes."""
    same = np.stack([rows, rows])
    return _jacobians(rows, same, same, 1.0, u, w)[..., 2]


class TestExactHeading:
    """The theta column of every Jacobian is exact, from the rotation of
    the plane and of the field; central differences over theta at h =
    1e-5 agree with it to their roundoff, which on these 40 poses
    measured 2.2e-10 of the largest generator entry and 2.7e-5 of the
    largest depth-2 word (that word carries BASE_STEP difference noise)."""

    H = 1e-5

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_generators(self, seed):
        system = control_vector_fields(seeded_swimmer(seed))
        step = self.H * np.eye(5)[2]
        for pose in seeded_poses(seed):
            x = np.array(pose)
            rows = generators_at(system, x)
            central = (generators_at(system, x + step)
                       - generators_at(system, x - step)) / (2 * self.H)
            assert np.max(np.abs(theta_column(rows, 1, 2) - central)) <= (
                2e-9 * np.max(np.abs(rows)))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_depth_two_words(self, seed):
        system = control_vector_fields(seeded_swimmer(seed))
        step = self.H * np.eye(5)[2]
        for pose in seeded_poses(seed):
            x = np.array(pose)
            words = second_words_at(system, x)
            central = (second_words_at(system, x + step)
                       - second_words_at(system, x - step)) / (2 * self.H)
            assert np.max(np.abs(theta_column(words, 0, 1) - central)) <= (
                3e-4 * np.max(np.abs(words)))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("shape", [
        [0.4, -0.3, 0.0, 0.0], [-0.7, 0.2, 0.35, -0.25]],
        ids=["straight", "bent"])
    def test_report_does_not_depend_on_theta(self, shape, depth):
        x, y, a2, a3 = shape
        reports = [lie_rank(CANON, np.array([x, y, theta, a2, a3]),
                            depth=depth)
                   for theta in (-0.0, 0.0, 0.7, -2.1, 1e300)]
        assert len({(tuple(v.hex() for v in r.singular_values.tolist()),
                     r.rank, float(r.gap_4_5).hex()) for r in reports}) == 1

    def test_straight_poses_read_rank_four(self):
        # one straight pose on each of 240 seeded swimmers, at the
        # thresholds of the controllability command; a difference over
        # theta read rank 5 at some of them
        for seed in range(1, 241):
            rng = random.Random(2000 + seed)
            point = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                              rng.uniform(-1.2, 1.2), 0.0, 0.0])
            report = lie_rank(seeded_swimmer(seed), point, depth=3)
            assert (report.rank, report.gap_4_5 >= 1e4) == (4, True), seed


def hexes(poses):
    """Each pose, or each row of fields, as the hex strings of its floats."""
    return [tuple(float(v).hex() for v in pose) for pose in poses]


class TestStencil:
    """The Python-float stencil against the numpy construction of
    ``oracles.with_neighbours``: the same poses in the same order, signed
    zeros included, and the one word of the identities against the
    depth-2 words of the rank."""

    POINTS = ([pose for seed in (1, 2, 3) for pose in seeded_poses(seed)]
              + SIGNED_ZERO_POSES
              + [[0.0, 0.0, theta, a2, a3] for theta in (-0.0, 0.0, 1e300)
                 for a2, a3 in ((0.0, -0.0), (-0.0, 0.2), (0.3, -0.1))])
    THETAS = [-0.0, 0.0, 1e300, 0.3, -0.3] + [
        pose[2] for seed in (1, 2, 3, 4, 5) for pose in seeded_poses(seed)]

    @staticmethod
    def rank_poses(point, depth):
        centres = np.array([[0.0, 0.0, 0.0, point[3], point[4]]])
        if depth == 3:
            centres = np.concatenate([centres,
                                      shifted(centres[0], NESTED_STEP)])
        states = with_neighbours(centres) if depth >= 2 else centres
        return hexes(states[:, 3:].tolist())

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_rank_assembles_the_oracle_poses(self, monkeypatch, depth):
        calls = TestSharedSolve._count_assemblies(monkeypatch)
        for point in self.POINTS:
            del calls[:]
            lie_rank(CANON, np.array(point), depth=depth)
            assert hexes(calls) == self.rank_poses(point, depth), point

    def test_identities_assemble_the_oracle_poses(self, monkeypatch):
        # the straight body pose and its neighbours, at every heading
        calls = TestSharedSolve._count_assemblies(monkeypatch)
        states = with_neighbours(np.zeros((1, 5)))
        for theta in self.THETAS:
            del calls[:]
            equilibrium_identities(CANON, theta)
            assert hexes(calls) == hexes(states[:, 3:].tolist()), theta

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
    def test_identity_word_is_the_rank_word(self, monkeypatch, seed):
        # the frozen identity thetas: those of the signed-zero digest on
        # CANON, and every other seeded pose's on its seeded swimmer
        if seed is None:
            params, thetas = CANON, [-0.0, 0.0, 0.3, -0.3]
        else:
            params = seeded_swimmer(seed)
            thetas = [pose[2] for pose in seeded_poses(seed)[::2]]
        words = []
        brackets = magswim.brackets._words
        monkeypatch.setattr(magswim.brackets, "_words",
                            lambda *args: words.append(brackets(*args))
                            or words[-1])
        # the identities read [fx, fy] in the body frame at every heading:
        # the word of the straight body pose that lie_rank reads
        rank_word = second_words_at(control_vector_fields(params),
                                    np.zeros(5))[2]
        for theta in thetas:
            del words[:]
            equilibrium_identities(params, theta)
            # the one word at the one centre
            [[word]] = words
            assert hexes(word) == hexes([rank_word]), theta
