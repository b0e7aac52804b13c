"""Control fields, Lie bracket machinery, and accessibility rank."""
from dataclasses import replace

import numpy as np
import pytest

import magswim.dynamics
from magswim import Configuration, SwimmerParams
from magswim.brackets import (
    _MEMO_LIMIT,
    VectorField,
    control_vector_fields,
    equilibrium_identities,
    field_jacobian,
    lie_bracket,
    lie_bracket_field,
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
        system = control_vector_fields(CANON)
        memo = system.f0.fn.__self__.memo
        largest = 0
        for theta in np.linspace(-1.0, 1.0, 1000):
            system.fy(np.array([0.0, 0.0, theta, 0.1, -0.2]))
            largest = max(largest, len(memo))
        assert largest == _MEMO_LIMIT

    def test_fields_ignore_position(self):
        system = control_vector_fields(CANON)
        a = np.array([0.0, 0.0, 0.3, 0.2, -0.1])
        b = a + np.array([5.0, -7.0, 0.0, 0.0, 0.0])
        for field in system.generators():
            np.testing.assert_array_equal(field(a), field(b))


class TestBracketMachinery:
    def test_linear_fields_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        fa = VectorField(lambda z: a @ z, "A")
        fb = VectorField(lambda z: b @ z, "B")
        z = rng.normal(size=5)
        exact = (b @ a - a @ b) @ z
        np.testing.assert_allclose(lie_bracket(fa, fb, z), exact, atol=1e-8)

    def test_quadratic_fields_oracle(self):
        # f = (z1^2, 0, ...), g = (0, z0, ...):
        # [f, g] = (-2 z1 z0, z1^2, 0, 0, 0); central differences are
        # exact for quadratics, so only roundoff remains
        f = VectorField(lambda z: np.array([z[1] ** 2, 0, 0, 0, 0.0]), "f")
        g = VectorField(lambda z: np.array([0, z[0], 0, 0, 0.0]), "g")
        z = np.array([0.7, -0.4, 0.0, 0.0, 0.0])
        exact = np.array([-2 * z[1] * z[0], z[1] ** 2, 0, 0, 0.0])
        np.testing.assert_allclose(lie_bracket(f, g, z), exact, atol=1e-9)

    def test_constant_fields_commute(self):
        f = VectorField(lambda z: np.array([1.0, 2.0, 3.0, 4.0, 5.0]), "f")
        g = VectorField(lambda z: np.array([-1.0, 0.5, 0.0, 2.0, 1.0]), "g")
        assert np.all(lie_bracket(f, g, np.zeros(5)) == 0.0)

    def test_antisymmetry_is_exact(self):
        system = control_vector_fields(CANON)
        x = np.array([0.0, 0.0, 0.2, 0.3, -0.1])
        fwd = lie_bracket(system.fx, system.fy, x)
        rev = lie_bracket(system.fy, system.fx, x)
        np.testing.assert_array_equal(fwd, -rev)

    def test_self_bracket_vanishes(self):
        system = control_vector_fields(CANON)
        x = np.array([0.0, 0.0, 0.2, 0.3, -0.1])
        assert np.all(lie_bracket(system.fy, system.fy, x) == 0.0)

    def test_jacobian_of_linear_field(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        fa = VectorField(lambda z: a @ z, "A")
        np.testing.assert_allclose(
            field_jacobian(fa, np.ones(5)), a, atol=1e-9)

    def test_bracket_field_label(self):
        system = control_vector_fields(CANON)
        w = lie_bracket_field(system.f0, system.fx)
        assert w.label == "[f0,fx]"


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

    def test_generator_jacobians_skip_position(self, monkeypatch):
        # the generators ignore x and y, so their Jacobians difference the
        # three angles only: 759 -> 747 field calls at depth 3 and 24 -> 14
        # in the identities, with the assemblies unchanged
        calls = []
        fields = magswim.brackets.control_vector_fields

        def counting(fn):
            def call(x):
                calls.append(1)
                return fn(x)
            return call

        def counted(params):
            system = fields(params)
            return replace(system, **{
                key: replace(f, fn=counting(f.fn))
                for key, f in (("f0", system.f0), ("fx", system.fx),
                               ("fy", system.fy))})
        monkeypatch.setattr(magswim.brackets, "control_vector_fields", counted)
        assemblies = self._count_assemblies(monkeypatch)
        lie_rank(CANON, np.array([0.1, -0.2, 0.3, 0.2, -0.1]), depth=3)
        assert (len(calls), len(assemblies)) == (747, 49)
        del calls[:]
        equilibrium_identities(CANON, 0.3)
        assert len(calls) == 14

    def test_signed_zero_poses_are_kept_apart(self, monkeypatch):
        # -0.0 + 0.0 is 0.0, so five stencil poses at theta = -0.0 have a
        # twin that differs only in the sign of theta's zero
        calls = self._count_assemblies(monkeypatch)
        lie_rank(CANON, np.array(FROZEN_POSES["signed_zero"]), depth=3)
        assert len(calls) == 54
