"""Grand resistance assembly against independent oracles.

The production assembly uses exact moment integrals of the drag density.
The oracle here knows nothing about that: it takes material-point positions
from segment_frames (tests/oracles.py), differentiates them numerically to
get velocities per unit generalized rate, and integrates force and torque
densities by Simpson quadrature (exact for these polynomial integrands up to
finite-difference noise).  Agreement pins the assembly conventions, not just
its algebra.
"""
import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import magswim
from magswim import (
    Configuration,
    ConstantField,
    IntegrationError,
    SwimmerParams,
    apply_R_transform,
    control_vector_fields,
    make_rate_function,
)
from magswim.dynamics import _load_core, _resistance
from magswim.simulate import integrate
from oracles import (loop_assemble, resistance, segment_frames,
                     two_call_rate, velocity)

CANON = SwimmerParams(1.0, (1.2, 0.8, 0.8), (3.0, 1.5, 1.5), 1.0, 1.0)

angles = st.floats(-2.5, 2.5)
thetas = st.floats(-6.0, 6.0)
drags = st.floats(0.2, 5.0)
moduli = st.floats(0.0, 3.0)


def param_sets():
    return st.builds(
        SwimmerParams,
        L=st.floats(0.3, 3.0),
        xi=st.tuples(drags, drags, drags),
        eta=st.tuples(drags, drags, drags),
        K=moduli,
        M=moduli,
    )


# Simpson nodes/weights on [0, 1]; the torque density is quadratic in the
# arclength parameter so five nodes are already exact
_SIMP_S = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_SIMP_W = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 12.0


def _segment_points(q, params, i, svals):
    fr = segment_frames(Configuration.from_array(q), params)
    return fr.endpoints[i][None, :] + np.outer(svals * params.L, fr.tangents[i])


def quadrature_resistance(config, params, h=1e-6):
    """Rebuild Mh from finite-difference kinematics and quadrature."""
    q0 = config.as_array()
    fr = segment_frames(config, params)
    L = params.L
    refs = fr.endpoints[:3]
    subsets = ((0, 1, 2), (1, 2), (2,))
    mh = np.zeros((5, 5))
    for j in range(5):
        dq = np.zeros(5)
        dq[j] = h
        force = np.zeros(2)
        torques = np.zeros(3)
        for i in range(3):
            pts = _segment_points(q0, params, i, _SIMP_S)
            vel = (_segment_points(q0 + dq, params, i, _SIMP_S)
                   - _segment_points(q0 - dq, params, i, _SIMP_S)) / (2 * h)
            vt = vel @ fr.tangents[i]
            vn = vel @ fr.normals[i]
            dens = (-params.xi[i] * np.outer(vt, fr.tangents[i])
                    - params.eta[i] * np.outer(vn, fr.normals[i]))
            force += L * _SIMP_W @ dens
            for r, subset in enumerate(subsets):
                if i in subset:
                    arm = pts - refs[r]
                    tau = arm[:, 0] * dens[:, 1] - arm[:, 1] * dens[:, 0]
                    torques[r] += L * _SIMP_W @ tau
        mh[0, j] = -force[0]
        mh[1, j] = -force[1]
        mh[2:, j] = -torques
    return mh


class TestFrozenProbes:
    """Regression values computed by an independent prototype implementation."""

    def test_resistance_probe(self):
        Mh = resistance(CANON, (0.3, 0.2, -0.1))
        expected = np.array([
            [3.302489111599277, -1.091245171823397, 0.9829355193179109,
             0.7191383079063045, -0.14900199809629588],
            [-1.091245171823397, 5.497510888400724, -1.2051619971436565,
             -1.3163738428355594, 0.7350499333809313],
            [-2.5672491332752023, 6.929757371444927, 2.697067726732488,
             -0.5000000000000002, 1.9627554908027238],
            [-0.7454320865792309, 2.898440720566892, 2.4908913370599963,
             0.0, 1.2462531239585193],
            [-0.14900199809629588, 0.7350499333809313, 0.8731265619792596,
             0.0, 0.5],
        ])
        np.testing.assert_allclose(Mh, expected, rtol=1e-12, atol=1e-14)

    def test_coupling_probe(self):
        _, Mx, My = loop_assemble(CANON, 0.3, 0.2, -0.1)
        np.testing.assert_allclose(
            Mx,
            [0.0, 0.0, 0.9736150760606038, 0.4941895374564007,
             0.1986693307950612], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            My,
            [0.0, 0.0, -2.8129856288572204, -1.9354030669668476,
             -0.9800665778412416], rtol=1e-12, atol=1e-15)


class TestStraightConfig:
    def test_translation_drags(self):
        Mh = resistance(CANON, (0.0, 0.0, 0.0))
        assert Mh[0, 0] == pytest.approx(sum(CANON.xi) * CANON.L)
        assert Mh[1, 1] == pytest.approx(sum(CANON.eta) * CANON.L)
        assert Mh[0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_torque_row_under_sideways_translation(self):
        # uniform eta: torque about A1 under unit ydot is 4.5 eta L^2
        p = SwimmerParams.uniform(1.3, 1.0, 2.0, 1.0, 1.0)
        Mh = resistance(p, (0.0, 0.0, 0.0))
        assert Mh[2, 1] == pytest.approx(4.5 * 2.0 * 1.3 ** 2)

    def test_coupling_patterns(self):
        _, _, Mx, My = _load_core(CANON)(0.0, 0.0)
        np.testing.assert_allclose(Mx, np.zeros(5), atol=1e-15)
        np.testing.assert_allclose(My, [0, 0, -3.0, -2.0, -1.0], atol=1e-15)

    def test_rhs_vanishes_in_axial_field(self):
        v = velocity(Configuration.straight(), (2.0, 0.0), CANON)
        np.testing.assert_allclose(v, np.zeros(5), atol=1e-14)


class TestQuadratureOracle:
    @given(theta=thetas, a2=angles, a3=angles, params=param_sets())
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:eta_i < xi_i")
    def test_matches_assembly(self, theta, a2, a3, params):
        c = Configuration(0.0, 0.0, theta, a2, a3)
        Mh = resistance(params, (theta, a2, a3))
        mh_q = quadrature_resistance(c, params)
        assert np.max(np.abs(Mh - mh_q)) < 1e-7 * np.max(np.abs(Mh))

    def test_matches_assembly_off_origin(self):
        c = Configuration(1.7, -2.2, 0.9, -0.4, 1.1)
        Mh = resistance(CANON, (c.theta, c.alpha2, c.alpha3))
        mh_q = quadrature_resistance(c, CANON)
        assert np.max(np.abs(Mh - mh_q)) < 1e-7 * np.max(np.abs(Mh))


class TestInvariances:
    @given(x=st.floats(-4, 4), y=st.floats(-4, 4), theta=thetas,
           a2=angles, a3=angles, hx=st.floats(-2, 2), hy=st.floats(-2, 2))
    @settings(max_examples=40)
    def test_translation_invariance(self, x, y, theta, a2, a3, hx, hy):
        here = Configuration(x, y, theta, a2, a3)
        origin = Configuration(0.0, 0.0, theta, a2, a3)
        np.testing.assert_array_equal(velocity(here, (hx, hy), CANON),
                                      velocity(origin, (hx, hy), CANON))

    @given(theta=thetas, a2=angles, a3=angles, phi=thetas,
           hx=st.floats(-2, 2), hy=st.floats(-2, 2))
    @settings(max_examples=40)
    def test_rotation_equivariance_of_rhs(self, theta, a2, a3, phi, hx, hy):
        """Rotating configuration and field rotates the velocity."""
        c = Configuration(0.0, 0.0, theta, a2, a3)
        cr = Configuration(0.0, 0.0, theta + phi, a2, a3)
        R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        h_rot = tuple(R @ [hx, hy])
        v = velocity(c, (hx, hy), CANON)
        vr = velocity(cr, h_rot, CANON)
        expect = np.concatenate([R @ v[:2], v[2:]])
        assert np.max(np.abs(vr - expect)) < 1e-10 * max(1.0, np.max(np.abs(v)))

    @given(x=st.floats(-2, 2), y=st.floats(-2, 2), theta=thetas,
           a2=angles, a3=angles, hx=st.floats(-2, 2), hy=st.floats(-2, 2))
    @settings(max_examples=40)
    def test_R_equivariance_palindromic(self, x, y, theta, a2, a3, hx, hy):
        """Point symmetry: needs link 1 and link 3 to share coefficients.

        The transform composes a pi-rotation with an end-to-end relabel;
        the rotation negates both the field and the link moments, and the
        two sign flips cancel, so the conjugated velocity uses the same
        field.
        """
        p = SwimmerParams(1.1, (1.2, 0.8, 1.2), (3.0, 1.5, 3.0), 0.9, 1.1)
        c = Configuration(x, y, theta, a2, a3)
        rc, _ = apply_R_transform(c, (hx, hy))
        v = velocity(c, (hx, hy), p)
        mirrored = np.array([-v[0], -v[1], v[2], v[4], v[3]])
        assert np.max(np.abs(velocity(rc, (hx, hy), p) - mirrored)) \
            < 1e-11 * max(1.0, np.max(np.abs(v)))

    def test_magnetization_field_product_scaling(self):
        # M and H enter the dynamics only through their products M Hx, M Hy;
        # halving M while doubling H is exact in floating point
        c = Configuration(0.3, -0.1, 0.7, 0.5, -0.4)
        half = dataclasses.replace(CANON, M=0.5 * CANON.M)
        np.testing.assert_array_equal(velocity(c, (0.8, -0.3), CANON),
                                      velocity(c, (1.6, -0.6), half))


class TestDissipation:
    def _quad_dissipation(self, config, params, vx, vy, omega):
        fr = segment_frames(config, params)
        center = fr.centers[1]
        total = 0.0
        for i in range(3):
            pts = fr.endpoints[i][None, :] + np.outer(
                _SIMP_S * params.L, fr.tangents[i])
            rel = pts - center
            vel = np.column_stack([vx - omega * rel[:, 1],
                                   vy + omega * rel[:, 0]])
            vt = vel @ fr.tangents[i]
            vn = vel @ fr.normals[i]
            total += params.L * _SIMP_W @ (params.xi[i] * vt ** 2
                                           + params.eta[i] * vn ** 2)
        return float(total)

    @given(theta=thetas, a2=angles, a3=angles,
           vx=st.floats(-2, 2), vy=st.floats(-2, 2))
    @settings(max_examples=30)
    def test_translation_power_positive(self, theta, a2, a3, vx, vy):
        if abs(vx) + abs(vy) < 1e-3:
            vx = 1.0
        c = Configuration(0.0, 0.0, theta, a2, a3)
        Mh = resistance(CANON, (theta, a2, a3))
        qdot = np.array([vx, vy, 0.0, 0.0, 0.0])
        power = float(np.array([vx, vy]) @ (Mh @ qdot)[:2])
        assert power > 0.0
        assert power == pytest.approx(
            self._quad_dissipation(c, CANON, vx, vy, 0.0), rel=1e-9)

    @given(theta=thetas, a2=angles, a3=angles)
    @settings(max_examples=30)
    def test_rotation_power_positive(self, theta, a2, a3):
        """Rotation about A1: its torque row carries the whole dissipation."""
        omega = 0.8
        c = Configuration(0.0, 0.0, theta, a2, a3)
        fr = segment_frames(c, CANON)
        arm = fr.centers[1] - fr.endpoints[0]
        qdot = np.array([-omega * arm[1], omega * arm[0], omega, 0.0, 0.0])
        Mh = resistance(CANON, (theta, a2, a3))
        power = float(omega * (Mh @ qdot)[2])
        assert power > 0.0
        assert power == pytest.approx(
            self._quad_dissipation(c, CANON, qdot[0], qdot[1], omega),
            rel=1e-9)

    @given(theta=thetas, a2=angles, a3=angles)
    @settings(max_examples=25)
    def test_ah_block_spd(self, theta, a2, a3):
        # the translation block; the staircase torque rows leave the rest
        # of Mh nonsymmetric
        ah = resistance(CANON, (theta, a2, a3))[:2, :2]
        assert np.max(np.abs(ah - ah.T)) < 1e-10 * np.max(np.abs(ah))
        assert np.all(np.linalg.eigvalsh(0.5 * (ah + ah.T)) > 0.0)


class TestCouplingStructure:
    @given(theta=thetas, a2=angles, a3=angles, params=param_sets())
    @settings(max_examples=40)
    @pytest.mark.filterwarnings("ignore:eta_i < xi_i")
    def test_row_difference_isolates_left_link(self, theta, a2, a3, params):
        _, Mx, My = loop_assemble(params, theta, a2, a3)
        th1 = theta + a2
        assert Mx[2] - Mx[3] == pytest.approx(
            params.M * np.sin(th1), abs=1e-12 * max(1.0, params.M))
        assert My[2] - My[3] == pytest.approx(
            -params.M * np.cos(th1), abs=1e-12 * max(1.0, params.M))
        np.testing.assert_array_equal(Mx[:2], [0.0, 0.0])
        np.testing.assert_array_equal(My[:2], [0.0, 0.0])


class TestElasticLoad:
    def test_values(self):
        load = _load_core(CANON)(0.2, -0.5)[1]
        np.testing.assert_allclose(load, [0, 0, 0, 0.2, 0.5])

    def test_spring_torque_balances_at_zero_angles(self):
        load = _load_core(CANON)(0.0, 0.0)[1]
        np.testing.assert_array_equal(load, np.zeros(5))


class TestControlFields:
    @given(theta=thetas, a2=angles, a3=angles, params=param_sets())
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:eta_i < xi_i")
    def test_solve_consistency(self, theta, a2, a3, params):
        # the fields turned to theta against the loop form at theta; the
        # spring load does not depend on the heading
        x = np.array([0.0, 0.0, theta, a2, a3])
        system = control_vector_fields(params)
        elastic = _load_core(params)(a2, a3)[1]
        Mh, Mx, My = loop_assemble(params, theta, a2, a3)
        scale = max(1.0, float(np.max(np.abs(Mx))))
        assert np.max(np.abs(Mh @ (-system.fx(x)) - Mx)) < 1e-10 * scale
        assert np.max(np.abs(Mh @ (-system.fy(x)) - My)) < 1e-10 * scale
        assert np.max(np.abs(Mh @ system.f0(x) - elastic)) \
            < 1e-10 * max(1.0, params.K)

    @given(params=param_sets())
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:eta_i < xi_i")
    def test_straight_fields_align_on_loop_form(self, params):
        # at the straight body pose every torque row of Mx is M sin 0.0 =
        # 0.0, so fx there is exactly zero for any swimmer: a residual read
        # at heading 0 and turned to theta cannot measure the alignment
        straight = np.zeros(5)
        assert np.all(control_vector_fields(params).fx(straight) == 0.0)
        # the loop form keeps its heading, so fx + tan(theta) fy = 0 is
        # measured there; a moment near the subnormal range rounds the
        # magnetic loads to a few bits, where no relative bound holds.
        # Over 3,000 drawn swimmers x 8 headings the worst was 1.2e-14
        assume(params.M == 0.0 or params.M > 1e-300)
        for theta in (0.3, -0.3, 0.7, -0.7, 1.4, -1.4, 2.0, 3.0):
            Mh, Mx, My = loop_assemble(params, theta, 0.0, 0.0)
            fx = np.linalg.solve(Mh, -Mx)
            fy = np.linalg.solve(Mh, -My)
            assert np.max(np.abs(fx + math.tan(theta) * fy)) \
                <= 1e-12 * np.max(np.abs(fy))

    def test_unactuated_swimmer_is_inert(self):
        p = SwimmerParams(1.0, (1.2, 0.8, 0.8), (3.0, 1.5, 1.5), 0.0, 0.0)
        x = np.array([0.0, 0.0, 0.5, 0.7, -0.9])
        for field in control_vector_fields(p).generators():
            np.testing.assert_array_equal(field(x), np.zeros(5))

    def test_rhs_is_affine_combination(self):
        c = Configuration(0.0, 0.0, 0.4, -0.3, 0.8)
        x = c.as_array()
        system = control_vector_fields(CANON)
        hx, hy = 0.7, -0.4
        np.testing.assert_allclose(
            velocity(c, (hx, hy), CANON),
            system.f0(x) + hx * system.fx(x) + hy * system.fy(x),
            rtol=1e-10, atol=1e-12)


class TestRateFunction:
    @given(theta=thetas, a2=angles, a3=angles,
           hx=st.floats(-2, 2), hy=st.floats(-2, 2))
    @settings(max_examples=30)
    def test_matches_public_rhs(self, theta, a2, a3, hx, hy):
        rate = make_rate_function(CANON)
        c = Configuration(0.2, -0.7, theta, a2, a3)
        np.testing.assert_array_equal(rate(*c.as_array()[2:], hx, hy),
                                      velocity(c, (hx, hy), CANON))


def _assembly_hex(out):
    return [v.hex() for a in out for v in np.ravel(a).tolist()]


def _assembled(params, a2, a3):
    """``(Mh, Mx, My)`` from the body-frame drag loads of ``_assemble``,
    through ``_load_core``."""
    drag, _, Mx, My = _load_core(params)(a2, a3)
    return _resistance(drag)[0], Mx, My


UNIFORM = SwimmerParams.uniform(1.0, 0.8, 1.5, 1.0, 1.0)
SIGNED_POSES = {
    "straight": (0.0, 0.0, 0.0),
    "theta_negative_zero": (-0.0, 0.0, 0.0),
    "all_negative_zero": (-0.0, -0.0, -0.0),
    "alpha2_negative_zero": (0.3, -0.0, 0.2),
    "quarter_turn": (np.pi / 2, 0.0, 0.0),
    "bent": (0.3, 0.4, -0.25),
}
# sha256 of the float.hex of (Mh, Mx, My), recorded from the loop form
FROZEN_ASSEMBLY = {
    ("CANON", "straight"):
        "b23f58b41659da70d1a7bac3c289237a9dbc83d2ec0cc64e710d553fb7754593",
    ("CANON", "theta_negative_zero"):
        "b23f58b41659da70d1a7bac3c289237a9dbc83d2ec0cc64e710d553fb7754593",
    ("CANON", "all_negative_zero"):
        "301fdd2388f9f477dfdbd7e528400df2d2b9d2cffc786355a7837af2f1bf151d",
    ("CANON", "alpha2_negative_zero"):
        "dfb4517e65750b89737d731344ed747216abe81aa171d51958fa5b2fbe99fad1",
    ("CANON", "quarter_turn"):
        "d350279ab51cb0960cc61fa700774b91e1b4cfe36c56b86aa52b6a5cec836913",
    ("CANON", "bent"):
        "248f74d4a93d90d25065ad023531a34fcb285c2e351c3d4c8cb78d7a1254e42b",
    ("UNIFORM", "straight"):
        "49a6f19dae03a4bcae4ed3241a97e1c2be18510eee57accbf8206e934e385255",
    ("UNIFORM", "theta_negative_zero"):
        "49a6f19dae03a4bcae4ed3241a97e1c2be18510eee57accbf8206e934e385255",
    ("UNIFORM", "all_negative_zero"):
        "df9c4b48f5c0863b4375b81707ef38c29834d2211ac032a59a9413d013cab89b",
    ("UNIFORM", "alpha2_negative_zero"):
        "b85139ee9e6a00e1768e0f8a0c8326e0d9d47a33857f31386491bf2afaed9a8a",
    ("UNIFORM", "quarter_turn"):
        "099cad1f055c67b9c4e228e62ab1a730f2b11e41416655bb2e4695f5f888c01c",
    ("UNIFORM", "bent"):
        "500a3f164b71b39bb05494798943c9f1c2a112c3081e23d2718a561f1f3d7726",
}


class TestStraightLineAssembly:
    @pytest.mark.parametrize("swimmer, pose", sorted(FROZEN_ASSEMBLY))
    def test_bits_are_frozen(self, swimmer, pose):
        # the loop form at every heading, and the body-frame assembly,
        # which is the loop form at heading +0.0, where the pose has it
        params = {"CANON": CANON, "UNIFORM": UNIFORM}[swimmer]
        theta, a2, a3 = SIGNED_POSES[pose]
        outs = [loop_assemble(params, theta, a2, a3)]
        if math.copysign(1.0, theta) == 1.0 and theta == 0.0:
            outs.append(_assembled(params, a2, a3))
        for out in outs:
            digest = hashlib.sha256(" ".join(_assembly_hex(out)).encode())
            assert digest.hexdigest() == FROZEN_ASSEMBLY[swimmer, pose]

    @given(a2=angles, a3=angles, L=st.floats(0.3, 3.0),
           xi=st.tuples(drags, drags, drags),
           eta=st.tuples(drags, drags, drags), M=moduli)
    @settings(max_examples=200)
    @pytest.mark.filterwarnings("ignore:eta_i < xi_i")
    def test_matches_loop_bit_for_bit(self, a2, a3, L, xi, eta, M):
        params = SwimmerParams(L, xi, eta, 1.0, M)
        assert _assembly_hex(_assembled(params, a2, a3)) == \
            _assembly_hex(loop_assemble(params, 0.0, a2, a3))

    @pytest.mark.parametrize("params", [CANON, UNIFORM,
                                        SwimmerParams.uniform(1.0, 1.0, 1.0,
                                                              1.0, 1.0)])
    def test_signed_zero_poses_match_loop(self, params):
        # exact zeros appear where an angle is +-0.0, where the two joint
        # angles cancel, and on the straight and symmetric sets; a -0.0
        # joint angle reads +0.0, as at heading +0.0 of the loop form
        values = (0.0, -0.0, 0.3, -0.3, np.pi / 2, -np.pi / 2, 0.25)
        for a2 in values:
            for a3 in values + (-a2,):
                assert _assembly_hex(_assembled(params, a2, a3)) == \
                    _assembly_hex(loop_assemble(params, 0.0, a2, a3)), \
                    (a2, a3)


def _load(params, state, hx, hy):
    """``(Mh, load, turn)`` of the RK4 rate at ``state`` as exact
    fractions: its body-frame ``Mh``, its load ``elastic - Mx bx - My by``
    as rounded to floats, under the field ``(bx, by)`` turned into the body
    frame as the rate turns it, and ``turn``, the float cosine and sine of
    the heading that turn the translation rates back out."""
    theta, a2, a3 = state[2:]
    drag, elastic, mx, my = _load_core(params)(a2, a3)
    c, s = math.cos(theta), math.sin(theta)
    hx, hy = c * hx + s * hy, c * hy - s * hx
    load = [-(hx * a + hy * b) for a, b in zip(mx, my)]
    load[3] += elastic[3]
    load[4] += elastic[4]
    mh = [[-Fraction(v) for v in drag[5 * i:5 * i + 5]] for i in range(5)]
    return mh, [Fraction(v) for v in load], (Fraction(c), Fraction(s))


def _loop_load(params, state, hx, hy):
    """``(Mh, load, turn)`` as :func:`_load` gives them, from the loop form
    at the heading of ``state``, which has the bits of the heading-general
    assembly that the body-frame one replaced: its load ``elastic - Mx hx
    - My hy`` as rounded to floats, and the identity ``turn``."""
    mh, mx, my = loop_assemble(params, *state[2:])
    load = [-(hx * a + hy * b) for a, b in zip(mx.tolist(), my.tolist())]
    load[3] += params.K * state[3]
    load[4] += -params.K * state[4]
    return ([[Fraction(v) for v in row] for row in mh.tolist()],
            [Fraction(v) for v in load], (Fraction(1), Fraction(0)))


def _turn_out(v, turn):
    """The rates ``v`` with ``(xdot, ydot)`` turned out of the body frame
    by ``turn``, in exact arithmetic."""
    c, s = turn
    return [c * v[0] - s * v[1], s * v[0] + c * v[1], *v[2:]]


def _exact_solve(mh, load):
    """``Mh^-1 load`` in rational arithmetic, by Gauss-Jordan elimination
    with a non-zero pivot."""
    rows = [row + [b] for row, b in zip(mh, load)]
    for k in range(5):
        p = next(i for i in range(k, 5) if rows[i][k] != 0)
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(5):
            if i != k and rows[i][k] != 0:
                m = rows[i][k] / rows[k][k]
                rows[i] = [a - m * b for a, b in zip(rows[i], rows[k])]
    return [rows[k][5] / rows[k][k] for k in range(5)]


class TestRawSolve:
    """The rate's raw solve, ``_solve_drag``: Gaussian elimination of its
    5x5 load on Python floats, the force block first, then the 3x3 Schur
    complement with partial pivoting; no numpy call and no error state."""

    @given(theta=thetas, a2=angles, a3=angles, params=param_sets(),
           hx=st.sampled_from([0, 0.0, -0.0, 1.0]) | st.floats(-2, 2),
           hy=st.sampled_from([0, 0.0, -0.0]) | st.floats(-2, 2))
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("ignore:eta_i < xi_i")
    def test_matches_exact_solve(self, theta, a2, a3, params, hx, hy):
        state = [0.2, -0.7, theta, a2, a3]
        mh, load, turn = _load(params, state, hx, hy)
        # a load near the subnormal range carries too few bits for any
        # relative bound, LAPACK's included
        assume(all(x == 0 or abs(x) > 1e-250 for x in load))
        v = make_rate_function(params)(*state[2:], hx, hy)
        assert all(type(x) is float for x in v)
        exact = _turn_out(_exact_solve(mh, load), turn)
        scale = max(abs(x) for x in exact)
        assert max(abs(Fraction(x) - e) for x, e in zip(v, exact)) \
            <= 1e-13 * scale

    @pytest.mark.parametrize("pose", sorted(SIGNED_POSES))
    @pytest.mark.parametrize("hx, hy", [(0, 0), (0.0, -0.0), (-0.0, 0.0),
                                        (1.0, 0.3)])
    def test_signed_zero_poses_match_np_linalg_solve(self, pose, hx, hy):
        # exact wherever the exact solution is zero; elsewhere within 1e-13
        # of it and of np.linalg.solve on the same Mh and load.  At the
        # pose's heading the system is the loop form's there; at heading 0
        # it is the body-frame load that the rate solves
        theta, a2, a3 = SIGNED_POSES[pose]
        for heading, loads in ((theta, _loop_load), (0.0, _load)):
            state = [0.0, -0.0, heading, a2, a3]
            v = make_rate_function(UNIFORM)(*state[2:], hx, hy)
            mh, load, turn = loads(UNIFORM, state, hx, hy)
            exact = _turn_out(_exact_solve(mh, load), turn)
            lapack = _turn_out(np.linalg.solve(np.array(mh, dtype=float),
                                               np.array(load, dtype=float)
                                               ).tolist(), turn)
            scale = max(abs(e) for e in exact)
            for x, e, y in zip(v, exact, lapack):
                if e == 0:
                    assert x == 0.0, (heading, v, exact)
                else:
                    assert abs(Fraction(x) - e) <= 1e-13 * scale, (v, exact)
                    assert abs(x - y) <= 1e-13 * scale, (v, lapack)

    @pytest.mark.parametrize("block", [(1, 0, 0, 0, 1, 0, 0, 0, 1),
                                       (0, 1, 0, 1, 0, 0, 0, 0, 1),
                                       (0, 1, 0, 0, 0, 1, 1, 0, 0),
                                       (1, 0, 0, 0, 0, 1, 0, 1, 0)])
    def test_torque_rows_pivot(self, monkeypatch, block):
        # torque rows free of the translation rates leave ``block`` as the
        # Schur complement, whose zero leading pivots take each row swap of
        # the partial pivoting; the force rows couple to every rate
        assemble = magswim.dynamics._assemble

        def permuted(*args):
            _, elastic, Mx, My = assemble(*args)
            drag = (-2.0, 0.5, 0.25, -0.5, 1.0, 0.5, -3.0, 0.75, 0.5, -0.25,
                    0.0, 0.0, *block[:3], 0.0, 0.0, *block[3:6],
                    0.0, 0.0, *block[6:])
            return drag, elastic, Mx, My
        monkeypatch.setattr(magswim.dynamics, "_assemble", permuted)
        state = [0.0, 0.0, 0.3, 0.4, -0.25]
        v = two_call_rate(CANON)(*state[2:], 1.0, 0.3)
        mh, load, turn = _load(CANON, state, 1.0, 0.3)
        exact = _turn_out(_exact_solve(mh, load), turn)
        assert max(abs(Fraction(x) - e) for x, e in zip(v, exact)) \
            <= 1e-13 * max(abs(x) for x in exact)

    def test_singular_matrix_raises(self, monkeypatch):
        solve = magswim.dynamics._solve_drag

        def singular(*args):
            # the last row of Mh zeroed
            return solve(*args[:20], *(0.0,) * 5, *args[25:])
        monkeypatch.setattr(magswim.dynamics, "_solve_drag", singular)
        with pytest.raises(IntegrationError, match="Singular matrix"):
            integrate(CANON, Configuration(0.0, 0.0, 0.1, 0.3, -0.2),
                      ConstantField(1.0, 0.2), t_final=0.1, dt=0.05)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            velocity(Configuration.straight(), (1.0, 0.0), CANON)

    def test_runs_without_numpy(self, monkeypatch):
        rate = make_rate_function(CANON)
        state = [0.2, -0.7, 0.3, 0.4, -0.25]
        before = rate(*state[2:], 0.8, -0.3)

        class Unreachable:
            def __getattr__(self, name):
                raise AssertionError(f"numpy reached: {name}")
        monkeypatch.setattr(magswim.dynamics, "np", Unreachable())
        assert rate(*state[2:], 0.8, -0.3) == before
        assert make_rate_function(CANON)(*state[2:], 0.8, -0.3) == before


class TestBodyFrameRate:
    """The rate assembles in the body frame and turns the field in and the
    translation rates out; against the loop form at the heading itself,
    solved exactly, it is off by rounding only.  The error is bounded
    against ``|f0| + |hx fx| + |hy fy|``, the largest entries of the
    field terms (LAPACK solves of the loop form), so a load that cancels
    does not shrink the bound, and a load near the subnormal range, with
    too few bits for any relative bound, is left out.  Over 12,000 random
    draws, each end of every range drawn one time in twenty, the worst
    error was 2.7e-14 of that scale; the bound 1e-12 leaves a factor 37."""

    @given(theta=thetas, a2=angles, a3=angles, params=param_sets(),
           hx=st.floats(-2, 2), hy=st.floats(-2, 2))
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("ignore:eta_i < xi_i")
    def test_matches_exact_loop_solve(self, theta, a2, a3, params, hx, hy):
        mh, mx, my = loop_assemble(params, theta, a2, a3)
        elastic = [0.0, 0.0, 0.0, params.K * a2, -params.K * a3]
        load = [Fraction(e) - Fraction(a) * Fraction(hx)
                - Fraction(b) * Fraction(hy)
                for e, a, b in zip(elastic, mx.tolist(), my.tolist())]
        # a load near the subnormal range carries too few bits for any
        # relative bound
        assume(all(x == 0 or abs(x) > 1e-250 for x in load))
        exact = _exact_solve(
            [[Fraction(v) for v in row] for row in mh.tolist()], load)
        f0, fx, fy = (float(np.max(np.abs(np.linalg.solve(mh, b))))
                      for b in (np.array(elastic), mx, my))
        scale = f0 + abs(hx) * fx + abs(hy) * fy
        v = make_rate_function(params)(theta, a2, a3, hx, hy)
        assert max(abs(Fraction(x) - e) for x, e in zip(v, exact)) \
            <= 1e-12 * scale


def _seeded_params(seed):
    """A swimmer drawn from ``seed``, every link its own drag."""
    rng = np.random.default_rng(seed)
    xi = rng.uniform(0.3, 3.0, size=3)
    return SwimmerParams(float(rng.uniform(0.3, 3.0)), tuple(xi.tolist()),
                         tuple((xi * rng.uniform(1.0, 3.0, size=3)).tolist()),
                         float(rng.uniform(0.0, 3.0)),
                         float(rng.uniform(0.0, 3.0)))


def _rate_hex(rate, *args):
    """The bits of ``rate(*args)``, or the text of what it raised."""
    try:
        return [x.hex() for x in rate(*args)]
    except np.linalg.LinAlgError as exc:
        return repr(exc)


class TestOneCallRate:
    """The rate of ``make_rate_function``, one assembly call that passes
    its loads to the elimination, against the two-call reference (load
    tuples, then ``_solve_drag``): bit for bit, signed zeros included."""

    SWIMMERS = [CANON, UNIFORM,
                dataclasses.replace(CANON, M=0.0),
                dataclasses.replace(CANON, K=0.0),
                dataclasses.replace(UNIFORM, M=0.0, K=0.0),
                *(_seeded_params(seed) for seed in range(12))]
    FIELDS = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
              (1.0, 0.0), (0.0, -1.0), (1.0, 0.3), (-0.7, 1.9)]

    @pytest.mark.parametrize("k", range(len(SWIMMERS)))
    def test_matches_two_call_rate(self, k):
        params = self.SWIMMERS[k]
        rate, reference = make_rate_function(params), two_call_rate(params)
        rng = np.random.default_rng(100 + k)
        poses = [*SIGNED_POSES.values(),
                 *(tuple(rng.uniform(-2.5, 2.5, size=3).tolist())
                   for _ in range(8))]
        for pose in poses:
            for field in self.FIELDS:
                got = _rate_hex(rate, *pose, *field)
                assert isinstance(got, list)
                assert got == _rate_hex(reference, *pose, *field), \
                    (pose, field)

    def test_singular_matrix_raises_the_same(self):
        # subnormal drags leave a zero pivot in the elimination
        params = SwimmerParams(1.0, (5e-324,) * 3, (5e-324,) * 3, 1.0, 1.0)
        for pose in ((0.0, 0.0, 0.0), (0.3, 0.4, -0.25)):
            got = _rate_hex(make_rate_function(params), *pose, 1.0, 0.3)
            assert got == "LinAlgError('Singular matrix')"
            assert got == _rate_hex(two_call_rate(params), *pose, 1.0, 0.3)
