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
from fractions import Fraction
from math import cos, sin

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
from oracles import resistance, segment_frames, velocity

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
        _, _, Mx, My = _load_core(CANON)(0.3, 0.2, -0.1)
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
        _, _, Mx, My = _load_core(CANON)(0.0, 0.0, 0.0)
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
        _, _, Mx, My = _load_core(params)(theta, a2, a3)
        th1 = theta + a2
        assert Mx[2] - Mx[3] == pytest.approx(
            params.M * np.sin(th1), abs=1e-12 * max(1.0, params.M))
        assert My[2] - My[3] == pytest.approx(
            -params.M * np.cos(th1), abs=1e-12 * max(1.0, params.M))
        np.testing.assert_array_equal(Mx[:2], [0.0, 0.0])
        np.testing.assert_array_equal(My[:2], [0.0, 0.0])


class TestElasticLoad:
    def test_values(self):
        load = _load_core(CANON)(0.3, 0.2, -0.5)[1]
        np.testing.assert_allclose(load, [0, 0, 0, 0.2, 0.5])

    def test_spring_torque_balances_at_zero_angles(self):
        load = _load_core(CANON)(0.7, 0.0, 0.0)[1]
        np.testing.assert_array_equal(load, np.zeros(5))


class TestControlFields:
    @given(theta=thetas, a2=angles, a3=angles, params=param_sets())
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:eta_i < xi_i")
    def test_solve_consistency(self, theta, a2, a3, params):
        x = np.array([0.0, 0.0, theta, a2, a3])
        system = control_vector_fields(params)
        _, elastic, Mx, My = _load_core(params)(theta, a2, a3)
        Mh = resistance(params, (theta, a2, a3))
        scale = max(1.0, float(np.max(np.abs(Mx))))
        assert np.max(np.abs(Mh @ (-system.fx(x)) - Mx)) < 1e-10 * scale
        assert np.max(np.abs(Mh @ (-system.fy(x)) - My)) < 1e-10 * scale
        assert np.max(np.abs(Mh @ system.f0(x) - elastic)) \
            < 1e-10 * max(1.0, params.K)

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
        np.testing.assert_array_equal(rate(c.as_array(), hx, hy),
                                      velocity(c, (hx, hy), CANON))


def _loop_assemble(params, theta, a2, a3):
    """Reference assembly: the generic column x link x row loop over the
    unit-rate velocity table, every term kept.  ``_assemble`` must
    reproduce it bit for bit, signed zeros included."""
    L, (xi1, xi2, xi3), (eta1, eta2, eta3), M = \
        params.L, params.xi, params.eta, params.M

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
    Mh = np.empty((5, 5))
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


def _assembly_hex(out):
    return [v.hex() for a in out for v in np.ravel(a).tolist()]


def _assembled(params, theta, a2, a3):
    """``(Mh, Mx, My)`` from the drag loads of ``_assemble``, through
    ``_load_core``."""
    drag, _, Mx, My = _load_core(params)(theta, a2, a3)
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
        params = {"CANON": CANON, "UNIFORM": UNIFORM}[swimmer]
        out = _assembled(params, *SIGNED_POSES[pose])
        digest = hashlib.sha256(" ".join(_assembly_hex(out)).encode())
        assert digest.hexdigest() == FROZEN_ASSEMBLY[swimmer, pose]

    @given(theta=thetas, a2=angles, a3=angles, L=st.floats(0.3, 3.0),
           xi=st.tuples(drags, drags, drags),
           eta=st.tuples(drags, drags, drags), M=moduli)
    @settings(max_examples=200)
    @pytest.mark.filterwarnings("ignore:eta_i < xi_i")
    def test_matches_loop_bit_for_bit(self, theta, a2, a3, L, xi, eta, M):
        args = (SwimmerParams(L, xi, eta, 1.0, M), theta, a2, a3)
        assert _assembly_hex(_assembled(*args)) == \
            _assembly_hex(_loop_assemble(*args))

    @pytest.mark.parametrize("params", [CANON, UNIFORM,
                                        SwimmerParams.uniform(1.0, 1.0, 1.0,
                                                              1.0, 1.0)])
    def test_signed_zero_poses_match_loop(self, params):
        # exact zeros appear where an angle is +-0.0, where theta + alpha
        # cancels, and on the straight and symmetric sets
        values = (0.0, -0.0, 0.3, -0.3, np.pi / 2)
        for theta in values:
            for a2 in (0.0, -0.0, -theta, 0.25):
                for a3 in (0.0, -0.0, -theta, a2, -a2):
                    args = (params, theta, a2, a3)
                    assert _assembly_hex(_assembled(*args)) == \
                        _assembly_hex(_loop_assemble(*args)), (theta, a2, a3)


def _load(params, state, hx, hy):
    """``(Mh, load)`` of the rate closure at ``state`` as exact fractions:
    its ``Mh`` and its load ``elastic - Mx hx - My hy`` as rounded to
    floats."""
    drag, elastic, mx, my = _load_core(params)(*state[2:])
    load = [-(hx * a + hy * b) for a, b in zip(mx, my)]
    load[3] += elastic[3]
    load[4] += elastic[4]
    mh = [[-Fraction(v) for v in drag[5 * i:5 * i + 5]] for i in range(5)]
    return mh, [Fraction(v) for v in load]


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
    """The rate closure's raw solve: Gaussian elimination of its 5x5 load
    on Python floats, the force block first, then the 3x3 Schur complement
    with partial pivoting; no numpy call and no error state."""

    @given(theta=thetas, a2=angles, a3=angles, params=param_sets(),
           hx=st.sampled_from([0, 0.0, -0.0, 1.0]) | st.floats(-2, 2),
           hy=st.sampled_from([0, 0.0, -0.0]) | st.floats(-2, 2))
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("ignore:eta_i < xi_i")
    def test_matches_exact_solve(self, theta, a2, a3, params, hx, hy):
        state = [0.2, -0.7, theta, a2, a3]
        mh, load = _load(params, state, hx, hy)
        # a load near the subnormal range carries too few bits for any
        # relative bound, LAPACK's included
        assume(all(x == 0 or abs(x) > 1e-250 for x in load))
        v = make_rate_function(params)(state, hx, hy)
        assert all(type(x) is float for x in v)
        exact = _exact_solve(mh, load)
        scale = max(abs(x) for x in exact)
        assert max(abs(Fraction(x) - e) for x, e in zip(v, exact)) \
            <= 1e-13 * scale

    @pytest.mark.parametrize("pose", sorted(SIGNED_POSES))
    @pytest.mark.parametrize("hx, hy", [(0, 0), (0.0, -0.0), (-0.0, 0.0),
                                        (1.0, 0.3)])
    def test_signed_zero_poses_match_np_linalg_solve(self, pose, hx, hy):
        # exact wherever the exact solution is zero; elsewhere within 1e-13
        # of it and of np.linalg.solve on the same Mh and load
        state = [0.0, -0.0, *SIGNED_POSES[pose]]
        v = make_rate_function(UNIFORM)(state, hx, hy)
        mh, load = _load(UNIFORM, state, hx, hy)
        exact = _exact_solve(mh, load)
        lapack = np.linalg.solve(np.array(mh, dtype=float),
                                 np.array(load, dtype=float)).tolist()
        scale = max(abs(e) for e in exact)
        for x, e, y in zip(v, exact, lapack):
            if e == 0:
                assert x == 0.0, (v, exact)
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
        v = make_rate_function(CANON)(state, 1.0, 0.3)
        exact = _exact_solve(*_load(CANON, state, 1.0, 0.3))
        assert max(abs(Fraction(x) - e) for x, e in zip(v, exact)) \
            <= 1e-13 * max(abs(x) for x in exact)

    def test_singular_matrix_raises(self, monkeypatch):
        assemble = magswim.dynamics._assemble

        def singular(*args):
            drag, elastic, Mx, My = assemble(*args)
            # the last row of Mh zeroed
            return drag[:20] + (0.0,) * 5, elastic, Mx, My
        monkeypatch.setattr(magswim.dynamics, "_assemble", singular)
        with pytest.raises(IntegrationError, match="Singular matrix"):
            integrate(CANON, Configuration(0.0, 0.0, 0.1, 0.3, -0.2),
                      ConstantField(1.0, 0.2), t_final=0.1, dt=0.05)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            velocity(Configuration.straight(), (1.0, 0.0), CANON)

    def test_runs_without_numpy(self, monkeypatch):
        rate = make_rate_function(CANON)
        state = [0.2, -0.7, 0.3, 0.4, -0.25]
        before = rate(state, 0.8, -0.3)

        class Unreachable:
            def __getattr__(self, name):
                raise AssertionError(f"numpy reached: {name}")
        monkeypatch.setattr(magswim.dynamics, "np", Unreachable())
        assert rate(state, 0.8, -0.3) == before
        assert make_rate_function(CANON)(state, 0.8, -0.3) == before
