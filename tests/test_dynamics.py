"""Grand resistance assembly against independent oracles.

The production assembly uses exact moment integrals of the drag density.
The oracle here knows nothing about that: it takes material-point positions
from segment_frames, differentiates them numerically to get velocities per
unit generalized rate, and integrates force and torque densities by Simpson
quadrature (exact for these polynomial integrands up to finite-difference
noise).  Agreement pins the assembly conventions, not just its algebra.
"""
import hashlib
from math import cos, sin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magswim
from magswim import (
    Configuration,
    ConstantField,
    IntegrationError,
    NearSingularError,
    SwimmerParams,
    apply_R_transform,
    control_fields,
    elastic_load,
    grand_resistance,
    magnetic_coupling,
    make_rate_function,
    rhs,
    segment_frames,
)
from magswim.dynamics import _assemble, _load_core, _unpack
from magswim.simulate import integrate

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
        gr = grand_resistance(Configuration(0.0, 0.0, 0.3, 0.2, -0.1), CANON)
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
        np.testing.assert_allclose(gr.mh, expected, rtol=1e-12, atol=1e-14)

    def test_coupling_probe(self):
        mc = magnetic_coupling(Configuration(0.0, 0.0, 0.3, 0.2, -0.1), CANON)
        np.testing.assert_allclose(
            mc.mx,
            [0.0, 0.0, 0.9736150760606038, 0.4941895374564007,
             0.1986693307950612], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            mc.my,
            [0.0, 0.0, -2.8129856288572204, -1.9354030669668476,
             -0.9800665778412416], rtol=1e-12, atol=1e-15)


class TestStraightConfig:
    def test_translation_drags(self):
        gr = grand_resistance(Configuration.straight(), CANON)
        assert gr.mh[0, 0] == pytest.approx(sum(CANON.xi) * CANON.L)
        assert gr.mh[1, 1] == pytest.approx(sum(CANON.eta) * CANON.L)
        assert gr.mh[0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_torque_row_under_sideways_translation(self):
        # uniform eta: torque about A1 under unit ydot is 4.5 eta L^2
        p = SwimmerParams.uniform(1.3, 1.0, 2.0, 1.0, 1.0)
        gr = grand_resistance(Configuration.straight(), p)
        assert gr.mh[2, 1] == pytest.approx(4.5 * 2.0 * 1.3 ** 2)

    def test_coupling_patterns(self):
        mc = magnetic_coupling(Configuration.straight(), CANON)
        np.testing.assert_allclose(mc.mx, np.zeros(5), atol=1e-15)
        np.testing.assert_allclose(mc.my, [0, 0, -3.0, -2.0, -1.0], atol=1e-15)

    def test_rhs_vanishes_in_axial_field(self):
        v = rhs(Configuration.straight(), (2.0, 0.0), CANON)
        np.testing.assert_allclose(v, np.zeros(5), atol=1e-14)


class TestQuadratureOracle:
    @given(theta=thetas, a2=angles, a3=angles, params=param_sets())
    @settings(max_examples=40, deadline=None)
    def test_matches_assembly(self, theta, a2, a3, params):
        c = Configuration(0.0, 0.0, theta, a2, a3)
        gr = grand_resistance(c, params)
        mh_q = quadrature_resistance(c, params)
        scale = np.max(np.abs(gr.mh))
        assert np.max(np.abs(gr.mh - mh_q)) < 1e-7 * scale

    def test_matches_assembly_off_origin(self):
        c = Configuration(1.7, -2.2, 0.9, -0.4, 1.1)
        gr = grand_resistance(c, CANON)
        mh_q = quadrature_resistance(c, CANON)
        assert np.max(np.abs(gr.mh - mh_q)) < 1e-7 * np.max(np.abs(gr.mh))


class TestInvariances:
    @given(x=st.floats(-4, 4), y=st.floats(-4, 4), theta=thetas,
           a2=angles, a3=angles)
    @settings(max_examples=40)
    def test_translation_invariance(self, x, y, theta, a2, a3):
        here = Configuration(x, y, theta, a2, a3)
        origin = Configuration(0.0, 0.0, theta, a2, a3)
        np.testing.assert_array_equal(grand_resistance(here, CANON).mh,
                                      grand_resistance(origin, CANON).mh)
        np.testing.assert_array_equal(magnetic_coupling(here, CANON).mx,
                                      magnetic_coupling(origin, CANON).mx)

    @given(theta=thetas, a2=angles, a3=angles, phi=thetas,
           hx=st.floats(-2, 2), hy=st.floats(-2, 2))
    @settings(max_examples=40)
    def test_rotation_equivariance_of_rhs(self, theta, a2, a3, phi, hx, hy):
        """Rotating configuration and field rotates the velocity."""
        c = Configuration(0.0, 0.0, theta, a2, a3)
        cr = Configuration(0.0, 0.0, theta + phi, a2, a3)
        R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        h_rot = tuple(R @ [hx, hy])
        v = rhs(c, (hx, hy), CANON)
        vr = rhs(cr, h_rot, CANON)
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
        v = rhs(c, (hx, hy), p)
        mirrored = np.array([-v[0], -v[1], v[2], v[4], v[3]])
        assert np.max(np.abs(rhs(rc, (hx, hy), p) - mirrored)) \
            < 1e-11 * max(1.0, np.max(np.abs(v)))

    def test_magnetization_field_product_scaling(self):
        # M and H enter the dynamics only through their products M Hx, M Hy;
        # halving M while doubling H is exact in floating point
        c = Configuration(0.3, -0.1, 0.7, 0.5, -0.4)
        half = CANON.with_magnetization(0.5 * CANON.M)
        np.testing.assert_array_equal(rhs(c, (0.8, -0.3), CANON),
                                      rhs(c, (1.6, -0.6), half))


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
        gr = grand_resistance(c, CANON)
        qdot = np.array([vx, vy, 0.0, 0.0, 0.0])
        power = float(np.array([vx, vy]) @ (gr.mh @ qdot)[:2])
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
        gr = grand_resistance(c, CANON)
        power = float(omega * (gr.mh @ qdot)[2])
        assert power > 0.0
        assert power == pytest.approx(
            self._quad_dissipation(c, CANON, qdot[0], qdot[1], omega),
            rel=1e-9)

    @given(theta=thetas, a2=angles, a3=angles)
    @settings(max_examples=25)
    def test_ah_block_spd(self, theta, a2, a3):
        gr = grand_resistance(Configuration(0.0, 0.0, theta, a2, a3), CANON)
        asym = np.max(np.abs(gr.ah - gr.ah.T))
        assert asym < 1e-10 * np.max(np.abs(gr.ah))
        assert np.all(np.linalg.eigvalsh(0.5 * (gr.ah + gr.ah.T)) > 0.0)


class TestCouplingStructure:
    @given(theta=thetas, a2=angles, a3=angles, params=param_sets())
    @settings(max_examples=40)
    def test_row_difference_isolates_left_link(self, theta, a2, a3, params):
        mc = magnetic_coupling(Configuration(0.0, 0.0, theta, a2, a3), params)
        th1 = theta + a2
        assert mc.mx[2] - mc.mx[3] == pytest.approx(
            params.M * np.sin(th1), abs=1e-12 * max(1.0, params.M))
        assert mc.my[2] - mc.my[3] == pytest.approx(
            -params.M * np.cos(th1), abs=1e-12 * max(1.0, params.M))
        np.testing.assert_array_equal(mc.mx[:2], [0.0, 0.0])
        np.testing.assert_array_equal(mc.my[:2], [0.0, 0.0])


class TestElasticLoad:
    def test_values(self):
        load = elastic_load(Configuration(0.0, 0.0, 0.3, 0.2, -0.5), CANON)
        np.testing.assert_allclose(load, [0, 0, 0, 0.2, 0.5])

    def test_spring_torque_balances_at_zero_angles(self):
        load = elastic_load(Configuration.straight(0.7), CANON)
        np.testing.assert_array_equal(load, np.zeros(5))


class TestControlFields:
    @given(theta=thetas, a2=angles, a3=angles, params=param_sets())
    @settings(max_examples=40, deadline=None)
    def test_solve_consistency(self, theta, a2, a3, params):
        c = Configuration(0.0, 0.0, theta, a2, a3)
        cf = control_fields(c, params)
        gr = grand_resistance(c, params)
        mc = magnetic_coupling(c, params)
        scale = max(1.0, float(np.max(np.abs(mc.mx))))
        assert np.max(np.abs(gr.mh @ (-cf.fx) - mc.mx)) < 1e-10 * scale
        assert np.max(np.abs(gr.mh @ (-cf.fy) - mc.my)) < 1e-10 * scale
        assert np.max(np.abs(gr.mh @ cf.f0 - elastic_load(c, params))) \
            < 1e-10 * max(1.0, params.K)

    def test_position_coupling_shape(self):
        cf = control_fields(Configuration(0.0, 0.0, 0.2, 0.1, -0.3), CANON)
        assert cf.position_coupling.shape == (2, 3)

    def test_unactuated_swimmer_is_inert(self):
        p = SwimmerParams(1.0, (1.2, 0.8, 0.8), (3.0, 1.5, 1.5), 0.0, 0.0)
        cf = control_fields(Configuration(0.0, 0.0, 0.5, 0.7, -0.9), p)
        for f in (cf.f0, cf.fx, cf.fy, cf.g0, cf.gx, cf.gy):
            np.testing.assert_array_equal(f, np.zeros_like(f))

    def test_rhs_is_affine_combination(self):
        c = Configuration(0.0, 0.0, 0.4, -0.3, 0.8)
        cf = control_fields(c, CANON)
        hx, hy = 0.7, -0.4
        np.testing.assert_allclose(
            rhs(c, (hx, hy), CANON), cf.f0 + hx * cf.fx + hy * cf.fy,
            rtol=1e-10, atol=1e-12)


class TestRateFunction:
    @given(theta=thetas, a2=angles, a3=angles,
           hx=st.floats(-2, 2), hy=st.floats(-2, 2))
    @settings(max_examples=30)
    def test_matches_public_rhs(self, theta, a2, a3, hx, hy):
        rate = make_rate_function(CANON)
        c = Configuration(0.2, -0.7, theta, a2, a3)
        np.testing.assert_array_equal(rate(c.as_array(), hx, hy),
                                      rhs(c, (hx, hy), CANON))


class TestConditioning:
    def test_degenerate_length_reported(self):
        p = SwimmerParams.uniform(1e-7, 1.0, 2.0, 1.0, 1.0)
        with pytest.raises(NearSingularError):
            grand_resistance(Configuration.straight(), p)


def _loop_assemble(theta, a2, a3, L, xi1, xi2, xi3, eta1, eta2, eta3, M):
    """Reference assembly: the generic column x link x row loop over the
    unit-rate velocity table, every term kept.  ``_assemble`` must
    reproduce it bit for bit, signed zeros included."""

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
        out = _assemble(*SIGNED_POSES[pose], *_unpack(params), params.M)
        digest = hashlib.sha256(" ".join(_assembly_hex(out)).encode())
        assert digest.hexdigest() == FROZEN_ASSEMBLY[swimmer, pose]

    @given(theta=thetas, a2=angles, a3=angles, L=st.floats(0.3, 3.0),
           xi=st.tuples(drags, drags, drags),
           eta=st.tuples(drags, drags, drags), M=moduli)
    @settings(max_examples=200)
    def test_matches_loop_bit_for_bit(self, theta, a2, a3, L, xi, eta, M):
        args = (theta, a2, a3, L, *xi, *eta, M)
        assert _assembly_hex(_assemble(*args)) == \
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
                    args = (theta, a2, a3, *_unpack(params), params.M)
                    assert _assembly_hex(_assemble(*args)) == \
                        _assembly_hex(_loop_assemble(*args)), (theta, a2, a3)


def _public_solve_rate(params, state, hx, hy):
    """The rate closure's load, solved by ``np.linalg.solve``."""
    Mh, elastic, mx, my = _load_core(params)(*state[2:])
    nhx, hy = float(-hx), float(hy)
    load = [nhx * a - hy * b for a, b in zip(mx, my)]
    load[3] += elastic[3]
    load[4] += elastic[4]
    return np.linalg.solve(Mh, np.array(load))


class TestRawSolve:
    """The rate closure calls the LAPACK gufunc inside ``np.linalg.solve``
    directly, with the solve's ``errstate`` entered by its callers."""

    @given(theta=thetas, a2=angles, a3=angles,
           hx=st.sampled_from([0, 0.0, -0.0, 1.0]) | st.floats(-2, 2),
           hy=st.sampled_from([0, 0.0, -0.0]) | st.floats(-2, 2))
    @settings(max_examples=100)
    def test_matches_np_linalg_solve_bit_for_bit(self, theta, a2, a3, hx,
                                                 hy):
        rate = make_rate_function(CANON)
        state = [0.2, -0.7, theta, a2, a3]
        assert [v.hex() for v in rate(state, hx, hy).tolist()] == \
            [v.hex() for v in _public_solve_rate(CANON, state, hx, hy)]

    @pytest.mark.parametrize("pose", sorted(SIGNED_POSES))
    @pytest.mark.parametrize("hx, hy", [(0, 0), (0.0, -0.0), (-0.0, 0.0),
                                        (1.0, 0.3)])
    def test_signed_zero_poses_match_np_linalg_solve(self, pose, hx, hy):
        rate = make_rate_function(UNIFORM)
        state = [0.0, -0.0, *SIGNED_POSES[pose]]
        assert [v.hex() for v in rate(state, hx, hy).tolist()] == \
            [v.hex() for v in _public_solve_rate(UNIFORM, state, hx, hy)]

    def test_singular_matrix_raises(self, monkeypatch):
        assemble = magswim.dynamics._assemble

        def singular(*args):
            Mh, Mx, My = assemble(*args)
            Mh = Mh.copy()
            Mh[4] = 0.0
            return Mh, Mx, My
        monkeypatch.setattr(magswim.dynamics, "_assemble", singular)
        with pytest.raises(IntegrationError, match="Singular matrix"):
            integrate(CANON, Configuration(0.0, 0.0, 0.1, 0.3, -0.2),
                      ConstantField(1.0, 0.2), t_final=0.1, dt=0.05)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            rhs(Configuration.straight(), (1.0, 0.0), CANON)
