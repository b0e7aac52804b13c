"""End-to-end acceptance criteria.

Each test owns one numbered criterion, prints a single line with the
measured quantities, and asserts the stated tolerance.

Criterion 06 expects the amplitude error ``|dx/eps^2 - dx2|`` to shrink
with observed order 2 in eps, that is linearly in eps^2.  Flipping the
sign of the ripple in ``H = (1, eps sin(omega t))`` is a half-period time
shift of the drive, so the settled orbit moves the same ``dx`` per period
for eps and -eps (from the straight start the -eps run is also the exact
mirror image y -> -y of the eps run).  The expansion is therefore even,
``dx = eps^2 dx2 + eps^4 dx4 + ...``, with no eps^3 term.

Criterion 08 checks, at straight poses, the alignment identity, the
stencil identity ``[fx, fy] = (M / cos theta) Mh^-1 S fy`` documented in
``magswim.brackets`` and the rank-4 span.  The scalar shortcut
``[fx, fy] = (fy)_theta fy`` is not an identity; that it fails by an
order-one factor is asserted by
``TestEquilibriumIdentities.test_scalar_shortcut_is_not_an_identity``
in ``tests/test_brackets.py``.
"""
import warnings

import numpy as np
import pytest

from magswim import Configuration, SwimmerParams, TabulatedField
from magswim.brackets import equilibrium_identities, lie_rank
from magswim.checks import run_validation
from magswim.linear import (
    _dx2_quadrature,
    _dx2_terms,
    _origin_derivatives,
    closed_form_angle_matrix,
    closed_form_char_coeffs,
    closed_form_grad_gx,
    displacement_model,
    frequency_sweep,
    linearize_angles,
    net_displacement_quadratic,
    resolvents,
    routh_hurwitz_stable,
)
from magswim.model import SinusoidalField
from magswim.serialize import read_trajectory_csv, write_trajectory_csv
from magswim.simulate import (
    displacement_per_period,
    integrate,
    symmetry_experiment,
)
from oracles import resistance

CANON = SwimmerParams(1.0, (1.2, 0.8, 0.8), (3.0, 1.5, 1.5), 1.0, 1.0)

N_SETS = 100


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def param_sets():
    """Head-asymmetric parameter draws, log-uniform over [0.1, 10]."""
    rng = np.random.default_rng(20260823)
    sets = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(N_SETS):
            l, k, m, eta1, eta = 10.0 ** rng.uniform(-1.0, 1.0, size=5)
            xi1, xi = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
            sets.append(
                SwimmerParams(l, (xi1, xi, xi), (eta1, eta, eta), k, m))
    return sets


def test_criterion_01_linearization_matches_closed_form(param_sets):
    worst = 0.0
    for params in param_sets:
        numeric = linearize_angles(params)
        closed = closed_form_angle_matrix(params)
        scale = float(np.max(np.abs(closed.a)))
        worst = max(worst,
                    float(np.max(np.abs(numeric.a - closed.a)) / scale),
                    float(np.max(np.abs(numeric.b - closed.b)) / scale))
    _report(1, worst <= 1e-5,
            f"max_relgap={worst:.3e} over {N_SETS} sets, tol 1e-5")


def test_criterion_02_straight_state_always_stable(param_sets):
    bad = 0
    worst_real = -np.inf
    for params in param_sets:
        coeffs = closed_form_char_coeffs(params)
        closed = closed_form_angle_matrix(params)
        reals = np.linalg.eigvals(closed.a).real
        worst_real = max(worst_real, float(np.max(reals)))
        if not (all(c < 0.0 for c in coeffs)
                and routh_hurwitz_stable(coeffs)
                and np.all(reals < 0.0)):
            bad += 1
    _report(2, bad == 0,
            f"unstable_sets={bad}/{N_SETS} max_eig_real={worst_real:.3e}")


def test_criterion_03_coupling_gradients(param_sets):
    step = 1e-6
    worst_x = 0.0
    worst_y = 0.0
    for params in param_sets:
        closed = closed_form_grad_gx(params)
        numeric = _origin_derivatives(params)[2]
        scale = max(1.0, float(np.max(np.abs(closed))))
        worst_x = max(worst_x,
                      float(np.max(np.abs(numeric - closed)) / scale))

        def gy_row(q):
            mh = resistance(params, q)
            return -np.linalg.solve(mh[:2, :2], mh[:2, 2:])[1, :]

        for j in range(3):
            dq = np.zeros(3)
            dq[j] = step
            grad = (gy_row(dq) - gy_row(-dq)) / (2.0 * step)
            worst_y = max(worst_y, float(np.max(np.abs(grad))))
    ok = worst_x <= 1e-5 and worst_y <= 1e-6
    _report(3, ok,
            f"gradGx_relgap={worst_x:.3e} (tol 1e-5) "
            f"gradGy_max={worst_y:.3e} (tol 1e-6)")


def test_criterion_04_two_displacement_paths_agree(param_sets):
    freqs = np.logspace(-2.0, 2.0, 20)
    worst = 0.0
    for params in param_sets:
        model = displacement_model(params)
        for omega in freqs:
            a_plus = resolvents(model.a, float(omega))[0]
            res = _dx2_terms(model, float(omega))[0]
            quad = float(_dx2_quadrature(model, np.array([omega]),
                                         a_plus[None])[0])
            worst = max(worst, abs(res - quad) / max(1.0, abs(quad)))
    _report(4, worst <= 1e-8,
            f"max_path_gap={worst:.3e} over {N_SETS} sets x 20 "
            f"frequencies, tol 1e-8")


def test_criterion_05_displacement_peaks_at_finite_frequency():
    curve = frequency_sweep(CANON, 1e-2, 1e2, n_grid=48)
    star = abs(curve.dx2_star)
    low = abs(net_displacement_quadratic(CANON, 1e-4 * curve.omega_star))
    high = abs(net_displacement_quadratic(CANON, 1e4 * curve.omega_star))
    ok = (not curve.boundary and low < 1e-3 * star and high < 1e-3 * star)
    _report(5, ok,
            f"omega_star={curve.omega_star:.6f} dx2_star={star:.6e} "
            f"low_ratio={low / star:.3e} high_ratio={high / star:.3e} "
            f"interior={not curve.boundary}")


def test_criterion_06_amplitude_error_shrinks_linearly():
    omega = 0.62
    dx2 = net_displacement_quadratic(CANON, omega)
    epsilons = (1e-2, 3e-3, 1e-3)
    errors = []
    for eps in epsilons:
        report = displacement_per_period(
            CANON, Configuration.straight(), epsilon=eps, omega=omega,
            burn_in_periods=10, measure_periods=1)
        errors.append(abs(report.delta_x / eps ** 2 - dx2))
    orders = [
        float(np.log(errors[k] / errors[k + 1])
              / np.log(epsilons[k] / epsilons[k + 1]))
        for k in range(2)]
    ok = all(1.75 <= p <= 2.25 for p in orders)
    _report(6, ok,
            f"observed_orders=({orders[0]:.3f}, {orders[1]:.3f}) expected "
            f"in [1.75, 2.25]; errors={[f'{e:.3e}' for e in errors]}")


def test_criterion_07_symmetric_set_preserved():
    params = SwimmerParams.uniform(1.0, 0.8, 1.5, 1.0, 1.0)
    period = 2.0 * np.pi
    t_final = 10.0 * period
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, t_final, 201)
    field = TabulatedField(times,
                           1.0 + 0.3 * rng.standard_normal(201),
                           0.5 * rng.standard_normal(201))
    start = Configuration(0.0, 0.0, 0.2, 0.35, 0.35)
    report = symmetry_experiment(params, start, field, t_final=t_final,
                                 dt=period / 2000.0)
    worst = max(report.max_alpha_gap, report.max_abs_x, report.max_abs_y)
    _report(7, worst <= 1e-9,
            f"max_symmetry_gap={worst:.3e} over {report.steps} steps, "
            f"tol 1e-9")


def test_criterion_08_bracket_identities_and_rank():
    detail = []
    ok = True
    for theta in (0.0, 0.3, -0.3, 0.7, -0.7):
        ident = equilibrium_identities(CANON, theta)
        rank = lie_rank(CANON, np.array([0, 0, theta, 0, 0.0]), depth=3)
        residual2 = ident.corrected_gap / ident.bracket_norm
        here = (ident.alignment_residual <= 1e-8
                and residual2 <= 1e-5
                and rank.rank == 4
                and rank.gap_4_5 >= 1e4)
        ok = ok and here
        detail.append(
            f"theta={theta:+.1f}: r1={ident.alignment_residual:.1e} "
            f"r2={residual2:.1e} rank={rank.rank} "
            f"gap45={rank.gap_4_5:.1e}")
    _report(8, ok, "; ".join(detail) + " (r1 tol 1e-8, r2 tol 1e-5)")


def test_criterion_09_integrator_order():
    field = SinusoidalField(1.0, 0.3, 1.0)
    start = Configuration(0.0, 0.0, 0.2, 0.4, -0.3)

    def final(dt):
        return integrate(CANON, start, field, t_final=2.0,
                         dt=dt).states[-1]

    y1, y2, y4 = final(0.05), final(0.025), final(0.0125)
    order = float(np.log2(np.linalg.norm(y1 - y2)
                          / np.linalg.norm(y2 - y4)))
    _report(9, order >= 3.9, f"richardson_order={order:.3f}, need >= 3.9")


def test_criterion_10_deterministic_outputs(tmp_path):
    first = run_validation()
    second = run_validation()
    identical = first.text() == second.text()

    traj = integrate(CANON, Configuration.straight(),
                     SinusoidalField(1.0, 0.05, 1.0),
                     t_final=1.0, dt=0.01)
    path = tmp_path / "roundtrip.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    exact = (np.array_equal(traj.times, back.times)
             and np.array_equal(traj.states, back.states)
             and np.array_equal(traj.field_samples, back.field_samples))
    ok = identical and first.passed and exact
    _report(10, ok,
            f"reports_identical={identical} all_checks={first.passed} "
            f"csv_bit_exact={exact}")
