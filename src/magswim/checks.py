"""Deterministic self-validation suite.

Every check runs fixed inputs through two independent routes and compares
the results; nothing here depends on wall time, the filesystem layout, or
random state that is not explicitly seeded.  Running the suite twice must
produce byte-identical reports, which is what makes it usable as a
regression gate on new machines and new numpy builds.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .brackets import equilibrium_identities, lie_rank
from .linear import (
    _QuadraticModel,
    _dx2_quadrature,
    _dx2_terms,
    closed_form_angle_matrix,
    closed_form_grad_gx,
    closed_form_skew_kernel,
    displacement_model,
    net_displacement_quadratic,
)
from .model import (
    Configuration,
    SinusoidalField,
    SwimmerParams,
    TabulatedField,
    apply_R_transform,
)
from .simulate import integrate, symmetry_experiment

__all__ = ["CheckResult", "ValidationReport", "run_validation"]

REPORT_FORMAT_VERSION = 1

CANON = SwimmerParams(1.0, (1.2, 0.8, 0.8), (3.0, 1.5, 1.5), 1.0, 1.0)
PALINDROME = SwimmerParams(1.1, (1.2, 0.8, 1.2), (3.0, 1.5, 3.0), 0.9, 1.1)
UNIFORM = SwimmerParams.uniform(1.0, 0.8, 1.5, 1.0, 1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"check {self.name} {verdict} {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def text(self) -> str:
        out = io.StringIO()
        out.write(f"magswim validation format {REPORT_FORMAT_VERSION}\n")
        for result in self.results:
            out.write(result.line() + "\n")
        failed = sum(1 for r in self.results if not r.passed)
        out.write(
            f"summary {len(self.results)} checks "
            f"{len(self.results) - failed} passed {failed} failed\n")
        return out.getvalue()


def _check_angle_matrix(model: _QuadraticModel) -> CheckResult:
    closed = closed_form_angle_matrix(CANON)
    scale = float(np.max(np.abs(closed.a)))
    gap = float(np.max(np.abs(model.a - closed.a)) / scale)
    return CheckResult("angle_matrix_closed_vs_numeric", gap < 1e-8,
                       f"relgap={gap!r} tol=1e-08")


def _check_grad_gx(model: _QuadraticModel) -> CheckResult:
    closed = closed_form_grad_gx(CANON)
    scale = float(np.max(np.abs(closed)))
    gap = float(np.max(np.abs(model.grad_gx - closed)) / scale)
    return CheckResult("coupling_gradient_closed_vs_numeric", gap < 1e-8,
                       f"relgap={gap!r} tol=1e-08")


def _check_skew_kernel(model: _QuadraticModel) -> CheckResult:
    u = closed_form_skew_kernel(CANON)
    gap = float(np.max(np.abs(model.w @ u)) / np.max(np.abs(model.w)))
    return CheckResult("skew_kernel_annihilation", gap < 1e-8,
                       f"relgap={gap!r} tol=1e-08")


def _check_displacement_two_path(model: _QuadraticModel) -> CheckResult:
    value = _dx2_terms(model, 0.62)[0]
    quad = _dx2_quadrature(model, 0.62)
    # the rational value against the resolvent's time-domain formula, and
    # against the closed forms' value through the resolvents
    agree = abs(value - quad) <= 1e-8 * max(1.0, abs(quad))
    frozen = 0.03202696038633996
    gap = abs(value - frozen) / abs(frozen)
    return CheckResult("displacement_two_path_and_frozen_value",
                       agree and gap < 1e-9,
                       f"value={value!r} relgap={gap!r}")


def _check_uniform_no_transport() -> CheckResult:
    value = net_displacement_quadratic(UNIFORM, 0.7)
    return CheckResult("uniform_drag_cannot_translate",
                       abs(value) < 1e-12, f"value={value!r} tol=1e-12")


def _check_bracket_stencil() -> CheckResult:
    report = equilibrium_identities(CANON, 0.3)
    rel = report.corrected_gap / report.bracket_norm
    return CheckResult("bracket_stencil_identity", rel < 1e-6,
                       f"relgap={rel!r} tol=1e-06")


def _check_rank() -> CheckResult:
    report = lie_rank(CANON, np.zeros(5), depth=3)
    ok = report.rank == 4 and report.gap_4_5 > 1e4
    return CheckResult(
        "straight_state_rank_four", ok,
        f"rank={report.rank} gap45={report.gap_4_5!r} tol=1e+04")


def _check_rk4_order() -> CheckResult:
    field = SinusoidalField(1.0, 0.3, 1.0)
    start = Configuration(0.0, 0.0, 0.2, 0.4, -0.3)

    def final(dt: float) -> np.ndarray:
        return integrate(CANON, start, field, t_final=2.0, dt=dt).states[-1]

    # keep lambda*dt inside the RK4 stability region: the fastest mode
    # of the canonical swimmer sits near -24
    y1, y2, y4 = final(0.05), final(0.025), final(0.0125)
    order = math.log2(np.linalg.norm(y1 - y2) / np.linalg.norm(y2 - y4))
    return CheckResult("rk4_order_richardson", 3.7 < order < 4.6,
                       f"order={order!r} window=(3.7,4.6)")


def _check_symmetry_invariant() -> CheckResult:
    rng = np.random.default_rng(2024)
    times = np.linspace(0.0, 4.0, 17)
    field = TabulatedField(times, 1.0 + 0.3 * rng.standard_normal(17),
                           0.4 * rng.standard_normal(17))
    start = Configuration(0.0, 0.0, 0.15, 0.3, 0.3)
    report = symmetry_experiment(UNIFORM, start, field, t_final=4.0,
                                 dt=0.01)
    worst = max(report.max_alpha_gap, report.max_abs_x, report.max_abs_y)
    return CheckResult("symmetric_invariant_set", report.within_tolerance,
                       f"worst={worst!r} tol={report.tolerance!r}")


def _check_reversal_equivariance() -> CheckResult:
    field = SinusoidalField(1.0, 0.4, 1.0)
    start = Configuration(0.2, -0.1, 0.3, 0.5, -0.2)
    period = field.period
    forward = integrate(PALINDROME, start, field, t_final=period,
                        dt=period / 500)
    mirrored_start = apply_R_transform(start)
    mirrored = integrate(PALINDROME, mirrored_start, field, t_final=period,
                         dt=period / 500)
    mapped = apply_R_transform(forward.final())
    gap = float(np.max(np.abs(mapped.as_array()
                              - mirrored.final().as_array())))
    return CheckResult("pi_rotation_equivariance", gap < 1e-9,
                       f"gap={gap!r} tol=1e-09")


def run_validation() -> ValidationReport:
    """Run every check, in a fixed order, on its fixed inputs; the report's
    ``text()`` is the same bytes on every run.  CANON's derivatives at the
    origin are derived once, for every check that reads them."""
    model = displacement_model(CANON)
    return ValidationReport(results=(
        _check_angle_matrix(model),
        _check_grad_gx(model),
        _check_skew_kernel(model),
        _check_displacement_two_path(model),
        _check_uniform_no_transport(),
        _check_bracket_stencil(),
        _check_rank(),
        _check_rk4_order(),
        _check_symmetry_invariant(),
        _check_reversal_equivariance(),
    ))
