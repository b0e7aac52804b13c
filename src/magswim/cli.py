"""Command-line front end.

Exit codes follow the usual triage: 0 on success, 1 when an analysis
assertion fails (an instability, a residual above tolerance, a failed
validation check), 2 for usage and configuration problems.

Every ``--json`` report embeds the exact parameter echo, the solver
settings, and the artifact version, so a plot made from a report file
can be reproduced from that file alone.  When an analysis error aborts a
command, the report file carries a machine-readable error record instead
of results.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .brackets import equilibrium_identities, lie_rank
from .checks import run_validation
from .errors import AnalysisError, ConfigError, MagswimError
from .linear import (
    char_poly,
    closed_form_angle_matrix,
    frequency_sweep,
    linearize_angles,
    routh_hurwitz_stable,
)
from .model import ConstantField, SinusoidalField, TabulatedField
from .runconfig import RunConfig, load_config, parse_config, resolved_dt
from .serialize import (
    format_cell,
    write_json_report,
    write_trajectory_csv,
    write_trajectory_jsonl,
)
from .simulate import displacement_per_period, integrate, symmetry_experiment

__all__ = ["main"]


def _load(args: argparse.Namespace) -> RunConfig:
    if args.config is None:
        return parse_config("")
    return load_config(args.config)


def _out_dir(args: argparse.Namespace, config: RunConfig) -> Path:
    raw = args.output_dir if getattr(args, "output_dir", None) else \
        config.output_dir
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _field_echo(config: RunConfig) -> dict[str, Any]:
    field = config.field
    if isinstance(field, SinusoidalField):
        return {"kind": field.kind, "hx0": field.hx0,
                "epsilon": field.epsilon, "omega": field.omega}
    if isinstance(field, ConstantField):
        return {"kind": field.kind, "hx": field.hx, "hy": field.hy}
    if isinstance(field, TabulatedField):
        return {"kind": field.kind,
                "times": [float(v) for v in field.times],
                "hx": [float(v) for v in field.hx],
                "hy": [float(v) for v in field.hy]}
    return {"kind": field.kind}


def _echo(config: RunConfig) -> dict[str, Any]:
    p = config.params
    c = config.initial
    return {
        "params": {"L": p.L, "xi": list(p.xi), "eta": list(p.eta),
                   "K": p.K, "M": p.M},
        "initial": {"x": c.x, "y": c.y, "theta": c.theta,
                    "alpha2": c.alpha2, "alpha3": c.alpha3},
        "field": _field_echo(config),
        "solver": {"dt": config.dt, "t_final": config.t_final,
                   "burn_in_periods": config.burn_in_periods,
                   "measure_periods": config.measure_periods},
        "applied_defaults": list(config.applied_defaults),
    }


def _require_unit_hx(config: RunConfig) -> None:
    """The quadratic theory and ``displacement_per_period`` take ``Hx = 1``;
    refuse a sinusoidal field that says otherwise rather than ignore it."""
    field = config.field
    if isinstance(field, SinusoidalField) and field.hx0 != 1.0:
        raise ConfigError(
            f"[field] hx0 = {field.hx0!r}, but this command assumes "
            f"hx0 = 1; fold it into the parameters instead (M * hx0 and "
            f"epsilon / hx0 give the same dynamics)")


def _run_reported(args: argparse.Namespace, command: str, config: RunConfig,
                  body: Callable[[], tuple[dict[str, Any], int]]) -> int:
    """Run ``body`` and mirror its outcome into the optional JSON report."""
    json_path = getattr(args, "json", None)
    base: dict[str, Any] = {
        "format": "magswim.report",
        "version": __version__,
        "command": command,
    }
    base.update(_echo(config))
    try:
        results, code = body()
    except AnalysisError as exc:
        if json_path is not None:
            base["error"] = {"type": type(exc).__name__,
                             "message": str(exc)}
            write_json_report(json_path, base)
            print(f"wrote {json_path}")
        raise
    if json_path is not None:
        base["results"] = results
        write_json_report(json_path, base)
        print(f"wrote {json_path}")
    return code


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args)
    dt = resolved_dt(config)
    traj = integrate(config.params, config.initial, config.field,
                     t_final=config.t_final, dt=dt)
    out = _out_dir(args, config)
    written = []
    if "csv" in config.formats:
        path = out / "trajectory.csv"
        write_trajectory_csv(traj, path)
        written.append(path)
    if "jsonl" in config.formats:
        path = out / "trajectory.jsonl"
        metadata = _echo(config)
        metadata["artifact_version"] = __version__
        metadata["solver"]["dt_resolved"] = dt
        write_trajectory_jsonl(traj, path, metadata=metadata)
        written.append(path)
    final = traj.final()
    print(f"steps {len(traj) - 1} dt {dt!r}")
    print(f"final x={final.x!r} y={final.y!r} theta={final.theta!r} "
          f"alpha2={final.alpha2!r} alpha3={final.alpha3!r}")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_displacement(args: argparse.Namespace) -> int:
    config = _load(args)
    _require_unit_hx(config)
    if args.epsilon is not None:
        epsilon = args.epsilon
    elif isinstance(config.field, SinusoidalField):
        epsilon = config.field.epsilon
    else:
        raise ConfigError(
            "displacement needs a sinusoidal drive; set [field] kind or "
            "pass --epsilon/--omega")
    if args.omega is not None:
        omega = args.omega
    elif isinstance(config.field, SinusoidalField):
        omega = config.field.omega
    else:
        raise ConfigError("displacement needs --omega without a "
                          "sinusoidal [field]")

    def body() -> tuple[dict[str, Any], int]:
        report = displacement_per_period(
            config.params, config.initial, epsilon=epsilon, omega=omega,
            burn_in_periods=config.burn_in_periods,
            measure_periods=config.measure_periods,
            dt=config.dt)
        print(f"epsilon {epsilon!r} omega {omega!r}")
        print(f"delta_x {report.delta_x!r}")
        print(f"delta_y {report.delta_y!r}")
        print(f"per_period {report.delta_x / report.periods_used!r}")
        print(f"burn_in_periods {report.burn_in_periods} "
              f"measured {report.periods_used}")
        print(f"theta_drift {report.theta_drift!r} "
              f"shape_gap {report.shape_gap!r}")
        print(f"converged {report.converged}")
        results = {
            "epsilon": epsilon, "omega": omega,
            "delta_x": report.delta_x, "delta_y": report.delta_y,
            "periods_used": report.periods_used,
            "burn_in_periods": report.burn_in_periods,
            "theta_drift": report.theta_drift,
            "shape_gap": report.shape_gap,
            "converged": report.converged,
        }
        return results, 0 if report.converged else 1

    return _run_reported(args, "displacement", config, body)


def cmd_symmetry(args: argparse.Namespace) -> int:
    config = _load(args)

    def body() -> tuple[dict[str, Any], int]:
        report = symmetry_experiment(config.params, config.initial,
                                     config.field,
                                     t_final=config.t_final,
                                     dt=config.dt)
        print(f"steps {report.steps} dt {report.dt!r}")
        print(f"max_alpha_gap {report.max_alpha_gap!r}")
        print(f"max_abs_x {report.max_abs_x!r}")
        print(f"max_abs_y {report.max_abs_y!r}")
        print(f"tolerance {report.tolerance!r}")
        verdict = "PASS" if report.within_tolerance else "FAIL"
        print(f"symmetry {verdict}")
        results = {
            "max_alpha_gap": report.max_alpha_gap,
            "max_abs_x": report.max_abs_x,
            "max_abs_y": report.max_abs_y,
            "dt": report.dt, "steps": report.steps,
            "tolerance": report.tolerance,
            "within_tolerance": report.within_tolerance,
        }
        return results, 0 if report.within_tolerance else 1

    return _run_reported(args, "symmetry", config, body)


def _print_matrix(name: str, matrix: np.ndarray) -> None:
    for i, row in enumerate(matrix):
        cells = " ".join(repr(float(v)) for v in row)
        print(f"{name}[{i}] {cells}")


def cmd_linearize(args: argparse.Namespace) -> int:
    config = _load(args)
    _require_unit_hx(config)

    def body() -> tuple[dict[str, Any], int]:
        numeric = linearize_angles(config.params)
        _print_matrix("A", numeric.a)
        print("b " + " ".join(repr(float(v)) for v in numeric.b))
        coeffs = char_poly(numeric.a)
        print("char " + " ".join(repr(c) for c in coeffs))
        stable = routh_hurwitz_stable(coeffs)
        eigs = np.sort(np.linalg.eigvals(numeric.a).real)
        print("eig_real " + " ".join(repr(float(v)) for v in eigs))
        print(f"stable {stable}")
        results: dict[str, Any] = {
            "a": [[float(v) for v in row] for row in numeric.a],
            "b": [float(v) for v in numeric.b],
            "char_coeffs": list(coeffs),
            "eig_real": [float(v) for v in eigs],
            "stable": stable,
        }
        code = 0
        pattern = (config.params.xi[1] == config.params.xi[2]
                   and config.params.eta[1] == config.params.eta[2])
        if pattern:
            closed = closed_form_angle_matrix(config.params)
            gap = float(np.max(np.abs(numeric.a - closed.a))
                        / np.max(np.abs(closed.a)))
            print(f"closed_form_relgap {gap!r}")
            results["closed_form_relgap"] = gap
            if gap > 1e-6:
                print("closed form and finite differences disagree",
                      file=sys.stderr)
                code = 1
        else:
            print("closed_form_relgap n/a (links 2 and 3 differ)")
            results["closed_form_relgap"] = None
        return results, code

    return _run_reported(args, "linearize", config, body)


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load(args)
    _require_unit_hx(config)
    omega_min = args.omega_min if args.omega_min is not None else \
        config.omega_min
    omega_max = args.omega_max if args.omega_max is not None else \
        config.omega_max
    n_grid = args.n_grid if args.n_grid is not None else config.n_grid

    def body() -> tuple[dict[str, Any], int]:
        curve = frequency_sweep(config.params, omega_min, omega_max,
                                n_grid=n_grid)
        out = _out_dir(args, config)
        path = out / "sweep.csv"
        with open(path, "w") as fh:
            fh.write("omega,dx2\n")
            for w, v in zip(curve.omegas, curve.dx2):
                fh.write(f"{format_cell(w)},{format_cell(v)}\n")
        print(f"omega_star {curve.omega_star!r}")
        print(f"dx2_star {curve.dx2_star!r}")
        print(f"boundary {curve.boundary}")
        print(f"near_zero {curve.near_zero}")
        print(f"path_gap {curve.path_gap!r} "
              f"evaluations {curve.evaluations}")
        if curve.near_zero:
            print("curve is zero to roundoff: this drag pattern cannot "
                  "translate at quadratic order")
        print(f"wrote {path}")
        results = {
            "omega": [float(v) for v in curve.omegas],
            "dx2": [float(v) for v in curve.dx2],
            "omega_star": curve.omega_star,
            "dx2_star": curve.dx2_star,
            "boundary": curve.boundary,
            "near_zero": curve.near_zero,
            "path_gap": curve.path_gap,
            "evaluations": curve.evaluations,
        }
        return results, 0

    return _run_reported(args, "sweep", config, body)


def cmd_controllability(args: argparse.Namespace) -> int:
    config = _load(args)
    thetas = args.theta if args.theta else [0.0, 0.3, -0.3, 0.7, -0.7]

    def body() -> tuple[dict[str, Any], int]:
        failed = False
        rows = []
        for theta in thetas:
            report = equilibrium_identities(config.params, theta)
            rank = lie_rank(config.params,
                            np.array([0.0, 0.0, theta, 0.0, 0.0]),
                            depth=config.bracket_depth)
            stencil_rel = report.corrected_gap / report.bracket_norm
            ok = (report.alignment_residual <= 1e-8
                  and stencil_rel <= 1e-5
                  and rank.rank == 4
                  and rank.gap_4_5 >= 1e4)
            failed = failed or not ok
            verdict = "PASS" if ok else "FAIL"
            print(f"theta {theta!r} {verdict}")
            print(f"  alignment_residual {report.alignment_residual!r}")
            print(f"  stencil_relgap {stencil_rel!r}")
            print(f"  rank {rank.rank} gap45 {rank.gap_4_5!r} "
                  f"depth {rank.depth}")
            # the scalar shortcut is reported, not asserted: it is off
            # by an order-one factor at every theta
            print(f"  scalar_shortcut_gap {report.claimed_gap!r} "
                  f"(|fy| {report.fy_norm!r}, informational)")
            rows.append({
                "theta": theta, "passed": ok,
                "alignment_residual": report.alignment_residual,
                "stencil_relgap": stencil_rel,
                "scalar_shortcut_gap": report.claimed_gap,
                "fy_norm": report.fy_norm,
                "rank": rank.rank,
                "gap_4_5": rank.gap_4_5,
                "depth": rank.depth,
                "singular_values": [float(v)
                                    for v in rank.singular_values],
            })
        return {"poses": rows}, 1 if failed else 0

    return _run_reported(args, "controllability", config, body)


def cmd_validate(args: argparse.Namespace) -> int:
    report = run_validation()
    text = report.text()
    sys.stdout.write(text)
    if args.output is not None:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    if args.json is not None:
        write_json_report(args.json, {
            "format": "magswim.validation",
            "version": __version__,
            "passed": report.passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in report.results
            ],
        })
        print(f"wrote {args.json}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magswim",
        description="Simulation and analysis of a three-link "
                    "magneto-elastic swimmer in a viscous fluid.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str,
            report: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", default=None,
                       help="INI run configuration (defaults apply "
                            "when omitted)")
        if report:
            p.add_argument("--json", default=None,
                           help="write a JSON report with the full "
                                "parameter echo here")
        p.set_defaults(func=func)
        return p

    p = add("simulate", cmd_simulate,
            "integrate a trajectory and write it out", report=False)
    p.add_argument("--output-dir", default=None)

    p = add("displacement", cmd_displacement,
            "net displacement per forcing period")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)

    add("symmetry", cmd_symmetry,
        "check that the symmetric invariant set is preserved")

    add("linearize", cmd_linearize,
        "linearized shape dynamics and stability at the straight state")

    p = add("sweep", cmd_sweep,
            "frequency sweep of the quadratic displacement")
    p.add_argument("--omega-min", type=float, default=None)
    p.add_argument("--omega-max", type=float, default=None)
    p.add_argument("--n-grid", type=int, default=None)
    p.add_argument("--output-dir", default=None)

    p = add("controllability", cmd_controllability,
            "bracket identities and accessibility rank at straight states")
    p.add_argument("--theta", type=float, nargs="*", default=None)

    p = add("validate", cmd_validate,
            "run the deterministic self-validation suite", report=False)
    p.add_argument("--output", default=None,
                   help="also write the text report here")
    p.add_argument("--json", default=None,
                   help="also write a JSON report here")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except AnalysisError as exc:
        print(f"analysis failure: {exc}", file=sys.stderr)
        return 1
    except MagswimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
