"""Command-line front end.

Exit codes follow the usual triage: 0 on success, 1 when an analysis
assertion fails (an instability, a residual above tolerance, a failed
validation check), 2 for usage and configuration problems, an output
path that cannot be written among them.

Every ``--json`` report embeds the exact parameter echo, the initial
state, field, solver and analysis settings its command reads
(``ECHO_KEYS``), and the artifact version, so a plot made from a report
file can be reproduced from that file alone.  When an analysis error aborts a
command, the report file carries a machine-readable error record
instead of results.

Each command states its results once, as one dict: the ``--json``
report holds it under ``results``, and the text lines are templates
filled from it (``_say``), so the two cannot drift apart.
"""
from __future__ import annotations

import dataclasses
import string
import sys
from argparse import ArgumentParser, Namespace
from pathlib import Path
from typing import Any

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
from .model import FieldProgram, SinusoidalField
from .runconfig import RunConfig, load_config, parse_config
from .serialize import (
    write_json_report,
    write_trajectory_csv,
    write_trajectory_jsonl,
)
from .simulate import displacement_per_period, integrate, symmetry_experiment

__all__ = ["main"]


def _load(args: Namespace) -> RunConfig:
    """The run: the ``--config`` file, if any, with each value flag given
    set as the "section.key" its ``dest`` names."""
    flags = {name: value for name, value in vars(args).items()
             if "." in name and value is not None}
    if args.config is None:
        return parse_config("", flags)
    return load_config(args.config, flags)


def _out_dir(config: RunConfig) -> Path:
    path = Path(config.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _plain(value: Any) -> Any:
    """``value`` as JSON-ready Python: a dataclass or a field program as a
    dict of its public attributes, a tuple as a list, an array or a numpy
    scalar as Python numbers."""
    if isinstance(value, FieldProgram):
        return {"kind": value.kind, **{
            key: _plain(item) for key, item in vars(value).items()
            if not key.startswith("_")}}
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


class _Lines(string.Formatter):
    """``!j`` writes a sequence as its space-separated reprs, ``!v`` a truth
    value as PASS or FAIL."""

    def convert_field(self, value: Any, conversion: str | None) -> Any:
        if conversion == "j":
            return " ".join(map(repr, value))
        if conversion == "v":
            return "PASS" if value else "FAIL"
        return super().convert_field(value, conversion)


def _say(lines: tuple[str, ...], results: dict[str, Any]) -> None:
    """Print each template of ``lines`` filled from ``results``."""
    for line in lines:
        print(_Lines().vformat(line, (), results))


# what each command reads of the run beside its parameters, and so
# echoes: the sections it reads whole, then its "section.key" settings
ECHO_KEYS = {
    "simulate": (("initial", "field"), ("solver.dt", "solver.t_final")),
    "symmetry": (("initial", "field"), ("solver.dt", "solver.t_final")),
    "displacement": (("initial", "field"),
                     ("solver.dt", "solver.burn_in_periods",
                      "solver.measure_periods")),
    # linearize and sweep read the field's kind and hx0 to hold it to 1
    "linearize": ((), ("field.kind", "field.hx0")),
    "sweep": ((), ("field.kind", "field.hx0", "analysis.omega_min",
                   "analysis.omega_max", "analysis.n_grid")),
    "controllability": ((), ()),
}


def _echo(config: RunConfig, command: str) -> dict[str, Any]:
    """The parameters, ``ECHO_KEYS[command]``, its keys grouped by section
    (every report has a ``solver`` group; a ``field`` key the field's kind
    does not take is left out), and the applied defaults among them."""
    sections, keys = ECHO_KEYS[command]
    groups: dict[str, dict[str, Any]] = {"solver": {}}
    for name in keys:
        section, _, key = name.partition(".")
        source = config.field if section == "field" else config
        if hasattr(source, key):
            groups.setdefault(section, {})[key] = getattr(source, key)
    # a default is listed when its section or its "section.key" is echoed
    echoed = {"params", *sections, *keys}
    return _plain({"params": config.params,
                   **{key: getattr(config, key) for key in sections},
                   **groups,
                   "applied_defaults": [
                       name for name in config.applied_defaults
                       if {name, name.partition(".")[0]} & echoed]})


def _require_unit_hx(config: RunConfig) -> SinusoidalField:
    """The run's sinusoidal field, which the quadratic theory and
    ``displacement_per_period`` take with ``Hx = 1``; refuse any other."""
    field = config.field
    if not isinstance(field, SinusoidalField):
        raise ConfigError(
            f"[field] kind = {field.kind}, but this command runs the "
            f"sinusoidal drive; set [field] kind = sinusoidal")
    if field.hx0 != 1.0:
        raise ConfigError(
            f"[field] hx0 = {field.hx0!r}, but this command assumes "
            f"hx0 = 1; fold it into the parameters instead (M * hx0 and "
            f"epsilon / hx0 give the same dynamics)")
    return field


# a command's results (what a --json report holds) and its exit code
Outcome = tuple[dict[str, Any], int]


def _run_reported(args: Namespace) -> int:
    """Load the run, run the command ``args.func`` on it, and mirror its
    outcome, results or analysis error, into the optional JSON report."""
    config = _load(args)
    report: dict[str, Any] = {
        "format": "magswim.report",
        "version": __version__,
        "command": args.command,
        **_echo(config, args.command),
    }
    try:
        report["results"], code = args.func(config, args)
    except AnalysisError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        _write_report(args, report)
        raise
    _write_report(args, report)
    return code


def _write_report(args: Namespace, report: dict[str, Any]) -> None:
    if getattr(args, "json", None) is not None:
        write_json_report(args.json, report)
        print(f"wrote {args.json}")


SIMULATE = ("steps {steps} dt {dt!r}", "final x={final[x]!r} "
            "y={final[y]!r} theta={final[theta]!r} "
            "alpha2={final[alpha2]!r} alpha3={final[alpha3]!r}")


def cmd_simulate(config: RunConfig, args: Namespace) -> Outcome:
    traj = integrate(config.params, config.initial, config.field,
                     t_final=config.t_final, dt=config.dt)
    out = _out_dir(config)
    written = []
    if "csv" in config.formats:
        path = out / "trajectory.csv"
        write_trajectory_csv(traj, path)
        written.append(path)
    if "jsonl" in config.formats:
        path = out / "trajectory.jsonl"
        metadata = _echo(config, "simulate")
        metadata["artifact_version"] = __version__
        write_trajectory_jsonl(traj, path, metadata=metadata)
        written.append(path)
    _say(SIMULATE, {"steps": len(traj) - 1, "dt": config.dt,
                    "final": _plain(traj.final())})
    for path in written:
        print(f"wrote {path}")
    return {}, 0


# per_period is text-only: the report holds delta_x and periods_used
DISPLACEMENT = ("epsilon {epsilon!r} omega {omega!r}", "delta_x {delta_x!r}",
                "delta_y {delta_y!r}", "per_period {per_period!r}",
                "burn_in_periods {burn_in_periods} measured {periods_used}",
                "theta_drift {theta_drift!r} shape_gap {shape_gap!r}",
                "converged {converged}")


def cmd_displacement(config: RunConfig, args: Namespace) -> Outcome:
    field = _require_unit_hx(config)
    report = displacement_per_period(
        config.params, config.initial, epsilon=field.epsilon,
        omega=field.omega, burn_in_periods=config.burn_in_periods,
        measure_periods=config.measure_periods, dt=config.dt)
    results = {"epsilon": field.epsilon, "omega": field.omega,
               **_plain(report)}
    _say(DISPLACEMENT, {
        **results, "per_period": report.delta_x / report.periods_used})
    return results, 0 if report.converged else 1


SYMMETRY = ("steps {steps} dt {dt!r}", "max_alpha_gap {max_alpha_gap!r}",
            "max_abs_x {max_abs_x!r}", "max_abs_y {max_abs_y!r}",
            "tolerance {tolerance!r}", "symmetry {within_tolerance!v}")


def cmd_symmetry(config: RunConfig, args: Namespace) -> Outcome:
    report = symmetry_experiment(config.params, config.initial, config.field,
                                 t_final=config.t_final, dt=config.dt)
    results = {**_plain(report), "within_tolerance": report.within_tolerance}
    _say(SYMMETRY, results)
    return results, 0 if report.within_tolerance else 1


LINEARIZE = ("A[0] {a[0]!j}", "A[1] {a[1]!j}", "A[2] {a[2]!j}", "b {b!j}",
             "char {char_coeffs!j}", "eig_real {eig_real!j}",
             "stable {stable}")


def cmd_linearize(config: RunConfig, args: Namespace) -> Outcome:
    _require_unit_hx(config)
    numeric = linearize_angles(config.params)
    coeffs = char_poly(numeric.a)
    results = _plain({
        "a": numeric.a, "b": numeric.b, "char_coeffs": coeffs,
        "eig_real": np.sort(np.linalg.eigvals(numeric.a).real),
        "stable": routh_hurwitz_stable(coeffs),
        "closed_form_relgap": None})
    relgap = "closed_form_relgap n/a (links 2 and 3 differ)"
    code = 0
    try:
        closed = closed_form_angle_matrix(config.params)
    except ValueError:
        pass    # links 2 and 3 differ in drag: no closed form
    else:
        gap = float(np.max(np.abs(numeric.a - closed.a))
                    / np.max(np.abs(closed.a)))
        results["closed_form_relgap"] = gap
        relgap = "closed_form_relgap {closed_form_relgap!r}"
        code = int(gap > 1e-6)
    _say(LINEARIZE + (relgap,), results)
    if code:
        print("closed form and numeric A disagree", file=sys.stderr)
    return results, code


SWEEP = ("omega_star {omega_star!r}", "dx2_star {dx2_star!r}",
         "boundary {boundary}", "near_zero {near_zero}",
         "evaluations {evaluations}")


def cmd_sweep(config: RunConfig, args: Namespace) -> Outcome:
    _require_unit_hx(config)
    curve = frequency_sweep(config.params, config.omega_min,
                            config.omega_max, n_grid=config.n_grid)
    results = _plain(curve)
    results["omega"] = results.pop("omegas")
    path = _out_dir(config) / "sweep.csv"
    with open(path, "w") as fh:
        fh.write("omega,dx2\n")
        for w, v in zip(results["omega"], results["dx2"]):
            fh.write(f"{w:.17g},{v:.17g}\n")
    _say(SWEEP, results)
    if curve.near_zero:
        print("curve is zero to roundoff: this drag pattern cannot "
              "translate at quadratic order")
    print(f"wrote {path}")
    return results, 0


# reported, not asserted: the scalar shortcut is off by an order-one factor
# at every theta, and the alignment residual is rounding (body-frame fx = 0)
POSE = ("theta {theta!r} {passed!v}",
        "  alignment_residual {alignment_residual!r}",
        "  stencil_relgap {stencil_relgap!r}",
        "  rank {rank} gap45 {gap_4_5!r} depth {depth}",
        "  scalar_shortcut_gap {scalar_shortcut_gap!r} "
        "(|fy| {fy_norm!r}, informational)")


def cmd_controllability(config: RunConfig, args: Namespace) -> Outcome:
    # the rank is read in the body frame, the same at every theta
    rank = lie_rank(config.params, np.zeros(5))
    rows = []
    for theta in args.theta or [0.0, 0.3, -0.3, 0.7, -0.7]:
        report = equilibrium_identities(config.params, theta)
        stencil_rel = report.corrected_gap / report.bracket_norm
        row = _plain({
            "theta": theta,
            "passed": (stencil_rel <= 1e-5 and rank.rank == 4
                       and rank.gap_4_5 >= 1e4),
            "alignment_residual": report.alignment_residual,
            "stencil_relgap": stencil_rel,
            "scalar_shortcut_gap": report.claimed_gap,
            "fy_norm": report.fy_norm,
            "rank": rank.rank,
            "gap_4_5": rank.gap_4_5,
            "depth": rank.depth,
            "singular_values": rank.singular_values,
        })
        _say(POSE, row)
        rows.append(row)
    return {"poses": rows}, int(not all(r["passed"] for r in rows))


def cmd_validate(args: Namespace) -> int:
    report = run_validation()
    text = report.text()
    sys.stdout.write(text)
    if args.output is not None:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    _write_report(args, {
        "format": "magswim.validation",
        "version": __version__,
        "passed": report.passed,
        "checks": _plain(report.results),
    })
    return 0 if report.passed else 1


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="magswim",
        description="Simulation and analysis of a three-link "
                    "magneto-elastic swimmer in a viscous fluid.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str,
            report: bool = True) -> ArgumentParser:
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

    # a value flag sets the config key its dest names (_load)
    p = add("simulate", cmd_simulate,
            "integrate a trajectory and write it out", report=False)
    p.add_argument("--output-dir", dest="output.directory")

    p = add("displacement", cmd_displacement,
            "net displacement per forcing period")
    p.add_argument("--epsilon", type=float, dest="field.epsilon")
    p.add_argument("--omega", type=float, dest="field.omega")

    add("symmetry", cmd_symmetry,
        "check that the symmetric invariant set is preserved")

    add("linearize", cmd_linearize,
        "linearized shape dynamics and stability at the straight state")

    p = add("sweep", cmd_sweep,
            "frequency sweep of the quadratic displacement")
    p.add_argument("--omega-min", type=float, dest="analysis.omega_min")
    p.add_argument("--omega-max", type=float, dest="analysis.omega_max")
    p.add_argument("--n-grid", type=int, dest="analysis.n_grid")
    p.add_argument("--output-dir", dest="output.directory")

    p = add("controllability", cmd_controllability,
            "bracket identities and accessibility rank at straight states")
    p.add_argument("--theta", type=float, nargs="+", default=None)

    # validate runs fixed inputs and reads no configuration
    p = sub.add_parser("validate",
                       help="run the deterministic self-validation suite")
    p.add_argument("--output", default=None,
                   help="also write the text report here")
    p.add_argument("--json", default=None,
                   help="also write a JSON report here")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error and 0 after --help
        return exc.code
    run = cmd_validate if args.command == "validate" else _run_reported
    try:
        return run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # every file a command reads goes through load_config, which
        # raises ConfigError, so this is an output it could not write
        print(f"invalid request: cannot write output: {exc}",
              file=sys.stderr)
        return 2
    except AnalysisError as exc:
        print(f"analysis failure: {exc}", file=sys.stderr)
        return 1
    except MagswimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
