"""Exit codes and outputs of the command-line front end."""
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from magswim import cli
from magswim.cli import main
from magswim.runconfig import parse_config
from magswim.serialize import read_trajectory_csv, read_trajectory_jsonl

UNIFORM_SYMMETRIC = """
[params]
xi = 0.8, 0.8, 0.8
eta = 1.5, 1.5, 1.5

[field]
kind = sinusoidal
epsilon = 0.2
omega = 1.0

[initial]
theta = 0.1
alpha2 = 0.3
alpha3 = 0.3

[solver]
dt = 0.02
t_final = 12.6
"""


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


class TestSimulate:
    def test_writes_both_formats(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f"""
[field]
kind = sinusoidal
epsilon = 0.05

[solver]
dt = 0.01
t_final = 1.0

[output]
directory = {tmp_path}
formats = csv, jsonl
""")
        assert main(["simulate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "steps 100" in out
        traj = read_trajectory_csv(tmp_path / "trajectory.csv")
        assert len(traj) == 101
        back, header = read_trajectory_jsonl(tmp_path / "trajectory.jsonl")
        assert header["solver"] == {"dt": 0.01, "t_final": 1.0}
        assert header["params"]["L"] == 1.0
        assert header["field"]["epsilon"] == 0.05
        assert "artifact_version" in header
        assert len(back) == 101

    def test_output_dir_flag_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[solver]\ndt = 0.05\nt_final = 0.5\n")
        target = tmp_path / "elsewhere"
        assert main(["simulate", "--config", cfg,
                     "--output-dir", str(target)]) == 0
        assert (target / "trajectory.csv").exists()

    def test_readme_example_config_runs(self, tmp_path, capsys):
        # the ```ini block of README.md, as printed
        readme = (Path(__file__).resolve().parents[1] / "README.md")
        text = re.search(r"```ini\n(.*?)```", readme.read_text(),
                         re.DOTALL).group(1)
        config = parse_config(text)
        assert config.field.epsilon == 1e-2
        assert main(["simulate", "--config", write_config(tmp_path, text),
                     "--output-dir", str(tmp_path)]) == 0
        traj = read_trajectory_csv(tmp_path / "trajectory.csv")
        assert traj.times[-1] == 62.83
        assert traj.times[1] == config.dt

    def test_readme_python_examples_run(self, tmp_path):
        # the three ```python blocks of README.md as one script, which
        # writes trajectory.csv to its working directory
        readme = (Path(__file__).resolve().parents[1] / "README.md")
        blocks = re.findall(r"```python\n(.*?)```", readme.read_text(),
                            re.DOTALL)
        assert len(blocks) == 3
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "\n".join(blocks)], cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert len(read_trajectory_csv(tmp_path / "trajectory.csv")) == 601


class TestDisplacement:
    def test_reports_net_translation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[field]
kind = sinusoidal
epsilon = 0.05
omega = 1.0

[solver]
dt = 0.015707963267948967
burn_in_periods = 6
""")
        assert main(["displacement", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "delta_x" in out and "converged True" in out

    def test_needs_periodic_drive(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[field]\nkind = constant\n")
        assert main(["displacement", "--config", cfg]) == 2
        assert "sinusoidal" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["kind = constant\nhy = 0.3",
                                       "kind = tabulated\nsamples = 0 1 0"])
    def test_flags_over_another_kind_are_stray_keys(self, tmp_path, capsys,
                                                    field):
        # a flag sets its [field] key, which this kind does not take
        kind = field.split()[2]
        cfg = write_config(tmp_path, f"[field]\n{field}\n")
        report = tmp_path / "displacement.json"
        assert main(["displacement", "--config", cfg, "--epsilon", "0.1",
                     "--omega", "3.0", "--json", str(report)]) == 2
        assert capsys.readouterr().err == (
            f"config error: [field] keys ['epsilon', 'omega'] do not apply "
            f"to kind = {kind}; remove them or change the kind\n")
        assert not report.exists()

    @pytest.mark.parametrize("field", [
        "kind = sinusoidal\nepsilon = 0.05\nomega = 2.0"])
    def test_report_echoes_the_drive_run(self, tmp_path, capsys, field):
        import json
        cfg = write_config(tmp_path, f"""
[field]
{field}

[solver]
dt = 0.05
burn_in_periods = 1
measure_periods = 1
""")
        report = tmp_path / "displacement.json"
        assert main(["displacement", "--config", cfg, "--epsilon", "0.1",
                     "--omega", "3.0", "--json", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["field"] == {"kind": "sinusoidal", "hx0": 1.0,
                                    "epsilon": 0.1, "omega": 3.0}

    def test_report_echoes_only_the_solver_keys_run(self, tmp_path, capsys):
        # whole periods of the drive are run, so t_final is not echoed
        import json
        cfg = write_config(tmp_path, """
[solver]
dt = 0.05
t_final = 62.0
burn_in_periods = 1
measure_periods = 1
""")
        report = tmp_path / "displacement.json"
        assert main(["displacement", "--config", cfg, "--epsilon", "0.1",
                     "--omega", "2.0", "--json", str(report)]) == 0
        assert json.loads(report.read_text())["solver"] == {
            "dt": 0.05, "burn_in_periods": 1, "measure_periods": 1}


SOLVER_ECHO = UNIFORM_SYMMETRIC.replace("t_final = 12.6", """t_final = 1.0
burn_in_periods = 2
measure_periods = 3

[output]
directory = {out}""")


class TestSolverEcho:
    """A report echoes the initial state, the field and the solver and
    analysis settings its command reads, and no other; ``displacement``
    with ``t_final`` set: ``test_report_echoes_only_the_solver_keys_run``.
    """

    @pytest.mark.parametrize("command, sections, echoed, analysis", [
        ("controllability", set(), {}, None),
        ("linearize", {"field"}, {}, None),
        ("sweep", {"field"}, {},
         {"omega_min": 0.01, "omega_max": 100.0, "n_grid": 64}),
        ("symmetry", {"initial", "field"}, {"dt": 0.02, "t_final": 1.0},
         None),
        ("displacement", {"initial", "field"},
         {"dt": 0.02, "burn_in_periods": 2, "measure_periods": 3}, None)],
        ids=["controllability", "linearize", "sweep", "symmetry",
             "displacement"])
    def test_report(self, tmp_path, capsys, command, sections, echoed,
                    analysis):
        import json
        cfg = write_config(tmp_path, SOLVER_ECHO.format(out=tmp_path))
        report = tmp_path / "report.json"
        main([command, "--config", cfg, "--json", str(report)])
        payload = json.loads(report.read_text())
        assert payload.keys() & {"initial", "field"} == sections
        assert payload["solver"] == echoed
        assert payload.get("analysis") == analysis

    def test_sweep_echoes_the_grid_its_flags_set(self, tmp_path, capsys):
        # an error record must say which grid failed
        import json
        cfg = write_config(tmp_path, f"""
[params]
K = 0.0
M = 0.0

[output]
directory = {tmp_path}
""")
        report = tmp_path / "report.json"
        assert main(["sweep", "--config", cfg, "--omega-max", "50",
                     "--n-grid", "32", "--json", str(report)]) == 1
        payload = json.loads(report.read_text())
        assert "error" in payload
        assert payload["analysis"] == {"omega_min": 0.01, "omega_max": 50.0,
                                       "n_grid": 32}
        # the flags replaced two defaults; the third is still one
        assert "analysis.omega_min" in payload["applied_defaults"]
        assert not {"analysis.omega_max", "analysis.n_grid"} & \
            set(payload["applied_defaults"])

    @pytest.mark.parametrize("command", ["linearize", "sweep"])
    @pytest.mark.parametrize("field, echo, defaults", [
        ("", {"kind": "sinusoidal", "hx0": 1.0},
         ["field.hx0", "field.kind"]),
        ("[field]\nepsilon = 0.3\n", {"kind": "sinusoidal", "hx0": 1.0},
         ["field.hx0", "field.kind"])],
        ids=["default", "sinusoidal"])
    def test_theory_echoes_only_the_field_keys_it_reads(
            self, tmp_path, capsys, command, field, echo, defaults):
        # the field's kind, and hx0 of a sinusoid (_require_unit_hx)
        import json
        cfg = write_config(tmp_path, field + f"[output]\ndirectory = "
                                             f"{tmp_path}\n")
        report = tmp_path / "report.json"
        assert main([command, "--config", cfg, "--json", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["field"] == echo
        assert [name for name in payload["applied_defaults"]
                if name.startswith("field.")] == defaults

    @pytest.mark.parametrize("field, flags, defaults", [
        ("kind = sinusoidal", ["--epsilon", "0.1"],
         ["field.hx0", "field.omega"]),
        ("epsilon = 0.1", ["--omega", "3.0"], ["field.hx0", "field.kind"])],
        ids=["sinusoidal_epsilon", "default_kind_omega"])
    def test_displacement_lists_only_the_defaults_of_the_drive_run(
            self, tmp_path, capsys, field, flags, defaults):
        # a flag's value is no default
        import json
        cfg = write_config(tmp_path, f"""
[field]
{field}

[solver]
dt = 0.05
burn_in_periods = 1
measure_periods = 1
""")
        report = tmp_path / "report.json"
        assert main(["displacement", "--config", cfg, *flags,
                     "--json", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert [name for name in payload["applied_defaults"]
                if name.startswith("field.")] == defaults

    def test_simulate_trajectory_header(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SOLVER_ECHO.format(out=tmp_path)
                           + "formats = jsonl\n")
        assert main(["simulate", "--config", cfg]) == 0
        _, header = read_trajectory_jsonl(tmp_path / "trajectory.jsonl")
        assert header.keys() & {"initial", "field"} == {"initial", "field"}
        assert header["solver"] == {"dt": 0.02, "t_final": 1.0}

    @pytest.mark.parametrize("command", sorted(cli.ECHO_KEYS))
    def test_applied_defaults_name_echoed_keys(self, tmp_path, capsys,
                                               command):
        # most keys left to their defaults; the run kept short
        import json
        text = f"""
[params]
xi = 0.8, 0.8, 0.8
eta = 1.5, 1.5, 1.5

[solver]
t_final = 1.0
burn_in_periods = 1

[output]
directory = {tmp_path}
formats = jsonl
"""
        cfg = write_config(tmp_path, text)
        if command == "simulate":
            main(["simulate", "--config", cfg])
            _, payload = read_trajectory_jsonl(tmp_path / "trajectory.jsonl")
        else:
            report = tmp_path / "report.json"
            main([command, "--config", cfg, "--json", str(report)])
            payload = json.loads(report.read_text())
        echoed = {f"{section}.{key}"
                  for section in ("params", "initial", "field")
                  if section in payload for key in payload[section]}
        echoed |= {f"{section}.{key}" for section in ("solver", "analysis")
                   for key in payload.get(section, {})}
        listed = payload["applied_defaults"]
        assert listed and set(listed) <= echoed
        assert listed == [name for name in parse_config(text).applied_defaults
                          if name in echoed]


class TestFlagsAreKeys:
    """A value flag sets the config key it stands for, so a run with the
    flag and a run with the key write the same bytes."""

    SOLVER = "[solver]\ndt = 0.05\nt_final = 0.5\nburn_in_periods = 1\n"

    @staticmethod
    def run(root, monkeypatch, capsys, config, argv):
        """Exit code, stdout, stderr and every written file but the
        config, of ``argv`` run in the fresh directory ``root``."""
        root.mkdir()
        monkeypatch.chdir(root)
        (root / "run.ini").write_text(config)
        code = main([*argv, "--config", "run.ini"])
        captured = capsys.readouterr()
        files = {str(path.relative_to(root)): path.read_bytes()
                 for path in sorted(root.rglob("*"))
                 if path.is_file() and path.name != "run.ini"}
        return code, captured.out, captured.err, files

    @pytest.mark.parametrize("command, flag, value, section, key", [
        ("displacement", "--epsilon", "0.1", "field", "epsilon"),
        ("displacement", "--omega", "3.0", "field", "omega"),
        ("sweep", "--omega-min", "0.1", "analysis", "omega_min"),
        ("sweep", "--omega-max", "50", "analysis", "omega_max"),
        ("sweep", "--n-grid", "32", "analysis", "n_grid"),
        ("sweep", "--output-dir", "out", "output", "directory"),
        ("simulate", "--output-dir", "out", "output", "directory")])
    def test_flag_and_key_write_the_same_bytes(
            self, tmp_path, monkeypatch, capsys, command, flag, value,
            section, key):
        report = [] if command == "simulate" else ["--json", "report.json"]
        by_flag = self.run(tmp_path / "flag", monkeypatch, capsys,
                           self.SOLVER, [command, flag, value, *report])
        by_key = self.run(tmp_path / "key", monkeypatch, capsys,
                          self.SOLVER + f"[{section}]\n{key} = {value}\n",
                          [command, *report])
        assert by_flag == by_key
        written = "out/trajectory.csv" if command == "simulate" \
            else "report.json"
        assert written in by_flag[3]

    @pytest.mark.parametrize("argv, message", [
        # a non-finite bound: TestSweep.test_non_finite_bound_is_a_usage_error
        (["sweep", "--omega-min", "-1"],
         "[analysis] needs 0 < omega_min < omega_max"),
        (["sweep", "--n-grid", "0"], "[analysis] n_grid must be positive"),
        (["displacement", "--epsilon", "nan"],
         "[field] epsilon = 'nan' is not a finite number"),
        (["displacement", "--omega", "-2"],
         "[field]: omega must be positive")])
    def test_invalid_flag_gets_its_keys_message(self, tmp_path, capsys,
                                                argv, message):
        report = tmp_path / "report.json"
        assert main([*argv, "--json", str(report)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not report.exists()


class TestAutoStep:
    """``dt = auto`` is echoed as the step it resolves to."""

    CONFIG = """
[params]
xi = 0.8, 0.8, 0.8
eta = 1.5, 1.5, 1.5

[field]
omega = 2.0

[solver]
dt = auto
t_final = 0.5
burn_in_periods = 1

[output]
directory = {out}
formats = jsonl
"""

    @pytest.mark.parametrize("command", ["simulate", "symmetry",
                                         "displacement"])
    def test_report_echoes_the_step_run(self, tmp_path, capsys, command):
        import json
        cfg = write_config(tmp_path, self.CONFIG.format(out=tmp_path))
        if command == "simulate":
            assert main(["simulate", "--config", cfg]) == 0
            _, payload = read_trajectory_jsonl(tmp_path / "trajectory.jsonl")
        else:
            report = tmp_path / "report.json"
            main([command, "--config", cfg, "--json", str(report)])
            payload = json.loads(report.read_text())
        dt = payload["solver"]["dt"]
        assert dt == math.pi / 2000.0
        if command != "displacement":
            # the step the run took, as its stdout states it
            assert f"dt {dt!r}\n" in capsys.readouterr().out


class TestSymmetry:
    def test_symmetric_setup_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, UNIFORM_SYMMETRIC)
        assert main(["symmetry", "--config", cfg]) == 0
        assert "symmetry PASS" in capsys.readouterr().out

    def test_asymmetric_drag_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[initial]
alpha2 = 0.3
alpha3 = 0.3
""")
        assert main(["symmetry", "--config", cfg]) == 2
        assert capsys.readouterr().err


class TestLinearize:
    def test_default_swimmer_is_stable(self, capsys):
        assert main(["linearize"]) == 0
        out = capsys.readouterr().out
        assert "stable True" in out
        assert "closed_form_relgap" in out

    def test_reports_when_closed_form_does_not_apply(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           "[params]\nxi = 1.2, 0.8, 0.9\n")
        assert main(["linearize", "--config", cfg]) == 0
        assert "n/a" in capsys.readouterr().out


class TestSweep:
    def test_finds_interior_peak(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f"""
[analysis]
omega_min = 0.3
omega_max = 1.2
n_grid = 16

[output]
directory = {tmp_path}
""")
        assert main(["sweep", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "omega_star 0.931" in out
        assert "boundary False" in out
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "omega,dx2"
        assert len(lines) == 17

    def test_grid_too_large_for_memory_is_an_invalid_request(
            self, tmp_path, capsys):
        # 8 TB of grid: numpy refuses the allocation before touching memory
        assert main(["sweep", "--n-grid", str(10**12),
                     "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "invalid request: n_grid = 1000000000000 is too large: the grid "
            "does not fit in memory\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_boundary_peak_leaves_stderr_clean(self, tmp_path):
        # the report says "boundary True"; a warning would add a cli.py
        # file:line and source line that move with every edit
        proc = subprocess.run(
            [sys.executable, "-m", "magswim.cli", "sweep", "--omega-max",
             "0.6", "--output-dir", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "boundary True" in proc.stdout
        assert "cli.py" not in proc.stderr

    def test_other_sweep_warnings_still_reach_the_user(self, tmp_path,
                                                       monkeypatch):
        real = cli.frequency_sweep

        def noisy(*args, **kwargs):
            warnings.warn("another sweep warning", UserWarning)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "frequency_sweep", noisy)
        with pytest.warns(UserWarning, match="another sweep warning"):
            assert main(["sweep", "--omega-max", "0.6", "--output-dir",
                         str(tmp_path)]) == 0

    def test_unstable_parameters_fail_analysis(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[params]\nK = 0.0\nM = 0.0\n")
        assert main(["sweep", "--config", cfg]) == 1
        assert "analysis failure" in capsys.readouterr().err

    def test_json_report_embeds_parameter_echo(self, tmp_path, capsys):
        import json
        cfg = write_config(tmp_path, f"""
[params]
K = 0.7

[analysis]
omega_min = 0.3
omega_max = 1.2
n_grid = 16

[output]
directory = {tmp_path}
""")
        report = tmp_path / "sweep.json"
        assert main(["sweep", "--config", cfg,
                     "--json", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["format"] == "magswim.report"
        assert payload["command"] == "sweep"
        assert payload["params"]["K"] == 0.7
        assert payload["params"]["xi"] == [0.8, 0.5, 0.5]
        assert len(payload["results"]["dx2"]) == 16
        assert "version" in payload

    def test_error_record_lands_in_report(self, tmp_path, capsys):
        import json
        cfg = write_config(tmp_path, "[params]\nK = 0.0\nM = 0.0\n")
        report = tmp_path / "sweep.json"
        assert main(["sweep", "--config", cfg,
                     "--json", str(report)]) == 1
        payload = json.loads(report.read_text())
        assert payload["error"]["type"] == "AnalysisError"
        assert "results" not in payload
        # the echo is still there so the failure is reproducible
        assert payload["params"]["K"] == 0.0


    def test_reports_guard_gap_and_evaluation_count(self, tmp_path, capsys,
                                                    monkeypatch):
        import json
        import magswim.linear
        real = magswim.linear._newton_peak
        refinement = []

        def counted(evaluate, *args, **kwargs):
            def g(w):
                refinement.append(w)
                return evaluate(w)
            return real(g, *args, **kwargs)

        monkeypatch.setattr(magswim.linear, "_newton_peak", counted)
        cfg = write_config(tmp_path, f"""
[analysis]
omega_min = 0.3
omega_max = 1.2
n_grid = 16

[output]
directory = {tmp_path}
""")
        report = tmp_path / "sweep.json"
        assert main(["sweep", "--config", cfg,
                     "--json", str(report)]) == 0
        out = capsys.readouterr().out
        results = json.loads(report.read_text())["results"]
        # the grid, the Newton iterates and omega_star itself
        assert refinement
        assert results["evaluations"] == 16 + len(refinement) + 1
        assert f"\nevaluations {results['evaluations']}\n" in out

    def test_default_peak_within_golden_bound(self, tmp_path):
        # the golden section placed the default peak at omega_star
        # 0.9315710808648037, to 1e-6 relative; dx2 is flat at the peak,
        # so the Newton value may not fall below the closed forms' value
        # there, 0.03758248655748906, but for rounding (the golden
        # section's 0.03758248655751319 carried the central differences'
        # 6.4e-13)
        import json
        report = tmp_path / "sweep.json"
        assert main(["sweep", "--output-dir", str(tmp_path),
                     "--json", str(report)]) == 0
        results = json.loads(report.read_text())["results"]
        assert abs(results["omega_star"] - 0.9315710808648037) <= \
            1e-6 * 0.9315710808648037
        assert results["dx2_star"] >= 0.03758248655748906 * (1.0 - 1e-14)

    @pytest.mark.parametrize("flag,value", [("--omega-max", "inf"),
                                            ("--omega-max", "nan"),
                                            ("--omega-min", "nan")])
    def test_non_finite_bound_is_a_usage_error(self, tmp_path, capsys, flag,
                                               value):
        # the flag's key rejects it, as it would in a config
        report = tmp_path / "sweep.json"
        assert main(["sweep", flag, value, "--output-dir", str(tmp_path),
                     "--json", str(report)]) == 2
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == (
            f"config error: [analysis] {key} = '{value}' is not a finite "
            f"number\n")
        assert not (tmp_path / "sweep.csv").exists()
        assert not report.exists()


class TestFieldAmplitude:
    """The linear theory and the displacement measurement take Hx = 1."""

    HX0 = """
[field]
kind = sinusoidal
hx0 = 3.0
epsilon = 0.05
omega = 1.0

[analysis]
n_grid = 16

[output]
directory = {out}
"""

    @pytest.mark.parametrize("command", ["displacement", "linearize",
                                         "sweep"])
    def test_non_unit_hx0_is_rejected(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, self.HX0.format(out=tmp_path))
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "hx0 = 3.0" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["displacement", "linearize",
                                         "sweep"])
    @pytest.mark.parametrize("kind, field", [
        ("constant", "hx = 2.0\nhy = 0.5"),
        ("tabulated", "samples =\n    0.0 2.0 0.0\n    1.0 2.0 0.5")],
        ids=["constant", "tabulated"])
    def test_other_kinds_are_rejected(self, tmp_path, capsys, command,
                                      kind, field):
        # the theory runs (1, epsilon sin(omega t)) whatever the field says,
        # so a field of another kind is refused, not silently replaced
        cfg = write_config(tmp_path, f"[field]\nkind = {kind}\n{field}\n"
                                     f"[output]\ndirectory = {tmp_path}\n")
        report = tmp_path / "report.json"
        assert main([command, "--config", cfg, "--json", str(report)]) == 2
        assert capsys.readouterr().err == (
            f"config error: [field] kind = {kind}, but this command runs "
            f"the sinusoidal drive; set [field] kind = sinusoidal\n")
        assert not (tmp_path / "sweep.csv").exists()
        assert not report.exists()


class TestControllability:
    def test_straight_poses_pass(self, capsys):
        assert main(["controllability", "--theta", "0.0", "0.3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2
        assert "rank 4" in out
        assert "informational" in out

    def test_empty_theta_is_a_usage_error(self, capsys):
        # --theta names at least one heading; without one it is not a
        # request for the default headings
        assert main(["controllability", "--theta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--theta: expected at least one argument" in captured.err

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_non_finite_theta_is_a_usage_error(self, theta, capsys):
        assert main(["controllability", "--theta", theta]) == 2
        assert "theta must be finite" in capsys.readouterr().err

    def test_rows_before_a_bad_theta_print_and_no_report_is_written(
            self, tmp_path, capsys):
        assert main(["controllability", "--theta", "0.3"]) == 0
        row = capsys.readouterr().out
        report = tmp_path / "r.json"
        assert main(["controllability", "--theta", "0.3", "nan",
                     "--json", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == row
        assert captured.err == "invalid request: theta must be finite\n"
        assert not report.exists()

    @pytest.mark.parametrize("moment", ["0.0", "5e-324"])
    def test_swimmer_without_bracket_is_an_invalid_request(
            self, tmp_path, capsys, moment):
        # fy vanishes (5e-324 underflows), so [fx, fy] has zero norm
        path = write_config(tmp_path, f"[params]\nM = {moment}\n")
        report = tmp_path / "r.json"
        assert main(["controllability", "--config", path,
                     "--json", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "invalid request: [fx, fy] has zero norm at theta = 0.0 (M = "
            f"{float(moment)!r}): the field cannot steer this swimmer\n")
        assert not report.exists()

    def test_tiny_moment_is_measured(self, tmp_path, capsys):
        # [fx, fy] is of order 1e-200: its squares underflow, its norm
        # does not, so each row is measured (rank 3, FAIL), not refused
        path = write_config(tmp_path, "[params]\nM = 1e-100\n")
        assert main(["controllability", "--config", path]) == 1
        out = capsys.readouterr().out
        assert out.count(" FAIL\n") == 5 and out.count("  rank 3 ") == 5

    def test_rank_is_read_once_for_every_theta(self, monkeypatch, capsys):
        # the rank is the same at every heading, so the five default
        # thetas share one body-frame lie_rank; the identities run per theta
        calls = {"rank": [], "identities": []}
        rank, identities = cli.lie_rank, cli.equilibrium_identities

        def counted_rank(params, point, *args, **kwargs):
            calls["rank"].append(point.tolist())
            return rank(params, point, *args, **kwargs)

        def counted_identities(params, theta):
            calls["identities"].append(theta)
            return identities(params, theta)
        monkeypatch.setattr(cli, "lie_rank", counted_rank)
        monkeypatch.setattr(cli, "equilibrium_identities",
                            counted_identities)
        assert main(["controllability"]) == 0
        assert capsys.readouterr().out.count("PASS") == 5
        assert calls == {"rank": [[0.0] * 5],
                         "identities": [0.0, 0.3, -0.3, 0.7, -0.7]}


class TestValidate:
    def test_deterministic_and_green(self, tmp_path, capsys):
        p1, p2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert main(["validate", "--output", str(p1)]) == 0
        assert main(["validate", "--output", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert "summary 10 checks 10 passed 0 failed" in p1.read_text()

    def test_json_companion(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["validate", "--json", str(path)]) == 0
        import json
        payload = json.loads(path.read_text())
        assert payload["passed"] is True
        assert len(payload["checks"]) == 10

    def test_config_is_a_usage_error(self, capsys):
        # validate runs fixed inputs; a config it would ignore is refused
        assert main(["validate", "--config", "/nonexistent.ini"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_derives_each_canonical_quantity_once(self, monkeypatch,
                                                  capsys):
        # CANON's origin model serves every check that reads it, and its
        # identities the stencil check; UNIFORM's check derives its own
        import magswim.checks
        import magswim.linear
        calls = []

        def counted(real, name):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        monkeypatch.setattr(magswim.linear, "_origin_derivatives", counted(
            magswim.linear._origin_derivatives, "origin"))
        monkeypatch.setattr(magswim.checks, "equilibrium_identities", counted(
            magswim.checks.equilibrium_identities, "identities"))
        assert main(["validate"]) == 0
        assert calls.count("origin") == 2
        assert calls.count("identities") == 1


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["transmogrify"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: magswim")

    def test_broken_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[params]\nomgea = 1\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_infinite_horizon_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[solver]\nt_final = inf\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert "t_final" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "displacement",
                                         "symmetry"])
    def test_step_too_small_to_plan_is_an_invalid_request(
            self, tmp_path, capsys, command):
        # span / dt overflows to inf, which no step count can hold
        cfg = write_config(tmp_path, UNIFORM_SYMMETRIC.replace(
            "dt = 0.02", "dt = 1e-320"))
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid request: ")
        assert err.count("\n") == 1 and "span / dt" in err

    def test_rows_that_do_not_fit_are_an_invalid_request(
            self, tmp_path, capsys, monkeypatch):
        # a finite dt whose trajectory exceeds memory; the allocation fails
        # by fiat, whatever the host would grant
        import numpy as np

        def no_memory(*args, **kwargs):
            raise MemoryError

        cfg = write_config(tmp_path, "[solver]\ndt = 1e-12\nt_final = 1.0\n"
                                     f"[output]\ndirectory = {tmp_path}\n")
        monkeypatch.setattr(np, "empty", no_memory)
        assert main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "invalid request: dt = 1e-12 is too small: the 1000000000001 "
            "rows of the trajectory do not fit in memory\n")

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config",
                     str(tmp_path / "nope.ini")]) == 2

    # an output path under a regular file cannot be written, whoever runs
    # the test; each output flag gives one stderr line naming it, exit 2
    @pytest.mark.parametrize("argv", [
        ["linearize", "--json", "{blocker}/r.json"],
        ["validate", "--output", "{blocker}/x.txt"],
        ["sweep", "--output-dir", "{blocker}/out"],
    ], ids=["json", "output", "output_dir"])
    def test_unwritable_output_is_an_invalid_request(self, tmp_path, capsys,
                                                     argv):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        argv = [a.format(blocker=blocker) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid request: cannot write output: ")
        assert err.count("\n") == 1 and argv[-1] in err


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "magswim.cli", "linearize"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "stable True" in proc.stdout

    @pytest.mark.parametrize("argv", [["controllability", "--theta"],
                                      ["validate", "--output", "{blocker}/x"]],
                             ids=["usage", "unwritable"])
    def test_request_errors_exit_two_without_traceback(self, tmp_path,
                                                       argv):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        proc = subprocess.run(
            [sys.executable, "-m", "magswim.cli",
             *(a.format(blocker=blocker) for a in argv)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


TABULATED = """
[field]
kind = tabulated
samples =
    0.0 1.0 0.0
    0.2 0.8 0.6
    0.5 1.2 -0.4

[initial]
theta = 0.2
alpha2 = 0.3
alpha3 = -0.2

[solver]
dt = 0.005

[output]
directory = {out}
formats = csv, jsonl
"""

CONSTANT_JSONL = """
[field]
kind = constant
hx = 1.0
hy = 0.3

[initial]
alpha2 = 0.1

[solver]
dt = 0.01
t_final = 0.5

[output]
directory = {out}
formats = jsonl
"""

SHORT_DISPLACEMENT = """
[field]
kind = sinusoidal
epsilon = 0.05
omega = 2.0

[solver]
dt = 0.0314159
burn_in_periods = 2
measure_periods = 2
"""

SHORT_SOLVER = """
[solver]
dt = 0.05
burn_in_periods = 1
measure_periods = 1
"""

SHORT_SYMMETRY = UNIFORM_SYMMETRIC.replace("t_final = 12.6", "t_final = 1.0")

SWEEP_BOUNDARY = """
[analysis]
omega_min = 0.3
omega_max = 0.6
n_grid = 16
"""

# name -> (config text or None, arguments, writes a --json report)
TRANSCRIPT = {
    "simulate_tabulated": (TABULATED, ["simulate"], False),
    "simulate_constant_jsonl": (CONSTANT_JSONL, ["simulate"], False),
    "displacement_config": (SHORT_DISPLACEMENT, ["displacement"], True),
    "displacement_flags": (SHORT_SOLVER, ["displacement", "--epsilon",
                                          "0.1", "--omega", "3.0"], True),
    "symmetry": (SHORT_SYMMETRY, ["symmetry"], True),
    "linearize_pattern": (None, ["linearize"], True),
    "linearize_no_pattern": ("[params]\nxi = 1.2, 0.8, 0.9\n",
                             ["linearize"], True),
    "sweep_default": (None, ["sweep", "--output-dir", "{out}"], True),
    "sweep_error_record": ("[params]\nK = 0.0\nM = 0.0\n",
                           ["sweep", "--output-dir", "{out}"], True),
    "sweep_boundary": (SWEEP_BOUNDARY, ["sweep", "--output-dir", "{out}"],
                       True),
    "controllability_default": (None, ["controllability"], True),
    "controllability_thetas": (None, ["controllability", "--theta", "-0.0",
                                      "0.1", "1.5"], True),
    "validate": (None, ["validate", "--output", "{out}/report.txt"], True),
}

# exit code and sha256 of stdout, stderr, warnings and every written file,
# recorded before the commands shared one results dict per command; moved
# since: displacement_flags by its report's field echo (it echoes the
# sinusoidal drive it runs); sweep_boundary by the boundary warning sweep
# no longer raises; every report and trajectory header but validate's by
# the solver echo, which holds only the keys its command reads (simulate
# and symmetry: dt and t_final; displacement: dt and the period counts;
# linearize, sweep and controllability: none); controllability and
# validate by the body-frame rank with an exact theta derivative (gap45
# and the [fx, fy] stencil residual); the linearize, sweep and
# controllability reports by dropping the echo of the initial state, which
# none of them reads, and controllability's by dropping the field echo too;
# sweep_default by the Newton peak refinement (omega_star, dx2_star,
# path_gap and evaluations; the grid and sweep.csv kept their bytes)
# every case but validate by the applied_defaults echo, which lists only
# the defaults of echoed keys (the parameters, the sections and solver
# keys of ECHO_KEYS); the sweep and controllability cases by the echo of
# the [analysis] keys they read (sweep: omega_min, omega_max and n_grid;
# controllability: bracket_depth) and their defaults, and the sweep cases
# by dropping path_gap, a gap between two formulas equal in exact
# arithmetic (the grid and sweep.csv kept their bytes);
# the linearize and sweep cases by a field echo of the kind and hx0 alone,
# the keys they read, with only those defaults; displacement_flags by
# dropping field.hx and field.hy, defaults of the constant field its flags
# replace, from applied_defaults; sweep_default and sweep_boundary by the
# rational form of dx2 (the grid, omega_star and dx2_star moved in their
# last digits, in stdout, the report and sweep.csv); validate by the same
# form's last digits of the CANON value at 0.62 and of the UNIFORM value,
# which is roundoff; the linearize, sweep and validate cases by the exact
# origin model (entry by entry, A and the eigenvalues by at most 1.0e-12
# relative, the characteristic coefficients by 2.2e-12, omega_star,
# dx2_star and sweep.csv by 9.1e-13; in validate every closed-form gap,
# and the frozen CANON value, now the closed forms');
# the displacement, linearize, simulate, sweep, symmetry and validate cases
# by the rate's float elimination, `_solve_drag`, which the origin model's
# complex steps share (values by at most 5.3e-15 relative, trajectories by
# 4.9e-16 of each column's largest entry; quantities that are zero but for
# rounding, such as symmetry's gaps, by at most 1.2e-16 absolute; validate's
# Richardson order estimate, a ratio of differences, by 7.6e-11);
# controllability_default and controllability_thetas by dropping the
# [analysis] echo and its applied default, bracket_depth, a deleted key;
# simulate_constant_jsonl and simulate_tabulated by dropping dt_resolved
# from the trajectory header, whose solver dt now holds the step run;
# displacement_flags by its config, now the default sinusoidal [field]
# (the constant one it had makes the flags stray keys), recorded alike
# before flags became config keys; the controllability, displacement,
# simulate, symmetry and validate cases by the body-frame rate and
# fields, turned to the heading (trajectory values at theta != 0 by at
# most 2.4e-13 relative, entry by entry; identities as in test_brackets;
# validate's alignment, stencil, Richardson, symmetry and reversal lines);
# validate by dropping its checks drive_column_is_minus_first_column and
# control_column_alignment, which the body frame fixes by construction
# (the other twelve lines, and their JSON records, keep their bytes);
# validate (was 7daea866...) by dropping trajectory_column_contract, which
# compared TRAJECTORY_COLUMNS with a copy of itself: its check line and the
# summary line, now 11 checks, are the two that changed; validate (was
# 0a5320c4...) by dropping char_coeffs_closed_vs_matrix, whose two routes
# are exact arithmetic on fixed constants: its check line, its JSON
# record and the summary line, now 10 checks, changed
FROZEN_TRANSCRIPT = {
    "controllability_default": (0, '4dd4f8418c16468e696b0ea846a59d339ce5f07140619d790d7233798884e5d9'),
    "controllability_thetas": (0, 'c5e7fa3bad79fc39bad4836857cd1d7e2a96dc768abc71628984fd47562d2115'),
    "displacement_config": (0, '872642bb0fe944eedb0455595289aff6066783f7ff4681fdd33084da4d17fa7c'),
    "displacement_flags": (0, '66c5a0944aac5118e4f92310435851c5d230e01ac1e33daeafeb656044c785fa'),
    "linearize_no_pattern": (0, 'd513b9e3c241c8e7da2f143abb8415c4e406d21d81ee8717f3409a4cfae2beaf'),
    "linearize_pattern": (0, '835d572ff4296b2e33528b65586b6742526e5232cd8ed60a717e4cfaabba1496'),
    "simulate_constant_jsonl": (0, '347e309b64a78babac0860ddb0362251705f6830c2eb860c1929e2627c2ee252'),
    "simulate_tabulated": (0, '17e096bd7f1232fdb8543a2e33f297d1ba44351c3598717260bc3e18bfe843f6'),
    "sweep_boundary": (0, 'ed292cb72f50e2c1eaf0f1bc82af37587ea8c6dda3f472f3faa97e7d2b23fd0c'),
    "sweep_default": (0, 'f0d90bc8e8e923e07fdb23350831ce8410316f683f5f0b39811cb995734cb4c2'),
    "sweep_error_record": (1, 'b782fe63fbc5bf1be62b793974fd5edf8efb07bfc545a3a7f9838dd1677898de'),
    "symmetry": (0, 'b6b32bac93d433bc2d566eaeaa913770121ca5755e1bbd527fc79c040cad3e17'),
    "validate": (0, '496dd1c402607ca5b7157e90abafc99d9905a607759adba78932d3c17788b232'),
}


class TestFrozenTranscript:
    """Every command's text, exit code, JSON report and written files are
    pinned byte for byte."""

    @staticmethod
    def transcript(tmp_path, capsys, case):
        import hashlib
        import warnings
        config, argv, report = TRANSCRIPT[case]
        out = tmp_path / "out"
        out.mkdir()
        argv = [a.format(out=out) for a in argv]
        if config is not None:
            argv += ["--config",
                     write_config(tmp_path, config.format(out=out))]
        if report:
            argv += ["--json", str(out / "report.json")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        captured = capsys.readouterr()
        digest = hashlib.sha256()
        for text in (captured.out, captured.err,
                     *(f"{w.category.__name__}: {w.message}"
                       for w in caught)):
            digest.update(text.replace(str(tmp_path), "<tmp>").encode())
            digest.update(b"\0")
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return code, digest.hexdigest()

    @pytest.mark.parametrize("case", sorted(TRANSCRIPT))
    def test_output_is_frozen(self, tmp_path, capsys, case):
        assert self.transcript(tmp_path, capsys, case) == \
            FROZEN_TRANSCRIPT[case]
