"""Exit codes and outputs of the command-line front end."""
import subprocess
import sys

import pytest

from magswim.cli import main
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
        assert header["solver"]["dt_resolved"] == 0.01
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
        real = magswim.linear._golden_max
        refinement = []

        def counted(f, lo, hi, *args, **kwargs):
            def g(w):
                refinement.append(w)
                return f(w)
            return real(g, lo, hi, *args, **kwargs)

        monkeypatch.setattr(magswim.linear, "_golden_max", counted)
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
        assert 0.0 <= results["path_gap"] <= 1e-8
        # the grid, the golden-section points and omega_star itself
        assert refinement
        assert results["evaluations"] == 16 + len(refinement) + 1
        assert (f"path_gap {results['path_gap']!r} "
                f"evaluations {results['evaluations']}") in out

    @pytest.mark.parametrize("flag,value", [("--omega-max", "inf"),
                                            ("--omega-max", "nan"),
                                            ("--omega-min", "nan")])
    def test_non_finite_bound_is_a_usage_error(self, tmp_path, capsys, flag,
                                               value):
        report = tmp_path / "sweep.json"
        assert main(["sweep", flag, value, "--output-dir", str(tmp_path),
                     "--json", str(report)]) == 2
        err = capsys.readouterr().err
        assert "invalid request" in err and "must be finite" in err
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


class TestControllability:
    def test_straight_poses_pass(self, capsys):
        assert main(["controllability", "--theta", "0.0", "0.3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2
        assert "rank 4" in out
        assert "informational" in out

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_non_finite_theta_is_a_usage_error(self, theta, capsys):
        assert main(["controllability", "--theta", theta]) == 2
        assert "theta must be finite" in capsys.readouterr().err


class TestValidate:
    def test_deterministic_and_green(self, tmp_path, capsys):
        p1, p2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert main(["validate", "--output", str(p1)]) == 0
        assert main(["validate", "--output", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert "summary 14 checks 14 passed 0 failed" in p1.read_text()

    def test_json_companion(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["validate", "--json", str(path)]) == 0
        import json
        payload = json.loads(path.read_text())
        assert payload["passed"] is True
        assert len(payload["checks"]) == 14


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_broken_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[params]\nomgea = 1\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_infinite_horizon_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[solver]\nt_final = inf\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert "t_final" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config",
                     str(tmp_path / "nope.ini")]) == 2


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "magswim.cli", "linearize"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "stable True" in proc.stdout
