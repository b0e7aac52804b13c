"""Tests of the benchmark itself: failure counting, exact counts, tracing."""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import magswim
import pytest

import run
import tracer
import workloads

BENCH = Path(run.__file__).resolve().parent


def one_op(wl):
    """Run op 0 alone through the closed loop and return its failures."""
    wl.cases = wl.cases[:1]
    latencies, paces, failures = run.closed_loop(wl, seconds=0.0)
    assert len(latencies) == 1 and len(paces) == 2
    return failures


def plain(obj):
    """A comparable rendering of a case: arrays and tables as lists."""
    if isinstance(obj, list):
        return [plain(x) for x in obj]
    if dataclasses.is_dataclass(obj):
        return [plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    if isinstance(obj, magswim.TabulatedField):
        return [plain(obj.times), plain(obj.hx), plain(obj.hy)]
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return obj


def test_same_seed_same_inputs(tmp_path):
    for kind in (workloads.FrequencyResponse, workloads.RankScan,
                 workloads.TrajectoryIO):
        a, b = kind(7, str(tmp_path)), kind(7, str(tmp_path))
        assert plain(a.cases) == plain(b.cases)
        assert plain(a.cases) != plain(kind(8, str(tmp_path)).cases)


def test_perturbed_delta_x_counts_as_failed(tmp_path, monkeypatch):
    wl = workloads.NonlinearDisplacement(3, str(tmp_path))
    case = wl.case(0)
    eps2 = case.epsilon ** 2
    shift = {"value": 0.5}

    def fake(params, initial, epsilon, omega):
        dx = case.dx2 * eps2 * (1.0 + shift["value"] * eps2)
        return magswim.DisplacementReport(
            delta_x=dx, delta_y=0.0, periods_used=1, burn_in_periods=20,
            theta_drift=0.0, shape_gap=0.0, converged=True)

    monkeypatch.setattr(magswim, "displacement_per_period", fake)
    assert one_op(wl) == []
    shift["value"] = 1.5
    [(op, reason)] = one_op(wl)
    assert op == 0 and "misses dx2" in reason


def test_shifted_dx2_star_counts_as_failed(tmp_path, monkeypatch):
    wl = workloads.FrequencyResponse(3, str(tmp_path))
    first = next(i for i, c in enumerate(wl.cases) if not c.equal)
    wl.cases = [wl.cases[first]]
    assert one_op(wl) == []
    real = magswim.frequency_sweep

    def shifted(*args, **kwargs):
        curve = real(*args, **kwargs)
        return dataclasses.replace(curve, dx2_star=curve.dx2_star * (1 + 1e-6))

    monkeypatch.setattr(magswim, "frequency_sweep", shifted)
    [(_, reason)] = one_op(wl)
    assert "closed form" in reason


def test_rank_five_at_straight_pose_counts_as_failed(tmp_path, monkeypatch):
    wl = workloads.RankScan(3, str(tmp_path))
    assert wl.case(0).straight
    real = magswim.lie_rank
    monkeypatch.setattr(
        magswim, "lie_rank",
        lambda *a, **k: dataclasses.replace(real(*a, **k), rank=5))
    [(_, reason)] = one_op(wl)
    assert "rank 5 at a straight pose" in reason


def test_flipped_csv_digit_counts_as_failed(tmp_path, monkeypatch):
    wl = workloads.TrajectoryIO(3, str(tmp_path))
    assert one_op(wl) == []
    real = magswim.write_trajectory_csv

    def write_then_flip(traj, path):
        real(traj, path)
        lines = Path(path).read_text().splitlines(keepends=True)
        row = lines[5]
        k = next(j for j, ch in enumerate(row) if ch in "123456789")
        lines[5] = row[:k] + str(int(row[k]) % 9 + 1) + row[k + 1:]
        Path(path).write_text("".join(lines))

    monkeypatch.setattr(magswim, "write_trajectory_csv", write_then_flip)
    [(_, reason)] = one_op(wl)
    assert reason == "csv round trip is not bit-exact"


@pytest.mark.parametrize("error", [magswim.AnalysisError("boom"),
                                   ValueError("bad input")])
def test_raising_op_is_counted_and_the_run_goes_on(tmp_path, monkeypatch,
                                                   error):
    wl = workloads.RankScan(3, str(tmp_path))

    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(magswim, "lie_rank", boom)
    latencies, _, failures = run.closed_loop(wl, seconds=0.05)
    # the loop ends on a whole pass over the inputs
    assert len(failures) == len(latencies)
    assert len(latencies) % len(wl.cases) == 0
    assert failures[0][1].startswith(type(error).__name__)


def traced_counts(kind, seed, n_ops, workdir):
    wl = kind(seed, workdir)
    tr = tracer.Tracer()
    failures, facts, _, _ = run.traced_phase(wl, tr, n_ops)
    per_op = tr.breakdown()
    return failures, [run.op_counts(per_op[i], facts[i])
                      for i in range(n_ops + 1)], per_op


@pytest.mark.parametrize("kind", [workloads.FrequencyResponse,
                                  workloads.RankScan, workloads.TrajectoryIO])
def test_counts_repeat_exactly_for_a_seed(tmp_path, kind):
    _, first, _ = traced_counts(kind, 5, 2, str(tmp_path))
    _, second, _ = traced_counts(kind, 5, 2, str(tmp_path))
    assert first == second
    # the replay of op 0 inside one traced run repeats op 0
    assert first[0] == first[-1]
    assert any(v for v in first[0].values())


def test_self_times_add_up_and_names_are_restored(tmp_path):
    originals = (magswim.lie_rank, magswim.simulate.make_rate_function,
                 magswim.linear.net_displacement_quadratic,
                 magswim.SinusoidalField.sample,
                 magswim.brackets.control_vector_fields)
    for kind in (workloads.FrequencyResponse, workloads.TrajectoryIO):
        _, _, per_op = traced_counts(kind, 2, 2, str(tmp_path))
        for b in per_op.values():
            assert b.op_s > 0
            assert sum(b.self_s.values()) == pytest.approx(b.op_s, rel=1e-9)
            assert all(v >= 0 for v in b.self_s.values())
    assert originals == (magswim.lie_rank, magswim.simulate.make_rate_function,
                         magswim.linear.net_displacement_quadratic,
                         magswim.SinusoidalField.sample,
                         magswim.brackets.control_vector_fields)


def test_innermost_shares_split_concurrent_children():
    # op [0, 10] > sweep [1, 9] > two overlapping children [2, 6], [4, 8]
    spans = [["op", "bench", 0.0, 10.0, -1, 0, 1],
             ["sweep", "linear", 1.0, 9.0, 0, 0, 1],
             ["a", "linear", 2.0, 6.0, 1, 0, 2],
             ["b", "linear", 4.0, 8.0, 1, 0, 3]]
    share = tracer._innermost_shares(spans, [0, 1, 2, 3])
    assert share == {0: 2.0, 1: 2.0, 2: 3.0, 3: 3.0}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_contract_line(trace, kind):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "rank_scan",
         "--seed", "4", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[kind]}


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        assert workloads.WORKLOADS[entry["name"]].why == entry["why"]
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_scaled_times_divide_out_the_pace():
    # the same op on a machine at half the speed: the op and the reference
    # passes around it both take twice as long
    fast = run.scaled([0.1, 0.3], [0.004, 0.006, 0.005])
    slow = run.scaled([0.2, 0.6], [0.008, 0.012, 0.010])
    assert fast == pytest.approx(slow)
    assert fast[0] == pytest.approx(0.1 * run.reference.REF_S / 0.005)
