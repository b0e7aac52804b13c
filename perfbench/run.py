"""Benchmark of magswim's public API on four seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload rank_scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Workloads: nonlinear_displacement, frequency_response, rank_scan,
trajectory_io (see ``workloads.py``).  ``BENCHMARK.json`` lists the last
three; nonlinear_displacement, at 6-12 s per op, runs by name or under
``all``, because a run of bounded length holds too few of its ops to give
steady figures.  One process issues one op at a time; the only other
threads are the pool ``frequency_sweep`` starts by itself.  BLAS is pinned
to one thread in this process.

A run imports magswim from ``src/`` next to this directory, sets the
workload up ``SETUP_REPEATS`` times (``import magswim`` in a fresh
interpreter, inputs from the seed, reference values, one warm-up op) and
then runs ops back to back for ``--seconds``, finishing the pass over the
workload's inputs it is in, so every input runs equally often.  Every op
is checked; an op that raises ``MagswimError`` or ``ValueError``, or
misses its check, is counted as failed and the run goes on.

Times are scaled to a steady machine.  A pass of the fixed kernel in
``reference.py`` runs before the first op and after every op (and around
every set-up), and each time is multiplied by ``REF_S`` over the mean
duration of the passes on either side of it: the time the work would take
on a machine where one pass takes ``REF_S``.  The shared host's speed
wanders by up to 1.7x within minutes, in wall and in CPU time alike, and
this cancels it.  The measured (unscaled) figures are printed too, as
``raw_*`` lines.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` also runs a
fixed prefix of the ops with spans around magswim's layer entry points (see
``tracer.py``), writes the spans to ``perfbench/out/``, and reports the
per-layer metrics; it replays the first traced op and requires the same
counts, and requires each op's per-layer self times to add up to its
duration.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count the workload's distinct inputs: all of them run in every
run, and an input fails when any op on it fails.  Counting inputs rather
than ops keeps them a function of the seed, while the op count depends on
the machine's pace; the per-op failed fraction is printed above the line.
``correct`` is false when the benchmark's own bookkeeping does not hold
(counts that do not repeat, self times that do not add up); failed inputs
are reported through ``failed`` and do not make a run incorrect.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# one BLAS thread in this process (and the workloads it starts), set
# before anything loads numpy
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("nonlinear_displacement", "frequency_response",
                  "rank_scan", "trajectory_io")
SETUP_REPEATS = 5
# a 90th percentile needs ten samples beyond it
P90_MIN_OPS = 100
# counts that must repeat exactly for the same seed
EXACT_COUNTS = ("dynamics.rate_calls", "dynamics.field_calls",
                "simulate.periods", "simulate.steps", "model.field_samples",
                "linear.dx2_evals", "serialize.bytes")


def scaled(latencies: list[float], paces: list[float]) -> list[float]:
    """Each latency scaled by the pace measured on either side of it."""
    return [lat * reference.REF_S / (0.5 * (before + after))
            for lat, before, after in zip(latencies, paces, paces[1:])]


def closed_loop(wl, seconds: float):
    """Issue ops back to back until ``seconds`` have passed and a pass
    over the workload's inputs is complete.

    Returns the latency of every op, the reference pass times around them
    (one more than the ops) and the failures as ``(op, reason)``.
    """
    latencies, paces, failures = [], [reference.timed_pass()], []
    n = len(wl.cases)
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        reason = wl.attempt(i)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        paces.append(reference.timed_pass())
        if reason is not None:
            failures.append((i, reason))
        i += 1
        if i % n == 0 and t1 - start >= seconds:
            return latencies, paces, failures


def fresh_import_s() -> float:
    """Wall time of ``import magswim``, numpy included, in a fresh
    interpreter (this process has imported it already)."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path.insert(0, {str(SRC)!r}); import magswim; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return float(out)


def traced_phase(wl, tracer, n_ops: int):
    """Run ops ``0 .. n_ops - 1`` under tracing, then replay op 0.

    Returns the failures as ``(op, reason)`` (the replay's as op 0), the
    facts of each op and of the replay (op id ``n_ops``), and the latencies
    of the ``n_ops`` ops with the reference pass times around them.
    """
    failures, facts, latencies = [], [], []
    paces = [reference.timed_pass()]
    with tracer.installed():
        for i in range(n_ops + 1):
            t0 = time.perf_counter()
            with tracer.op(i):
                reason = wl.attempt(i % n_ops)
            if i < n_ops:
                latencies.append(time.perf_counter() - t0)
                paces.append(reference.timed_pass())
            if reason is not None:
                failures.append((i % n_ops, reason))
            facts.append(wl.facts() if wl.last is not None else {})
    return failures, facts, latencies, paces


def op_counts(b, facts: dict) -> dict[str, float]:
    """The exact per-op counts of one traced op."""
    return {
        "dynamics.rate_calls": b.calls["rate"],
        "dynamics.field_calls": b.calls["field"],
        "simulate.periods": facts.get("periods", 0),
        "simulate.steps": b.simulate_rate_calls / 4,
        "model.field_samples": b.calls["sample"],
        "linear.dx2_evals": b.calls["net_displacement_quadratic"],
        "serialize.bytes": facts.get("bytes", 0),
    }


def layer_metrics(per_op: list, facts: list[dict], traced_rate: float,
                  untraced_rate: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, averaged per op over the traced ops."""
    n = len(per_op)

    def total(attr, key):
        return sum(getattr(b, attr)[key] for b in per_op)

    def per_call(key, attr="total_s", scale=1.0):
        calls = total("calls", key)
        return scale * total(attr, key) / calls if calls else 0.0

    op_s = sum(b.op_s for b in per_op)
    counts = {k: sum(op_counts(b, f)[k] for b, f in zip(per_op, facts)) / n
              for k in EXACT_COUNTS}
    steps = counts["simulate.steps"]
    periods = sum(f.get("periods", 0) for f in facts)
    gaps = [f["gap45"] for f in facts if "gap45" in f]
    m = {
        "dynamics.rate_calls": (counts["dynamics.rate_calls"], "count"),
        "dynamics.rate_us": (per_call("rate", scale=1e6), "us"),
        "dynamics.share": (total("total_s", "rate") / op_s, "fraction"),
        "dynamics.field_calls": (counts["dynamics.field_calls"], "count"),
        "dynamics.field_call_us": (per_call("field", scale=1e6), "us"),
        "simulate.periods": (counts["simulate.periods"], "count"),
        "simulate.useful_fraction": (
            sum(f.get("useful_periods", 0) for f in facts) / periods
            if periods else 0.0, "fraction"),
        "simulate.steps": (steps, "count"),
        "simulate.self_us_per_step": (
            1e6 * total("self_s", "simulate") / n / steps if steps else 0.0,
            "us"),
        "model.field_samples": (counts["model.field_samples"], "count"),
        "model.sample_us": (per_call("sample", scale=1e6), "us"),
        "linear.model_s": (per_call("displacement_model"), "s"),
        "linear.dx2_evals": (counts["linear.dx2_evals"], "count"),
        "linear.dx2_eval_us": (
            per_call("net_displacement_quadratic", scale=1e6), "us"),
        "linear.self_s": (total("span_self_s", "frequency_sweep") / n, "s"),
        "brackets.rank_s": (per_call("lie_rank"), "s"),
        "brackets.self_s": (per_call("lie_rank", "span_self_s"), "s"),
        "brackets.gap45_min": (min(gaps) if gaps else 0.0, "ratio"),
        "serialize.write_s": (
            (total("total_s", "write_trajectory_csv")
             + total("total_s", "write_trajectory_jsonl")) / n, "s"),
        "serialize.read_s": (
            (total("total_s", "read_trajectory_csv")
             + total("total_s", "read_trajectory_jsonl")) / n, "s"),
        "serialize.bytes": (counts["serialize.bytes"], "bytes"),
        "trace.overhead": (traced_rate / untraced_rate, "ratio"),
        "trace.op_s": (op_s / n, "s"),
    }
    for layer in per_op[0].self_s:
        m[f"self_s.{layer}"] = (total("self_s", layer) / n, "s")
    return m


def environment(numpy) -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "sweep_pool_threads": os.cpu_count(),
    }


def write_trace(path: Path, header: dict, tracer) -> None:
    spans = tracer.spans
    t0 = min(rec[2] for rec in spans)
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for idx, (name, layer, start, end, parent, op, thread) in \
                enumerate(spans):
            fh.write(json.dumps({
                "span": idx, "name": name, "layer": layer,
                "start_s": start - t0, "end_s": end - t0,
                "parent": parent, "op": op, "thread": thread}) + "\n")
        for (parent, name), (layer, count, total) in tracer.leaves.items():
            fh.write(json.dumps({
                "leaf": name, "layer": layer, "parent": parent,
                "op": spans[parent][5], "count": count,
                "total_s": total}) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "magswim" / "__init__.py").is_file():
        print(f"error: magswim sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import magswim
    if Path(magswim.__file__).resolve().parent != SRC / "magswim":
        print(f"error: imported magswim from {magswim.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    env = environment(numpy)
    problems: list[str] = []
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        kind = workloads.WORKLOADS[name]
        reference.reference_pass()
        # one set-up: the import, then the inputs, reference values and a
        # warm-up op; the warm-up is op 0, which the timed loop runs and
        # checks again
        raw_setups, setups, paces = [], [], [reference.pace()]
        for _ in range(SETUP_REPEATS):
            steps = [fresh_import_s()]
            paces.append(reference.pace())
            t0 = time.perf_counter()
            wl = kind(seed, workdir)
            wl.attempt(0)
            steps.append(time.perf_counter() - t0)
            paces.append(reference.pace())
            raw_setups.append(sum(steps))
            setups.append(sum(scaled(steps, paces[-3:])))
        setup_s = statistics.median(setups)
        raw_setup_s = statistics.median(raw_setups)

        latencies, op_paces, failures = closed_loop(wl, seconds)
        ops = len(latencies)
        ops_ok = ops - len(failures)
        op_s = scaled(latencies, op_paces)
        ops_per_s = ops_ok / sum(op_s)
        end_to_end = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_s": (statistics.median(op_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
        raw = {
            "raw_setup_s": (raw_setup_s, "s"),
            "raw_ops_per_s": (ops_ok / sum(latencies), "1/s"),
            "raw_op_p50_s": (statistics.median(latencies), "s"),
            "raw_pace_s": (statistics.median(op_paces), "s"),
        }
        per_layer = {}
        if trace:
            tr = tracing.Tracer()
            n = kind.trace_ops
            t_failures, facts, t_latencies, t_paces = traced_phase(wl, tr, n)
            ops += n + 1
            failures += t_failures
            per_op_all = tr.breakdown()
            per_op = [per_op_all[i] for i in range(n)]
            traced_ok = n - sum(i < n for i, _ in t_failures)
            traced_rate = traced_ok / sum(scaled(t_latencies, t_paces))
            per_layer = layer_metrics(per_op, facts[:n], traced_rate,
                                      ops_per_s)
            first = op_counts(per_op_all[0], facts[0])
            again = op_counts(per_op_all[n], facts[n])
            for key in EXACT_COUNTS:
                if first[key] != again[key]:
                    problems.append(f"count {key} did not repeat: "
                                    f"{first[key]} then {again[key]}")
            for i, b in per_op_all.items():
                gap = abs(sum(b.self_s.values()) - b.op_s)
                if gap > 1e-9 * b.op_s:
                    problems.append(f"op {i}: self times miss the op time "
                                    f"by {gap:.3e} s")
            write_trace(OUT / f"trace-{name}-seed{seed}.jsonl", {
                "workload": name, "seed": seed, "environment": env,
                "counts_op0": first,
                "metrics": {k: v for k, (v, _) in per_layer.items()}}, tr)

    n_inputs = len(wl.cases)
    failed_inputs = {i % n_inputs for i, _ in failures}
    print(f"# workload {name} seed {seed} seconds {seconds} "
          f"trace {int(trace)}")
    print(f"# why: {kind.why}")
    print(f"# environment: {json.dumps(env)}")
    print(f"# closed loop, one client; set-up is the median of "
          f"{SETUP_REPEATS}; "
          f"{kind.trace_ops + 1 if trace else 0} traced ops; times scaled "
          f"to a reference pass of {reference.REF_S} s")
    for key, (value, unit) in {**end_to_end, **raw}.items():
        print(f"{key} {value!r} {unit}")
    print(f"ops {len(latencies)} (samples behind op_p50_s)")
    if len(latencies) >= P90_MIN_OPS:
        p90 = statistics.quantiles(op_s, n=10)[-1]
        print(f"op_p90_s {p90!r} s")
    else:
        print(f"op_p90_s n/a (fewer than {P90_MIN_OPS} ops)")
    print(f"failed_fraction {len(failures) / ops!r} "
          f"({len(failures)}/{ops} ops)")
    print(f"failed_inputs {len(failed_inputs)}/{n_inputs}")
    for key, (value, unit) in per_layer.items():
        print(f"{key} {value!r} {unit}")
    for i, reason in failures:
        print(f"failed op {i} (input {i % n_inputs}): {reason}")
    for problem in problems:
        print(f"problem: {problem}")
    metrics = per_layer if trace else end_to_end
    print(json.dumps({
        "correct": not problems,
        "attempted": n_inputs,
        "failed": len(failed_inputs),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v
                        for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
