"""Spans around magswim's public names, for the benchmark's traced run.

The tracer rebinds a fixed list of exported names in every ``magswim``
module that holds them (so calls from inside the package are seen too), and
puts the originals back when the traced run ends.  Nothing in the package
is edited.  Timed runs never install it.

Two kinds of record are kept in memory:

* a span per call of a layer entry point: name, layer, start, end, parent
  span, op id and thread;
* a folded leaf per (parent span, name) for the hot innermost calls: the
  rate closure, the drift/control fields and field sampling.  These run
  hundreds of thousands of times per op and call nothing traced, so only
  their count and total time are kept.

A span's self time is the part of its interval in which it is the
innermost running span, minus the time of the leaves folded under it.
Where pool threads run spans side by side, each instant is split evenly
between the innermost spans running at that instant, so the self times of
one op always add up to the op's duration.
"""
from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import magswim

LAYERS = ("bench", "model", "dynamics", "simulate", "linear", "brackets",
          "serialize")

# layer entry points that open a span
SPANS = (
    ("simulate", "integrate"),
    ("simulate", "displacement_per_period"),
    ("linear", "frequency_sweep"),
    ("linear", "displacement_model"),
    ("linear", "net_displacement_quadratic"),
    ("brackets", "lie_rank"),
    ("brackets", "equilibrium_identities"),
    ("serialize", "write_trajectory_csv"),
    ("serialize", "read_trajectory_csv"),
    ("serialize", "write_trajectory_jsonl"),
    ("serialize", "read_trajectory_jsonl"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, layer, start, end, parent, op, thread]
        self.leaves: dict[tuple[int, str], list] = {}  # -> [layer, count, total]
        self.op_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int:
        stack = self._stack()
        if stack:
            return stack[-1]
        # a pool thread has no span of its own yet: it works for the span
        # the main thread is blocked in
        return self._main[-1] if self._main else -1

    @contextmanager
    def span(self, layer: str, name: str, op: int | None = None):
        if op is not None:
            self.op_id = op
        rec = [name, layer, 0.0, 0.0, self._parent(), self.op_id,
               threading.get_ident()]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack = self._stack()
        stack.append(idx)
        rec[2] = perf_counter()
        try:
            yield
        finally:
            rec[3] = perf_counter()
            stack.pop()

    def op(self, i: int):
        """The root span of op ``i``; its self time is the benchmark's own."""
        return self.span("bench", "op", op=i)

    def _spanned(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name):
                return fn(*args, **kwargs)
        return traced

    def _leaf(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (self._parent(), name)
                with self._lock:
                    agg = self.leaves.get(key)
                    if agg is None:
                        self.leaves[key] = [layer, 1, elapsed]
                    else:
                        agg[1] += 1
                        agg[2] += elapsed
        return traced

    # -- installing --------------------------------------------------------
    def _rebind(self, name: str, wrapper) -> None:
        original = getattr(magswim, name)
        for modname, module in list(sys.modules.items()):
            if modname != "magswim" and not modname.startswith("magswim."):
                continue
            if getattr(module, name, None) is original:
                setattr(module, name, wrapper)
                self._restore.append((module, name, original))

    @contextmanager
    def installed(self):
        try:
            for layer, name in SPANS:
                self._rebind(name, self._spanned(layer, name,
                                                 getattr(magswim, name)))
            make_rate = magswim.make_rate_function

            @functools.wraps(make_rate)
            def make_rate_traced(params):
                return self._leaf("dynamics", "rate", make_rate(params))
            self._rebind("make_rate_function", make_rate_traced)

            fields = magswim.control_vector_fields

            @functools.wraps(fields)
            def fields_traced(params):
                system = fields(params)
                return replace(system, **{
                    key: replace(f, fn=self._leaf("dynamics", "field", f.fn))
                    for key, f in (("f0", system.f0), ("fx", system.fx),
                                   ("fy", system.fy))})
            self._rebind("control_vector_fields", fields_traced)

            for cls in magswim.FieldProgram.__subclasses__():
                original = cls.__dict__.get("sample")
                if original is not None:
                    setattr(cls, "sample",
                            self._leaf("model", "sample", original))
                    self._restore.append((cls, "sample", original))
            yield self
        finally:
            for owner, name, original in reversed(self._restore):
                setattr(owner, name, original)
            self._restore.clear()

    # -- analysis ----------------------------------------------------------
    def breakdown(self) -> dict[int, "OpBreakdown"]:
        """Per op id: duration, self time per layer and per-name totals."""
        by_op: dict[int, list[int]] = defaultdict(list)
        for idx, rec in enumerate(self.spans):
            by_op[rec[5]].append(idx)
        leaves_under: dict[int, list] = defaultdict(list)
        for (parent, name), (layer, count, total) in self.leaves.items():
            leaves_under[parent].append((name, layer, count, total))
        return {op: self._op_breakdown(idxs, leaves_under)
                for op, idxs in by_op.items()}

    def _op_breakdown(self, idxs: list[int], leaves_under) -> "OpBreakdown":
        spans = self.spans
        share = _innermost_shares(spans, idxs)
        out = OpBreakdown()
        for i in idxs:
            name, layer, start, end, parent = spans[i][:5]
            self_s = share[i]
            for leaf, leaf_layer, count, total in leaves_under.get(i, ()):
                self_s -= total
                out.self_s[leaf_layer] += total
                out.calls[leaf] += count
                out.total_s[leaf] += total
                if layer == "simulate" and leaf == "rate":
                    out.simulate_rate_calls += count
            out.self_s[layer] += self_s
            out.span_self_s[name] += self_s
            if parent == -1:
                out.op_s = end - start
            else:
                out.calls[name] += 1
                out.total_s[name] += end - start
        return out


class OpBreakdown:
    """Where one op's time went, by layer and by traced name."""

    def __init__(self) -> None:
        self.op_s = 0.0
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.span_self_s: dict[str, float] = defaultdict(float)
        self.simulate_rate_calls = 0


def _innermost_shares(spans: list[list], idxs: list[int]) -> dict[int, float]:
    """Split the op's interval among the innermost running spans."""
    events = sorted([(spans[i][2], 1, i) for i in idxs]
                    + [(spans[i][3], -1, i) for i in idxs])
    share = dict.fromkeys(idxs, 0.0)
    open_children = dict.fromkeys(idxs, 0)
    running: set[int] = set()
    prev = None
    for t, kind, i in events:
        if running:
            inner = [j for j in running if open_children[j] == 0]
            for j in inner:
                share[j] += (t - prev) / len(inner)
        prev = t
        parent = spans[i][4]
        if kind == 1:
            running.add(i)
        else:
            running.discard(i)
        if parent in open_children:
            open_children[parent] += kind
    return share
