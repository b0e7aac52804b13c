"""The four seeded benchmark workloads.

Every workload is a closed loop of independent ops: the runner issues op
``i + 1`` only after op ``i`` has returned.  A workload draws all of its
inputs from the seed when it is built, computes any reference values it
needs there (untimed, but inside set-up), and then exposes

* ``op(i)``: run op ``i`` through magswim's public API and check it; returns
  ``None`` when the result is correct, else a one-line reason;
* ``facts()``: deterministic quantities read off the result of the last op
  (bytes written, periods integrated, certification margins).

magswim is always reached through attribute lookups on the package at call
time (``magswim.lie_rank(...)``), never through names bound at import, so
the tracer can swap in wrappers for the traced run and put the originals
back afterwards.  Only exported names are used.

The inputs are cycled: op ``i`` uses case ``i % len(cases)``.  Each case
list is laid out in fixed blocks so that the share of each kind of op (grid
size, straight or bent pose, tabulated or sinusoidal drive) is the same for
every seed; only the values inside a case are drawn.  That keeps the cost
mix, and therefore the medians, the same from seed to seed.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import magswim
import numpy as np

DEFAULT_PARAMS = dict(L=1.0, xi=(0.8, 0.5, 0.5), eta=(2.0, 1.0, 1.0),
                      K=1.0, M=1.0)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def head_asymmetric(rng: random.Random):
    """A seeded head-asymmetric swimmer: links 2 and 3 share (xi, eta).

    The ranges keep the straight state strongly stable, the head clearly
    heavier than the tail (so dx2 stays away from zero), and every link
    slender (eta_i > xi_i).
    """
    ratio = rng.uniform(1.6, 2.6)
    return magswim.SwimmerParams(
        L=1.0,
        xi=(rng.uniform(0.6, 0.9), 0.5, 0.5),
        eta=(ratio, 1.0, 1.0),
        K=rng.uniform(0.7, 1.5),
        M=rng.uniform(0.7, 1.5),
    )


class Workload:
    """Common shape of a workload; subclasses fill in the cases and ops."""

    name = ""
    why = ""
    # ops run under tracing: a fixed prefix of the case cycle, so every
    # count the traced run reports is a function of the seed alone
    trace_ops = 0

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.cases: list = []
        self.last = None

    def case(self, i: int):
        return self.cases[i % len(self.cases)]

    def op(self, i: int) -> str | None:
        raise NotImplementedError

    def attempt(self, i: int) -> str | None:
        """Run op ``i``; a raised package or value error is a failure."""
        self.last = None
        try:
            return self.op(i)
        except (magswim.MagswimError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"

    def facts(self) -> dict[str, float]:
        return {}


# --------------------------------------------------------------------------
@dataclass(frozen=True)
class DisplacementCase:
    params: object
    epsilon: float
    omega: float
    dx2: float


class NonlinearDisplacement(Workload):
    name = "nonlinear_displacement"
    why = ("displacement_per_period under the full dynamics, ~42k RK4 "
           "steps per op: where a converge-and-stop burn-in and faster "
           "assembly show")
    trace_ops = 2

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        for _ in range(8):
            params = head_asymmetric(self.rng)
            epsilon = self.rng.choice((1e-2, 3e-2))
            omega = _log_uniform(self.rng, 0.3, 3.0)
            dx2 = magswim.net_displacement_quadratic(params, omega)
            self.cases.append(DisplacementCase(params, epsilon, omega, dx2))

    def op(self, i: int) -> str | None:
        c = self.case(i)
        report = magswim.displacement_per_period(
            c.params, magswim.Configuration.straight(), c.epsilon, c.omega)
        self.last = report
        return check_displacement(c, report)

    def facts(self) -> dict[str, float]:
        report = self.last
        return {"periods": report.burn_in_periods + report.periods_used,
                "useful_periods": report.periods_used}


def check_displacement(case: DisplacementCase, report) -> str | None:
    """The quadratic theory must predict dx/eps^2 to relative O(eps^2)."""
    if not report.converged:
        return f"burn-in did not converge (shape gap {report.shape_gap:.3e})"
    eps2 = case.epsilon ** 2
    gap = abs(report.delta_x / eps2 - case.dx2)
    if not gap <= eps2 * abs(case.dx2):
        return (f"dx/eps^2 misses dx2 by {gap / abs(case.dx2):.3e} "
                f"relative, allowed {eps2:.1e}")
    return None


# --------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCase:
    params: object
    n_grid: int
    equal: bool


class FrequencyResponse(Workload):
    name = "frequency_response"
    why = ("frequency_sweep of the quadratic theory, dynamics under 1% of "
           "it: where a vectorised sweep shows; the RK4 and bracket "
           "workloads should not move")
    trace_ops = 32

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        # blocks of four: three 64-point grids and one 128-point grid, so
        # the median op is a 64-point sweep and the 90th percentile a
        # 128-point one for every seed.  Sweep cost varies by about 25%
        # between swimmers, so there are 16 blocks: enough swimmers that
        # the median does not depend on which ones a seed draws.  The first
        # op, which is also the warm-up in set-up, is a 64-point sweep.
        for _ in range(16):
            big = self.rng.randrange(1, 4)
            for k in range(4):
                self.cases.append(SweepCase(
                    head_asymmetric(self.rng), 128 if k == big else 64,
                    False))
        # one equal-coefficient swimmer, which cannot swim at this order
        xi = self.rng.uniform(0.4, 0.6)
        equal = magswim.SwimmerParams.uniform(
            1.0, xi, 2.0 * xi, self.rng.uniform(0.7, 1.5),
            self.rng.uniform(0.7, 1.5))
        self.cases[self.rng.randrange(1, len(self.cases))] = SweepCase(
            equal, 64, True)

    def op(self, i: int) -> str | None:
        c = self.case(i)
        curve = magswim.frequency_sweep(c.params, 1e-2, 1e2, c.n_grid)
        self.last = curve
        return check_sweep(c, curve)


def closed_form_dx2(params, omega: float) -> float:
    """Quadratic displacement from the closed-form A, b and grad Gx."""
    lin = magswim.closed_form_angle_matrix(params)
    grad = magswim.closed_form_grad_gx(params)
    a_plus, a_minus = magswim.resolvents(lin.a, omega)
    z = lin.b @ (a_plus.T @ ((grad - grad.T) @ (a_minus @ lin.b)))
    return (2.0 * math.pi / omega) * (omega / 4.0) * float(z.imag)


def check_sweep(case: SweepCase, curve) -> str | None:
    if case.equal:
        return None if curve.near_zero is True else \
            "equal-coefficient swimmer not flagged near_zero"
    if curve.boundary:
        return "peak flagged on the sweep boundary"
    ref = closed_form_dx2(case.params, curve.omega_star)
    gap = abs(curve.dx2_star - ref)
    if not gap <= 1e-8 * abs(ref):
        return (f"dx2_star misses the closed form by {gap / abs(ref):.3e} "
                "relative, allowed 1e-8")
    return None


# --------------------------------------------------------------------------
@dataclass(frozen=True)
class PoseCase:
    params: object
    point: np.ndarray
    straight: bool


class RankScan(Workload):
    name = "rank_scan"
    why = ("depth-3 lie_rank by nested differences, ~2300 field calls per "
           "op: where exact derivatives show; moves with assembly speed, "
           "not with the sweep")
    trace_ops = 32

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        default = magswim.SwimmerParams(**DEFAULT_PARAMS)
        for k in range(32):
            # a quarter of the poses, one straight and one bent in every
            # eight, are on the default swimmer
            params = default if k % 8 < 2 else head_asymmetric(self.rng)
            x, y = self.rng.uniform(-1, 1), self.rng.uniform(-1, 1)
            theta = self.rng.uniform(-1.2, 1.2)
            if k % 2 == 0:
                a2 = a3 = 0.0
            else:
                while True:
                    a2 = self.rng.uniform(-0.6, 0.6)
                    a3 = self.rng.uniform(-0.6, 0.6)
                    if max(abs(a2), abs(a3)) >= 0.05:
                        break
            self.cases.append(PoseCase(
                params, np.array([x, y, theta, a2, a3]), k % 2 == 0))

    def op(self, i: int) -> str | None:
        c = self.case(i)
        rank = magswim.lie_rank(c.params, c.point, depth=3)
        ident = None
        if c.straight:
            ident = magswim.equilibrium_identities(c.params, c.point[2])
        self.last = rank
        return check_rank(c, rank, ident)

    def facts(self) -> dict[str, float]:
        rank = self.last
        if not rank.is_straight:
            return {}
        return {"gap45": rank.gap_4_5}


def check_rank(case: PoseCase, rank, ident) -> str | None:
    """The thresholds of the ``controllability`` command at straight poses."""
    if not case.straight:
        return None if rank.rank == 5 else \
            f"rank {rank.rank} at a bent pose, expected 5"
    if rank.rank != 4:
        return f"rank {rank.rank} at a straight pose, expected 4"
    if not rank.gap_4_5 >= 1e4:
        return f"gap_4_5 {rank.gap_4_5:.3e} below 1e4"
    if not ident.alignment_residual <= 1e-8:
        return f"alignment residual {ident.alignment_residual:.3e} above 1e-8"
    stencil = ident.corrected_gap / ident.bracket_norm
    if not stencil <= 1e-5:
        return f"stencil relative gap {stencil:.3e} above 1e-5"
    return None


# --------------------------------------------------------------------------
T_FINAL = 2.5
DT = 0.005


@dataclass(frozen=True)
class TrajectoryCase:
    params: object
    start: object
    field: object


class TrajectoryIO(Workload):
    name = "trajectory_io"
    why = ("recording integrate loop, field sampling and CSV/JSONL round "
           "trips: merging the two stepping loops must not slow it")
    trace_ops = 24

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        for k in range(12):
            params = head_asymmetric(self.rng)
            start = magswim.Configuration(
                self.rng.uniform(-1, 1), self.rng.uniform(-1, 1),
                self.rng.uniform(-math.pi, math.pi),
                self.rng.uniform(-0.6, 0.6), self.rng.uniform(-0.6, 0.6))
            # two tabulated drives for every sinusoidal one
            if k % 3 == 2:
                field = magswim.SinusoidalField(
                    hx0=self.rng.uniform(0.5, 1.5),
                    epsilon=self.rng.uniform(0.2, 1.0),
                    omega=_log_uniform(self.rng, 0.3, 3.0))
            else:
                times = np.linspace(0.0, T_FINAL, 33)
                field = magswim.TabulatedField(
                    times,
                    [self.rng.uniform(0.5, 1.5) for _ in times],
                    [self.rng.uniform(-1.0, 1.0) for _ in times])
            self.cases.append(TrajectoryCase(params, start, field))
        self.csv_path = os.path.join(workdir, "trajectory.csv")
        self.jsonl_path = os.path.join(workdir, "trajectory.jsonl")

    def op(self, i: int) -> str | None:
        c = self.case(i)
        traj = magswim.integrate(c.params, c.start, c.field, T_FINAL, DT)
        magswim.write_trajectory_csv(traj, self.csv_path)
        magswim.write_trajectory_jsonl(traj, self.jsonl_path)
        from_csv = magswim.read_trajectory_csv(self.csv_path)
        from_jsonl, _ = magswim.read_trajectory_jsonl(self.jsonl_path)
        self.last = (os.path.getsize(self.csv_path)
                     + os.path.getsize(self.jsonl_path))
        return check_trajectory(traj, from_csv, from_jsonl)

    def facts(self) -> dict[str, float]:
        return {"bytes": self.last}


def check_trajectory(traj, from_csv, from_jsonl) -> str | None:
    if traj.times[-1] != T_FINAL:
        return f"last time {traj.times[-1]!r} is not t_final {T_FINAL!r}"
    if not np.all(np.isfinite(traj.states)):
        return "non-finite state"
    for fmt, back in (("csv", from_csv), ("jsonl", from_jsonl)):
        if not (np.array_equal(back.times, traj.times)
                and np.array_equal(back.states, traj.states)
                and np.array_equal(back.field_samples, traj.field_samples)):
            return f"{fmt} round trip is not bit-exact"
    return None


WORKLOADS = {w.name: w for w in (NonlinearDisplacement, FrequencyResponse,
                                 RankScan, TrajectoryIO)}
