"""Fixed-step time integration and period-level experiments.

The integrator is fixed-step classical RK4 with the field sampled at stage
times, which is bitwise reproducible; its one loop, ``_advance``, steps
five float locals by inline stages and packs each recorded row into the
trajectory table.  RK4 is stable on the negative real axis only for
``|lambda| dt <= 2.785``, with lambda the stiffest eigenvalue of the angle
dynamics at the straight state, and nothing checks that bound yet: ``dt =
auto`` (``T/2000`` for a sinusoidal drive) is unstable below omega ~
0.0267 on ``checks.CANON`` (lambda = -23.70) and below omega ~ 0.0401 on
the default swimmer (lambda = -35.55).  All the period-matched experiments
(displacement per cycle, symmetry preservation) rely on landing exactly on
period boundaries, which the integrator guarantees by shortening the final
step.
"""
from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .dynamics import make_rate_function
from .errors import IntegrationError
from .model import Configuration, FieldProgram, SinusoidalField, SwimmerParams

__all__ = [
    "TRAJECTORY_COLUMNS",
    "Trajectory",
    "DisplacementReport",
    "SymmetryReport",
    "integrate",
    "displacement_per_period",
    "symmetry_experiment",
]

SHAPE_PERIODICITY_TOL = 1e-8

TRAJECTORY_COLUMNS = ("t", "x", "y", "theta", "alpha2", "alpha3", "Hx", "Hy")
_ROW = struct.Struct("8d")  # a table row of those columns, 64 bytes


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution as one float64 table, a row per sample in
    ``TRAJECTORY_COLUMNS`` order: row k holds the time ``times[k]``, the
    state ``states[k]`` and the field ``field_samples[k]``."""

    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 2 or table.shape[1] != len(TRAJECTORY_COLUMNS):
            raise ValueError(f"a trajectory table has shape (n, "
                             f"{len(TRAJECTORY_COLUMNS)}), not {table.shape}")
        object.__setattr__(self, "table", table)

    # the columns, as views of the table
    times = property(lambda self: self.table[:, 0])
    states = property(lambda self: self.table[:, 1:6])
    field_samples = property(lambda self: self.table[:, 6:])

    def __len__(self) -> int:
        return len(self.table)

    def final(self) -> Configuration:
        return Configuration.from_array(self.states[-1])


@dataclass(frozen=True)
class DisplacementReport:
    """Net displacement over an integer number of forcing periods."""

    delta_x: float
    delta_y: float
    periods_used: int
    burn_in_periods: int
    theta_drift: float
    shape_gap: float
    converged: bool


@dataclass(frozen=True)
class SymmetryReport:
    """Worst-case departure from the symmetric invariant set."""

    max_alpha_gap: float
    max_abs_x: float
    max_abs_y: float
    dt: float
    steps: int
    tolerance: float

    @property
    def within_tolerance(self) -> bool:
        return max(self.max_alpha_gap, self.max_abs_x,
                   self.max_abs_y) <= self.tolerance


def _default_dt(field: FieldProgram, t_final: float) -> float:
    """2000 steps per period of a periodic drive, else 1e4 over the run;
    neither looks at the swimmer, so a slow drive or a long run can give a
    step beyond RK4's stability bound (see the module docstring)."""
    if isinstance(field, SinusoidalField):
        return field.period / 2000.0
    return t_final / 1e4


def _plan_steps(span: float, dt: float) -> tuple[int, float]:
    """Number of full steps and the remainder needed to land on ``span``;
    every stepping loop plans here, so this is where ``dt`` is checked."""
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    steps = span / dt
    if not math.isfinite(steps):
        raise ValueError(f"dt = {dt!r} is too small: span / dt is not finite")
    n_full = int(math.floor(steps + 1e-9))
    rem = span - n_full * dt
    if rem <= 1e-9 * dt:
        rem = 0.0
    return n_full, rem


def _advance(rate, field: FieldProgram, y, t0: float,
             span: float, dt: float, table=None) -> np.ndarray:
    """RK4 of the five-float state ``y`` from ``t0`` over ``span``, the last
    step shortened to land on it; step k packs its start ``(t, *y, hx,
    hy)`` into row k of ``table``, a C-contiguous float64 array, when given.

    The state is five float locals.  A step calls ``rate``, from
    :func:`make_rate_function`, four times as ``rate(theta, alpha2, alpha3,
    hx, hy)`` and samples the field at ``t``, ``t + h`` and ``t + step``;
    its stages combine in the order of the array form ``y + h*k`` and ``y +
    (dt/6)*((k1 + 2*(k2 + k3)) + k4)``, as IEEE ``+`` and ``*`` give the
    same bits either way.  All of it is Python floats, under no numpy error
    state; an exactly singular ``Mh`` ends the run by ``LinAlgError('Singular
    matrix')``.
    """
    n_full, rem = _plan_steps(span, dt)
    y0, y1, y2, y3, y4 = np.asarray(y, dtype=float).tolist()
    sample, isfinite, pack = field.sample, math.isfinite, _ROW.pack_into
    t, step = t0, dt
    try:
        for k in range(n_full + (rem > 0.0)):
            hx, hy = sample(t)
            if table is not None:
                pack(table, 64 * k, t, y0, y1, y2, y3, y4, hx, hy)
            if k == n_full:
                step = rem
            h = 0.5 * step
            a0, a1, a2, a3, a4 = rate(y2, y3, y4, hx, hy)
            hx, hy = sample(t + h)
            b0, b1, b2, b3, b4 = rate(y2 + h * a2, y3 + h * a3, y4 + h * a4,
                                      hx, hy)
            c0, c1, c2, c3, c4 = rate(y2 + h * b2, y3 + h * b3, y4 + h * b4,
                                      hx, hy)
            hx, hy = sample(t + step)
            d0, d1, d2, d3, d4 = rate(y2 + step * c2, y3 + step * c3,
                                      y4 + step * c4, hx, hy)
            s = step / 6.0
            y0 = y0 + s * ((a0 + 2.0 * (b0 + c0)) + d0)
            y1 = y1 + s * ((a1 + 2.0 * (b1 + c1)) + d1)
            y2 = y2 + s * ((a2 + 2.0 * (b2 + c2)) + d2)
            y3 = y3 + s * ((a3 + 2.0 * (b3 + c3)) + d3)
            y4 = y4 + s * ((a4 + 2.0 * (b4 + c4)) + d4)
            t = t0 + (k + 1) * dt if k < n_full else t0 + span
            if not (isfinite(y0) and isfinite(y1) and isfinite(y2)
                    and isfinite(y3) and isfinite(y4)):
                raise IntegrationError(
                    f"state became non-finite at t = {t:.6g}")
    except ValueError as exc:  # LinAlgError is a ValueError
        raise IntegrationError(
            f"integration step failed near t = {t:.6g}: {exc}") from exc
    return np.array([y0, y1, y2, y3, y4])


def integrate(params: SwimmerParams, initial: Configuration,
              field: FieldProgram, t_final: float, dt: float,
              t0: float = 0.0) -> Trajectory:
    """Classical RK4 from ``t0`` to exactly ``t_final``.

    The final step is shortened when ``dt`` does not divide the span, so
    ``times[-1] == t_final`` up to roundoff.  Aborts with
    :class:`IntegrationError` if the state leaves the finite range or a
    resistance solve fails; a ``dt`` too small to plan, or whose rows do
    not fit in memory, raises ``ValueError``.
    """
    if not (math.isfinite(t0) and math.isfinite(t_final)):
        raise ValueError("t0 and t_final must be finite")
    span = t_final - t0
    if span < 0.0:
        raise ValueError("t_final must not precede t0")
    n_full, rem = _plan_steps(span, dt)
    n_rows = n_full + 1 + (1 if rem > 0.0 else 0)
    try:
        table = np.empty((n_rows, len(TRAJECTORY_COLUMNS)))
    except MemoryError:
        raise ValueError(f"dt = {dt!r} is too small: the {n_rows} rows of "
                         f"the trajectory do not fit in memory") from None
    y = _advance(make_rate_function(params), field, initial.as_array(), t0,
                 span, dt, table)
    # row k is stamped t0 + k*dt and the last row t_final; that row's field
    # is sampled at t_final after a shortened step, else where the last
    # full step ended (t0 when none was taken)
    t_end = t_final if rem > 0.0 else t0 + n_full * dt if n_full else t0
    table[-1] = (t_final, *y, *field.sample(t_end))
    return Trajectory(table)


def displacement_per_period(params: SwimmerParams, initial: Configuration,
                            epsilon: float, omega: float,
                            burn_in_periods: int = 20,
                            measure_periods: int = 1,
                            dt: float | None = None) -> DisplacementReport:
    """Net displacement per cycle under ``H = (1, epsilon sin(omega t))``.

    Burn-in runs until the shape coordinates (theta, alpha2, alpha3) repeat
    across one period to within ``SHAPE_PERIODICITY_TOL``; x is excluded
    since it drifts by design.  If the check fails, the burn-in doubles (at
    most four times) before the report flags non-convergence.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if any(isinstance(n, bool) or not isinstance(n, numbers.Integral)
           for n in (burn_in_periods, measure_periods)):
        raise ValueError("period counts must be integers")
    if burn_in_periods < 1 or measure_periods < 1:
        raise ValueError("period counts must be at least 1")
    burn_in_periods, measure_periods = int(burn_in_periods), \
        int(measure_periods)
    field = SinusoidalField(hx0=1.0, epsilon=epsilon, omega=omega)
    T = field.period
    if dt is None:
        dt = _default_dt(field, T)
    rate = make_rate_function(params)
    y = initial.as_array()
    done = 0
    for doublings in range(5):
        budget = burn_in_periods * 2 ** doublings
        for k in range(done, budget):
            prev = y
            y = _advance(rate, field, y, k * T, T, dt)
        done = budget
        gap = float(np.linalg.norm(y[2:] - prev[2:]))
        if gap < SHAPE_PERIODICITY_TOL:
            break
    converged = gap < SHAPE_PERIODICITY_TOL
    start_state = y
    for k in range(done, done + measure_periods):
        y = _advance(rate, field, y, k * T, T, dt)
    return DisplacementReport(
        delta_x=float(y[0] - start_state[0]),
        delta_y=float(y[1] - start_state[1]),
        periods_used=measure_periods,
        burn_in_periods=done,
        theta_drift=float(y[2] - start_state[2]),
        shape_gap=gap,
        converged=converged,
    )


def symmetry_experiment(params: SwimmerParams, initial: Configuration,
                        field: FieldProgram, t_final: float,
                        dt: float | None = None) -> SymmetryReport:
    """Track how well the symmetric set ``{x = y = 0, alpha2 = alpha3}`` holds.

    Preconditions are strict: the swimmer must be palindromic, its first
    and third links sharing drag coefficients (the half-turn that swaps
    them is otherwise not a symmetry of the dynamics at all), and the
    initial state must lie exactly on the symmetric set.  The reported
    tolerance is ``max(10 dt^4, 1e-12)``: integrator truncation enters at
    fourth order and the floor covers accumulated roundoff.
    """
    if not params.palindromic():
        raise ValueError(
            "symmetry experiment requires the first and third links to "
            "share drag coefficients (xi1 = xi3, eta1 = eta3)")
    if initial.x != 0.0 or initial.y != 0.0:
        raise ValueError("initial position must be exactly (0, 0)")
    if initial.alpha2 != initial.alpha3:
        raise ValueError("initial joint angles must be exactly equal")
    if dt is None:
        dt = _default_dt(field, t_final)
    traj = integrate(params, initial, field, t_final, dt)
    gap = float(np.max(np.abs(traj.states[:, 3] - traj.states[:, 4])))
    return SymmetryReport(
        max_alpha_gap=gap,
        max_abs_x=float(np.max(np.abs(traj.states[:, 0]))),
        max_abs_y=float(np.max(np.abs(traj.states[:, 1]))),
        dt=dt,
        steps=len(traj) - 1,
        tolerance=max(10.0 * dt ** 4, 1e-12),
    )
