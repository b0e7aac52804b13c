"""Fixed-step time integration and period-level experiments.

The integrator is fixed-step classical RK4 with the field sampled at stage
times, which is bitwise reproducible.  RK4 is stable on the negative real
axis only for ``|lambda| dt <= 2.785``, with lambda the stiffest eigenvalue
of the angle dynamics at the straight state, and nothing checks that bound
yet: ``dt = auto`` (``T/2000`` for a sinusoidal drive) is unstable below
omega ~ 0.0267 on ``checks.CANON`` (lambda = -23.70) and below omega ~
0.0401 on the default swimmer (lambda = -35.55).  All the period-matched
experiments (displacement per cycle, symmetry preservation) rely on
landing exactly on period boundaries, which the integrator guarantees by
shortening the final step.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import make_rate_function
from .errors import IntegrationError
from .model import Configuration, FieldProgram, SinusoidalField, SwimmerParams

__all__ = [
    "Trajectory",
    "DisplacementReport",
    "SymmetryReport",
    "integrate",
    "displacement_per_period",
    "symmetry_experiment",
]

SHAPE_PERIODICITY_TOL = 1e-8


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: row k of ``states`` is the state at ``times[k]``."""

    times: np.ndarray
    states: np.ndarray
    field_samples: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

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


def _step(rate, field: FieldProgram, t: float, field_t: tuple, y: list,
          dt: float) -> list:
    """One RK4 step of the state ``y``, a list of five floats, from the
    field ``field_t`` sampled at ``t``.

    The stages are combined elementwise on Python floats in the order the
    array form ``y + h*k`` and ``y + (dt/6)*(k1 + 2*(k2 + k3) + k4)``
    evaluates them; IEEE ``+`` and ``*`` give the same bits either way, and
    five floats cost less than five-element arrays.  The stage states keep
    the step's ``x, y``: the rate reads only the angles."""
    h = 0.5 * dt
    y0, y1, y2, y3, y4 = y
    a0, a1, a2, a3, a4 = rate(y, *field_t)
    hx2, hy2 = field.sample(t + h)
    b0, b1, b2, b3, b4 = rate(
        [y0, y1, y2 + h * a2, y3 + h * a3, y4 + h * a4], hx2, hy2)
    c0, c1, c2, c3, c4 = rate(
        [y0, y1, y2 + h * b2, y3 + h * b3, y4 + h * b4], hx2, hy2)
    hx4, hy4 = field.sample(t + dt)
    d0, d1, d2, d3, d4 = rate(
        [y0, y1, y2 + dt * c2, y3 + dt * c3, y4 + dt * c4], hx4, hy4)
    s = dt / 6.0
    return [y0 + s * ((a0 + 2.0 * (b0 + c0)) + d0),
            y1 + s * ((a1 + 2.0 * (b1 + c1)) + d1),
            y2 + s * ((a2 + 2.0 * (b2 + c2)) + d2),
            y3 + s * ((a3 + 2.0 * (b3 + c3)) + d3),
            y4 + s * ((a4 + 2.0 * (b4 + c4)) + d4)]


def _advance(rate, field: FieldProgram, y, t0: float,
             span: float, dt: float, record=None) -> np.ndarray:
    """RK4 of the five-float state ``y`` from ``t0`` over ``span``, the last
    step shortened to land on it; each step appends to the three lists
    ``record``, when given, its start field, its end time and end state.

    The rate, the stages and the field programs compute on Python floats,
    under no numpy error state; an exactly singular ``Mh`` ends the run by
    the rate's ``LinAlgError('Singular matrix')``.
    """
    n_full, rem = _plan_steps(span, dt)
    y = np.asarray(y, dtype=float).tolist()
    if record is not None:
        put_field, put_t, put_y = (rows.append for rows in record)
    t = t0
    try:
        for k in range(n_full + (rem > 0.0)):
            field_t = field.sample(t)
            if k < n_full:
                y = _step(rate, field, t, field_t, y, dt)
                t = t0 + (k + 1) * dt
            else:
                y = _step(rate, field, t, field_t, y, rem)
                t = t0 + span
            if not all(map(math.isfinite, y)):
                raise IntegrationError(
                    f"state became non-finite at t = {t:.6g}")
            if record is not None:
                put_field(field_t)
                put_t(t)
                put_y(y)
    except ValueError as exc:  # LinAlgError is a ValueError
        raise IntegrationError(
            f"integration step failed near t = {t:.6g}: {exc}") from exc
    return np.array(y)


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
        times = np.empty(n_rows)
        states = np.empty((n_rows, 5))
        fields = np.empty((n_rows, 2))
    except MemoryError:
        raise ValueError(f"dt = {dt!r} is too small: the {n_rows} rows of "
                         f"the trajectory do not fit in memory") from None
    y = initial.as_array().tolist()
    fs, ts, ys = [], [t0], [y]
    _advance(make_rate_function(params), field, y, t0, span, dt,
             (fs, ts, ys))
    # row k is stamped t0 + k*dt and the last row t_final; that row's field
    # is sampled at t_final after a shortened step, else at t0 + n_full*dt
    fs.append(field.sample(t_final if rem > 0.0 else ts[-1]))
    times[:], states[:], fields[:] = ts, ys, fs
    times[-1] = t_final
    return Trajectory(times=times, states=states, field_samples=fields)


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
