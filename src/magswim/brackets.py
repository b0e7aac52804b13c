"""Drift-affine structure and Lie bracket analysis of the swimmer.

The balance law is affine in the two field components,

    Xdot = f0(X) + Hx fx(X) + Hy fy(X),

with drift f0 carrying the elastic relaxation and fx, fy the magnetic
response per unit field.  This module evaluates those three vector fields
on the full state X = (x, y, theta, alpha2, alpha3), forms iterated Lie
brackets by finite differences, and measures the rank of the span at a
point.  That rank bounds the locally reachable set: directions outside
the span cannot be generated by any field program.

Two algebraic identities hold at the straight, bent-free states
X = (x, y, theta, 0, 0):

* alignment: fx + tan(theta) fy = 0, because the two coupling columns
  are proportional there.  As a consequence the controls contribute a
  single direction and motion needs brackets.
* the first bracket satisfies
  [fx, fy](X) = (M / cos theta) Mh^-1 S fy(X) with the constant stencil
  S v = (0, 0, 3 v3 + v4 + v5, 2 v3 + v5, v3 + v5) acting on the angle
  components.  The often-quoted shortcut [fx, fy] = (fy)_theta fy is not
  an identity; ``equilibrium_identities`` reports the gap of both forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import _field_columns, _load_core
from .model import SwimmerParams

__all__ = [
    "BASE_STEP",
    "NESTED_STEP",
    "VectorField",
    "ControlSystem",
    "EquilibriumReport",
    "RankReport",
    "control_vector_fields",
    "field_jacobian",
    "lie_bracket",
    "lie_bracket_field",
    "equilibrium_identities",
    "lie_rank",
]

# central-difference steps: first derivatives of the assembled fields are
# accurate near 1e-10 with 1e-6; a bracket field already carries that
# noise, so differentiating it again needs the coarser step
BASE_STEP = 1e-6
NESTED_STEP = 1e-4

STATE_DIM = 5


@dataclass(frozen=True)
class VectorField:
    """A labelled state-space vector field ``x -> R^5``."""

    fn: Callable[[np.ndarray], np.ndarray]
    label: str

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ControlSystem:
    """Drift and control fields of the affine system."""

    f0: VectorField
    fx: VectorField
    fy: VectorField

    def generators(self) -> tuple[VectorField, VectorField, VectorField]:
        return (self.f0, self.fx, self.fy)


# a system's memo is cleared once it holds this many poses: one depth-3
# lie_rank touches 49 (54 when theta is -0.0), and a long-lived system
# must not grow without limit
_MEMO_LIMIT = 256


class _SharedSolve:
    """The ``_field_columns`` solve of one system, memoised per pose.

    The fields depend on the angles only, so the memo is keyed on the
    bytes of ``x[2:5]``: a float key would merge -0.0 with 0.0, whose
    outputs may differ in signed zeros.  Each field returns a copy of its
    column, so a caller cannot change what the memo holds.
    """

    def __init__(self, params: SwimmerParams) -> None:
        self._loads = _load_core(params)
        self.memo: dict[bytes, np.ndarray] = {}

    def __call__(self, x: np.ndarray) -> np.ndarray:
        key = x[2:5].tobytes()
        columns = self.memo.get(key)
        if columns is None:
            if len(self.memo) >= _MEMO_LIMIT:
                self.memo.clear()
            columns = _field_columns(*self._loads(x[2], x[3], x[4]))
            self.memo[key] = columns
        return columns

    def f0(self, x: np.ndarray) -> np.ndarray:
        return self(x)[:, 0].copy()

    def fx(self, x: np.ndarray) -> np.ndarray:
        return self(x)[:, 1].copy()

    def fy(self, x: np.ndarray) -> np.ndarray:
        return self(x)[:, 2].copy()


def control_vector_fields(params: SwimmerParams) -> ControlSystem:
    """The fields f0, fx, fy of the swimmer with ``params``.

    The three fields come from one 3-column solve.  They share a memo of
    that solve, so evaluating all three at one pose, or the same pose
    again, assembles and solves once.
    """
    solve = _SharedSolve(params)
    return ControlSystem(f0=VectorField(solve.f0, "f0"),
                         fx=VectorField(solve.fx, "fx"),
                         fy=VectorField(solve.fy, "fy"))


def field_jacobian(field: VectorField, point: np.ndarray,
                   step: float = BASE_STEP) -> np.ndarray:
    """Central-difference Jacobian, entry [i, j] = d field_i / d x_j, of
    any field from n-vectors to n-vectors."""
    point = np.asarray(point, dtype=float)
    return _difference_columns(field, point, step, range(point.size))


def _angle_jacobian(field: VectorField, point: np.ndarray,
                    step: float) -> np.ndarray:
    """``field_jacobian`` of a field that depends on the angles only, such
    as the fields of ``control_vector_fields``: its x and y columns, exact
    zeros of the difference, stay +0.0 and cost no evaluation."""
    return _difference_columns(field, point, step, range(2, STATE_DIM))


def _difference_columns(field: VectorField, point: np.ndarray, step: float,
                        axes: range) -> np.ndarray:
    jac = np.zeros((point.size, point.size))
    for j in axes:
        dx = np.zeros(point.size)
        dx[j] = step
        jac[:, j] = (field(point + dx) - field(point - dx)) / (2.0 * step)
    return jac


def lie_bracket(f: VectorField, g: VectorField, point: np.ndarray,
                step: float = BASE_STEP) -> np.ndarray:
    """``[f, g](point) = Dg f - Df g`` by central differences."""
    point = np.asarray(point, dtype=float)
    return (field_jacobian(g, point, step) @ f(point)
            - field_jacobian(f, point, step) @ g(point))


def lie_bracket_field(f: VectorField, g: VectorField,
                      step: float = BASE_STEP) -> VectorField:
    return VectorField(
        fn=lambda x: lie_bracket(f, g, x, step),
        label=f"[{f.label},{g.label}]")


@dataclass(frozen=True)
class EquilibriumReport:
    """Identity residuals at the straight state (0, 0, theta, 0, 0).

    ``alignment_residual`` is ``|fx + tan(theta) fy| / |fy|`` and should
    vanish to roundoff.  ``claimed_gap`` and ``corrected_gap`` are the
    absolute defects of the two candidate bracket formulas, to be read
    against ``fy_norm`` and ``bracket_norm``.
    """

    theta: float
    alignment_residual: float
    claimed_gap: float
    corrected_gap: float
    fy_norm: float
    bracket_norm: float


def _angle_stencil(v: np.ndarray) -> np.ndarray:
    """Constant stencil appearing in the bracket identity.

    Differentiating the coupling columns along the angle directions
    produces fixed integer combinations of the angle components of v.
    """
    out = np.zeros(STATE_DIM)
    out[2] = 3.0 * v[2] + v[3] + v[4]
    out[3] = 2.0 * v[2] + v[4]
    out[4] = v[2] + v[4]
    return out


def equilibrium_identities(params: SwimmerParams,
                           theta: float) -> EquilibriumReport:
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    if abs(np.cos(theta)) < 0.05:
        raise ValueError(
            "theta too close to a transverse pose; tan(theta) blows up")
    point = np.array([0.0, 0.0, float(theta), 0.0, 0.0])
    system = control_vector_fields(params)
    fx_val = system.fx(point)
    fy_val = system.fy(point)
    fy_norm = float(np.linalg.norm(fy_val))
    alignment = np.linalg.norm(fx_val + np.tan(theta) * fy_val)
    # lie_bracket(fx, fy, point), differencing the angles only
    bracket = (_angle_jacobian(system.fy, point, BASE_STEP) @ fx_val
               - _angle_jacobian(system.fx, point, BASE_STEP) @ fy_val)
    claimed = fy_val[2] * fy_val
    mh = _load_core(params)(point[2], 0.0, 0.0)[0]
    corrected = (params.M / np.cos(theta)) * np.linalg.solve(
        mh, _angle_stencil(fy_val))
    return EquilibriumReport(
        theta=float(theta),
        alignment_residual=float(alignment / fy_norm),
        claimed_gap=float(np.linalg.norm(bracket - claimed)),
        corrected_gap=float(np.linalg.norm(bracket - corrected)),
        fy_norm=fy_norm,
        bracket_norm=float(np.linalg.norm(bracket)),
    )


@dataclass(frozen=True)
class RankReport:
    """Span of the bracket-generated directions at a point.

    ``rank`` counts singular values above ``tol_factor`` times the
    largest one.  ``gap_4_5`` is the ratio of the fourth to the fifth
    singular value; a large value certifies a clean rank-4 span.  At
    straight states (``is_straight``) the y-translation is obstructed and
    the rank stays at 4 for every bracket depth; bent states reach 5.
    """

    point: np.ndarray
    depth: int
    rank: int
    singular_values: np.ndarray
    gap_4_5: float
    labels: tuple[str, ...]
    is_straight: bool
    tol_factor: float


def lie_rank(params: SwimmerParams, point: np.ndarray, depth: int = 3,
             tol_factor: float = 1e-8) -> RankReport:
    """Rank of {generators and brackets up to ``depth``} at ``point``.

    Depth 1 uses f0, fx, fy; depth 2 adds [f0,fx], [f0,fy], [fx,fy];
    depth 3 adds the nine once-nested words [s, w] with s a generator and
    w a depth-2 bracket, evaluated with the coarser nested step.

    Each nested word is ``Dw s - Ds w``, the arithmetic of ``lie_bracket``
    with the Jacobians hoisted: ``Dw`` is taken once per depth-2 word,
    ``Ds`` once per generator, and ``s``, ``w`` at the point are the
    depth-1 and depth-2 columns; ``Ds`` differences the angles only, as
    the generators ignore x and y.  A depth-3 rank makes 747 field calls.
    With the shared solve of ``control_vector_fields``, depth 3 assembles
    once per distinct pose of its difference stencil: 49, or 54 when theta
    is -0.0.
    """
    if depth not in (1, 2, 3):
        raise ValueError("depth must be 1, 2, or 3")
    point = np.asarray(point, dtype=float)
    if point.shape != (STATE_DIM,):
        raise ValueError("point must be a 5-vector state")
    if not np.all(np.isfinite(point)):
        raise ValueError("point must be finite")
    if not 0.0 < tol_factor < 1.0:
        raise ValueError("tol_factor must lie in (0, 1)")
    system = control_vector_fields(params)
    generators = system.generators()
    columns = [g(point) for g in generators]
    labels = [g.label for g in generators]
    if depth >= 2:
        pairs = ((system.f0, system.fx), (system.f0, system.fy),
                 (system.fx, system.fy))
        second = [lie_bracket_field(f, g) for f, g in pairs]
        for w in second:
            columns.append(w(point))
            labels.append(w.label)
    if depth >= 3:
        # Dw still differences x and y, exact zeros as well: at theta = -0.0
        # those columns alone visit two +0.0 twin poses of the stencil,
        # which keeps its 54 assembled poses
        d_second = [field_jacobian(w, point, NESTED_STEP) for w in second]
        for i, s in enumerate(generators):
            d_s = _angle_jacobian(s, point, NESTED_STEP)
            for j, w in enumerate(second):
                columns.append(d_second[j] @ columns[i]
                               - d_s @ columns[3 + j])
                labels.append(f"[{s.label},{w.label}]")
    matrix = np.column_stack(columns)
    raw = np.linalg.svd(matrix, compute_uv=False)
    # fewer columns than states yields fewer singular values; the missing
    # ones are exact zeros of the padded problem
    singular = np.zeros(STATE_DIM)
    singular[:raw.size] = raw
    rank = int(np.sum(singular > tol_factor * singular[0]))
    if singular[4] > 0.0:
        gap = float(singular[3] / singular[4])
    elif singular[3] > 0.0:
        gap = np.inf
    else:
        gap = np.nan
    is_straight = bool(max(abs(point[3]), abs(point[4])) < 1e-12)
    return RankReport(
        point=point, depth=depth, rank=rank,
        singular_values=singular, gap_4_5=gap,
        labels=tuple(labels), is_straight=is_straight,
        tol_factor=float(tol_factor))
