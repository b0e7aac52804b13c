"""Drift-affine structure and Lie bracket analysis of the swimmer.

The balance law is affine in the two field components,

    Xdot = f0(X) + Hx fx(X) + Hy fy(X),

with drift f0 carrying the elastic relaxation and fx, fy the magnetic
response per unit field.  This module evaluates those three vector fields
on the full state X = (x, y, theta, alpha2, alpha3), forms iterated Lie
brackets, and measures the rank of the span at a point.  That rank bounds
the locally reachable set: directions outside the span cannot be
generated by any field program.

The fields ignore the position, and the heading enters only through a
rotation of the plane and of the field, so a bracket's derivatives along
x, y and theta are exact; only the joint angles alpha2 and alpha3 are
differenced, centrally.  The same rotation leaves the singular values of
the bracket span unchanged, so the rank is read in the body frame,
theta = 0, and depends on (alpha2, alpha3) alone.

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

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import _load_core, _solve_poses
from .model import SwimmerParams

__all__ = [
    "BASE_STEP",
    "NESTED_STEP",
    "VectorField",
    "ControlSystem",
    "EquilibriumReport",
    "RankReport",
    "control_vector_fields",
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
    """A state-space vector field ``x -> R^5``."""

    fn: Callable[[np.ndarray], np.ndarray]

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


class _SharedSolve:
    """The ``_solve_poses`` solve of one system at the last state or stack
    of states, so f0, fx and fy on one stack solve once.

    The fields depend on the angles only, so the solve is keyed on the
    shape and the bytes of ``x[..., 2:5]``: a float key would merge -0.0
    with 0.0, whose outputs may differ in signed zeros.  Each field returns
    a copy of its rows, so a caller cannot change what is held.
    """

    def __init__(self, params: SwimmerParams) -> None:
        self._loads = _load_core(params)
        self._key: tuple | None = None
        self._fields = np.empty(0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1:] != (STATE_DIM,):
            raise ValueError("states must be 5-vectors")
        angles = x[..., 2:5]
        key = (x.shape, angles.tobytes())
        if key != self._key:
            if not np.all(np.isfinite(angles)):
                raise ValueError("state angles must be finite")
            self._fields = _solve_poses(
                self._loads, angles.reshape(-1, 3).tolist())[1].reshape(
                    x.shape[:-1] + (3, STATE_DIM))
            self._key = key
        return self._fields

    def f0(self, x: np.ndarray) -> np.ndarray:
        return self(x)[..., 0, :].copy()

    def fx(self, x: np.ndarray) -> np.ndarray:
        return self(x)[..., 1, :].copy()

    def fy(self, x: np.ndarray) -> np.ndarray:
        return self(x)[..., 2, :].copy()


def control_vector_fields(params: SwimmerParams) -> ControlSystem:
    """The fields f0, fx, fy of the swimmer with ``params``.

    Each field maps a state, or a stack of states of shape (..., 5), to
    the field there, of the same shape.  The three fields come from one
    3-column solve per pose, batched over a stack, and share the last one:
    evaluating all three at one state or stack assembles and solves once.
    A state that is not a 5-vector, or whose angles are not finite, raises
    ``ValueError``; the fields ignore the position.
    """
    solve = _SharedSolve(params)
    return ControlSystem(f0=VectorField(solve.f0), fx=VectorField(solve.fx),
                         fy=VectorField(solve.fy))


# The rank and the identities difference the blocks C(x) = [f0 fx fy] at
# every pose of a stencil at once; the frozen rank and identities digests
# pin the bits of its poses, differences and products.
#
# The heading enters only through a rotation: with T(phi) turning (x, y)
# and R(phi) the field, f0 and [fx, fy] at theta + phi are T f0 and
# T [fx, fy], and the pair (fx, fy) is T [fx fy] R(phi)^T.  So every
# theta-derivative is exact, and only the joint angles are differenced.

# the unit steps e_3, e_4 of the two joint angles on the full state
_ANGLE_UNITS = np.eye(STATE_DIM)[3:]


def _shifted(states: np.ndarray, step: float) -> np.ndarray:
    """The states ``x +- step e_j`` of a central difference over the
    joint angles alpha2 and alpha3, for each x of the (..., 5)
    ``states``: (..., 4, 5) in the order +e_3, -e_3, +e_4, -e_4.

    Each is ``x + dx`` or ``x - dx`` with dx the full 5-vector step: the
    other entries move by +-0.0, and -0.0 + 0.0 is +0.0, so a -0.0 of x
    becomes +0.0 on the + side of another angle's difference.  The
    heading is never shifted; its derivative is exact (``_turned``).
    """
    dx = step * _ANGLE_UNITS
    out = np.empty(states.shape[:-1] + (4, STATE_DIM))
    out[..., 0::2, :] = states[..., None, :] + dx
    out[..., 1::2, :] = states[..., None, :] - dx
    return out


def _with_neighbours(centres: np.ndarray) -> np.ndarray:
    """The (n, 5) ``centres``, then the ``BASE_STEP`` neighbours of each."""
    return np.concatenate([
        centres, _shifted(centres, BASE_STEP).reshape(-1, STATE_DIM)])


def _turned(rows: np.ndarray, u: int, w: int) -> np.ndarray:
    """The exact theta-derivative of the (..., 3, 5) field ``rows``.

    With ``J v = (-v_y, v_x, 0, 0, 0)``, a row that rotates with the
    plane (f0, [fx, fy]) has derivative ``J v``; the pair (u, w) that
    also turns with the field ((fx, fy), or ([f0,fx], [f0,fy])) has
    ``J u - w`` and ``J w + u``.
    """
    out = np.zeros_like(rows)
    out[..., 0] = -rows[..., 1]
    out[..., 1] = rows[..., 0]
    out[..., u, :] -= rows[..., w, :]
    out[..., w, :] += rows[..., u, :]
    return out


def _jacobians(rows: np.ndarray, plus: np.ndarray, minus: np.ndarray,
               step: float, u: int, w: int) -> np.ndarray:
    """Jacobians of three fields that depend on the angles only.

    ``rows`` (..., 3, 5) holds the fields at the centres, whose pair
    (u, w) turns with the field (``_turned``), and ``plus[..., j, m, :]``
    and ``minus`` hold field m at ``centre +- step e_{3+j}`` (the pairs
    of ``_shifted``).  Returns the (..., 3, 5, 5) Jacobians: x and y
    columns +0.0, those derivatives being exact zeros, the theta column
    exact and the joint-angle columns central differences.  Each is
    C-contiguous, the layout the frozen digests were recorded with: a
    product with it runs that BLAS kernel and rounds the same way.
    """
    jac = np.zeros(rows.shape + (STATE_DIM,))
    jac[..., 2] = _turned(rows, u, w)
    jac[..., 3:] = np.moveaxis((plus - minus) / (2.0 * step), -3, -1)
    return jac


def _second_words(fields: np.ndarray, n: int) -> np.ndarray:
    """The words [f0,fx], [f0,fy], [fx,fy] at n centres from the
    generators on the ``_with_neighbours`` stencil of those centres."""
    around = fields[n:].reshape(n, 2, 2, 3, STATE_DIM)
    jac = _jacobians(fields[:n], around[:, :, 0], around[:, :, 1],
                     BASE_STEP, 1, 2)
    # [f, g] = Dg f - Df g for (f, g) = (f0, fx), (f0, fy), (fx, fy)
    f, g = [0, 0, 1], [1, 2, 2]
    return (jac[:, g] @ fields[:n, f, :, None]
            - jac[:, f] @ fields[:n, g, :, None])[..., 0]


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
    """Residuals of the alignment and bracket identities at the straight
    state ``(0, 0, theta, 0, 0)``.

    The generators are solved at that state and at its four ``BASE_STEP``
    neighbours in alpha2 and alpha3, a stencil of 5 poses assembled and
    solved in one batch; ``[fx, fy]`` is the depth-2 word of ``lie_rank``
    on it.  Both identities carry ``tan theta`` or ``1 / cos theta``, so
    a heading with ``|cos theta| < 0.05``, or one that is not finite,
    raises ``ValueError``.
    """
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    if abs(np.cos(theta)) < 0.05:
        raise ValueError(
            "theta too close to a transverse pose; tan(theta) blows up")
    states = _with_neighbours(np.array([[0.0, 0.0, theta, 0.0, 0.0]]))
    mh, fields = _solve_poses(_load_core(params), states[:, 2:].tolist())
    _, fx_val, fy_val = fields[0]
    fy_norm = float(np.linalg.norm(fy_val))
    alignment = np.linalg.norm(fx_val + np.tan(theta) * fy_val)
    # [fx, fy] at the straight state, the word of lie_rank
    bracket = _second_words(fields, 1)[0, 2]
    claimed = fy_val[2] * fy_val
    corrected = (params.M / np.cos(theta)) * np.linalg.solve(
        mh[0], _angle_stencil(fy_val))
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

    ``rank`` counts singular values above 1e-8 times the largest one, a
    fixed cut.  ``gap_4_5`` is the ratio of the fourth to the fifth
    singular value; a large value indicates a clean rank-4 span.  At
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


def lie_rank(params: SwimmerParams, point: np.ndarray,
             depth: int = 3) -> RankReport:
    """Rank of {generators and brackets up to ``depth``} at ``point``.

    Depth 1 uses f0, fx, fy; depth 2 adds [f0,fx], [f0,fy], [fx,fy];
    depth 3 adds the nine once-nested words [s, w] with s a generator and
    w a depth-2 bracket, evaluated with the coarser nested step.

    The rank is read in the body frame, at (0, 0, 0, alpha2, alpha3).  A
    turn of the heading multiplies the matrix of words by the orthogonal
    ``T(theta)`` on the left and mixes its columns orthogonally on the
    right (fx with fy and [f0,fx] with [f0,fy] as pairs, the nine nested
    words by the Kronecker product of those two), so its singular values
    do not depend on theta, and the report is the same, bit for bit, at
    every theta.  ``point`` is echoed as given.

    A depth-2 word is ``Dg f - Df g`` with ``BASE_STEP`` Jacobians; a
    nested word is ``Dw s - Ds w`` with ``NESTED_STEP`` Jacobians, taken
    once per generator and per depth-2 word.  Each Jacobian has zero x
    and y columns, as the fields ignore the position, the exact theta
    column of the rotation rule, and central differences over alpha2 and
    alpha3.  The poses of the difference stencil are listed first: the
    point, at depth 3 the four ``point +- NESTED_STEP e_j``, and the four
    ``+- BASE_STEP e_k`` around each of those.  The fields of
    ``control_vector_fields`` are evaluated on the stack of these poses,
    which assembles each pose once (1, 5 and 25 at depths 1, 2 and 3) and
    solves all of them in one batched call; each Jacobian is one array
    difference of the solved fields.

    A point whose words overflow (a joint angle near 1e300 loads the
    spring with as much) raises ``ValueError``.
    """
    if isinstance(depth, bool) or not isinstance(depth, numbers.Integral) \
            or depth not in (1, 2, 3):
        raise ValueError("depth must be 1, 2, or 3")
    depth = int(depth)
    point = np.asarray(point, dtype=float)
    if point.shape != (STATE_DIM,):
        raise ValueError("point must be a 5-vector state")
    if not np.all(np.isfinite(point)):
        raise ValueError("point must be finite")
    # the stencil, in the body frame: at depth 3, centres 1-4 are
    # point +- NESTED_STEP e_j, where the depth-2 words are differenced
    centres = np.array([[0.0, 0.0, 0.0, point[3], point[4]]])
    if depth == 3:
        centres = np.concatenate([centres, _shifted(centres[0], NESTED_STEP)])
    states = _with_neighbours(centres) if depth >= 2 else centres
    # the generators at every stencil state, each a stack of one solve
    fields = np.stack([f(states) for f in
                       control_vector_fields(params).generators()], axis=1)
    n = len(centres)
    rows = [fields[0]]
    labels = ["f0", "fx", "fy"]
    with np.errstate(over="ignore", invalid="ignore"):
        if depth >= 2:
            second = _second_words(fields, n)
            rows.append(second[0])
            labels += ["[f0,fx]", "[f0,fy]", "[fx,fy]"]
        if depth == 3:
            d_gen = _jacobians(fields[0], fields[1:n:2], fields[2:n:2],
                               NESTED_STEP, 1, 2)
            d_second = _jacobians(second[0], second[1::2], second[2::2],
                                  NESTED_STEP, 0, 1)
            # [s, w] = Dw s - Ds w, s the outer and w the inner index
            third = (d_second @ fields[0, :, None, :, None]
                     - d_gen[:, None] @ second[0, :, :, None])[..., 0]
            rows.append(third.reshape(9, STATE_DIM))
            labels += [f"[{s},{w}]" for s in labels[:3]
                       for w in labels[3:6]]
    matrix = np.concatenate(rows).T
    if not np.all(np.isfinite(matrix)):
        raise ValueError("the bracket words overflow at this point")
    raw = np.linalg.svd(matrix, compute_uv=False)
    # fewer columns than states yields fewer singular values; the missing
    # ones are exact zeros of the padded problem
    singular = np.zeros(STATE_DIM)
    singular[:raw.size] = raw
    rank = int(np.sum(singular > 1e-8 * singular[0]))
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
        labels=tuple(labels), is_straight=is_straight)
