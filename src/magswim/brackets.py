"""Drift-affine structure and Lie bracket analysis of the swimmer.

The balance law is affine in the two field components,

    Xdot = f0(X) + Hx fx(X) + Hy fy(X),

with drift f0 carrying the elastic relaxation and fx, fy the magnetic
response per unit field.  This module evaluates those three vector fields
on the full state X = (x, y, theta, alpha2, alpha3), forms iterated Lie
brackets, and measures the rank of the span at a point.  That rank bounds
the locally reachable set: directions outside the span cannot be
generated by any field program.

The fields ignore the position and are solved in the body frame, theta =
0, then turned to the heading (``_turned``): their derivatives along x,
y and theta are exact, only alpha2 and alpha3 are differenced, on a
stencil of Python-float poses solved in one batch, and the rank, which
the turn leaves as it is, is read in the body frame.

Two algebraic identities hold at the straight, bent-free states
X = (x, y, theta, 0, 0):

* alignment: fx + tan(theta) fy = 0, the rotation of fx = 0 at theta =
  0, where the straight links feel no torque from Hx.  So the controls
  contribute a single direction and motion needs brackets.
* the first bracket satisfies
  [fx, fy](X) = (M / cos theta) Mh^-1 S fy(X) with the constant stencil
  S v = (0, 0, 3 v3 + v4 + v5, 2 v3 + v5, v3 + v5) acting on the angle
  components.  The often-quoted shortcut [fx, fy] = (fy)_theta fy is not
  an identity; ``equilibrium_identities`` reports the gap of both forms.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
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


def _turn(c, s, a, b) -> tuple:
    """The pair ``(a, b)`` turned by the angle of cosine c and sine s."""
    return c * a - s * b, s * a + c * b


def _turned(f: np.ndarray, theta) -> np.ndarray:
    """The body-frame generators ``f`` (..., 3, 5) turned in place to the
    headings ``theta`` (...) by the rule of ``dynamics``: ``f0 -> T f0``,
    ``fx -> T (c fx - s fy)``, ``fy -> T (s fx + c fy)``."""
    c, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
    f[..., 1, :], f[..., 2, :] = _turn(c, s, f[..., 1, :], f[..., 2, :])
    f[..., 0], f[..., 1] = _turn(c, s, f[..., 0], f[..., 1])
    return f


class _SharedSolve:
    """The ``_solve_poses`` solve of one system at the last state or stack
    of states, so f0, fx and fy on one stack solve once.  It is keyed on
    the shape and the bytes of ``x[..., 2:5]``, as a float key would merge
    -0.0 with 0.0, whose outputs may differ in signed zeros.  Each field
    returns a copy of its rows, so a caller cannot change what is held.
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
            if not np.isfinite(angles).all():
                raise ValueError("state angles must be finite")
            poses = x[..., 3:5].reshape(-1, 2).tolist()
            self._fields = _solve_poses(self._loads, poses)[1].reshape(
                x.shape[:-1] + (3, STATE_DIM))
            # a state at heading +0.0 (all of lie_rank's) keeps its bits
            t = x[..., 2]
            turn = (t != 0.0) | np.signbit(t)
            if turn.any():
                self._fields[turn] = _turned(self._fields[turn], t[turn])
            self._key = key
        return self._fields

    def row(self, k: int, x: np.ndarray) -> np.ndarray:
        return self(x)[..., k, :].copy()


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
    return ControlSystem(*(VectorField(partial(solve.row, k))
                           for k in range(3)))


# The rank and the identities difference the blocks C(x) = [f0 fx fy] at
# every pose of a stencil at once; the frozen rank and identities digests
# pin the bits of its poses, differences and products.  The poses are
# Python floats; the differences and products stay on numpy and BLAS.


def _stencil(centres: list, step: float) -> list:
    """The (alpha2, alpha3) ``centres``, then the poses ``c +- step e_j``
    around each c, in the order +e_3, -e_3, +e_4, -e_4.

    Each entry moves as under a full 5-vector step, by +-step or +-0.0;
    -0.0 + 0.0 is +0.0, so a -0.0 of c becomes +0.0 on the + side of the
    other angle's difference.
    """
    return centres + [
        pose for a2, a3 in centres for pose in (
            (a2 + step, a3 + 0.0), (a2 - step, a3 - 0.0),
            (a2 + 0.0, a3 + step), (a2 - 0.0, a3 - step))]


def _jacobians(rows: np.ndarray, plus: np.ndarray, minus: np.ndarray,
               step: float, u, w) -> np.ndarray:
    """The (..., k, 5, 5) Jacobians of the k fields ``rows`` (..., k, 5),
    which depend on the angles only, from ``plus[..., j, m, :]`` and
    ``minus``, field m at ``centre +- step e_{3+j}`` (``_stencil``).

    The x and y columns are +0.0, those derivatives being exact zeros, and
    the joint-angle columns central differences.  The theta column is
    exact, written in place: with ``J v = (-v_y, v_x, 0, 0, 0)``, a row
    that rotates with the plane (f0, [fx, fy]) has derivative ``J v``; the
    rows u and w (indices or slices) of a pair that also turns with the
    field ((fx, fy), ([f0,fx], [f0,fy])) have ``J u - w`` and ``J w + u``.
    Each Jacobian is C-contiguous, the layout the frozen digests were
    recorded with: a product with it runs that BLAS kernel.
    """
    jac = np.zeros(rows.shape + (STATE_DIM,))
    turned = jac[..., 2]
    np.negative(rows[..., 1], out=turned[..., 0])
    turned[..., 1] = rows[..., 0]
    turned[..., u, :] -= rows[..., w, :]
    turned[..., w, :] += rows[..., u, :]
    # column 3 + j of field m, seen in the (..., j, m, :) order of plus
    np.divide(plus - minus, 2.0 * step,
              out=jac[..., 3:].swapaxes(-1, -2).swapaxes(-2, -3))
    return jac


def _pairs(f: list, g: list) -> tuple[np.ndarray, np.ndarray]:
    """The Jacobian and field rows of the products Dg f, then Df g, that
    make the brackets [f_i, g_i] = Dg f - Df g of the rows f and g."""
    return np.array(g + f), np.array(f + g)


# [f0,fx], [f0,fy], [fx,fy]; the nine [s, w] = Dw s - Ds w of the
# generators s and the depth-2 words w, rows 0-2 and 3-5 of one stack
_SECOND = _pairs([0, 0, 1], [1, 2, 2])
_NESTED = _pairs([0, 0, 0, 1, 1, 1, 2, 2, 2], [3, 4, 5] * 3)


def _words(jac: np.ndarray, rows: np.ndarray, pairs: tuple) -> np.ndarray:
    """The brackets ``pairs`` of the (..., k, 5) fields ``rows`` with the
    Jacobians ``jac``: one ``@`` over the stacked products, each a BLAS
    gemv of a C-contiguous 5x5 block by a contiguous vector."""
    left, right = pairs
    both = (jac.take(left, axis=-3)
            @ rows.take(right, axis=-2)[..., None])[..., 0]
    half = len(left) // 2
    return both[..., :half, :] - both[..., half:, :]


def _stencil_words(values: np.ndarray, n: int, step: float, u, w,
                   pairs: tuple) -> np.ndarray:
    """The words ``pairs`` at n centres from the (N, k, 5) fields
    ``values`` on the ``step`` ``_stencil`` of those centres, the rows u
    and w the pair that turns with the field (``_jacobians``)."""
    ring = values[n:].reshape((n, 2, 2) + values.shape[1:])
    jac = _jacobians(values[:n], ring[:, :, 0], ring[:, :, 1], step, u, w)
    return _words(jac, values[:n], pairs)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a real vector, by its formula: the same bits;
    ``math.hypot`` where ``v . v`` overflows, or underflows below a normal
    entry (subnormal entries carry too few bits to measure)."""
    square = v.dot(v)
    if square == math.inf or square < 2.0 ** -1022 <= abs(v).max():
        return math.hypot(*v.tolist())
    return math.sqrt(square)


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


def equilibrium_identities(params: SwimmerParams,
                           theta: float) -> EquilibriumReport:
    """Residuals of the alignment and bracket identities at the straight
    state ``(0, 0, theta, 0, 0)``.

    The generators are solved on the ``BASE_STEP`` ``_stencil`` of the
    straight body pose ``(0, 0)``, 5 poses in one batch, so ``[fx, fy]``
    is that depth-2 word of ``lie_rank``, bit for bit.  The norms are read
    in the body frame, which ``T(theta)`` leaves as they are: there
    ``[fx, fy]`` does not turn, fx and fy at ``theta`` are their pair
    turned by ``_turn``, and the alignment reduces to ``fx = 0`` at
    heading 0.  Both identities carry ``tan theta`` or ``1 / cos theta``,
    so a heading with ``|cos theta| < 0.05``, or one that is not finite,
    raises ``ValueError``, as does a zero fy or ``[fx, fy]`` (M = 0, or
    a moment so small that they underflow), which the residuals divide by.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    theta = float(theta)
    c, s = np.cos(theta), np.sin(theta)
    if abs(c) < 0.05:
        raise ValueError(
            "theta too close to a transverse pose; tan(theta) blows up")
    mh, fields = _solve_poses(_load_core(params),
                              _stencil([(0.0, 0.0)], BASE_STEP))
    fx_val, fy_val = _turn(c, s, fields[0, 1], fields[0, 2])
    fy_norm = _norm(fy_val)
    # [fx, fy] from the Jacobians of fx and fy alone
    bracket = _stencil_words(fields[:, 1:], 1, BASE_STEP, 0, 1,
                             _pairs([0], [1]))[0, 0]
    bracket_norm = _norm(bracket)
    if fy_norm == 0.0 or bracket_norm == 0.0:
        raise ValueError(f"[fx, fy] has zero norm at theta = {theta!r} (M = "
                         f"{params.M!r}): the field cannot steer this swimmer")
    claimed = fy_val[2] * fy_val
    # the constant stencil S fy of the module docstring
    _, _, v3, v4, v5 = fy_val.tolist()
    corrected = (params.M / c) * np.linalg.solve(
        mh[0], np.array([0.0, 0.0, 3.0 * v3 + v4 + v5, 2.0 * v3 + v5,
                         v3 + v5]))
    return EquilibriumReport(
        theta=theta,
        alignment_residual=_norm(fx_val + np.tan(theta) * fy_val) / fy_norm,
        claimed_gap=_norm(bracket - claimed),
        corrected_gap=_norm(bracket - corrected),
        fy_norm=fy_norm,
        bracket_norm=bracket_norm,
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

    The rank is read in the body frame, at (0, 0, 0, alpha2, alpha3): a
    turn of the heading multiplies the matrix of words by ``T(theta)`` on
    the left and by the field's turn on the right, both orthogonal, so the
    report is the same, bit for bit, at every x, y and theta.

    A depth-2 word is ``Dg f - Df g`` with ``BASE_STEP`` Jacobians, a
    nested word ``Dw s - Ds w`` with ``NESTED_STEP`` ones, taken once per
    generator and per depth-2 word (``_jacobians``); the words of a depth
    are one ``@`` over their stacked products.  The stencil (``_stencil``)
    holds the point, at depth 3 the four ``point +- NESTED_STEP e_j``, and
    the four ``+- BASE_STEP e_k`` around each of those: 1, 5 or 25 poses,
    each assembled once, all solved in one batch.

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
    values = point.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("point must be finite")
    # the stencil, in the body frame: at depth 3, centres 1-4 are
    # point +- NESTED_STEP e_j, where the depth-2 words are differenced
    centres = [(values[3], values[4])]
    if depth == 3:
        centres = _stencil(centres, NESTED_STEP)
    poses = _stencil(centres, BASE_STEP) if depth >= 2 else centres
    states = np.zeros((len(poses), STATE_DIM))
    states[:, 3:] = poses
    # the generators at every stencil state, each a stack of one solve
    fields = np.empty((len(poses), 3, STATE_DIM))
    for k, f in enumerate(control_vector_fields(params).generators()):
        fields[:, k] = f(states)
    n = len(centres)
    rows = [fields[0]]
    labels = ["f0", "fx", "fy"]
    with np.errstate(over="ignore", invalid="ignore"):
        if depth >= 2:
            second = _stencil_words(fields, n, BASE_STEP, 1, 2, _SECOND)
            rows.append(second[0])
            labels += ["[f0,fx]", "[f0,fy]", "[fx,fy]"]
        if depth == 3:
            # the generators and the depth-2 words side by side, the
            # pairs (fx, fy) and ([f0,fx], [f0,fy]) turning with the field
            nested = np.concatenate([fields[:n], second], axis=1)
            rows.append(_stencil_words(nested, 1, NESTED_STEP, slice(1, 4, 2),
                                       slice(2, 5, 2), _NESTED)[0])
            labels += [f"[{s},{w}]" for s in labels[:3]
                       for w in labels[3:6]]
    matrix = np.concatenate(rows).T
    if not np.isfinite(matrix).all():
        raise ValueError("the bracket words overflow at this point")
    raw = np.linalg.svd(matrix, compute_uv=False)
    # fewer columns than states yields fewer singular values; the missing
    # ones are exact zeros of the padded problem
    singular = np.zeros(STATE_DIM)
    singular[:raw.size] = raw
    sigma = singular.tolist()
    rank = sum(v > 1e-8 * sigma[0] for v in sigma)
    if sigma[4] > 0.0:
        gap = sigma[3] / sigma[4]
    elif sigma[3] > 0.0:
        gap = math.inf
    else:
        gap = math.nan
    is_straight = max(abs(values[3]), abs(values[4])) < 1e-12
    return RankReport(
        depth=depth, rank=rank, singular_values=singular, gap_4_5=gap,
        labels=tuple(labels), is_straight=is_straight)
