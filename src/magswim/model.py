"""Geometry, parameters, and field programs for the three-link swimmer.

The swimmer is a planar chain of three rigid slender links of common length
``L``.  The state is ``(x, y, theta, alpha2, alpha3)``: ``(x, y)`` is the
center of the middle link, ``theta`` its orientation, and ``alpha2``,
``alpha3`` are the joint angles of the left and right outer links measured
relative to the middle link.  Link absolute angles are

    theta1 = theta + alpha2      (left link)
    theta2 = theta               (middle link)
    theta3 = theta + alpha3      (right link)

so a "Z" shape (``alpha2 = alpha3``) has parallel outer links.  Each link
carries a magnetic moment of magnitude ``M`` along its tangent, the joints
are elastic with stiffness ``K``, and the ambient fluid acts through
resistive-force drag with per-link tangential and normal coefficients
``xi_i`` and ``eta_i``.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

__all__ = [
    "SwimmerParams",
    "Configuration",
    "FieldProgram",
    "ConstantField",
    "SinusoidalField",
    "TabulatedField",
    "apply_R_transform",
]


@dataclass(frozen=True)
class SwimmerParams:
    """Physical parameters of the swimmer.

    ``xi`` and ``eta`` are the tangential and normal drag coefficients per
    link, ordered (left, middle, right).  ``M`` is the total magnetic moment
    of one link and ``K`` the joint stiffness.  Anisotropic slender-body drag
    has ``eta_i > xi_i``; the constructor warns (but does not fail) when a
    link violates that, since the assembly itself is well defined either way.
    """

    L: float
    xi: tuple[float, float, float]
    eta: tuple[float, float, float]
    K: float
    M: float

    def __init__(self, L: float, xi: Sequence[float], eta: Sequence[float],
                 K: float, M: float) -> None:
        object.__setattr__(self, "L", float(L))
        object.__setattr__(self, "xi", tuple(float(v) for v in xi))
        object.__setattr__(self, "eta", tuple(float(v) for v in eta))
        object.__setattr__(self, "K", float(K))
        object.__setattr__(self, "M", float(M))
        self._validate()

    def _validate(self) -> None:
        if len(self.xi) != 3 or len(self.eta) != 3:
            raise ValueError("xi and eta must each have three entries")
        vals = (self.L, self.K, self.M) + self.xi + self.eta
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("swimmer parameters must be finite")
        if self.L <= 0.0:
            raise ValueError("link length L must be positive")
        if self.K < 0.0:
            raise ValueError("joint stiffness K must be nonnegative")
        if self.M < 0.0:
            raise ValueError("magnetic moment M must be nonnegative")
        if any(v <= 0.0 for v in self.xi) or any(v <= 0.0 for v in self.eta):
            raise ValueError("drag coefficients must be positive")
        if any(e < x for x, e in zip(self.xi, self.eta)):
            warnings.warn(
                "eta_i < xi_i on at least one link; slender-body drag "
                "normally has eta_i > xi_i",
                stacklevel=3,
            )

    @classmethod
    def uniform(cls, L: float, xi: float, eta: float, K: float,
                M: float) -> "SwimmerParams":
        """All three links share one ``xi`` and one ``eta``."""
        return cls(L, (xi, xi, xi), (eta, eta, eta), K, M)

    def palindromic(self) -> bool:
        """True when the first and third links share drag coefficients
        (``xi1 = xi3``, ``eta1 = eta3``), whatever the middle link's."""
        return self.xi[0] == self.xi[2] and self.eta[0] == self.eta[2]


@dataclass(frozen=True)
class Configuration:
    """A point of the five-dimensional configuration space.

    Angles are kept unwrapped; nothing in the dynamics needs them reduced
    modulo 2 pi and unwrapped angles keep trajectories continuous.
    """

    x: float
    y: float
    theta: float
    alpha2: float
    alpha3: float

    def __post_init__(self) -> None:
        vals = (self.x, self.y, self.theta, self.alpha2, self.alpha3)
        if not all(math.isfinite(float(v)) for v in vals):
            raise ValueError("configuration entries must be finite")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.x, self.y, self.theta, self.alpha2, self.alpha3],
            dtype=float,
        )

    @classmethod
    def from_array(cls, q: Sequence[float]) -> "Configuration":
        q = np.asarray(q, dtype=float)
        if q.shape != (5,):
            raise ValueError("configuration array must have shape (5,)")
        return cls(*(float(v) for v in q))

    @classmethod
    def straight(cls) -> "Configuration":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)


class FieldProgram:
    """Time program of the external field ``H(t) = (Hx(t), Hy(t))``."""

    kind: ClassVar[str] = "abstract"

    def sample(self, t: float) -> tuple[float, float]:
        """``(Hx, Hy)`` at time ``t``.  The programs here compute on Python
        floats, as the RK4 stages and the rate do."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantField(FieldProgram):
    hx: float = 0.0
    hy: float = 0.0
    kind: ClassVar[str] = "constant"

    def sample(self, t: float) -> tuple[float, float]:
        return (self.hx, self.hy)


@dataclass(frozen=True)
class SinusoidalField(FieldProgram):
    """``H(t) = (hx0, epsilon * sin(omega * t))``.

    The steady x-component sets the straight equilibrium; the transverse
    sinusoid is the actuation.  ``omega`` must be positive so the period
    ``T = 2 pi / omega`` is well defined.
    """

    hx0: float = 1.0
    epsilon: float = 0.0
    omega: float = 1.0
    kind: ClassVar[str] = "sinusoidal"

    def __post_init__(self) -> None:
        if not (self.omega > 0.0):
            raise ValueError("omega must be positive")
        if not all(math.isfinite(v) for v in (self.hx0, self.epsilon, self.omega)):
            raise ValueError("field parameters must be finite")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    def sample(self, t: float) -> tuple[float, float]:
        return (self.hx0, self.epsilon * math.sin(self.omega * t))


class TabulatedField(FieldProgram):
    """Piecewise-linear interpolation of sampled ``(t, Hx, Hy)`` rows.

    Sample times must be strictly increasing.  Queries outside the sampled
    range clamp to the end values (the np.interp convention); integrations
    should stay inside the table.
    """

    kind: ClassVar[str] = "tabulated"

    def __init__(self, times: Sequence[float], hx: Sequence[float],
                 hy: Sequence[float]) -> None:
        # private read-only copies: the lists sample() reads are cached from
        # them, so a caller mutating its own arrays must not reach them
        t = np.array(times, dtype=float)
        hx = np.array(hx, dtype=float)
        hy = np.array(hy, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("tabulated field needs at least two samples")
        if hx.shape != t.shape or hy.shape != t.shape:
            raise ValueError("times, hx, hy must have matching shapes")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(hx)) \
                or not np.all(np.isfinite(hy)):
            raise ValueError("tabulated field samples must be finite")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("sample times must be strictly increasing")
        for a in (t, hx, hy):
            a.flags.writeable = False
        self.times = t
        self.hx = hx
        self.hy = hy
        times, fx, fy = t.tolist(), hx.tolist(), hy.tolist()
        spans = [b - a for a, b in zip(times, times[1:])]
        # each segment's slopes, on Python floats, which overflow silently
        self._nodes = (times, fx, fy) + tuple(
            [(b - a) / d for a, b, d in zip(f, f[1:], spans)]
            for f in (fx, fy))

    def sample(self, t: float) -> tuple[float, float]:
        """``np.interp`` of both components at ``t``, bit for bit, for a
        fraction of the cost of two calls: one bisection, then its branches
        and its formula ``slope*(t - t_j) + f_j`` on Python floats, with
        the slopes bound in the constructor.  Its retry of a NaN result is
        left out: with finite samples and ``t_j < t < t_j+1`` the formula
        cannot give NaN."""
        t = float(t)
        if t != t:
            return (t, t)
        times, hx, hy, sx, sy = self._nodes
        j = bisect_right(times, t) - 1
        if j < 0:
            return (hx[0], hy[0])
        tj = times[j]
        if j == len(times) - 1 or tj == t:
            return (hx[j], hy[j])
        t -= tj
        return (sx[j] * t + hx[j], sy[j] * t + hy[j])


def apply_R_transform(config: Configuration) -> Configuration:
    """The discrete symmetry ``(x, y, theta, a2, a3) -> (-x, -y, theta,
    a3, a2)``: a half-turn, which negates the field, and an end-to-end
    relabel, which negates the link moments.  If links 1 and 3 share their
    coefficients, the image moves under the same field as the image of the
    original's velocity.  Applying it twice is the identity."""
    return Configuration(-config.x, -config.y, config.theta,
                         config.alpha3, config.alpha2)
