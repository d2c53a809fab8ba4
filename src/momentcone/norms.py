"""Weighted lp norms on coefficient sequences and their dual-space data.

An exponent p lives in [1, inf]; finite values are kept as exact Fractions so
conjugates come out exact, and math.inf marks the sup norm.  The weight is a
strictly positive vector r, giving ||s||_{p,r} = (sum |s_a|^p r^a)^(1/p).
Every norm reads r through the halfwidths c = r^(1/p) of the matched box
(c = r at p = inf): ||s||_{p,r} = ||(|s_a| c^a)_a||_p, and the dual norm of
a sequence is ||(|s_a| c^-a)_a||_q with 1/p + 1/q = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .polyring import Polynomial, axis_scale, scaled_coefficients, simplex_index

PExponent = Union[Fraction, float]  # Fraction when finite, math.inf otherwise

_INF_TOKENS = {"inf", "+inf", "infinity", "oo"}


def as_exponent(p) -> PExponent:
    """Normalize a norm exponent: exact Fraction when finite, math.inf for sup."""
    if isinstance(p, str):
        text = p.strip().lower()
        if text in _INF_TOKENS:
            return math.inf
        return Fraction(text)
    if isinstance(p, float) and math.isinf(p):
        if p < 0:
            raise ValueError("exponent must be positive")
        return math.inf
    if isinstance(p, Fraction):
        return p
    return Fraction(p)


@dataclass(frozen=True)
class WeightSpec:
    """A norm identifier: exponent p in [1, inf] and positive weights r."""

    p: PExponent
    r: tuple[float, ...]

    def __post_init__(self) -> None:
        p = as_exponent(self.p)
        if p != math.inf and p < 1:
            raise ValueError("exponent p must lie in [1, inf]")
        r = tuple(float(v) for v in self.r)
        if not r:
            raise ValueError("weight vector must be nonempty")
        if any(v <= 0.0 or not math.isfinite(v) for v in r):
            raise ValueError("weights must be strictly positive and finite")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def halfwidths(self) -> tuple[float, ...]:
        """c = r^(1/p), or r at p = inf: the halfwidths of the matched box, and
        the one scale every norm reads."""
        if self.p == math.inf:
            return self.r
        return tuple(v ** (1.0 / float(self.p)) for v in self.r)


@dataclass(frozen=True)
class DualSpec:
    """Parameters (q, r') of the dual sequence space."""

    q: PExponent
    r_prime: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.r_prime)


def conjugate_exponent(p) -> PExponent:
    """The q with 1/p + 1/q = 1; endpoints 1 and inf swap."""
    p = as_exponent(p)
    if p != math.inf and p < 1:
        raise ValueError("exponent p must lie in [1, inf]")
    if p == math.inf:
        return Fraction(1)
    if p == 1:
        return math.inf
    return p / (p - 1)


def dual_weight(w: WeightSpec) -> DualSpec:
    """Dual-space parameters: (inf, 1/r) for p=1, (1, 1/r) for p=inf,
    (q, r^(-q/p)) in between."""
    if w.p == math.inf:
        return DualSpec(Fraction(1), tuple(1.0 / v for v in w.r))
    if w.p == 1:
        return DualSpec(math.inf, tuple(1.0 / v for v in w.r))
    q = conjugate_exponent(w.p)
    exponent = -float(q) / float(w.p)
    return DualSpec(q, tuple(v ** exponent for v in w.r))


def _check_dims(s: Polynomial, w: WeightSpec) -> None:
    if s.n != w.n:
        raise ValueError(f"dimension mismatch: sequence has n={s.n}, weight has n={w.n}")


def lp_norms(exponents: np.ndarray, values: np.ndarray, scales, p, ends) -> list[float]:
    """The lp norm of the magnitudes m_a = |values_a| * scales^a over the first
    `end` rows, for each end in ends: the max at p = inf, else top * (sum
    (m_a / top)^p)^(1/p), top the power of two just above the prefix's
    largest m_a.  Dividing by top is exact and no power overflows or
    underflows the sum (Blue 1978, as in LAPACK's dnrm2); inf only when the
    norm is too large for a float."""
    magnitudes = np.abs(scaled_coefficients(exponents, values, scales))
    tops = np.maximum.accumulate(magnitudes).tolist()
    norms, shift = [], None
    with np.errstate(over="ignore"):  # rows past a prefix may overflow; they go unread
        for end in ends:
            top = tops[end - 1] if end else 0.0
            if p == math.inf or not 0.0 < top < math.inf:
                norms.append(top)
                continue
            if math.frexp(top)[1] != shift:  # the prefix's powers, once per top
                shift = math.frexp(top)[1]
                powers = (np.ldexp(magnitudes, -shift) ** float(p)).tolist()
            root = math.fsum(powers[:end]) ** (1.0 / float(p))
            norms.append(float(np.ldexp(root, shift)))
    return norms


def weighted_norm(s: Polynomial, w: WeightSpec) -> float:
    """||s||_{p,r} = ||(|s_a| c^a)_a||_p, c = w.halfwidths, of a finite-support
    sequence: (sum |s_a|^p r^a)^(1/p) for p < inf and the sup of |s_a| r^a for
    p = inf.  With r = (1,...,1) it reduces to the unweighted lp norm."""
    _check_dims(s, w)
    return lp_norms(s.exponents, s.coefs, w.halfwidths, w.p, (len(s.coefs),))[0]


def scaling_isometry(s: Polynomial, w: WeightSpec, direction: str = "forward") -> Polynomial:
    """The diagonal map between the unweighted and weighted spaces.

    forward sends s_a -> s_a * c^(-a), c = w.halfwidths (an isometry from lp
    onto l_{p,r}); inverse undoes it.  Defined for p < inf only.
    """
    _check_dims(s, w)
    if w.p == math.inf:
        raise ValueError("the diagonal scaling map is defined for p < inf")
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    c = w.halfwidths
    return axis_scale(s, tuple(1.0 / v for v in c) if direction == "forward" else c)


def _box_ratios(x, w: WeightSpec) -> np.ndarray:
    # |x_i| / c_i, the point measured in halfwidths of the matched box
    xs = np.abs(np.array([float(v) for v in x]))
    if len(xs) != w.n:
        raise ValueError(f"point has dimension {len(xs)}, expected {w.n}")
    with np.errstate(over="ignore"):  # inf: the point is far outside the box
        return xs / np.array(w.halfwidths)


def eval_sequence_norm(x, w: WeightSpec) -> float:
    """Dual-space norm of the point-power sequence (x^a)_a, or math.inf.

    With t_i = (|x_i| / c_i)^q, c = w.halfwidths and q the conjugate exponent,
    the value for q < inf has the closed product form (prod_i 1/(1 - t_i))^(1/q),
    finite exactly when every t_i is < 1 (one too large for a float is inf);
    for q = inf the sup is 1 when all |x_i| <= c_i and infinite otherwise.
    """
    ratios = _box_ratios(x, w)
    q = conjugate_exponent(w.p)
    if q == math.inf:
        return 1.0 if np.all(ratios <= 1.0) else math.inf
    with np.errstate(over="ignore"):
        ratios = ratios ** float(q)
    if np.any(ratios >= 1.0):
        return math.inf
    return math.prod((1.0 / (1.0 - ratios)).tolist()) ** (1.0 / float(q))


def eval_sequence_norm_partial(x, w: WeightSpec, max_degree: int) -> float:
    """Truncation of eval_sequence_norm to multi-indices with |a| <= max_degree:
    the lq norm of ((|x| / c)^a)_a, c = w.halfwidths; inf only when it is too
    large for a float."""
    ratios = _box_ratios(x, w)
    exponents = simplex_index(w.n, max_degree)
    ones = np.ones(len(exponents))
    return lp_norms(exponents, ones, ratios, conjugate_exponent(w.p), (len(ones),))[0]


def holder_product_norm(a: Polynomial, b: Polynomial, p) -> tuple[float, float]:
    """Both sides of Hoelder's inequality for the pointwise product.

    Returns (||ab||_1, ||a||_p * ||b||_q) where (ab)(alpha) = a_alpha * b_alpha;
    the first component never exceeds the second.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    p = as_exponent(p)
    q = conjugate_exponent(p)
    ones = (1.0,) * a.n
    i, j = np.nonzero((a.exponents[:, None, :] == b.exponents[None, :, :]).all(axis=2))
    pointwise = Polynomial(a.n, (a.exponents[i], a.coefs[i] * b.coefs[j]))
    lhs = weighted_norm(pointwise, WeightSpec(1, ones))
    rhs = weighted_norm(a, WeightSpec(p, ones)) * weighted_norm(b, WeightSpec(q, ones))
    return lhs, rhs
