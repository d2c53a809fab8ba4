"""Weighted lp norms on coefficient sequences and their dual-space data.

An exponent p lives in [1, inf]; finite values are kept as exact Fractions so
conjugates come out exact, and math.inf marks the sup norm.  The weight is a
strictly positive vector r, giving ||s||_{p,r} = (sum |s_a|^p r^a)^(1/p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .polyring import Polynomial, axis_scale, monomial_values, simplex_index

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


def term_magnitude(abs_coef: float, power: float, r: tuple[float, ...], alpha) -> float:
    """|c|^power * r^alpha, fusing both factors in log space when either one
    alone would overflow or underflow."""
    logs = [a * math.log(v) for v, a in zip(r, alpha) if a]
    if any(abs(t) > 600.0 for t in logs) or not (1e-250 < abs_coef < 1e250):
        log_term = power * math.log(abs_coef) + math.fsum(logs)
        if log_term > 709.0:
            return math.inf
        return math.exp(log_term)
    return abs_coef ** power * math.prod(v ** a for v, a in zip(r, alpha) if a)


def _check_dims(s: Polynomial, w: WeightSpec) -> None:
    if s.n != w.n:
        raise ValueError(f"dimension mismatch: sequence has n={s.n}, weight has n={w.n}")


def weighted_norm(s: Polynomial, w: WeightSpec) -> float:
    """||s||_{p,r} of a finite-support sequence.

    For p < inf this is (sum |s_a|^p r^a)^(1/p); for p = inf the sup of
    |s_a| r^a.  With r = (1,...,1) it reduces to the unweighted lp norm.
    """
    _check_dims(s, w)
    power = 1.0 if w.p == math.inf else float(w.p)
    terms = zip(s.exponents.tolist(), np.abs(s.coefs).tolist())
    magnitudes = [term_magnitude(c, power, w.r, a) for a, c in terms]
    if w.p == math.inf:
        return max(magnitudes, default=0.0)
    return math.fsum(magnitudes) ** (1.0 / power)


def scaling_isometry(s: Polynomial, w: WeightSpec, direction: str = "forward") -> Polynomial:
    """The diagonal map between the unweighted and weighted spaces.

    forward sends s_a -> s_a * r^(-a/p) (an isometry from lp onto l_{p,r});
    inverse undoes it.  Defined for p < inf only.
    """
    _check_dims(s, w)
    if w.p == math.inf:
        raise ValueError("the diagonal scaling map is defined for p < inf")
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    sign = -1.0 if direction == "forward" else 1.0
    exponent = sign / float(w.p)
    return axis_scale(s, tuple(v ** exponent for v in w.r))


def _ratios(xs: tuple[float, ...], dual: DualSpec) -> list[float]:
    # |x_i|^q r'_i, with a power too large for a float read as inf (so >= 1)
    ratios = []
    for xi, rp in zip(xs, dual.r_prime):
        try:
            ratios.append(abs(xi) ** float(dual.q) * rp)
        except OverflowError:
            ratios.append(math.inf)
    return ratios


def _monomials(bases: list[float], exponents: np.ndarray) -> np.ndarray:
    # bases^a over the exponents.  A nan is inf * 0 from a power that overflowed,
    # and that base's pure power, also in the simplex, is inf: the nan reads as inf.
    with np.errstate(over="ignore", invalid="ignore"):
        values = monomial_values([bases], exponents)[0]
    return np.where(np.isnan(values), math.inf, values)


def eval_sequence_norm(x, w: WeightSpec) -> float:
    """Dual-space norm of the point-power sequence (x^a)_a, or math.inf.

    For dual exponent q < inf the value has the closed product form
    (prod_i 1/(1 - |x_i|^q r'_i))^(1/q), finite exactly when every factor
    ratio is < 1 (a ratio too large for a float counts as >= 1); for dual
    exponent inf the sup is 1 when all |x_i| r'_i <= 1 and infinite otherwise.
    """
    xs = tuple(float(v) for v in x)
    if len(xs) != w.n:
        raise ValueError(f"point has dimension {len(xs)}, expected {w.n}")
    dual = dual_weight(w)
    if dual.q == math.inf:
        ok = all(abs(xi) * rp <= 1.0 for xi, rp in zip(xs, dual.r_prime))
        return 1.0 if ok else math.inf
    qf = float(dual.q)
    ratios = _ratios(xs, dual)
    if any(t >= 1.0 for t in ratios):
        return math.inf
    prod = 1.0
    for t in ratios:
        prod *= 1.0 / (1.0 - t)
    return prod ** (1.0 / qf)


def eval_sequence_norm_partial(x, w: WeightSpec, max_degree: int) -> float:
    """Truncation of eval_sequence_norm to multi-indices with |a| <= max_degree;
    inf only when it is too large for a float: a sum that overflows, in a
    term or only in the sum, is formed again from the logs of its terms,
    with the largest one factored out."""
    xs = tuple(float(v) for v in x)
    if len(xs) != w.n:
        raise ValueError(f"point has dimension {len(xs)}, expected {w.n}")
    dual = dual_weight(w)
    exponents = simplex_index(w.n, max_degree).exponents
    if dual.q == math.inf:
        factors = [abs(xi) * rp for xi, rp in zip(xs, dual.r_prime)]
        return float(np.max(_monomials(factors, exponents)))
    qf = float(dual.q)
    try:  # fsum raises on a sum of finite terms that overflows
        value = math.fsum(_monomials(_ratios(xs, dual), exponents)) ** (1.0 / qf)
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf, and 0 * -inf
        log_ratios = qf * np.log(np.abs(xs)) + np.log(dual.r_prime)
        logs = np.where(exponents > 0, exponents * log_ratios, 0.0).sum(axis=1)
    top = float(logs.max())
    try:
        return math.exp((top + math.log(math.fsum(np.exp(logs - top)))) / qf)
    except OverflowError:
        return math.inf


def is_evaluation_continuous(x, w: WeightSpec) -> bool:
    """Whether evaluation at x is bounded for ||.||_{p,r}, i.e. whether the
    dual norm of (x^a)_a is finite."""
    return math.isfinite(eval_sequence_norm(x, w))


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
