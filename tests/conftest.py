import math

import numpy as np
import pytest

from momentcone import Polynomial, iter_simplex


def coefficient_gap(f: Polynomial, g: Polynomial) -> float:
    """Largest absolute coefficient difference between two polynomials."""
    keys = set(f.terms) | set(g.terms)
    return max((abs(f.coefficient(a) - g.coefficient(a)) for a in keys), default=0.0)


def assert_poly_close(f: Polynomial, g: Polynomial, tol: float = 1e-12) -> None:
    gap = coefficient_gap(f, g)
    assert gap <= tol, f"coefficient gap {gap} exceeds {tol}\n  {f}\n  {g}"


def dense_from_poly(f: Polynomial) -> np.ndarray:
    """Dense coefficient array, axis i indexed by the exponent of X_i."""
    deg = max(f.degree, 0)
    arr = np.zeros((deg + 1,) * f.n)
    for alpha, coef in f.terms.items():
        arr[alpha] = coef
    return arr


def dense_convolution(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Literal nested-loop convolution of dense coefficient arrays."""
    out = np.zeros(tuple(x + y - 1 for x, y in zip(fa.shape, fb.shape)))
    for ia in np.ndindex(fa.shape):
        va = fa[ia]
        if va == 0.0:
            continue
        for ib in np.ndindex(fb.shape):
            out[tuple(x + y for x, y in zip(ia, ib))] += va * fb[ib]
    return out


def horner_eval(arr: np.ndarray, x) -> float:
    """Evaluate a dense coefficient array at a point, one variable at a time."""
    value = arr
    for axis in range(arr.ndim - 1, -1, -1):
        acc = np.zeros(value.shape[:-1])
        for k in range(value.shape[-1] - 1, -1, -1):
            acc = acc * x[axis] + value[..., k]
        value = acc
    return float(value)


def miller_sqrt(f: Polynomial, degree: int) -> dict:
    """The square root of f (f(0) > 0) to total degree `degree`, one coefficient
    at a time in graded-lex order by J. C. P. Miller's recurrence, on f / 4^m
    with m = max(0, floor(e / 2)) for f(0) = x 2^e, x in [0.5, 1): h'_a = (sum
    of ((3|c|/2 - |a|) f'_c) h'_{a-c} over the terms c != 0 of f' = f / 4^m with
    c <= a, added to 0.0 in graded-lex order of c) / (|a| f'_0), and h_a = h'_a
    2^m.  A map over every exponent of iter_simplex(f.n, degree)."""
    m = max(math.frexp(f.constant_term)[1] // 2, 0)
    f0 = f.constant_term * 2.0 ** (-2 * m)
    terms = [(c, v * 2.0 ** (-2 * m), sum(c)) for c, v in f.terms.items() if any(c)]
    h: dict = {}
    for a in iter_simplex(f.n, degree):
        d = sum(a)
        total = 0.0
        for c, v, size in terms:
            if d and all(x <= y for x, y in zip(c, a)):
                total += (1.5 * size - d) * v * h[tuple(y - x for x, y in zip(c, a))]
        h[a] = total / (d * f0) if d else math.sqrt(f0)
    return {a: v * 2.0**m for a, v in h.items()}


def random_sparse_poly(rng, n: int, max_degree: int, max_terms: int = 8,
                       coef_range: float = 5.0) -> Polynomial:
    candidates = list(iter_simplex(n, max_degree))
    count = int(rng.integers(1, max_terms + 1))
    picks = rng.choice(len(candidates), size=min(count, len(candidates)), replace=False)
    terms = {candidates[int(i)]: float(rng.uniform(-coef_range, coef_range)) for i in picks}
    return Polynomial(n, terms)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
