"""Atomic measures on boxes: moment generation and grid-based recovery.

Recovery matches a truncated moment vector by nonnegative weights on a
uniform grid inside the box, solved exactly by the Lawson-Hanson active-set
method; by Caratheodory's theorem the answer needs no more atoms than there
are moments.  At desk scale that is enough to exhibit a representing measure
whenever one with atoms on the grid exists.  The box itself is derived from
the weight vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .moments import MomentSequence
from .norms import WeightSpec
from .polyring import MultiIndex, monomial_values, simplex_index

# Recovered grid weights at or below this threshold are treated as absent.
SUPPORT_THRESHOLD = 1e-10


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many atoms with nonnegative weights.

    Canonical form merges duplicate atoms (summing their weights), drops
    exact-zero weights and sorts atoms lexicographically.
    """

    atoms: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.atoms) != len(self.weights):
            raise ValueError("atoms and weights must have the same length")
        merged: dict[tuple[float, ...], float] = {}
        dim = None
        for atom, weight in zip(self.atoms, self.weights):
            point = tuple(float(v) for v in atom)
            if dim is None:
                dim = len(point)
            elif len(point) != dim:
                raise ValueError("all atoms must share one dimension")
            weight = float(weight)
            total = merged.get(point, 0.0) + weight  # duplicates can overflow
            if not all(math.isfinite(v) for v in (*point, total)):
                raise ValueError(f"atom {point} with weight {total} is not finite")
            if weight < 0.0:
                raise ValueError(f"negative weight {weight}")
            merged[point] = total
        pairs = sorted((p, w) for p, w in merged.items() if w != 0.0)
        object.__setattr__(self, "atoms", tuple(p for p, _ in pairs))
        object.__setattr__(self, "weights", tuple(w for _, w in pairs))

    @property
    def n(self) -> int:
        if not self.atoms:
            raise ValueError("empty measure has no dimension")
        return len(self.atoms[0])

    @property
    def mass(self) -> float:
        return math.fsum(self.weights)


def _integrate_simplex(mu: AtomicMeasure, n: int, max_degree: int) -> list[float]:
    """sum_j w_j x_j^alpha for every |alpha| <= max_degree, in graded-lex order."""
    points = np.reshape(np.array(mu.atoms, dtype=float), (-1, n))
    vander = monomial_values(points, simplex_index(n, max_degree).exponents)
    return [math.fsum(column) for column in (vander * np.array(mu.weights)[:, None]).T]


@dataclass(frozen=True)
class BoxSpec:
    """An axis-aligned box symmetric about the origin."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        if len(lower) != len(upper) or not lower:
            raise ValueError("lower and upper bounds must be nonempty and match")
        for lo, hi in zip(lower, upper):
            if not lo < hi:
                raise ValueError("each lower bound must be below the upper bound")
            if lo != -hi:
                raise ValueError("box must be symmetric about the origin")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def from_halfwidths(cls, halfwidths) -> BoxSpec:
        c = tuple(float(v) for v in halfwidths)
        return cls(tuple(-v for v in c), c)

    @property
    def n(self) -> int:
        return len(self.lower)

    def contains(self, point) -> bool:
        return all(lo <= float(x) <= hi for x, lo, hi in zip(point, self.lower, self.upper))


def box_from_weight(w: WeightSpec) -> BoxSpec:
    """The box matched to a weight spec: halfwidth r_i^(1/p) for p < inf and
    r_i for p = inf."""
    if w.p == math.inf:
        half = w.r
    else:
        half = tuple(v ** (1.0 / float(w.p)) for v in w.r)
    return BoxSpec.from_halfwidths(half)


def moments_of_measure(mu: AtomicMeasure, max_degree: int) -> MomentSequence:
    """Moment sequence s(alpha) = sum_j w_j x_j^alpha up to max_degree."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    return MomentSequence(mu.n, max_degree, _integrate_simplex(mu, mu.n, max_degree))


@dataclass(frozen=True)
class RecoveryResult:
    measure: AtomicMeasure
    residual: float
    success: bool
    iterations: int


def grid_points(box: BoxSpec, grid_m: int) -> np.ndarray:
    """The grid of grid_m evenly spaced points per axis of the box, as (grid_m**n, n)."""
    axes = [np.linspace(lo, hi, grid_m) for lo, hi in zip(box.lower, box.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Lawson-Hanson active-set solution of min ||a x - b||_2 over x >= 0.

    Each step moves the column with the largest positive gradient entry (the
    first on ties) into the passive set, solves least squares on the passive
    columns, and steps back towards the previous iterate, dropping columns,
    while a passive weight is non-positive.  The answer is exact on its
    support, which has at most len(b) columns.  Returns (x, steps).
    """
    m, n = a.shape
    kkt_tol = 10.0 * np.finfo(float).eps * max(m, n) * float(np.abs(a).sum(axis=0).max())
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    steps = 0
    while steps < 3 * n:  # cap against round-off cycling; exact arithmetic terminates
        gradient = np.where(passive, -np.inf, a.T @ (b - a @ x))
        j = int(np.argmax(gradient))
        if gradient[j] <= kkt_tol:
            break
        steps += 1
        passive[j] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            bad = np.flatnonzero(passive & (z <= 0.0))
            if not bad.size:
                break
            # a bad column still at x = 0 allows no step (ratio 0, also when z = 0)
            ratios = np.divide(x[bad], x[bad] - z[bad], out=np.zeros(bad.size), where=x[bad] > 0)
            x += ratios.min() * (z - x)
            x[bad[np.argmin(ratios)]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
        x = z
    return x, steps


def recover_measure(
    s: MomentSequence,
    box: BoxSpec,
    grid_m: int,
    tol: float = 1e-6,
) -> RecoveryResult:
    """Search for an atomic measure on a uniform box grid matching s.

    Solves min ||A w - s||_2 over w >= 0 where the columns of A are the
    monomial vectors of the grid atoms, by active-set steps (counted in
    `iterations`) that end on the KKT conditions.  Keeps the support with
    weight above SUPPORT_THRESHOLD, at most len(s.vector) atoms, and reports
    the residual ||moments_of_measure(measure) - s||_2 of the returned
    measure (||s||_2 when no atom is kept; verify_representation checks such a
    result, moments_of_measure cannot).  Failure (residual above tol) signals
    a too-small box, too-coarse grid, or moments that no measure on the box
    can produce.

    Internally the box is rescaled to the unit cube (moments pick up a factor
    c^-alpha), which keeps the monomial columns well conditioned on wide
    boxes; atoms map back onto the original grid by index, and the reported
    residual is in the original, unscaled metric.
    """
    if box.n != s.n:
        raise ValueError(f"dimension mismatch: box has n={box.n}, moments have n={s.n}")
    if grid_m < 2:
        raise ValueError("need at least 2 grid points per axis")
    points = grid_points(box, grid_m)
    unit_points = grid_points(BoxSpec.from_halfwidths((1.0,) * s.n), grid_m)
    exponents = simplex_index(s.n, s.max_degree).exponents
    a_unit = monomial_values(unit_points, exponents).T
    b = s.vector
    b_unit = b / monomial_values([box.upper], exponents)[0]

    col_scale = np.linalg.norm(a_unit, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    y, iterations = _nnls(a_unit / col_scale, b_unit)
    weights = y / col_scale

    mask = weights > SUPPORT_THRESHOLD
    measure = AtomicMeasure(tuple(tuple(p) for p in points[mask]), tuple(weights[mask]))
    integrals = np.array(_integrate_simplex(measure, s.n, s.max_degree))
    residual = float(np.linalg.norm(integrals - b))
    return RecoveryResult(measure, residual, residual <= tol, iterations)


@dataclass(frozen=True)
class VerificationReport:
    per_index: Mapping[MultiIndex, float]
    max_residual: float
    atoms_in_box: bool | None
    passed: bool


def verify_representation(
    s: MomentSequence,
    mu: AtomicMeasure,
    box: BoxSpec | None = None,
) -> VerificationReport:
    """Compare the moments of mu against s index by index.

    Reports |s(alpha) - sum_j w_j x_j^alpha| for every stored alpha, the worst
    deviation, and (when a box is supplied) whether every atom lies inside it.
    It passes when the worst deviation is at most 1e-9 and no atom is outside.
    """
    if mu.atoms and mu.n != s.n:
        raise ValueError(f"dimension mismatch: measure has n={mu.n}, moments have n={s.n}")
    basis = simplex_index(s.n, s.max_degree).basis
    integrals = _integrate_simplex(mu, s.n, s.max_degree)
    per_index = {
        alpha: abs(value - integral)
        for alpha, value, integral in zip(basis, s.vector.tolist(), integrals)
    }
    max_residual = max(per_index.values(), default=0.0)
    atoms_in_box = None
    if box is not None:
        atoms_in_box = all(box.contains(p) for p in mu.atoms)
    passed = max_residual <= 1e-9 and atoms_in_box is not False
    return VerificationReport(per_index, max_residual, atoms_in_box, passed)


def measure_to_dict(mu: AtomicMeasure) -> dict:
    """JSON-ready form mirroring the AtomicMeasure fields."""
    return {
        "atoms": [list(p) for p in mu.atoms],
        "weights": list(mu.weights),
    }


def measure_from_dict(data: dict) -> AtomicMeasure:
    if not isinstance(data, dict) or not {"atoms", "weights"} <= set(data):
        raise ValueError('measure JSON must be {"atoms": [...], "weights": [...]}')
    return AtomicMeasure(
        tuple(tuple(float(x) for x in p) for p in data["atoms"]),
        tuple(float(v) for v in data["weights"]),
    )
