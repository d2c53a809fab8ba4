"""Atomic measures on boxes: moment generation and recovery.

Recovery first tries the flat extension theorem of Curto & Fialkow: when the
moment matrix M_d has the rank r of its degree-(d-1) block, the moments have
exactly one representing measure, with r atoms, and the algorithm of Henrion
& Lasserre (2005, used in GloptiPoly) reads those atoms off a factor of M_d.
Moments that are not flat (Lebesgue moments, say), or whose atoms leave the
box, are matched instead by nonnegative weights on a uniform grid inside the
box, solved exactly by the Lawson-Hanson active-set method; by Caratheodory's
theorem that answer needs no more atoms than there are moments, and at desk
scale it exhibits a representing measure whenever one with atoms on the grid
exists.  The box itself is derived from the weight vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import MomentSequence, moment_matrix
from .norms import WeightSpec
from .polyring import (
    grlex_rank,
    monomial_values,
    number_field,
    shift_table,
    simplex_index,
    simplex_size,
)

# Recovered grid weights at or below this threshold are treated as absent.
SUPPORT_THRESHOLD = 1e-10
# Eigenvalues of M_d at or below this fraction of its largest one count as zero.
_RANK_TOL = 1e-9
# Extracted unit-box coordinates at most this far outside [-1, 1] go onto the face.
_FACE_SNAP = 1e-12


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


def _integrate_simplex(mu: AtomicMeasure, n: int, max_degree: int) -> list[float]:
    """sum_j w_j x_j^alpha for every |alpha| <= max_degree, in graded-lex order."""
    points = np.reshape(np.array(mu.atoms, dtype=float), (-1, n))
    vander = monomial_values(points, simplex_index(n, max_degree))
    return [math.fsum(column) for column in (vander * np.array(mu.weights)[:, None]).T.tolist()]


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
    """The box matched to a weight spec: halfwidths w.halfwidths, r_i^(1/p)
    for p < inf and r_i for p = inf."""
    return BoxSpec.from_halfwidths(w.halfwidths)


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
    iterations: int  # active-set steps of the grid solve, 0 on the flat path
    method: str  # "flat" | "grid"


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


def _independent_rows(v: np.ndarray, r: int) -> np.ndarray:
    """r rows of v by Gram-Schmidt with pivoting: each step takes the row of
    largest residual norm and removes its direction from every row."""
    residual = np.array(v, dtype=float)
    rows = np.empty(r, dtype=np.int64)
    for k in range(r):
        norms = np.einsum("ij,ij->i", residual, residual)
        rows[k] = j = int(np.argmax(norms))
        q = residual[j] / math.sqrt(norms[j])
        residual -= np.outer(residual @ q, q)
    return rows


def _flat_measure(s_unit: MomentSequence) -> tuple[np.ndarray, np.ndarray] | None:
    """Atoms (rows, in [-1, 1]^n) and positive weights read off flat moments, or None.

    With d = max_degree // 2 the moments are flat when rank M_{d-1} = rank M_d
    = r.  The extraction of Henrion & Lasserre: factor M_d = V V^T from its
    eigenpairs and pick r independent rows B of V of degree <= d - 1.  Every
    atom's monomial vector is then U w, where U = V V[B]^-1 and w holds its
    monomials x^B, so multiplying w by X_i is the matrix N_i = U[B + e_i].  The
    w of each atom is a common eigenvector of the N_i, taken from one fixed
    generic combination of them, and its coordinates are Rayleigh quotients.
    The weights fit every moment by least squares.  None when the moments are
    not flat, an eigenvector is complex, a coordinate lies more than
    _FACE_SNAP outside [-1, 1] or a weight is not positive.
    """
    n, d = s_unit.n, s_unit.max_degree // 2
    if d < 1:
        return None
    matrix = moment_matrix(s_unit, d)
    values, vectors = np.linalg.eigh(matrix)
    floor = _RANK_TOL * values[-1]
    if not floor > 0.0 or values[0] < -floor:  # the M_d of a measure is PSD and nonzero
        return None
    keep = values > floor
    r = int(np.count_nonzero(keep))
    low = simplex_size(n, d - 1)
    if np.count_nonzero(np.linalg.eigvalsh(matrix[:low, :low]) > floor) != r:
        return None
    v = vectors[:, keep] * np.sqrt(values[keep])
    basis = _independent_rows(v[:low], r)
    u = np.linalg.solve(v[basis].T, v.T).T
    if not np.isfinite(u).all():
        return None
    steps = grlex_rank(np.eye(n, dtype=np.int64))  # the ranks of e_1, ..., e_n
    mult = u[shift_table(n, d - 1, 1)[steps][:, basis].T]  # [b, i] = N_i[b]
    # cos 1, ..., cos n: no integer combination of them vanishes (e^i is
    # transcendental), so atoms on a lattice get distinct eigenvalues
    generic = np.cos(np.arange(1.0, n + 1.0))
    _, w = np.linalg.eig(mult.transpose(0, 2, 1) @ generic)
    if np.iscomplexobj(w):
        return None
    atoms = np.einsum("bj,bic,cj->ji", w, mult, w) / np.einsum("bj,bj->j", w, w)[:, None]
    if not (np.abs(atoms) <= 1.0 + _FACE_SNAP).all():
        return None
    atoms = np.clip(atoms, -1.0, 1.0)
    vander = monomial_values(atoms, simplex_index(n, s_unit.max_degree))
    weights = np.linalg.lstsq(vander.T, s_unit.vector, rcond=None)[0]
    if not (weights > 0.0).all():
        return None
    return atoms, weights


def _result(
    s: MomentSequence, atoms, weights, tol: float, iterations: int, method: str
) -> RecoveryResult:
    """The recovery of the given atoms and weights, with the residual of its moments."""
    measure = AtomicMeasure(tuple(tuple(p) for p in atoms), tuple(weights))
    integrals = np.array(_integrate_simplex(measure, s.n, s.max_degree))
    residual = float(np.linalg.norm(integrals - s.vector))
    return RecoveryResult(measure, residual, residual <= tol, iterations, method)


def recover_measure(
    s: MomentSequence,
    box: BoxSpec,
    grid_m: int,
    tol: float = 1e-6,
) -> RecoveryResult:
    """Search for an atomic measure on the box matching s.

    Both paths work on the box rescaled to the unit cube (moments pick up a
    factor c^-alpha), which keeps the monomial columns well conditioned on
    wide boxes, and both report the residual ||moments_of_measure(measure) -
    s||_2 of the returned measure in the original, unscaled metric.

    The flat path (method "flat", 0 iterations) reads the atoms off M_d when
    the moments are flat (see _flat_measure).  Its answer is returned only when
    every atom lies in the box, every weight is positive and the residual is
    at most tol.  Otherwise the grid path (method "grid") solves
    min ||A w - s||_2 over w >= 0, where the columns of A are the monomial
    vectors of a uniform grid of grid_m points per axis, by active-set steps
    (counted in `iterations`) that end on the KKT conditions.  It keeps the
    support with weight above SUPPORT_THRESHOLD, at most len(s.vector) atoms,
    mapped back onto the original grid by index; with no atom kept the
    residual is ||s||_2.  Failure (residual above tol) signals a
    too-small box, too-coarse grid, or moments that no measure on the box
    can produce.
    """
    if box.n != s.n:
        raise ValueError(f"dimension mismatch: box has n={box.n}, moments have n={s.n}")
    if grid_m < 2:
        raise ValueError("need at least 2 grid points per axis")
    exponents = simplex_index(s.n, s.max_degree)
    b_unit = s.vector / monomial_values([box.upper], exponents)[0]
    flat = None
    if np.isfinite(b_unit).all():  # c^-alpha can overflow on a small box
        try:
            flat = _flat_measure(MomentSequence(s.n, s.max_degree, b_unit))
        except np.linalg.LinAlgError:  # a singular pivot block, or eig did not converge
            pass
    if flat is not None:
        result = _result(s, flat[0] * np.array(box.upper), flat[1], tol, 0, "flat")
        if result.success:
            return result

    points = grid_points(box, grid_m)
    unit_points = grid_points(BoxSpec.from_halfwidths((1.0,) * s.n), grid_m)
    a_unit = monomial_values(unit_points, exponents).T
    col_scale = np.linalg.norm(a_unit, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    y, iterations = _nnls(a_unit / col_scale, b_unit)
    weights = y / col_scale
    mask = weights > SUPPORT_THRESHOLD
    return _result(s, points[mask], weights[mask], tol, iterations, "grid")


def measure_to_dict(mu: AtomicMeasure) -> dict:
    """JSON-ready form mirroring the AtomicMeasure fields."""
    return {
        "atoms": [list(p) for p in mu.atoms],
        "weights": list(mu.weights),
    }


def measure_from_dict(data: dict) -> AtomicMeasure:
    if not isinstance(data, dict) or not {"atoms", "weights"} <= set(data):
        raise ValueError('measure JSON must be {"atoms": [...], "weights": [...]}')
    atoms, weights = data["atoms"], data["weights"]
    if not isinstance(atoms, (list, tuple)) or not isinstance(weights, (list, tuple)):
        raise ValueError("atoms and weights must be lists")
    if not all(isinstance(p, (list, tuple)) for p in atoms):
        raise ValueError("each atom must be a list of coordinates")
    return AtomicMeasure(
        tuple(tuple(number_field(x, "atom coordinate") for x in p) for p in atoms),
        tuple(number_field(v, "weight") for v in weights),
    )
