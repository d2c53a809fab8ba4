"""Seeded job decks for the three workloads.

A deck is a fixed list of job slots.  The slot structure (subcommand, n,
degrees, grid, iteration budgets) is the deck's stated input size and is the
same for every seed; the seed draws only the numbers inside each slot
(coefficients, atoms, weights, boxes).  Every job writes its report to
``--out``; the expected answer travels with the job record and never reaches
the program, which sees only the generated JSON files.
"""

from __future__ import annotations

import json
import math
import zlib
from pathlib import Path

import numpy as np

from answers import (
    halfwidths,
    localized_matrix,
    min_eig,
    moments,
    pmul,
    padd,
    poly_json,
    psd_tol,
    simplex,
    weighted_norm,
)

# Stated input sizes, one row per slot group: (count, description).
SIZES = {
    "certify": [
        (6, "sqrt-approx, n=1, degree 2-6, i=4..10"),
        (6, "sqrt-approx, n=2, degree 2-4, i=5..6"),
        (4, "sos-approx easy, n=1, degree 4 (2) and 6 (2), Gram m=3/4, dmax 3"),
        (1, "sos-approx easy, n=2, degree 4, Gram m=6, dmax 3"),
        (1, "sos-approx negative on the box, n=2, degree 2 (screen must reject)"),
        (1, "sos-approx 1 - X^2 with eps 0.08-0.12, dmax 2 (not SOS; 5000-iteration cap)"),
        (1, "sos-approx (X1^3 - X2)^2, eps 0, dmax 2, --max-iters 200 (empty Gram interior)"),
    ],
    "recover": [
        (10, "moments, n=1 (5) and n=2 (5), 1-5 atoms, degree 4-8"),
        (1, "recover-measure on-grid, n=2, grid 13, degree 6, 3 atoms"),
        (1, "recover-measure off-grid, n=1, grid 41, degree 6, 2 atoms"),
        (1, "recover-measure point mass at 2 against r=1, n=1, grid 41 (no measure)"),
        (1, "pipeline on-grid, n=1, grid 41, degree 6, 2 atoms"),
        (1, "pipeline on-grid, n=1, grid 41, degree 6, atoms 0.25, -0.05, 0.9 (NNLS stops at its cap)"),
        (1, "pipeline off-grid 3 atoms (0.5,-0.25), (1,1), (-1,0.5), p=1, r=1.5,1.5, grid 21, degree 4"),
    ],
    "check": [
        (2, "psd-check n=2 degree 10 (m=21), PSD and non-PSD"),
        (4, "psd-check n=3 degree 10 (m=56), PSD and non-PSD"),
        (2, "psd-check n=3 degree 6 (m=20) and n=2 degree 6 (m=10)"),
        (3, "qm-check n=2 degree 10, 1-3 generators of degree 2, d=4 (m=15)"),
        (1, "qm-check n=3 degree 8, 2 generators of degree 2, d=3 (m=20)"),
        (6, "norm, n=3 degree 10 (286 terms), n=2 degree 8 (45 terms), p in 1, 2, inf"),
        (8, "eval-cont, n=1-3, p in 1, 2, inf"),
    ],
}

WORKLOADS = tuple(SIZES)


def _write(workdir: Path, name: str, obj) -> str:
    (workdir / name).write_text(json.dumps(obj))
    return name


def _r(x: float, digits: int = 3) -> float:
    return round(float(x), digits)


def _weight(rng, n: int, p: str):
    return p, [_r(v, 2) for v in rng.uniform(0.6, 1.6, size=n)]


def _pair(f: dict) -> list:
    return [[list(a), c] for a, c in sorted(f.items())]


def _rand_poly(rng, n: int, deg: int, lo: float = -1.0, hi: float = 1.0) -> dict:
    return {a: _r(rng.uniform(lo, hi)) for a in simplex(n, deg)}


class Deck:
    """Accumulates job records and the input files they point at."""

    def __init__(self, workdir: Path, workload: str):
        self.workdir = workdir
        self.prefix = workload[0]
        self.jobs: list[dict] = []
        self.files = 0

    def add(self, kind: str, argv: list[str], expect: dict) -> None:
        job_id = f"{self.prefix}{len(self.jobs):02d}"
        self.jobs.append({"id": job_id, "kind": kind, "argv": argv, "expect": expect})

    def file(self, stem: str, obj) -> str:
        self.files += 1
        return _write(self.workdir, f"{stem}{self.files:03d}.json", obj)


# ---------------------------------------------------------------- certify


def _sos_job(deck: Deck, f: dict, n: int, p: str, r, eps: float, dmax: int, answer: str, extra=()):
    name = deck.file("f", poly_json(n, f))
    argv = ["sos-approx", "--f", name, "--p", p, "--r", ",".join(map(str, r)),
            "--eps", repr(eps), "--dmax", str(dmax), *extra]
    deck.add("sos", argv, {"n": n, "f": _pair(f), "p": p, "r": list(r), "eps": eps,
                           "dmax": dmax, "tol": 1e-8, "answer": answer})


def _easy_sos(rng, n: int, deg: int) -> dict:
    """Two random squares plus a diagonal margin: strictly inside the SOS cone."""
    half = simplex(n, deg // 2)
    f: dict = {}
    for _ in range(2):
        q = {a: rng.uniform(-1, 1) for a in half}
        f = padd(f, pmul(q, q))
    margin = rng.uniform(0.3, 0.6)
    f = padd(f, {tuple(2 * x for x in a): margin for a in half})
    return {a: _r(c, 4) for a, c in f.items()}


def certify_deck(rng, deck: Deck) -> None:
    for n, deg, i in [(1, 2, 4), (1, 3, 8), (1, 4, 10), (1, 5, 7), (1, 6, 9), (1, 6, 6),
                      (2, 2, 5), (2, 3, 5), (2, 2, 6), (2, 4, 6), (2, 4, 6), (2, 4, 6)]:
        f = _rand_poly(rng, n, deg)
        f[(0,) * n] = _r(rng.uniform(0.5, 1.5))
        name = deck.file("f", poly_json(n, f))
        deck.add("sqrt", ["sqrt-approx", "--f", name, "--i", str(i)], {"f": _pair(f), "i": i})
    for n, deg, p in [(1, 4, "1"), (1, 4, "inf"), (1, 6, "2"), (1, 6, "1"), (2, 4, "2")]:
        p, r = _weight(rng, n, p)
        _sos_job(deck, _easy_sos(rng, n, deg), n, p, r, _r(rng.uniform(0.1, 0.3)), 3, "certifiable")
    # (x1 - a1)^2 + (x2 - a2)^2 - b has minimum -b at a point inside the box
    p, r = _weight(rng, 2, "2")
    a = [_r(v) for v in rng.uniform(-0.4, 0.4, size=2) * halfwidths(2.0, r)]
    b = _r(rng.uniform(0.05, 0.2))
    f = {(0, 0): _r(a[0] ** 2 + a[1] ** 2 - b, 6), (1, 0): -2 * a[0], (0, 1): -2 * a[1],
         (2, 0): 1.0, (0, 2): 1.0}
    _sos_job(deck, f, 2, p, r, 0.1, 3, "negative-on-box")
    # criterion 5b: 1 - X^2 plus eps * (1 + X^2 + X^4/2) is negative at X = 2
    _sos_job(deck, {(0,): 1.0, (2,): -1.0}, 1, "1", [1.0], _r(rng.uniform(0.08, 0.12)), 2, "not-sos")
    # (X1^3 - X2)^2: a square whose Gram feasible set has no interior
    f = {(6, 0): 1.0, (3, 1): -2.0, (0, 2): 1.0}
    _sos_job(deck, f, 2, "1", [1.0, 1.0], 0.0, 2, "certifiable", ("--max-iters", "200"))


# ---------------------------------------------------------------- recover


def _measure(rng, n: int, count: int, lo: float = -1.5, hi: float = 1.5):
    atoms = [[_r(v) for v in rng.uniform(lo, hi, size=n)] for _ in range(count)]
    return atoms, [_r(v) for v in rng.uniform(0.1, 2.0, size=count)]


def _moment_file(deck: Deck, n: int, s: dict, deg: int) -> str:
    values = [{"exp": list(a), "s": v} for a, v in s.items()]
    return deck.file("s", {"n": n, "max_degree": deg, "values": values})


def _recover_job(deck: Deck, kind: str, atoms, weights, deg: int, p: str, r, grid: int, answer: str):
    n = len(atoms[0])
    s = moments(atoms, weights, deg)
    name = _moment_file(deck, n, s, deg)
    argv = [{"recover": "recover-measure"}.get(kind, kind), "--moments", name, "--p", p,
            "--r", ",".join(map(str, r)), "--grid", str(grid)]
    deck.add(kind, argv, {"n": n, "s": [[list(a), v] for a, v in s.items()], "deg": deg,
                          "p": p, "r": list(r), "tol": 1e-6, "answer": answer})


def _grid_atoms(rng, p: str, r, grid: int, count: int):
    """Distinct atoms on interior points of the program's uniform box grid."""
    half = halfwidths(float(p), r)
    axes = [np.linspace(-h, h, grid) for h in half]
    picks = rng.choice((grid - 2) ** len(axes), size=count, replace=False)
    out = []
    for k in picks:
        idx = np.unravel_index(int(k), (grid - 2,) * len(axes))
        out.append([float(ax[i + 1]) for ax, i in zip(axes, idx)])
    return out


def recover_deck(rng, deck: Deck) -> None:
    for n, count, deg in [(1, 1, 4), (1, 2, 6), (1, 3, 8), (1, 4, 6), (1, 5, 8),
                          (2, 1, 4), (2, 2, 6), (2, 3, 8), (2, 4, 6), (2, 5, 8)]:
        atoms, weights = _measure(rng, n, count)
        name = deck.file("mu", {"atoms": atoms, "weights": weights})
        deck.add("moments", ["moments", "--measure", name, "--degree", str(deg)],
                 {"atoms": atoms, "weights": weights, "deg": deg})
    p, r = _weight(rng, 2, "inf")
    _recover_job(deck, "recover", _grid_atoms(rng, p, r, 13, 3), _measure(rng, 2, 3)[1], 6, p, r, 13, "exists")
    # atoms strictly between grid points: a measure exists, the grid misses it
    p, r = _weight(rng, 1, "2")
    step = 2 * halfwidths(2.0, r)[0] / 40
    atoms = [[_r(-halfwidths(2.0, r)[0] + step * (k + rng.uniform(0.3, 0.7)), 6)] for k in (7, 29)]
    _recover_job(deck, "recover", atoms, _measure(rng, 1, 2)[1], 6, p, r, 41, "exists")
    _recover_job(deck, "recover", [[2.0]], [_r(rng.uniform(0.5, 2.0))], 6, "1", [1.0], 41, "none")
    p, r = _weight(rng, 1, "1")
    _recover_job(deck, "pipeline", _grid_atoms(rng, p, r, 41, 2), _measure(rng, 1, 2)[1], 6, p, r, 41, "exists")
    # fixed grid atoms on which nnls_bb stops at its cap 1.8e-4 above tolerance
    atoms = [[float(x)] for x in np.linspace(-1.0, 1.0, 41)[[25, 19, 38]]]
    _recover_job(deck, "pipeline", atoms, [0.523, 1.602, 1.279], 6, "1", [1.0], 41, "exists")
    atoms = [[0.5, -0.25], [1.0, 1.0], [-1.0, 0.5]]
    _recover_job(deck, "pipeline", atoms, _measure(rng, 2, 3)[1], 4, "1", [1.5, 1.5], 21, "exists")


# ------------------------------------------------------------------ check


def _signed_moments(rng, n: int, deg: int, psd: bool) -> dict:
    """Moments of a measure on [-1, 1]^n; the non-PSD ones subtract a point
    mass at a box corner heavy enough to make the moment matrix indefinite."""
    atoms, weights = _measure(rng, n, 2 * n + 3, -1.0, 1.0)
    if not psd:
        atoms.append([_r(v) for v in rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.8, 1.0, size=n)])
        weights.append(-_r(sum(weights)))
    return moments(atoms, weights, deg)


def _psd_job(rng, deck: Deck, n: int, deg: int, psd: bool) -> None:
    s = _signed_moments(rng, n, deg, psd)
    mat = localized_matrix(s, n, deg // 2)
    _assert_margin(mat, psd)
    name = _moment_file(deck, n, s, deg)
    deck.add("psd", ["psd-check", "--moments", name],
             {"psd": psd, "matrix": mat.tolist()})


def _assert_margin(mat, psd: bool) -> None:
    """The constructed verdict must hold with room to spare."""
    eig, tol = min_eig(mat), psd_tol(mat)
    if (eig < -1e-3 * tol) if psd else (eig > -1e3 * tol):
        raise RuntimeError(f"deck construction: min eigenvalue {eig:.3g} against tolerance {tol:.3g}")


def _qm_job(rng, deck: Deck, n: int, deg: int, count: int, violate: bool) -> None:
    """Localized checks for generators c - x_i^2 - x_j^2 / 2 and the ball N - |x|^2.

    Atoms lie in [-0.6, 0.6]^n so every generator and the ball are positive on
    them; a violating deck adds a heavy atom where the first generator is
    negative."""
    atoms, weights = _measure(rng, n, 2 * n + 2, -0.6, 0.6)
    gens = []
    for k in range(count):
        i, j = k % n, (k + 1) % n
        g = {(0,) * n: _r(rng.uniform(1.0, 1.2))}
        g[tuple(2 if t == i else 0 for t in range(n))] = -1.0
        g[tuple(2 if t == j else 0 for t in range(n))] = -0.5
        gens.append(g)
    if violate:
        atoms.append([1.4 if t == 0 else 0.0 for t in range(n)])
        weights.append(_r(3 * sum(weights)))
    s = moments(atoms, weights, deg)
    d = (deg - 2) // 2
    ball_n = float(n)
    ball = {(0,) * n: ball_n}
    for i in range(n):
        ball[tuple(2 if t == i else 0 for t in range(n))] = -1.0
    labelled = [{(0,) * n: 1.0}] + gens + [ball]
    mats = [localized_matrix(s, n, d, g) for g in labelled]
    verdicts = [min_eig(m) >= -psd_tol(m) for m in mats]
    for m, v in zip(mats, verdicts):
        _assert_margin(m, v)
    if violate == all(verdicts):
        raise RuntimeError("deck construction: violation did not show")
    argv = ["qm-check", "--moments", _moment_file(deck, n, s, deg)]
    for g in gens:
        argv += ["--g", deck.file("g", poly_json(n, g))]
    argv += ["--N", repr(ball_n), "--d", str(d)]
    deck.add("qm", argv, {"psd": verdicts, "matrices": [m.tolist() for m in mats]})


def check_deck(rng, deck: Deck) -> None:
    for psd in (True, False):
        _psd_job(rng, deck, 2, 10, psd)
    # four of the largest matrices, so that a seed whose matrices take one
    # Jacobi sweep more or less moves the deck's time by a small share only
    for psd in (True, False, True, False):
        _psd_job(rng, deck, 3, 10, psd)
    _psd_job(rng, deck, 3, 6, True)
    _psd_job(rng, deck, 2, 6, False)
    for count, violate in ((1, False), (2, True), (3, False)):
        _qm_job(rng, deck, 2, 10, count, violate)
    _qm_job(rng, deck, 3, 8, 2, True)
    for n, deg, p in [(3, 10, "1"), (3, 10, "2"), (3, 10, "inf"), (2, 8, "1"), (2, 8, "2"), (2, 8, "inf")]:
        f = _rand_poly(rng, n, deg, -2.0, 2.0)
        p, r = _weight(rng, n, p)
        name = deck.file("f", poly_json(n, f))
        deck.add("norm", ["norm", "--f", name, "--p", p, "--r", ",".join(map(str, r))],
                 {"norm": weighted_norm(f, float(p), r)})
    for k, (n, p) in enumerate([(1, "1"), (1, "2"), (1, "inf"), (2, "1"), (2, "2"), (2, "inf"),
                                (3, "2"), (3, "1")]):
        p, r = _weight(rng, n, p)
        half = halfwidths(float(p), r)
        inside = k % 2 == 0
        scale = rng.uniform(0.2, 0.9, size=n) if inside else rng.uniform(1.1, 1.5, size=n)
        x = [_r(v) for v in scale * half * rng.choice([-1.0, 1.0], size=n)]
        deck.add("eval", ["eval-cont", "--x=" + ",".join(map(repr, x)), "--p", p, "--r", ",".join(map(str, r))],
                 _eval_answer(x, float(p), r))


def _eval_answer(x, p: float, r) -> dict:
    """Dual norm of (x^a)_a in closed form: a geometric series per axis."""
    x, r = np.abs(np.asarray(x, dtype=float)), np.asarray(r, dtype=float)
    if p == 1.0:
        ok = bool(np.all(x / r <= 1.0))
        return {"continuous": ok, "dual_norm": 1.0 if ok else math.inf}
    q = 1.0 if math.isinf(p) else p / (p - 1.0)
    ratios = x / r if math.isinf(p) else x**q * r ** (-q / p)
    if np.any(ratios >= 1.0):
        return {"continuous": False, "dual_norm": math.inf}
    return {"continuous": True, "dual_norm": float(np.prod(1.0 / (1.0 - ratios)) ** (1.0 / q))}


BUILDERS = {"certify": certify_deck, "recover": recover_deck, "check": check_deck}


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the deck's input files into workdir and return its job records."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    deck = Deck(workdir, workload)
    BUILDERS[workload](rng, deck)
    return deck.jobs
