"""Known answers for deck jobs, worked out with numpy alone.

Nothing here imports momentcone.  Each ``check_<kind>`` takes the job record
written by ``decks.py``, the exit code and the text the job wrote to ``--out``,
and returns ``(status, reason)`` with status one of

* ``"ok"``: the output is the known answer;
* ``"failed"``: the job gave no answer where one is known to exist (exit 1,
  "inconclusive", a recovery FAIL although a measure exists on the box);
* ``"wrong"``: the output claims something false (a flipped verdict, a
  certificate that does not reproduce the candidate, an atom outside the box,
  a moment that does not match, an exit code that disagrees with the report).

Both "failed" and "wrong" count as failed jobs; only "wrong" makes a run
incorrect.
"""

from __future__ import annotations

import json
import math
from itertools import product

import numpy as np

OK, FAILED, WRONG = "ok", "failed", "wrong"


# ---------------------------------------------------------------- polynomials
# A polynomial is a dict {exponent tuple: coefficient}.


def simplex(n: int, deg: int) -> list[tuple[int, ...]]:
    """Exponents with |a| <= deg in graded order."""
    out = [a for a in product(range(deg + 1), repeat=n) if sum(a) <= deg]
    return sorted(out, key=lambda a: (sum(a), a))


def poly_json(n: int, f: dict) -> dict:
    return {"n": n, "terms": [{"exp": list(a), "coef": float(c)} for a, c in sorted(f.items())]}


def poly_parse(obj: dict) -> dict:
    return {tuple(int(v) for v in t["exp"]): float(t["coef"]) for t in obj["terms"]}


def pmul(f: dict, g: dict) -> dict:
    out: dict = {}
    for a, ca in f.items():
        for b, cb in g.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def padd(f: dict, g: dict, scale: float = 1.0) -> dict:
    out = dict(f)
    for a, c in g.items():
        out[a] = out.get(a, 0.0) + scale * c
    return out


def pscale_axes(f: dict, c) -> dict:
    """f(c * x): coefficient a picks up prod(c ** a)."""
    c = np.asarray(c, dtype=float)
    return {a: v * float(np.prod(c ** np.asarray(a))) for a, v in f.items()}


def peval(f: dict, points: np.ndarray) -> np.ndarray:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    exps = np.array(list(f), dtype=float)
    coefs = np.array(list(f.values()))
    return np.prod(points[:, None, :] ** exps[None, :, :], axis=2) @ coefs


def perturbation(n: int, depth: int) -> dict:
    """1 + sum_i sum_{k<=depth} X_i^(2k) / k!, the documented SOS tail."""
    out = {(0,) * n: 1.0}
    for i in range(n):
        for k in range(1, depth + 1):
            a = tuple(2 * k if j == i else 0 for j in range(n))
            out[a] = out.get(a, 0.0) + 1.0 / math.factorial(k)
    return out


def weighted_norm(f: dict, p: float, r) -> float:
    r = np.asarray(r, dtype=float)
    mags = np.array([abs(c) for c in f.values()])
    weights = np.array([float(np.prod(r ** np.asarray(a))) for a in f])
    if not len(mags):
        return 0.0
    if math.isinf(p):
        return float(np.max(mags * weights))
    return float(np.sum(mags**p * weights) ** (1.0 / p))


def halfwidths(p: float, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    return r if math.isinf(p) else r ** (1.0 / p)


# -------------------------------------------------------------------- moments


def moments(atoms, weights, deg: int) -> dict:
    """s(a) = sum_j w_j x_j^a by a Vandermonde product."""
    atoms = np.asarray(atoms, dtype=float)
    exps = simplex(atoms.shape[1], deg)
    vander = np.prod(atoms[:, None, :] ** np.array(exps, dtype=float)[None, :, :], axis=2)
    values = np.asarray(weights, dtype=float) @ vander
    return dict(zip(exps, values.tolist()))


def localized_matrix(s: dict, n: int, d: int, g: dict | None = None) -> np.ndarray:
    """M[a, b] = sum_c g_c s(a + b + c) over the degree-d basis (g = 1 by default)."""
    g = g or {(0,) * n: 1.0}
    basis = simplex(n, d)
    m = len(basis)
    out = np.zeros((m, m))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            out[i, j] = sum(c * s[tuple(x + y + z for x, y, z in zip(a, b, e))] for e, c in g.items())
    return out


def min_eig(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(mat)[0]) if mat.size else 0.0


def psd_tol(mat: np.ndarray) -> float:
    """The program's documented default: 1e-9 * max(trace / size, 0)."""
    return 1e-9 * max(float(np.trace(mat)) / len(mat), 0.0) if mat.size else 0.0


def eig_close(reported, mat: np.ndarray) -> bool:
    return isinstance(reported, (int, float)) and abs(reported - min_eig(mat)) <= 1e-9 * max(
        1.0, float(np.linalg.norm(mat))
    )


# ------------------------------------------------------------------- checkers


def _num(v) -> float:
    """A rendered number: the CLI writes infinities as "+inf" and "-inf"."""
    words = {"+inf": math.inf, "-inf": -math.inf, "nan": math.nan}
    if isinstance(v, str):
        v = v.strip()
        return words[v] if v in words else float(v)
    return float(v)


def _verdict_code(verdict: bool, code: int):
    if code == 1:
        return (FAILED, "exit 1")
    if code != (0 if verdict else 2):
        return (WRONG, f"exit {code} disagrees with verdict {verdict}")
    return None


def check_sqrt(job, code, text):
    e = job["expect"]
    if code == 1:
        return FAILED, "exit 1"
    out = json.loads(text)
    if code != 0 or out.get("pass") is not True:
        return WRONG, "f(0) >= 0 but the job did not pass"
    f = {tuple(a): c for a, c in e["f"]}
    i = e["i"]
    sq = pmul(poly_parse(out["h"]), poly_parse(out["h"]))
    scale = max(1.0, max(abs(v) for v in sq.values()))
    n = len(next(iter(f)))
    zero = (0,) * n
    for a in simplex(n, i):
        want = f.get(a, 0.0) + (1.0 / i if a == zero else 0.0)
        if abs(sq.get(a, 0.0) - want) > 1e-9 * scale:
            return WRONG, f"h^2 misses coefficient {a}"
    errors = out["errors"]
    if [r["i"] for r in errors] != list(range(1, i + 1)):
        return WRONG, "error table steps"
    top = max(sum(a) for a in f)
    err = max(abs(sq.get(a, 0.0) - f.get(a, 0.0)) for a in simplex(n, top))
    if abs(errors[-1]["max_coefficient_error"] - err) > 1e-9 * scale:
        return WRONG, "last error entry does not match h"
    return OK, "reproduces f"


def check_sos(job, code, text):
    """expect["answer"]: "certifiable" | "not-sos" | "negative-on-box"."""
    e = job["expect"]
    if code == 1:
        return FAILED, "exit 1"
    out = json.loads(text)
    bad = _verdict_code(bool(out["success"]), code)
    if bad:
        return bad
    n, p, r, eps = e["n"], float(e["p"]), e["r"], e["eps"]
    f = {tuple(a): c for a, c in e["f"]}
    half = halfwidths(p, r)
    if out["success"]:
        if e["answer"] != "certifiable":
            return WRONG, f"certified a {e['answer']} input"
        depth = out["D"]
        if not 2 <= depth <= e["dmax"]:
            return WRONG, f"depth {depth} outside 2..{e['dmax']}"
        factors = [poly_parse(h) for h in out["factors"]]
        total: dict = {}
        for h in factors:
            total = padd(total, pmul(h, h))
        # compare on the unit box, where the program's tolerance applies
        cand = padd(pscale_axes(f, half), perturbation(n, depth), eps)
        unit = pscale_axes(total, half)
        keys = set(cand) | set(unit)
        gap = max(abs(unit.get(a, 0.0) - cand.get(a, 0.0)) for a in keys)
        scale = max(1.0, max(abs(v) for v in cand.values()))
        if gap > e["tol"] * 1.001 + 1e-11 * scale:
            return WRONG, f"squared factors miss the candidate by {gap:.3g}"
        dist = weighted_norm(padd(f, total, -1.0), p, r)
        if abs(_num(out["distance"]) - dist) > 1e-6 * dist + 1e-10 * weighted_norm(f, p, r):
            return WRONG, "reported distance does not match the factors"
        return OK, "certificate reproduces the candidate"
    if out["reason"] == "negative-on-box":
        x = np.asarray(out["witness"], dtype=float)
        value = float(peval(f, x)[0])
        if np.any(np.abs(x) > half * (1 + 1e-12)) or value >= 0.0:
            return WRONG, "witness is not a negative point of the box"
        if abs(value - out["witness_value"]) > 1e-9 * max(1.0, abs(value)):
            return WRONG, "witness value"
        if e["answer"] == "certifiable":
            return WRONG, "rejected a box-nonnegative input"
        return OK, "negative point found"
    if out["reason"] != "inconclusive":
        return WRONG, f"unknown reason {out['reason']!r}"
    if e["answer"] == "certifiable":
        return FAILED, "inconclusive on an SOS candidate"
    if e["answer"] == "negative-on-box":
        return FAILED, "the box screen missed a negative point"
    return OK, "not certified"


def _recovery(e, rec, tol):
    """Status of a reported recovery against the input moments."""
    s = {tuple(a): v for a, v in e["s"]}
    half = halfwidths(float(e["p"]), e["r"])
    if not np.allclose(rec["box"]["upper"], half, rtol=1e-12, atol=0) or not np.allclose(
        rec["box"]["lower"], -half, rtol=1e-12, atol=0
    ):
        return WRONG, "box does not match the weight"
    atoms = np.asarray(rec["atoms"], dtype=float).reshape(-1, e["n"])
    weights = np.asarray(rec["weights"], dtype=float)
    if np.any(weights < 0):
        return WRONG, "negative weight"
    if np.any(np.abs(atoms) > half * (1 + 1e-12)):
        return WRONG, "atom outside the box"
    if len(atoms):
        got = moments(atoms, weights, e["deg"])
    else:
        got = {a: 0.0 for a in s}
    resid = math.sqrt(math.fsum((got[a] - v) ** 2 for a, v in s.items()))
    norm = math.sqrt(math.fsum(v * v for v in s.values()))
    if abs(resid - rec["residual"]) > 1e-6 * resid + 1e-11 * max(1.0, norm):
        return WRONG, f"reported residual {rec['residual']:.3g}, atoms give {resid:.3g}"
    passed = rec.get("pass", rec.get("success"))
    if passed != (rec["residual"] <= tol):
        return WRONG, "verdict disagrees with residual and tolerance"
    if passed:
        if e["answer"] == "none":
            return WRONG, "recovered a measure where none exists"
        return OK, "moments match, atoms in the box"
    if e["answer"] == "exists":
        return FAILED, f"no measure found, residual {rec['residual']:.3g}"
    return OK, "no measure on the box"


def check_recover(job, code, text):
    if code == 1:
        return FAILED, "exit 1"
    out = json.loads(text)
    return _verdict_code(bool(out["success"]), code) or _recovery(job["expect"], out, job["expect"]["tol"])


def check_pipeline(job, code, text):
    e = job["expect"]
    if code == 1:
        return FAILED, "exit 1"
    out = json.loads(text)
    bad = _verdict_code(bool(out["pass"]), code)
    if bad:
        return bad
    parts = (out["hypothesis"]["pass"], out["psd"]["pass"], out["recovery"]["pass"])
    if out["pass"] != all(parts):
        return WRONG, "overall verdict disagrees with its parts"
    s = {tuple(a): v for a, v in e["s"]}
    profile = dual_norm_profile(s, e["deg"], float(e["p"]), e["r"])
    got = [_num(v) for v in out["hypothesis"]["by_degree"]]
    if len(got) != len(profile) or not np.allclose(got, profile, rtol=1e-9, atol=0):
        return WRONG, "dual-norm profile"
    d = out["psd"]["d"]
    mat = localized_matrix(s, e["n"], d)
    psd = min_eig(mat) >= -psd_tol(mat)
    if not eig_close(out["psd"]["min_eigenvalue"], mat) or out["psd"]["pass"] != psd:
        return WRONG, "PSD stage"
    status = _recovery(e, out["recovery"], e["tol"])
    if status[0] != OK or out["pass"]:
        return status
    if e["answer"] == "exists":
        return FAILED, "pipeline FAIL although a measure exists on the box"
    return OK, "no measure on the box"


def dual_norm_profile(s: dict, deg: int, p: float, r) -> list[float]:
    r = np.asarray(r, dtype=float)
    if math.isinf(p):
        q, rp = 1.0, 1.0 / r
    elif p == 1.0:
        q, rp = math.inf, 1.0 / r
    else:
        q = p / (p - 1.0)
        rp = r ** (-q / p)
    out, running = [], 0.0
    for k in range(deg + 1):
        terms = [
            abs(v) ** (1.0 if math.isinf(q) else q) * float(np.prod(rp ** np.asarray(a)))
            for a, v in s.items()
            if sum(a) == k and v != 0.0
        ]
        if math.isinf(q):
            running = max([running] + terms)
            out.append(running)
        else:
            running += math.fsum(terms)
            out.append(running ** (1.0 / q))
    return out


def check_moments(job, code, text):
    e = job["expect"]
    if code != 0:
        return (FAILED if code == 1 else WRONG), f"exit {code}"
    out = json.loads(text)
    want = moments(e["atoms"], e["weights"], e["deg"])
    got = {tuple(v["exp"]): v["s"] for v in out["values"]}
    if out["n"] != len(e["atoms"][0]) or out["max_degree"] != e["deg"] or set(got) != set(want):
        return WRONG, "moment file shape"
    for a, v in want.items():
        if abs(got[a] - v) > 1e-12 * max(1.0, abs(v)):
            return WRONG, f"moment {a} is {got[a]!r}, expected {v!r}"
    return OK, "moments match"


def check_psd(job, code, text):
    e = job["expect"]
    if code == 1:
        return FAILED, "exit 1"
    out = json.loads(text)
    bad = _verdict_code(bool(out["pass"]), code)
    if bad:
        return bad
    if out["pass"] != e["psd"]:
        return WRONG, f"PSD verdict {out['pass']}, known {e['psd']}"
    if not eig_close(out["min_eigenvalue"], np.asarray(e["matrix"])):
        return WRONG, "minimum eigenvalue"
    return OK, "verdict and eigenvalue match"


def check_qm(job, code, text):
    e = job["expect"]
    if code == 1:
        return FAILED, "exit 1"
    out = json.loads(text)
    bad = _verdict_code(bool(out["pass"]), code)
    if bad:
        return bad
    gens = out["generators"]
    if len(gens) != len(e["psd"]):
        return WRONG, "generator count"
    for got, psd, mat in zip(gens, e["psd"], e["matrices"]):
        if got["pass"] != psd:
            return WRONG, f"{got['label']} verdict {got['pass']}, known {psd}"
        if not eig_close(got["min_eigenvalue"], np.asarray(mat)):
            return WRONG, f"{got['label']} minimum eigenvalue"
    if out["pass"] != all(e["psd"]):
        return WRONG, "overall verdict"
    return OK, "verdicts and eigenvalues match"


def check_norm(job, code, text):
    if code != 0:
        return (FAILED if code == 1 else WRONG), f"exit {code}"
    want = job["expect"]["norm"]
    got = _num(text.strip())
    if abs(got - want) > 1e-10 * abs(want):
        return WRONG, f"norm {got!r}, expected {want!r}"
    return OK, "norm matches"


def check_eval(job, code, text):
    e = job["expect"]
    if code == 1:
        return FAILED, "exit 1"
    verdict, _, value = text.strip().partition(", dual_norm=")
    continuous = verdict == "continuous"
    bad = _verdict_code(continuous, code)
    if bad:
        return bad
    if continuous != e["continuous"]:
        return WRONG, f"verdict {verdict!r}"
    got = _num(value)
    if continuous and abs(got - e["dual_norm"]) > 1e-10 * e["dual_norm"]:
        return WRONG, f"dual norm {got!r}, expected {e['dual_norm']!r}"
    if not continuous and not math.isinf(got):
        return WRONG, "finite dual norm for a discontinuous evaluation"
    return OK, "verdict and dual norm match"


CHECKERS = {
    "sqrt": check_sqrt,
    "sos": check_sos,
    "recover": check_recover,
    "pipeline": check_pipeline,
    "moments": check_moments,
    "psd": check_psd,
    "qm": check_qm,
    "norm": check_norm,
    "eval": check_eval,
}


def check(job, code, text):
    """Status and reason for one job; unparsable output counts as wrong."""
    try:
        return CHECKERS[job["kind"]](job, code, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return WRONG, f"unreadable output: {exc!r}"


# ------------------------------------------------------------------ tampering


def _flip_first_verdict(obj):
    """Negate the first boolean verdict found, depth first."""
    if isinstance(obj, dict):
        for key in ("pass", "success"):
            if isinstance(obj.get(key), bool):
                obj[key] = not obj[key]
                return True
        return any(_flip_first_verdict(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_flip_first_verdict(v) for v in obj)
    return False


def tamper(job, code, text):
    """A corrupted copy of a job's output: a bad atom where there are atoms,
    a flipped verdict or a shifted number otherwise."""
    kind = job["kind"]
    if kind == "norm":
        return code, repr(float(text) * (1 + 1e-6)) + "\n"
    if kind == "eval":
        flipped = text.replace("not continuous", "X").replace("continuous", "not continuous")
        return 2 - code, flipped.replace("X", "continuous")
    flipped_code = 2 - code if code in (0, 2) else code
    out = json.loads(text)
    if kind == "moments":
        out["values"][-1]["s"] += 1e-6 * max(1.0, abs(out["values"][-1]["s"]))
        return code, json.dumps(out)
    rec = out.get("recovery", out) if kind in ("recover", "pipeline") else None
    if rec is not None and rec["atoms"]:
        rec["atoms"][0][0] = 2.0 * (abs(rec["atoms"][0][0]) + max(rec["box"]["upper"]))
        return code, json.dumps(out)
    if kind == "sqrt":
        out["h"]["terms"][-1]["coef"] *= 1.001
        return code, json.dumps(out)
    _flip_first_verdict(out)
    return flipped_code, json.dumps(out)
