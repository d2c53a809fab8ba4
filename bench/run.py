"""momentcone benchmark: seeded decks of CLI jobs checked against known answers.

Run from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

The deck for the workload is generated from the seed into
``.bench_work/<workload>/``.  A fresh worker interpreter (``worker.py``)
imports ``momentcone.cli`` from ``src/`` and runs the deck in whole passes,
calling ``cli.main(argv)`` in-process, one job after the other (closed loop,
one client), until ``--seconds`` are used.  Set-up, the time from spawning a
worker to ready, is measured over several spawns.  Every output is checked
against an answer worked out with numpy (``answers.py``); later passes must
repeat the first byte for byte.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the time
untraced and half with the span recorders of ``tracing.py`` installed, and
prints the per-layer metrics of the traced passes.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import answers
import decks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

SETUP_SPAWNS = 5  # set-up is the median over this many worker spawns
# Job and set-up times are reported at the host speed at which the worker's
# reference kernel takes this long: wall time x REFERENCE_MS / the kernel's
# time measured around the job.  The constant is the kernel's usual time on
# the 2-vCPU Xeon host the baseline comes from, so there scaled ~ wall time.
REFERENCE_MS = 1.8
# The two slowest certify jobs make up the top tenth of its job runs; with
# fewer than six timed passes job_ms_tail would fall to the third-slowest
# job, and one more pass keeps a few low readings of them from setting it.
MIN_TIMED_PASSES = 7
DEADLINE_S = 170.0  # a run that is not done by then is abandoned
# Pinned for the worker on every commit: one BLAS thread, a fixed hash seed.
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "correct_share": "share",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of one deck pass: counts repeat exactly between passes,
# times are medians over the traced passes.
COUNTS = ("calls", "iterations", "capped", "max_m", "success")
PER_LAYER = {
    "jacobi.jacobi_eigh": ("calls", "self_ms", "max_m"),
    "jacobi.jacobi_eigvals": ("calls", "self_ms", "max_m"),
    "approx.sos_certify": ("calls", "iterations", "capped", "self_ms", "ms_per_iter"),
    "approx.screen_box_nonnegativity": ("calls", "self_ms"),
    "nnls.nnls_bb": ("calls", "iterations", "capped", "self_ms", "ms_per_iter"),
    "measures.recover_measure": ("calls", "self_ms"),
    "measures.moments_of_measure": ("self_ms",),
    "moments.moment_matrix": ("calls", "self_ms"),
    "moments.localized_moment_matrix": ("calls", "self_ms"),
    "moments.dual_norm_profile": ("self_ms",),
    "polyring.poly_mul": ("calls", "self_ms"),
    "polyring.series_sqrt": ("self_ms",),
    "norms.weighted_norm": ("self_ms",),
    "norms.eval_sequence_norm": ("self_ms",),
    "cli.parse": ("self_ms",),
    "cli.render": ("self_ms",),
    "cli.main": ("self_ms",),
}
RATIOS = {  # useful outcomes over attempts
    "approx.certified_ratio": "approx.sos_certify",
    "measures.recovered_ratio": "measures.recover_measure",
}
UNITS = {"calls": "count", "iterations": "count", "capped": "count", "max_m": "count",
         "self_ms": "ms", "ms_per_iter": "ms"}


class BenchError(RuntimeError):
    pass


class Worker:
    """One worker interpreter; ``setup_s`` is spawn-to-ready wall time and
    ``setup_ref_ms`` the reference kernel's time right after ready."""

    def __init__(self, deck_path: Path, workdir: Path, deadline: float):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update(WORKER_ENV)
        self.err = open(workdir / "worker.err", "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(SRC), str(deck_path)],
            cwd=workdir, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.err, text=True,
        )
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.timer.start()
        try:
            ready = self._read()
            self.setup_s = time.perf_counter() - started
            self.setup_ref_ms = self._read()["ref_ms"]
            if Path(ready["cli"]).resolve() != (SRC / "momentcone" / "cli.py").resolve():
                raise BenchError(f"worker imported {ready['cli']}, not the checkout's src/")
        except BaseException:
            self.stop()
            raise

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited early (code {self.proc.poll()}); see {self.err.name}")
        return json.loads(line)

    def request(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self, spans: Path | None = None) -> dict:
        reply = self.request({"cmd": "exit", "spans": str(spans) if spans else None})
        self.proc.wait(timeout=30)
        self.stop()
        return reply

    def stop(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()
        self.err.close()


def machine_record() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "worker_env": WORKER_ENV,
    }


def check_outputs(jobs: list[dict], passes: list[dict]) -> tuple[list, int]:
    """Status of each job on the first pass; failed job count over all passes."""
    first = passes[0]["jobs"]
    statuses = [answers.check(job, rec["code"], rec["text"]) for job, rec in zip(jobs, first)]
    failed = 0
    for run in passes:
        for k, rec in enumerate(run["jobs"]):
            if (rec["code"], rec["sha"]) != (first[k]["code"], first[k]["sha"]):
                statuses[k] = (answers.WRONG, "output differs between passes")
        failed += sum(status != answers.OK for status, _ in statuses)
    return statuses, failed


def tamper_check(jobs: list[dict], first: list[dict], statuses: list) -> None:
    """The checker must flag a corrupted copy of every output it accepted."""
    for job, rec, (status, _) in zip(jobs, first, statuses):
        if status != answers.OK:
            continue
        code, text = answers.tamper(job, rec["code"], rec["text"])
        status, _ = answers.check(job, code, text)
        if status != answers.WRONG:
            raise BenchError(f"tampered output of {job['id']} ({job['kind']}) was not caught")


def run_passes(worker: Worker, seconds: float, trace: bool):
    """Whole passes until the time is used: warm-up first, then timed passes,
    at least MIN_TIMED_PASSES of them when timing.  With trace, the second
    half of the time runs with span recorders."""
    untraced, traced = [], []
    start = time.perf_counter()
    plain_budget = seconds / 2 if trace else seconds
    least = 2 if trace else 1 + MIN_TIMED_PASSES
    while True:
        untraced.append(worker.request({"cmd": "pass"}))
        elapsed = time.perf_counter() - start
        if len(untraced) >= least and elapsed + untraced[-1]["wall_s"] > plain_budget:
            break
    if trace:
        worker.request({"cmd": "trace"})
        while True:
            traced.append(worker.request({"cmd": "pass"}))
            elapsed = time.perf_counter() - start
            if len(traced) >= 2 and elapsed + traced[-1]["wall_s"] > seconds:
                break
    return untraced, traced


def tail(samples: list[float]) -> tuple[float, float]:
    """Value with exactly ten samples above it, and its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        raise BenchError(f"only {n} timed jobs; the tail needs more than 10")
    return ordered[n - 11], 100.0 * (n - 10) / n


def scaled_ms(rec: dict) -> float:
    return rec["ms"] * REFERENCE_MS / rec["ref_ms"]


def end_to_end(jobs, timed, setups, maxrss_kb, attempted, failed) -> dict:
    print(f"{len(timed)} timed passes of {len(jobs)} jobs; pass wall s: "
          + " ".join(f"{run['wall_s']:.3f}" for run in timed))
    figures = {}
    for label, ms_of in (("wall", lambda rec: rec["ms"]), ("scaled", scaled_ms)):
        samples = [ms_of(rec) for run in timed for rec in run["jobs"]]
        tail_ms, pct = tail(samples)
        # a job's time is its median over the passes, so that a pass slowed by
        # another tenant of the host does not count in full
        job_ms = [statistics.median(ms_of(run["jobs"][k]) for run in timed) for k in range(len(jobs))]
        setup_s = statistics.median(
            setup if label == "wall" else setup * REFERENCE_MS / ref for setup, ref in setups)
        figures[label] = {
            "setup_s": setup_s,
            "jobs_per_s": len(jobs) / (sum(job_ms) / 1e3),
            "job_ms_p50": statistics.median(job_ms),
            "job_ms_tail": tail_ms,
        }
    print(f"job_ms_tail is p{pct:.1f} over {len(samples)} timed job runs")
    print("wall-clock, unscaled: " + " ".join(f"{k}={v:.4g}" for k, v in figures["wall"].items())
          + f"; reference kernel median {statistics.median(rec['ref_ms'] for run in timed for rec in run['jobs']):.3f} ms")
    return {
        **figures["scaled"],
        "correct_share": 1.0 - failed / attempted,
        "peak_rss_mb": maxrss_kb / 1024.0,
    }


def per_layer(spans_path: Path, traced, untraced) -> tuple[dict, str | None]:
    """Per-pass layer metrics from the recorded spans, and a determinism error."""
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    passes: dict[int, dict] = {}
    for k, (name, start, end, parent, index, job, info) in enumerate(spans):
        agg = passes.setdefault(index, {}).setdefault(
            name, {"calls": 0, "iterations": 0, "capped": 0, "max_m": 0, "success": 0,
                   "self_ms": 0.0, "total_ms": 0.0})
        agg["calls"] += 1
        agg["self_ms"] += (end - start - child[k]) * 1e3
        agg["total_ms"] += (end - start) * 1e3
        info = info or {}
        agg["iterations"] += int(info.get("iterations", 0))
        agg["capped"] += int(bool(info.get("capped", False)))
        agg["success"] += int(bool(info.get("success", False)))
        agg["max_m"] = max(agg["max_m"], int(info.get("m", 0)))
    per_pass = [passes.get(i, {}) for i in sorted(passes)]
    error = None
    counts = [{n: tuple(a[c] for c in COUNTS) for n, a in p.items()} for p in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        error = "span counts or solver iterations differ between traced passes"

    def med(name: str, field: str) -> float:
        return statistics.median(p.get(name, {}).get(field, 0.0) for p in per_pass)

    metrics = {}
    first = per_pass[0] if per_pass else {}
    for name, fields in PER_LAYER.items():
        agg = first.get(name, {})
        for field in fields:
            if field == "self_ms":
                value = med(name, "self_ms")
            elif field == "ms_per_iter":
                iters = agg.get("iterations", 0)
                value = med(name, "total_ms") / iters if iters else 0.0
            else:
                value = agg.get(field, 0)
            metrics[f"{name}.{field}"] = (value, UNITS[field])
    for ratio, name in RATIOS.items():
        agg = first.get(name, {})
        metrics[ratio] = (agg["success"] / agg["calls"] if agg.get("calls") else 0.0, "ratio")
    plain = statistics.median(sum(map(scaled_ms, run["jobs"])) for run in untraced[1:])
    with_spans = statistics.median(sum(map(scaled_ms, run["jobs"])) for run in traced)
    metrics["trace.overhead_share"] = (with_spans / plain - 1.0, "share")
    return metrics, error


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORKDIR / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = decks.build(workload, seed, workdir)
    deck_path = workdir / "deck.json"
    deck_path.write_text(json.dumps([{"id": j["id"], "argv": j["argv"]} for j in jobs]))
    print(f"bench {workload} seed={seed} seconds={seconds:g} trace={int(trace)} jobs={len(jobs)}")
    print("machine " + json.dumps(machine_record()))
    for count, text in decks.SIZES[workload]:
        print(f"  deck {count:2d} x {text}")

    workers: list[Worker] = []
    try:
        setups = []
        for _ in range(SETUP_SPAWNS):
            workers.append(Worker(deck_path, workdir, deadline))
            setups.append((workers[-1].setup_s, workers[-1].setup_ref_ms))
            if len(workers) < SETUP_SPAWNS:
                workers[-1].close()
        worker = workers[-1]
        untraced, traced = run_passes(worker, seconds, trace)
        spans_path = workdir / "spans.json"
        maxrss_kb = worker.close(spans_path if trace else None)["maxrss_kb"]
    finally:
        for w in workers:
            w.stop()

    every = untraced + traced
    with open(workdir / "times.json", "w", encoding="utf-8") as fh:
        json.dump([[(rec["ms"], rec["ref_ms"]) for rec in run["jobs"]] for run in every], fh)
    statuses, failed = check_outputs(jobs, every)
    tamper_check(jobs, every[0]["jobs"], statuses)
    attempted = len(jobs) * len(every)
    wrong = sum(status == answers.WRONG for status, _ in statuses)
    for k, (job, (status, why)) in enumerate(zip(jobs, statuses)):
        ms = statistics.median(scaled_ms(run["jobs"][k]) for run in every)
        print(f"  {job['id']} {job['argv'][0]:15s} {ms:9.1f} ms  {status:6s} {why}")
    print(f"failed_share = {failed}/{attempted} = {failed / attempted:.4f} "
          f"({sum(status == answers.FAILED for status, _ in statuses)} failed and {wrong} wrong jobs per pass)")
    correct = not wrong
    if trace:
        metrics, error = per_layer(spans_path, traced, untraced)
        if error:
            print(f"  error: {error}")
            correct = False
    else:
        timed = untraced[1:]  # the first pass is a warm-up
        metrics = {k: (v, END_TO_END[k]) for k, v in
                   end_to_end(jobs, timed, setups, maxrss_kb, attempted, failed).items()}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=decks.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "momentcone" / "cli.py").is_file():
        print(f"error: no momentcone sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:  # BenchError, deck construction
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
