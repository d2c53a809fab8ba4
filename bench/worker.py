"""Deck worker: one interpreter that imports momentcone.cli and runs jobs.

run.py starts it as ``python3 worker.py SRC_DIR DECK_FILE`` with the deck's
directory as working directory.  The protocol is one JSON object per line.
The worker writes ``{"ready": ...}`` once ``momentcone.cli`` is imported and
the deck is loaded, then ``{"ref_ms": ...}``, the reference kernel's time
right after ready, then answers each request read from stdin:

* ``{"cmd": "pass"}``: run every job once, in deck order, by calling
  ``cli.main(argv)`` in-process (a closed loop with one client); reply with
  each job's exit code, wall time, reference kernel time (the mean of the
  readings just before, during and just after the job), output digest and,
  on the first pass, the output text;
* ``{"cmd": "trace"}``: rebind cross-module names to span recorders for all
  later passes;
* ``{"cmd": "exit", "spans": PATH}``: write the recorded spans to PATH when
  tracing, reply with the peak resident set size and exit.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import numpy as np

SAMPLE_S = 0.2  # interval of the reference kernel readings inside a job


def run_job(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed job, not a failed benchmark
        traceback.print_exc()
        return -1


def reference_ms() -> float:
    """Median wall time in ms of three runs of a fixed reference kernel.

    The kernel is the kind of work the program does: Jacobi-style rotations
    of a small numpy array in a Python loop, and projected gradient steps
    with matrix-vector products.  It is the same on every commit.  run.py
    scales each job's wall time by it, so that a change in the speed of a
    shared host cancels out.  The median keeps one run that another tenant
    interrupts from counting.  Garbage collection is held off so that
    garbage a job left behind is not collected on the kernel's time.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            a = np.linspace(-1.0, 1.0, 144).reshape(12, 12)
            m = np.linspace(-1.0, 1.0, 300 * 120).reshape(300, 120)
            x = np.ones(120)
            t0 = time.perf_counter()
            for p in range(11):
                for q in range(p + 1, 12):
                    col = a[:, p].copy()
                    a[:, p] = 0.8 * col - 0.6 * a[:, q]
                    a[:, q] = 0.6 * col + 0.8 * a[:, q]
            for _ in range(40):
                x = np.maximum(x - 1e-4 * (m.T @ (m @ x)), 0.0)
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Reference kernel readings inside a job, taken by a SIGALRM handler
    every SAMPLE_S of wall time, so that a long job is scaled by the host
    speed over its whole run and not only at its ends.  ``spent`` is the time
    the readings took, which is not the job's."""

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.readings.append(reference_ms())
        self.spent += time.perf_counter() - t0

    def run(self, fn, *args):
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)


def run_pass(cli, deck: list[dict], tracer, sampler: Sampler, index: int) -> dict:
    """One pass over the deck.  Untraced jobs run under the sampler; traced
    ones do not, so that no span holds kernel time."""
    jobs = []
    started = time.perf_counter()
    ref = reference_ms()
    for job in deck:
        out = job["id"] + ".out"
        if os.path.exists(out):
            os.remove(out)
        argv = job["argv"] + ["--out", out]
        if tracer is not None:
            tracer.where = (index, job["id"])
        sampler.readings, sampler.spent = [], 0.0
        t0 = time.perf_counter()
        if tracer is None:
            code = sampler.run(run_job, cli, argv)
        else:
            code = tracer.span("cli.main", run_job, (cli, argv), {})
        ms = (time.perf_counter() - t0 - sampler.spent) * 1e3
        ref_after = reference_ms()
        try:
            with open(out, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        record = {"id": job["id"], "code": code, "ms": ms,
                  "ref_ms": statistics.fmean([ref, *sampler.readings, ref_after]),
                  "sha": hashlib.sha256(data).hexdigest()}
        ref = ref_after
        if index == 0:
            record["text"] = data.decode("utf-8", "replace")
        jobs.append(record)
    return {"jobs": jobs, "wall_s": time.perf_counter() - started}


def main() -> int:
    src, deck_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from momentcone import cli

    with open(deck_path, encoding="utf-8") as fh:
        deck = json.load(fh)
    channel = sys.stdout
    sys.stdout = sys.stderr  # keep anything the program prints off the protocol channel

    def send(obj) -> None:
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    send({"ready": True, "cli": os.path.abspath(cli.__file__)})
    send({"ref_ms": reference_ms()})
    tracer = None
    sampler = Sampler()
    passes = 0
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["cmd"] == "pass":
            send(run_pass(cli, deck, tracer, sampler, passes))
            passes += 1
        elif msg["cmd"] == "trace":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracing import Tracer

            tracer = Tracer()
            send({"bound": tracer.install()})
        elif msg["cmd"] == "exit":
            if tracer is not None:
                tracer.dump(msg["spans"])
            send({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
