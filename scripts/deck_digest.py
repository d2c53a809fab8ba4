#!/usr/bin/env python3
"""One digest over every output of the benchmark decks, for byte comparisons.

Builds the seeded decks of bench/decks.py into a temporary directory, runs
each job through momentcone.cli.main in-process, in deck order, and prints
one line: the sha256 over every job's exit code, standard output and
standard error, and the number of jobs.  Two trees, or two runs under
different PYTHONHASHSEED values, print the same line when every output is
byte for byte the same.  Nothing under bench/ is written.

    PYTHONPATH=src python3 scripts/deck_digest.py [WORKLOAD:FIRST-LAST ...]

The default is certify:1-10 check:1-3 recover:1-3 (326 jobs).  Like the
bench worker, the run pins one BLAS thread unless the environment already
sets one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT = ("certify:1-10", "check:1-3", "recover:1-3")
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_decks(specs) -> list[tuple[str, int]]:
    """(workload, seed) for each seed of each WORKLOAD:FIRST-LAST spec."""
    decks = []
    for spec in specs:
        workload, _, seeds = spec.partition(":")
        first, _, last = seeds.partition("-")
        decks += [(workload, seed) for seed in range(int(first), int(last or first) + 1)]
    return decks


def run_job(cli, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def digest(specs) -> tuple[str, int]:
    """The sha256 hex digest over the outputs of the decks, and the job count."""
    for name in BLAS_THREADS:
        os.environ.setdefault(name, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import decks
    from momentcone import cli

    sha, count = hashlib.sha256(), 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed in parse_decks(specs):
            workdir = Path(tmp, f"{workload}{seed}")
            workdir.mkdir()
            os.chdir(workdir)  # deck jobs name their input files relative to it
            try:
                for job in decks.build(workload, seed, workdir):
                    code, out, err = run_job(cli, job["argv"])
                    for part in (str(code), out, err):
                        sha.update(b"%d:%s" % (len(part), part.encode("utf-8")))
                    count += 1
            finally:
                os.chdir(home)
    return sha.hexdigest(), count


def main(argv: list[str]) -> int:
    hexdigest, count = digest(argv or DEFAULT)
    print(f"{hexdigest} {count} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
