"""Self-check: counts, solver iterations and the failed share repeat exactly.

Runs every workload twice with the same seed in traced mode and compares the
count metrics (calls, iterations, capped, max_m, ratios) and failed/attempted
between the two runs.  Each run also checks itself: outputs repeat byte for
byte across passes, traced passes agree on their counts, and a tampered copy
of every output is caught by the answer checker.

    python3 bench/selfcheck.py

Exits 0 when everything repeats, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
COUNT_SUFFIXES = (".calls", ".iterations", ".capped", ".max_m", "_ratio")
SEED = 1
SECONDS = 6.0  # run length of each traced run


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=200, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    sys.path.insert(0, str(BENCH))
    from decks import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        a, b = (traced(workload) for _ in range(2))
        counts = {k: (a["metrics"][k]["value"], b["metrics"][k]["value"])
                  for k in a["metrics"] if k.endswith(COUNT_SUFFIXES)}
        differ = {k: v for k, v in counts.items() if v[0] != v[1]}
        shares = [Fraction(r["failed"], r["attempted"]) for r in (a, b)]
        good = a["correct"] and b["correct"] and not differ and shares[0] == shares[1]
        ok &= good
        print(f"{workload}: {'ok' if good else 'MISMATCH'}: {len(counts)} counts, "
              f"failed share {shares[0]} and {shares[1]}, correct {a['correct']} and {b['correct']}")
        for k, (x, y) in differ.items():
            print(f"  {k}: {x} != {y}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
