"""The demo scripts run end to end and print their headline lines, the deck
digest repeats across processes, and the README's Library example runs as
written."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name, monkeypatch, capsys) -> list[str]:
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_sweep_demo(monkeypatch, capsys):
    lines = run_script("sweep_demo.py", monkeypatch, capsys)
    assert lines[0] == "== 1 - X^2 on [-1, 1], l1 norm, eps schedule [1.0, 0.5, 0.25]"
    assert lines[4] == "== X^2 on [-1, 1], l1 norm, eps schedule [1.0, 0.5, 0.25]"
    rows = [line.split() for line in lines if line.startswith("  eps=")]
    assert [row[1] for row in rows] == ["D=2"] * 6
    assert [row[2] for row in rows] == ["distance=2.5", "distance=1.25", "distance=0.625"] * 2
    assert [row[3] for row in rows] == ["[ok]"] * 6


def test_pipeline_demo(monkeypatch, capsys):
    lines = run_script("pipeline_demo.py", monkeypatch, capsys)
    assert lines[0] == "weight r=2, box [-2, 2]"
    assert lines[2] == "  hypothesis growing: False, psd: True"
    assert lines[3].startswith("  recovery: success=True ")
    assert lines[4] == "weight r=1, box [-1, 1]"
    assert lines[5] == "  dual-norm profile by degree: [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]"
    assert lines[6] == "  hypothesis growing: True, psd: True"
    assert lines[7].startswith("  recovery: success=False ")


def test_deck_digest_repeats_across_hash_seeds():
    # one seed's recover deck (16 jobs) through cli.main, in two interpreters
    # with different string hashing: every output byte must be the same
    lines = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / "deck_digest.py"), "recover:1"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        lines.append(done.stdout)
    assert re.fullmatch(r"[0-9a-f]{64} 16 outputs\n", lines[0])
    assert lines[1] == lines[0]


def test_readme_library_example():
    # the one python block of README.md; its asserts are the checks
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
