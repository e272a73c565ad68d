"""Smoke tests of the scripts under tools/."""

import re
import subprocess
import sys
from pathlib import Path

from connectobench.models import MODEL_KINDS

ROOT = Path(__file__).resolve().parent.parent


def test_design_stats_prints_the_line_count_and_a_tape_row_per_model():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "design_stats.py")],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    rows = dict(re.fullmatch(r"(.+?)\s{2,}(.+)", line).groups()
                for line in out.stdout.splitlines())
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    assert rows.pop("src lines") == str(lines)
    assert list(rows) == [f"tape nodes {kind}" for kind in MODEL_KINDS] + [
        "tape nodes exphormer num_global_nodes=0"]
    for value in rows.values():
        assert re.fullmatch(r"\d+ a forward of (1 graph|\d+ graphs)", value), value
