"""Smoke tests of the scripts under tools/."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_ab_pairs_verdict_claims_nine_tenths_of_pairs_with_medians_apart(better):
    verdict = load_tool("ab_pairs").verdict
    parent = [100.0 + i for i in range(10)]  # median 104.5, quartiles 102.25, 106.75
    sign = 1.0 if better == "higher" else -1.0

    def moved(by, worse=(), ties=()):
        """parent, each pair moved by `by` the better way: in worse the other
        way, in ties not at all."""
        return [p if i in ties else p + sign * (-by if i in worse else by)
                for i, p in enumerate(parent)]

    def call(change):
        v = verdict(parent, change, better)
        return v["wins"], v["call"]

    assert call(moved(20)) == (10, "gain")
    assert call(moved(20, worse={3})) == (9, "gain")
    assert call(moved(20, worse={3, 7})) == (8, "-")
    # a tie is no win, and no loss either
    assert call(moved(20, ties={3})) == (9, "gain")
    assert call(moved(20, ties={3, 7})) == (8, "-")
    assert call(moved(20, ties=range(10))) == (0, "-")
    # every pair won, but the medians 1 apart lie within the parent's IQR
    assert call(moved(1)) == (10, "-")
    # the mirror image: lost pairs make a loss
    assert call(moved(-20)) == (0, "loss")
    assert call(moved(-20, worse={3})) == (1, "loss")
    assert call(moved(-20, ties={3})) == (0, "loss")
    assert call(moved(-20, worse={3, 7})) == (2, "-")
    v = verdict(parent, moved(20), better)
    assert v["ratio"] == (104.5 + sign * 20) / 104.5
    assert list(v["parent"]) == [102.25, 104.5, 106.75]
