"""Alternating A/B pairs of the benchmark on two checkouts.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload gcn-structure --seeds 10..19

For every seed, runs `perfbench/run.py --workload W --seed S --trace 0` once
in each checkout, at run.py's default run length, the parent first on even
pairs and the change first on odd ones, so drift in machine load falls on
both sides alike. Then, for every
end-to-end metric that PARENT_DIR/BENCHMARK.json declares, prints each
side's median and quartiles, the ratio of the medians (change / parent), how
many pairs the change won (ties count for neither side) and whether a gain
may be claimed: wins in at least nine tenths of the pairs, and medians
further apart than the parent's interquartile range. A metric the change
lost in the same way is marked "loss". Before that table it prints every
run's raw value of each metric, one line per pair and side, so a report can
cite each run. Any run whose outputs failed their checks or that lost cells
is reported; the exit code is 1 if one did.
Seeds are `A..B` (inclusive) or a comma-separated list.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = [int(s) for s in text.split(",")]
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The result line of one untraced benchmark run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: seed {seed} exited with {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles, ratio, wins and the claim rule for one metric."""
    p, c = np.asarray(parent), np.asarray(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = int(np.count_nonzero(sign * (c - p) > 0))
    losses = int(np.count_nonzero(sign * (c - p) < 0))
    pq = np.percentile(p, [25, 50, 75])
    cq = np.percentile(c, [25, 50, 75])
    apart = abs(cq[1] - pq[1]) > pq[2] - pq[0]
    if wins >= 0.9 * p.size and apart:
        call = "gain"
    elif losses >= 0.9 * p.size and apart:
        call = "loss"
    else:
        call = "-"
    return {"parent": pq, "change": cq, "ratio": cq[1] / pq[1], "wins": wins,
            "call": call}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values = {side: {m["name"]: [] for m in spec["end_to_end"]} for side in sides}
    bad = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed)
            if not result["correct"] or result["failed"]:
                bad.append(f"{side} seed {seed}: correct={result['correct']} "
                           f"failed={result['failed']}/{result['attempted']}")
            for name, series in values[side].items():
                series.append(result["metrics"][name]["value"])
        print(f"# pair {i + 1}/{len(args.seeds)} seed {seed} done "
              f"({order[0]} first)", file=sys.stderr)

    n = len(args.seeds)
    print(f"# {args.workload}: {n} pairs, seeds {args.seeds}")
    for i, seed in enumerate(args.seeds):
        for side in sides:
            raw = " ".join(f"{name}={series[i]:.6g}"
                           for name, series in values[side].items())
            print(f"pair {i + 1:>2} seed {seed} {side:<6} {raw}")
    print(f"{'metric':<18} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'ratio':>6} {'wins':>6}  call")
    for m in spec["end_to_end"]:
        v = verdict(values["parent"][m["name"]], values["change"][m["name"]],
                    m["better"])
        p, c = (f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
                for q in (v["parent"], v["change"]))
        print(f"{m['name']:<18} {p:>30} {c:>30} {v['ratio']:>6.3f} "
              f"{v['wins']:>3}/{n:<2}  {v['call']}  ({m['unit']}, "
              f"{m['better']} is better)")
    for line in bad:
        print(f"FAIL {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
