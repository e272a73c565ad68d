"""connectobench benchmark entry point.

    python3 perfbench/run.py --workload gcn-feature --seed 0 --seconds 30 --trace 0

Runs one workload in a child process that sees one BLAS thread and imports
the package from this checkout's `src/`, prints every metric with its unit
and sample count, the machine facts and any correctness problem, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones. `--workload all` runs every workload both ways and exits
non-zero if any gate fails. Exit codes: 0 success (the JSON line's
`correct` says whether the outputs passed), 2 bad arguments or no
`src/connectobench` to benchmark, 3 the workload process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170.0


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 tiny: bool = False) -> dict:
    """Run one workload process and return its result."""
    tag = f"{name}-seed{seed}-trace{trace}" + ("-tiny" if tiny else "")
    work = HERE / "work" / tag
    result_path = HERE / "work" / f"{tag}.json"
    if result_path.exists():
        result_path.unlink()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work), "--result", str(result_path)]
    if tiny:
        cmd.append("--tiny")
    # the sweep's own progress lines go to stderr: stdout carries the result
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"{name} workload process exited with {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def report(name: str, trace: int, result: dict, units: dict[str, str]) -> None:
    samples = result.get("samples", {})
    print(f"# {name} trace={trace} seed={result['seed']} "
          f"(dataset seed {result['data_seed']})")
    print(f"# machine {json.dumps(result['machine'], sort_keys=True)}")
    for metric in units:
        if metric not in result["metrics"]:
            continue
        value = result["metrics"][metric]
        note = f"  (n={samples[metric]})" if metric in samples else ""
        print(f"{metric:<40} {value:>16.6f} {units[metric]}{note}")
    ratio = result["failed"] / result["attempted"]
    print(f"cell_fail_ratio {ratio:.4f} ({result['failed']} of "
          f"{result['attempted']} cells failed)")
    for problem in result["problems"]:
        print(f"FAIL {problem}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ap = argparse.ArgumentParser(description="connectobench benchmark")
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="seconds-long shapes without accuracy gates, for tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "connectobench" / "__init__.py").is_file():
        print(f"error: no src/connectobench under {ROOT} to benchmark",
              file=sys.stderr)
        return 2

    names = workloads if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    results = {}
    try:
        for name in names:
            for trace in traces:
                result = run_workload(name, args.seed, args.seconds, trace, args.tiny)
                report(name, trace, result, units)
                results[(name, trace)] = result
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.workload == "all":
        ok = all(r["correct"] for r in results.values())
        print(json.dumps({f"{n}/trace{t}": r["correct"] for (n, t), r in results.items()}))
        return 0 if ok else 1
    (result,) = results.values()
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": {
                          k: {"value": result["metrics"][k], "unit": u}
                          for k, u in units.items() if k in result["metrics"]}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
