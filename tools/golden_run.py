"""Golden run: hash every output of six small sweeps.

    python3 tools/golden_run.py [--work DIR]

Builds the two benchmark datasets (300 feature_only graphs with n=50 and
seed 7; 500 structure_only graphs with n=40 and seed 11), runs
`sweep-dropedge` for residual-gcn, exphormer and attn-residual-gcn on each
(2 epochs with 1 warmup epoch, p 0/0.5/1, training seed 0), and prints one
`sha256  relative/path` line per file written, plus one per sweep's
standard output. Run it on two checkouts and diff the printouts: equal
printouts mean the outputs are byte-identical. It imports the package from
this checkout's `src/` and runs with one BLAS thread. It takes about 30 s
on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from connectobench import cli  # noqa: E402

DATASETS = {"feature": ("feature_only", 300, 50, 7),
            "structure": ("structure_only", 500, 40, 11)}
MODELS = ("residual-gcn", "exphormer", "attn-residual-gcn")


def _run(argv: list[str]) -> bytes:
    """Run one CLI command; return its standard output, or exit on failure."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        sys.exit(f"{' '.join(argv)} exited with {rc}")
    return buf.getvalue().encode("utf-8")


def golden(work: Path) -> list[tuple[str, str]]:
    """(sha256, name) of every output, in a fixed order. Paths passed to the
    CLI are relative to work, so printed paths do not depend on it."""
    os.chdir(work)
    Path("config.json").write_text(json.dumps({
        "train": {"total_epochs": 2, "warmup_epochs": 1},
        "drop_probabilities": [0.0, 0.5, 1.0]}),
        encoding="utf-8")
    digests = []
    for name, (mode, graphs, nodes, seed) in DATASETS.items():
        data = f"{name}.jsonl"
        _run(["gen-data", "--graphs", str(graphs), "--nodes", str(nodes),
              "--classes", "2", "--label-mode", mode, "--seed", str(seed),
              "--out", data])
        for model in MODELS:
            out = f"{name}-{model}"
            stdout = _run(["sweep-dropedge", "--dataset", data, "--out", out,
                           "--config", "config.json", "--model", model,
                           "--seeds", "0"])
            digests.append((hashlib.sha256(stdout).hexdigest(), f"{out}/<stdout>"))
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        digests.append((hashlib.sha256(path.read_bytes()).hexdigest(), str(path)))
    return digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work", help="empty directory for the outputs "
                                   "(default: a temporary one, removed after)")
    args = ap.parse_args(argv)
    with contextlib.ExitStack() as stack:
        if args.work:
            work = Path(args.work).resolve()
            work.mkdir(parents=True, exist_ok=True)
            if any(work.iterdir()):
                sys.exit(f"{work} is not empty")
        else:
            work = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        cwd = os.getcwd()
        stack.callback(os.chdir, cwd)
        for digest, name in golden(work):
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
