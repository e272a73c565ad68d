"""Golden run: hash every output of nineteen small sweeps and a curves export.

    python3 tools/golden_run.py [--work DIR]

Builds the two benchmark datasets (300 feature_only graphs with n=50 and
seed 7; 500 structure_only graphs with n=40 and seed 11) and runs
`sweep-dropedge` for residual-gcn, exphormer and attn-residual-gcn on each
(p 0/0.5/1, training seed 0). Then builds a third dataset (80 feature_only
graphs with n=20 and seed 5) and runs `sweep-variants`, `sweep-dropout` and
`sweep-layers` on it with their default grids and training seeds 0 and 1,
which reaches attention after every GCN layer, attention inserted with
probability below 1, and the dropout and layer-count grids, plus a
residual-gcn `sweep-dropedge` with `train.gcn.hidden_dim` 1 (p 0/0.5/1,
seed 1), the one width whose pooled bits depend on pooling each layer
apart or their concat. Training seed 1 gives all three width-1 layers live
units at every p (seed 0 leaves two of them all zero after ReLU), so
pooling the concat instead changes the p=0 and p=0.5 run JSONs. An
exphormer `sweep-dropedge` on the same dataset (p 0/0.5/1, seed 0) sets
`train.exphormer` to 2 global nodes, 2 heads and no structural encoding,
so batched evaluation places two global rows per graph on its dense
attention blocks and splits the width over another head count. Next, it
builds a fourth dataset from a config file's `dataset_spec` with
`gen-data --config`, runs a `sweep-dropedge` whose dataset comes from
that `dataset_spec` alone, and builds a fifth dataset from the same
`dataset_spec` with `--graphs 30` overriding its graph count; that config
holds ints in float fields and spells its `models` grid both ways. Last,
it merges two feature_only datasets of 40 graphs each, one with n=16 and
one with n=24, both with 12 features, under one header, alternating three
small graphs with two large ones, and runs `sweep-dropedge` for residual-gcn
and exphormer on it, so batches hold unequal block sizes and interaction
graphs differ in size. Then it runs `curves` on the first run JSON of the
`sweep-dropout` grid, which holds training seeds 0 and 1, so one call
writes two CSVs. Three more sweeps on the third dataset (training seed 0)
reach paths the others miss: a `sweep-variants` whose `variants` grid
holds both placements at probability 0, so attention never runs and
AttnResidualGCN batches like a plain ResidualGCN; an exphormer
`sweep-dropedge` (p 0/0.5/1) with no global node, so no row is placed or
picked around the real ones; and an exphormer `sweep-dropedge` (p
0/0.5/1) with `train.batch_size` 5, which trains each mini-batch of five
as two pairs and a lone graph, so its forwards weigh 2/5 and 1/5 of the
batch mean, shares that are not powers of two. Finally, it builds a sixth dataset (24
feature_only graphs with n=130 and seed 9) and runs two exphormer
`sweep-dropedge` sweeps on it (p 0/0.5/1, seed 0) with `expander_degree` 2
and no global node, one at 4 heads and one at 1 head. Its p=1 graphs are
sparse, so evaluation runs Exphormer's edge chain, which no other sweep's
evaluation reaches: at 4 heads one graph a forward, at 1 head three graphs
of one size a forward.
Every sweep trains 2 epochs with 1 warmup epoch. Prints one
`sha256  relative/path` line per file written, plus one per command's
standard output. Run it on two checkouts and diff the printouts: equal
printouts mean the outputs are byte-identical. It imports the package from
this checkout's `src/` and runs with one BLAS thread. It takes about 100 s
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
GRID_DATASET = ("feature_only", 80, 20, 5)
GRIDS = ("variants", "dropout", "layers")
WIDTH1_CONFIG = {"train": {"total_epochs": 2, "warmup_epochs": 1,
                           "gcn": {"hidden_dim": 1}},
                 "drop_probabilities": [0.0, 0.5, 1.0]}
EXPHORMER_CONFIG = {"train": {"total_epochs": 2, "warmup_epochs": 1,
                              "exphormer": {"num_global_nodes": 2, "num_heads": 2,
                                            "structural_encoding": "none"}},
                    "drop_probabilities": [0.0, 0.5, 1.0]}
VARIANTS0_CONFIG = {"train": {"total_epochs": 2, "warmup_epochs": 1},
                    "variants": [["after_each_gcn", 0.0], ["after_concat", 0.0]]}
EXPHORMER0_CONFIG = {"train": {"total_epochs": 2, "warmup_epochs": 1,
                               "exphormer": {"num_global_nodes": 0}},
                     "drop_probabilities": [0.0, 0.5, 1.0]}
BATCH5_CONFIG = {"train": {"total_epochs": 2, "warmup_epochs": 1, "batch_size": 5},
                 "drop_probabilities": [0.0, 0.5, 1.0]}
SPARSE_DATASET = ("feature_only", 24, 130, 9)
SPARSE_HEADS = (4, 1)
MIXED_DATASETS = (("feature_only", 40, 16, 21), ("feature_only", 40, 24, 22))
MIXED_DIM = 12
MIXED_MODELS = ("residual-gcn", "exphormer")
SPEC_CONFIG = {
    "dataset_spec": {"num_graphs": 40, "n": 12, "d": 8, "num_classes": 2,
                     "label_mode": "mixed", "threshold": 0.4, "noise_scale": 1,
                     "seed": 3},
    "train": {"total_epochs": 2, "warmup_epochs": 1, "seeds": [0],
              "decay_per_epoch": 0, "gcn": {"hidden_dim": 16}},
    "models": ["residual-gcn", "attn_residual_gcn"],
    "drop_probabilities": [0.0, 1.0]}


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

    def gen(name: str, mode: str, graphs: int, nodes: int, seed: int,
            *flags: str) -> str:
        data = f"{name}.jsonl"
        _run(["gen-data", "--graphs", str(graphs), "--nodes", str(nodes),
              "--classes", "2", "--label-mode", mode, "--seed", str(seed),
              "--out", data, *flags])
        return data

    def record(out: str, argv: list[str]) -> None:
        stdout = _run(argv + ["--out", out])
        digests.append((hashlib.sha256(stdout).hexdigest(), f"{out}/<stdout>"))

    def sweep(grid: str, data: str, out: str, *flags: str,
              config: str = "config.json") -> None:
        record(out, [f"sweep-{grid}", "--dataset", data, "--config", config, *flags])

    def write_config(name: str, config: dict) -> str:
        Path(name).write_text(json.dumps(config), encoding="utf-8")
        return name

    for name, spec in DATASETS.items():
        data = gen(name, *spec)
        for model in MODELS:
            sweep("dropedge", data, f"{name}-{model}", "--model", model,
                  "--seeds", "0")
    data = gen("grids", *GRID_DATASET)
    for grid in GRIDS:
        sweep(grid, data, f"grids-{grid}", "--seeds", "0,1")
    sweep("dropedge", data, "grids-width1", "--model", "residual-gcn", "--seeds", "1",
          config=write_config("width1.json", WIDTH1_CONFIG))
    sweep("dropedge", data, "grids-exphormer", "--model", "exphormer", "--seeds", "0",
          config=write_config("exphormer.json", EXPHORMER_CONFIG))
    write_config("spec.json", SPEC_CONFIG)
    record("spec.jsonl", ["gen-data", "--config", "spec.json"])
    record("spec", ["sweep-dropedge", "--config", "spec.json"])
    record("spec30.jsonl", ["gen-data", "--config", "spec.json", "--graphs", "30"])
    small, large = (
        Path(gen(f"mixed-n{spec[2]}", *spec, "--dim", str(MIXED_DIM)))
        .read_bytes().splitlines(keepends=True)[1:] for spec in MIXED_DATASETS)
    merged = [json.dumps({"version": 1, "num_classes": 2, "spec": None}).encode()
              + b"\n"]
    while small or large:
        merged += small[:3] + large[:2]
        small, large = small[3:], large[2:]
    Path("mixed.jsonl").write_bytes(b"".join(merged))
    for model in MIXED_MODELS:
        sweep("dropedge", "mixed.jsonl", f"mixed-{model}", "--model", model,
              "--seeds", "0")
    run = min(Path("grids-dropout/runs").glob("*.json"))
    record("curves", ["curves", "--run", str(run)])
    sweep("variants", data, "grids-variants0", "--seeds", "0",
          config=write_config("variants0.json", VARIANTS0_CONFIG))
    sweep("dropedge", data, "grids-exphormer0", "--model", "exphormer", "--seeds", "0",
          config=write_config("exphormer0.json", EXPHORMER0_CONFIG))
    sweep("dropedge", data, "grids-exphormer-b5", "--model", "exphormer",
          "--seeds", "0", config=write_config("batch5.json", BATCH5_CONFIG))
    data = gen("sparse", *SPARSE_DATASET)
    for heads in SPARSE_HEADS:
        config = {"train": {"total_epochs": 2, "warmup_epochs": 1, "exphormer": {
            "expander_degree": 2, "num_global_nodes": 0, "num_heads": heads}},
            "drop_probabilities": [0.0, 0.5, 1.0]}
        sweep("dropedge", data, f"sparse-exphormer-h{heads}", "--model", "exphormer",
              "--seeds", "0", config=write_config(f"sparse-h{heads}.json", config))
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
