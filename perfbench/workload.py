"""One benchmark run of one workload, in its own process.

`run.py` starts this file with one BLAS thread and `src/` on PYTHONPATH. It
generates the workload's dataset from the seed, then drives the public CLI
entry point `connectobench.cli.main` in-process with `sweep-dropedge`, one
sweep per training seed of the workload:

* trace 0 repeats groups of sweeps (one per training seed) until
  `--seconds` is used up, with only the per-epoch and per-batch calls
  wrapped, and reports the end-to-end metrics;
* trace 1 runs one group that way and one group with every layer wrapped,
  reports the per-layer metrics and the tracing overhead, and writes the
  spans to `spans.npz` in the run directory.

Every group's outputs go through the workload's correctness gate, and every
sweep must write the same bytes as the first sweep with its training seed.
The result is written as JSON to `--result`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import connectobench
import tracer as tr
from connectobench import cli

ROOT = Path(__file__).resolve().parent.parent
if not Path(connectobench.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"connectobench was imported from {connectobench.__file__}, "
             f"not from {ROOT / 'src'}")

# Model blocks the traced run attributes ops to: the Exphormer input
# projection, the three default GCN layers, the two default attention layers
# and everything after the last block (pooling and the MLP head).
BLOCKS = ["input", "gcn_layer0", "gcn_layer1", "gcn_layer2", "attn_layer0",
          "attn_layer1", "head"]

END_TO_END = [
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("epoch_s_p50", "s", "lower"),
    ("batch_ms_p50", "ms", "lower"),
    ("batch_ms_p90", "ms", "lower"),
    ("eval_graphs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def _per_layer():
    rows = []
    for op in tr.OPS:
        rows += [(f"autodiff.{op}.fwd_s", "s", "lower"),
                 (f"autodiff.{op}.bwd_s", "s", "lower"),
                 (f"autodiff.{op}.calls", "count", "lower")]
    rows += [("autodiff.backward.self_s", "s", "lower"),
             ("autodiff.tape_nodes_per_graph", "count", "lower")]
    for block in BLOCKS:
        rows += [(f"models.{block}.fwd_s", "s", "lower"),
                 (f"models.{block}.bwd_s", "s", "lower")]
    rows += [("models.forward_train.s", "s", "lower"),
             ("models.forward_eval.s", "s", "lower"),
             ("models.prepare.s", "s", "lower"),
             ("models.interaction_edges_per_graph", "count", "lower"),
             ("training.train.s", "s", "lower"),
             ("training.evaluate.s", "s", "lower"),
             ("training.batches", "count", "lower"),
             ("training.divergences", "count", "lower"),
             ("optim.adam_step.s", "s", "lower"),
             ("optim.adam_step.calls", "count", "lower"),
             ("data.deserialize_dataset.s", "s", "lower"),
             ("data.drop_edges.s", "s", "lower"),
             ("data.edges_kept_ratio", "ratio", "higher"),
             ("rng.seeded_rng.s", "s", "lower"),
             ("rng.seeded_rng.calls", "count", "lower"),
             ("cli.run_cells.s", "s", "lower"),
             ("cli.write.s", "s", "lower"),
             ("src.lines", "count", "lower"),
             ("trace.overhead_s", "s", "lower"),
             ("trace.spans", "count", "lower")]
    return rows


PER_LAYER = _per_layer()

# A run's medians need several sweeps; three also give the slowest workload
# (exphormer-feature, 42 batches a sweep) over 100 batch samples, so about
# ten lie beyond batch_ms_p90.
MIN_SWEEPS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    model: str               # --model flag of the CLI
    label_mode: str
    graphs: int
    nodes: int
    data_seed: int           # dataset seed for --seed 0
    drops: tuple[float, ...]
    epochs: int
    warmup: int
    train_seeds: tuple[int, ...]
    gate: str                # "flat" (criterion 2) or "sensitive" (criterion 3)


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    "gcn-feature": Workload("residual-gcn", "feature_only", 300, 50, 7,
                            (0.0, 0.5, 1.0), 1, 0, (0,), "flat"),
    "exphormer-feature": Workload("exphormer", "feature_only", 300, 50, 7,
                                  (0.0, 0.5, 1.0), 1, 0, (0,), "flat"),
    "gcn-structure": Workload("residual-gcn", "structure_only", 500, 40, 11,
                              (0.0, 1.0), 6, 1, (0, 1, 2), "sensitive"),
}


def tiny(w: Workload) -> Workload:
    """A seconds-long shape for smoke tests; too small to learn, so no gate."""
    return dataclasses.replace(w, graphs=24, nodes=10, epochs=1, warmup=0,
                               gate="none")


# -- correctness --------------------------------------------------------------

def read_means(csv_path: Path) -> dict[float, float]:
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "dataset,p,model,mean,std":
        raise ValueError(f"unexpected header in {csv_path}: {lines[0]!r}")
    return {float(row.split(",")[1]): float(row.split(",")[3]) for row in lines[1:]}


def gate_failures(w: Workload, means: dict[float, float], num_classes: int
                  ) -> dict[float, str]:
    """Cells (by p) that miss the workload's gate, with the reason."""
    bad = {}
    if w.gate == "flat":
        for p, mean in means.items():
            if mean < 90.0:
                bad[p] = f"test accuracy {mean:.2f} < 90"
        spread = max(means.values()) - min(means.values())
        if spread > 3.0:
            for p in means:
                bad.setdefault(p, f"spread across p {spread:.2f} > 3")
    elif w.gate == "sensitive":
        chance = 100.0 / num_classes
        if means[0.0] < 80.0:
            bad[0.0] = f"p=0 test accuracy {means[0.0]:.2f} < 80"
        if means[1.0] > chance + 10.0:
            bad[1.0] = f"p=1 test accuracy {means[1.0]:.2f} > chance + 10"
    return bad


def _files(out_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def cell_key(w: Workload, p: float) -> str:
    return f"runs/dropedge_{w.model.replace('-', '_')}_p{p:.2f}.json"


class Checker:
    """Counts attempted and failed cells over every sweep of a run.

    A workload's sweeps cycle through its training seeds, one seed per sweep.
    The gate is applied to the mean over one sweep of every seed, as
    criterion 2 and 3 average over seeds. A sweep must write the same bytes
    as the first sweep with its seed.
    """

    def __init__(self, w: Workload, num_classes: int):
        self.w = w
        self.num_classes = num_classes
        self.first: dict[int, dict[str, bytes]] = {}
        self.group: dict[int, dict[float, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, cells: int, problem: str) -> None:
        self.failed += cells
        self.problems.append(problem)

    def check(self, label: str, seed: int, rc: int, out_dir: Path) -> None:
        w = self.w
        self.attempted += len(w.drops)
        if rc != 0:
            self._fail(len(w.drops), f"{label}: sweep-dropedge exited with {rc}")
            return
        means = read_means(out_dir / "dropedge.csv")
        if sorted(means) != sorted(w.drops):
            self._fail(len(w.drops), f"{label}: dropedge.csv has p values "
                                     f"{sorted(means)}, not {list(w.drops)}")
            return
        files = _files(out_dir)
        first = self.first.setdefault(seed, files)
        for p in w.drops:
            key = cell_key(w, p)
            if (files.get(key) != first.get(key)
                    or files["dropedge.csv"] != first["dropedge.csv"]):
                self._fail(1, f"{label}: p={p:.2f}: outputs differ from the "
                              f"first sweep with seed {seed}")
        self.group[seed] = means
        if len(self.group) == len(w.train_seeds):
            avg = {p: statistics.fmean(m[p] for m in self.group.values())
                   for p in w.drops}
            for p, why in gate_failures(w, avg, self.num_classes).items():
                self._fail(len(w.train_seeds), f"{label}: p={p:.2f}: {why}")
            self.group.clear()


# -- measurement --------------------------------------------------------------

def _id(spans: tr.Spans, name: str) -> int:
    """Id of a span name; a name never recorded gets an id no span carries."""
    return spans.names.index(name) if name in spans.names else -2


def e2e_samples(spans: tr.Spans, lo: int, hi: int) -> dict:
    """Epoch, batch and eval samples from spans [lo, hi) of one sweep."""
    a = spans.arrays()
    name, dur = a["name"][lo:hi], (a["end"] - a["start"])[lo:hi]
    epochs = name == _id(spans, "training.train_epoch")
    adam = np.flatnonzero(name == _id(spans, "optim.adam_step")) + lo
    # a batch ends at its adam_step and starts where the previous one ended,
    # or, for an epoch's first batch, where train_epoch (the parent) started
    parent, ends = a["parent"][adam], a["end"][adam]
    prev = np.where(np.r_[False, parent[1:] == parent[:-1]],
                    np.r_[0.0, ends[:-1]], a["start"][parent])
    return {"epoch_s": dur[epochs].tolist(),
            "batch_ms": ((ends - prev) * 1e3).tolist(),
            "eval_s": float(dur[name == _id(spans, "training.evaluate")].sum())}


def layer_metrics(t: tr.Tracer) -> dict[str, float]:
    s = t.spans
    a = s.arrays()
    dur = a["end"] - a["start"]
    self_s = tr.self_times(a["start"], a["end"], a["parent"])

    def mask(name):
        return a["name"] == _id(s, name)

    def total(name):
        return float(dur[mask(name)].sum())

    c = t.counts
    m: dict[str, float] = {}
    for op in tr.OPS:
        m[f"autodiff.{op}.fwd_s"] = total(f"autodiff.{op}.fwd")
        m[f"autodiff.{op}.bwd_s"] = total(f"autodiff.{op}.bwd")
        m[f"autodiff.{op}.calls"] = int(mask(f"autodiff.{op}.fwd").sum())
    m["autodiff.backward.self_s"] = float(self_s[mask("autodiff.backward")].sum())
    m["autodiff.tape_nodes_per_graph"] = c["tape_nodes"] / max(c["backward_calls"], 1)
    bwd = np.isin(a["name"], [i for i, n in enumerate(s.names) if n.endswith(".bwd")])
    for block in BLOCKS:
        name = f"models.{block}"
        m[f"{name}.fwd_s"] = total(name)
        m[f"{name}.bwd_s"] = float(dur[bwd & (a["block"] == _id(s, name))].sum())
    m["models.forward_train.s"] = total("models.forward_train")
    m["models.forward_eval.s"] = total("models.forward_eval")
    m["models.prepare.s"] = total("models.prepare")
    m["models.interaction_edges_per_graph"] = (
        c["prepared_edges"] / max(c["prepared_graphs"], 1))
    m["training.train.s"] = total("training.train_epoch") - total("training.evaluate")
    m["training.evaluate.s"] = total("training.evaluate")
    m["training.batches"] = int(mask("optim.adam_step").sum())
    m["training.divergences"] = c["divergences"]
    m["optim.adam_step.s"] = total("optim.adam_step")
    m["optim.adam_step.calls"] = int(mask("optim.adam_step").sum())
    m["data.deserialize_dataset.s"] = total("data.deserialize_dataset")
    m["data.drop_edges.s"] = total("data.drop_edges")
    m["data.edges_kept_ratio"] = c["edges_kept"] / max(c["edges_in"], 1)
    m["rng.seeded_rng.s"] = total("rng.seeded_rng")
    m["rng.seeded_rng.calls"] = int(mask("rng.seeded_rng").sum())
    m["cli.run_cells.s"] = total("cli.run_cells")
    m["cli.write.s"] = total("cli.write")
    m["trace.spans"] = len(s)
    return m


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def machine_facts() -> dict:
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "blas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = int(fn())
                break
    return {"cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


# -- the run ------------------------------------------------------------------

def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    dataset, config = work / "data.jsonl", work / "config.json"
    rc = cli.main(["gen-data", "--graphs", str(w.graphs), "--nodes", str(w.nodes),
                   "--classes", "2", "--label-mode", w.label_mode,
                   "--seed", str(w.data_seed + seed), "--out", str(dataset)])
    if rc != 0:
        raise RuntimeError(f"gen-data exited with {rc}")
    config.write_text(json.dumps({
        "train": {"total_epochs": w.epochs, "warmup_epochs": w.warmup},
        "drop_probabilities": list(w.drops)}), encoding="utf-8")
    checker = Checker(w, num_classes=2)
    group = len(w.train_seeds)

    def sweep(tracer: tr.Tracer, k: int) -> tuple[float, int]:
        """Run sweep k; return its wall time and the index of its first span."""
        train_seed = w.train_seeds[k % group]
        out = work / f"out{k}"
        lo = len(tracer.spans)
        t0 = time.perf_counter()
        rc = cli.main(["sweep-dropedge", "--dataset", str(dataset), "--out", str(out),
                       "--config", str(config), "--model", w.model,
                       "--seeds", str(train_seed)])
        wall = time.perf_counter() - t0
        checker.check(f"sweep {k}", train_seed, rc, out)
        if k >= group:
            shutil.rmtree(out)
        return wall, lo

    result = {"seed": seed, "data_seed": w.data_seed + seed,
              "machine": machine_facts()}
    e2e = tr.Tracer(full=False)
    if not trace:
        walls, setups, epochs, batches, eval_s = [], [], [], [], 0.0
        t_start = time.perf_counter()
        with e2e:
            # whole seed groups and at least MIN_SWEEPS sweeps, then more
            # groups until another one would overrun --seconds
            while len(walls) % group or len(walls) < MIN_SWEEPS or (
                    time.perf_counter() - t_start
                    + group * statistics.median(walls) <= seconds):
                wall, lo = sweep(e2e, len(walls))
                samples = e2e_samples(e2e.spans, lo, len(e2e.spans))
                walls.append(wall)
                setups.append(wall - sum(samples["epoch_s"]))
                epochs += samples["epoch_s"]
                batches += samples["batch_ms"]
                eval_s += samples["eval_s"]
        metrics = {
            "run_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "epoch_s_p50": statistics.median(epochs),
            "batch_ms_p50": statistics.median(batches),
            "batch_ms_p90": statistics.quantiles(batches, n=10)[-1],
            "eval_graphs_per_s": e2e.counts["eval_graphs"] / eval_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["samples"] = {"run_s": len(walls), "setup_s": len(walls),
                             "epoch_s_p50": len(epochs), "batch_ms_p50": len(batches),
                             "batch_ms_p90": len(batches),
                             "eval_graphs_per_s": e2e.counts["eval_graphs"]}
    else:
        with e2e:
            untraced = sum(sweep(e2e, k)[0] for k in range(group))
        full = tr.Tracer(full=True)
        with full:
            traced = sum(sweep(full, k)[0] for k in range(group, 2 * group))
        full.spans.save(work / "spans.npz")
        metrics = layer_metrics(full)
        metrics["src.lines"] = src_lines()
        metrics["trace.overhead_s"] = traced - untraced
        result["samples"] = {"trace.overhead_s": f"traced {traced:.3f} s - "
                                                  f"untraced {untraced:.3f} s"}
    result.update(metrics=metrics, attempted=checker.attempted,
                  failed=checker.failed, problems=checker.problems,
                  correct=checker.failed == 0)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--work", required=True, help="run directory")
    ap.add_argument("--result", required=True, help="result JSON path")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)
    result = run(w, args.seed, args.seconds, bool(args.trace), Path(args.work))
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
