"""Command-line front end: dataset generation, experiment sweeps, curve export.

Subcommands: gen-data, sweep-dropedge (the one sweep with --model),
sweep-dropout, sweep-layers, sweep-variants, curves. Flag values override
config-file entries, which override built-in defaults. A config file holds
only dataset, dataset_spec, train (without model_kind) and the _GRIDS keys.
Exit codes: 0 success, 2 config error (a width numpy cannot allocate
included), 3 run divergence, 4 I/O or dataset error or a broken contract
(such as p=1 leaving an edge), 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import _same_json_type, from_json
from .data import (
    Dataset,
    SyntheticSpec,
    dataset_bytes,
    deserialize_dataset,
    generate_synthetic,
    git_blob_sha1,
    serialize_dataset,
)
from .errors import ConfigError, ContractError, DatasetError, DivergenceError
from .models import MODEL_KINDS
from .training import TrainConfig, corrupt, pin_malloc_thresholds, run_experiment

_MODEL_FLAGS = {k.replace("_", "-"): k for k in MODEL_KINDS}

# Every grid key a config file may hold, by sweep, with its default grid.
_GRIDS = {
    "models": ["residual_gcn", "exphormer"], "drop_probabilities": [0.0, 0.5, 1.0],
    "dropout_grid": [0.1, 0.3], "attention_dropout_grid": [0.1, 0.3, 0.5],
    "layer_counts": [2, 3],
    "variants": [("after_each_gcn", 1.0), ("after_each_gcn", 0.8),
                 ("after_each_gcn", 0.3), ("after_concat", 1.0), ("after_concat", 0.6)]}


def config_hash(cfg: TrainConfig) -> str:
    canonical = json.dumps(dataclasses.asdict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _finite_number(text: str, parse=float):
    """A JSON number read by parse; NaN, Infinity and 1e400 raise ValueError."""
    if not math.isfinite(float(text)):
        raise ValueError(f"not a finite float64: {text}")
    return parse(text)


def _file_config(args) -> dict:
    if not args.config:
        return {}
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh, parse_float=_finite_number,
                               parse_constant=_finite_number,
                               parse_int=lambda text: _finite_number(text, int))
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors too
        raise ConfigError(f"invalid config JSON in {args.config}: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object, "
                          f"got {type(config).__name__}")
    unknown = sorted(set(config) - {"dataset", "dataset_spec", "train", *_GRIDS})
    if unknown:
        raise ConfigError(f"unknown key(s) in config file {args.config}: "
                          f"{', '.join(unknown)}")
    return config


def _resolve_dataset(args, config) -> tuple[Dataset, str, str]:
    """Return (dataset, git-style content hash, display name)."""
    key, path = "--dataset", args.dataset
    if path is None:
        key, path = "config key dataset", config.get("dataset")
    if path is not None:
        if not isinstance(path, str) or not path:
            raise ConfigError(f"{key} must be a path, got {path!r}")
        blob_sha1 = hashlib.sha1()
        ds = deserialize_dataset(path, blob_sha1)
        return ds, blob_sha1.hexdigest(), Path(path).stem
    spec_dict = config.get("dataset_spec")
    if spec_dict is not None:
        ds = generate_synthetic(from_json(SyntheticSpec, spec_dict, "dataset_spec"))
        return ds, git_blob_sha1(dataset_bytes(ds)), "synthetic"
    raise ConfigError("no dataset: pass --dataset or a config dataset_spec")


def _train_config(args, config, model_kind: str) -> TrainConfig:
    """The file's train block with the sweep's model kind, --epochs and --seeds."""
    train = config.get("train", {})
    if isinstance(train, dict) and "model_kind" in train:
        raise ConfigError("train.model_kind cannot be set in a config file: "
                          "each sweep picks its models")
    overrides = {"model_kind": model_kind}
    if getattr(args, "epochs", None) is not None:
        overrides["total_epochs"] = args.epochs
    if getattr(args, "seeds", None) is not None:
        try:
            overrides["seeds"] = tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            raise ConfigError(f"--seeds must be comma-separated integers, "
                              f"got {args.seeds!r}") from None
    return from_json(TrainConfig, train, "train", **overrides)


def _typed(default):
    """A grid value converter that takes only values of default's JSON type
    (see config._same_json_type) and returns them as default's type."""
    def convert(value):
        if not _same_json_type(value, default):
            raise TypeError(f"{value!r} is not of the type of {default!r}")
        return type(default)(value)
    return convert


def _grid(config, key: str, convert) -> list:
    """The config's `key` list, or _GRIDS[key], each value passed through
    convert. Another value, a rejected entry or an empty list is a ConfigError."""
    values = config.get(key)
    values = _GRIDS[key] if values is None else values
    if not isinstance(values, list) or not values:
        raise ConfigError(f"the {key} grid must be a non-empty JSON list, "
                          f"got {values!r}")
    try:
        return [convert(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key} grid {values!r}: {exc}") from None


def _stats(res: dict, *names: str) -> str:
    return ",".join(f"{res[name]:.2f}" for name in names)


def _with(base: TrainConfig, part: str, **changes) -> TrainConfig:
    """base with fields of its nested config `part` replaced."""
    return dataclasses.replace(
        base, **{part: dataclasses.replace(getattr(base, part), **changes)})


def _variant(value) -> tuple[str, float]:
    placement, probability = value
    return _typed("")(placement), _typed(0.0)(probability)


def _model_kind(name) -> str:
    names = sorted({*_MODEL_FLAGS, *MODEL_KINDS})  # --model values and kinds
    if name not in names:
        raise ValueError(f"{name!r} is not a model; use one of {', '.join(names)}")
    return _MODEL_FLAGS.get(name, name)


def _dropedge_grid(args, config):
    models = [_MODEL_FLAGS[args.model]] if args.model else _grid(
        config, "models", _model_kind)
    probs = _grid(config, "drop_probabilities", _typed(0.0))
    if any(not 0.0 <= p <= 1.0 for p in probs):
        raise ConfigError("drop probabilities must lie in [0, 1]")
    key = "dropedge_{}_p{:.2f}".format
    cells = []
    for kind in models:
        cfg = _train_config(args, config, kind)
        cells += [(key(kind, p), cfg, p) for p in probs]

    def report(results, ds_name):
        rows = [f"{ds_name},{p:.2f},{kind},"
                + _stats(results[key(kind, p)], "mean_test", "std_test")
                for p in probs for kind in models]
        return ({"dropedge.csv": ["dataset,p,model,mean,std"] + rows},
                f"({len(rows)} result rows)")
    return cells, report


def _dropout_grid(args, config):
    base = _train_config(args, config, "exphormer")
    drops = _grid(config, "dropout_grid", _typed(0.0))
    attns = _grid(config, "attention_dropout_grid", _typed(0.0))
    key = "dropout_d{:.2f}_a{:.2f}".format
    cells = [(key(d, a), _with(base, "exphormer", dropout=d, attention_dropout=a),
              0.0) for d in drops for a in attns]

    def report(results, ds_name):
        header = "dropout," + ",".join(f"{a:.2f}" for a in attns)
        tables = {}
        for name, stat in (("dropout_val.csv", "mean_val"),
                           ("dropout_test.csv", "mean_test")):
            tables[name] = [header] + [
                ",".join([f"{d:.2f}"] + [_stats(results[key(d, a)], stat)
                                         for a in attns])
                for d in drops]
        return tables, f"and dropout_test.csv ({len(cells)} cells)"
    return cells, report


def _layers_grid(args, config):
    base = _train_config(args, config, "exphormer")
    counts = _grid(config, "layer_counts", _typed(0))
    cells = [(f"layers_{n}", _with(base, "exphormer", num_layers=n), 0.0)
             for n in counts]

    def report(results, ds_name):
        rows = [f"{n}," + _stats(results[f"layers_{n}"], "mean_val", "mean_test",
                                 "std_val", "std_test") for n in counts]
        return ({"layers.csv": ["layers,val,test,val_std,test_std"] + rows},
                f"({len(rows)} rows)")
    return cells, report


def _variants_grid(args, config):
    base = _train_config(args, config, "attn_residual_gcn")
    variants = _grid(config, "variants", _variant)
    key = "variant_{}_p{:.2f}".format
    cells = [(key(place, prob), _with(base, "variant", placement=place,
                                      apply_probability=prob), 0.0)
             for place, prob in variants]

    def report(results, ds_name):
        rows = [f"{place},{prob:.2f},"
                + _stats(results[key(place, prob)], "mean_val", "mean_test")
                for place, prob in variants]
        return ({"variants.csv": ["placement,probability,val,test"] + rows},
                f"({len(rows)} rows)")
    return cells, report


# Sweep name -> grid builder. A builder returns the grid's cells, as
# (key, TrainConfig, drop_p), and a report that turns {key: result} and the
# dataset name into ({CSV file name: lines}, the tail of the summary line).
_SWEEPS = {"dropedge": _dropedge_grid, "dropout": _dropout_grid,
           "layers": _layers_grid, "variants": _variants_grid}


def _execute_cell(dataset: Dataset, payload: dict) -> dict:
    try:
        result = run_experiment(payload["cfg"], dataset, payload["drop_p"])
    except DivergenceError as exc:
        exc.cell = payload["key"]
        raise
    return result.to_dict()


_worker_dataset: Dataset | None = None  # set in each pool worker by _init_worker


def _init_worker(dataset: Dataset) -> None:
    global _worker_dataset
    _worker_dataset = dataset


def _pool_worker(payload: dict) -> dict:
    return _execute_cell(_worker_dataset, payload)


def _run_cells(dataset: Dataset, cells: list[dict], workers: int
               ) -> dict[str, dict]:
    """Run independent grid cells, optionally on a process pool whose workers
    each receive the parsed dataset once. The pool starts all its processes
    up front, so it gets no more of them than there are cells."""
    if workers <= 1 or len(cells) <= 1:
        results = [_execute_cell(dataset, c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(cells)),
                                 initializer=_init_worker,
                                 initargs=(dataset,)) as pool:
            results = list(pool.map(_pool_worker, cells))
    return {c["key"]: r for c, r in zip(cells, results)}


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_gen_data(args) -> None:
    config = _file_config(args)
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(SyntheticSpec)}
    spec = from_json(SyntheticSpec, config.get("dataset_spec", {}), "dataset_spec",
                     **{k: v for k, v in flags.items() if v is not None})
    ds = generate_synthetic(spec)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    serialize_dataset(ds, out)
    print(f"graphs={len(ds)} classes={ds.num_classes} "
          f"mean_edge_density={ds.mean_edge_density():.3f}")


def cmd_sweep(args) -> None:
    """Run one sweep grid: check that no two cells share a key and the p=1
    contract, train its cells, then write one run JSON per cell and the
    grid's CSV tables. Each cell's config checked itself when it was built."""
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    config = _file_config(args)
    cells, report = _SWEEPS[args.sweep](args, config)
    keys = [key for key, _, _ in cells]
    for i, key in enumerate(keys):
        if key in keys[:i]:  # the two cells would write one run JSON and CSV row
            raise ConfigError(f"two grid cells share the key {key}")
    dataset, ds_hash, ds_name = _resolve_dataset(args, config)
    out_dir = Path(args.out)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    emptied = [cfg.seeds[0] for _, cfg, p in cells if p == 1.0]
    if emptied:  # the p=1 contract: the edge-drop stream empties every graph
        kept = [i for i, g in enumerate(corrupt(dataset.graphs, 1.0, emptied[0]))
                if g.num_edges]
        if kept:
            raise ContractError(f"p=1.00 left edges in corrupted graph {kept[0]}")
        print(f"p=1.00: all {len(dataset)} corrupted graphs have empty edge sets")
    results = _run_cells(dataset, [
        {"key": key, "cfg": cfg, "drop_p": p}
        for key, cfg, p in cells], args.workers)
    for key, cfg, p in cells:
        payload = dict(results[key], kind=args.sweep, dataset=ds_name,
                       dataset_hash=ds_hash, config_hash=config_hash(cfg))
        if p == 1.0:
            payload["empty_edge_check"] = True
        _write_json(payload, runs_dir / f"{key}.json")
    tables, tail = report(results, ds_name)
    for name, lines in tables.items():
        _write_csv_lines(out_dir / name, lines)
    print(f"wrote {out_dir / next(iter(tables))} {tail}")


def _curve_table(run: dict) -> tuple[int, list[str], float]:
    """(seed, CSV lines, final train-test gap) of one run's curves."""
    if type(run["seed"]) is not int:  # it names the CSV file
        raise TypeError(f"seed {run['seed']!r} is not a JSON integer")
    curves = run["curves"]
    names = ("epoch", "train_acc", "val_acc", "test_acc", "loss", "lr")
    series = [curves[name] for name in names]
    if len({len(s) for s in series}) != 1:
        raise ValueError(f"curve series lengths {[len(s) for s in series]} differ")
    for name, values in zip(names[1:], series[1:]):
        for value in values:
            if type(value) not in (int, float):  # true would print as 1.0000
                raise TypeError(f"{name} value {value!r} is not a JSON number")
    lines = ["epoch,split,accuracy,loss,lr"]
    for epoch, *accs, loss, lr in zip(*series):
        if type(epoch) is not int:  # it starts a CSV row
            raise TypeError(f"epoch {epoch!r} is not a JSON integer")
        lines += [f"{epoch},{split},{acc:.4f},{loss:.6f},{lr:.8f}"
                  for split, acc in zip(("train", "val", "test"), accs)]
    return run["seed"], lines, curves["train_acc"][-1] - curves["test_acc"][-1]


def cmd_curves(args) -> None:
    run_path = Path(args.run)
    raw = run_path.read_bytes()
    try:
        tables = [_curve_table(run) for run in json.loads(raw)["runs"]]
        seeds = [seed for seed, _, _ in tables]
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"seeds {seeds} repeat, so their CSV files collide")
    except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
        raise DatasetError(f"malformed run JSON {run_path}: "
                           f"{type(exc).__name__}: {exc}") from None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # a name the file system refuses must leave out_dir as it was
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=".curves-") as tmp:
        for seed, lines, _ in tables:
            _write_csv_lines(Path(tmp, f"curves_seed{seed}.csv"), lines)
        for name in os.listdir(tmp):
            os.replace(Path(tmp, name), out_dir / name)
    for seed, _, gap in tables:
        print(f"seed {seed}: final train-test gap = {gap:.2f}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="connectobench",
        description="Edge-drop robustness benchmark for graph classifiers")
    sub = parser.add_subparsers(dest="command")

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--dataset", help="path to a JSON-Lines dataset")
    shared.add_argument("--seeds", help="comma-separated seeds, e.g. 0,1,2")
    shared.add_argument("--epochs", type=int, help="override total epochs")
    shared.add_argument("--out", required=True, help="output directory")
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--workers", type=int, default=1,
                        help="parallel grid cells (default 1)")

    gen = sub.add_parser("gen-data", help="generate a synthetic dataset")
    # each dest is a SyntheticSpec field, which the flag overrides
    gen.add_argument("--graphs", type=int, dest="num_graphs", metavar="GRAPHS")
    gen.add_argument("--nodes", type=int, dest="n", metavar="NODES")
    gen.add_argument("--dim", type=int, dest="d", metavar="DIM")
    gen.add_argument("--classes", type=int, dest="num_classes", metavar="CLASSES")
    gen.add_argument("--label-mode", choices=["feature_only", "structure_only",
                                              "mixed"])
    gen.add_argument("--threshold", type=float)
    gen.add_argument("--noise", type=float, dest="noise_scale", metavar="NOISE")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True, help="output dataset file")
    gen.add_argument("--config", help="JSON config file")
    gen.set_defaults(func=cmd_gen_data)

    for name in _SWEEPS:
        p = sub.add_parser(f"sweep-{name}", parents=[shared],
                           help=f"run the {name} grid")
        p.set_defaults(func=cmd_sweep, sweep=name)
        if name == "dropedge":
            p.add_argument("--model", choices=sorted(_MODEL_FLAGS),
                           help="restrict the sweep to one model")

    curves = sub.add_parser("curves", help="export per-epoch curves from a run")
    curves.add_argument("--run", required=True, help="run JSON emitted by a sweep")
    curves.add_argument("--out", required=True, help="output directory")
    curves.set_defaults(func=cmd_curves)
    return parser


def main(argv=None) -> int:
    pin_malloc_thresholds()
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        args.func(args)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"run diverged: {exc}", file=sys.stderr)
        return 3
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 4
    except ContractError as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
