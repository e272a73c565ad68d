"""Command-line front end: dataset generation, experiment sweeps, curve export.

Subcommands: gen-data, sweep-dropedge, sweep-dropout, sweep-layers,
sweep-variants, curves. Flag values override config-file entries, which
override built-in defaults. Exit codes: 0 success, 2 config error, 3 run
divergence, 4 I/O or dataset error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .data import (
    Dataset,
    SyntheticSpec,
    dataset_to_lines,
    deserialize_dataset,
    drop_edges,
    generate_synthetic,
    serialize_dataset,
)
from .errors import ConfigError, ContractError, DatasetError, DivergenceError
from .rng import seeded_rng
from .training import TrainConfig, run_experiment

_MODEL_FLAGS = {"residual-gcn": "residual_gcn", "exphormer": "exphormer",
                "attn-residual-gcn": "attn_residual_gcn"}

_DEFAULT_VARIANTS = [("after_each_gcn", 1.0), ("after_each_gcn", 0.8),
                     ("after_each_gcn", 0.3), ("after_concat", 1.0),
                     ("after_concat", 0.6)]


@dataclass
class SweepSpec:
    """Resolved grid parameters for one sweep invocation."""

    dataset: str | dict
    out_dir: str
    models: list[str] = field(default_factory=lambda: ["residual_gcn", "exphormer"])
    drop_probabilities: list[float] = field(default_factory=lambda: [0.0, 0.5, 1.0])
    dropout_grid: list[float] = field(default_factory=lambda: [0.1, 0.3])
    attention_dropout_grid: list[float] = field(
        default_factory=lambda: [0.1, 0.3, 0.5])
    layer_counts: list[int] = field(default_factory=lambda: [2, 3])
    variants: list[tuple[str, float]] = field(
        default_factory=lambda: list(_DEFAULT_VARIANTS))

    def validate(self) -> None:
        if any(not 0.0 <= p <= 1.0 for p in self.drop_probabilities):
            raise ConfigError("drop probabilities must lie in [0, 1]")
        for grid in (self.drop_probabilities, self.dropout_grid,
                     self.attention_dropout_grid, self.layer_counts,
                     self.variants, self.models):
            if not grid:
                raise ConfigError("sweep grids must be non-empty")


def git_blob_sha1(data: bytes) -> str:
    h = hashlib.sha1()
    h.update(b"blob %d\x00" % len(data))
    h.update(data)
    return h.hexdigest()


def config_hash(cfg: TrainConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid config JSON in {path}: {exc.msg}") from exc


def _file_config(args) -> dict:
    return _load_json(args.config) if getattr(args, "config", None) else {}


def _resolve_dataset(args, config) -> tuple[Dataset, str, str, str | dict]:
    """Return (dataset, git-style content hash, display name, source)."""
    path = args.dataset or config.get("dataset")
    if path:
        raw = Path(path).read_bytes()
        return (deserialize_dataset(path, raw), git_blob_sha1(raw), Path(path).stem,
                str(path))
    spec_dict = config.get("dataset_spec")
    if spec_dict:
        ds = generate_synthetic(SyntheticSpec.from_dict(spec_dict))
        blob = ("\n".join(dataset_to_lines(ds)) + "\n").encode("utf-8")
        return ds, git_blob_sha1(blob), "synthetic", spec_dict
    raise ConfigError("no dataset: pass --dataset or a config dataset_spec")


def _train_config(args, config, model_kind: str) -> TrainConfig:
    cfg = TrainConfig.from_dict(config.get("train", {}))
    cfg.model_kind = model_kind
    if getattr(args, "epochs", None) is not None:
        cfg.total_epochs = args.epochs
    if getattr(args, "seeds", None) is not None:
        try:
            cfg.seeds = tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            raise ConfigError(f"--seeds must be comma-separated integers, "
                              f"got {args.seeds!r}") from None
    cfg.validate()
    return cfg


def _models_for_sweep(args, config) -> list[str]:
    if getattr(args, "model", None):
        return [_MODEL_FLAGS[args.model]]
    names = config.get("models")
    if names:
        return [_MODEL_FLAGS.get(m, m) for m in names]
    return ["residual_gcn", "exphormer"]


def _execute_cell(dataset: Dataset, payload: dict) -> dict:
    cfg = TrainConfig.from_dict(payload["train_config"])
    try:
        result = run_experiment(cfg, dataset, payload["drop_p"])
    except DivergenceError as exc:
        exc.cell = payload["key"]
        raise
    out = result.to_dict()
    out["key"] = payload["key"]
    return out


def _pool_worker(payload: dict) -> dict:
    source = payload["dataset_source"]
    if isinstance(source, dict):
        dataset = generate_synthetic(SyntheticSpec.from_dict(source))
    else:
        dataset = deserialize_dataset(source)
    return _execute_cell(dataset, payload)


def _run_cells(dataset: Dataset, source, cells: list[dict], workers: int
               ) -> dict[str, dict]:
    """Run independent grid cells, optionally on a process pool."""
    if workers <= 1 or len(cells) <= 1:
        results = [_execute_cell(dataset, c) for c in cells]
    else:
        for c in cells:
            c["dataset_source"] = source
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_pool_worker, cells))
    return {r["key"]: r for r in results}


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_gen_data(args) -> None:
    config = _file_config(args)
    spec_dict = dict(config.get("dataset_spec", {}))
    overrides = {
        "num_graphs": args.graphs, "n": args.nodes, "d": args.dim,
        "num_classes": args.classes, "threshold": args.threshold,
        "label_mode": args.label_mode, "noise_scale": args.noise,
        "seed": args.seed,
    }
    for key, value in overrides.items():
        if value is not None:
            spec_dict[key] = value
    spec = SyntheticSpec.from_dict(spec_dict)
    ds = generate_synthetic(spec)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    serialize_dataset(ds, out)
    print(f"graphs={len(ds)} classes={ds.num_classes} "
          f"mean_edge_density={ds.mean_edge_density():.3f}")


def cmd_sweep_dropedge(args) -> None:
    config = _file_config(args)
    dataset, ds_hash, ds_name, source = _resolve_dataset(args, config)
    sweep = SweepSpec(dataset=source, out_dir=args.out,
                      models=_models_for_sweep(args, config))
    if "drop_probabilities" in config:
        sweep.drop_probabilities = [float(p) for p in config["drop_probabilities"]]
    sweep.validate()

    out_dir = Path(args.out)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    cells = []
    for kind in sweep.models:
        cfg = _train_config(args, config, kind)
        for p in sweep.drop_probabilities:
            cells.append({
                "key": f"dropedge_{kind}_p{p:.2f}",
                "train_config": cfg.to_dict(),
                "drop_p": p,
            })
    results = _run_cells(dataset, source, cells, args.workers)

    rows = ["dataset,p,model,mean,std"]
    for p in sweep.drop_probabilities:
        if p == 1.0:
            seed = _train_config(args, config, sweep.models[0]).seeds[0]
            kept = [i for i, g in enumerate(dataset.graphs)
                    if drop_edges(g, 1.0, seeded_rng(seed, "edge-drop", i)).num_edges]
            if kept:
                raise ContractError(f"p=1.00 left edges in corrupted graph {kept[0]}")
            print(f"p=1.00: all {len(dataset)} corrupted graphs have empty "
                  f"edge sets")
        for kind in sweep.models:
            key = f"dropedge_{kind}_p{p:.2f}"
            res = results[key]
            cfg = _train_config(args, config, kind)
            extra = {
                "kind": "dropedge", "dataset": ds_name,
                "dataset_hash": ds_hash, "config_hash": config_hash(cfg),
            }
            if p == 1.0:
                extra["empty_edge_check"] = True
            payload = dict(res)
            payload.pop("key")
            payload.update(extra)
            _write_json(payload, runs_dir / f"{key}.json")
            rows.append(f"{ds_name},{p:.2f},{kind},"
                        f"{res['mean_test']:.2f},{res['std_test']:.2f}")
    _write_csv_lines(out_dir / "dropedge.csv", rows)
    print(f"wrote {out_dir / 'dropedge.csv'} ({len(rows) - 1} result rows)")


def cmd_sweep_dropout(args) -> None:
    config = _file_config(args)
    dataset, ds_hash, ds_name, source = _resolve_dataset(args, config)
    sweep = SweepSpec(dataset=source, out_dir=args.out, models=["exphormer"])
    if "dropout_grid" in config:
        sweep.dropout_grid = [float(v) for v in config["dropout_grid"]]
    if "attention_dropout_grid" in config:
        sweep.attention_dropout_grid = [
            float(v) for v in config["attention_dropout_grid"]]
    sweep.validate()

    out_dir = Path(args.out)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    base = _train_config(args, config, "exphormer")
    cells = []
    for d in sweep.dropout_grid:
        for a in sweep.attention_dropout_grid:
            cfg = dataclasses.replace(
                base, exphormer=dataclasses.replace(
                    base.exphormer, dropout=d, attention_dropout=a))
            cells.append({
                "key": f"dropout_d{d:.2f}_a{a:.2f}",
                "train_config": cfg.to_dict(),
                "drop_p": 0.0,
            })
    results = _run_cells(dataset, source, cells, args.workers)

    configs = {c["key"]: c["train_config"] for c in cells}
    header = "dropout," + ",".join(f"{a:.2f}" for a in sweep.attention_dropout_grid)
    val_rows, test_rows = [header], [header]
    for d in sweep.dropout_grid:
        vals, tests = [f"{d:.2f}"], [f"{d:.2f}"]
        for a in sweep.attention_dropout_grid:
            key = f"dropout_d{d:.2f}_a{a:.2f}"
            res = results[key]
            payload = dict(res)
            payload.pop("key")
            payload.update({"kind": "dropout", "dataset": ds_name,
                            "dataset_hash": ds_hash,
                            "config_hash": config_hash(
                                TrainConfig.from_dict(configs[key]))})
            _write_json(payload, runs_dir / f"{key}.json")
            vals.append(f"{res['mean_val']:.2f}")
            tests.append(f"{res['mean_test']:.2f}")
        val_rows.append(",".join(vals))
        test_rows.append(",".join(tests))
    _write_csv_lines(out_dir / "dropout_val.csv", val_rows)
    _write_csv_lines(out_dir / "dropout_test.csv", test_rows)
    print(f"wrote {out_dir / 'dropout_val.csv'} and dropout_test.csv "
          f"({len(sweep.dropout_grid) * len(sweep.attention_dropout_grid)} cells)")


def cmd_sweep_layers(args) -> None:
    config = _file_config(args)
    dataset, ds_hash, ds_name, source = _resolve_dataset(args, config)
    sweep = SweepSpec(dataset=source, out_dir=args.out, models=["exphormer"])
    if "layer_counts" in config:
        sweep.layer_counts = [int(v) for v in config["layer_counts"]]
    sweep.validate()

    out_dir = Path(args.out)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    base = _train_config(args, config, "exphormer")
    cells = []
    for layers in sweep.layer_counts:
        cfg = dataclasses.replace(
            base, exphormer=dataclasses.replace(base.exphormer,
                                                num_layers=layers))
        cells.append({"key": f"layers_{layers}",
                      "train_config": cfg.to_dict(), "drop_p": 0.0})
    results = _run_cells(dataset, source, cells, args.workers)

    configs = {c["key"]: c["train_config"] for c in cells}
    rows = ["layers,val,test,val_std,test_std"]
    for layers in sweep.layer_counts:
        key = f"layers_{layers}"
        res = results[key]
        payload = dict(res)
        payload.pop("key")
        payload.update({"kind": "layers", "dataset": ds_name,
                        "dataset_hash": ds_hash,
                        "config_hash": config_hash(
                            TrainConfig.from_dict(configs[key]))})
        _write_json(payload, runs_dir / f"layers_{layers}.json")
        rows.append(f"{layers},{res['mean_val']:.2f},{res['mean_test']:.2f},"
                    f"{res['std_val']:.2f},{res['std_test']:.2f}")
    _write_csv_lines(out_dir / "layers.csv", rows)
    print(f"wrote {out_dir / 'layers.csv'} ({len(sweep.layer_counts)} rows)")


def cmd_sweep_variants(args) -> None:
    config = _file_config(args)
    dataset, ds_hash, ds_name, source = _resolve_dataset(args, config)
    sweep = SweepSpec(dataset=source, out_dir=args.out,
                      models=["attn_residual_gcn"])
    if "variants" in config:
        sweep.variants = [(str(p), float(q)) for p, q in config["variants"]]
    sweep.validate()

    out_dir = Path(args.out)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    base = _train_config(args, config, "attn_residual_gcn")
    cells = []
    for placement, prob in sweep.variants:
        cfg = dataclasses.replace(
            base, variant=dataclasses.replace(base.variant, placement=placement,
                                              apply_probability=prob))
        cells.append({"key": f"variant_{placement}_p{prob:.2f}",
                      "train_config": cfg.to_dict(), "drop_p": 0.0})
    results = _run_cells(dataset, source, cells, args.workers)

    configs = {c["key"]: c["train_config"] for c in cells}
    rows = ["placement,probability,val,test"]
    for placement, prob in sweep.variants:
        key = f"variant_{placement}_p{prob:.2f}"
        res = results[key]
        payload = dict(res)
        payload.pop("key")
        payload.update({"kind": "variants", "dataset": ds_name,
                        "dataset_hash": ds_hash,
                        "config_hash": config_hash(
                            TrainConfig.from_dict(configs[key]))})
        _write_json(payload, runs_dir / f"{key}.json")
        rows.append(f"{placement},{prob:.2f},{res['mean_val']:.2f},"
                    f"{res['mean_test']:.2f}")
    _write_csv_lines(out_dir / "variants.csv", rows)
    print(f"wrote {out_dir / 'variants.csv'} ({len(sweep.variants)} rows)")


def cmd_curves(args) -> None:
    run_path = Path(args.run)
    if not run_path.exists():
        raise FileNotFoundError(f"run file not found: {run_path}")
    with open(run_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for run in payload["runs"]:
        curves = run["curves"]
        lines = ["epoch,split,accuracy,loss,lr"]
        for i, epoch in enumerate(curves["epoch"]):
            for split_name, series in (("train", "train_acc"), ("val", "val_acc"),
                                       ("test", "test_acc")):
                lines.append(f"{epoch},{split_name},{curves[series][i]:.4f},"
                             f"{curves['loss'][i]:.6f},{curves['lr'][i]:.8f}")
        _write_csv_lines(out_dir / f"curves_seed{run['seed']}.csv", lines)
        gap = curves["train_acc"][-1] - curves["test_acc"][-1]
        print(f"seed {run['seed']}: final train-test gap = {gap:.2f}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="connectobench",
        description="Edge-drop robustness benchmark for graph classifiers")
    sub = parser.add_subparsers(dest="command")

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--dataset", help="path to a JSON-Lines dataset")
    shared.add_argument("--model", choices=sorted(_MODEL_FLAGS),
                        help="restrict the sweep to one model")
    shared.add_argument("--seeds", help="comma-separated seeds, e.g. 0,1,2")
    shared.add_argument("--epochs", type=int, help="override total epochs")
    shared.add_argument("--out", required=True, help="output directory")
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--workers", type=int, default=1,
                        help="parallel grid cells (default 1)")

    gen = sub.add_parser("gen-data", help="generate a synthetic dataset")
    gen.add_argument("--graphs", type=int)
    gen.add_argument("--nodes", type=int)
    gen.add_argument("--dim", type=int)
    gen.add_argument("--classes", type=int)
    gen.add_argument("--label-mode", choices=["feature_only", "structure_only",
                                              "mixed"])
    gen.add_argument("--threshold", type=float)
    gen.add_argument("--noise", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True, help="output dataset file")
    gen.add_argument("--config", help="JSON config file")
    gen.set_defaults(func=cmd_gen_data)

    for name, func in (("sweep-dropedge", cmd_sweep_dropedge),
                       ("sweep-dropout", cmd_sweep_dropout),
                       ("sweep-layers", cmd_sweep_layers),
                       ("sweep-variants", cmd_sweep_variants)):
        p = sub.add_parser(name, parents=[shared],
                           help=f"run the {name.split('-', 1)[1]} grid")
        p.set_defaults(func=func)

    curves = sub.add_parser("curves", help="export per-epoch curves from a run")
    curves.add_argument("--run", required=True, help="run JSON emitted by a sweep")
    curves.add_argument("--out", required=True, help="output directory")
    curves.set_defaults(func=cmd_curves)
    return parser


def main(argv=None) -> int:
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
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
