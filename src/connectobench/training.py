"""Seeded training and evaluation harness.

Implements the warmup + linear-decay schedule, per-epoch metrics over all
three splits, and multi-seed experiments that corrupt a dataset copy with a
fixed edge-drop probability before training. Everything is deterministic
given the config: repeated runs produce bit-identical curves.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, backward, cross_entropy
from .data import ConnectomeGraph, Dataset, DatasetSplits, drop_edges, split_dataset
from .errors import ConfigError, ContractError, DivergenceError, EmptySplitError
from .models import (
    MODEL_KINDS,
    AttnVariantConfig,
    ExphormerConfig,
    ResidualGCNConfig,
    build_model,
)
from .optim import AdamState, adam_step, zero_grads
from .rng import seeded_rng

LR_FLOOR = 1e-6


# M_TRIM_THRESHOLD and M_MMAP_THRESHOLD in glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def pin_malloc_thresholds() -> None:
    """Fix glibc malloc's mmap threshold at 16 MiB and its trim threshold at
    64 MiB, once, for the whole calling process. glibc starts the mmap
    threshold at 128 KiB and raises it only when the process frees a larger
    mmapped block, so until then every array above 128 KiB (an Exphormer
    layer's per-edge activations) is mapped and faulted in afresh. Does
    nothing where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 0.001
    decay_per_epoch: float = 1e-5
    total_epochs: int = 100
    warmup_epochs: int = 5
    batch_size: int = 16
    seeds: tuple[int, ...] = (0, 1, 2)
    model_kind: str = "residual_gcn"
    decay_rule: str = "linear"  # "linear" subtracts per epoch; "exponential" multiplies
    gcn: ResidualGCNConfig = field(default_factory=ResidualGCNConfig)
    exphormer: ExphormerConfig = field(default_factory=ExphormerConfig)
    variant: AttnVariantConfig = field(default_factory=AttnVariantConfig)

    def __post_init__(self) -> None:
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be > 0")
        if self.decay_per_epoch < 0:
            raise ConfigError("decay_per_epoch must be >= 0")
        if not 0 <= self.warmup_epochs < self.total_epochs:
            raise ConfigError(f"need 0 <= warmup_epochs < total_epochs, got "
                              f"{self.warmup_epochs} and {self.total_epochs}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be non-empty and distinct, got {self.seeds}")
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"model_kind must be one of {MODEL_KINDS}")
        if self.decay_rule not in ("linear", "exponential"):
            raise ConfigError("decay_rule must be 'linear' or 'exponential'")
        if self.model_kind == "attn_residual_gcn":
            self.variant.width(self.gcn)


@dataclass
class EpochMetrics:
    epoch: int
    train_acc: float
    val_acc: float
    test_acc: float
    loss: float
    lr: float


@dataclass
class RunResult:
    seed: int
    metrics: list[EpochMetrics]
    best_val_epoch: int
    val_at_best: float
    test_at_best_val: float

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "best_val_epoch": self.best_val_epoch,
            "val_at_best": self.val_at_best,
            "test_at_best_val": self.test_at_best_val,
            "curves": {
                "epoch": [m.epoch for m in self.metrics],
                "train_acc": [m.train_acc for m in self.metrics],
                "val_acc": [m.val_acc for m in self.metrics],
                "test_acc": [m.test_acc for m in self.metrics],
                "loss": [m.loss for m in self.metrics],
                "lr": [m.lr for m in self.metrics],
            },
        }


@dataclass
class ExperimentResult:
    model_kind: str
    drop_p: float
    seeds: tuple[int, ...]
    runs: list[RunResult]
    mean_test: float
    std_test: float
    mean_val: float
    std_val: float

    def to_dict(self) -> dict:
        return {
            "model_kind": self.model_kind,
            "drop_p": self.drop_p,
            "seeds": list(self.seeds),
            "mean_test": self.mean_test,
            "std_test": self.std_test,
            "mean_val": self.mean_val,
            "std_val": self.std_val,
            "runs": [r.to_dict() for r in self.runs],
        }


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Learning rate at an epoch: linear warmup, then decay towards a floor."""
    if not 0 <= epoch < cfg.total_epochs:
        raise ContractError(
            f"epoch {epoch} outside [0, {cfg.total_epochs})")
    if epoch < cfg.warmup_epochs:
        # clamp: the product/divide can round one ulp above base_lr
        return min(cfg.base_lr, cfg.base_lr * (epoch + 1) / cfg.warmup_epochs)
    k = epoch - cfg.warmup_epochs + 1
    if cfg.decay_rule == "linear":
        lr = cfg.base_lr - k * cfg.decay_per_epoch
    else:
        lr = cfg.base_lr * (1.0 - cfg.decay_per_epoch) ** k
    return max(lr, min(LR_FLOOR, cfg.base_lr))


def evaluate(model, inputs, labels) -> float:
    """Accuracy percent of the eval-mode forwards over inputs.

    labels holds one label per graph the inputs carry, in the inputs' order.
    Argmax ties resolve to the lowest class index.
    """
    if not len(labels):
        raise ContractError("evaluate called with no graphs to score")
    preds = np.concatenate([np.argmax(model.forward(x, mode="eval").data, axis=1)
                            for x in inputs])
    if preds.size != len(labels):
        raise ContractError(f"{preds.size} predictions for {len(labels)} labels")
    return 100.0 * int(np.count_nonzero(preds == labels)) / len(labels)


def train_epoch(run: Run, epoch: int, rng, lr: float | None = None
                ) -> EpochMetrics:
    """One pass over the run's shuffled train graphs with mini-batch Adam
    updates, then the accuracy on every split.

    The model's forwards() splits each mini-batch into forwards. Each
    forward backpropagates its share of the batch-mean loss (its summed loss
    over the batch's graph count), so the summed gradients are the batch
    mean however the model groups the graphs. Raises DivergenceError on the
    first non-finite loss. Deterministic given (run state, rng).
    """
    model, prepared, cfg = run.model, run.prepared, run.cfg
    lr_value = lr_at(epoch, cfg) if lr is None else lr
    order = [run.splits.train[i] for i in rng.permutation(len(run.splits.train))]
    total_loss = 0.0
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start:start + cfg.batch_size]
        zero_grads(model.params)
        for chunk, inputs in model.forwards(prepared, batch, "train"):
            tape = Tape()
            logits = model.forward(inputs, mode="train", tape=tape, rng=rng)
            loss = cross_entropy(logits, [prepared[i].label for i in chunk],
                                 tape=tape, total=len(batch))
            value = loss.item()
            if not math.isfinite(value):
                raise DivergenceError(epoch, start // cfg.batch_size, value)
            total_loss += value * len(batch)
            backward(tape, loss)
        adam_step(model.params, lr_value, run.opt)
    accs = [evaluate(model, inputs, labels) for inputs, labels in run.eval_sets]
    return EpochMetrics(epoch, *accs, total_loss / max(len(order), 1), lr_value)


def corrupt(graphs: list[ConnectomeGraph], p: float, seed: int
            ) -> list[ConnectomeGraph]:
    """graphs with edges dropped at p, graph i by the seed's edge-drop stream i."""
    draws = 0.0 < p < 1.0  # drop_edges draws nothing at p=0 or p=1
    return [drop_edges(g, p, seeded_rng(seed, "edge-drop", i) if draws else None)
            for i, g in enumerate(graphs)]


class Run:
    """One seed's training of cfg's model on the dataset corrupted at drop_p:
    epoch() trains the next epoch, result() reads test-at-best-val so far.
    Pins the process's malloc thresholds first (pin_malloc_thresholds)."""

    def __init__(self, cfg: TrainConfig, dataset: Dataset, drop_p: float,
                 splits: DatasetSplits, seed: int):
        pin_malloc_thresholds()
        self.cfg, self.splits, self.seed = cfg, splits, seed
        corrupted = corrupt(dataset.graphs, drop_p, seed)
        self.model = build_model(cfg.model_kind, dataset.feature_dim,
                                 dataset.num_classes, seed, gcn_cfg=cfg.gcn,
                                 exphormer_cfg=cfg.exphormer, variant=cfg.variant)
        self.prepared = self.model.prepare_dataset(corrupted, run_seed=seed)
        self.opt = AdamState()
        self.metrics: list[EpochMetrics] = []

    @functools.cached_property
    def eval_sets(self) -> list[tuple[list, np.ndarray]]:
        """(forward inputs, labels) of the train, val and test splits, built
        on first use, in epoch 0's evaluation, and kept for the run. The
        labels follow the graph order of the model's eval forwards."""
        sets = []
        for indices in (self.splits.train, self.splits.val, self.splits.test):
            forwards = self.model.forwards(self.prepared, indices, "eval")
            sets.append(([inputs for _, inputs in forwards],
                         np.array([self.prepared[i].label
                                   for chunk, _ in forwards for i in chunk])))
        return sets

    def epoch(self) -> EpochMetrics:
        """Train the next epoch; a DivergenceError carries this run's seed."""
        epoch = len(self.metrics)
        try:
            metrics = train_epoch(self, epoch, seeded_rng(self.seed, "epoch", epoch))
        except DivergenceError as exc:
            exc.seed = self.seed
            raise
        self.metrics.append(metrics)
        return metrics

    def result(self) -> RunResult:
        best = int(np.argmax([m.val_acc for m in self.metrics]))  # earliest wins ties
        return RunResult(seed=self.seed, metrics=list(self.metrics),
                         best_val_epoch=best,
                         val_at_best=self.metrics[best].val_acc,
                         test_at_best_val=self.metrics[best].test_acc)


def aggregate_accuracy(values) -> tuple[float, float]:
    """Mean and sample standard deviation; a single value reports std 0.00."""
    arr = np.asarray(list(values), dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def run_experiment(cfg: TrainConfig, dataset: Dataset, drop_p: float,
                   splits: DatasetSplits | None = None) -> ExperimentResult:
    """Train one config across all seeds and aggregate test-at-best-val."""
    if not 0.0 <= drop_p <= 1.0:
        raise ConfigError(f"drop_p must be in [0, 1], got {drop_p}")
    if splits is None:
        splits = split_dataset(dataset.graphs, seed=0)
    for name in ("train", "val", "test"):
        if not getattr(splits, name):
            raise EmptySplitError(name, len(dataset))
    runs = []
    for seed in cfg.seeds:
        run = Run(cfg, dataset, drop_p, splits, seed)
        for _ in range(cfg.total_epochs):
            run.epoch()
        runs.append(run.result())
        del run  # the next seed's run is built without this one's graphs
    mean_test, std_test = aggregate_accuracy(r.test_at_best_val for r in runs)
    mean_val, std_val = aggregate_accuracy(r.val_at_best for r in runs)
    return ExperimentResult(model_kind=cfg.model_kind, drop_p=drop_p,
                            seeds=tuple(cfg.seeds), runs=runs,
                            mean_test=mean_test, std_test=std_test,
                            mean_val=mean_val, std_val=std_val)
