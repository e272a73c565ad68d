"""Schedule, epoch training, evaluation, and multi-seed experiments."""

import collections
import ctypes
import dataclasses
import gc
import hashlib
import math
import os
import pickle
import subprocess
import sys
import weakref

import numpy as np
import pytest

from connectobench import (
    ConfigError,
    ContractError,
    Dataset,
    DivergenceError,
    EmptySplitError,
    ExphormerConfig,
    ResidualGCNConfig,
    Run,
    SyntheticSpec,
    Tape,
    TrainConfig,
    aggregate_accuracy,
    backward,
    cross_entropy,
    evaluate,
    generate_synthetic,
    lr_at,
    run_experiment,
    split_dataset,
    train_epoch,
)
from connectobench import models, training
from connectobench.data import dataset_bytes, drop_edges, graphs_equal
from connectobench.optim import AdamState, adam_step, zero_grads
from connectobench.rng import seeded_rng

from helpers import raw_index_prep


def small_dataset(num_graphs=40, n=10, seed=5, mode="feature_only"):
    return generate_synthetic(SyntheticSpec(num_graphs=num_graphs, n=n,
                                            num_classes=2, label_mode=mode,
                                            seed=seed))


def small_config(**kw):
    defaults = dict(total_epochs=4, warmup_epochs=1, seeds=(0,),
                    model_kind="residual_gcn",
                    gcn=ResidualGCNConfig(num_gcn_layers=2, hidden_dim=8,
                                          mlp_hidden=8))
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestLrSchedule:
    def test_paper_constants(self):
        cfg = TrainConfig()
        assert lr_at(4, cfg) == pytest.approx(0.001, abs=1e-15)
        assert lr_at(0, cfg) == pytest.approx(0.0002, abs=1e-15)
        assert lr_at(99, cfg) == pytest.approx(5.0e-5, abs=1e-12)

    def test_out_of_range(self):
        cfg = TrainConfig()
        with pytest.raises(ContractError):
            lr_at(-1, cfg)
        with pytest.raises(ContractError):
            lr_at(100, cfg)

    def test_monotone_and_bounded_random_configs(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            total = int(rng.integers(2, 200))
            cfg = TrainConfig(
                base_lr=float(10 ** rng.uniform(-5, -1)),
                decay_per_epoch=float(10 ** rng.uniform(-8, -3)),
                total_epochs=total,
                warmup_epochs=int(rng.integers(0, total)),
            )
            lrs = [lr_at(e, cfg) for e in range(cfg.total_epochs)]
            warm = lrs[:cfg.warmup_epochs]
            rest = lrs[cfg.warmup_epochs:]
            assert all(b >= a for a, b in zip(warm, warm[1:]))
            assert all(b <= a for a, b in zip(rest, rest[1:]))
            assert all(0.0 < lr <= cfg.base_lr for lr in lrs)

    def test_exponential_rule(self):
        cfg = TrainConfig(decay_rule="exponential", decay_per_epoch=0.1,
                          warmup_epochs=1, total_epochs=4)
        assert lr_at(1, cfg) == pytest.approx(0.001 * 0.9)
        assert lr_at(2, cfg) == pytest.approx(0.001 * 0.81)

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            TrainConfig(base_lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(warmup_epochs=100, total_epochs=100)
        with pytest.raises(ConfigError):
            TrainConfig(seeds=())
        with pytest.raises(ConfigError):
            TrainConfig(model_kind="mlp")

    @pytest.mark.parametrize("block,field", [("gcn", "dropout"),
                                             ("exphormer", "dropout"),
                                             ("variant", "attention_dropout")])
    def test_every_nested_block_is_validated(self, block, field):
        # each block checks itself when it is built, whatever the model kind,
        # so a sweep's cell configs are all checked before any cell trains
        cfg = TrainConfig(model_kind="residual_gcn")
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(getattr(cfg, block), **{field: 1.5})


class TestTrainEpoch:
    def test_zero_lr_leaves_params_bit_identical(self):
        ds = small_dataset()
        run = Run(small_config(), ds, 0.0, split_dataset(ds.graphs, seed=0), 0)
        before = {k: p.data.copy() for k, p in run.model.params.items()}
        train_epoch(run, 0, seeded_rng(0, "epoch", 0), lr=0.0)
        for k, p in run.model.params.items():
            assert np.array_equal(p.data, before[k])

    def test_same_seed_identical_metrics(self):
        ds = small_dataset()
        splits = split_dataset(ds.graphs, seed=0)
        cfg = small_config()
        assert Run(cfg, ds, 0.0, splits, 3).epoch() == Run(cfg, ds, 0.0, splits, 3).epoch()

    def test_feature_task_learnable(self):
        ds = generate_synthetic(SyntheticSpec(num_graphs=300, n=30,
                                              num_classes=2,
                                              label_mode="feature_only",
                                              seed=12))
        cfg = small_config(total_epochs=20, warmup_epochs=2)
        run = Run(cfg, ds, 0.0, split_dataset(ds.graphs, seed=0), 0)
        for _ in range(cfg.total_epochs):
            metrics = run.epoch()
        assert metrics.train_acc >= 90.0

    def test_divergence_reports_epoch_and_batch(self):
        ds = small_dataset()
        cfg = small_config(batch_size=4)
        run = Run(cfg, ds, 0.0, split_dataset(ds.graphs, seed=0), 0)
        with pytest.raises(DivergenceError, match="epoch"), \
                np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(cfg.total_epochs):
                train_epoch(run, epoch, seeded_rng(0, "epoch", epoch), lr=1e120)

    def test_unequal_training_forwards_are_a_contract_error(self, monkeypatch):
        ds = small_dataset()
        run = Run(small_config(batch_size=3), ds, 0.0,
                  split_dataset(ds.graphs, seed=0), 0)
        before = {k: p.data.copy() for k, p in run.model.params.items()}
        model = run.model

        def forwards(prepared, indices, mode):  # chunks of 2 and 1
            return [(c, model.collate([prepared[i] for i in c]))
                    for c in (indices[:2], indices[2:]) if c]
        monkeypatch.setattr(model, "forwards", forwards)
        with pytest.raises(ContractError, match=r"\[2, 1\] graphs"):
            train_epoch(run, 0, seeded_rng(0, "epoch", 0))
        for k, p in model.params.items():
            assert np.array_equal(p.data, before[k])


def _per_graph_epoch(model, prepared, splits, cfg, opt, rng, lr):
    """Reference training pass: one forward and backward per graph, summed
    gradients averaged over the mini-batch. Returns the mean training loss."""
    order = [splits.train[i] for i in rng.permutation(len(splits.train))]
    total = 0.0
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start:start + cfg.batch_size]
        zero_grads(model.params)
        for gi in batch:
            tape = Tape()
            logits = model.forward(prepared[gi], mode="train", tape=tape, rng=rng)
            loss = cross_entropy(logits, [prepared[gi].label], tape=tape)
            total += loss.item()
            backward(tape, loss)
        inv = 1.0 / len(batch)
        for p in model.params.values():
            if p.grad is not None:
                p.grad *= inv
        adam_step(model.params, lr, opt)
    return total / len(order)


def _train_forwards(run):
    """A list that gets the training forwards of each mini-batch of run."""
    held, forwards = [], run.model.forwards

    def recording(prepared, indices, mode):
        out = forwards(prepared, indices, mode)
        if mode == "train":
            held.append(out)
        return out
    run.model.forwards = recording
    return held


class TestExphormerEpoch:
    def test_matches_per_graph_reference_bit_exact(self):
        # batches of 7 graphs are odd, so each trains one graph a forward
        ds = small_dataset(num_graphs=30, n=8)
        splits = split_dataset(ds.graphs, seed=0)
        cfg = small_config(model_kind="exphormer", batch_size=7,
                           exphormer=ExphormerConfig(num_layers=1, num_heads=2,
                                                     hidden_dim=8,
                                                     expander_degree=2))
        run = Run(cfg, ds, 0.0, splits, 4)
        metrics = train_epoch(run, 2, seeded_rng(4, "epoch", 2))
        ref = Run(cfg, ds, 0.0, splits, 4)
        ref_loss = _per_graph_epoch(ref.model, ref.prepared, splits, cfg,
                                    AdamState(), seeded_rng(4, "epoch", 2),
                                    lr_at(2, cfg))
        assert metrics.loss == ref_loss
        for name, p in run.model.params.items():
            assert np.array_equal(p.data, ref.model.params[name].data), name

    def test_pairs_match_per_graph_reference(self):
        """Without dropout, an epoch in pairs of graphs takes the per-graph
        epoch's steps up to rounding."""
        ds = small_dataset(num_graphs=30, n=8)
        splits = split_dataset(ds.graphs, seed=0)
        cfg = small_config(model_kind="exphormer", batch_size=8,
                           exphormer=ExphormerConfig(
                               num_layers=2, num_heads=2, hidden_dim=8,
                               expander_degree=2, dropout=0.0,
                               attention_dropout=0.0))
        run, ref = (Run(cfg, ds, 0.0, splits, 4) for _ in range(2))
        held = _train_forwards(run)
        metrics = train_epoch(run, 2, seeded_rng(4, "epoch", 2))
        assert {len(chunk) for fw in held for chunk, _ in fw} == {2}
        ref_loss = _per_graph_epoch(ref.model, ref.prepared, splits, cfg,
                                    AdamState(), seeded_rng(4, "epoch", 2),
                                    lr_at(2, cfg))
        assert metrics.loss == pytest.approx(ref_loss, rel=1e-12)
        for name, p in run.model.params.items():
            assert np.allclose(p.data, ref.model.params[name].data,
                               rtol=0, atol=1e-12), name

    def test_odd_and_mixed_size_batches_train_one_graph_a_forward(self):
        small, large = (generate_synthetic(SyntheticSpec(
            num_graphs=10, n=n, d=8, num_classes=2, seed=n)).graphs for n in (8, 12))
        ds = Dataset(small + large, 2)
        splits = split_dataset(ds.graphs, seed=0)
        cfg = small_config(model_kind="exphormer", batch_size=5,
                           exphormer=ExphormerConfig(num_layers=1, num_heads=2,
                                                     hidden_dim=8,
                                                     expander_degree=2))
        run = Run(cfg, ds, 0.0, splits, 0)
        held = _train_forwards(run)
        assert math.isfinite(train_epoch(run, 0, seeded_rng(0, "epoch", 0)).loss)
        assert [len(chunk) for fw in held for chunk, _ in fw] \
            == [1] * len(splits.train)

    def test_prebuilt_plans_match_raw_ids_bit_exact(self):
        ds = small_dataset(num_graphs=30, n=8)
        splits = split_dataset(ds.graphs, seed=0)
        cfg = small_config(model_kind="exphormer", batch_size=8,
                           exphormer=ExphormerConfig(num_layers=2, num_heads=2,
                                                     hidden_dim=8,
                                                     expander_degree=2))
        runs = []
        for rebuild in (False, True):
            run = Run(cfg, ds, 0.0, splits, 4)
            if rebuild:
                run.prepared = [raw_index_prep(p) for p in run.prepared]
            metrics = train_epoch(run, 2, seeded_rng(4, "epoch", 2))
            runs.append((metrics, run.model.params))
        (m0, p0), (m1, p1) = runs
        assert m0 == m1
        for name in p0:
            assert p0[name].data.tobytes() == p1[name].data.tobytes(), name


class _FixedLogitModel:
    """Stub whose forward input is a graph index, or a list of them for a
    batch, and whose output is those graphs' pre-chosen logits."""

    def __init__(self, logits):
        self.logits = logits

    def forward(self, graphs, mode="eval", tape=None, rng=None):
        from connectobench import Tensor
        return Tensor(self.logits[np.atleast_1d(graphs)])


class TestEvaluate:
    def test_all_correct(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        model = _FixedLogitModel(logits)
        assert evaluate(model, [0, 1], [0, 1]) == 100.0

    def test_constant_logits_hit_chance_on_balanced_split(self):
        # constant logits predict class 0 everywhere (argmax tie -> lowest)
        logits = np.zeros((10, 2))
        model = _FixedLogitModel(logits)
        labels = [i % 2 for i in range(10)]
        assert evaluate(model, [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]], labels) == 50.0

    def test_two_of_three(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        model = _FixedLogitModel(logits)
        acc = evaluate(model, [[0, 1], 2], [0, 1, 1])
        assert abs(acc - 66.67) < 0.01

    def test_empty_indices(self):
        with pytest.raises(ContractError):
            evaluate(_FixedLogitModel(np.zeros((1, 2))), [], [])

    @pytest.mark.parametrize("labels", [[0], [0, 1, 1]])
    def test_one_label_per_scored_graph(self, labels):
        with pytest.raises(ContractError, match="predictions for"):
            evaluate(_FixedLogitModel(np.zeros((2, 2))), [[0, 1]], labels)


class TestEvalBatches:
    """A run collates each eval chunk once, not once per epoch, and keeps the
    batches only while it runs."""

    def test_each_eval_chunk_is_collated_once_per_run(self, monkeypatch):
        ds = small_dataset()
        splits = split_dataset(ds.graphs, seed=0)
        cfg = small_config(total_epochs=3, warmup_epochs=1)
        model_cls = models.ResidualGCN
        runs, calls, batches = [], [], []
        prepare_dataset, collate = model_cls.prepare_dataset, model_cls.collate

        def prepare_spy(self, graphs, run_seed=0):
            runs.append(prepare_dataset(self, graphs, run_seed))
            return runs[-1]

        def collate_spy(preps):
            index = {id(p): i for i, p in enumerate(runs[-1])}
            calls.append(tuple(index[id(p)] for p in preps))
            batch = collate(preps)
            batches.append(weakref.ref(batch))
            return batch

        monkeypatch.setattr(model_cls, "prepare_dataset", prepare_spy)
        monkeypatch.setattr(model_cls, "collate", staticmethod(collate_spy))
        res = run_experiment(cfg, ds, 0.0, splits)
        eval_chunks = [tuple(split[i:i + models.EVAL_CHUNK])
                       for split in (splits.train, splits.val, splits.test)
                       for i in range(0, len(split), models.EVAL_CHUNK)]
        train_batches = math.ceil(len(splits.train) / cfg.batch_size)
        assert len(runs) == 1 and len(res.runs[0].metrics) == 3
        assert len(calls) == len(eval_chunks) + 3 * train_batches
        counts = collections.Counter(calls)
        assert all(counts[chunk] == 1 for chunk in eval_chunks)
        gc.collect()
        assert all(ref() is None for ref in batches)  # no batch outlives the run

    def test_each_prepared_list_gets_its_own_accuracy(self):
        ds = small_dataset(num_graphs=24)
        splits = split_dataset(ds.graphs, seed=0)
        # two runs of one model on the same graphs, labelled as the model
        # predicts them in one and the other way in the other
        right, wrong = (Run(small_config(), ds, 0.0, splits, 0) for _ in range(2))
        for r, w in zip(right.prepared, wrong.prepared):
            r.label = int(np.argmax(right.model.forward(r).data))
            w.label = 1 - r.label
        sets = [wrong.eval_sets, right.eval_sets]
        for _ in range(2):  # the second pass reads the collated batches
            assert [[evaluate(run.model, *s) for s in run.eval_sets]
                    for run in (wrong, right)] == [[0.0] * 3, [100.0] * 3]
        assert wrong.eval_sets is sets[0] and right.eval_sets is sets[1]

    @pytest.mark.parametrize("kind", ["residual_gcn", "exphormer"])
    def test_eval_graphs_are_the_third_argument(self, monkeypatch, kind):
        # a profiler that wraps evaluate counts the graphs an epoch scores as
        # the length of its third argument
        ds = small_dataset(num_graphs=30, n=8)
        splits = split_dataset(ds.graphs, seed=0)
        cfg = small_config(model_kind=kind, total_epochs=1, warmup_epochs=0,
                           exphormer=ExphormerConfig(num_layers=1, num_heads=2,
                                                     hidden_dim=8,
                                                     expander_degree=2))
        scored, inner = [], training.evaluate

        def counting(model, inputs, labels):
            labels = list(labels)
            scored.append(len(labels))
            return inner(model, inputs, labels)

        monkeypatch.setattr(training, "evaluate", counting)
        run_experiment(cfg, ds, 0.5, splits)
        assert scored == [len(splits.train), len(splits.val), len(splits.test)]


class TestExphormerEvalBatches:
    """Exphormer scores each eval chunk in dense stacks and trains an even
    batch of one size in pairs."""

    def test_batched_eval_sets_match_per_graph_inputs(self):
        ds = small_dataset(num_graphs=60, n=8)
        splits = split_dataset(ds.graphs, seed=0)
        cfg = small_config(model_kind="exphormer", total_epochs=2,
                           exphormer=ExphormerConfig(num_layers=2, num_heads=2,
                                                     hidden_dim=8,
                                                     expander_degree=2))
        run = Run(cfg, ds, 0.5, splits, 3)
        run.epoch()
        for (inputs, labels), indices in zip(
                run.eval_sets, (splits.train, splits.val, splits.test)):
            # n=8 graphs are dense: every chunk is one stack, in index order
            assert len(inputs) == math.ceil(len(indices) / models.EVAL_CHUNK)
            assert all(isinstance(x, list) for x in inputs)
            singles = [run.prepared[i] for i in indices]
            assert [p for x in inputs for p in x] == singles
            assert labels.tolist() == [p.label for p in singles]
            batched = np.concatenate([run.model.forward(x).data for x in inputs])
            per_graph = np.concatenate([run.model.forward(p).data for p in singles])
            assert np.max(np.abs(batched - per_graph)) < 1e-12
            assert evaluate(run.model, inputs, labels) \
                == evaluate(run.model, singles, labels)

    def test_eval_labels_follow_the_order_of_the_forwards(self):
        # graphs of 8 and 12 nodes alternate, so each chunk's stacks reorder them
        small, large = (generate_synthetic(SyntheticSpec(
            num_graphs=30, n=n, d=8, num_classes=2, seed=n)).graphs for n in (8, 12))
        ds = Dataset([g for pair in zip(small, large) for g in pair], 2)
        splits = split_dataset(ds.graphs, seed=0)
        cfg = small_config(model_kind="exphormer",
                           exphormer=ExphormerConfig(num_layers=1, num_heads=2,
                                                     hidden_dim=8,
                                                     expander_degree=2))
        run = Run(cfg, ds, 0.0, splits, 0)
        for (inputs, labels), indices in zip(
                run.eval_sets, (splits.train, splits.val, splits.test)):
            singles = [run.prepared[i] for i in indices]
            stacked = [p for x in inputs for p in x]  # every graph is dense
            assert stacked != singles
            assert sorted(map(id, stacked)) == sorted(map(id, singles))
            assert labels.tolist() == [p.label for p in stacked]
            assert evaluate(run.model, inputs, labels) \
                == evaluate(run.model, singles, [p.label for p in singles])

    def test_training_step_records_58_tape_nodes(self, monkeypatch):
        ds = small_dataset(num_graphs=30, n=8)
        splits = split_dataset(ds.graphs, seed=0)
        cfg = small_config(model_kind="exphormer", total_epochs=1,
                           warmup_epochs=0)  # the default ExphormerConfig
        run = Run(cfg, ds, 0.0, splits, 0)
        tapes, inner = [], training.backward

        def counting(tape, loss):
            tapes.append(len(tape))
            return inner(tape, loss)

        monkeypatch.setattr(training, "backward", counting)
        run.epoch()
        # a pair records one node more than a graph: its global rows' placement
        full, rest = divmod(len(splits.train), cfg.batch_size)
        assert tapes == [59] * (full * cfg.batch_size // 2) + (
            [58] * rest if rest % 2 else [59] * (rest // 2))


class TestRunExperiment:
    def test_aggregate_mean_std(self):
        mean, std = aggregate_accuracy([50.0, 52.0, 54.0])
        assert mean == pytest.approx(52.0)
        assert std == pytest.approx(2.0)

    def test_single_value_std_zero(self):
        mean, std = aggregate_accuracy([52.11])
        assert (mean, std) == (pytest.approx(52.11), 0.0)

    def test_empty_split_is_named(self):
        with pytest.raises(EmptySplitError, match="split is empty: 3 graphs"):
            run_experiment(small_config(), small_dataset(num_graphs=3), 0.0)

    def test_errors_pickle_whole_for_pool_workers(self):
        diverged = DivergenceError(1, 0, float("nan"), seed=2)
        diverged.cell = "dropedge_exphormer_p0.50"
        for exc in (diverged, EmptySplitError("val", 3)):
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is type(exc) and str(back) == str(exc)

    def test_deterministic_repeat(self):
        ds = small_dataset()
        cfg = small_config(seeds=(0, 1))
        r1 = run_experiment(cfg, ds, 0.5)
        r2 = run_experiment(cfg, ds, 0.5)
        assert r1.to_dict() == r2.to_dict()

    def test_source_dataset_unchanged(self):
        ds = small_dataset()
        digest_before = hashlib.sha256(dataset_bytes(ds)).hexdigest()
        run_experiment(small_config(), ds, 0.7)
        digest_after = hashlib.sha256(dataset_bytes(ds)).hexdigest()
        assert digest_before == digest_after

    def test_curves_have_total_epochs_entries(self):
        ds = small_dataset()
        cfg = small_config(total_epochs=6, warmup_epochs=2)
        res = run_experiment(cfg, ds, 0.0)
        for run in res.runs:
            assert len(run.metrics) == 6
            assert all(0.0 <= m.train_acc <= 100.0 for m in run.metrics)
            assert all(np.isfinite(m.loss) for m in run.metrics)

    def test_best_val_selection(self):
        ds = small_dataset()
        cfg = small_config(total_epochs=5, warmup_epochs=1)
        run = Run(cfg, ds, 0.0, split_dataset(ds.graphs, seed=0), 0)
        for _ in range(cfg.total_epochs):
            run.epoch()
        res = run.result()
        vals = [m.val_acc for m in res.metrics]
        assert res.best_val_epoch == int(np.argmax(vals))
        assert res.test_at_best_val == res.metrics[res.best_val_epoch].test_acc
        # the earliest of equal validation accuracies wins
        run.metrics = [dataclasses.replace(m, val_acc=v, test_acc=t) for m, v, t
                       in zip(res.metrics, [50, 60, 60, 55, 60], [1, 2, 3, 4, 5])]
        assert (run.result().best_val_epoch, run.result().test_at_best_val) == (1, 2)

    def test_stepping_a_run_matches_run_experiment(self):
        ds = small_dataset()
        splits = split_dataset(ds.graphs, seed=0)
        cfg = small_config(seeds=(1, 2), total_epochs=3)
        run = Run(cfg, ds, 0.5, splits, 2)
        steps = [run.epoch() for _ in range(cfg.total_epochs)]
        assert steps == run.metrics
        assert run.result().to_dict() == \
            run_experiment(cfg, ds, 0.5, splits).runs[1].to_dict()

    def test_diverging_run_names_its_seed(self):
        ds = small_dataset()
        cfg = small_config(base_lr=1e120, warmup_epochs=0, seeds=(7,))
        run = Run(cfg, ds, 0.0, split_dataset(ds.graphs, seed=0), 7)
        with pytest.raises(DivergenceError, match="^seed 7: ") as info, \
                np.errstate(over="ignore", invalid="ignore"):
            for _ in range(cfg.total_epochs):
                run.epoch()
        assert info.value.seed == 7

    def test_invalid_drop_p(self):
        with pytest.raises(ConfigError):
            run_experiment(small_config(), small_dataset(), 1.2)


class TestCorrupt:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_graph_i_uses_edge_drop_stream_i(self, p):
        graphs = small_dataset(num_graphs=12).graphs
        out = training.corrupt(graphs, p, 3)
        for i, (g, got) in enumerate(zip(graphs, out)):
            assert graphs_equal(got, drop_edges(g, p, seeded_rng(3, "edge-drop", i)))

    @pytest.mark.parametrize("p,streams", [(0.0, 0), (1.0, 0), (0.5, 12)])
    def test_streams_built_only_where_drop_edges_draws(self, monkeypatch, p, streams):
        built = []
        monkeypatch.setattr(training, "seeded_rng",
                            lambda *keys: built.append(keys) or seeded_rng(*keys))
        graphs = small_dataset(num_graphs=12).graphs
        assert len(training.corrupt(graphs, p, 3)) == 12
        assert len(built) == streams


# A fresh process that trains Exphormer, with the dataset generated in it, so
# no large buffer has been freed before run_experiment starts.
_FAULTS_CHILD = """
import resource
from connectobench import SyntheticSpec, TrainConfig, generate_synthetic, run_experiment
ds = generate_synthetic(SyntheticSpec(num_graphs=60, n=50, num_classes=2,
                                      label_mode="feature_only", seed=7))
cfg = TrainConfig(model_kind="exphormer", total_epochs=2, warmup_epochs=1, seeds=(0,))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(cfg, ds, 0.0)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) // 2)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the C library has no mallopt")
def test_fresh_process_exphormer_epoch_keeps_its_pages():
    """run_experiment pins glibc's mmap threshold, so an Exphormer layer's
    per-edge arrays (about 295 KB each) are not mapped and faulted in afresh
    on every allocation: about 1.4k minor faults per epoch measured, against
    69k with glibc's default dynamic threshold."""
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS_CHILD], capture_output=True, text=True,
        timeout=300, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                              OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout) < 8000
