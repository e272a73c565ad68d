"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline. The heavyweight criteria (2 and 3) train real models and take
several minutes combined; their wall-clock budgets are asserted too.
"""

import time

import numpy as np
import pytest

from connectobench import (
    BlockAdjacency,
    ExphormerConfig,
    IndexPlan,
    ResidualGCNConfig,
    SyntheticSpec,
    Tape,
    TrainConfig,
    Tensor,
    backward,
    build_expander,
    build_interaction_graph,
    cross_entropy,
    drop_edges,
    generate_synthetic,
    lr_at,
    run_experiment,
    serialize_dataset,
    split_dataset,
    sum_all,
)
from connectobench.autodiff import (
    add,
    concat_cols,
    concat_rows,
    dropout,
    expand_col_blocks,
    gather_rows,
    layer_norm,
    matmul,
    mean_pool_rows,
    mul,
    relu,
    scale,
    segment_sum_rows,
    softmax_segments,
    sparse_aggregate,
    sum_col_blocks,
)
from connectobench.cli import main as cli_main
from connectobench.models import Exphormer, ResidualGCN, build_model

from helpers import (
    edge_free_reference_logits,
    is_connected,
    max_rel_err,
    numerical_grad,
    second_eigenvalue_power_iteration,
)


def report(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} [{name}]: PASS{suffix}")


def random_graph(rng, n, density=0.3):
    from connectobench import ConnectomeGraph
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    edges = np.stack([iu[keep], iv[keep]], axis=1).astype(np.int64)
    weights = rng.uniform(0.5, 1.0, int(keep.sum()))
    x = rng.standard_normal((n, n))
    return ConnectomeGraph(n=n, x=x, edges=edges, weights=weights, label=0)


def _projected_loss_check(build, tensors, rng, tol=1e-4):
    proj = Tensor(rng.standard_normal(build().shape))

    def loss_fn(tape=None):
        out = build(tape)
        return sum_all(mul(out, proj, tape), tape)

    for t in tensors:
        t.grad = None  # tensors are shared across the op checks
    tape = Tape()
    backward(tape, loss_fn(tape))
    numeric = numerical_grad(lambda: loss_fn().item(), tensors)
    worst = max(max_rel_err(t.grad, n) for t, n in zip(tensors, numeric))
    assert worst < tol, f"rel err {worst:.3e}"
    return worst


def test_criterion_1_gradient_suite():
    """Every differentiable op and both full models pass FD checks (<2 min)."""
    start = time.monotonic()
    worst_overall = 0.0

    def away_from_zero(rng, shape):
        return np.sign(rng.standard_normal(shape)) * (
            0.2 + np.abs(rng.standard_normal(shape)))

    for instance in range(5):
        rng = np.random.default_rng(100 + instance)
        rows = int(rng.integers(2, 6))
        cols = 2 * int(rng.integers(1, 4))
        a = Tensor(away_from_zero(rng, (rows, cols)), requires_grad=True)
        b = Tensor(rng.standard_normal((rows, cols)), requires_grad=True)
        bias = Tensor(rng.standard_normal((1, cols)), requires_grad=True)
        w = Tensor(rng.standard_normal((cols, 3)), requires_grad=True)
        gain = Tensor(1.0 + 0.1 * rng.standard_normal((1, cols)),
                      requires_grad=True)
        idx = rng.integers(0, rows, size=rows + 2)
        seg = np.sort(rng.integers(0, 3, size=rows))
        edges = np.stack([rng.integers(0, rows, 4), rng.integers(0, rows, 4)],
                         axis=1)
        ew = rng.uniform(0.5, 1.0, 4)
        labels = rng.integers(0, 3, size=rows)  # matmul(a, w) gives 3 classes
        drop_seed = int(rng.integers(1 << 20))
        # a batch of three graphs of mixed sizes, drawn from a stream of its
        # own so the checks above see the same data as without it
        brng = np.random.default_rng(300 + instance)
        sizes = [2, 2, 3]
        u = Tensor(away_from_zero(brng, (sum(sizes), cols)), requires_grad=True)
        union = BlockAdjacency.union(
            BlockAdjacency.from_edges(
                np.stack([brng.integers(0, n, 3), brng.integers(0, n, 3)], axis=1),
                brng.uniform(0.5, 1.0, 3), n)
            for n in sizes)
        b3 = Tensor(brng.standard_normal((1, 3)), requires_grad=True)

        checks = {
            "matmul": (lambda t=None: matmul(a, w, t), [a, w]),
            "add": (lambda t=None: add(a, b, t), [a, b]),
            # the identity weight keeps the output (rows, cols), so the shared
            # rng draws the same projections for this and every later check
            "add_bias": (lambda t=None: matmul(a, Tensor(np.eye(cols)), t,
                                               bias=bias), [a, bias]),
            "mul": (lambda t=None: mul(a, b, t), [a, b]),
            "scale": (lambda t=None: scale(a, -2.5, t), [a]),
            "relu": (lambda t=None: relu(a, t), [a]),
            "concat_cols": (lambda t=None: concat_cols([a, b], t), [a, b]),
            "concat_rows": (lambda t=None: concat_rows([a, b], t), [a, b]),
            "gather_rows": (lambda t=None: gather_rows(a, idx, t), [a]),
            "mean_pool_rows": (lambda t=None: mean_pool_rows(a, t), [a]),
            "dropout": (lambda t=None: dropout(a, 0.35, "train", drop_seed, t),
                        [a]),
            "sparse_aggregate": (
                lambda t=None: sparse_aggregate(
                    BlockAdjacency.from_edges(edges, ew, rows), a, t), [a]),
            "segment_sum_rows": (
                lambda t=None: segment_sum_rows(a, seg, 3, t), [a]),
            "softmax_segments": (
                lambda t=None: softmax_segments(a, seg, t), [a]),
            "sum_col_blocks": (lambda t=None: sum_col_blocks(a, 2, t), [a]),
            "expand_col_blocks": (lambda t=None: expand_col_blocks(a, 2, t),
                                  [a]),
            "layer_norm": (lambda t=None: layer_norm(a, gain, bias, t),
                           [a, gain, bias]),
            # the same ops given an IndexPlan; the reversed segments are
            # unsorted, so the plans carry a sort order
            "gather_rows_plan": (
                lambda t=None: gather_rows(a, IndexPlan(idx), t), [a]),
            "segment_sum_rows_plan": (
                lambda t=None: segment_sum_rows(a, IndexPlan(seg[::-1]), 3, t),
                [a]),
            "softmax_segments_plan": (
                lambda t=None: softmax_segments(a, IndexPlan(seg[::-1]), t), [a]),
            "mean_pool_rows_counts": (
                lambda t=None: mean_pool_rows(u, t, counts=sizes), [u]),
            "sparse_aggregate_union": (
                lambda t=None: sparse_aggregate(union, u, t), [u]),
            "matmul_bias": (lambda t=None: matmul(a, w, t, bias=b3), [a, w, b3]),
        }
        for name, (build, tensors) in checks.items():
            worst_overall = max(worst_overall,
                                _projected_loss_check(build, tensors, rng))

        def ce_fn(t=None):
            return cross_entropy(matmul(a, w, t), labels, t)

        a.grad = w.grad = None
        tape = Tape()
        backward(tape, ce_fn(tape))
        numeric = numerical_grad(lambda: ce_fn().item(), [a, w])
        worst_overall = max(worst_overall, max_rel_err(a.grad, numeric[0]),
                            max_rel_err(w.grad, numeric[1]))

    # both full models, 5 random instances each
    for instance in range(5):
        rng = np.random.default_rng(200 + instance)
        g = random_graph(rng, 6, density=0.4)
        gcn = ResidualGCN(ResidualGCNConfig(num_gcn_layers=2, hidden_dim=5,
                                            mlp_hidden=4, dropout=0.1),
                          in_dim=6, num_classes=2, seed=instance)
        exph = Exphormer(ExphormerConfig(num_layers=2, num_heads=2,
                                         hidden_dim=6, expander_degree=2,
                                         num_global_nodes=1),
                         in_dim=6, num_classes=2, seed=instance)
        for model, prep in ((gcn, gcn.prepare(g)),
                            (exph, exph.prepare(g, ig_seed=instance))):
            def loss_fn(tape=None):
                return cross_entropy(model.forward(prep, mode="eval",
                                                   tape=tape),
                                     [0], tape=tape)

            tape = Tape()
            backward(tape, loss_fn(tape))
            names = sorted(model.params)
            numeric = numerical_grad(lambda: loss_fn().item(),
                                     [model.params[k] for k in names])
            for name, num in zip(names, numeric):
                err = max_rel_err(model.params[name].grad, num)
                assert err < 1e-4, f"{model.kind} {name}: {err:.3e}"
                worst_overall = max(worst_overall, err)

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s"
    report(1, "gradient suite",
           f"worst rel err {worst_overall:.2e}, {elapsed:.0f}s")


@pytest.fixture(scope="module")
def feature_dataset():
    return generate_synthetic(SyntheticSpec(num_graphs=300, n=50,
                                            num_classes=2,
                                            label_mode="feature_only", seed=7))


def test_criterion_2_flat_curves(feature_dataset):
    """Both models hold >=90% test accuracy across p with <=3 point spread."""
    start = time.monotonic()
    splits = split_dataset(feature_dataset.graphs, seed=0)
    summary = []
    for kind in ("residual_gcn", "exphormer"):
        cfg = TrainConfig(total_epochs=15, warmup_epochs=2, seeds=(0, 1, 2),
                          model_kind=kind)
        means = {}
        for p in (0.0, 0.5, 1.0):
            res = run_experiment(cfg, feature_dataset, p, splits)
            means[p] = res.mean_test
        spread = max(means.values()) - min(means.values())
        summary.append(f"{kind}: " + " ".join(
            f"p={p:.1f}:{means[p]:.1f}" for p in (0.0, 0.5, 1.0))
            + f" spread={spread:.2f}")
        for p, mean in means.items():
            assert mean >= 90.0, f"{kind} at p={p}: {mean:.2f} < 90"
        assert spread <= 3.0, f"{kind} spread {spread:.2f} > 3"
    elapsed = time.monotonic() - start
    assert elapsed < 900.0, f"flat-curve criterion took {elapsed:.0f}s"
    report(2, "flat-curve reproduction",
           "; ".join(summary) + f"; {elapsed:.0f}s")


def test_criterion_3_sensitivity_control():
    """Structure-only data: high accuracy with edges, chance without them."""
    start = time.monotonic()
    ds = generate_synthetic(SyntheticSpec(num_graphs=500, n=40, num_classes=2,
                                          label_mode="structure_only",
                                          seed=11))
    splits = split_dataset(ds.graphs, seed=0)
    cfg = TrainConfig(total_epochs=25, warmup_epochs=3, seeds=(0, 1, 2),
                      model_kind="residual_gcn")
    with_edges = run_experiment(cfg, ds, 0.0, splits)
    without_edges = run_experiment(cfg, ds, 1.0, splits)
    chance = 100.0 / ds.num_classes
    assert with_edges.mean_test >= 80.0, \
        f"p=0 accuracy {with_edges.mean_test:.2f} < 80"
    assert without_edges.mean_test <= chance + 10.0, \
        f"p=1 accuracy {without_edges.mean_test:.2f} > chance+10"
    elapsed = time.monotonic() - start
    assert elapsed < 900.0, f"sensitivity criterion took {elapsed:.0f}s"
    report(3, "sensitivity control",
           f"p=0: {with_edges.mean_test:.2f}, p=1: "
           f"{without_edges.mean_test:.2f}, {elapsed:.0f}s")


def test_criterion_4_interaction_budget_and_expander():
    """Edge budget over 1000 random graphs; connectivity; spectral gap."""
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(4, 24))
        g = random_graph(rng, n, density=float(rng.uniform(0.05, 0.7)))
        degree = int(rng.choice([2, 4, 6]))
        gl = int(rng.integers(0, 3))
        cfg = ExphormerConfig(expander_degree=degree, num_global_nodes=gl,
                              num_heads=2, hidden_dim=8)
        ig = build_interaction_graph(g, cfg, seed=int(rng.integers(10_000)))
        budget = 2 * g.num_edges + degree * n + 2 * gl * n + (n + gl)
        assert ig.num_edges <= budget

    for seed in range(100):
        edges = build_expander(25, 4, seed=seed)
        assert is_connected(edges, 25)

    lam2 = second_eigenvalue_power_iteration(build_expander(100, 6, seed=1),
                                             100)
    assert lam2 < 0.95
    report(4, "interaction-graph budget",
           f"1000 graphs within budget, 100 expanders connected, "
           f"lambda2={lam2:.3f}")


def test_criterion_5_empty_edge_reduction():
    """p=1.0 forward equals the explicit self-loop-only reference (1e-10)."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(4, 20))
        g = random_graph(rng, n, density=float(rng.uniform(0.1, 0.6)))
        model = build_model("residual_gcn", in_dim=n, num_classes=3,
                            seed=i % 7)
        dropped = drop_edges(g, 1.0, seed=i)
        logits = model.forward(model.prepare(dropped), mode="eval").data
        ref = edge_free_reference_logits(model, dropped.x)
        worst = max(worst, float(np.max(np.abs(logits - ref))))
    assert worst < 1e-10
    report(5, "empty-edge reduction", f"max abs diff {worst:.2e}")


def test_criterion_6_determinism(tmp_path):
    """Repeated experiments and dataset files are bit-identical."""
    ds = generate_synthetic(SyntheticSpec(num_graphs=30, n=10, num_classes=2,
                                          seed=13))
    cfg = TrainConfig(total_epochs=4, warmup_epochs=1, seeds=(0, 1),
                      model_kind="residual_gcn",
                      gcn=ResidualGCNConfig(num_gcn_layers=2, hidden_dim=8,
                                            mlp_hidden=8))
    r1 = run_experiment(cfg, ds, 0.5)
    r2 = run_experiment(cfg, ds, 0.5)
    assert r1.to_dict() == r2.to_dict()

    spec = SyntheticSpec(num_graphs=12, n=9, num_classes=2, seed=21)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    serialize_dataset(generate_synthetic(spec), p1)
    serialize_dataset(generate_synthetic(spec), p2)
    assert p1.read_bytes() == p2.read_bytes()
    report(6, "determinism", "runs and dataset files bit-identical")


def test_criterion_7_schedule_conformance():
    """lr schedule hits the stated constants and stays monotone."""
    cfg = TrainConfig()
    assert lr_at(4, cfg) == pytest.approx(0.001, abs=1e-15)
    assert lr_at(99, cfg) == pytest.approx(5.0e-5, abs=1e-12)

    rng = np.random.default_rng(77)
    for _ in range(10_000):
        total = int(rng.integers(2, 120))
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
    report(7, "schedule conformance",
           "epoch4=0.001, epoch99=5e-5, 10000 configs monotone")


def test_criterion_8_aggregation_format(tmp_path, capsys):
    """sweep-dropedge emits dataset x p x model rows with mean +- std."""
    ds_path = tmp_path / "tiny.jsonl"
    serialize_dataset(generate_synthetic(
        SyntheticSpec(num_graphs=16, n=8, num_classes=2, seed=3)), ds_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        '{"train": {"total_epochs": 3, "warmup_epochs": 1, "seeds": [0],'
        ' "gcn": {"num_gcn_layers": 2, "hidden_dim": 6, "mlp_hidden": 6},'
        ' "exphormer": {"num_layers": 1, "num_heads": 2, "hidden_dim": 8,'
        ' "expander_degree": 2}}}')
    out = tmp_path / "sweep"
    rc = cli_main(["sweep-dropedge", "--dataset", str(ds_path), "--out",
                   str(out), "--config", str(cfg_path)])
    capsys.readouterr()
    assert rc == 0
    lines = (out / "dropedge.csv").read_text().splitlines()
    assert lines[0] == "dataset,p,model,mean,std"
    assert len(lines) == 7
    expected_cells = [(p, m) for p in ("0.00", "0.50", "1.00")
                      for m in ("residual_gcn", "exphormer")]
    for line, (p, m) in zip(lines[1:], expected_cells):
        fields = line.split(",")
        assert fields[0] == "tiny"
        assert (fields[1], fields[2]) == (p, m)
        float(fields[3])
        assert fields[4] == "0.00"  # single seed reports std 0.00
    report(8, "aggregation format", "6 rows, std 0.00 for single seed")
