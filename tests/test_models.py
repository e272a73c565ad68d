"""Models: GCN propagation, expander/interaction graphs, attention, variants."""

import collections
import dataclasses
import functools
import itertools
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from connectobench import (
    AttnResidualGCN,
    AttnVariantConfig,
    BlockAdjacency,
    ConfigError,
    ConnectomeGraph,
    ContractError,
    Exphormer,
    ExphormerConfig,
    IndexPlan,
    ResidualGCN,
    ResidualGCNConfig,
    ShapeError,
    Tape,
    Tensor,
    backward,
    build_expander,
    build_interaction_graph,
    cross_entropy,
    drop_edges,
)
from connectobench import models
from connectobench.models import (
    build_model,
    gcn_layer,
    node_degrees,
    normalized_adjacency,
    sparse_attention,
    _interaction_graph,
)
from connectobench.rng import seeded_rng

from helpers import (
    edge_free_reference_logits,
    is_connected,
    max_rel_err,
    numerical_grad,
    permute_graph,
    raw_index_prep,
    second_eigenvalue_power_iteration,
)


def graph_from_edges(n, edges, weights=None, label=0, x=None, seed=0):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if weights is None:
        weights = np.ones(edges.shape[0])
    if x is None:
        x = seeded_rng(seed, "x").standard_normal((n, n))
    return ConnectomeGraph(n=n, x=np.asarray(x, dtype=np.float64), edges=edges,
                           weights=np.asarray(weights, dtype=np.float64),
                           label=label)


def random_graph(rng, n, density=0.3):
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    edges = np.stack([iu[keep], iv[keep]], axis=1)
    weights = rng.uniform(0.5, 1.0, keep.sum())
    return graph_from_edges(n, edges, weights, seed=int(rng.integers(1 << 30)))


def test_node_degrees_counts_both_endpoints():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        g = random_graph(rng, n, density=float(rng.random()))
        ref = np.zeros(n, dtype=np.int64)
        np.add.at(ref, g.edges[:, 0], 1)
        np.add.at(ref, g.edges[:, 1], 1)
        deg = node_degrees(g)
        assert deg.dtype == np.int64 and np.array_equal(deg, ref)


class TestGCNLayer:
    def test_empty_edges_reduces_to_relu_hw(self):
        g = graph_from_edges(1, np.zeros((0, 2)), x=[[1.0, -1.0]])
        adj = BlockAdjacency.from_edges(*normalized_adjacency(g), g.n)
        out = gcn_layer(adj, Tensor(g.x), Tensor(np.eye(2)))
        assert np.array_equal(out.data, [[1.0, 0.0]])

    def test_two_node_hand_case(self):
        g = graph_from_edges(2, [[0, 1]], weights=[1.0], x=np.eye(2))
        adj = BlockAdjacency.from_edges(
            *normalized_adjacency(g, use_edge_weights=True), g.n)
        out = gcn_layer(adj, Tensor(np.eye(2)), Tensor(np.eye(2)))
        assert np.allclose(out.data, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, 9)
        perm = rng.permutation(9)
        gp = permute_graph(g, perm)
        w = rng.standard_normal((9, 5))
        a1 = BlockAdjacency.from_edges(*normalized_adjacency(g), g.n)
        a2 = BlockAdjacency.from_edges(*normalized_adjacency(gp), gp.n)
        out = gcn_layer(a1, Tensor(g.x), Tensor(w)).data
        outp = gcn_layer(a2, Tensor(gp.x), Tensor(w)).data
        assert np.max(np.abs(outp[perm] - out)) < 1e-10


class TestResidualGCN:
    def make(self, in_dim=10, seed=0):
        cfg = ResidualGCNConfig(num_gcn_layers=2, hidden_dim=6, mlp_hidden=5)
        return ResidualGCN(cfg, in_dim=in_dim, num_classes=3, seed=seed)

    def test_eval_deterministic(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 10)
        m = self.make()
        prep = m.prepare(g)
        a = m.forward(prep, mode="eval").data
        b = m.forward(prep, mode="eval").data
        assert np.array_equal(a, b)

    def test_all_edges_dropped_matches_edge_free_path(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 10)
        m = self.make()
        dropped = drop_edges(g, 1.0, seed=3)
        logits = m.forward(m.prepare(dropped), mode="eval").data
        ref = edge_free_reference_logits(m, dropped.x)
        assert np.max(np.abs(logits - ref)) < 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 12)
        m = self.make(in_dim=12)
        perm = rng.permutation(12)
        # permute feature columns too: features are correlation rows
        gp = permute_graph(g, perm)
        xp = np.empty_like(g.x)
        xp[perm] = g.x
        gp.x = xp
        a = m.forward(m.prepare(g), mode="eval").data
        b = m.forward(m.prepare(gp), mode="eval").data
        assert np.max(np.abs(a - b)) < 1e-8

    def test_feature_dim_mismatch(self):
        rng = np.random.default_rng(8)
        m = self.make(in_dim=4)
        g = random_graph(rng, 10)  # x is 10-dim, model expects 4
        with pytest.raises(ShapeError):
            m.forward(m.prepare(g), mode="eval")

    @pytest.mark.parametrize("use_edge_weights", [True, False])
    def test_prepared_block_is_from_edges_bit_for_bit(self, use_edge_weights):
        rng = np.random.default_rng(11)
        cfg = ResidualGCNConfig(use_edge_weights=use_edge_weights)
        m = ResidualGCN(cfg, in_dim=4, num_classes=2)
        graphs = [random_graph(rng, n, density) for n, density in
                  ((1, 0.5), (2, 1.0), (7, 0.0), (12, 0.3), (30, 0.9), (50, 0.1))]
        graphs += [drop_edges(g, 0.5, seed=i) for i, g in enumerate(graphs)]
        # not a valid graph: a repeated edge adds up, as in from_edges
        graphs.append(graph_from_edges(3, [[0, 1], [0, 1], [1, 2]], [0.5, 0.25, 1.0]))
        for g in graphs:
            edges, weights = normalized_adjacency(g, use_edge_weights)
            ref = BlockAdjacency.from_edges(edges, weights, g.n).runs
            prep = m.prepare(g)
            assert len(prep.adj.runs) == len(ref) == 1
            (k, size, block), (_, _, ref_block) = prep.adj.runs[0], ref[0]
            assert (k, size) == ref[0][:2] == (1, g.n)
            if ref_block is None:  # an identity block: the graph has no edge
                assert block is None
            else:
                assert block.shape == ref_block.shape == (1, g.n, g.n)
                assert block.dtype == ref_block.dtype
                assert block.tobytes() == ref_block.tobytes()
            assert np.array_equal(prep.adj_edges, edges)

    def mixed_batch(self, rng, d=10):
        """Graphs of different sizes sharing feature dim d; the last has no edges."""
        graphs = []
        for n in (5, 12, 8):
            g = random_graph(rng, n, density=0.4)
            g.x = rng.standard_normal((n, d))
            graphs.append(g)
        graphs.append(graph_from_edges(4, np.zeros((0, 2)),
                                       x=rng.standard_normal((4, d))))
        for i, g in enumerate(graphs):
            g.label = i % 3
        return graphs

    def test_batched_logits_match_per_graph(self):
        rng = np.random.default_rng(9)
        m = self.make()
        preps = [m.prepare(g) for g in self.mixed_batch(rng)]
        batched = m.forward(m.collate(preps), mode="eval").data
        assert batched.shape == (len(preps), 3)
        for row, prep in zip(batched, preps):
            single = m.forward(prep, mode="eval").data[0]
            assert np.max(np.abs(row - single)) < 1e-12
        edgeless = edge_free_reference_logits(m, preps[-1].x.data)[0]
        assert np.max(np.abs(batched[-1] - edgeless)) < 1e-10

    def test_batch_mean_gradient_matches_per_graph_mean(self):
        rng = np.random.default_rng(10)
        m = self.make()
        preps = [m.prepare(g) for g in self.mixed_batch(rng)]

        def grads(inputs, labels):
            for p in m.params.values():
                p.grad = None
            tape = Tape()
            backward(tape, cross_entropy(m.forward(inputs, mode="eval", tape=tape),
                                         labels, tape=tape))
            return {k: p.grad.copy() for k, p in m.params.items()}

        batched = grads(m.collate(preps), [p.label for p in preps])
        singles = [grads(p, [p.label]) for p in preps]
        for name, g in batched.items():
            mean = sum(s[name] for s in singles) / len(singles)
            assert np.max(np.abs(g - mean)) < 1e-12, name

    @staticmethod
    def eval_and_grads(m, inputs, labels, **logits_kw):
        """Eval-mode logits and parameter gradients of m._logits on inputs."""
        for p in m.params.values():
            p.grad = None
        tape = Tape()
        logits = m._logits(inputs, "eval", tape, None, **logits_kw)
        backward(tape, cross_entropy(logits, labels, tape=tape))
        return logits.data, {k: p.grad for k, p in m.params.items()}

    def test_identity_blocks_match_their_products(self):
        """A graph with no edges, or whose edges all weigh 0, has the identity
        as its block: apply copies its rows, and the logits and gradients are
        the bits the block products give."""
        rng = np.random.default_rng(12)
        m = self.make()
        graphs = self.mixed_batch(rng)
        zero = graph_from_edges(6, [[0, 1], [2, 5], [3, 4]], [0.0, 0.0, 0.0],
                                x=rng.standard_normal((6, 10)), label=1)
        bare = graph_from_edges(6, np.zeros((0, 2)), x=zero.x, label=1)
        graphs[1:1] = [zero, bare]
        preps = [m.prepare(g) for g in graphs]
        assert [[s is None for _, _, s in p.adj.runs] for p in preps] \
            == [[False], [True], [True], [False], [False], [True]]
        batch = m.collate(preps)
        assert [s is None for _, _, s in batch.adj.runs] \
            == [False, True, False, False, True]
        # the same runs with each identity block materialised as np.eye
        products = BlockAdjacency.__new__(BlockAdjacency)
        products._set_runs([(k, n, np.stack([np.eye(n)] * k) if s is None else s)
                            for k, n, s in batch.adj.runs])
        assert [s is None for _, _, s in products.runs] == [False] * 5
        product_batch = models.GCNBatch(x=batch.x, adj=products)
        labels = [p.label for p in preps]
        logits, grads = self.eval_and_grads(m, batch, labels)
        ref_logits, ref_grads = self.eval_and_grads(m, product_batch, labels)
        assert logits.tobytes() == ref_logits.tobytes()
        assert logits[1].tobytes() == logits[2].tobytes()
        for name, g in grads.items():
            assert g.tobytes() == ref_grads[name].tobytes(), name

    @pytest.mark.parametrize("hidden", [1, 3, 64])
    def test_pooling_each_layer_matches_pooling_the_concat(self, hidden):
        rng = np.random.default_rng(hidden)
        cfg = ResidualGCNConfig(num_gcn_layers=3, hidden_dim=hidden, mlp_hidden=5)
        m = ResidualGCN(cfg, in_dim=4, num_classes=3, seed=1)
        # mixed counts, runs of equal sizes, and graphs of 8 rows or more
        sizes = [5, 12, 12, 8, 40, 1, 3, 3]
        preps = [m.prepare(graph_from_edges(n, random_graph(rng, n, 0.4).edges,
                                            x=rng.standard_normal((n, 4)), label=i % 3))
                 for i, n in enumerate(sizes)]
        batch = m.collate(preps)
        labels = [p.label for p in preps]
        logits, grads = self.eval_and_grads(m, batch, labels)
        # after_concat keeps the node-level (N, 3 * hidden) concat
        ref_logits, ref_grads = self.eval_and_grads(m, batch, labels,
                                                    after_concat=lambda h: h)
        if hidden == 1:
            # numpy sums a lone column pairwise and the concat row by row
            assert np.max(np.abs(logits - ref_logits)) < 1e-12
            for name, g in grads.items():
                assert np.max(np.abs(g - ref_grads[name])) < 1e-12, name
            return
        assert logits.tobytes() == ref_logits.tobytes()
        for name, g in grads.items():
            assert g.tobytes() == ref_grads[name].tobytes(), name


class TestBuildExpander:
    def test_single_cycle(self):
        edges = build_expander(5, 2, seed=0)
        assert edges.shape == (5, 2)
        deg = np.zeros(5, dtype=int)
        np.add.at(deg, edges[:, 0], 1)
        np.add.at(deg, edges[:, 1], 1)
        assert np.all(deg == 2)
        assert is_connected(edges, 5)

    def test_degree_four_fifty_nodes(self):
        edges = build_expander(50, 4, seed=1)
        deg = np.zeros(50, dtype=int)
        np.add.at(deg, edges[:, 0], 1)
        np.add.at(deg, edges[:, 1], 1)
        assert is_connected(edges, 50)
        assert set(np.unique(deg)) <= {2, 3, 4}

    def test_spectral_gap(self):
        edges = build_expander(100, 6, seed=2)
        lam2 = second_eigenvalue_power_iteration(edges, 100)
        assert lam2 < 0.95

    def test_connected_many_seeds(self):
        for seed in range(100):
            edges = build_expander(20, 4, seed=seed)
            assert is_connected(edges, 20)

    def test_rejects_odd_degree_and_tiny_n(self):
        with pytest.raises(ConfigError):
            build_expander(10, 3)
        with pytest.raises(ConfigError):
            build_expander(2, 2)

    def test_deterministic(self):
        assert np.array_equal(build_expander(30, 4, seed=9),
                              build_expander(30, 4, seed=9))

    def test_huge_degree_stops_at_the_complete_graph(self):
        # in a child process: drawing all degree // 2 cycles would not end
        code = ("from connectobench import build_expander\n"
                "print(len(build_expander(8, 10 ** 11, seed=0)))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == [str(8 * 7 // 2)]

    @pytest.mark.parametrize("n,degree", [(3, 2), (3, 8), (4, 6), (10, 4), (50, 4),
                                          (51, 10), (8, 200), (12, 60)])
    def test_sorted_dedupe_is_np_unique(self, n, degree):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            keys = []
            for _ in range(degree // 2):
                perm = rng.permutation(n)
                nxt = np.concatenate((perm[1:], perm[:1]))
                keys.append(np.minimum(perm, nxt) * n + np.maximum(perm, nxt))
            keys = np.unique(np.concatenate(keys)).astype(np.int64)
            ref = np.stack([keys // n, keys % n], axis=1)
            out = build_expander(n, degree, np.random.default_rng(seed))
            assert out.dtype == ref.dtype and np.array_equal(out, ref)


class TestInteractionGraph:
    def test_empty_local_component(self):
        g = graph_from_edges(4, np.zeros((0, 2)))
        cfg = ExphormerConfig(expander_degree=2, num_global_nodes=1,
                              num_heads=2, hidden_dim=8)
        ig = build_interaction_graph(g, cfg, seed=0)
        counts = ig.tag_counts()
        assert counts["local"] == 0
        assert counts["global"] == 8
        assert counts["expander"] <= 8
        assert counts["self"] == 5
        assert ig.num_nodes == 5

    def test_edge_budget_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 25))
            g = random_graph(rng, n, density=float(rng.uniform(0.05, 0.6)))
            degree = int(rng.choice([2, 4, 6]))
            gl = int(rng.integers(0, 3))
            cfg = ExphormerConfig(expander_degree=degree, num_global_nodes=gl,
                                  num_heads=2, hidden_dim=8)
            ig = build_interaction_graph(g, cfg, seed=int(rng.integers(1000)))
            budget = 2 * g.num_edges + degree * n + 2 * gl * n + (n + gl)
            assert ig.num_edges <= budget

    def test_dense_triangle_dedup(self):
        g = graph_from_edges(3, [[0, 1], [0, 2], [1, 2]])
        cfg = ExphormerConfig(expander_degree=2, num_global_nodes=0,
                              num_heads=2, hidden_dim=8)
        ig = build_interaction_graph(g, cfg, seed=5)
        counts = ig.tag_counts()
        assert counts["local"] == 6  # all directed pairs
        assert counts["expander"] == 0  # cycle duplicates local pairs
        assert counts["self"] == 3

    def test_sorted_and_unique(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, 12)
        cfg = ExphormerConfig(num_heads=2, hidden_dim=8)
        ig = build_interaction_graph(g, cfg, seed=1)
        keys = ig.dst * ig.num_nodes + ig.src
        assert np.all(np.diff(keys) > 0)

    def test_per_tag_counts(self):
        rng = np.random.default_rng(11)
        from connectobench.models import TAG_LOCAL
        for _ in range(20):
            n = int(rng.integers(4, 16))
            g = random_graph(rng, n, density=0.4)
            gl = int(rng.integers(0, 3))
            cfg = ExphormerConfig(expander_degree=4, num_global_nodes=gl,
                                  num_heads=2, hidden_dim=8)
            ig = build_interaction_graph(g, cfg, seed=int(rng.integers(99)))
            counts = ig.tag_counts()
            symmetrized = {(u, v) for u, v in g.edges} | {
                (v, u) for u, v in g.edges}
            local = {(s, d) for s, d, t in zip(ig.src, ig.dst, ig.tags)
                     if t == TAG_LOCAL}
            assert local == symmetrized
            assert counts["expander"] <= 4 * n
            assert counts["global"] == 2 * gl * n
            assert counts["self"] == n + gl

    @pytest.mark.parametrize("gl", [0, 1, 2])
    @pytest.mark.parametrize("sizes", [(1, 1), (2, 2), (7, 7), (5, 2, 9)])
    @pytest.mark.parametrize("edgeless", [False, True])
    def test_union_is_the_graph_built_from_scratch(self, gl, sizes, edgeless):
        """A union concatenates its parts' arrays with node offsets, and the
        plans it builds on first use are the ones IndexPlan sorts out from
        scratch on the union's ids."""
        rng = np.random.default_rng(12)
        cfg = ExphormerConfig(expander_degree=4, num_global_nodes=gl,
                              num_heads=2, hidden_dim=8)
        igs = [build_interaction_graph(random_graph(
            rng, n, density=0.0 if edgeless and i == 0 else 0.5), cfg, seed=i)
            for i, n in enumerate(sizes)]
        assert models.InteractionGraph.union(igs[:1]) is igs[0]
        union = models.InteractionGraph.union(igs)
        offsets = np.cumsum([0] + [ig.num_nodes for ig in igs])
        assert union.num_nodes == offsets[-1]
        assert np.array_equal(union.tags, np.concatenate([ig.tags for ig in igs]))
        for end in ("src", "dst"):
            ids = getattr(union, end)
            assert np.array_equal(ids, np.concatenate(
                [getattr(ig, end) + o for ig, o in zip(igs, offsets)]))
            plan, fresh = getattr(union, f"{end}_plan"), IndexPlan(ids)
            assert plan.ids is ids
            assert (plan.order is None) == (fresh.order is None)
            for slot in ("order", "starts", "counts", "keys"):
                if getattr(fresh, slot) is not None:
                    assert np.array_equal(getattr(plan, slot), getattr(fresh, slot))
                    assert getattr(plan, slot).dtype == getattr(fresh, slot).dtype
            assert (plan.lo, plan.hi) == (fresh.lo, fresh.hi)
        assert union.dst_plan.order is None  # dst stays sorted by construction


class TestSparseAttention:
    def attention_setup(self, n=7, width=8, heads=2, seed=0):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n)
        ig = _interaction_graph(g)
        model = Exphormer(ExphormerConfig(num_layers=1, num_heads=heads,
                                          hidden_dim=width, num_global_nodes=0),
                          in_dim=n, num_classes=2, seed=seed)
        params = model._layers[0]
        h = Tensor(rng.standard_normal((n, width)), requires_grad=True)
        return ig, h, params, heads

    def test_identical_keys_give_uniform_weights(self):
        ig, h, params, heads = self.attention_setup()
        params["k"] = Tensor(np.zeros_like(params["k"].data), requires_grad=True)
        captured = []
        sparse_attention(ig, h, params, heads, 0.0, 0.0, "eval", None, None,
                         capture=captured)
        weights = captured[0]
        for v in range(ig.num_nodes):
            mask = ig.dst == v
            expected = 1.0 / mask.sum()
            assert np.max(np.abs(weights[mask] - expected)) < 1e-12

    def test_weights_sum_to_one_per_destination(self):
        ig, h, params, heads = self.attention_setup(seed=3)
        captured = []
        sparse_attention(ig, h, params, heads, 0.0, 0.0, "eval", None, None,
                         capture=captured)
        weights = captured[0]
        for v in range(ig.num_nodes):
            sums = weights[ig.dst == v].sum(axis=0)
            assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        n, width = 9, 8
        g = random_graph(rng, n)
        perm = rng.permutation(n)
        gp = permute_graph(g, perm)
        model = Exphormer(ExphormerConfig(num_layers=1, num_heads=2,
                                          hidden_dim=width, num_global_nodes=0),
                          in_dim=n, num_classes=2, seed=4)
        params = model._layers[0]
        h = rng.standard_normal((n, width))
        hp = np.empty_like(h)
        hp[perm] = h
        out = sparse_attention(_interaction_graph(g), Tensor(h), params, 2,
                               0.0, 0.0, "eval", None, None).data
        outp = sparse_attention(_interaction_graph(gp), Tensor(hp), params, 2,
                                0.0, 0.0, "eval", None, None).data
        assert np.max(np.abs(outp[perm] - out)) < 1e-8


@pytest.fixture
def plan_builds(monkeypatch):
    """A list that grows by the name of each IndexPlan built through
    IndexPlan(ids, name), anywhere."""
    names = []
    real = IndexPlan.__init__

    def counting(self, ids, name="idx"):
        names.append(name)
        real(self, ids, name)
    monkeypatch.setattr(IndexPlan, "__init__", counting)
    return names


class TestExphormer:
    def make(self, in_dim=8, **kw):
        cfg = ExphormerConfig(num_layers=2, num_heads=2, hidden_dim=8,
                              expander_degree=2, num_global_nodes=1, **kw)
        return Exphormer(cfg, in_dim=in_dim, num_classes=3, seed=2)

    def test_eval_deterministic(self):
        rng = np.random.default_rng(30)
        g = random_graph(rng, 8)
        m = self.make()
        prep = m.prepare(g, ig_seed=1)
        assert np.array_equal(m.forward(prep).data, m.forward(prep).data)

    def test_forward_without_local_edges(self):
        rng = np.random.default_rng(31)
        g = drop_edges(random_graph(rng, 8), 1.0, seed=0)
        m = self.make()
        prep = m.prepare(g, ig_seed=1)
        assert prep.ig.tag_counts()["local"] == 0
        logits = m.forward(prep)
        assert logits.shape == (1, 3)
        assert np.isfinite(logits.data).all()

    def test_structural_encoding_shapes(self):
        rng = np.random.default_rng(32)
        g = random_graph(rng, 8)
        with_enc = self.make()
        without = self.make(structural_encoding="none")
        for m, cols in ((with_enc, 1), (without, 0)):
            prep = m.prepare(g, 0)
            assert prep.x.shape == (8, 8) and prep.enc.shape == (8, cols)
            assert m.params["input.w"].shape == (8 + cols, 8)

    def test_degree_encoding_uses_dropped_edges(self):
        rng = np.random.default_rng(33)
        g = random_graph(rng, 8)
        m = self.make()
        full = m.prepare(g, 0).enc[:, 0]
        empty = m.prepare(drop_edges(g, 1.0, seed=1), 0).enc[:, 0]
        assert np.array_equal(empty, np.zeros(8))
        assert full.sum() > 0
        assert np.allclose(full, np.log1p(node_degrees(g)))

    def test_gradient_check(self):
        rng = np.random.default_rng(34)
        g = random_graph(rng, 6)
        m = Exphormer(ExphormerConfig(num_layers=1, num_heads=2, hidden_dim=6,
                                      expander_degree=2, num_global_nodes=1),
                      in_dim=6, num_classes=2, seed=5)
        prep = m.prepare(g, ig_seed=2)

        def loss_fn(tape=None):
            return cross_entropy(m.forward(prep, mode="eval", tape=tape),
                                 [prep.label], tape=tape)

        tape = Tape()
        backward(tape, loss_fn(tape))
        names = sorted(m.params)
        numeric = numerical_grad(lambda: loss_fn().item(),
                                 [m.params[k] for k in names])
        for name, num in zip(names, numeric):
            assert max_rel_err(m.params[name].grad, num) < 1e-4, name

    def test_prebuilt_plans_match_raw_ids_bit_exact(self):
        rng = np.random.default_rng(35)
        m = self.make()
        for g in (random_graph(rng, 8), drop_edges(random_graph(rng, 8), 1.0)):
            prep = m.prepare(g, ig_seed=3)
            raw = raw_index_prep(prep)
            assert prep.ig.src_plan.order is not None
            assert prep.ig.dst_plan.order is None  # dst is sorted by construction
            assert m.forward(prep).data.tobytes() == m.forward(raw).data.tobytes()
            train = [m.forward(p, mode="train", rng=seeded_rng(1, "t")).data
                     for p in (prep, raw)]
            assert train[0].tobytes() == train[1].tobytes()

    def test_prepare_builds_no_index_plan(self):
        rng = np.random.default_rng(36)
        graphs = [random_graph(rng, n) for n in (8, 5)]
        for g in graphs:
            g.x = rng.standard_normal((g.n, 8))
        gcn = AttnResidualGCN(ResidualGCNConfig(num_gcn_layers=2, hidden_dim=6),
                              AttnVariantConfig(num_heads=2), in_dim=8, num_classes=3)
        igs = [p.ig for p in self.make().prepare_dataset(graphs, run_seed=1)]
        igs += [p.local_ig for p in gcn.prepare_dataset(graphs)]
        for ig in igs:
            assert "src_plan" not in vars(ig) and "dst_plan" not in vars(ig)

    def test_lone_graph_builds_its_plans_once(self, plan_builds):
        rng = np.random.default_rng(39)
        m = self.make()
        prep = m.prepare(random_graph(rng, 8), ig_seed=2)
        plan_builds.clear()
        m.forward(prep, mode="train", rng=seeded_rng(0, "t"))
        assert sorted(n for n in plan_builds if n != "idx") == ["dst", "src"]
        plans = prep.ig.src_plan, prep.ig.dst_plan
        plan_builds.clear()
        m.forward(prep, mode="train", rng=seeded_rng(1, "t"))
        m.forward(prep, tape=Tape())  # an eval forward on the edge chain
        assert plan_builds == []
        assert all(a is b for a, b in zip(plans, (prep.ig.src_plan, prep.ig.dst_plan)))

    def test_dense_stack_builds_only_its_union_dst_plan(self, plan_builds,
                                                        monkeypatch):
        rng = np.random.default_rng(41)
        m = self.make()
        preps = m.prepare_dataset([random_graph(rng, 8) for _ in range(3)], run_seed=6)
        models._stack_rows(3, 8, 1)
        unions = []
        real_union = models.InteractionGraph.union
        monkeypatch.setattr(models.InteractionGraph, "union", lambda igs: (
            unions.append(real_union(igs)), unions[-1])[1])
        plan_builds.clear()
        m.forward(preps)
        assert plan_builds == ["dst"]
        assert "src_plan" not in vars(unions[0]) and "dst_plan" in vars(unions[0])
        assert all(vars(p.ig).keys().isdisjoint({"src_plan", "dst_plan"})
                   for p in preps)

    def test_forwards_of_one_shape_share_row_plans(self, monkeypatch):
        rng = np.random.default_rng(37)
        m = self.make()
        graphs = [random_graph(rng, n) for n in (8, 5, 8, 1, 5)]
        for g in graphs:
            g.x = rng.standard_normal((g.n, 8))
        preps = m.prepare_dataset(graphs, run_seed=4)
        for i, (g, prep) in enumerate(zip(graphs, preps)):
            alone = m.prepare(g, seeded_rng(4, "interaction", i))
            assert m.forward(prep).data.tobytes() == m.forward(alone).data.tobytes()
        plans = []
        real_gather = models.gather_rows
        monkeypatch.setattr(models, "gather_rows", lambda h, idx, tape=None: (
            plans.append(idx), real_gather(h, idx, tape))[1])

        def row_plans(x):
            """The row plans one forward over x gathers with, its edge
            plans left out."""
            plans.clear()
            m.forward(x)
            igs = [p.ig for p in (x if isinstance(x, list) else [x])]
            edges = [ig.src_plan for ig in igs] + [ig.dst_plan for ig in igs]
            return [plan for plan in plans if all(plan is not e for e in edges)]
        ones = [row_plans(prep) for prep in preps]
        pairs = [row_plans([preps[0], preps[2]]), row_plans([preps[2], preps[0]])]
        for a, b in itertools.product(range(len(preps)), repeat=2):
            assert (ones[a][0] is ones[b][0]) == (
                preps[a].ig.num_real == preps[b].ig.num_real)
        (real,) = ones[0]  # one graph: its rows are in order, real then global
        assert np.array_equal(real.ids, np.arange(8))
        assert row_plans([preps[0]]) == [real]  # a stack of one shares them
        place, real = pairs[0]
        assert all(x is y for x, y in zip(pairs[0], pairs[1]))
        assert real is not ones[0][0]
        assert place.ids.tolist() == [*range(8), 16, *range(8, 16), 16]
        assert real.ids.tolist() == [*range(8), *range(9, 17)]

    def test_training_forwards_pair_each_run_of_one_size(self):
        rng = np.random.default_rng(38)
        m = self.make()
        graphs = [random_graph(rng, n) for n in (8, 8, 8, 8, 5, 8)]
        for g in graphs:
            g.x = rng.standard_normal((g.n, 8))
        preps = m.prepare_dataset(graphs, run_seed=5)
        assert all(np.shares_memory(p.x, g.x) for p, g in zip(preps, graphs))
        forwards = m.forwards(preps, [3, 0, 5, 2], "train")
        assert [chunk for chunk, _ in forwards] == [[3, 0], [5, 2]]
        for chunk, x in forwards:
            assert x == [preps[i] for i in chunk]
            pair = m.forward(x, tape=Tape()).data  # on the edge chain
            for row, i in zip(pair, chunk):
                assert np.max(np.abs(row - m.forward(preps[i]).data[0])) < 1e-12
        # sorted stably by size (n=5 first), each size's graphs paired
        for indices, chunks in (([0, 2, 3], [[0, 2], [3]]), ([0, 4], [[4], [0]]),
                                ([4], [[4]]),
                                ([0, 1, 2, 3, 4, 5], [[4], [0, 1], [2, 3], [5]])):
            assert m.forwards(preps, indices, "train") == [
                (c, [preps[i] for i in c]) for c in chunks]

    def test_cached_blocks_are_the_params_tensors(self):
        m = self.make()
        for l, block in enumerate(m._layers):
            assert all(t is m.params[f"layer{l}.{name}"] for name, t in block.items())
        assert sum(map(len, m._layers)) == sum(
            name.startswith("layer") for name in m.params)


class TestExphormerBatch:
    """Exphormer's eval forwards score an eval chunk's graphs in stacks of
    one node count, dense stacks on dense attention blocks and sparse ones
    on the edge chain: each graph comes back once, and its logits match one
    edge-chain forward per graph within 1e-12."""

    @staticmethod
    def make(num_global_nodes=1, num_heads=2, structural_encoding="degree",
             hidden_dim=8, in_dim=6, expander_degree=4, **kw):
        cfg = ExphormerConfig(num_layers=2, num_heads=num_heads,
                              hidden_dim=hidden_dim, expander_degree=expander_degree,
                              num_global_nodes=num_global_nodes,
                              structural_encoding=structural_encoding, **kw)
        return Exphormer(cfg, in_dim=in_dim, num_classes=3, seed=6)

    @staticmethod
    def graphs(rng, sizes, d=6, p=0.0):
        out = []
        for i, n in enumerate(sizes):
            g = drop_edges(random_graph(rng, n, density=0.4), p, seed=i)
            g.x = rng.standard_normal((n, d))
            g.label = i % 3
            out.append(g)
        return out

    @staticmethod
    def assert_matches_per_graph(m, preps):
        """The eval forwards over preps; returns the graph indices of each
        stack, whether each ran on dense blocks, and the graph order."""
        forwards = m.forwards(preps, list(range(len(preps))), "eval")
        order = [i for chunk, _ in forwards for i in chunk]
        assert sorted(order) == list(range(len(preps)))
        layouts, real = [], models.sparse_attention

        def spy(ig, *args, **kwargs):
            layouts.append(isinstance(ig, models.DenseBlocks))
            return real(ig, *args, **kwargs)
        with mock.patch.object(models, "sparse_attention", spy):
            logits = np.concatenate([m.forward(x, mode="eval").data
                                     for _, x in forwards])
        assert logits.shape == (len(preps), 3)
        with mock.patch.object(models, "DENSE_FILL", 0):  # references on the chain
            for row, i in zip(logits, order):
                assert np.max(np.abs(row - m.forward(preps[i]).data[0])) < 1e-12
        for chunk, x in forwards:
            assert x == [preps[i] for i in chunk]
        return [chunk for chunk, _ in forwards], layouts[::m.cfg.num_layers], order

    # sizes that repeat out of order, and n < 3 (no expander edges)
    SIZES = (9, 5, 9, 2, 12, 5, 1, 9)

    @pytest.mark.parametrize("gl,heads,encoding", [
        (1, 2, "degree"), (0, 1, "degree"), (2, 8, "none"), (2, 1, "none")])
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_mixed_sizes_match_per_graph(self, gl, heads, encoding, p):
        rng = np.random.default_rng(60)
        m = self.make(gl, heads, encoding)
        preps = m.prepare_dataset(self.graphs(rng, self.SIZES, p=p), run_seed=1)
        if p == 1.0:
            assert all(prep.ig.tag_counts()["local"] == 0 for prep in preps)
        stacks, dense, order = self.assert_matches_per_graph(m, preps)
        # every graph is dense here, grouped by node count, sizes in order
        assert all(dense)
        assert [[preps[i].ig.num_real for i in stack] for stack in stacks] \
            == [[1], [2], [5, 5], [9, 9, 9], [12]]
        assert order == [6, 3, 1, 5, 0, 2, 7, 4]

    @pytest.mark.parametrize("per_stack", [0, 2])
    def test_entry_cap_splits_a_group(self, monkeypatch, per_stack):
        rng = np.random.default_rng(61)
        m = self.make(num_heads=4)
        preps = m.prepare_dataset(self.graphs(rng, (7,) * 5 + (4,)), run_seed=2)
        # room for per_stack graphs of 8 rows (7 real, 1 global) and 4 heads;
        # a cap below one graph still stacks one graph at a time
        monkeypatch.setattr(models, "DENSE_STACK_ENTRIES", 4 * 8 * 8 * per_stack + 1)
        stacks, _, order = self.assert_matches_per_graph(m, preps)
        sizes = [[preps[i].ig.num_real for i in stack] for stack in stacks]
        if per_stack == 2:
            assert sizes == [[4], [7, 7], [7, 7], [7]]
        else:
            assert sizes == [[4]] + [[7]] * 5
        assert order == [5, 0, 1, 2, 3, 4]

    def test_sparse_graph_takes_the_edge_chain(self):
        rng = np.random.default_rng(62)
        m = self.make()
        big = graph_from_edges(400, np.zeros((0, 2)), x=rng.standard_normal((400, 6)))
        small = self.graphs(rng, (6, 9))
        preps = m.prepare_dataset([small[0], big, small[1]], run_seed=3)
        ig = preps[1].ig
        assert ig.num_nodes ** 2 / ig.num_edges > 55  # edgeless n=400: about 57
        stacks, dense, order = self.assert_matches_per_graph(m, preps)
        assert stacks == [[0], [2], [1]] and dense == [True, True, False]
        assert order == [0, 2, 1]
        assert m.forwards(preps, [1], "eval") == [([1], [preps[1]])]

    def test_sparse_graphs_of_one_size_share_the_edge_chain(self):
        # edgeless n=130 with one expander cycle: N^2 / E = 16900 / 390, about
        # 43; one head leaves room for 3 such graphs a stack
        rng = np.random.default_rng(64)
        m = self.make(num_global_nodes=0, num_heads=1, expander_degree=2)
        preps = m.prepare_dataset(self.graphs(rng, (130,) * 4, p=1.0), run_seed=4)
        assert all(p.ig.num_nodes ** 2 > models.DENSE_FILL * p.ig.num_edges
                   for p in preps)
        stacks, dense, order = self.assert_matches_per_graph(m, preps)
        assert stacks == [[0, 1, 2], [3]] and dense == [False, False]

    def test_dense_blocks_are_eval_only(self):
        rng = np.random.default_rng(63)
        m = self.make(dropout=0.0, attention_dropout=0.0)
        preps = m.prepare_dataset(self.graphs(rng, (5, 5, 6)), run_seed=0)
        (_, stack), _ = m.forwards(preps, [0, 1, 2], "eval")
        assert stack == preps[:2]
        with mock.patch.object(models, "DENSE_FILL", 0):
            singles = np.concatenate([m.forward(p).data for p in stack])
        # dense blocks refuse a tape and train mode (below), so these forwards
        # run on the edge chain
        for kw in ({"mode": "train", "rng": seeded_rng(0)}, {"tape": Tape()}):
            assert np.max(np.abs(m.forward(stack, **kw).data - singles)) < 1e-12
        with pytest.raises(ContractError, match="eval mode only"):
            blocks = models.DenseBlocks(1, 2, np.array([0, 3]), IndexPlan([0, 1]))
            sparse_attention(blocks, Tensor(np.zeros((2, 8))), m._layers[0],
                             2, 0.0, 0.0, "eval", None, Tape())
        with pytest.raises(ShapeError):
            m.forward([])
        with pytest.raises(ShapeError, match="one size"):
            m.forward(preps)


@pytest.fixture
def attn_calls(monkeypatch):
    """A list that grows by one per sparse_attention call a model makes."""
    calls = []
    real = models.sparse_attention

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(models, "sparse_attention", counting)
    return calls


class TestAttnVariant:
    def make(self, placement, prob, seed=0):
        cfg = ResidualGCNConfig(num_gcn_layers=2, hidden_dim=6, mlp_hidden=5)
        variant = AttnVariantConfig(placement=placement, apply_probability=prob,
                                    num_heads=2, attention_dropout=0.0)
        return AttnResidualGCN(cfg, variant, in_dim=8, num_classes=2, seed=seed)

    def test_probability_zero_equals_plain_bit_exact(self):
        rng = np.random.default_rng(40)
        g = random_graph(rng, 8)
        variant = self.make("after_concat", 0.0)
        plain = ResidualGCN(ResidualGCNConfig(num_gcn_layers=2, hidden_dim=6,
                                              mlp_hidden=5),
                            in_dim=8, num_classes=2, seed=0)
        a = variant.forward(variant.prepare(g), mode="eval").data
        b = plain.forward(plain.prepare(g), mode="eval").data
        assert np.array_equal(a, b)

    def test_probability_one_counts_once_per_forward(self, attn_calls):
        rng = np.random.default_rng(41)
        g = random_graph(rng, 8)
        m = self.make("after_concat", 1.0)
        prep = m.prepare(g)
        stream = seeded_rng(0, "bernoulli")
        for expected in (1, 2, 3):
            m.forward(prep, mode="train", rng=stream)
            assert len(attn_calls) == expected

    def test_per_layer_placement_counts_each_layer(self, attn_calls):
        rng = np.random.default_rng(42)
        g = random_graph(rng, 8)
        m = self.make("after_each_gcn", 1.0)
        m.forward(m.prepare(g), mode="train", rng=seeded_rng(1))
        assert len(attn_calls) == m.cfg.num_gcn_layers

    def test_application_count_binomial(self, attn_calls):
        rng = np.random.default_rng(43)
        g = random_graph(rng, 6)
        cfg = ResidualGCNConfig(num_gcn_layers=1, hidden_dim=4, mlp_hidden=4)
        variant = AttnVariantConfig(placement="after_concat",
                                    apply_probability=0.5, num_heads=2,
                                    attention_dropout=0.0)
        m = AttnResidualGCN(cfg, variant, in_dim=6, num_classes=2, seed=1)
        prep = m.prepare(g)
        stream = seeded_rng(7, "apply")
        for _ in range(1000):
            m.forward(prep, mode="train", rng=stream)
        # 3 sigma of Binomial(1000, 0.5)
        assert abs(len(attn_calls) - 500) <= 3 * np.sqrt(1000 * 0.25)

    def test_eval_applies_when_probability_positive(self, attn_calls):
        rng = np.random.default_rng(44)
        g = random_graph(rng, 8)
        m = self.make("after_concat", 0.3)
        m.forward(m.prepare(g), mode="eval")
        assert len(attn_calls) == 1

    def test_batch_with_attention_is_a_contract_error(self):
        rng = np.random.default_rng(45)
        m = self.make("after_each_gcn", 0.5)
        batch = m.collate([m.prepare(random_graph(rng, 8)) for _ in range(2)])
        with pytest.raises(ContractError, match="one prepared graph per forward"):
            m.forward(batch, mode="eval")
        plain = self.make("after_concat", 0.0)
        batch = plain.collate([plain.prepare(random_graph(rng, 8))
                               for _ in range(2)])
        assert plain.forward(batch, mode="train", rng=seeded_rng(2)).shape == (2, 2)

    @pytest.mark.parametrize("placement", ["after_each_gcn", "after_concat"])
    def test_cached_blocks_are_the_params_tensors(self, placement):
        m = self.make(placement, 1.0)
        for key, block in m._attn.items():
            prefix = "attn_cat" if key == "cat" else f"attn{key}"
            assert all(t is m.params[f"{prefix}.{name}"] for name, t in block.items())
        assert sum(map(len, m._attn.values())) == sum(
            name.startswith("attn") for name in m.params)

    def test_width_must_divide_heads(self):
        cfg = ResidualGCNConfig(num_gcn_layers=3, hidden_dim=5, mlp_hidden=4)
        variant = AttnVariantConfig(placement="after_concat", num_heads=4)
        with pytest.raises(ConfigError):
            AttnResidualGCN(cfg, variant, in_dim=6, num_classes=2)


class TestLoneGraph:
    @pytest.mark.parametrize("placement", [None, "after_each_gcn", "after_concat"])
    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_forward_is_the_collated_batch_of_one(self, placement, mode):
        """A lone prepared graph runs on its own x and adj; logits and
        gradients are the bits of collate([prep])'s copied x and rebuilt runs."""
        rng = np.random.default_rng(46)
        cfg = ResidualGCNConfig(num_gcn_layers=2, hidden_dim=6, mlp_hidden=5,
                                dropout=0.5)
        if placement is None:
            m = ResidualGCN(cfg, in_dim=8, num_classes=3, seed=3)
        else:
            m = AttnResidualGCN(cfg, AttnVariantConfig(placement, num_heads=2),
                                in_dim=8, num_classes=3, seed=3)
        prep = m.prepare(random_graph(rng, 8, 0.4))
        batch = m.collate([prep])
        assert (batch.adj.counts, prep.adj.counts) == ([8], [8])
        if placement is not None:  # attention refuses a GCNBatch
            batch = dataclasses.replace(prep, x=batch.x, adj=batch.adj)
        results = []
        for inputs in (prep, batch):
            for param in m.params.values():
                param.grad = None
            tape = Tape()
            logits = m.forward(inputs, mode, tape, rng=seeded_rng(5, "forward"))
            backward(tape, cross_entropy(logits, [prep.label], tape))
            results.append([logits.data.tobytes()] + [
                param.grad.tobytes() for param in m.params.values()])
        assert results[0] == results[1]


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_train_forward_needs_an_rng(kind):
    """Without an rng every train-mode forward would draw the same dropout
    masks, and AttnResidualGCN the same insertion decision."""
    m = build_model(kind, in_dim=8, num_classes=2, seed=0)
    prep = m.prepare(random_graph(np.random.default_rng(47), 8))
    with pytest.raises(ContractError, match="train-mode forward needs an rng"):
        m.forward(prep, mode="train")
    assert m.forward(prep, mode="eval").shape == (1, 2)


@functools.cache
def _contract_models():
    """One model of each kind on 4 features and 3 classes, without dropout,
    so a train-mode forward draws nothing but the variant's Bernoulli."""
    gcn = ResidualGCNConfig(num_gcn_layers=2, hidden_dim=6, mlp_hidden=5,
                            dropout=0.0)
    exphormer = ExphormerConfig(num_layers=2, num_heads=2, hidden_dim=8,
                                expander_degree=4, num_global_nodes=1,
                                dropout=0.0, attention_dropout=0.0)

    def variant(placement, prob):
        return AttnResidualGCN(gcn, AttnVariantConfig(
            placement=placement, apply_probability=prob, num_heads=2,
            attention_dropout=0.0), in_dim=4, num_classes=3, seed=2)
    return {"residual_gcn": ResidualGCN(gcn, in_dim=4, num_classes=3, seed=2),
            "exphormer": Exphormer(exphormer, in_dim=4, num_classes=3, seed=2),
            "attn_p0.5": variant("after_each_gcn", 0.5),
            "attn_p0": variant("after_concat", 0.0)}


def _contract_graphs(seed, shapes):
    """One graph per (n, kind): kind "edges" has random edges, "edgeless"
    none, and "zero" random edges that all weigh 0."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i, (n, kind) in enumerate(shapes):
        g = random_graph(rng, n, density=0.0 if kind == "edgeless" else 0.4)
        if kind == "zero":
            g.weights[:] = 0.0
        g.x = rng.standard_normal((n, 4))
        g.label = i % 3
        graphs.append(g)
    return graphs


def _batch_mean_grads(m, prepared, forwards, total=None):
    """Summed parameter gradients of the forwards. With total, each forward
    backpropagates its share of the batch-mean loss, as train_epoch does;
    without, its mean loss, and the sum is scaled by 1 / len(forwards)."""
    for p in m.params.values():
        p.grad = None
    rng = seeded_rng(0, "contract")
    for chunk, x in forwards:
        tape = Tape()
        logits = m.forward(x, mode="train", tape=tape, rng=rng)
        backward(tape, cross_entropy(logits, [prepared[i].label for i in chunk],
                                     tape=tape, total=total))
    scale = 1.0 if total else 1.0 / len(forwards)
    return {k: p.grad * scale for k, p in m.params.items() if p.grad is not None}


class TestForwardsContract:
    """Generated graph lists through every model's forwards(): in both modes
    each index comes back exactly once; eval logits match one forward per
    graph (Exphormer's on the edge chain) within 1e-12; the training
    forwards, each weighing its share of the batch (pairs and lone graphs
    mixed), give the per-graph mean gradient within 1e-12. The drawn
    EVAL_CHUNK, DENSE_FILL and DENSE_STACK_ENTRIES cut lists into several
    chunks, put some Exphormer stacks on the edge chain and split some
    stacks."""

    @settings(max_examples=25, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 1 << 16),
           shapes=st.integers(1, 24).flatmap(lambda count: st.lists(
               st.tuples(st.sampled_from((1, 2, 3, 5, 8, 12)),
                         st.sampled_from(("edges", "edgeless", "zero"))),
               min_size=count, max_size=count)),
           keep=st.floats(0.3, 1.0),
           eval_chunk=st.sampled_from((models.EVAL_CHUNK, 3)),
           fill=st.sampled_from((models.DENSE_FILL, 1)),
           stack_entries=st.sampled_from((models.DENSE_STACK_ENTRIES, 2 * 2 * 6 * 6)))
    def test_forwards(self, seed, shapes, keep, eval_chunk, fill,
                      stack_entries):
        graphs = _contract_graphs(seed, shapes)
        order = np.random.default_rng(seed).permutation(len(graphs))
        indices = [int(i) for i in order[:max(1, round(keep * len(graphs)))]]
        with mock.patch.object(models, "EVAL_CHUNK", eval_chunk), \
                mock.patch.object(models, "DENSE_FILL", fill), \
                mock.patch.object(models, "DENSE_STACK_ENTRIES", stack_entries):
            for name, m in _contract_models().items():
                prepared = m.prepare_dataset(graphs, run_seed=seed)
                for mode in ("train", "eval"):
                    forwards = m.forwards(prepared, indices, mode)
                    named = [i for chunk, _ in forwards for i in chunk]
                    assert collections.Counter(named) == collections.Counter(indices)
                evals = m.forwards(prepared, indices, "eval")
                logits = [m.forward(x, mode="eval").data for _, x in evals]
                with mock.patch.object(models, "DENSE_FILL", 0):  # on the chain
                    for (chunk, _), rows in zip(evals, logits):
                        assert rows.shape == (len(chunk), 3)
                        for row, i in zip(rows, chunk):
                            single = m.forward(prepared[i], mode="eval").data[0]
                            assert np.max(np.abs(row - single)) < 1e-12, name
                forwards = m.forwards(prepared, indices, "train")
                batched = _batch_mean_grads(m, prepared, forwards, len(indices))
                singles = _batch_mean_grads(m, prepared,
                                            [([i], prepared[i]) for i in indices])
                assert batched.keys() == singles.keys()
                for key, g in batched.items():
                    assert np.max(np.abs(g - singles[key])) < 1e-12, (name, key)


class TestConfigValidation:
    def test_gcn_config(self):
        with pytest.raises(ConfigError):
            ResidualGCNConfig(num_gcn_layers=0)
        with pytest.raises(ConfigError):
            ResidualGCNConfig(dropout=1.0)

    def test_exphormer_config(self):
        with pytest.raises(ConfigError):
            ExphormerConfig(hidden_dim=10, num_heads=4)
        with pytest.raises(ConfigError):
            ExphormerConfig(expander_degree=3)
        with pytest.raises(ConfigError):
            ExphormerConfig(num_global_nodes=-1)
        with pytest.raises(ConfigError):
            ExphormerConfig(structural_encoding="laplacian")

    def test_variant_config(self):
        with pytest.raises(ConfigError):
            AttnVariantConfig(placement="before")
        with pytest.raises(ConfigError):
            AttnVariantConfig(apply_probability=1.5)
        for bad in (-0.1, 1.0):
            with pytest.raises(ConfigError, match="attention_dropout"):
                AttnVariantConfig(attention_dropout=bad)

    def test_unknown_model_kind(self):
        with pytest.raises(ConfigError):
            build_model("transformer", in_dim=4, num_classes=2)


_GCN_OPS = ["matmul", "sparse_aggregate", "relu"]
_ATTENTION_OPS = [
    "matmul", "matmul", "matmul", "gather_rows", "gather_rows", "mul",
    "sum_col_blocks", "scale", "softmax_segments", "dropout", "gather_rows",
    "expand_col_blocks", "mul", "segment_sum_rows", "matmul", "dropout", "add",
    "layer_norm", "matmul", "relu", "matmul", "dropout", "add", "layer_norm"]
_HEAD_OPS = ["dropout", "matmul", "relu", "dropout", "matmul"]


def _mlp_shapes(prefix, fan_in, hidden, out):
    return {f"{prefix}.w1": (fan_in, hidden), f"{prefix}.b1": (1, hidden),
            f"{prefix}.w2": (hidden, out), f"{prefix}.b2": (1, out)}


def _attention_shapes(prefix, w):
    shapes = {f"{prefix}.{proj}": (w, w) for proj in ("q", "k", "v", "out")}
    shapes.update({f"{prefix}.{name}": (1, w) for name in (
        "out_bias", "ln1_gain", "ln1_bias", "ffn_b2", "ln2_gain", "ln2_bias")})
    shapes.update({f"{prefix}.ffn_w1": (w, 2 * w), f"{prefix}.ffn_b1": (1, 2 * w),
                   f"{prefix}.ffn_w2": (2 * w, w)})
    return shapes


_GCN_SHAPES = {"gcn0.weight": (6, 64), "gcn1.weight": (64, 64),
               "gcn2.weight": (64, 64), **_mlp_shapes("mlp", 192, 64, 2)}


class TestModelStructure:
    """Each model at its default config, on one 6-node graph with 6 features
    and 2 classes: the ops a train-mode forward records, in order, and the
    parameters it owns. A refactor that must keep outputs bit-identical keeps
    both."""

    EXPECTED = {
        "residual_gcn": (
            _GCN_OPS * 3 + ["mean_pool_rows"] * 3 + ["concat_cols"] + _HEAD_OPS,
            _GCN_SHAPES),
        "exphormer": (
            ["matmul", "concat_rows"] + _ATTENTION_OPS * 2
            + ["gather_rows", "mean_pool_rows"] + _HEAD_OPS,
            {"input.w": (7, 64), "input.b": (1, 64), "global.emb": (1, 64),
             **_attention_shapes("layer0", 64), **_attention_shapes("layer1", 64),
             **_mlp_shapes("head", 64, 64, 2)}),
        "attn_residual_gcn": (
            _GCN_OPS * 3 + ["concat_cols"] + _ATTENTION_OPS + ["mean_pool_rows"]
            + _HEAD_OPS, {**_GCN_SHAPES, **_attention_shapes("attn_cat", 192)}),
    }

    @pytest.mark.parametrize("kind,forward_ops", [
        ("residual_gcn", 18), ("exphormer", 57), ("attn_residual_gcn", 40)])
    def test_tape_ops_and_params(self, kind, forward_ops):
        g = random_graph(np.random.default_rng(50), 6, density=0.5)
        m = build_model(kind, in_dim=6, num_classes=2, seed=0)
        prep = m.prepare_dataset([g], run_seed=0)[0]
        tape = Tape()
        logits = m.forward(prep, mode="train", tape=tape, rng=seeded_rng(0, "s"))
        ops, shapes = self.EXPECTED[kind]
        assert len(ops) == forward_ops
        assert [node.op for node in tape.nodes] == ops
        cross_entropy(logits, [prep.label], tape=tape)
        assert len(tape.nodes) == forward_ops + 1
        assert tape.nodes[-1].op == "cross_entropy"
        assert sorted((name, t.shape) for name, t in m.params.items()) \
            == sorted(shapes.items())
