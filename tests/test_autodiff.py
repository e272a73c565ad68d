"""Tensor op forwards, backward pass, and gradient checks vs finite differences."""

import math

import numpy as np
import pytest

from connectobench import (
    BlockAdjacency,
    ConfigError,
    ContractError,
    IndexPlan,
    ShapeError,
    Tape,
    Tensor,
    backward,
    cross_entropy,
    dropout,
    matmul,
    mean_pool_rows,
    softmax_segments,
    sparse_aggregate,
    sum_all,
)
from connectobench.autodiff import (
    add,
    concat_cols,
    concat_rows,
    expand_col_blocks,
    gather_rows,
    layer_norm,
    mul,
    relu,
    scale,
    segment_sum_rows,
    sum_col_blocks,
)
from connectobench.optim import AdamState, adam_step

from helpers import max_rel_err, numerical_grad


def check_op_gradient(build, tensors, tol=1e-6, seed=0):
    """Gradient-check an op via a fixed random projection of its output."""
    rng = np.random.default_rng(seed)
    proj = Tensor(rng.standard_normal(build().shape))

    def loss_fn(tape=None):
        return sum_all(mul(build(tape), proj, tape), tape)

    tape = Tape()
    loss = loss_fn(tape)
    backward(tape, loss)
    analytic = [t.grad for t in tensors]
    numeric = numerical_grad(lambda: loss_fn().item(), tensors)
    for a, n in zip(analytic, numeric):
        assert a is not None
        assert max_rel_err(a, n) < tol


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient(self):
        rng = np.random.default_rng(42)
        a = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        check_op_gradient(lambda tape=None: matmul(a, b, tape), [a, b])

    @pytest.mark.parametrize("seed", range(4))
    def test_bias_matches_separate_add_bit_for_bit(self, seed):
        """matmul(a, w, bias=b) gives the bytes that matmul then a broadcast
        add of b gave as two tape nodes, forward and every gradient."""
        rng = np.random.default_rng(seed)
        rows, inner, cols = (int(k) for k in rng.integers(1, 9, size=3))
        a, w, bias = (Tensor(rng.standard_normal(shape), requires_grad=True)
                      for shape in ((rows, inner), (inner, cols), (1, cols)))
        proj = Tensor(rng.standard_normal((rows, cols)))
        tape = Tape()
        out = matmul(a, w, tape, bias=bias)
        backward(tape, sum_all(mul(out, proj, tape), tape))
        g = np.ones((rows, cols)) * proj.data  # what reaches out in backward
        expected = [a.data @ w.data + bias.data, g @ w.data.T, a.data.T @ g,
                    g.sum(axis=0, keepdims=True)]
        for got, want in zip([out.data, a.grad, w.grad, bias.grad], expected):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2), (3, 1), (1, 4)])
    def test_bias_must_be_one_row_of_output_width(self, shape):
        bias = Tensor(np.zeros(shape))
        with pytest.raises(ShapeError, match=r"bias must be \(1, 3\)"):
            matmul(Tensor(np.ones((2, 4))), Tensor(np.ones((4, 3))), bias=bias)


class TestSparseAggregate:
    def test_empty_edges_is_zero(self):
        h = Tensor(np.ones((3, 2)))
        out = sparse_aggregate(
            BlockAdjacency.from_edges(np.zeros((0, 2), dtype=int), [], 3), h)
        assert np.array_equal(out.data, np.zeros((3, 2)))

    def test_single_edge(self):
        h = Tensor([[5.0], [7.0]])
        out = sparse_aggregate(BlockAdjacency.from_edges([[0, 1]], [1.0], 2), h)
        assert np.array_equal(out.data, [[0.0], [5.0]])

    def test_endpoint_out_of_range(self):
        with pytest.raises(IndexError):
            sparse_aggregate(BlockAdjacency.from_edges([[0, 3]], [1.0], 2),
                             Tensor(np.ones((2, 1))))

    def test_gradient_on_cycle(self):
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
        rng = np.random.default_rng(7)
        h = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        adj = BlockAdjacency.from_edges(edges, np.ones(4), 4)
        check_op_gradient(lambda tape=None: sparse_aggregate(adj, h, tape), [h])

    def test_full_dense_ones_matches_matmul(self):
        rng = np.random.default_rng(3)
        n, d = 6, 4
        h = Tensor(rng.standard_normal((n, d)))
        edges = np.array([(u, v) for u in range(n) for v in range(n)])
        out = sparse_aggregate(
            BlockAdjacency.from_edges(edges, np.ones(len(edges)), n), h)
        expected = np.ones((n, n)) @ h.data
        assert np.max(np.abs(out.data - expected)) < 1e-10

    def test_input_order_irrelevant(self):
        rng = np.random.default_rng(9)
        graphs = [(4, np.array([[2, 0], [0, 1], [1, 0], [3, 0]]))]
        for n in (2, 7, 15, 30):  # unique pairs, self-loops included
            pairs = np.argwhere(rng.random((n, n)) < 0.4)
            graphs.append((n, pairs[rng.permutation(len(pairs))]))
        for n, edges in graphs:
            w = rng.standard_normal(len(edges))
            h = Tensor(rng.standard_normal((n, 3)))
            shuffled = rng.permutation(len(edges))
            a = sparse_aggregate(BlockAdjacency.from_edges(edges, w, n), h).data
            b = sparse_aggregate(
                BlockAdjacency.from_edges(edges[shuffled], w[shuffled], n), h).data
            assert a.tobytes() == b.tobytes()


def _loop_apply(blocks, x, transpose=False):
    """The per-block product BlockAdjacency.apply replaces."""
    out, lo = np.empty_like(x), 0
    for b in blocks:
        hi = lo + b.shape[0]
        out[lo:hi] = (b.T if transpose else b) @ x[lo:hi]
        lo = hi
    return out


def _runs(blocks):
    """One run per block: an identity run for each np.eye block, else a
    stack of one."""
    return [(1, len(b), None if np.array_equal(b, np.eye(len(b))) else b[np.newaxis])
            for b in blocks]


class TestBlockAdjacency:
    @pytest.mark.parametrize("sizes", [[40] * 16, [1], [5, 5, 7, 5, 5],
                                       [3, 9, 9, 2, 2, 2], [6, 1, 6]])
    @pytest.mark.parametrize("cols", [1, 3, 64])
    def test_stacked_apply_matches_per_block_loop(self, sizes, cols):
        rng = np.random.default_rng(len(sizes) * 100 + cols)
        x = rng.standard_normal((sum(sizes), cols))
        # no identity block, then two identity blocks in every four
        for eyes in ([False] * len(sizes), [i % 4 < 2 for i in range(len(sizes))]):
            blocks = [np.eye(n) if eye else rng.standard_normal((n, n))
                      for n, eye in zip(sizes, eyes)]
            union = BlockAdjacency.union(BlockAdjacency(_runs([b])) for b in blocks)
            direct = BlockAdjacency(_runs(blocks))
            # a run is equal sizes, all identity or all not
            keys = list(zip(sizes, eyes))
            runs = [keys[0]] + [b for a, b in zip(keys, keys[1:]) if a != b]
            for adj in (union, direct):
                assert [(m, s is None) for _, m, s in adj.runs] == runs
                assert adj.rows == sum(sizes)
                for transpose in (False, True):
                    expected = _loop_apply(blocks, x, transpose)
                    assert adj.apply(x, transpose).tobytes() == expected.tobytes()

    def test_union_of_unions_keeps_block_order(self):
        rng = np.random.default_rng(4)
        blocks = [rng.standard_normal((n, n)) for n in (2, 2, 3, 3, 2)]
        x = rng.standard_normal((12, 4))
        nested = BlockAdjacency.union([BlockAdjacency(_runs(blocks[:3])),
                                       BlockAdjacency(_runs(blocks[3:]))])
        assert [(k, m) for k, m, _ in nested.runs] == [(2, 2), (2, 3), (1, 2)]
        assert [s.shape for _, _, s in nested.runs] == [(2, 2, 2), (2, 3, 3), (1, 2, 2)]
        assert np.array_equal(nested.apply(x), _loop_apply(blocks, x))

    def test_identity_runs_hold_no_array_and_nest_in_order(self):
        rng = np.random.default_rng(5)
        blocks = [np.eye(3), np.eye(3), rng.standard_normal((3, 3)), np.eye(2),
                  np.eye(2), rng.standard_normal((2, 2)), np.eye(2)]
        x = rng.standard_normal((17, 4))
        nested = BlockAdjacency.union([BlockAdjacency(_runs(blocks[:4])),
                                       BlockAdjacency([]),
                                       BlockAdjacency.union(
                                           [BlockAdjacency(_runs(blocks[4:6]))]),
                                       BlockAdjacency(_runs(blocks[6:]))])
        # an identity run holds no array
        assert [(k, m, s is None) for k, m, s in nested.runs] == [
            (2, 3, True), (1, 3, False), (2, 2, True), (1, 2, False), (1, 2, True)]
        assert nested.runs[1][2].tobytes() == blocks[2].tobytes()
        assert nested.runs[3][2].tobytes() == blocks[5].tobytes()
        assert nested.rows == 17
        for transpose in (False, True):
            assert nested.apply(x, transpose).tobytes() \
                == _loop_apply(blocks, x, transpose).tobytes()

    def test_counts_are_the_block_sizes_in_order(self):
        rng = np.random.default_rng(6)
        # identity (True) and other blocks, of equal and unequal sizes
        sizes = [3, 3, 2, 3, 4, 4, 1, 2, 2]
        eyes = [True, True, False, False, True, False, True, True, False]
        blocks = [np.eye(n) if eye else rng.standard_normal((n, n))
                  for n, eye in zip(sizes, eyes)]
        identity = BlockAdjacency([(1, 3, None)])
        nested = BlockAdjacency.union([
            BlockAdjacency(_runs(blocks[:3])), BlockAdjacency([]), identity,
            BlockAdjacency.union([
                BlockAdjacency(_runs(blocks[3:6])),
                BlockAdjacency.union(BlockAdjacency(_runs([b])) for b in blocks[6:])])])
        flat = BlockAdjacency.union(BlockAdjacency(_runs([b])) for b in blocks)
        for adj, expected in [(nested, sizes[:3] + [3] + sizes[3:]),
                              (flat, sizes), (BlockAdjacency(_runs(blocks)), sizes),
                              (identity, [3]), (BlockAdjacency([]), [])]:
            assert adj.counts == expected
            assert sum(adj.counts) == adj.rows

    def test_from_edges_always_builds_a_block(self):
        loops = np.stack([np.arange(4)] * 2, axis=1)
        eye = BlockAdjacency.from_edges(loops, np.ones(4), 4)
        assert [(k, m) for k, m, _ in eye.runs] == [(1, 4)] and eye.rows == 4
        assert eye.runs[0][2].tobytes() == np.eye(4)[np.newaxis].tobytes()
        # a weight off 1, a repeated loop, reversed loops, a zero-weight edge
        for edges, weights, diagonal in [
                (loops, [1.0, 1.0, 0.5, 1.0], [1.0, 1.0, 0.5, 1.0]),
                (loops[[0, 1, 1, 3]], np.ones(4), [1.0, 2.0, 0.0, 1.0]),
                (loops[::-1], np.ones(4), np.ones(4)),
                (np.vstack([[[0, 1]], loops]), [0.0, 1.0, 1.0, 1.0, 1.0], np.ones(4))]:
            (k, m, stack), = BlockAdjacency.from_edges(edges, weights, 4).runs
            assert (k, m, stack.shape) == (1, 4, (1, 4, 4))
            assert stack[0].tobytes() == np.diag(diagonal).tobytes()

    def test_union_row_mismatch_raises(self):
        union = BlockAdjacency.union([BlockAdjacency([(1, 2, None)]),
                                      BlockAdjacency([(1, 3, None)])])
        with pytest.raises(ShapeError, match="covers 5 rows"):
            sparse_aggregate(union, Tensor(np.ones((4, 2))))


class TestSoftmaxSegments:
    def test_uniform(self):
        out = softmax_segments(Tensor([[0.0], [0.0]]), [0, 0])
        assert np.allclose(out.data, [[0.5], [0.5]], atol=1e-15)

    def test_analytic(self):
        out = softmax_segments(Tensor([[math.log(2.0)], [0.0]]), [0, 0])
        assert np.allclose(out.data, [[2 / 3], [1 / 3]], atol=1e-12)

    def test_random_segments_sum_to_one(self):
        rng = np.random.default_rng(1)
        seg = np.repeat([0, 1, 2], [4, 2, 5])
        seg = rng.permutation(seg)
        scores = Tensor(rng.standard_normal((seg.size, 3)))
        out = softmax_segments(scores, seg)
        for s in range(3):
            sums = out.data[seg == s].sum(axis=0)
            assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        seg = np.array([0, 0, 1, 1, 1])
        scores = rng.standard_normal((5, 2))
        base = softmax_segments(Tensor(scores), seg).data
        shifted = scores.copy()
        shifted[seg == 0] += 7.5
        shifted[seg == 1] -= 3.25
        out = softmax_segments(Tensor(shifted), seg).data
        assert np.max(np.abs(out - base)) < 1e-12

    def test_empty_returns_empty(self):
        out = softmax_segments(Tensor(np.zeros((0, 2))), [])
        assert out.shape == (0, 2)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        seg = np.array([0, 0, 1, 1, 1, 2])
        scores = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
        check_op_gradient(lambda tape=None: softmax_segments(scores, seg, tape),
                          [scores])


# ids cases for the plan tests: sorted, unsorted, repeated runs, one id, none
PLAN_IDS = {
    "sorted": [0, 1, 1, 2, 4],
    "unsorted": [3, 0, 4, 1, 2],
    "repeated": [2, 0, 2, 2, 4, 0, 1, 4],
    "single": [3],
    "empty": [],
}


def _op_with_ids(name, a, ids, tape=None):
    if name == "gather_rows":
        return gather_rows(a, ids, tape)
    if name == "segment_sum_rows":
        return segment_sum_rows(a, ids, 5, tape)
    return softmax_segments(a, ids, tape)


class TestIndexPlan:
    def test_fields(self):
        plan = IndexPlan([2, 0, 2, 5, 0])
        assert plan.order.tolist() == [1, 4, 0, 2, 3]
        assert plan.starts.tolist() == [0, 2, 4]
        assert plan.counts.tolist() == [2, 2, 1]
        assert plan.keys.tolist() == [0, 2, 5]
        assert (plan.lo, plan.hi) == (0, 5)

    def test_sorted_ids_skip_the_sort(self):
        plan = IndexPlan([0, 0, 3, 7])
        assert plan.order is None
        assert plan.keys.tolist() == [0, 3, 7]
        assert plan.counts.tolist() == [2, 1, 1]

    def test_empty(self):
        plan = IndexPlan([])
        assert plan.ids.size == plan.starts.size == plan.keys.size == 0
        assert plan.hi < plan.lo

    def test_rejects_non_flat_ids(self):
        with pytest.raises(ShapeError):
            IndexPlan(np.zeros((2, 2), dtype=int))

    @pytest.mark.parametrize("case", list(PLAN_IDS))
    @pytest.mark.parametrize("name", ["gather_rows", "segment_sum_rows",
                                      "softmax_segments"])
    def test_plan_and_raw_ids_agree_bit_for_bit(self, name, case):
        ids = np.array(PLAN_IDS[case], dtype=np.int64)
        rng = np.random.default_rng(41)
        rows = 5 if name == "gather_rows" else ids.size
        data = rng.standard_normal((rows, 3))
        proj = rng.standard_normal(_op_with_ids(name, Tensor(data), ids).shape)
        results = []
        for form in (ids, IndexPlan(ids)):
            a = Tensor(data.copy(), requires_grad=True)
            tape = Tape()
            out = _op_with_ids(name, a, form, tape)
            backward(tape, sum_all(mul(out, Tensor(proj), tape), tape))
            results.append((out.data, a.grad))
        (out_raw, grad_raw), (out_plan, grad_plan) = results
        assert out_raw.tobytes() == out_plan.tobytes()
        assert grad_raw.tobytes() == grad_plan.tobytes()

    @pytest.mark.parametrize("bad", [[0, 5], [-1, 2]])
    def test_out_of_range_plan_raises(self, bad):
        a = Tensor(np.ones((5, 2)))
        with pytest.raises(IndexError):
            gather_rows(a, IndexPlan(bad))
        with pytest.raises(IndexError):
            segment_sum_rows(Tensor(np.ones((2, 2))), IndexPlan(bad), 5)

    def test_plan_length_must_match_rows(self):
        with pytest.raises(ShapeError):
            segment_sum_rows(Tensor(np.ones((3, 2))), IndexPlan([0, 1]), 2)
        with pytest.raises(ShapeError):
            softmax_segments(Tensor(np.ones((3, 2))), IndexPlan([0, 1]))


def _zero_fill_sums(plan: IndexPlan, rows: np.ndarray, n: int) -> np.ndarray:
    """Reference for the full-plan fast path: run sums added into zero rows."""
    out = np.zeros((n, rows.shape[1]))
    if plan.ids.size:
        out[plan.keys] += np.add.reduceat(plan.sort_rows(rows), plan.starts, axis=0)
    return out


# n target rows, and ids that name every row, miss some, or are empty
FAST_PATH_PLANS = {"covers_all": (3, [2, 0, 1, 2, 0, 1, 1]),
                   "misses_rows": (5, [3, 0, 3, 3]),
                   "empty": (3, [])}


class TestFullPlanFastPath:
    @pytest.mark.parametrize("case", list(FAST_PATH_PLANS))
    def test_gather_rows_backward_matches_zero_fill(self, case):
        n, ids = FAST_PATH_PLANS[case]
        plan = IndexPlan(ids)
        rng = np.random.default_rng(5)
        a = Tensor(rng.standard_normal((n, 4)), requires_grad=True)
        proj = rng.standard_normal((len(ids), 4))
        tape = Tape()
        out = gather_rows(a, plan, tape)
        backward(tape, sum_all(mul(out, Tensor(proj), tape), tape))
        assert a.grad.shape == (n, 4)
        assert np.array_equal(a.grad, _zero_fill_sums(plan, proj, n))

    @pytest.mark.parametrize("case", list(FAST_PATH_PLANS))
    def test_segment_sum_rows_forward_matches_zero_fill(self, case):
        n, ids = FAST_PATH_PLANS[case]
        plan = IndexPlan(ids)
        data = np.random.default_rng(6).standard_normal((len(ids), 4))
        out = segment_sum_rows(Tensor(data), plan, n)
        assert out.shape == (n, 4)
        assert np.array_equal(out.data, _zero_fill_sums(plan, data, n))


class TestColumnBlocks:
    SHAPES = [(0, 2, 3), (1, 1, 5), (7, 4, 16), (569, 4, 16), (9, 3, 8), (5, 6, 1)]

    @pytest.mark.parametrize("rows,blocks,width", SHAPES)
    def test_sum_col_blocks_matches_reshape_sum(self, rows, blocks, width):
        rng = np.random.default_rng(rows + blocks + width)
        # integer values sum exactly in any order, so the layout must match
        # bit for bit; random values must match to rounding
        ints = rng.integers(-50, 50, (rows, blocks * width)).astype(float)
        reals = rng.standard_normal((rows, blocks * width))
        for data, exact in ((ints, True), (reals, False)):
            ref = data.reshape(rows, blocks, width).sum(axis=2)
            out = sum_col_blocks(Tensor(data), blocks).data
            assert out.shape == ref.shape
            if exact:
                assert np.array_equal(out, ref)
            else:
                np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rows,blocks,width", SHAPES)
    def test_expand_col_blocks_backward_matches_reshape_sum(self, rows, blocks,
                                                            width):
        rng = np.random.default_rng(rows * blocks + width)
        ints = rng.integers(-50, 50, (rows, blocks * width)).astype(float)
        reals = rng.standard_normal((rows, blocks * width))
        for g, exact in ((ints, True), (reals, False)):
            a = Tensor(rng.standard_normal((rows, blocks)), requires_grad=True)
            tape = Tape()
            out = expand_col_blocks(a, width, tape)
            backward(tape, sum_all(mul(out, Tensor(g), tape), tape))
            ref = g.reshape(rows, blocks, width).sum(axis=2)
            if exact:
                assert np.array_equal(a.grad, ref)
            else:
                np.testing.assert_allclose(a.grad, ref, rtol=1e-12, atol=1e-12)


class TestTensor:
    def test_float64_matrix_is_stored_as_given(self):
        x = np.arange(6.0).reshape(2, 3)
        for data in (x, x.T):
            t = Tensor(data)
            assert t.data is data and np.shares_memory(t.data, x)

    @pytest.mark.parametrize("data,shape", [
        (np.arange(6).reshape(2, 3), (2, 3)),
        (np.arange(6, dtype=np.float32).reshape(3, 2), (3, 2)),
        ([[1, 2], [3, 4]], (2, 2)),
        (np.arange(4.0), (1, 4)),
        (np.float64(2.5), (1, 1)),
        (3, (1, 1)),
    ])
    def test_other_inputs_convert(self, data, shape):
        t = Tensor(data)
        assert t.data.dtype == np.float64 and t.shape == shape
        assert np.array_equal(t.data.ravel(), np.ravel(data))

    def test_three_d_input_raises(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2)))


class TestElementwiseAndShape:
    def test_mean_pool_rows(self):
        out = mean_pool_rows(Tensor([[2.0, 4.0], [4.0, 8.0]]))
        assert np.array_equal(out.data, [[3.0, 6.0]])

    @pytest.mark.parametrize("counts", [[40] * 16, [5, 5, 7, 5, 5], [1, 9, 1],
                                        [130, 2, 2, 300], [3]])
    @pytest.mark.parametrize("cols", [1, 2, 192])
    def test_mean_pool_rows_per_graph_matches_mean(self, counts, cols):
        rng = np.random.default_rng(sum(counts) + cols)
        x = rng.standard_normal((sum(counts), cols)) * 1e3
        a = Tensor(x, requires_grad=True)
        tape = Tape()
        out = mean_pool_rows(a, tape, counts=counts)
        bounds = np.cumsum([0] + counts)
        expected = np.concatenate([x[lo:hi].mean(axis=0, keepdims=True)
                                   for lo, hi in zip(bounds, bounds[1:])])
        assert np.array_equal(out.data, expected)
        g = rng.standard_normal(out.shape)
        (grad,) = tape.nodes[-1].grad_fn(g)
        assert np.array_equal(grad, np.concatenate(
            [np.repeat(g[i:i + 1], n, axis=0) / n for i, n in enumerate(counts)]))

    def test_mean_pool_rows_without_counts_is_mean(self):
        x = np.random.default_rng(8).standard_normal((51, 64))
        assert np.array_equal(mean_pool_rows(Tensor(x)).data,
                              x.mean(axis=0, keepdims=True))

    @pytest.mark.parametrize("rows,counts", [(0, None), (3, [3, 0]), (0, []),
                                             (4, [2, 1])])
    def test_mean_pool_rows_refuses_bad_counts(self, rows, counts):
        with pytest.raises(ShapeError, match="mean_pool_rows"):
            mean_pool_rows(Tensor(np.ones((rows, 2))), counts=counts)

    def test_relu(self):
        out = relu(Tensor([[1.0, -1.0, 0.0]]))
        assert np.array_equal(out.data, [[1.0, 0.0, 0.0]])

    def test_concat_cols_layout(self):
        a, b = Tensor([[1.0], [2.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(concat_cols([a, b]).data,
                              [[1.0, 3.0, 4.0], [2.0, 5.0, 6.0]])

    def test_block_ops_roundtrip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        expanded = expand_col_blocks(Tensor(a), 2)
        assert expanded.shape == (3, 8)
        summed = sum_col_blocks(expanded, 4)
        assert np.allclose(summed.data, 2 * a)

    @pytest.mark.parametrize("op,shapes", [
        ("add_same", [(3, 4), (3, 4)]),
        ("add_bias", [(3, 4), (1, 4)]),
        ("mul", [(3, 4), (3, 4)]),
    ])
    def test_binary_gradients(self, op, shapes):
        """add_bias: the bias of a linear layer, which matmul adds."""
        rng = np.random.default_rng(11)
        a = Tensor(rng.standard_normal(shapes[0]), requires_grad=True)
        b = Tensor(rng.standard_normal(shapes[1]), requires_grad=True)
        if op == "add_bias":
            w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            check_op_gradient(lambda tape=None: matmul(a, w, tape, bias=b),
                              [a, w, b])
            return
        fn = add if op == "add_same" else mul
        check_op_gradient(lambda tape=None: fn(a, b, tape), [a, b])

    def test_add_does_not_broadcast(self):
        with pytest.raises(ShapeError, match=r"add: incompatible shapes"):
            add(Tensor(np.ones((3, 4))), Tensor(np.ones((1, 4))))

    @pytest.mark.parametrize("name", [
        "relu", "scale", "concat_cols", "concat_rows", "gather_rows",
        "mean_pool_rows", "sum_col_blocks", "expand_col_blocks",
        "segment_sum_rows",
    ])
    def test_unary_gradients(self, name):
        rng = np.random.default_rng(13)
        # keep entries away from the ReLU kink so finite differences are clean
        a = Tensor(np.sign(rng.standard_normal((4, 6))) *
                   (0.2 + np.abs(rng.standard_normal((4, 6)))),
                   requires_grad=True)
        b = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        idx = np.array([0, 2, 2, 3, 1])
        seg = np.array([1, 0, 0, 2])
        builders = {
            "relu": lambda tape=None: relu(a, tape),
            "scale": lambda tape=None: scale(a, -1.75, tape),
            "concat_cols": lambda tape=None: concat_cols([a, b], tape),
            "concat_rows": lambda tape=None: concat_rows([a, b], tape),
            "gather_rows": lambda tape=None: gather_rows(a, idx, tape),
            "mean_pool_rows": lambda tape=None: mean_pool_rows(a, tape),
            "sum_col_blocks": lambda tape=None: sum_col_blocks(a, 3, tape),
            "expand_col_blocks": lambda tape=None: expand_col_blocks(a, 2, tape),
            "segment_sum_rows": lambda tape=None: segment_sum_rows(a, seg, 3, tape),
        }
        tensors = [a, b] if name.startswith("concat") else [a]
        check_op_gradient(builders[name], tensors)

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(17)
        a = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        gain = Tensor(1.0 + 0.1 * rng.standard_normal((1, 6)), requires_grad=True)
        bias = Tensor(0.1 * rng.standard_normal((1, 6)), requires_grad=True)
        check_op_gradient(lambda tape=None: layer_norm(a, gain, bias, tape),
                          [a, gain, bias], tol=1e-5)


class TestDropout:
    def test_eval_is_identity(self):
        h = Tensor(np.arange(6.0).reshape(2, 3))
        out = dropout(h, 0.3, "eval", seed=123)
        assert out is h

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            dropout(Tensor([[1.0]]), 1.0, "train")
        with pytest.raises(ConfigError):
            dropout(Tensor([[1.0]]), -0.1, "train")

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            dropout(Tensor([[1.0]]), 0.5, "predict")

    def test_train_survivor_count_and_scaling(self):
        h = Tensor(np.ones((1, 100_000)))
        out = dropout(h, 0.5, "train", seed=99)
        survivors = out.data[out.data != 0.0]
        # binomial oracle: 3 sigma around n*p with sigma = sqrt(n*p*(1-p))
        assert abs(survivors.size - 50_000) <= 3 * math.sqrt(100_000 * 0.25)
        assert np.all(survivors == 2.0)

    def test_same_seed_reproducible(self):
        h = Tensor(np.ones((4, 8)))
        a = dropout(h, 0.4, "train", seed=7).data
        b = dropout(h, 0.4, "train", seed=7).data
        assert np.array_equal(a, b)

    def test_gradient_with_fixed_seed(self):
        rng = np.random.default_rng(23)
        a = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        check_op_gradient(lambda tape=None: dropout(a, 0.4, "train", 55, tape), [a])


class TestCrossEntropy:
    def test_saturated_correct_class(self):
        loss = cross_entropy(Tensor([[1000.0, 0.0]]), [0])
        assert 0.0 <= loss.item() <= 1e-6

    def test_uniform_is_ln2(self):
        loss = cross_entropy(Tensor([[0.0, 0.0]]), [1])
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor([[0.0, 0.0]]), [2])

    def test_gradient(self):
        rng = np.random.default_rng(31)
        logits = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        labels = [0, 2, 1, 1]

        def loss_fn(tape=None):
            return cross_entropy(logits, labels, tape)

        tape = Tape()
        loss = loss_fn(tape)
        backward(tape, loss)
        numeric = numerical_grad(lambda: loss_fn().item(), [logits])
        assert max_rel_err(logits.grad, numeric[0]) < 1e-6

    @staticmethod
    def grad_and_loss(logits, labels, total=None):
        x = Tensor(logits, requires_grad=True)
        tape = Tape()
        loss = cross_entropy(x, labels, tape, total=total)
        backward(tape, loss)
        return x.grad, loss.item()

    @pytest.mark.parametrize("b,total", [(2, 16), (1, 8), (4, 4), (2, 5), (3, 7),
                                         (1, 5)])
    def test_total_weighs_the_mean_by_its_share(self, b, total):
        """A forward over b of total graphs gives b / total of its mean
        loss and gradients, bit for bit when b / total is a power of two."""
        rng = np.random.default_rng(b * 100 + total)
        logits, labels = rng.standard_normal((b, 3)), rng.integers(0, 3, b)
        mean_grad, mean = self.grad_and_loss(logits, labels)
        grad, loss = self.grad_and_loss(logits, labels, total)
        share = b / total
        if math.log2(share).is_integer():
            assert loss == mean * share
            assert np.array_equal(grad, mean_grad * share)
        else:
            assert loss == pytest.approx(mean * share, rel=1e-15)
            assert np.allclose(grad, mean_grad * share, rtol=1e-15, atol=0)

    def test_gradient_with_a_total_other_than_the_rows(self):
        rng = np.random.default_rng(32)
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        labels = [3, 0, 1]

        def loss_fn(tape=None):
            return cross_entropy(logits, labels, tape, total=7)

        tape = Tape()
        backward(tape, loss_fn(tape))
        numeric = numerical_grad(lambda: loss_fn().item(), [logits])
        assert max_rel_err(logits.grad, numeric[0]) < 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        tape = Tape()
        loss = sum_all(w, tape)
        backward(tape, loss)
        assert np.array_equal(w.grad, np.ones((2, 3)))

    def test_accumulation_doubles(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        tape = Tape()
        loss = sum_all(matmul(a, b, tape), tape)
        backward(tape, loss)
        first = a.grad.copy()
        backward(tape, loss)
        assert np.array_equal(a.grad, 2.0 * first)

    def test_non_scalar_rejected(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            backward(Tape(), t)

    def test_grad_lands_on_leaves_only(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        tape = Tape()
        hidden = matmul(a, w, tape)
        act = relu(hidden, tape)
        loss = sum_all(act, tape)
        backward(tape, loss)
        assert hidden.grad is None and act.grad is None and loss.grad is None
        mask = (hidden.data > 0).astype(float)
        assert np.array_equal(a.grad, mask @ w.data.T)
        assert np.array_equal(w.grad, a.data.T @ mask)

    def test_reused_tensor_accumulates_both_paths(self):
        a = Tensor([[2.0]], requires_grad=True)
        tape = Tape()
        out = add(mul(a, a, tape), a, tape)  # a^2 + a, d/da = 2a + 1
        backward(tape, sum_all(out, tape))
        assert np.allclose(a.grad, [[5.0]])

    def test_forward_outputs_stay_finite(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            h = Tensor(rng.standard_normal((4, 4)) * 100.0, requires_grad=True)
            w = Tensor(rng.standard_normal((4, 4)) * 100.0, requires_grad=True)
            tape = Tape()
            z = relu(matmul(h, w, tape), tape)
            z = softmax_segments(z, [0, 0, 1, 1], tape)
            loss = cross_entropy(mean_pool_rows(z, tape), [1], tape)
            assert np.isfinite(z.data).all()
            assert math.isfinite(loss.item())


class TestAdam:
    def test_zero_lr_is_identity(self):
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        p.grad = np.full((2, 2), 3.0)
        before = p.data.copy()
        adam_step({"p": p}, 0.0, AdamState())
        assert np.array_equal(p.data, before)

    def test_step_magnitude_bounded_by_lr(self):
        p = Tensor(np.zeros((1, 3)), requires_grad=True)
        p.grad = np.array([[10.0, -4.0, 0.5]])
        adam_step({"p": p}, 0.01, AdamState())
        # first Adam step moves each coordinate by ~lr against the grad sign
        assert np.allclose(p.data, [[-0.01, 0.01, -0.01]], atol=1e-6)

    def test_deterministic_given_state(self):
        def run():
            rng = np.random.default_rng(5)
            p = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            state = AdamState()
            for step in range(5):
                p.grad = np.full((3, 3), float(step + 1))
                adam_step({"p": p}, 0.05, state)
            return p.data

        assert np.array_equal(run(), run())
