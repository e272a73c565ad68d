"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

Ops execute eagerly on numpy and append a backward closure to an explicit
Tape. backward(tape, loss) replays the tape once in reverse and accumulates
gradients into every requires_grad tensor reachable from the loss. Passing
tape=None runs the same forward math without recording (evaluation mode).

All reductions that combine contributions from several graph edges use a
fixed (destination, source) ordering so repeated runs are bit-identical.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .rng import as_generator

_FLOAT64 = np.dtype(np.float64)
_LAYER_NORM_EPS = 1e-5  # added to each row's variance before the square root

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "matmul",
    "add",
    "mul",
    "scale",
    "relu",
    "concat_cols",
    "concat_rows",
    "gather_rows",
    "mean_pool_rows",
    "sum_all",
    "dropout",
    "cross_entropy",
    "sparse_aggregate",
    "segment_sum_rows",
    "softmax_segments",
    "sum_col_blocks",
    "expand_col_blocks",
    "layer_norm",
]


class Tensor:
    """Dense 2-D float64 array with gradient bookkeeping.

    Scalars are stored as (1, 1), flat sequences as a single row. grad stays
    None until backward() deposits an array of identical shape.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        # a float64 2-D ndarray is stored as given, as np.asarray would
        if type(data) is not np.ndarray or data.ndim != 2 or data.dtype != _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
            if data.ndim == 0:
                data = data.reshape(1, 1)
            elif data.ndim == 1:
                data = data.reshape(1, -1)
            elif data.ndim != 2:
                raise ShapeError(f"tensors are 2-D, got array of shape {data.shape}")
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a 1-element tensor, got {self.shape}")
        return float(self.data.flat[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class TapeNode:
    __slots__ = ("op", "inputs", "out", "grad_fn")

    def __init__(self, op, inputs, out, grad_fn):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.grad_fn = grad_fn


class Tape:
    """Ordered record of executed ops; every node's inputs precede it."""

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __len__(self) -> int:
        return len(self.nodes)


def _record(tape, op, inputs, out, grad_fn):
    if tape is not None and out.requires_grad:
        tape.nodes.append(TapeNode(op, inputs, out, grad_fn))


def _needs(*tensors: Tensor) -> bool:
    for t in tensors:
        if t.requires_grad:
            return True
    return False


def _int_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be a flat index array, got shape {arr.shape}")
    return arr


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate .grad on every leaf reachable from loss.

    A leaf is a requires_grad tensor that no node of this tape produced,
    such as a model parameter. Walks the tape in reverse, touching each
    recorded node at most once; gradients of intermediate tensors only flow
    through the walk, and their .grad is left as it was. Repeated calls
    accumulate in place into a leaf's existing .grad array, so two backward
    passes double the leaf gradients.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    flow: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    owners: dict[int, Tensor] = {id(loss): loss}
    for node in reversed(tape.nodes):
        k = id(node.out)
        gout = flow.pop(k, None)
        if gout is None:
            continue
        del owners[k]
        for t, g in zip(node.inputs, node.grad_fn(gout)):
            if g is None or not t.requires_grad:
                continue
            k = id(t)
            if k in flow:
                flow[k] = flow[k] + g
            else:
                flow[k] = g
                owners[k] = t
    for k, g in flow.items():
        t = owners[k]
        if t.grad is None:
            # copy: ops may pass gout through unchanged, and leaf grads must
            # never alias each other (callers scale them in place)
            t.grad = g.copy()
        else:
            t.grad += g


def matmul(a: Tensor, b: Tensor, tape: Tape | None = None,
           bias: Tensor | None = None) -> Tensor:
    """Matrix product a @ b, plus the 1 x b.cols row bias on every row if given:
    a linear layer as one tape node, which gives the bias its row-sum gradient."""
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dims disagree, {a.shape} x {b.shape}")
    prod = a.data @ b.data
    inputs = (a, b)
    if bias is not None:
        if bias.shape != (1, b.cols):
            raise ShapeError(f"matmul: bias must be (1, {b.cols}), got {bias.shape}")
        prod += bias.data
        inputs = (a, b, bias)
    out = Tensor(prod, requires_grad=_needs(*inputs))

    def grad_fn(g):
        return (
            g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None,
            g.sum(axis=0, keepdims=True) if bias is not None and bias.requires_grad
            else None,
        )

    _record(tape, "matmul", inputs, out, grad_fn)
    return out


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise sum of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data + b.data, requires_grad=_needs(a, b))

    def grad_fn(g):
        return (g if a.requires_grad else None, g if b.requires_grad else None)

    _record(tape, "add", (a, b), out, grad_fn)
    return out


def mul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data * b.data, requires_grad=_needs(a, b))

    def grad_fn(g):
        return (
            g * b.data if a.requires_grad else None,
            g * a.data if b.requires_grad else None,
        )

    _record(tape, "mul", (a, b), out, grad_fn)
    return out


def scale(a: Tensor, c: float, tape: Tape | None = None) -> Tensor:
    """Multiply every entry by the constant c."""
    c = float(c)
    out = Tensor(a.data * c, requires_grad=a.requires_grad)
    _record(tape, "scale", (a,), out, lambda g: (g * c,))
    return out


def relu(a: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0), requires_grad=a.requires_grad)
    mask = a.data > 0

    def grad_fn(g):
        return (g * mask,)

    _record(tape, "relu", (a,), out, grad_fn)
    return out


def _concat(parts: list[Tensor], axis: int, op: str, tape: Tape | None) -> Tensor:
    """Stack parts along axis (0: rows, 1: columns); the other axis must agree."""
    if not parts:
        raise ShapeError(f"{op} of an empty list")
    other = parts[0].shape[1 - axis]
    for p in parts:
        if p.shape[1 - axis] != other:
            raise ShapeError(f"{op}: {('column', 'row')[axis]} counts differ, "
                             f"{p.shape[1 - axis]} vs {other}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis),
                 requires_grad=_needs(*parts))
    sizes = [p.shape[axis] for p in parts]

    def grad_fn(g):
        # slicing by offset: np.split costs several times more per call
        grads = []
        offset = 0
        for p, size in zip(parts, sizes):
            part = g[offset:offset + size] if axis == 0 else g[:, offset:offset + size]
            grads.append(part if p.requires_grad else None)
            offset += size
        return tuple(grads)

    _record(tape, op, tuple(parts), out, grad_fn)
    return out


def concat_cols(parts: list[Tensor], tape: Tape | None = None) -> Tensor:
    """Stack tensors along the feature axis."""
    return _concat(parts, 1, "concat_cols", tape)


def concat_rows(parts: list[Tensor], tape: Tape | None = None) -> Tensor:
    """Stack tensors along the row axis."""
    return _concat(parts, 0, "concat_rows", tape)


def gather_rows(a: Tensor, idx, tape: Tape | None = None) -> Tensor:
    """Select rows of a by index, with repetition allowed.

    idx is an index vector or an IndexPlan of one.
    """
    plan = _as_plan(idx, "idx")
    if plan.lo < 0 or plan.hi >= a.rows:
        raise IndexError(f"gather_rows: index out of range for {a.rows} rows")
    out = Tensor(np.take(a.data, plan.ids, axis=0), requires_grad=a.requires_grad)

    def grad_fn(g):
        return (_sum_rows_by_id(plan, g, a.rows),)

    _record(tape, "gather_rows", (a,), out, grad_fn)
    return out


def _equal_runs(values) -> list[tuple[int, int]]:
    """(start, stop) of each run of equal consecutive values."""
    cuts = [i for i in range(1, len(values)) if values[i] != values[i - 1]]
    marks = [0, *cuts, len(values)] if values else []
    return list(zip(marks, marks[1:]))


def mean_pool_rows(a: Tensor, tape: Tape | None = None, counts=None) -> Tensor:
    """Average node rows into one 1 x d row per graph.

    Without counts all rows are one graph. With counts, graph i owns the next
    counts[i] rows and pools into row i. Every graph's row is what
    rows.mean(axis=0) gives, bit for bit: each run of graphs with equal
    counts is summed as one (graphs, rows, d) reduction over its middle axis
    and divided by the count, which is .mean's arithmetic. Pooled column
    blocks match their pooled concat bit for bit only at 2 or more columns
    a block: numpy sums a lone column pairwise.
    """
    counts = [a.rows] if counts is None else [int(c) for c in counts]
    if not counts or min(counts) < 1:
        raise ShapeError("mean_pool_rows: cannot pool a graph with no rows")
    if sum(counts) != a.rows:
        raise ShapeError(f"mean_pool_rows: counts cover {sum(counts)} rows, "
                         f"input has {a.rows}")
    cols = a.cols
    pooled = np.empty((len(counts), cols))
    row = 0
    for lo, hi in _equal_runs(counts):
        k, m = hi - lo, counts[lo]
        dest = pooled[lo:hi]
        np.add.reduce(a.data[row:row + k * m].reshape(k, m, cols), axis=1, out=dest)
        dest /= m
        row += k * m
    out = Tensor(pooled, requires_grad=a.requires_grad)
    divisors = np.array(counts, dtype=np.float64).reshape(-1, 1)

    def grad_fn(g):
        return (np.repeat(g / divisors, counts, axis=0),)

    _record(tape, "mean_pool_rows", (a,), out, grad_fn)
    return out


def sum_all(a: Tensor, tape: Tape | None = None) -> Tensor:
    """Sum of all entries, as a 1 x 1 tensor."""
    out = Tensor(np.array([[a.data.sum()]]), requires_grad=a.requires_grad)

    def grad_fn(g):
        return (np.full_like(a.data, g[0, 0]),)

    _record(tape, "sum_all", (a,), out, grad_fn)
    return out


def dropout(a: Tensor, rate: float, mode: str, seed=0,
            tape: Tape | None = None) -> Tensor:
    """Zero entries with probability rate and rescale survivors by 1/(1-rate).

    In eval mode this is the identity (the input tensor itself). seed may be
    an int or a numpy Generator; the same seed reproduces the same mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ConfigError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return a
    rng = as_generator(seed)
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    out = Tensor(a.data * mask, requires_grad=a.requires_grad)

    def grad_fn(g):
        return (g * mask,)

    _record(tape, "dropout", (a,), out, grad_fn)
    return out


def cross_entropy(logits: Tensor, labels, tape: Tape | None = None) -> Tensor:
    """Mean negative log-softmax of the true class over the batch rows."""
    labels = _int_vector(labels, "labels")
    b, c = logits.shape
    if labels.size != b:
        raise ShapeError(f"cross_entropy: {b} logit rows but {labels.size} labels")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise IndexError(f"cross_entropy: label out of range for {c} classes")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    ez_sum = ez.sum(axis=1, keepdims=True)
    logp = z - (zmax + np.log(ez_sum))  # z minus the row's log-sum-exp
    loss = -logp[np.arange(b), labels].mean()
    out = Tensor(np.array([[loss]]), requires_grad=logits.requires_grad)
    softmax = ez / ez_sum

    def grad_fn(g):
        grad = softmax.copy()
        grad[np.arange(b), labels] -= 1.0
        return (grad * (g[0, 0] / b),)

    _record(tape, "cross_entropy", (logits,), out, grad_fn)
    return out


class IndexPlan:
    """A flat index vector with its stable sort, worked out once.

    ids is the int64 vector. order is the stable permutation that sorts ids,
    or None when ids are already sorted. In sorted order the ids form runs of
    equal values: run r starts at starts[r], holds counts[r] entries and has
    the id keys[r]. lo and hi are the smallest and largest id (0 and -1 when
    there are none). gather_rows, segment_sum_rows and softmax_segments take
    a plan wherever they take an index vector, so a caller that reuses the
    same ids (an interaction graph's src and dst) sorts them once instead of
    on every call. Plans are plain data: no op differentiates them.
    """

    __slots__ = ("ids", "order", "starts", "counts", "keys", "lo", "hi")

    def __init__(self, ids, name: str = "idx"):
        ids = _int_vector(ids, name)
        self.ids = ids
        self.order = None
        if ids.size > 1 and not (ids[1:] >= ids[:-1]).all():
            self.order = np.argsort(ids, kind="stable")
            ids = ids[self.order]
        if ids.size == 0:
            self.starts = self.counts = self.keys = ids
            self.lo, self.hi = 0, -1
            return
        # run boundaries: 0, every index where the id changes, and the end
        cut = np.ones(ids.size + 1, dtype=bool)
        np.not_equal(ids[1:], ids[:-1], out=cut[1:-1])
        marks = np.flatnonzero(cut)
        self.starts = marks[:-1]
        self.counts = marks[1:] - marks[:-1]
        self.keys = ids[self.starts]
        self.lo, self.hi = int(ids[0]), int(ids[-1])

    @classmethod
    def concat(cls, plans, id_offsets, pos_offsets) -> IndexPlan:
        """The plan of the plans' ids in turn, plan i's shifted by
        id_offsets[i] and starting at position pos_offsets[i], built without
        a sort. Each plan's shifted ids must lie below the next one's, as a
        disjoint union's node ids do: then the parts' sorts in turn are the
        sort of the whole. A raw id vector is planned first."""
        parts = [(_as_plan(p, "idx"), o, e)
                 for p, o, e in zip(plans, id_offsets, pos_offsets)]
        out = cls.__new__(cls)
        out.ids = np.concatenate([p.ids + o for p, o, _ in parts])
        out.order = None if all(p.order is None for p, _, _ in parts) else np.concatenate(
            [(np.arange(p.ids.size) if p.order is None else p.order) + e
             for p, _, e in parts])
        out.starts = np.concatenate([p.starts + e for p, _, e in parts])
        out.counts = np.concatenate([p.counts for p, _, _ in parts])
        out.keys = np.concatenate([p.keys + o for p, o, _ in parts])
        out.lo, out.hi = (int(out.keys[0]), int(out.keys[-1])) if out.keys.size else (0, -1)
        return out

    def sort_rows(self, x: np.ndarray) -> np.ndarray:
        """The rows of x in the sorted order of the ids."""
        return x if self.order is None else np.take(x, self.order, axis=0)

    def unsort_rows(self, x: np.ndarray) -> np.ndarray:
        """Inverse of sort_rows: rows in sorted order back to the ids' order."""
        if self.order is None:
            return x
        out = np.empty_like(x)
        out[self.order] = x
        return out


def _as_plan(idx, name: str) -> IndexPlan:
    return idx if isinstance(idx, IndexPlan) else IndexPlan(idx, name)


def _sum_rows_by_id(plan: IndexPlan, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, cols) array: row k sums the rows[i] with ids[i] == k in sorted order,
    and is zero if no id is k. The caller checks that the ids lie in [0, n)."""
    sums = np.add.reduceat(plan.sort_rows(rows), plan.starts, axis=0)
    if plan.keys.size == n:  # every row is named: the run sums are the result
        return sums
    out = np.zeros((n, rows.shape[1]))
    out[plan.keys] = sums
    return out


class BlockAdjacency:
    """Block-diagonal linear operator over the rows of a stacked node matrix.

    Block b is a dense (n_b, n_b) matrix acting on the n_b rows that follow
    the rows of blocks 0..b-1. One block is one graph's adjacency; a batch of
    graphs is the union of their blocks, so graphs never exchange messages.
    runs holds one (k, m, stack) entry per run of k consecutive m x m blocks
    that are all the identity (graphs with no edges), or all not. stack is
    their (k, m, m) array, or None for an identity run: apply copies its
    rows and makes one batched product for each other run, so a batch of
    graphs that share a parcellation is one product. counts holds each
    block's node rows in order, and rows their sum. Blocks are plain data:
    sparse_aggregate differentiates only its input rows.
    """

    __slots__ = ("runs", "rows", "counts")

    def __init__(self, blocks):
        runs = []
        for b in blocks:
            b = np.asarray(b, dtype=np.float64)
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise ShapeError(f"adjacency blocks must be square, got {b.shape}")
            # the identity: ones on the diagonal and no other nonzero entry
            eye = bool(np.count_nonzero(b) == len(b) and (b.diagonal() == 1.0).all())
            runs.append((1, len(b), None if eye else b[np.newaxis]))
        self._set_runs(runs)

    def _set_runs(self, runs) -> None:
        """Keep runs, merging neighbours of equal m and kind."""
        keys = [(m, s is None) for _, m, s in runs]
        self.runs = []
        for lo, hi in _equal_runs(keys):
            _, m, stack = runs[lo]
            if hi - lo > 1 and stack is not None:
                stack = np.concatenate([r[2] for r in runs[lo:hi]])
            self.runs.append((sum(r[0] for r in runs[lo:hi]), m, stack))
        self.counts = [m for k, m, _ in self.runs for _ in range(k)]
        self.rows = sum(self.counts)

    @classmethod
    def from_edges(cls, edges, weights, n: int) -> "BlockAdjacency":
        """One n x n block with entry [v, u] = summed weight of edges (u -> v),
        added in edge order; a validated graph's pairs are unique, so its
        block does not depend on that order. Only numpy refuses an endpoint >= n."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        weights = np.asarray(weights, dtype=np.float64)
        if len(edges) == n and (edges == np.arange(n)[:, None]).all() \
                and (weights == 1.0).all():
            # unit self-loops 0..n-1 in order, an edgeless graph's normalized
            # adjacency: the identity run, with no block built
            out = cls.__new__(cls)
            out.runs, out.counts, out.rows = [(1, n, None)], [n], n
            return out
        block = np.zeros((n, n))
        np.add.at(block, (edges[:, 1], edges[:, 0]), weights)
        return cls([block])

    @classmethod
    def union(cls, ops) -> "BlockAdjacency":
        """Disjoint union: the blocks of every operator, in order."""
        out = cls.__new__(cls)
        out._set_runs([r for op in ops for r in op.runs])
        return out

    def apply(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """A_b @ x_b (or A_b^T @ x_b) for every block b of the stacked rows x.

        Each block's product is the same gemm a 2-D A_b @ x_b makes, so the
        result is bit-equal to a loop over the blocks. An identity run's rows
        are copied, which gives the product's bits up to the sign of a zero.
        """
        out = np.empty(x.shape)
        cols, hi = x.shape[1], 0
        for k, m, s in self.runs:
            lo, hi = hi, hi + k * m
            if s is None:
                out[lo:hi] = x[lo:hi]
            else:
                np.matmul(s.transpose(0, 2, 1) if transpose else s,
                          x[lo:hi].reshape(k, m, cols), out=out[lo:hi].reshape(k, m, cols))
        return out


def sparse_aggregate(adj: BlockAdjacency, h: Tensor, tape: Tape | None = None
                     ) -> Tensor:
    """Weighted neighbor sum per block: out[v] = sum over edges (u -> v) of w * h[u].

    Computes A_b @ h_b for every block forward and A_b^T @ g_b backward, on
    adjacency blocks built once, so no edge list is sorted per call.
    Differentiable in h only.
    """
    if adj.rows != h.rows:
        raise ShapeError(f"sparse_aggregate: operator covers {adj.rows} rows, "
                         f"input has {h.rows}")
    out = Tensor(adj.apply(h.data), requires_grad=h.requires_grad)
    _record(tape, "sparse_aggregate", (h,), out,
            lambda g: (adj.apply(g, transpose=True),))
    return out


def segment_sum_rows(a: Tensor, segments, num_segments: int,
                     tape: Tape | None = None) -> Tensor:
    """Sum rows of a into num_segments buckets given per-row segment ids.

    segments is an id vector or an IndexPlan of one.
    """
    plan = _as_plan(segments, "segments")
    if plan.ids.size != a.rows:
        raise ShapeError(f"segments length {plan.ids.size} != rows {a.rows}")
    if plan.lo < 0 or plan.hi >= num_segments:
        raise IndexError(f"segment id out of range for {num_segments} segments")
    out = Tensor(_sum_rows_by_id(plan, a.data, num_segments),
                 requires_grad=a.requires_grad)

    def grad_fn(g):
        return (np.take(g, plan.ids, axis=0),)

    _record(tape, "segment_sum_rows", (a,), out, grad_fn)
    return out


def softmax_segments(scores: Tensor, segments, tape: Tape | None = None) -> Tensor:
    """Softmax within each segment, independently per column.

    Rows are items (edges), columns are independent score sets (attention
    heads). Each segment's outputs sum to 1 per column; shifting all scores
    in a segment by a constant leaves the result unchanged. segments is an
    id vector or an IndexPlan of one.
    """
    plan = _as_plan(segments, "segments")
    if plan.ids.size != scores.rows:
        raise ShapeError(f"segments length {plan.ids.size} != rows {scores.rows}")
    starts, counts = plan.starts, plan.counts
    v = plan.sort_rows(scores.data)
    seg_max = np.maximum.reduceat(v, starts, axis=0)
    e = np.exp(v - np.repeat(seg_max, counts, axis=0))
    denom = np.add.reduceat(e, starts, axis=0)
    y_sorted = e / np.repeat(denom, counts, axis=0)
    out = Tensor(plan.unsort_rows(y_sorted), requires_grad=scores.requires_grad)

    def grad_fn(g):
        gs = plan.sort_rows(g)
        dot = np.add.reduceat(y_sorted * gs, starts, axis=0)
        return (plan.unsort_rows(y_sorted * (gs - np.repeat(dot, counts, axis=0))),)

    _record(tape, "softmax_segments", (scores,), out, grad_fn)
    return out


@functools.lru_cache(maxsize=32)
def _block_indicator(num_blocks: int, width: int) -> np.ndarray:
    """0/1 (num_blocks * width, num_blocks) matrix: x @ it sums each column block."""
    indicator = np.repeat(np.eye(num_blocks), width, axis=0)
    indicator.flags.writeable = False
    return indicator


def sum_col_blocks(a: Tensor, num_blocks: int, tape: Tape | None = None) -> Tensor:
    """Sum each contiguous block of columns down to one column per block."""
    if num_blocks < 1 or a.cols % num_blocks != 0:
        raise ShapeError(f"{a.cols} columns not divisible into {num_blocks} blocks")
    width = a.cols // num_blocks
    out = Tensor(a.data @ _block_indicator(num_blocks, width),
                 requires_grad=a.requires_grad)

    def grad_fn(g):
        return (np.repeat(g, width, axis=1),)

    _record(tape, "sum_col_blocks", (a,), out, grad_fn)
    return out


def expand_col_blocks(a: Tensor, width: int, tape: Tape | None = None) -> Tensor:
    """Repeat every column width times (inverse layout of sum_col_blocks)."""
    if width < 1:
        raise ShapeError(f"block width must be >= 1, got {width}")
    out = Tensor(np.repeat(a.data, width, axis=1), requires_grad=a.requires_grad)
    indicator = _block_indicator(a.cols, width)

    def grad_fn(g):
        return (g @ indicator,)

    _record(tape, "expand_col_blocks", (a,), out, grad_fn)
    return out


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor,
               tape: Tape | None = None) -> Tensor:
    """Normalize each row to zero mean / unit variance, then scale and shift."""
    if gain.shape != (1, a.cols) or bias.shape != (1, a.cols):
        raise ShapeError(
            f"layer_norm gain/bias must be (1, {a.cols}), got {gain.shape} / {bias.shape}")
    # np.add.reduce(x, axis=1) / cols is x.mean(axis=1)'s (and np.var's) arithmetic
    cols = a.cols
    centred = a.data - np.add.reduce(a.data, axis=1, keepdims=True) / cols
    y = np.square(centred)
    var = np.add.reduce(y, axis=1, keepdims=True) / cols
    inv = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    xhat = np.multiply(centred, inv, out=centred)
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor(y, requires_grad=_needs(a, gain, bias))

    def grad_fn(g):
        ga = ggain = gbias = None
        if gain.requires_grad:
            ggain = np.add.reduce(g * xhat, axis=0, keepdims=True)
        if bias.requires_grad:
            gbias = np.add.reduce(g, axis=0, keepdims=True)
        if a.requires_grad:
            dxhat = g * gain.data
            m1 = np.add.reduce(dxhat, axis=1, keepdims=True) / cols
            prod = dxhat * xhat
            m2 = np.add.reduce(prod, axis=1, keepdims=True) / cols
            dxhat -= m1
            dxhat -= np.multiply(xhat, m2, out=prod)
            ga = np.multiply(dxhat, inv, out=dxhat)
        return ga, ggain, gbias

    _record(tape, "layer_norm", (a, gain, bias), out, grad_fn)
    return out
