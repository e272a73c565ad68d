"""Graph classifiers over connectome-style graphs.

Three models share the autodiff core:

* ResidualGCN: a stack of graph convolutions whose per-layer outputs are
  mean-pooled over nodes, concatenated, and classified by a small MLP.
* Exphormer: a sparse graph transformer attending over an interaction graph
  made of local edges, random-expander edges, and global virtual nodes, so
  the attention edge budget stays O(|V| + |E|).
* AttnResidualGCN: ResidualGCN with a sparse attention block inserted after
  each convolution or after the concatenation, applied per forward with a
  configured probability.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    BlockAdjacency,
    IndexPlan,
    Tape,
    Tensor,
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
from .data import ConnectomeGraph
from .errors import ConfigError, ContractError, ShapeError
from .rng import as_generator, seeded_rng

TAG_LOCAL, TAG_EXPANDER, TAG_GLOBAL, TAG_SELF = 0, 1, 2, 3
_TAG_NAMES = {TAG_LOCAL: "local", TAG_EXPANDER: "expander",
              TAG_GLOBAL: "global", TAG_SELF: "self"}

# An Exphormer eval forward over k graphs of N nodes each (global ones
# included) runs on dense attention blocks when its k x N x N score stack
# holds at most DENSE_FILL entries per interaction edge, and on the edge
# chain otherwise. Each eval forward holds at most DENSE_STACK_ENTRIES score
# entries (heads x N x N a graph), or one graph. README's "How a mini-batch
# runs" gives the measurements behind both values.
DENSE_FILL = 40
DENSE_STACK_ENTRIES = 1 << 16
# Graphs per evaluation chunk for models that score several graphs in one
# forward. Chunks of 64 measured slower at both GCN benchmark shapes, and a
# whole split in one forward would hold tens of MB of activations. Exphormer
# cuts a chunk into smaller stacks (DENSE_STACK_ENTRIES).
EVAL_CHUNK = 16
# Bytes of Python objects a parameter array holds besides its data (its
# Tensor, the ndarray header, its name and dict slot): about 300 measured.
_ARRAY_BYTES = 256


def _refuse_layer_count(key: str, layers: int, arrays: int, floats: int) -> None:
    """ConfigError naming key when one layer of `arrays` parameter arrays
    holding `floats` float64s fits in physical memory but `layers` do not,
    raised as a config is built, before any parameter is allocated. A layer
    too wide to fit alone is left to _ParamBuilder's shape error."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return
    layer = arrays * _ARRAY_BYTES + 8 * floats
    if layer <= memory < layers * layer:
        raise ConfigError(f"{key} {layers} needs about {layers * layer} bytes of "
                          f"parameters, over the {memory} bytes of physical memory")


@dataclass(frozen=True)
class ResidualGCNConfig:
    num_gcn_layers: int = 3
    hidden_dim: int = 64
    mlp_hidden: int = 64
    dropout: float = 0.1
    use_edge_weights: bool = True

    def __post_init__(self) -> None:
        if self.num_gcn_layers < 1:
            raise ConfigError("num_gcn_layers must be >= 1")
        if self.hidden_dim < 1 or self.mlp_hidden < 1:
            raise ConfigError("hidden dims must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        # a layer's hidden x hidden weight and its hidden rows of the MLP head
        _refuse_layer_count("num_gcn_layers", self.num_gcn_layers, 1,
                            self.hidden_dim * (self.hidden_dim + self.mlp_hidden))


@dataclass(frozen=True)
class ExphormerConfig:
    num_layers: int = 2
    num_heads: int = 4
    hidden_dim: int = 64
    dropout: float = 0.1
    attention_dropout: float = 0.3
    expander_degree: int = 4
    num_global_nodes: int = 1
    structural_encoding: str = "degree"  # "none" or "degree"

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ConfigError("num_layers must be >= 1")
        if self.num_heads < 1 or self.hidden_dim % self.num_heads != 0:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} must divide into {self.num_heads} heads")
        if self.expander_degree < 2 or self.expander_degree % 2 != 0:
            raise ConfigError("expander_degree must be even and >= 2")
        if self.num_global_nodes < 0:
            raise ConfigError("num_global_nodes must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.attention_dropout < 1.0:
            raise ConfigError(
                f"attention_dropout must be in [0, 1), got {self.attention_dropout}")
        if self.structural_encoding not in ("none", "degree"):
            raise ConfigError("structural_encoding must be 'none' or 'degree'")
        # an attention block: 13 arrays, 8 x hidden^2 + 8 x hidden floats
        _refuse_layer_count("num_layers", self.num_layers, 13,
                            8 * self.hidden_dim * (self.hidden_dim + 1))


@dataclass(frozen=True)
class AttnVariantConfig:
    placement: str = "after_concat"  # or "after_each_gcn"
    apply_probability: float = 1.0
    num_heads: int = 4
    attention_dropout: float = 0.3

    def __post_init__(self) -> None:
        if self.placement not in ("after_each_gcn", "after_concat"):
            raise ConfigError(
                "placement must be 'after_each_gcn' or 'after_concat'")
        if not 0.0 <= self.apply_probability <= 1.0:
            raise ConfigError("apply_probability must be in [0, 1]")
        if self.num_heads < 1:
            raise ConfigError("num_heads must be >= 1")
        if not 0.0 <= self.attention_dropout < 1.0:
            raise ConfigError(
                f"attention_dropout must be in [0, 1), got {self.attention_dropout}")

    def width(self, gcn: ResidualGCNConfig) -> int:
        """Feature width the attention blocks see on top of the GCN stack gcn:
        one layer's output, or the concatenation of all of them. Raises
        ConfigError unless num_heads divides it."""
        width = gcn.hidden_dim
        if self.placement == "after_concat":
            width *= gcn.num_gcn_layers
        if width % self.num_heads != 0:
            raise ConfigError(f"attention width {width} ({self.placement}) not "
                              f"divisible by {self.num_heads} heads")
        return width


@dataclass(eq=False)
class InteractionGraph:
    """Directed attention edge list with per-edge provenance tags.

    Edges are sorted by (dst, src) and deduplicated; when the same directed
    pair arises from several components, the tag priority is
    local > expander > global (self-loops never collide). src_plan and
    dst_plan hold the sort of src and dst, built on first use and kept, so
    the attention ops never sort a graph's ids twice.
    """

    num_real: int
    num_global: int
    src: np.ndarray   # (E,) int64
    dst: np.ndarray   # (E,) int64
    tags: np.ndarray  # (E,) int64

    @functools.cached_property
    def src_plan(self) -> IndexPlan:
        return IndexPlan(self.src, "src")

    @functools.cached_property
    def dst_plan(self) -> IndexPlan:
        return IndexPlan(self.dst, "dst")

    @classmethod
    def union(cls, igs) -> InteractionGraph:
        """The disjoint union of igs: each graph's arrays, its node ids
        shifted by the nodes before it, concatenated. One graph is its own
        union."""
        if len(igs) == 1:
            return igs[0]
        nodes = np.cumsum([0] + [ig.num_nodes for ig in igs[:-1]])
        src, dst = (np.concatenate([getattr(ig, end) + o for ig, o in zip(igs, nodes)])
                    for end in ("src", "dst"))
        return cls(sum(ig.num_real for ig in igs), sum(ig.num_global for ig in igs),
                   src, dst, np.concatenate([ig.tags for ig in igs]))

    @property
    def num_nodes(self) -> int:
        return self.num_real + self.num_global

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    def tag_counts(self) -> dict[str, int]:
        return {name: int(np.count_nonzero(self.tags == tag))
                for tag, name in _TAG_NAMES.items()}


@dataclass(eq=False)
class DenseBlocks:
    """The interaction graphs of k stacked graphs of m rows each, laid out
    on a dense (k, m, m) score stack.

    pos is each edge's position g * m * m + dst * m + src in the stack,
    edges in (graph, dst, src) order. dst_plan holds each edge's
    destination as a stacked row g * m + dst: one softmax segment per
    (graph, dst).
    """

    k: int
    m: int
    pos: np.ndarray
    dst_plan: IndexPlan


@functools.lru_cache(maxsize=256)
def _stack_rows(k: int, n: int, num_global: int):
    """(place, real): the row plans of k stacked graphs, each n real rows then
    num_global global rows. place picks those rows from concat_rows([the k * n
    real rows, the global rows]); one graph's are already in order (None).
    real picks the rows to pool (None without global rows). No op writes to
    a plan, so forwards of one (k, n) share them."""
    if not num_global:
        return None, None
    rows = np.arange(k * (n + num_global)).reshape(k, -1)
    glob = np.broadcast_to(np.arange(k * n, k * n + num_global), (k, num_global))
    place = np.hstack([np.arange(k * n).reshape(k, n), glob]).ravel()
    return (IndexPlan(place) if k > 1 else None), IndexPlan(rows[:, :n].ravel())


def node_degrees(g: ConnectomeGraph) -> np.ndarray:
    """Undirected degree of every node (edge weights ignored)."""
    return np.bincount(g.edges.ravel(), minlength=g.n)


def normalized_adjacency(g: ConnectomeGraph, use_edge_weights: bool = True):
    """Symmetric-normalized adjacency with self-loops, as a directed edge list.

    Returns (edges, weights) with edge (u -> v) carrying
    w(u,v) / sqrt(dhat(u) * dhat(v)) where dhat is degree-plus-self-loop; with
    no edges this is exactly the identity.
    """
    n = g.n
    u, v = g.edges[:, 0], g.edges[:, 1]
    w = g.weights if use_edge_weights else np.ones(g.num_edges)
    deg = np.ones(n)
    np.add.at(deg, u, w)
    np.add.at(deg, v, w)
    loops = np.arange(n, dtype=np.int64)
    src = np.concatenate([u, v, loops])
    dst = np.concatenate([v, u, loops])
    wts = np.concatenate([w, w, np.ones(n)]) / np.sqrt(deg[src] * deg[dst])
    return np.stack([src, dst], axis=1), wts


def gcn_layer(adj: BlockAdjacency, h: Tensor, weight: Tensor,
              tape: Tape | None = None) -> Tensor:
    """One graph convolution: ReLU of the normalized-adjacency propagation."""
    return relu(sparse_aggregate(adj, matmul(h, weight, tape), tape), tape)


def build_expander(n: int, degree: int, seed=0) -> np.ndarray:
    """Union of degree/2 random Hamiltonian cycles on [0, n).

    Returns deduplicated undirected edges (u < v), sorted. The result is
    always connected and every node has degree between 2 and `degree`.
    """
    if degree < 2 or degree % 2 != 0:
        raise ConfigError(f"expander degree must be even and >= 2, got {degree}")
    if n < 3:
        raise ConfigError(f"expander needs n >= 3 nodes, got {n}")
    rng = as_generator(seed)
    # one key u * n + v per pair u < v; the marked keys read out sorted, unique
    seen = np.zeros(n * n, dtype=bool)
    missing = n * (n - 1) // 2
    for _ in range(degree // 2):
        perm = rng.permutation(n)
        nxt = np.concatenate((perm[1:], perm[:1]))
        keys = np.minimum(perm, nxt) * n + np.maximum(perm, nxt)
        missing -= np.count_nonzero(~seen[keys])  # a cycle's n pairs differ
        seen[keys] = True
        if not missing:  # complete: no further cycle can add a pair
            break
    keys = np.flatnonzero(seen)
    return np.stack([keys // n, keys % n], axis=1)


def _interaction_graph(g: ConnectomeGraph, num_global: int = 0, srcs=(),
                       dsts=(), tags=()) -> InteractionGraph:
    """g's local edges in both directions, the given extra edges, and a
    self-loop on each of the g.n + num_global nodes."""
    u, v = g.edges[:, 0], g.edges[:, 1]
    loops = np.arange(g.n + num_global, dtype=np.int64)
    src = np.concatenate([u, v, *srcs, loops])
    dst = np.concatenate([v, u, *dsts, loops])
    tag = np.concatenate([np.full(2 * u.size, TAG_LOCAL), *tags,
                          np.full(loops.size, TAG_SELF)])
    total = loops.size
    # one key orders the edges by (dst, src, tag); the first entry of each
    # (dst, src) pair carries its lowest tag, so local > expander > global
    key = np.sort((dst * total + src) * 4 + tag)
    pair = key >> 2
    first = np.ones(key.size, dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    pair = pair[first]
    return InteractionGraph(num_real=g.n, num_global=num_global,
                            src=pair % total, dst=pair // total,
                            tags=key[first] & 3)


def build_interaction_graph(g: ConnectomeGraph, cfg: ExphormerConfig,
                            seed=0) -> InteractionGraph:
    """Merge local, expander, and global-node attention edges plus self-loops.

    Local edges are both directions of the graph's edges; expander edges come
    from build_expander over the real nodes (skipped for n < 3); each global
    virtual node connects to and from every real node.
    """
    n, gl = g.n, cfg.num_global_nodes
    srcs, dsts, tags = [], [], []
    if n >= 3:
        exp = build_expander(n, cfg.expander_degree, seed)
        srcs += [exp[:, 0], exp[:, 1]]
        dsts += [exp[:, 1], exp[:, 0]]
        tags += [np.full(exp.shape[0], TAG_EXPANDER)] * 2
    real = np.arange(n, dtype=np.int64)
    for k in range(gl):
        gid = np.full(n, n + k, dtype=np.int64)
        srcs += [gid, real]
        dsts += [real, gid]
        tags += [np.full(n, TAG_GLOBAL)] * 2
    return _interaction_graph(g, gl, srcs, dsts, tags)


def _dense_context(blocks: DenseBlocks, q: np.ndarray, k: np.ndarray,
                   v: np.ndarray, num_heads: int) -> np.ndarray:
    """The attention context of every stacked row, from a dense score stack:
    one batched Q @ K^T over (heads, k, m, m), the scores read at the edge
    positions, softmax_segments over the (edges, heads) scores, the weights
    scattered into a zeroed stack, then W @ V. No tape, no masking: only
    edge entries are exponentiated."""
    g, m, width = blocks.k, blocks.m, q.shape[1]
    head_dim = width // num_heads

    def heads(a):  # the (heads, k, m, head_dim) view of stacked rows
        return a.reshape(g, m, num_heads, head_dim).transpose(2, 0, 1, 3)

    # every edge's position in every head's (k, m, m) plane
    flat = blocks.pos[:, np.newaxis] + np.arange(0, num_heads * g * m * m, g * m * m)
    scores = np.take(heads(q) @ heads(k).transpose(0, 1, 3, 2), flat)
    scores *= 1.0 / math.sqrt(head_dim)
    weights = softmax_segments(Tensor(scores), blocks.dst_plan).data
    stack = np.zeros((num_heads, g, m, m))
    stack.reshape(-1)[flat] = weights
    return (stack @ heads(v)).transpose(1, 2, 0, 3).reshape(g * m, width)


def sparse_attention(ig: InteractionGraph | DenseBlocks, h: Tensor,
                     p: dict[str, Tensor], num_heads: int,
                     attention_dropout: float, dropout_rate: float,
                     mode: str, rng, tape: Tape | None,
                     capture: list | None = None) -> Tensor:
    """Multi-head attention restricted to interaction-graph edges.

    Per head, scores for edges (u -> v) are scaled dot products of v's query
    and u's key, normalized by softmax over each destination's in-edges,
    then used to mix value rows. Follows with output projection, residual +
    layer norm, and a feed-forward block with residual + layer norm.

    When capture is a list, the post-softmax weights (E x heads) are appended
    to it before attention dropout. Given DenseBlocks, the scores, softmax
    and mixing run on dense stacks (_dense_context), in eval mode only,
    without a tape or capture.
    """
    head_dim = h.cols // num_heads
    q = matmul(h, p["q"], tape)
    k = matmul(h, p["k"], tape)
    v = matmul(h, p["v"], tape)
    if isinstance(ig, DenseBlocks):
        if mode != "eval" or tape is not None or capture is not None:
            raise ContractError("dense attention blocks score in eval mode only, "
                                "without a tape or capture")
        ctx = Tensor(_dense_context(ig, q.data, k.data, v.data, num_heads))
    else:
        qe = gather_rows(q, ig.dst_plan, tape)
        ke = gather_rows(k, ig.src_plan, tape)
        scores = scale(sum_col_blocks(mul(qe, ke, tape), num_heads, tape),
                       1.0 / math.sqrt(head_dim), tape)
        weights = softmax_segments(scores, ig.dst_plan, tape)
        if capture is not None:
            capture.append(weights.data.copy())
        weights = dropout(weights, attention_dropout, mode, rng, tape)
        ve = gather_rows(v, ig.src_plan, tape)
        mixed = mul(ve, expand_col_blocks(weights, head_dim, tape), tape)
        ctx = segment_sum_rows(mixed, ig.dst_plan, h.rows, tape)
    attn = matmul(ctx, p["out"], tape, bias=p["out_bias"])
    attn = dropout(attn, dropout_rate, mode, rng, tape)
    h1 = layer_norm(add(h, attn, tape), p["ln1_gain"], p["ln1_bias"], tape)
    ff = relu(matmul(h1, p["ffn_w1"], tape, bias=p["ffn_b1"]), tape)
    ff = matmul(ff, p["ffn_w2"], tape, bias=p["ffn_b2"])
    ff = dropout(ff, dropout_rate, mode, rng, tape)
    return layer_norm(add(h1, ff, tape), p["ln2_gain"], p["ln2_bias"], tape)


class _ParamBuilder:
    """Adds parameters whose init stream depends only on (seed, name) to params."""

    def __init__(self, seed: int, params: dict[str, Tensor]):
        self.seed = seed
        self.params = params

    def _add(self, name: str, make, shape: tuple[int, int]) -> None:
        """params[name] = make(shape); a ConfigError names a shape numpy
        cannot allocate (a MemoryError, or a ValueError past its largest
        dimension)."""
        try:
            data = make(shape)
        except (MemoryError, ValueError) as exc:
            raise ConfigError(f"parameter {name} of shape {shape} cannot be "
                              f"allocated: {exc}") from None
        self.params[name] = Tensor(data, requires_grad=True)

    def weight(self, name: str, fan_in: int, fan_out: int) -> None:
        """A Glorot-uniform (fan_in, fan_out) weight."""
        rng = seeded_rng(self.seed, "param", name)
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        self._add(name, lambda shape: rng.uniform(-limit, limit, size=shape),
                  (fan_in, fan_out))

    def zeros(self, name: str, cols: int) -> None:
        self._add(name, np.zeros, (1, cols))

    def ones(self, name: str, cols: int) -> None:
        self._add(name, np.ones, (1, cols))

    def attention_block(self, prefix: str, width: int) -> dict[str, Tensor]:
        """Adds a sparse_attention block's params; returns them by short name."""
        for proj in ("q", "k", "v", "out"):
            self.weight(f"{prefix}.{proj}", width, width)
        self.zeros(f"{prefix}.out_bias", width)
        self.ones(f"{prefix}.ln1_gain", width)
        self.zeros(f"{prefix}.ln1_bias", width)
        self.weight(f"{prefix}.ffn_w1", width, 2 * width)
        self.zeros(f"{prefix}.ffn_b1", 2 * width)
        self.weight(f"{prefix}.ffn_w2", 2 * width, width)
        self.zeros(f"{prefix}.ffn_b2", width)
        self.ones(f"{prefix}.ln2_gain", width)
        self.zeros(f"{prefix}.ln2_bias", width)
        return {name[len(prefix) + 1:]: t for name, t in self.params.items()
                if name.startswith(prefix + ".")}

    def mlp(self, prefix: str, fan_in: int, hidden: int, out: int) -> None:
        self.weight(f"{prefix}.w1", fan_in, hidden)
        self.zeros(f"{prefix}.b1", hidden)
        self.weight(f"{prefix}.w2", hidden, out)
        self.zeros(f"{prefix}.b2", out)


def _mlp_head(params: dict[str, Tensor], prefix: str, pooled: Tensor,
              rate: float, mode: str, tape, rng) -> Tensor:
    """Logits of pooled rows through the MLP _ParamBuilder.mlp(prefix) made."""
    z = dropout(pooled, rate, mode, rng, tape)
    z = relu(matmul(z, params[f"{prefix}.w1"], tape, bias=params[f"{prefix}.b1"]),
             tape)
    z = dropout(z, rate, mode, rng, tape)
    return matmul(z, params[f"{prefix}.w2"], tape, bias=params[f"{prefix}.b2"])


@dataclass(eq=False)
class PreparedGCN:
    x: Tensor
    adj: BlockAdjacency    # the normalized adjacency as one dense n x n block
    adj_edges: np.ndarray  # (m, 2) directed (src, dst) pairs the block holds
    label: int
    local_ig: InteractionGraph | None = None


@dataclass(eq=False)
class GCNBatch:
    """Disjoint union of prepared graphs, run as one forward."""

    x: Tensor            # (N, d): every graph's node rows, stacked
    adj: BlockAdjacency  # one adjacency block per graph, at its row offset


@dataclass(eq=False)
class PreparedExphormer:
    x: np.ndarray    # the graph's own (n, d) features, not a copy
    enc: np.ndarray  # its structural encoding: (n, 1) log1p degrees, or (n, 0)
    ig: InteractionGraph
    label: int


def _chunks(indices, size: int) -> list:
    return [indices[lo:lo + size] for lo in range(0, len(indices), size)]


class _Model:
    """A model's checked config, seed and params.

    forwards(prepared, indices, mode) decides which graphs share a forward:
    it returns (graph indices, forward input) per forward, naming each of
    indices exactly once. A forward's logits hold one row per graph, in the
    order of its indices.
    """

    def __init__(self, cfg, seed: int):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}

    def _checked_rng(self, mode: str, rng):
        if mode == "train" and rng is None:  # or its dropout masks would repeat
            raise ContractError("a train-mode forward needs an rng")
        return rng


class ResidualGCN(_Model):
    """GCN stack with concatenated layer outputs and an MLP head.

    A forward runs on a collated mini-batch or on a lone prepared graph, a
    batch of one: mean_pool_rows pools each block's adj.counts rows to a row.
    """

    kind = "residual_gcn"

    def __init__(self, cfg: ResidualGCNConfig, in_dim: int, num_classes: int,
                 seed: int = 0):
        super().__init__(cfg, seed)
        b = _ParamBuilder(seed, self.params)
        prev = in_dim
        for i in range(cfg.num_gcn_layers):
            b.weight(f"gcn{i}.weight", prev, cfg.hidden_dim)
            prev = cfg.hidden_dim
        b.mlp("mlp", cfg.num_gcn_layers * cfg.hidden_dim, cfg.mlp_hidden,
              num_classes)

    def prepare(self, graph: ConnectomeGraph) -> PreparedGCN:
        edges, weights = normalized_adjacency(graph, self.cfg.use_edge_weights)
        return PreparedGCN(x=Tensor(graph.x),
                           adj=BlockAdjacency.from_edges(edges, weights, graph.n),
                           adj_edges=edges, label=graph.label)

    def prepare_dataset(self, graphs, run_seed: int = 0) -> list[PreparedGCN]:
        return [self.prepare(g) for g in graphs]

    def forwards(self, prepared, indices, mode: str) -> list:
        """A training mini-batch as one collated GCNBatch; eval graphs in
        collated chunks of EVAL_CHUNK."""
        chunks = [indices] if mode == "train" else _chunks(indices, EVAL_CHUNK)
        return [(c, self.collate([prepared[i] for i in c])) for c in chunks]

    @staticmethod
    def collate(preps: list[PreparedGCN]) -> GCNBatch:
        """Stack prepared graphs into one block-diagonal input."""
        if not preps:
            raise ShapeError("collate of an empty graph list")
        return GCNBatch(x=Tensor(np.concatenate([p.x.data for p in preps])),
                        adj=BlockAdjacency.union(p.adj for p in preps))

    def _logits(self, prep: PreparedGCN | GCNBatch, mode: str, tape, rng,
                after_layer=None, after_concat=None) -> Tensor:
        """The forward body. after_layer(i, h), when given, replaces GCN layer
        i's output before the next layer reads it. Each layer is pooled before
        the concat, unless after_concat(h) replaces the node-level concat."""
        h, outs, counts = prep.x, [], prep.adj.counts
        for i in range(self.cfg.num_gcn_layers):
            h = gcn_layer(prep.adj, h, self.params[f"gcn{i}.weight"], tape)
            if after_layer is not None:
                h = after_layer(i, h)
            outs.append(h)
        if after_concat is None:
            pooled = concat_cols([mean_pool_rows(o, tape, counts) for o in outs], tape)
        else:
            pooled = mean_pool_rows(after_concat(concat_cols(outs, tape)), tape, counts)
        return _mlp_head(self.params, "mlp", pooled, self.cfg.dropout, mode,
                         tape, rng)

    def forward(self, prep: PreparedGCN | GCNBatch, mode: str = "eval",
                tape: Tape | None = None, rng=None) -> Tensor:
        """Logits with one row per graph of a GCNBatch, or one row for a graph."""
        return self._logits(prep, mode, tape, self._checked_rng(mode, rng))


class Exphormer(_Model):
    """Sparse graph transformer over a local + expander + global edge set."""

    kind = "exphormer"

    def __init__(self, cfg: ExphormerConfig, in_dim: int, num_classes: int,
                 seed: int = 0):
        super().__init__(cfg, seed)
        b = _ParamBuilder(seed, self.params)
        in_total = in_dim + (1 if cfg.structural_encoding == "degree" else 0)
        b.weight("input.w", in_total, cfg.hidden_dim)
        b.zeros("input.b", cfg.hidden_dim)
        if cfg.num_global_nodes:
            b.weight("global.emb", cfg.num_global_nodes, cfg.hidden_dim)
        self._layers = [b.attention_block(f"layer{l}", cfg.hidden_dim)
                        for l in range(cfg.num_layers)]
        b.mlp("head", cfg.hidden_dim, cfg.hidden_dim, num_classes)

    def prepare(self, graph: ConnectomeGraph, ig_seed=0) -> PreparedExphormer:
        ig = build_interaction_graph(graph, self.cfg, ig_seed)
        enc = (np.log1p(node_degrees(graph)).reshape(-1, 1)
               if self.cfg.structural_encoding == "degree" else np.empty((graph.n, 0)))
        return PreparedExphormer(x=graph.x, enc=enc, ig=ig, label=graph.label)

    def prepare_dataset(self, graphs, run_seed: int = 0) -> list[PreparedExphormer]:
        # Expander/global edges are fixed per (run seed, graph index), not
        # resampled per epoch, so evaluation stays deterministic.
        return [self.prepare(g, seeded_rng(run_seed, "interaction", i))
                for i, g in enumerate(graphs)]

    def forwards(self, prepared, indices, mode: str) -> list:
        """Lists of equal-size prepared graphs: each group's graphs sorted
        stably by node count, each run of one count cut into stacks. Training
        cuts the mini-batch into pairs (larger unions measured slower, see
        README's "How a mini-batch runs"), so an odd or mixed batch adds lone
        graphs. Eval cuts chunks of EVAL_CHUNK into stacks of at most
        DENSE_STACK_ENTRIES score entries (or one graph); a graph's stack
        neighbours move its logits in the last bits, so stacks stay within a
        chunk. _logits picks each forward's layout."""
        def nodes(i):
            return prepared[i].ig.num_nodes
        out = []
        for group in [indices] if mode == "train" else _chunks(indices, EVAL_CHUNK):
            for m, run in itertools.groupby(sorted(group, key=nodes), key=nodes):
                size = 2 if mode == "train" else max(
                    1, DENSE_STACK_ENTRIES // (self.cfg.num_heads * m * m))
                out += [(s, [prepared[i] for i in s])
                        for s in _chunks(list(run), size)]
        return out

    def _logits(self, stack: list[PreparedExphormer], mode: str, tape,
                rng) -> Tensor:
        """The forward body over k >= 1 equal-size prepared graphs, on the
        disjoint union of their interaction graphs: on its DenseBlocks in
        eval mode without a tape when its k x N x N score stack holds at most
        DENSE_FILL entries per edge, and on its edge chain otherwise. Each
        graph's rows are its real nodes, features then structural encoding,
        and then its global ones (_stack_rows)."""
        sizes = {p.ig.num_real for p in stack}
        if len(sizes) != 1:
            raise ShapeError(f"a stack needs graphs of one size, got "
                             f"{[p.ig.num_real for p in stack]}")
        cfg, k, (n,) = self.cfg, len(stack), sizes
        ig = InteractionGraph.union([p.ig for p in stack])
        m = stack[0].ig.num_nodes
        if mode == "eval" and tape is None and k * m * m <= DENSE_FILL * ig.num_edges:
            # each edge's position: its stacked destination row, its source
            ig = DenseBlocks(k, m, ig.dst * m + ig.src % m, ig.dst_plan)
        place, real = _stack_rows(k, n, cfg.num_global_nodes)
        x = np.hstack([np.concatenate([p.x for p in stack]),
                       np.concatenate([p.enc for p in stack])])
        h = matmul(Tensor(x), self.params["input.w"], tape, bias=self.params["input.b"])
        if cfg.num_global_nodes:
            h = concat_rows([h, self.params["global.emb"]], tape)
            if place is not None:
                h = gather_rows(h, place, tape)
        for block in self._layers:
            h = sparse_attention(ig, h, block, cfg.num_heads,
                                 cfg.attention_dropout, cfg.dropout, mode, rng,
                                 tape)
        if real is not None:
            h = gather_rows(h, real, tape)
        pooled = mean_pool_rows(h, tape, counts=[n] * k)
        return _mlp_head(self.params, "head", pooled, cfg.dropout, mode, tape, rng)

    def forward(self, prep: PreparedExphormer | list, mode: str = "eval",
                tape: Tape | None = None, rng=None) -> Tensor:
        """Logits of one prepared graph, or one row per graph of a list of
        equal-size prepared graphs."""
        stack = prep if isinstance(prep, list) else [prep]
        return self._logits(stack, mode, tape, self._checked_rng(mode, rng))


class AttnResidualGCN(ResidualGCN):
    """ResidualGCN with probabilistically inserted sparse attention blocks.

    The attention operates over the graph's local edges plus self-loops only.
    In training, insertion is a single Bernoulli draw per forward; in eval,
    attention is always applied when apply_probability > 0. With probability 0
    the forward is bit-identical to the plain ResidualGCN.
    """

    kind = "attn_residual_gcn"

    def __init__(self, cfg: ResidualGCNConfig, variant: AttnVariantConfig,
                 in_dim: int, num_classes: int, seed: int = 0):
        super().__init__(cfg, in_dim, num_classes, seed)
        self.variant = variant
        width = variant.width(cfg)
        b = _ParamBuilder(seed, self.params)
        if variant.placement == "after_each_gcn":
            names = {i: f"attn{i}" for i in range(cfg.num_gcn_layers)}
        else:
            names = {"cat": "attn_cat"}
        # keyed by GCN layer index or "cat"
        self._attn = {key: b.attention_block(name, width)
                      for key, name in names.items()}

    def forwards(self, prepared, indices, mode: str) -> list:
        """Attention runs on one graph's local_ig per forward. With probability
        0 it never runs, so the model is a plain ResidualGCN and batches like one."""
        if self.variant.apply_probability <= 0.0:
            return super().forwards(prepared, indices, mode)
        return [([i], prepared[i]) for i in indices]

    def prepare(self, graph: ConnectomeGraph) -> PreparedGCN:
        prep = super().prepare(graph)
        prep.local_ig = _interaction_graph(graph)
        return prep

    def _apply_attention(self, mode: str, rng) -> bool:
        p = self.variant.apply_probability
        if p <= 0.0:
            return False
        if p >= 1.0 or mode == "eval":
            return True
        return bool(rng.random() < p)

    def forward(self, prep: PreparedGCN | GCNBatch, mode: str = "eval",
                tape: Tape | None = None, rng=None) -> Tensor:
        rng = self._checked_rng(mode, rng)
        if not self._apply_attention(mode, rng):
            return self._logits(prep, mode, tape, rng)
        if isinstance(prep, GCNBatch):
            raise ContractError("attention runs on one prepared graph per "
                                "forward, not on a GCNBatch")

        def attend(key, h: Tensor) -> Tensor:
            v = self.variant
            return sparse_attention(prep.local_ig, h, self._attn[key],
                                    v.num_heads, v.attention_dropout,
                                    self.cfg.dropout, mode, rng, tape)
        if self.variant.placement == "after_each_gcn":
            return self._logits(prep, mode, tape, rng, after_layer=attend)
        return self._logits(prep, mode, tape, rng,
                            after_concat=lambda h: attend("cat", h))


MODEL_KINDS = tuple(cls.kind for cls in (ResidualGCN, Exphormer, AttnResidualGCN))


def build_model(kind: str, in_dim: int, num_classes: int, seed: int = 0,
                gcn_cfg: ResidualGCNConfig | None = None,
                exphormer_cfg: ExphormerConfig | None = None,
                variant: AttnVariantConfig | None = None):
    if kind == "residual_gcn":
        return ResidualGCN(gcn_cfg or ResidualGCNConfig(), in_dim, num_classes, seed)
    if kind == "exphormer":
        return Exphormer(exphormer_cfg or ExphormerConfig(), in_dim, num_classes,
                         seed)
    if kind == "attn_residual_gcn":
        return AttnResidualGCN(gcn_cfg or ResidualGCNConfig(),
                               variant or AttnVariantConfig(), in_dim,
                               num_classes, seed)
    raise ConfigError(f"unknown model kind {kind!r}")
