"""Connectome-style graph datasets.

Builds graphs from Pearson correlation matrices of region time series
(edges = positive correlations above a threshold, node features = correlation
rows), generates labeled synthetic datasets whose labels live in the node
features, the edge structure, or both, applies probabilistic edge dropping,
and serializes datasets as JSON Lines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import re
import stat
from dataclasses import dataclass, field

import numpy as np
import orjson

from .errors import ConfigError, DatasetError, DatasetParseError, DegenerateSeriesError
from .rng import as_generator, seeded_rng

LABEL_MODES = ("feature_only", "structure_only", "mixed")

# Synthetic generator knobs. Within-community correlation of the latent time
# series must clear the default threshold 0.5 with margin; the feature shift
# must dominate noise_scale after mean pooling.
_COMMUNITY_RHO = 0.75
_FEATURE_BLOCK_SIZE = 6
_FEATURE_SHIFT = 3.0


@dataclass(eq=False)
class ConnectomeGraph:
    """One subject graph: features, undirected weighted edges, class label."""

    n: int
    x: np.ndarray        # (n, d) float64 node features
    edges: np.ndarray    # (m, 2) int64, each row (u, v) with u < v
    weights: np.ndarray  # (m,) float64 edge weights, each >= 0
    label: int

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def edge_density(self) -> float:
        pairs = self.n * (self.n - 1) // 2
        return self.num_edges / pairs if pairs else 0.0

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigError(f"a graph needs at least one node, got n={self.n}")
        if self.x.shape[0] != self.n:
            raise ConfigError(f"x has {self.x.shape[0]} rows for {self.n} nodes")
        if self.edges.shape != (self.num_edges, 2):
            raise ConfigError(f"edges must be (m, 2), got {self.edges.shape}")
        if self.weights.shape != (self.num_edges,):
            raise ConfigError("weights length must match edge count")
        if self.num_edges:
            u, v = self.edges[:, 0], self.edges[:, 1]
            if u.min() < 0 or v.max() >= self.n:
                raise ConfigError("edge endpoint out of range")
            if not np.all(u < v):
                raise ConfigError("edges must be stored with u < v")
            keys = np.sort(u * self.n + v)
            if np.any(keys[1:] == keys[:-1]):
                raise ConfigError("duplicate edges")
            # a negative weight can make a degree sum negative, and GCN
            # normalization takes its square root
            if self.weights.min() < 0:
                raise ConfigError(f"negative edge weight {self.weights.min()}")


def graphs_equal(a: ConnectomeGraph, b: ConnectomeGraph) -> bool:
    return (
        a.n == b.n
        and a.label == b.label
        and np.array_equal(a.x, b.x)
        and np.array_equal(a.edges, b.edges)
        and np.array_equal(a.weights, b.weights)
    )


def pearson_correlation(timeseries) -> np.ndarray:
    """Pearson correlation of row time series: C[u, v] = cov(u, v)/(sd_u sd_v)."""
    ts = np.asarray(timeseries, dtype=np.float64)
    if ts.ndim != 2 or ts.shape[1] < 2:
        raise ConfigError(f"timeseries must be (n, T) with T >= 2, got {ts.shape}")
    sd = ts.std(axis=1)
    dead = np.flatnonzero(sd == 0.0)
    if dead.size:
        raise DegenerateSeriesError(int(dead[0]))
    corr = np.corrcoef(ts)
    corr = (corr + corr.T) / 2.0
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr


def build_graph(corr: np.ndarray, threshold: float, label: int) -> ConnectomeGraph:
    """Threshold the upper triangle of a correlation matrix into an edge list.

    Edge (u, v) with u < v exists iff corr[u, v] > threshold; its weight is the
    correlation. Node features are the correlation rows.
    """
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must be in (0, 1), got {threshold}")
    corr = np.asarray(corr, dtype=np.float64)
    n = corr.shape[0]
    iu, iv = np.triu_indices(n, k=1)
    keep = corr[iu, iv] > threshold
    edges = np.stack([iu[keep], iv[keep]], axis=1).astype(np.int64)
    weights = corr[iu[keep], iv[keep]].copy()
    return ConnectomeGraph(n=n, x=corr.copy(), edges=edges, weights=weights,
                           label=int(label))


def drop_edges(g: ConnectomeGraph, p: float, seed=0) -> ConnectomeGraph:
    """Remove each edge independently with probability p; features untouched.

    p=0 returns an identical edge set, p=1 an empty one, and neither draws
    from seed. The input graph is never modified.
    """
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge-drop probability must be in [0, 1], got {p}")
    if 0.0 < p < 1.0:
        keep = as_generator(seed).random(g.num_edges) >= p
    else:  # every uniform draw lies in [0, 1): keep all at p=0, none at p=1
        keep = np.full(g.num_edges, p == 0.0)
    return ConnectomeGraph(n=g.n, x=g.x, edges=g.edges[keep],
                           weights=g.weights[keep], label=g.label)


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and label-provenance parameters for a generated dataset."""

    num_graphs: int = 300
    n: int = 50
    d: int | None = None  # None: features are full correlation rows (d = n)
    num_classes: int = 2
    threshold: float = 0.5
    label_mode: str = "feature_only"
    noise_scale: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_graphs < 1:
            raise ConfigError("num_graphs must be >= 1")
        if self.n < 4:
            raise ConfigError(f"n must be >= 4, got {self.n}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.label_mode not in LABEL_MODES:
            raise ConfigError(f"label_mode must be one of {LABEL_MODES}")
        if self.d is not None and not 1 <= self.d <= self.n:
            raise ConfigError(f"d must be in [1, n], got {self.d}")
        if self.noise_scale < 0:
            raise ConfigError("noise_scale must be >= 0")

    @property
    def feature_dim(self) -> int:
        return self.n if self.d is None else self.d


class Dataset:
    """A list of graphs plus the class count and the generating spec, if any."""

    def __init__(self, graphs: list[ConnectomeGraph], num_classes: int,
                 spec: dict | None = None):
        self.graphs = graphs
        self.num_classes = int(num_classes)
        self.spec = spec

    def __len__(self) -> int:
        return len(self.graphs)

    def __getitem__(self, i: int) -> ConnectomeGraph:
        return self.graphs[i]

    def __iter__(self):
        return iter(self.graphs)

    @property
    def feature_dim(self) -> int:
        return int(self.graphs[0].x.shape[1])

    def mean_edge_density(self) -> float:
        return float(np.mean([g.edge_density() for g in self.graphs]))


def _community_assignment(rng: np.random.Generator, n: int, block: int) -> np.ndarray:
    """Random partition of [0, n) into contiguous-size-`block` communities."""
    perm = rng.permutation(n)
    comm = np.empty(n, dtype=np.int64)
    for b, start in enumerate(range(0, n, block)):
        comm[perm[start:start + block]] = b
    return comm


def _community_time_series(rng: np.random.Generator, n: int, block: int,
                           length: int) -> np.ndarray:
    """Per-node series sharing a latent factor within each community.

    Within-community correlation is _COMMUNITY_RHO; across communities ~0.
    """
    comm = _community_assignment(rng, n, block)
    factors = rng.standard_normal((int(comm.max()) + 1, length))
    noise = rng.standard_normal((n, length))
    a = math.sqrt(_COMMUNITY_RHO)
    b = math.sqrt(1.0 - _COMMUNITY_RHO)
    return a * factors[comm] + b * noise


def _structure_block_size(label: int, n: int) -> int:
    # Class 0 plants no communities, so its graphs are near-empty; higher
    # classes plant geometrically larger blocks, keeping per-class edge
    # densities apart by >= 2x (for n comfortably above 2**(classes+1)).
    if label == 0:
        return 1
    return min(2 ** (label + 2), max(2, n // 2))


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Generate a labeled dataset with controllable label provenance.

    feature_only: community structure is class-independent; a class-specific
    mean shift is injected into the feature rows of the first n//5 nodes, so
    pooled node features alone determine the label.
    structure_only: the class sets the planted community size (hence edge
    density and topology) and node features are replaced by class-independent
    noise, so only the edges carry the label.
    mixed: both signals present.

    Labels are assigned round-robin, so classes are balanced within one graph.
    Each graph draws from its own RNG stream split off (spec.seed, index).
    """
    d = spec.feature_dim
    patterns = seeded_rng(spec.seed, "class-patterns").standard_normal(
        (spec.num_classes, d))
    patterns *= _FEATURE_SHIFT / np.linalg.norm(patterns, axis=1, keepdims=True)
    subset = max(1, spec.n // 5)

    graphs = []
    for i in range(spec.num_graphs):
        label = i % spec.num_classes
        rng = seeded_rng(spec.seed, "graph", i)
        if spec.label_mode == "feature_only":
            block = min(_FEATURE_BLOCK_SIZE, spec.n)
        else:
            block = _structure_block_size(label, spec.n)
        ts = _community_time_series(rng, spec.n, block, 4 * spec.n)
        corr = pearson_correlation(ts)
        g = build_graph(corr, spec.threshold, label)
        if spec.label_mode == "structure_only":
            x = rng.standard_normal((spec.n, d))
        else:
            x = corr[:, :d].copy()
            x[:subset] += patterns[label]
            x += spec.noise_scale * rng.standard_normal((spec.n, d))
        g.x = x
        graphs.append(g)
    return Dataset(graphs, spec.num_classes, dataclasses.asdict(spec))


@dataclass
class DatasetSplits:
    """Disjoint stratified train/val/test index lists over a graph list."""

    train: list[int] = field(default_factory=list)
    val: list[int] = field(default_factory=list)
    test: list[int] = field(default_factory=list)

    def all_indices(self) -> list[int]:
        return sorted(self.train + self.val + self.test)


def split_dataset(graphs, ratios=(0.7, 0.15, 0.15), seed=0) -> DatasetSplits:
    """Stratified, seeded split; per-class counts stay within 1 of the target.

    Fractional leftovers rotate across splits as classes are processed, so
    e.g. a 50/50 two-class dataset of 100 graphs lands exactly on 70/15/15.
    """
    if len(ratios) != 3 or not math.isclose(sum(ratios), 1.0, abs_tol=1e-9):
        raise ConfigError(f"ratios must be three values summing to 1, got {ratios}")
    if any(r < 0 for r in ratios):
        raise ConfigError("ratios must be non-negative")
    labels = [g.label if isinstance(g, ConnectomeGraph) else int(g) for g in graphs]
    by_class: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)

    rng = seeded_rng(seed, "split")
    buckets: list[list[int]] = [[], [], []]
    for k, lab in enumerate(sorted(by_class)):
        idxs = np.array(by_class[lab], dtype=np.int64)
        rng.shuffle(idxs)
        m = idxs.size
        target = [r * m for r in ratios]
        counts = [int(math.floor(t)) for t in target]
        fracs = [t - c for t, c in zip(target, counts)]
        leftover = m - sum(counts)
        order = sorted(range(3), key=lambda j: (-fracs[j], (j + k) % 3))
        for j in order[:leftover]:
            counts[j] += 1
        cut1 = counts[0]
        cut2 = counts[0] + counts[1]
        buckets[0].extend(idxs[:cut1].tolist())
        buckets[1].extend(idxs[cut1:cut2].tolist())
        buckets[2].extend(idxs[cut2:].tolist())
    return DatasetSplits(train=sorted(buckets[0]), val=sorted(buckets[1]),
                         test=sorted(buckets[2]))


def _graph_record(g: ConnectomeGraph) -> dict:
    return {
        "n": g.n,
        "d": int(g.x.shape[1]),
        "x": g.x.reshape(-1).tolist(),
        "edges": g.edges.tolist(),
        "w": g.weights.tolist(),
        "y": g.label,
    }


def _dataset_lines(ds: Dataset):
    """The dataset file in UTF-8, one newline-ended line at a time: a JSON
    header line, then a JSON line per graph. A NaN or an infinity raises
    ConfigError, as the loader would refuse it."""
    header = {"version": 1, "num_classes": ds.num_classes, "spec": ds.spec}
    try:
        for record in itertools.chain([header], map(_graph_record, ds.graphs)):
            line = json.dumps(record, separators=(",", ":"), allow_nan=False)
            yield line.encode("utf-8") + b"\n"
    except ValueError as exc:
        raise ConfigError(f"cannot write a dataset holding NaN or infinity: {exc}"
                          ) from exc


def dataset_bytes(ds: Dataset) -> bytearray:
    """The bytes serialize_dataset writes, in one buffer."""
    out = bytearray()
    for line in _dataset_lines(ds):
        out += line
    return out


def serialize_dataset(ds: Dataset, path) -> None:
    """Write ds one line at a time, so no copy of the whole file is held. A
    line that cannot be written raises ConfigError and removes the file."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(_dataset_lines(ds))
    except ConfigError:
        os.unlink(path)
        raise


def git_blob_sha1(data: bytes) -> str:
    """The SHA-1 git gives data as a blob."""
    h = hashlib.sha1(b"blob %d\x00" % len(data))
    h.update(data)
    return h.hexdigest()


def _json_int(obj: dict, key: str) -> int:
    value = obj[key]
    if type(value) is not int:  # bools, floats and ints too wide for orjson
        raise TypeError(f"{key} must be a JSON integer, got {type(value).__name__}")
    return value


def _parse_graph_line(obj: dict, line: int) -> ConnectomeGraph:
    try:
        n = _json_int(obj, "n")
        d = _json_int(obj, "d")
        if d < 1:  # with d >= 1 the record's size bounds n
            raise ValueError(f"d must be >= 1, got {d}")
        x = np.asarray(obj["x"], dtype=np.float64).reshape(n, d)
        pairs = obj["edges"]
        if not set(map(type, itertools.chain.from_iterable(pairs))) <= {int}:
            raise TypeError("edge endpoints must be JSON integers")
        edges = np.asarray(pairs, dtype=np.int64)
        if pairs and edges.shape[1:] != (2,):
            raise ValueError("every edges entry must be a pair [u, v]")
        edges = edges.reshape(-1, 2)
        weights = np.asarray(obj["w"], dtype=np.float64)
        label = _json_int(obj, "y")
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DatasetParseError(f"bad graph record: {exc}", line) from exc
    g = ConnectomeGraph(n=n, x=x, edges=edges, weights=weights, label=label)
    try:
        g.validate()
    except ConfigError as exc:
        raise DatasetParseError(str(exc), line) from exc
    return g


# orjson 3.8 has no nesting limit of its own and overflows the C stack on a
# line nested about 100k deep. A dataset record nests 3 deep.
_MAX_NESTING = 1024
# The loader's read buffer: one read holds many n=50 records, so most lines
# are split out of it without being copied together from several reads.
_READ_BUFFER = 1 << 20
_BRACKET_STEP = np.zeros(256, dtype=np.int8)
_BRACKET_STEP[[ord("["), ord("{")]] = 1
_BRACKET_STEP[[ord("]"), ord("}")]] = -1
_JSON_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)


def _opening_brackets(raw: bytes) -> int:
    """How many "[" and "{" bytes raw holds, inside strings too. "[" is 0x5B
    and "{" is 0x7B: setting bit 5 maps both, and no other byte, to 0x7B."""
    return int(np.count_nonzero(np.frombuffer(raw, dtype=np.uint8) | 32 == 0x7B))


def _nested_too_deeply(raw: bytes) -> bool:
    """Whether raw may nest deeper than _MAX_NESTING.

    String contents are blanked first, so a bracket inside a string cannot
    cancel a real one. On invalid JSON the depth is still exact up to the
    point where a parser stops.
    """
    if _opening_brackets(raw) <= _MAX_NESTING:
        return False
    blanked = np.frombuffer(_JSON_STRING.sub(b'""', raw), dtype=np.uint8)
    depth = np.cumsum(_BRACKET_STEP[blanked],
                      dtype=np.int32 if blanked.size < 2**31 else np.int64)
    return int(depth.max()) > _MAX_NESTING


def deserialize_dataset(path, blob_sha1=None) -> Dataset:
    """Load a JSON-Lines dataset; parse failures name the offending line.

    Beyond per-record checks, every label must lie in [0, num_classes), every
    graph must share the first graph's feature dim, and the file must hold at
    least one graph. The file is read once: a regular file line by line
    through a 1 MiB buffer, and it must end with the size it had when it was
    opened; anything else, such as a pipe, has no size up front and is read
    whole first. blob_sha1, when given a hashlib.sha1() object, is fed the
    file as git hashes a blob, so its hexdigest() equals git_blob_sha1 of
    the file's bytes.
    """
    graphs = []
    header = header_line = None
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            lines, left = fh, st.st_size
        else:
            whole = fh.read()
            lines, left = io.BytesIO(whole), len(whole)
        if blob_sha1 is not None:
            blob_sha1.update(b"blob %d\x00" % left)
        for lineno, raw in enumerate(lines, start=1):
            left -= len(raw)
            if blob_sha1 is not None:
                blob_sha1.update(raw)
            if raw.isspace():
                continue
            if _nested_too_deeply(raw):
                raise DatasetParseError("JSON nested too deeply", lineno)
            try:
                obj = orjson.loads(raw)
            except orjson.JSONDecodeError as exc:
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as bad_text:
                    raise DatasetParseError(f"not UTF-8 text: {bad_text.reason}",
                                            lineno) from exc
                raise DatasetParseError(f"invalid JSON: {exc.msg}", lineno) from exc
            if header is None:
                if not isinstance(obj, dict) or type(obj.get("num_classes")) is not int:
                    raise DatasetParseError(
                        "missing dataset header with an integer num_classes", lineno)
                header, header_line = obj, lineno
                continue
            g = _parse_graph_line(obj, lineno)
            num_classes = header["num_classes"]
            if not 0 <= g.label < num_classes:
                raise DatasetParseError(
                    f"label {g.label} outside [0, {num_classes})", lineno)
            if graphs and g.x.shape[1] != graphs[0].x.shape[1]:
                raise DatasetParseError(
                    f"feature dim {g.x.shape[1]} differs from the first graph's "
                    f"{graphs[0].x.shape[1]}", lineno)
            graphs.append(g)
    if left:
        raise DatasetError(f"dataset file {path} changed size while it was read "
                           f"({st.st_size} bytes when opened)")
    if header is None:
        raise DatasetParseError("empty dataset file", 1)
    if not graphs:
        raise DatasetParseError("dataset header has no graphs after it",
                                header_line)
    return Dataset(graphs, header["num_classes"], header.get("spec"))
