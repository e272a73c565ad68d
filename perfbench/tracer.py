"""Spans recorded around connectobench's public functions, from outside.

The library is not modified. `Tracer.install` rebinds module attributes and
class methods of the loaded `connectobench` modules to timing wrappers, and
`Tracer.remove` puts every original back. Spans live in memory as parallel
arrays (name, start, end, parent, cell, block) and are written out by the
caller when the run ends.

Two wrap sets exist:

* `full=False` wraps only `train_epoch`, `evaluate` and `adam_step`, the
  calls the end-to-end metrics need (epoch, batch and eval timing);
* `full=True` also wraps every autodiff op (forward, and the backward
  closure of every tape node the op records), `backward`, the model blocks
  and forwards, `prepare_dataset`, the data and rng entry points and the CLI
  cell runner and writers. It gives the per-layer metrics.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

from connectobench import autodiff, cli, data, models, optim, rng, training
from connectobench.errors import DivergenceError

OPS = [n for n in autodiff.__all__ if n not in ("Tensor", "Tape", "backward")]

_clock = time.perf_counter


class Spans:
    """Append-only span store; a span's parent is the span open when it began."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cells: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell = array("i")
        self.block = array("i")
        self.stack: list[int] = []
        self.current_cell = -1

    def __len__(self) -> int:
        return len(self.name)

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def set_cell(self, key: str | None) -> None:
        if key is None:
            self.current_cell = -1
        else:
            self.cells.append(key)
            self.current_cell = len(self.cells) - 1

    def open(self, nid: int, block: int = -1) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.cell.append(self.current_cell)
        self.block.append(block)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(_clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _clock()
        self.stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (a view would stop the store growing)."""
        return {col: np.array(getattr(self, col))
                for col in ("name", "start", "end", "parent", "cell", "block")}

    def save(self, path) -> None:
        """Write every span, plus the name and cell-key tables, to an .npz file."""
        np.savez_compressed(path, names=np.array(self.names), cells=np.array(self.cells),
                            **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so a span's children run one after another
    inside it and the time they cover is the sum of their durations.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - covered


class _Frame:
    """Block bookkeeping for one model forward."""

    __slots__ = ("segment", "block", "gcn", "attn", "seen")

    def __init__(self):
        self.segment = -1  # open "input"/"head" span, if any
        self.block = -1    # block id ops are attributed to
        self.gcn = 0
        self.attn = 0
        self.seen = False  # a gcn/attention block already ran


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "connectobench"
                                  or name.startswith("connectobench."))]


class Tracer:
    """Installs timing wrappers, records spans and counts, removes wrappers."""

    def __init__(self, full: bool):
        self.full = full
        self.spans = Spans()
        self.counts = {"eval_graphs": 0, "divergences": 0, "backward_calls": 0,
                       "tape_nodes": 0, "edges_in": 0, "edges_kept": 0,
                       "prepared_graphs": 0, "prepared_edges": 0}
        self._saved: list[tuple[object, str, object]] = []
        self._frames: list[_Frame] = []

    # -- installing and removing ------------------------------------------

    def _rebind(self, fn, wrapper) -> None:
        """Point every connectobench binding of fn at wrapper."""
        found = False
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"no binding of {fn.__qualname__} to wrap")

    def _rebind_method(self, cls, name: str, wrapper_of) -> None:
        fn = cls.__dict__[name]
        self._saved.append((cls, name, fn))
        setattr(cls, name, wrapper_of(fn))

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def _install(self) -> None:
        self._rebind(training.train_epoch, self._train_epoch(training.train_epoch))
        self._rebind(training.evaluate, self._evaluate(training.evaluate))
        self._rebind(optim.adam_step, self._timed("optim.adam_step", optim.adam_step))
        if not self.full:
            return
        for op in OPS:
            fn = getattr(autodiff, op)
            self._rebind(fn, self._op(op, fn))
        self._rebind(autodiff.backward, self._backward(autodiff.backward))
        self._rebind(models.gcn_layer, self._block("gcn_layer", models.gcn_layer))
        self._rebind(models.sparse_attention,
                     self._block("attn_layer", models.sparse_attention))
        for cls in (models.ResidualGCN, models.AttnResidualGCN, models.Exphormer):
            self._rebind_method(cls, "forward", self._forward)
        for cls in (models.ResidualGCN, models.Exphormer):
            self._rebind_method(cls, "prepare_dataset", self._prepare)
        self._rebind(data.deserialize_dataset,
                     self._timed("data.deserialize_dataset", data.deserialize_dataset))
        self._rebind(data.drop_edges, self._drop_edges(data.drop_edges))
        self._rebind(rng.seeded_rng, self._timed("rng.seeded_rng", rng.seeded_rng))
        self._rebind(cli.main, self._timed("cli.main", cli.main))
        self._rebind(cli._execute_cell, self._cell(cli._execute_cell))
        self._rebind(cli._run_cells, self._timed("cli.run_cells", cli._run_cells))
        for writer in (cli._write_json, cli._write_csv_lines):
            self._rebind(writer, self._timed("cli.write", writer))

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn):
        spans, nid = self.spans, self.spans.intern(name)

        def wrapper(*args, **kwargs):
            i = spans.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                spans.close(i)
        return wrapper

    def _train_epoch(self, fn):
        timed, counts = self._timed("training.train_epoch", fn), self.counts

        def wrapper(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            except DivergenceError:
                counts["divergences"] += 1
                raise
        return wrapper

    def _evaluate(self, fn):
        timed, counts = self._timed("training.evaluate", fn), self.counts

        def wrapper(model, prepared, indices):
            indices = list(indices)
            counts["eval_graphs"] += len(indices)
            return timed(model, prepared, indices)
        return wrapper

    def _backward(self, fn):
        timed, counts = self._timed("autodiff.backward", fn), self.counts

        def wrapper(tape, loss):
            counts["backward_calls"] += 1
            counts["tape_nodes"] += len(tape)
            return timed(tape, loss)
        return wrapper

    def _drop_edges(self, fn):
        timed, counts = self._timed("data.drop_edges", fn), self.counts

        def wrapper(g, *args, **kwargs):
            out = timed(g, *args, **kwargs)
            counts["edges_in"] += g.num_edges
            counts["edges_kept"] += out.num_edges
            return out
        return wrapper

    def _prepare(self, fn):
        timed, counts = self._timed("models.prepare", fn), self.counts

        def wrapper(*args, **kwargs):
            prepared = timed(*args, **kwargs)
            counts["prepared_graphs"] += len(prepared)
            counts["prepared_edges"] += sum(
                p.ig.num_edges if hasattr(p, "ig") else len(p.adj_edges)
                for p in prepared)
            return prepared
        return wrapper

    def _cell(self, fn):
        timed, spans = self._timed("cli.cell", fn), self.spans

        def wrapper(dataset, payload):
            spans.set_cell(payload["key"])
            try:
                return timed(dataset, payload)
            finally:
                spans.set_cell(None)
        return wrapper

    def _forward(self, fn):
        spans, frames = self.spans, self._frames
        train_id = spans.intern("models.forward_train")
        eval_id = spans.intern("models.forward_eval")

        def wrapper(model, prep, *args, **kwargs):
            mode = args[0] if args else kwargs.get("mode", "eval")
            frame = _Frame()
            frames.append(frame)
            i = spans.open(train_id if mode == "train" else eval_id)
            try:
                return fn(model, prep, *args, **kwargs)
            finally:
                self._close_segment(frame)
                spans.close(i)
                frames.pop()
        return wrapper

    def _close_segment(self, frame: _Frame) -> None:
        if frame.segment >= 0:
            self.spans.close(frame.segment)
            frame.segment = frame.block = -1

    def _current_block(self) -> int:
        """Block the next op belongs to; opens an input/head span if needed."""
        if not self._frames:
            return -1
        frame = self._frames[-1]
        if frame.block < 0:
            name = "models.head" if frame.seen else "models.input"
            frame.block = self.spans.intern(name)
            frame.segment = self.spans.open(frame.block)
        return frame.block

    def _block(self, kind: str, fn):
        spans, frames = self.spans, self._frames

        def wrapper(*args, **kwargs):
            frame = frames[-1] if frames else _Frame()
            self._close_segment(frame)
            if kind == "gcn_layer":
                index, frame.gcn = frame.gcn, frame.gcn + 1
            else:
                index, frame.attn = frame.attn, frame.attn + 1
            block = spans.intern(f"models.{kind}{index}")
            frame.block, frame.seen = block, True
            i = spans.open(block)
            try:
                return fn(*args, **kwargs)
            finally:
                spans.close(i)
                frame.block = -1
        return wrapper

    def _op(self, op: str, fn):
        spans = self.spans
        fwd = spans.intern(f"autodiff.{op}.fwd")
        bwd = spans.intern(f"autodiff.{op}.bwd")
        tape_at = list(inspect.signature(fn).parameters).index("tape")

        def timed_grad(grad_fn, block):
            def run(g):
                i = spans.open(bwd, block)
                try:
                    return grad_fn(g)
                finally:
                    spans.close(i)
            return run

        def wrapper(*args, **kwargs):
            tape = args[tape_at] if len(args) > tape_at else kwargs.get("tape")
            recorded = len(tape.nodes) if tape is not None else 0
            block = self._current_block()
            i = spans.open(fwd, block)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans.close(i)
            if tape is not None and len(tape.nodes) > recorded:
                node = tape.nodes[-1]
                node.grad_fn = timed_grad(node.grad_fn, block)
            return out
        return wrapper
