"""Design numbers: the src/ line count and the tape nodes per training forward.

    python3 tools/design_stats.py

Prints the lines of every .py file under src/, then for each model at its
default config the tape nodes that its first train-mode forward over a
mini-batch of two graphs and its cross-entropy record, with the number of
graphs that forward holds: both graphs have 6 nodes, 6 features and 2
classes, so a model that pairs or batches equal-size graphs holds both in
one forward. Exphormer is also shown with no global node. These are the
design numbers ROADMAP.md tracks. It imports the package from this
checkout's src/ and takes about a second.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from connectobench import (  # noqa: E402
    ConnectomeGraph,
    ExphormerConfig,
    Tape,
    cross_entropy,
    seeded_rng,
)
from connectobench.models import MODEL_KINDS, build_model  # noqa: E402


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def graph() -> ConnectomeGraph:
    rng = seeded_rng(50, "design-stats")
    iu, iv = np.triu_indices(6, k=1)
    keep = rng.random(iu.size) < 0.5
    return ConnectomeGraph(n=6, x=rng.standard_normal((6, 6)),
                           edges=np.stack([iu[keep], iv[keep]], axis=1),
                           weights=rng.uniform(0.5, 1.0, int(keep.sum())), label=1)


def tape_nodes(kind: str, **kw) -> str:
    g = graph()
    model = build_model(kind, in_dim=g.x.shape[1], num_classes=2, **kw)
    prepared = model.prepare_dataset([g, g])
    chunk, inputs = model.forwards(prepared, [0, 1], "train")[0]
    tape = Tape()
    logits = model.forward(inputs, mode="train", tape=tape, rng=seeded_rng(0, "s"))
    cross_entropy(logits, [prepared[i].label for i in chunk], tape=tape)
    return f"{len(tape.nodes)} a forward of {len(chunk)} graph{'s' * (len(chunk) > 1)}"


def main() -> int:
    rows = [("src lines", src_lines())]
    rows += [(f"tape nodes {kind}", tape_nodes(kind)) for kind in MODEL_KINDS]
    rows.append(("tape nodes exphormer num_global_nodes=0",
                 tape_nodes("exphormer",
                            exphormer_cfg=ExphormerConfig(num_global_nodes=0))))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
