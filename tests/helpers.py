"""Independent oracles shared by the test modules.

Nothing here reuses the library's gradient or spectral code paths: gradients
come from central finite differences, eigenvalues from power iteration,
connectivity from BFS, and probes from closed-form least squares.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from connectobench import ConnectomeGraph


def numerical_grad(fn, tensors, h=1e-5):
    """Central-difference gradients of the scalar fn() w.r.t. each tensor."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn()
            flat[i] = orig - h
            fm = fn()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    return float(np.max(np.abs(analytic - numeric) / (np.abs(analytic) + 1e-8)))


def is_connected(edges: np.ndarray, n: int) -> bool:
    """BFS reachability over an undirected edge list."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return bool(seen.all())


def second_eigenvalue_power_iteration(edges: np.ndarray, n: int,
                                      iters: int = 3000, seed: int = 0) -> float:
    """|second eigenvalue| of D^-1/2 A D^-1/2 for a connected undirected graph.

    Power iteration after deflating the known top eigenpair (eigenvalue 1,
    eigenvector proportional to sqrt(degree)).
    """
    deg = np.zeros(n)
    np.add.at(deg, edges[:, 0], 1.0)
    np.add.at(deg, edges[:, 1], 1.0)
    dinv = 1.0 / np.sqrt(deg)
    top = np.sqrt(deg)
    top /= np.linalg.norm(top)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    coeff = dinv[src] * dinv[dst]

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x -= (x @ top) * top
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = np.zeros(n)
        np.add.at(y, dst, coeff * x[src])
        y -= (y @ top) * top
        lam = float(np.linalg.norm(y))
        if lam == 0.0:
            break
        x = y / lam
    return lam


def pooled_feature_probe(ds, fit_idx, eval_idx) -> tuple[float, float]:
    """Closed-form least-squares classifier on mean-pooled node features.

    Sees no edges at all; returns (fit accuracy, eval accuracy) in percent.
    """
    X = np.stack([ds[i].x.mean(axis=0) for i in range(len(ds))])
    X = np.hstack([X, np.ones((len(ds), 1))])
    Y = np.zeros((len(ds), ds.num_classes))
    for i in range(len(ds)):
        Y[i, ds[i].label] = 1.0
    W, *_ = np.linalg.lstsq(X[fit_idx], Y[fit_idx], rcond=None)

    def acc(idx):
        pred = np.argmax(X[idx] @ W, axis=1)
        true = np.array([ds[i].label for i in idx])
        return float(100.0 * np.mean(pred == true))

    return acc(list(fit_idx)), acc(list(eval_idx))


def permute_graph(g: ConnectomeGraph, perm: np.ndarray) -> ConnectomeGraph:
    """Relabel node i as perm[i], restoring the u < v edge convention."""
    perm = np.asarray(perm, dtype=np.int64)
    x = np.empty_like(g.x)
    x[perm] = g.x
    if g.num_edges:
        e = perm[g.edges]
        u = np.minimum(e[:, 0], e[:, 1])
        v = np.maximum(e[:, 0], e[:, 1])
        order = np.lexsort((v, u))
        edges = np.stack([u[order], v[order]], axis=1)
        weights = g.weights[order]
    else:
        edges, weights = g.edges.copy(), g.weights.copy()
    return ConnectomeGraph(n=g.n, x=x, edges=edges, weights=weights,
                           label=g.label)


def edge_free_reference_logits(model, x: np.ndarray) -> np.ndarray:
    """Plain-numpy ResidualGCN forward for a graph with no edges (eval mode).

    With an empty edge set the normalized adjacency is the identity, so each
    convolution is just ReLU(h @ W); this recomputes that path from the
    model's parameters without touching the autodiff ops.
    """
    h = x
    outs = []
    for i in range(model.cfg.num_gcn_layers):
        h = np.maximum(h @ model.params[f"gcn{i}.weight"].data, 0.0)
        outs.append(h)
    z = np.concatenate(outs, axis=1).mean(axis=0, keepdims=True)
    z = np.maximum(z @ model.params["mlp.w1"].data + model.params["mlp.b1"].data,
                   0.0)
    return z @ model.params["mlp.w2"].data + model.params["mlp.b2"].data


def raw_index_prep(prep):
    """A copy of a PreparedExphormer whose index plans are the raw id vectors.

    Every attention op then builds its plan from the raw ids on each call,
    the way a caller without prebuilt plans would.
    """
    ig = copy.copy(prep.ig)
    ig.src_plan, ig.dst_plan = ig.src, ig.dst
    return dataclasses.replace(prep, ig=ig)
