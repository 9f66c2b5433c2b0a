"""Deterministic graph generators for the synthetic datasets (DESIGN.md §4).

Edge lists come back as canonical (m, 2) int64 arrays with u < v and no
duplicates.
"""
import numpy as np


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _dedup(edges: list[tuple[int, int]]) -> np.ndarray:
    e = np.array(
        sorted({(min(u, v), max(u, v)) for u, v in edges if u != v}),
        dtype=np.int64,
    )
    return e.reshape(-1, 2)


def er_edges_exact_m(n: int, m: int, seed: int = 0) -> np.ndarray:
    """Erdős–Rényi G(n, m): exactly m distinct edges."""
    g = _rng(seed)
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    sel = g.choice(len(all_pairs), size=m, replace=False)
    return _dedup([all_pairs[i] for i in sel])


def ba_edges(
    n: int, m_attach: int, seed: int = 0, extra_triads: float = 0.0
) -> np.ndarray:
    """Barabási–Albert preferential attachment.

    ``extra_triads``: probability, per new edge, of also closing a
    triangle through the chosen target — bumps clustering so that
    clique/pattern experiments have non-trivial structure.
    """
    g = _rng(seed)
    edges: list[tuple[int, int]] = []
    targets = list(range(m_attach + 1))
    for u, v in [(i, j) for i in range(m_attach + 1) for j in range(i + 1, m_attach + 1)]:
        edges.append((u, v))
    repeated: list[int] = [v for e in edges for v in e]
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for new in range(m_attach + 1, n):
        chosen: set[int] = set()
        while len(chosen) < m_attach:
            t = int(repeated[g.integers(len(repeated))])
            chosen.add(t)
        for t in chosen:
            edges.append((new, t))
            repeated.extend((new, t))
            adj.setdefault(new, []).append(t)
            adj.setdefault(t, []).append(new)
            if extra_triads > 0 and g.random() < extra_triads and adj[t]:
                w = int(adj[t][g.integers(len(adj[t]))])
                if w != new:
                    edges.append((new, w))
                    repeated.extend((new, w))
                    adj[new].append(w)
                    adj[w].append(new)
    return _dedup(edges)


def powerlaw_uncertain(
    n: int,
    m_target: int,
    seed: int,
    prob_mean: float,
    prob_sd: float,
    nucleus_size: int = 0,
    nucleus_prob: float = 0.9,
    nucleus_density: float = 0.8,
    max_deg: int | None = None,
    fringe_size: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Power-law-ish uncertain graph with an optional planted nucleus.

    * The **nucleus** (top ``nucleus_size`` node ids) is a near-clique
      (pair prob ``nucleus_density``) of ``nucleus_prob``-probability
      edges — it makes per-world maximum densest subgraphs share a
      stable core, the regime where NDS is needed (per-set DSPs ≈ 0).
    * The **fringe** (``fringe_size`` node ids just below the nucleus)
      nodes attach to ~70% of the nucleus with probabilities tuned so
      their expected degree sits *just above* the nucleus density: the
      expected-densest subgraph (EDS) includes them, but in a random
      world each falls out of the densest subgraph roughly half the
      time — reproducing the paper's near-zero EDS containment
      probabilities (Table III) against NDS ≈ 1.
    * ``max_deg`` caps the expected background degree (Chung–Lu weights
      are truncated) so hub stars don't out-rank the nucleus in the
      probabilistic core decomposition, as in the paper's biological /
      social graphs where the densest region is also the innermost core.

    Returns ``(edges, probs)``.
    """
    g = _rng(seed)
    w = (np.arange(1, n + 1) ** -0.5).astype(np.float64)
    if max_deg is not None:
        for _ in range(4):  # fixed point of cap = max_deg * Σw / 2m
            w = np.minimum(w, max_deg * w.sum() / (2.0 * m_target))
    pw = w / w.sum()
    edges: set[tuple[int, int]] = set()
    us = g.choice(n, size=int(m_target * 1.6), p=pw)
    vs = g.choice(n, size=int(m_target * 1.6), p=pw)
    for u, v in zip(us, vs):
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
        if len(edges) >= m_target:
            break
    var = prob_sd**2
    ab = prob_mean * (1 - prob_mean) / var - 1
    a, b = max(ab * prob_mean, 0.05), max(ab * (1 - prob_mean), 0.05)
    nucleus = list(range(n - nucleus_size, n)) if nucleus_size else []
    special: dict[tuple[int, int], float] = {}
    for i, u in enumerate(nucleus):
        for v in nucleus[i + 1 :]:
            if g.random() < nucleus_density:
                special[(min(u, v), max(u, v))] = float(
                    np.clip(nucleus_prob + g.normal(0, 0.03), 0.5, 1.0)
                )
    if fringe_size and nucleus:
        rho_nuc = nucleus_density * nucleus_prob * (nucleus_size - 1) / 2
        k_att = max(2, int(round(0.7 * nucleus_size)))
        q = min(0.95, 1.05 * rho_nuc / k_att)
        fringe = list(range(n - nucleus_size - fringe_size, n - nucleus_size))
        for f in fringe:
            targets = g.choice(nucleus, size=k_att, replace=False)
            for t in targets:
                special[(min(f, int(t)), max(f, int(t)))] = float(
                    np.clip(q + g.normal(0, 0.02), 0.05, 0.98)
                )
    edges -= set(special)
    all_edges = sorted(edges) + sorted(special)
    probs = np.clip(g.beta(a, b, size=len(all_edges)), 1e-4, 1.0)
    probs[len(edges):] = [special[e] for e in sorted(special)]
    e = np.array(all_edges, dtype=np.int64).reshape(-1, 2)
    order = np.lexsort((e[:, 1], e[:, 0]))
    return e[order], probs[order]
