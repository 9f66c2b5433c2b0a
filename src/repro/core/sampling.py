"""Possible-world sampling strategies (§III-A remark 2, §VI-G).

All three strategies draw worlds with the correct product-Bernoulli
distribution; they differ in how the draws are organized, which is what
Tables XIII/XIV measure (runtime / memory at equal θ):

* ``mc``  — Monte Carlo: one uniform per edge per world.
* ``lp``  — Lazy Propagation: per edge, geometric skip counters give the
  next world index in which the edge appears; state is per-edge counters
  (extra memory, same marginals). The counters advance in rounds: each
  round marks every edge whose counter is still inside the block and
  draws all their next skips as one vector, so an edge costs one draw
  per occurrence plus its first, where MC costs one per world.
  The counters re-start for each logical block of ``BLOCK`` worlds,
  which preserves independence between blocks.
* ``rss`` — Recursive Stratified Sampling: the sample space is
  partitioned into prefix strata over the r highest-probability edges;
  samples are allocated to strata proportionally and each sample carries
  an importance weight Pr(stratum)·(θ/θ_stratum)/θ so that weighted
  frequency estimates stay unbiased.

World ids fall into fixed logical blocks of ``BLOCK`` worlds: block j
covers ids [BLOCK·j, BLOCK·j + BLOCK) and draws from its own generator,
seeded by (seed, BLOCK·j). So world w depends only on (seed, w), not on
how Spark cuts ids into partitions and Arrow batches, and every query
on one seed sees the same worlds.

``sample_block`` is the executor-side entry point: given a contiguous
range of world ids it draws the logical blocks the range overlaps and
returns the range's boolean edge masks and per-world weights.
``state_bytes`` reports the sampler bookkeeping footprint for the
memory column of Tables XIII/XIV.
"""
from __future__ import annotations

from functools import partial

import numpy as np

METHODS = ("mc", "lp", "rss")
BLOCK = 8  # worlds per logical block


def _rng(seed: int, start: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, start]))


def _mc_block(
    probs: np.ndarray, g: np.random.Generator, start: int
) -> tuple[np.ndarray, np.ndarray, int]:
    masks = g.random((BLOCK, len(probs))) < probs[None, :]
    return masks, np.full(BLOCK, 1.0), probs.nbytes


def _lp_block(
    probs: np.ndarray, g: np.random.Generator, start: int
) -> tuple[np.ndarray, np.ndarray, int]:
    b = BLOCK
    m = len(probs)
    masks = np.zeros((b, m), dtype=bool)
    # next_occ[j] is edge j's lazily advanced counter — the next world of
    # the block it appears in, and the per-edge state that costs LP its
    # extra memory. A geometric skip floor(log(1-u)/log(1-p)) jumps the
    # worlds it is absent from (log1p(-1) = -inf makes every skip 0);
    # capping it at b keeps a tiny p from overflowing int64. Each round
    # marks every edge still inside the block and draws all their next
    # skips in one vector, so draws come in round order, not edge order,
    # and at most b rounds follow the first draw.
    with np.errstate(divide="ignore"):
        logq = np.log1p(-probs)
    next_occ = np.minimum(np.floor(np.log1p(-g.random(m)) / logq), b).astype(np.int64)
    active = np.flatnonzero(next_occ < b)
    while active.size:
        masks[next_occ[active], active] = True
        skip = np.minimum(np.floor(np.log1p(-g.random(active.size)) / logq[active]), b)
        next_occ[active] += 1 + skip.astype(np.int64)
        active = active[next_occ[active] < b]
    state = probs.nbytes + next_occ.nbytes + 8 * m  # counters + visit tallies
    return masks, np.full(b, 1.0), state


def _rss_plan(probs: np.ndarray, theta: int, r: int) -> list[tuple[int, int, float]]:
    """Prefix strata over the r largest-prob edges.

    Stratum j (0 ≤ j < r): edges e_0..e_{j-1} absent, e_j present.
    Stratum r: all r edges absent. Returns (stratum_id, n_samples,
    weight_per_sample·θ) triples with Σ n_samples = θ.
    """
    idx = np.argsort(-probs)[:r]
    pr = probs[idx]
    strata_p = []
    acc = 1.0
    for j in range(len(idx)):
        strata_p.append(acc * pr[j])
        acc *= 1.0 - pr[j]
    strata_p.append(acc)
    alloc = [max(1, int(round(theta * p))) for p in strata_p]
    # trim/extend to exactly theta, preferring large strata
    while sum(alloc) > theta:
        alloc[int(np.argmax(alloc))] -= 1
    while sum(alloc) < theta:
        alloc[int(np.argmax(strata_p))] += 1
    plan = []
    for j, (nj, pj) in enumerate(zip(alloc, strata_p)):
        if nj > 0:
            plan.append((j, nj, pj * theta / nj))
    return plan


def _rss_block(
    probs: np.ndarray,
    g: np.random.Generator,
    start: int,
    theta: int,
    plan: list[tuple[int, int, float]],
    idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    # The plan has no stratum past θ, so the last block stops there.
    b = min(BLOCK, theta - start)
    # world id → (stratum, fixed edge states) via the cumulative plan
    bounds = np.cumsum([nj for _, nj, _ in plan])
    masks = g.random((b, len(probs))) < probs[None, :]
    weights = np.empty(b, dtype=np.float64)
    for row in range(b):
        si = int(np.searchsorted(bounds, start + row, side="right"))
        j, _nj, w = plan[si]
        weights[row] = w
        masks[row, idx[:j]] = False  # prefix absent
        if j < len(idx):
            masks[row, idx[j]] = True  # j-th present
    state = probs.nbytes + 8 * 3 * len(plan) + idx.nbytes + 64 * len(idx)  # strata tables
    return masks, weights, state


def sample_block(
    probs: np.ndarray,
    lo: int,
    hi: int,
    seed: int,
    method: str = "mc",
    theta: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Edge masks + importance weights + sampler-state bytes for worlds [lo, hi).

    World w is the same for every range that contains it (module doc).
    """
    if method == "mc":
        draw = _mc_block
    elif method == "lp":
        draw = _lp_block
    elif method == "rss":
        if theta is None:
            raise ValueError("rss needs total theta for stratum allocation")
        r = min(8, len(probs))  # strata over the 8 most probable edges
        draw = partial(
            _rss_block, theta=theta, plan=_rss_plan(probs, theta, r),
            idx=np.argsort(-probs)[:r],
        )
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    first = lo - lo % BLOCK
    parts = [draw(probs, _rng(seed, s), s) for s in range(first, hi, BLOCK)]
    cut = slice(lo - first, hi - first)
    masks = np.concatenate([p[0] for p in parts])[cut]
    weights = np.concatenate([p[1] for p in parts])[cut]
    return masks, weights, max(p[2] for p in parts)
