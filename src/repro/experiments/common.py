"""Shared experiment plumbing: dataset registry, θ defaults, purity."""
from __future__ import annotations

from typing import Callable

from ..core.uncertain import UncertainGraph
from ..datasets import (
    biomine_lite,
    friendster_lite,
    hs_lite,
    intel_lab,
    karate_club,
    lastfm,
    twitter_lite,
)

DATASETS: dict[str, Callable[[], UncertainGraph]] = {
    "karate": karate_club,
    "intel": intel_lab,
    "lastfm": lastfm,
    "hs_lite": hs_lite,
    "biomine_lite": biomine_lite,
    "twitter_lite": twitter_lite,
    "friendster_lite": friendster_lite,
}

# θ at convergence (§VI-I): the paper uses 160 for the small datasets
# and 640 for the large ones; our convergence study (table13/14) lands in
# the same range.
THETA: dict[str, int] = {
    "karate": 160,
    "intel": 160,
    "lastfm": 160,
    "hs_lite": 320,
    "biomine_lite": 320,
    "twitter_lite": 320,
    "friendster_lite": 160,
}

_CACHE: dict[str, UncertainGraph] = {}


def load(name: str) -> UncertainGraph:
    if name not in _CACHE:
        _CACHE[name] = DATASETS[name]()
    return _CACHE[name]


def purity(nodes, communities: dict[int, int]) -> float:
    """Highest fraction of a node set drawn from one ground-truth community."""
    if not nodes:
        return 0.0
    counts: dict[int, int] = {}
    for v in nodes:
        c = communities[int(v)]
        counts[c] = counts.get(c, 0) + 1
    return max(counts.values()) / len(nodes)

