"""Possible-world samplers: marginal correctness and estimator weights."""
import numpy as np
import pytest

from repro.core.sampling import METHODS, sample_block


@pytest.mark.parametrize("method", METHODS)
def test_marginals_match_probabilities(method):
    g = np.random.default_rng(0)
    probs = g.uniform(0.05, 0.95, size=40)
    theta = 6000
    masks, w, _ = sample_block(probs, 0, theta, seed=3, method=method, theta=theta)
    est = (masks * w[:, None]).sum(axis=0) / theta
    assert np.abs(est - probs).max() < 0.05


@pytest.mark.parametrize("method", METHODS)
def test_weights_average_to_one(method):
    probs = np.array([0.2, 0.7, 0.95, 0.4])
    theta = 500
    _, w, _ = sample_block(probs, 0, theta, 1, method, theta)
    assert w.sum() / theta == pytest.approx(1.0, abs=0.05)


def test_mc_deterministic_in_seed():
    probs = np.array([0.3, 0.6])
    a, _, _ = sample_block(probs, 0, 10, 7, "mc")
    b, _, _ = sample_block(probs, 0, 10, 7, "mc")
    assert np.array_equal(a, b)


def test_lp_deterministic_in_seed():
    probs = np.array([0.05, 0.3, 0.6, 1.0])
    a, _, _ = sample_block(probs, 5, 37, 7, "lp")
    b, _, _ = sample_block(probs, 5, 37, 7, "lp")
    assert np.array_equal(a, b)


# p = 1 draws only zero skips: the counter then moves solely by the
# "1 +", so a sampler that lost it would never leave the block.
@pytest.mark.parametrize("p", [0.05, 0.5, 0.95, 1.0])
def test_lp_worlds_and_edges_independent(p):
    """LP's skip counters give independent worlds within a block, and
    independent edges within a world: joint frequencies ≈ p², and each
    block's occurrence count is Binomial(8, p)."""
    blocks, b = 4000, 8
    probs = np.full(2, p)
    masks = np.stack(
        [sample_block(probs, i * b, (i + 1) * b, 5, "lp")[0] for i in range(blocks)]
    )  # (blocks, b, edges)

    def close(x, expect, var, n):
        return abs(x - expect) <= 5 * np.sqrt(var / n) + 1e-12

    next_world = masks[:, 1:, :] & masks[:, :-1, :]
    assert close(next_world.mean(), p * p, p * p * (1 - p * p), next_world.size)
    other_edge = masks[:, :, 0] & masks[:, :, 1]
    assert close(other_edge.mean(), p * p, p * p * (1 - p * p), other_edge.size)
    counts = masks.sum(axis=1).ravel()
    assert close(counts.mean(), b * p, b * p * (1 - p), counts.size)
    assert abs(counts.var() - b * p * (1 - p)) <= 0.1 * b * p * (1 - p) + 1e-12


def test_block_split_consistency_mc():
    """Contiguous blocks must reproduce the same worlds as one big block."""
    probs = np.array([0.3, 0.6, 0.9])
    full, _, _ = sample_block(probs, 0, 20, 7, "mc")
    a, _, _ = sample_block(probs, 0, 10, 7, "mc")
    # block starting at 0 matches the prefix (same seed sequence anchor)
    assert np.array_equal(full[:10], a)


def test_prob_one_edges_always_present_lp():
    probs = np.array([1.0, 0.5])
    masks, _, _ = sample_block(probs, 0, 50, 1, "lp")
    assert masks[:, 0].all()


def test_tiny_prob_edges_absent_lp():
    """A skip of ~1e30 worlds must not wrap around int64."""
    masks, _, _ = sample_block(np.array([1e-30, 0.5]), 0, 50, 1, "lp")
    assert not masks[:, 0].any()


def test_prob_one_edges_always_present_mc():
    probs = np.array([1.0, 0.5])
    masks, _, _ = sample_block(probs, 0, 50, 1, "mc")
    assert masks[:, 0].all()


def test_rss_requires_theta():
    with pytest.raises(ValueError):
        sample_block(np.array([0.5]), 0, 10, 1, "rss")


def test_unknown_method():
    with pytest.raises(ValueError):
        sample_block(np.array([0.5]), 0, 10, 1, "bogus")


def test_state_bytes_ordering():
    """Memory column of Tables XIII/XIV: MC < LP, MC < RSS."""
    g = np.random.default_rng(1)
    probs = g.uniform(0.1, 0.9, 200)
    _, _, s_mc = sample_block(probs, 0, 64, 1, "mc")
    _, _, s_lp = sample_block(probs, 0, 64, 1, "lp")
    _, _, s_rss = sample_block(probs, 0, 64, 1, "rss", theta=640)
    assert s_mc < s_lp and s_mc < s_rss


def test_rss_high_prob_edges_stratified():
    """RSS fixes the prefix edges per stratum; weighted marginals stay right."""
    probs = np.array([0.9, 0.8, 0.1])
    theta = 4000
    masks, w, _ = sample_block(probs, 0, theta, 2, "rss", theta)
    est = (masks * w[:, None]).sum(axis=0) / theta
    assert np.abs(est - probs).max() < 0.05


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "cuts", [(), (5, 10), (7, 33), (8, 16, 24), (1, 2, 3), (42,), tuple(range(1, 43))]
)
def test_worlds_independent_of_block_split(method, cuts):
    """World w depends only on (seed, w): any split of [0, θ) into
    contiguous ranges, aligned to the logical block or not, down to single
    worlds, gives the masks and weights of one full range. θ = 43 clips
    RSS's last block at 3 worlds."""
    theta = 43
    probs = np.random.default_rng(4).uniform(0.05, 0.95, 30)
    full_m, full_w, _ = sample_block(probs, 0, theta, 9, method, theta)
    ends = (0, *cuts, theta)
    parts = [sample_block(probs, a, b, 9, method, theta) for a, b in zip(ends, ends[1:])]
    assert np.array_equal(np.concatenate([p[0] for p in parts]), full_m)
    assert np.array_equal(np.concatenate([p[1] for p in parts]), full_w)
