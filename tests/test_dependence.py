import math
import tracemalloc

import numpy as np
import pytest

from defirisk.dependence import EventSampler, attacked_paths, build_copula, event_thresholds
from defirisk.errors import DomainError
from defirisk.numerics import RngStream, std_normal_quantile

from oracles import (
    bivariate_upper_orthant,
    joint_cdf_estimate,
    normal_cdf,
    sample_frequencies,
    whole_block_events,
)
from reference_values import ATTACK_PROBS, PROTOCOL_IDS, SIMILARITY
from synth import grouped_similarity


def mc_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


class TestBuildCopula:
    def test_identity(self):
        spec = build_copula(np.eye(4))
        assert not spec.repaired
        assert spec.frobenius_shift == 0.0
        assert np.array_equal(spec.chol, np.eye(4))

    def test_reference_similarity_matrix(self):
        spec = build_copula(SIMILARITY)
        assert not spec.repaired  # the eight-protocol matrix is already PD
        assert np.max(np.abs(spec.chol @ spec.chol.T - spec.psi)) <= 1e-12

    def test_indefinite_input_repaired(self):
        m = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.0], [0.9, 0.0, 1.0]])
        if np.linalg.eigvalsh(m).min() >= 0:
            pytest.skip("construction not indefinite")
        spec = build_copula(m)
        assert spec.repaired
        assert spec.frobenius_shift > 0.0
        assert np.linalg.eigvalsh(spec.psi).min() > 0

    def test_validation_errors(self):
        with pytest.raises(DomainError):
            build_copula(np.array([[1.0, 0.4], [0.3, 1.0]]))  # asymmetric
        with pytest.raises(DomainError):
            build_copula(np.array([[2.0, 0.3], [0.3, 1.0]]))  # diagonal

    def test_negative_correlation_passes_unrepaired(self):
        # The [0, 1] rule is a portfolio similarity's; a copula correlation
        # may be negative, and a positive definite one is factored as given.
        m = np.array([[1.0, -0.3, 0.2], [-0.3, 1.0, 0.1], [0.2, 0.1, 1.0]])
        spec = build_copula(m)
        assert not spec.repaired and spec.frobenius_shift == 0.0
        assert np.array_equal(spec.psi, m)
        assert np.max(np.abs(spec.chol @ spec.chol.T - m)) <= 1e-15


class TestEventThresholds:
    def test_upper_tail_returns_the_probability(self):
        # 1 - pi rounds to 1 below pi = 1.1e-16, so the threshold must come
        # from pi itself.  The quantile's relative error grows with t^2 in
        # the upper tail, which is t = 37 at 1e-300.
        pi = np.geomspace(1e-300, 0.5, 601)
        t = event_thresholds(pi, pi.size)
        assert np.all(np.isfinite(t)) and np.all(np.diff(t) < 0.0)
        tail = np.array([normal_cdf(-x) for x in t])
        rel = np.abs(tail - pi) / pi
        assert rel.max() <= 2e-12
        assert rel[pi >= 1e-17].max() <= 1e-13

    def test_tiny_probability_is_never_drawn(self):
        spec = build_copula(np.eye(2))
        draws = sample_frequencies([1e-17, 0.5], spec, RngStream(31), size=1000)
        assert not draws[:, 0].any()
        assert event_thresholds([1e-17, 0.0, 1.0], 3)[1:].tolist() == [math.inf, -math.inf]


@pytest.fixture(scope="module")
def wide_copula():
    """A repaired 230-protocol copula, as wide as the generated book's."""
    return build_copula(grouped_similarity(230, seed=3))


class TestDrawEvents:
    # A full and a partial block, one whose last mask byte is padded, and
    # one whose last 4,096-path panel holds a single path; at d = 230 the
    # panels are 568 paths.  Without the copula the block is drawn
    # protocol by protocol with ``attacked_paths``.
    @pytest.mark.parametrize("size", [65_536, 34_464, 10_001, 4_097])
    @pytest.mark.parametrize("d", [7, 230])
    @pytest.mark.parametrize("with_copula", [True, False])
    def test_matches_the_whole_block_draw(self, size, d, with_copula, wide_copula):
        spec = build_copula(SIMILARITY[:7, :7]) if d == 7 else wide_copula
        probs = np.random.default_rng(d).uniform(0.0, 0.3, d)
        probs[:3] = (0.0, 1.0, 1e-17)
        stream = RngStream(51, 7)
        gen, ref_gen = stream.block_generator(2), stream.block_generator(2)
        copula = spec if with_copula else None
        if with_copula:
            mask = EventSampler(copula, probs, size).draw(gen, size)
            assert mask.shape == (d, (size + 7) // 8)
            bits = np.unpackbits(mask, axis=1)
            assert not bits[:, size:].any()  # the padding of the last byte
            hit = bits[:, :size].astype(bool)
        else:
            hit = np.zeros((d, size), dtype=bool)
            for i, pi in enumerate(probs):
                paths = attacked_paths(gen, size, pi)
                hit[i, paths] = True
                assert hit[i].sum() == paths.size  # distinct paths
        assert np.array_equal(hit, whole_block_events(ref_gen, size, probs, copula).T)
        # pi = 0 and 1e-17 attack no path, pi = 1 every path.
        assert not hit[0].any() and hit[1].all() and not hit[2].any()
        # The severity draws continue on the same generator.
        assert np.array_equal(gen.integers(0, 2**63, 4), ref_gen.integers(0, 2**63, 4))

    def test_reused_buffers_give_the_same_mask(self):
        # One sampler drawing 10,000 and then 5,000 paths, with its buffers
        # filled with garbage first, gives the masks of fresh samplers.
        spec = build_copula(SIMILARITY)
        probs = [ATTACK_PROBS[p] for p in PROTOCOL_IDS]
        sampler = EventSampler(spec, probs, 10_000)
        sampler.mask[:] = 255
        for scratch in (sampler.u, sampler.z, sampler.hit):
            scratch[:] = np.nan if scratch.dtype == float else True
        for size in (10_000, 5_000):
            fresh = EventSampler(spec, probs, size).draw(RngStream(52).generator(), size)
            reused = sampler.draw(RngStream(52).generator(), size)
            assert fresh.shape == reused.shape == (8, (size + 7) // 8)
            assert np.array_equal(
                np.unpackbits(fresh, axis=1, count=size), np.unpackbits(reused, axis=1, count=size)
            )
            assert np.shares_memory(reused, sampler.mask)

    @pytest.mark.parametrize("d", [7, 32, 230, 2_000])
    def test_footprint_is_the_mask_and_capped_panels(self, d):
        # A 65,536-path sampler holds 8 KB of mask per protocol and panels of
        # at most 2^17 normals, a Z panel of at most 32 rows and a bool
        # panel, about 2.2 MB whatever d is.  Panels of 4,096 paths would
        # take 9.5 MB at d = 230 and 82 MB at d = 2,000.
        spec = build_copula(np.eye(d))
        probs = np.full(d, 0.1)
        tracemalloc.start()
        try:
            sampler = EventSampler(spec, probs, 65_536)
            sampler.draw(RngStream(54).generator(), 1_024)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sampler.mask.nbytes == 8_192 * d
        assert peak <= 8_192 * d + 2.5 * 2**20
        assert sampler.panel == (4_096 if d <= 32 else (2**17 // d) // 8 * 8)


class TestAttackedPaths:
    @pytest.mark.parametrize("size", [65_536, 4_097])
    @pytest.mark.parametrize("pi", [0.02, 0.1, 0.5])
    def test_counts_are_binomial_and_paths_uniform(self, pi, size):
        # numpy draws a small subset by Floyd's algorithm and a large one
        # (over 1/20 of more than 10,000 paths) by a partial shuffle; 0.02
        # and 0.1 of 65,536 paths take one each.  Over 1,000 blocks the
        # counts' mean and variance match Binomial(size, pi) within 4 SEs,
        # and the paths, distinct in each block, fill 64 buckets of
        # size / 64 paths uniformly (chi-square p above 1e-4).
        from scipy.stats import chi2

        blocks = 1_000
        stream = RngStream(53, 0)
        counts = np.empty(blocks)
        buckets = np.zeros(64)
        for b in range(blocks):
            paths = attacked_paths(stream.block_generator(b), size, pi)
            per_path = np.bincount(paths, minlength=size)  # rejects a negative path
            assert per_path.size == size and per_path.max() <= 1
            counts[b] = paths.size
            buckets += np.bincount(paths * 64 // size, minlength=64)
        mean, var = size * pi, size * pi * (1.0 - pi)
        assert abs(counts.mean() - mean) <= 4.0 * math.sqrt(var / blocks)
        assert abs(counts.var(ddof=1) - var) <= 4.0 * var * math.sqrt(2.0 / (blocks - 1))
        expected = counts.sum() * np.bincount(np.arange(size) * 64 // size) / size
        assert chi2.sf(float(((buckets - expected) ** 2 / expected).sum()), 63) > 1e-4


class TestSampleFrequencies:
    def test_identity_product_rule(self):
        spec = build_copula(np.eye(2))
        n = 1_000_000
        draws = sample_frequencies([0.5, 0.5], spec, RngStream(21), size=n)
        both = float((draws.sum(axis=1) == 2).mean())
        assert abs(both - 0.25) <= 0.0015

    def test_comonotone_joint_success_is_min_probability(self):
        spec = build_copula(np.ones((2, 2)))
        assert spec.repaired  # the all-ones matrix is singular
        n = 1_000_000
        draws = sample_frequencies([0.3, 0.5], spec, RngStream(22), size=n)
        both = float((draws.sum(axis=1) == 2).mean())
        assert abs(both - 0.3) <= 0.0015

    def test_pairwise_joint_matches_quadrature_oracle(self):
        rho = SIMILARITY[0, 3]  # strongest pair in the reference matrix
        pi = (ATTACK_PROBS["A"], ATTACK_PROBS["D"])
        spec = build_copula(np.array([[1.0, rho], [rho, 1.0]]))
        n = 1_000_000
        draws = sample_frequencies(list(pi), spec, RngStream(23), size=n)
        both = float((draws == 1).all(axis=1).mean())
        a = std_normal_quantile(1.0 - pi[0])
        b = std_normal_quantile(1.0 - pi[1])
        expected = bivariate_upper_orthant(a, b, rho)
        assert abs(both - expected) <= 3.0 * mc_se(expected, n)

    def test_marginals_preserved_on_reference_matrix(self):
        spec = build_copula(SIMILARITY)
        pi = np.array([ATTACK_PROBS[p] for p in PROTOCOL_IDS])
        n = 1_000_000
        draws = sample_frequencies(pi, spec, RngStream(24), size=n)
        rates = draws.mean(axis=0)
        for j in range(len(pi)):
            assert abs(rates[j] - pi[j]) <= 3.0 * mc_se(pi[j], n)

    def test_positive_quadrant_dependence(self):
        spec = build_copula(SIMILARITY)
        pi = np.array([ATTACK_PROBS[p] for p in PROTOCOL_IDS])
        n = 1_000_000
        draws = sample_frequencies(pi, spec, RngStream(25), size=n)
        for i in range(len(pi)):
            for j in range(i + 1, len(pi)):
                joint = float(((draws[:, i] == 1) & (draws[:, j] == 1)).mean())
                indep = pi[i] * pi[j]
                assert joint >= indep - 3.0 * mc_se(indep, n)

    def test_deterministic(self):
        spec = build_copula(SIMILARITY)
        pi = np.array([ATTACK_PROBS[p] for p in PROTOCOL_IDS])
        a = sample_frequencies(pi, spec, RngStream(26), size=64)
        b = sample_frequencies(pi, spec, RngStream(26), size=64)
        assert np.array_equal(a, b)

    def test_certain_and_impossible_attacks(self):
        spec = build_copula(np.array([[1.0, 0.5], [0.5, 1.0]]))
        draws = sample_frequencies([0.0, 1.0], spec, RngStream(30), size=1000)
        assert not draws[:, 0].any()
        assert draws[:, 1].all()

    @pytest.mark.parametrize("probs", [[-0.1, 0.5], [0.5, 1.1], [float("nan"), 0.5]])
    def test_probability_outside_unit_interval_rejected(self, probs):
        spec = build_copula(np.eye(2))
        with pytest.raises(DomainError):
            sample_frequencies(probs, spec, RngStream(1))

    def test_dimension_mismatch(self):
        spec = build_copula(np.eye(3))
        with pytest.raises(DomainError):
            sample_frequencies([0.1, 0.2], spec, RngStream(1))


class TestJointCdfEstimate:
    def test_all_upper_bounds_short_circuit(self):
        spec = build_copula(SIMILARITY)
        pi = np.array([ATTACK_PROBS[p] for p in PROTOCOL_IDS])
        p, se = joint_cdf_estimate(pi, spec, np.ones(8, dtype=int), n_samples=10, rng=RngStream(1))
        assert (p, se) == (1.0, 0.0)

    def test_identity_matches_product(self):
        spec = build_copula(np.eye(3))
        pi = [0.1, 0.25, 0.4]
        p, se = joint_cdf_estimate(
            pi, spec, np.zeros(3, dtype=int), n_samples=1_000_000, rng=RngStream(27)
        )
        expected = float(np.prod([1.0 - x for x in pi]))
        assert abs(p - expected) <= 3.0 * max(se, 1e-6)

    def test_pairwise_matches_quadrature_oracle(self):
        rho = 0.8
        pi = (0.024025, 0.036861)
        spec = build_copula(np.array([[1.0, rho], [rho, 1.0]]))
        a = std_normal_quantile(1.0 - pi[0])
        b = std_normal_quantile(1.0 - pi[1])
        # P(N1 = 0, N2 = 0) = P(Z1 <= a, Z2 <= b) by inclusion-exclusion.
        upper = bivariate_upper_orthant(a, b, rho)
        expected = 1.0 - (1.0 - normal_cdf(a)) - (1.0 - normal_cdf(b)) + upper
        p, se = joint_cdf_estimate(
            pi, spec, np.zeros(2, dtype=int), n_samples=1_000_000, rng=RngStream(28)
        )
        assert abs(p - expected) <= 3.0 * max(se, 1e-6)

    def test_mixed_bounds(self):
        spec = build_copula(np.eye(2))
        pi = [0.3, 0.4]
        p, se = joint_cdf_estimate(
            pi, spec, np.array([0, 1]), n_samples=500_000, rng=RngStream(29)
        )
        # Second coordinate is unconstrained, so this is P(N1 = 0).
        assert abs(p - 0.7) <= 3.0 * max(se, 1e-6)

    def test_bad_bounds(self):
        spec = build_copula(np.eye(2))
        with pytest.raises(DomainError):
            joint_cdf_estimate([0.1, 0.2], spec, np.array([0, 2]), rng=RngStream(1))
