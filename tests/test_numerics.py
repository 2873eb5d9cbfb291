import math

import mpmath
import numpy as np
import pytest

from defirisk.errors import DomainError
from defirisk.numerics import (
    EIGENVALUE_FLOOR,
    RngStream,
    cholesky,
    nearest_correlation,
    std_normal_quantile,
)

from oracles import mvn_sample, normal_cdf
from reference_values import SIMILARITY

mpmath.mp.dps = 40


def oracle_quantile(p: float) -> float:
    return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_derived_value(self):
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)

    def test_against_oracle(self):
        for p in np.linspace(1e-6, 1 - 1e-6, 201):
            assert std_normal_quantile(float(p)) == pytest.approx(
                oracle_quantile(float(p)), abs=1e-9
            )

    def test_round_trip_grid(self):
        for p in np.linspace(1e-6, 1 - 1e-6, 1000):
            assert abs(normal_cdf(std_normal_quantile(float(p))) - p) <= 1e-10

    def test_round_trip_attack_probability(self):
        p = 0.024025
        assert normal_cdf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-10)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(4)), np.eye(4))

    def test_two_by_two_hand_algebra(self):
        # off-diagonal 0.8: second row is (0.8, sqrt(1 - 0.64)) = (0.8, 0.6)
        low = cholesky(np.array([[1.0, 0.8], [0.8, 1.0]]))
        assert low == pytest.approx(np.array([[1.0, 0.0], [0.8, 0.6]]), abs=1e-15)

    def test_similarity_matrix_reconstruction(self):
        repaired = nearest_correlation(SIMILARITY)
        low = cholesky(repaired)
        assert np.max(np.abs(low @ low.T - repaired)) <= 1e-12

    def test_indefinite_names_pivot(self):
        # An indefinite matrix that skipped the repair fails at its pivot.
        m = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        with pytest.raises(DomainError, match=r"^matrix is not positive definite: pivot 2 = "):
            cholesky(m)

    def test_non_pd_names_pivot(self):
        bad = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DomainError) as err:
            cholesky(bad)
        assert str(err.value) == "matrix is not positive definite: pivot 1 = 0"

    def test_lower_triangular_positive_diagonal(self):
        low = cholesky(nearest_correlation(SIMILARITY))
        assert np.allclose(low, np.tril(low))
        assert np.all(np.diag(low) > 0)


class TestNearestCorrelation:
    def test_identity_unchanged(self):
        out = nearest_correlation(np.eye(5))
        assert np.array_equal(out, np.eye(5))

    def test_pd_passthrough_exact(self):
        m = np.array([[1.0, 0.3], [0.3, 1.0]])
        out = nearest_correlation(m)
        assert np.array_equal(out, m)

    def test_indefinite_repaired_with_grid_oracle(self):
        m = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        assert np.linalg.eigvalsh(m).min() < 0
        out = nearest_correlation(m)
        w = np.linalg.eigvalsh(out)
        assert w.min() >= EIGENVALUE_FLOOR * 0.99
        assert np.max(np.abs(np.diag(out) - 1.0)) <= 1e-12
        ours = np.linalg.norm(out - m)

        # Brute-force oracle: search the three free off-diagonals over a
        # coarse global grid, then refine around the argmin at step 1e-3.
        def best_on_grid(g1, g2, g3):
            a, b, c = np.meshgrid(g1, g2, g3, indexing="ij")
            pd = (1 - a**2 > 0) & (1 + 2 * a * b * c - a**2 - b**2 - c**2 > 0)
            dist2 = 2 * ((a - 0.9) ** 2 + (b - 0.9) ** 2 + (c + 0.9) ** 2)
            dist2[~pd] = np.inf
            k = np.unravel_index(np.argmin(dist2), dist2.shape)
            return math.sqrt(dist2[k]), (g1[k[0]], g2[k[1]], g3[k[2]])

        coarse = np.arange(-0.99, 0.995, 0.01)
        _, (a0, b0, c0) = best_on_grid(coarse, coarse, coarse)
        fine = 0.02
        d_grid, _ = best_on_grid(
            np.arange(a0 - fine, a0 + fine, 1e-3),
            np.arange(b0 - fine, b0 + fine, 1e-3),
            np.arange(c0 - fine, c0 + fine, 1e-3),
        )
        # Our projection must not be worse than the best grid point (up to
        # grid resolution).
        assert ours <= d_grid + 5e-3

    def test_idempotent(self):
        m = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        once = nearest_correlation(m)
        twice = nearest_correlation(once)
        assert np.max(np.abs(twice - once)) <= 1e-12

    @pytest.mark.parametrize("m", [
        np.array([[1.0, 0.3], [0.3, 1.0]]),
        np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]]),
    ], ids=["passthrough", "repaired"])
    def test_result_is_read_only_and_leaves_input_writable(self, m):
        out = nearest_correlation(m)
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0, 1] = 0.0
        assert m.flags.writeable

    def test_bad_diagonal_rejected(self):
        with pytest.raises(DomainError, match="must have a unit diagonal"):
            nearest_correlation(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_non_symmetric_rejected(self):
        m = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(DomainError):
            nearest_correlation(m)

    def test_similarity_matrix_already_pd(self):
        out = nearest_correlation(SIMILARITY)
        assert np.array_equal(out, SIMILARITY)


class TestRngStream:
    def test_golden_uniforms(self):
        # Pins the SFC64 stream keyed by SeedSequence(seed, spawn_key=(stream_id, block)).
        got = RngStream(42, 0).generator().random(4)
        expected = [
            0.37956408825274657,
            0.99649675954541,
            0.40478935824096596,
            0.8756914703047523,
        ]
        assert got.tolist() == expected

    def test_golden_normals(self):
        got = RngStream(42, 0).generator().standard_normal(4)
        expected = [
            0.06060162873768834,
            1.7789943541606692,
            0.516355671412391,
            -0.009458703378142516,
        ]
        assert got.tolist() == expected

    def test_golden_substream_and_block(self):
        assert RngStream(42, 7).generator().random(2).tolist() == [
            0.8079033669232482,
            0.6388107519823247,
        ]
        assert RngStream(42, 0).block_generator(3).random(2).tolist() == [
            0.1795235622015341,
            0.8971132123641051,
        ]

    def test_repeatability(self):
        a = RngStream(7, 3).generator().standard_normal(100)
        b = RngStream(7, 3).generator().standard_normal(100)
        assert np.array_equal(a, b)

    def test_substreams_uncorrelated(self):
        n = 1_000_000
        a = RngStream(11, 0).generator().standard_normal(n)
        b = RngStream(11, 1).generator().standard_normal(n)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.01

    def test_blocks_disjoint(self):
        base = RngStream(5, 0)
        first = base.block_generator(0).random(8)
        second = base.block_generator(1).random(8)
        assert not np.array_equal(first, second)
        # block 0 equals the plain stream start
        assert np.array_equal(first, base.generator().random(8))

    def test_distinct_keys_give_distinct_streams(self):
        # Every (seed, stream_id, block) below, the extreme words included,
        # starts its own stream, and generator() is block 0.
        keys = [(seed, stream, block) for seed in (0, 1, 2**32, 2**64 - 1)
                for stream in (0, 1, 2**32, 2**64 - 1) for block in (0, 1, 2**32 - 1)]
        starts = {RngStream(seed, stream).block_generator(block).bytes(16) for seed, stream, block in keys}
        assert len(starts) == len(keys)
        for seed, stream, _ in keys:
            rng = RngStream(seed, stream)
            assert rng.generator().bytes(64) == rng.block_generator(0).bytes(64)
        for block in (-1, 2**32):  # a wider block would share words with the stream id
            with pytest.raises(DomainError):
                RngStream(0, 0).block_generator(block)

    def test_key_range_validated(self):
        with pytest.raises(DomainError):
            RngStream(-1, 0)
        with pytest.raises(DomainError):
            RngStream(0, 2**64)


class TestMvnSample:
    def test_identity_factor_uncorrelated(self):
        z = mvn_sample(np.eye(2), RngStream(3, 0), size=1_000_000)
        r = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
        assert abs(r) < 0.01

    def test_deterministic(self):
        low = cholesky(np.array([[1.0, 0.8], [0.8, 1.0]]))
        a = mvn_sample(low, RngStream(9, 2), size=16)
        b = mvn_sample(low, RngStream(9, 2), size=16)
        assert np.array_equal(a, b)

    def test_correlated_factor(self):
        low = cholesky(np.array([[1.0, 0.8], [0.8, 1.0]]))
        z = mvn_sample(low, RngStream(4, 0), size=1_000_000)
        r = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
        # 3-sigma band for the sample correlation of a bivariate normal:
        # sd ~ (1 - rho^2)/sqrt(n) = 0.36e-3
        assert r == pytest.approx(0.8, abs=0.003)

    def test_single_vector(self):
        v = mvn_sample(np.eye(3), RngStream(1, 0))
        assert v.shape == (3,)

    def test_marginals_standard_normal(self):
        low = cholesky(nearest_correlation(SIMILARITY))
        z = mvn_sample(low, RngStream(6, 0), size=200_000)
        assert np.abs(z.mean(axis=0)).max() < 0.01
        assert np.abs(z.std(axis=0) - 1.0).max() < 0.01
