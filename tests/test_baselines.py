import math
import threading

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from drowse.baselines import (
    FEATURE_CHUNK,
    GNB_VAR_FLOOR,
    SHRINKAGE,
    approximate_entropy,
    classify,
    feature_matrix,
    four_entropies,
    fuzzy_entropy,
    loso_accuracies,
    power_ratios,
    ratios_from_bands,
    relative_powers,
    sample_entropy,
    spectral_entropy,
    welch_psd,
)
from drowse.dataio import generate_synthetic
from drowse.numerics import Rng

T384 = np.arange(384) / 128.0


def tone(freq_hz, amp=1.0, phase=0.0):
    return amp * np.sin(2 * np.pi * freq_hz * T384 + phase)


# Brute-force oracles: for each template length, every pair's Chebyshev
# distance from one [N, N, m] broadcast, then a count or exp. This is the
# formulation the shifted-block and circular-lag code in baselines
# replaced. The counts are exact; FuzzyEn's oracle gathers its unordered
# pairs from the full matrix in the program's circular-lag order and sums
# them as one [N//2, N] array, so the two must agree bit for bit.
# fuzzyen_full_oracle keeps the textbook form, the full matrix sum minus
# its diagonal, which agrees only to rounding.

def _broadcast_chebyshev(t):
    return np.abs(t[:, None, :] - t[None, :, :]).max(axis=2)


def _reference_setup(x, r):
    x = np.asarray(x, dtype=np.float64).ravel()
    sd = float(x.std())
    return x, sd, (0.2 * sd if r is None else r)


def apen_oracle(x, m=2, r=None):
    x, sd, r = _reference_setup(x, r)
    if sd == 0.0:
        return 0.0

    def phi(mm):
        templates = sliding_window_view(x, mm)
        counts = (_broadcast_chebyshev(templates) <= r).sum(axis=1)
        return np.mean(np.log(counts / templates.shape[0]))

    return float(phi(m) - phi(m + 1))


def sampen_oracle(x, m=2, r=None):
    x, sd, r = _reference_setup(x, r)
    if sd == 0.0:
        return 0.0
    n_templates = x.size - m

    def matches(mm):
        templates = sliding_window_view(x, mm)[:n_templates]
        return (_broadcast_chebyshev(templates) <= r).sum() - n_templates

    b = matches(m)
    a = matches(m + 1)
    return float(-np.log(max(a, 0.5) / max(b, 0.5)))


def circular_lag_pairs(n):
    """(i, j) index arrays of shape [n//2, n]: row L-1 pairs template i with
    (i + L) mod n, and for even n the second half of the last row repeats
    its first half, so `keep` masks it out."""
    half = n // 2
    i = np.broadcast_to(np.arange(n), (half, n))
    j = (i + np.arange(1, half + 1)[:, None]) % n
    keep = np.ones((half, n), dtype=bool)
    if n % 2 == 0:
        keep[-1, half:] = False
    return i, j, keep


def _fuzzy_memberships(x, m, r, width):
    x, sd, r = _reference_setup(x, r)
    n_templates = x.size - m

    def memberships(mm):
        templates = sliding_window_view(x, mm)[:n_templates]
        templates = templates - templates.mean(axis=1, keepdims=True)
        return np.exp(-(_broadcast_chebyshev(templates) ** width) / r)

    return sd, n_templates, memberships


def fuzzyen_oracle(x, m=2, r=None, width=2):
    sd, n_templates, memberships = _fuzzy_memberships(x, m, r, width)
    if sd == 0.0:
        return 0.0
    i, j, keep = circular_lag_pairs(n_templates)

    def phi(mm):
        pairs = np.where(keep, memberships(mm)[i, j], 0.0)
        return 2.0 * pairs.sum() / (n_templates * (n_templates - 1))

    return float(np.log(phi(m)) - np.log(phi(m + 1)))


def fuzzyen_full_oracle(x, m=2, r=None, width=2):
    sd, n_templates, memberships = _fuzzy_memberships(x, m, r, width)
    if sd == 0.0:
        return 0.0

    def phi(mm):
        return (memberships(mm).sum() - n_templates) / (n_templates * (n_templates - 1))

    return float(np.log(phi(m)) - np.log(phi(m + 1)))


class TestWelch:
    def test_tone_mass_concentrated(self):
        freqs, psd = welch_psd(tone(10.0))
        mass = psd[(freqs >= 9) & (freqs <= 11)].sum()
        assert mass / psd.sum() >= 0.95

    def test_white_noise_roughly_flat(self):
        x = Rng(41).normal((384,))
        freqs, psd = welch_psd(x)
        band = psd[(freqs >= 2) & (freqs <= 60)]
        chunk_means = band[: 6 * (band.size // 6)].reshape(6, -1).mean(axis=1)
        assert chunk_means.max() / chunk_means.min() < 3.0

    def test_two_tone_peaks(self):
        freqs, psd = welch_psd(tone(5.0) + tone(20.0))
        top2 = set(freqs[np.argsort(psd)[-2:]])
        assert top2 == {5.0, 20.0}

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="384"):
            welch_psd(np.zeros(256))


class TestRelativePowers:
    def test_alpha_tone(self):
        rel = relative_powers(tone(10.0))
        assert rel[2] >= 0.95

    def test_delta_tone(self):
        rel = relative_powers(tone(2.0))
        assert rel[0] >= 0.95

    def test_sums_to_one(self):
        rng = Rng(42)
        for _ in range(20):
            rel = relative_powers(rng.normal((384,)))
            assert rel.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(rel >= 0)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError, match="power"):
            relative_powers(np.zeros(384))


class TestPowerRatios:
    def test_arithmetic(self):
        np.testing.assert_allclose(ratios_from_bands(np.array([0.0, 1.0, 2.0, 4.0])),
                                   [0.75, 0.5, 0.5, 0.25])
        np.testing.assert_allclose(ratios_from_bands(np.array([5.0, 1.0, 1.0, 1.0])),
                                   [2.0, 1.0, 1.0, 1.0])

    def test_pure_beta_signal(self):
        ratios = power_ratios(tone(25.0))
        assert np.all(ratios < 0.05)

    def test_zero_denominator_floored(self):
        out = ratios_from_bands(np.array([0.0, 1.0, 0.0, 0.0]))
        assert np.all(np.isfinite(out))


class TestSpectralEntropy:
    def test_tone_near_degenerate(self):
        assert spectral_entropy(tone(10.0)) <= 0.3

    def test_white_noise_near_uniform(self):
        assert spectral_entropy(Rng(43).normal((384,))) >= 0.9

    def test_two_tone_between_ideal_and_noise(self):
        # idealized two-bin distribution over the 30-bin band
        p = np.array([0.5, 0.5])
        ideal = -np.sum(p * np.log(p)) / np.log(30)
        assert ideal == pytest.approx(math.log(2) / math.log(30))
        one = spectral_entropy(tone(5.0))
        two = spectral_entropy(tone(5.0) + tone(20.0))
        # window leakage spreads each peak over a few bins, so the measured
        # value sits above the ideal two-bin entropy but well below noise
        assert ideal < two < 0.6
        assert one < two

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError, match="power"):
            spectral_entropy(np.zeros(384))


class TestEntropies:
    def test_constant_signals(self):
        x = np.full(60, 2.5)
        assert approximate_entropy(x) == 0.0
        assert sample_entropy(x) == 0.0
        assert fuzzy_entropy(x) == 0.0

    def test_alternating_sampen_zero(self):
        x = np.tile([1.0, -1.0], 20)
        assert sample_entropy(x) == pytest.approx(0.0, abs=1e-12)
        assert sample_entropy(x) == pytest.approx(sampen_oracle(x), abs=1e-12)

    def test_matches_oracles_on_random_signals(self):
        rng = Rng(44)
        for _ in range(10):
            x = rng.normal((50,))
            assert approximate_entropy(x) == pytest.approx(apen_oracle(x), abs=1e-10)
            assert sample_entropy(x) == pytest.approx(sampen_oracle(x), abs=1e-10)
            assert fuzzy_entropy(x) == pytest.approx(fuzzyen_oracle(x), abs=1e-10)

    def test_circular_lags_list_each_pair_once(self):
        for n in range(2, 14):
            i, j, keep = circular_lag_pairs(n)
            pairs = sorted((min(a, b), max(a, b)) for a, b in zip(i[keep], j[keep]))
            assert pairs == [(a, b) for a in range(n) for b in range(a + 1, n)], n

    def test_short_signals_match_the_full_matrix_form(self):
        # N = n - m templates from 2 to 13: every lag count, odd and even
        x = Rng(59).normal((16,))
        for m in (1, 2, 3):
            for n in range(m + 2, m + 14):
                assert fuzzy_entropy(x[:n], m) == pytest.approx(
                    fuzzyen_full_oracle(x[:n], m), abs=1e-10), (m, n)

    def test_fuzzy_entropy_has_no_diagonal_cancellation(self):
        # Far-apart templates make every off-diagonal similarity tiny; the
        # full-matrix sum minus N rounds their total to 0, whose log is -inf.
        row = generate_synthetic(2, 10, 54).data[3].astype(np.float64)
        assert fuzzy_entropy(row[:6], 2) == fuzzyen_oracle(row[:6], 2)
        assert fuzzy_entropy(row[:6], 2) == pytest.approx(84.129, abs=1e-3)
        assert fuzzy_entropy(row[:7], 3) == fuzzyen_oracle(row[:7], 3)
        assert fuzzy_entropy(row[:7], 3) == pytest.approx(-1.4166, abs=1e-4)

    def test_sine_more_regular_than_noise(self):
        t = np.arange(100) / 100.0
        sine = np.sin(2 * np.pi * 5.0 * t)
        noise = Rng(45).normal((100,))
        noise *= sine.std() / noise.std()
        assert approximate_entropy(sine) < approximate_entropy(noise)

    def test_fuzzy_entropy_decreases_with_r(self):
        x = Rng(46).normal((80,))
        r = 0.2 * float(x.std())
        assert fuzzy_entropy(x, r=r) > fuzzy_entropy(x, r=2 * r)

    def test_sampen_zero_match_fallback(self):
        x = Rng(47).normal((40,))
        got = sample_entropy(x, r=1e-12)
        assert np.isfinite(got)
        assert got == pytest.approx(sampen_oracle(x, r=1e-12), abs=1e-10)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least"):
            sample_entropy(np.zeros(3))
        with pytest.raises(ValueError, match="at least 1"):
            approximate_entropy(np.zeros(10), m=0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bit_identical_to_broadcast_reference(self, m):
        # rows as feature_matrix sees them: float32 samples widened to float64
        rows = [row.astype(np.float64) for row in generate_synthetic(2, 10, 54).data[::10]]
        # an integer-valued signal with r=1 puts many distances exactly on r
        steps = np.round(3.0 * Rng(55).normal((384,)))
        cases = [(row, None) for row in rows] + [(steps, 1.0)]
        for x, r in cases:
            np.testing.assert_array_equal(sample_entropy(x, m, r), sampen_oracle(x, m, r))
            np.testing.assert_array_equal(approximate_entropy(x, m, r),
                                          apen_oracle(x, m, r))
            np.testing.assert_array_equal(fuzzy_entropy(x, m, r), fuzzyen_oracle(x, m, r))
        assert np.any(np.abs(steps[:, None] - steps[None, :]) == 1.0)
        if m == 2:
            for x, _ in cases:
                reference = [sampen_oracle(x), fuzzyen_oracle(x), apen_oracle(x),
                             spectral_entropy(x)]
                np.testing.assert_array_equal(four_entropies(x), reference)

    @pytest.mark.parametrize("sizes", [(384, 20, 50, 201), (20, 50, 201, 384)])
    def test_reused_buffers_keep_the_bits(self, sizes):
        # Entropy buffers outlive each call; a signal shorter or longer than
        # the previous one must see no trace of it, and fuzzy sums must add
        # in the order of an exactly sized fresh array.
        signal = generate_synthetic(2, 10, 56).data[3].astype(np.float64)
        for n in sizes:
            x = signal[:n]
            for m in (1, 2, 3):
                for r in (None, 0.15 * float(x.std())):
                    np.testing.assert_array_equal(sample_entropy(x, m, r),
                                                  sampen_oracle(x, m, r))
                    np.testing.assert_array_equal(approximate_entropy(x, m, r),
                                                  apen_oracle(x, m, r))
                    np.testing.assert_array_equal(fuzzy_entropy(x, m, r),
                                                  fuzzyen_oracle(x, m, r))

    def test_threads_keep_their_own_buffers(self):
        # More threads than cores, each cycling through signal lengths, so a
        # buffer shared between threads would be resized and overwritten
        # while another thread reads it.
        rows = [row.astype(np.float64) for row in generate_synthetic(2, 10, 58).data[:4]]
        signals = [row[:n] for row, n in zip(rows, (384, 200, 300, 100))]

        def entropies(x):
            return [sample_entropy(x), fuzzy_entropy(x), approximate_entropy(x)]

        expected = [entropies(x) for x in signals]
        mismatches = []

        def work(offset):
            for step in range(12):
                i = (offset + step) % len(signals)
                if entropies(signals[i]) != expected[i]:
                    mismatches.append(i)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_feature_matrix_matches_per_row_entropies(self):
        data = generate_synthetic(2, 10, 57).data[::4]
        expected = np.stack([four_entropies(row.astype(np.float64)) for row in data])
        np.testing.assert_array_equal(feature_matrix(data, "four_entropies"), expected)

    def test_four_entropies_vector(self):
        values = four_entropies(tone(10.0) + 0.1 * Rng(48).normal((384,)))
        assert values.shape == (4,)
        assert np.all(np.isfinite(values))


class TestFeatureDispatch:
    def test_kinds(self):
        x = tone(10.0) + 0.1 * Rng(49).normal((384,))
        np.testing.assert_array_equal(feature_matrix(x[None, :], "relative_power")[0],
                                      relative_powers(x))
        np.testing.assert_array_equal(feature_matrix(x[None, :], "power_ratio")[0],
                                      power_ratios(x))
        with pytest.raises(ValueError, match="unknown feature"):
            feature_matrix(x[None, :], "wavelets")

    def test_permutation_equivariance(self):
        data = generate_synthetic(2, 10, 6).data
        perm = Rng(50).permutation(data.shape[0])
        for kind in ("relative_power", "power_ratio", "four_entropies"):
            a = feature_matrix(data, kind)[perm]
            b = feature_matrix(data[perm], kind)
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["relative_power", "power_ratio", "four_entropies"])
    def test_rows_keep_their_bits_in_any_call(self, kind):
        func = {"relative_power": relative_powers, "power_ratio": power_ratios,
                "four_entropies": four_entropies}[kind]
        # More rows than FEATURE_CHUNK, so the whole-file call spans two chunks.
        data = generate_synthetic(2, 80, 59).data
        assert data.shape[0] > FEATURE_CHUNK
        whole = feature_matrix(data, kind)
        np.testing.assert_array_equal(func(data[0]), whole[0])
        np.testing.assert_array_equal(func(data[257:258]), whole[257:258])
        for start, stop in ((255, 257), (100, 107), (10, 310)):
            np.testing.assert_array_equal(func(data[start:stop]), whole[start:stop])

    def test_silent_sample_named_across_chunks(self):
        data = generate_synthetic(2, 80, 60).data
        data[FEATURE_CHUNK + 14] = 0.0
        with pytest.raises(ValueError, match=f"sample {FEATURE_CHUNK + 14} .*power"):
            feature_matrix(data, "relative_power")


def clouds(n_per_class=40, distance=3.0, seed=51):
    rng = Rng(seed)
    a = rng.normal((n_per_class, 4), mean=0.0, std=0.5)
    b = rng.normal((n_per_class, 4), mean=distance, std=0.5)
    x = np.vstack([a, b])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return x, y


# Independent reference forms of two Gaussian classifiers: LDA's linear score
# q' S^-1 mu - mu' S^-1 mu / 2 + log prior on the pooled shrunk covariance,
# and GNB's per-feature sum of log normal densities. They round differently
# from classify's quadratic discriminant, but must make the same predictions.

def _standardized(x, q):
    mean, std = x.mean(axis=0), x.std(axis=0)
    std = np.where(std > 1e-12, std, 1.0)
    return (x - mean) / std, (q - mean) / std


def linear_lda_oracle(x, y, q):
    z, q = _standardized(x, q)
    n, d = z.shape
    mus = np.stack([z[y == c].mean(axis=0) for c in (0, 1)])
    centered = z - mus[y]
    cov = centered.T @ centered / (n - 2)
    inv = np.linalg.inv(cov + SHRINKAGE * np.trace(cov) / d * np.eye(d))
    scores = [q @ inv @ mu - 0.5 * mu @ inv @ mu + np.log(np.mean(y == c))
              for c, mu in enumerate(mus)]
    return (scores[1] > scores[0]).astype(np.int64)


def per_feature_gnb_oracle(x, y, q):
    z, q = _standardized(x, q)
    scores = []
    for c in (0, 1):
        mu = z[y == c].mean(axis=0)
        var = np.maximum(z[y == c].var(axis=0), GNB_VAR_FLOOR)
        log_density = -0.5 * (np.log(2 * np.pi * var) + (q - mu) ** 2 / var)
        scores.append(log_density.sum(axis=1) + np.log(np.mean(y == c)))
    return (scores[1] > scores[0]).astype(np.int64)


class TestClassifiers:
    def test_separated_clouds_all_kinds(self):
        x, y = clouds()
        for kind in ("lr", "lda", "qda", "gnb", "knn"):
            acc = float((classify(kind, x, y, x) == y).mean())
            assert acc >= 0.95, kind

    def test_knn_k1_memorizes(self):
        x, y = clouds(n_per_class=15, distance=1.0)
        np.testing.assert_array_equal(classify("knn", x, y, x, k=1), y)

    def test_knn_distance_tie_lower_index(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [4.0, 4.0]])
        y = np.array([1, 0, 0, 1])
        # the query ties between training rows 0 and 1; row 0 wins
        assert classify("knn", x, y, np.array([[0.0, 0.0]]), k=1)[0] == 1

    def test_knn_matches_per_row_loop_with_ties(self):
        # integer features on a small grid give many equal distances, and
        # even k gives tied votes; both tie rules must match the loop
        rng = Rng(56)
        for k in (1, 2, 4, 5):
            x = np.round(rng.normal((30, 3)))
            y = np.array([0, 1] * 15)
            q = np.round(rng.normal((25, 3)))
            std = x.std(axis=0)
            train_z = (x - x.mean(axis=0)) / std
            z = (q - x.mean(axis=0)) / std
            expected = []
            for row in z:
                dist = np.sqrt(((train_z - row) ** 2).sum(axis=1))
                order = np.argsort(dist, kind="stable")[:k]
                votes = int(y[order].sum())
                expected.append(1 if votes > k - votes else 0)
            np.testing.assert_array_equal(classify("knn", x, y, q, k=k), expected)

    def test_gnb_posterior_tie_gives_zero(self):
        x = np.array([[0.0], [2.0], [0.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        np.testing.assert_array_equal(classify("gnb", x, y, np.array([[1.0], [0.0]])),
                                      [0, 0])

    def test_lda_imbalance_shifts_centroid_prediction(self):
        # a query at the training centroid standardizes to exactly zero, and
        # duplicating one class pulls both prior and geometry its way there
        rng = Rng(52)
        half = rng.normal((20, 4), mean=2.0, std=0.7)
        for dup in (0, 1):
            extra = half if dup == 0 else -half
            x = np.vstack([half, -half, extra])
            y = np.array([0] * 20 + [1] * 20 + [dup] * 20)
            assert classify("lda", x, y, x.mean(axis=0)[None, :])[0] == dup

    def test_lda_and_gnb_match_their_reference_forms(self):
        # overlapping clouds of random shape and size, unequal class sizes
        # in most problems, so many queries fall near the boundary
        rng = Rng(57)
        for problem in range(24):
            n0 = 8 + problem
            n1 = 8 + (problem * 7) % 23
            d = 1 + problem % 5
            shift = rng.uniform((d,), -1.0, 1.0)
            x = np.vstack([rng.normal((n0, d)), rng.normal((n1, d)) * 1.5 + shift])
            y = np.array([0] * n0 + [1] * n1)
            q = rng.normal((40, d), std=2.0)
            np.testing.assert_array_equal(classify("lda", x, y, q),
                                          linear_lda_oracle(x, y, q), err_msg=str(problem))
            np.testing.assert_array_equal(classify("gnb", x, y, q),
                                          per_feature_gnb_oracle(x, y, q), err_msg=str(problem))

    def test_fit_errors(self):
        x, y = clouds(n_per_class=10)
        with pytest.raises(ValueError, match="single class"):
            classify("lda", x, np.zeros_like(y), x)
        with pytest.raises(ValueError, match="unknown classifier"):
            classify("svm", x, y, x)
        with pytest.raises(ValueError, match="2 samples per class"):
            classify("lda", x[:11], y[:11], x)

    def test_constant_features_not_positive_definite(self):
        # every standardized feature is zero, so even the shrunk covariance is
        x = np.full((20, 4), 3.0)
        y = np.array([0, 1] * 10)
        for kind in ("lda", "qda"):
            with pytest.raises(ValueError, match="not positive definite"):
                classify(kind, x, y, x)

    def test_dimension_mismatch(self):
        x, y = clouds(n_per_class=10)
        with pytest.raises(ValueError, match="expected 4 features"):
            classify("lr", x, y, np.zeros((2, 3)))

    def test_deterministic(self):
        x, y = clouds()
        q = Rng(53).normal((7, 4))
        for kind in ("lr", "lda", "qda", "gnb", "knn"):
            np.testing.assert_array_equal(classify(kind, x, y, q), classify(kind, x, y, q))


class TestBaselineLoso:
    def test_relative_power_lda_on_synthetic(self):
        data = generate_synthetic(4, 25, 9)
        features = feature_matrix(data.data, "relative_power")
        subject_ids, accs = loso_accuracies(features, data.labels, data.subjects, "lda")
        assert subject_ids == [1, 2, 3, 4]
        assert accs.shape == (4,)
        assert accs.mean() >= 0.8

    def test_single_subject_rejected(self):
        with pytest.raises(ValueError, match="2 subjects"):
            loso_accuracies(np.zeros((4, 4)), [0, 1, 0, 1], [1, 1, 1, 1], "lda")
