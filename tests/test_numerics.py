import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drowse.numerics import (
    Rng,
    Workspace,
    dft_power,
    normalize_mean_std,
    paired_t_test,
    sigmoid,
    softmax_rows,
    student_t_sf2,
)


def student_t_p_oracle(t, df, steps=200_000):
    """Two-tailed p via brute-force Simpson integration of the t density."""
    lg = math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
    norm = math.exp(lg) / math.sqrt(df * math.pi)
    t = abs(t)
    xs = np.linspace(0.0, t, steps + 1)
    ys = norm * (1.0 + xs * xs / df) ** (-(df + 1) / 2.0)
    h = t / steps
    integral = h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1::2].sum() + 2.0 * ys[2:-1:2].sum())
    return 1.0 - 2.0 * integral


def softmax_reference(v):
    """Softmax of one vector with the max subtracted first."""
    e = np.exp(v - v.max())
    return e / e.sum()


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]], rtol=0, atol=1e-15)

    def test_analytic(self):
        np.testing.assert_allclose(softmax_rows([[math.log(3.0), 0.0]]), [[0.75, 0.25]], atol=1e-15)

    def test_no_overflow(self):
        p = softmax_rows([[1000.0, 0.0]])[0]
        assert np.all(np.isfinite(p))
        assert p[0] > 1.0 - 1e-12 and p[1] < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            softmax_rows([[np.nan, 0.0]])
        with pytest.raises(ValueError):
            softmax_rows([[np.inf, 0.0]])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=16),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, vals, c):
        v = np.array([vals])
        np.testing.assert_allclose(softmax_rows(v + c), softmax_rows(v), rtol=0, atol=1e-12)
        assert abs(softmax_rows(v).sum() - 1.0) < 1e-12

    def test_rows_matches_vector(self):
        rng = Rng(3)
        m = rng.normal((5, 4))
        rows = softmax_rows(m)
        for i in range(5):
            np.testing.assert_allclose(rows[i], softmax_reference(m[i]), atol=1e-15)


class TestSigmoid:
    def test_extremes_without_overflow(self):
        x = np.array([-np.inf, -710.0, -1.0, 0.0, 1.0, 710.0, np.inf])
        with np.errstate(over="raise"):
            s = sigmoid(x)
            np.testing.assert_allclose(s + sigmoid(-x), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(s[[0, 3, 6]], [0.0, 0.5, 1.0])
        assert s[2] == pytest.approx(1.0 / (1.0 + math.exp(1.0)), abs=1e-15)


class TestDftPower:
    def test_pure_tone_lands_in_its_bin(self):
        t = np.arange(384) / 128.0
        x = np.cos(2 * np.pi * 10.0 * t)
        freqs, power = dft_power(x, 128.0)
        k = np.argmax(power)
        assert freqs[k] == pytest.approx(10.0)
        assert power[k] / power.sum() > 0.999

    def test_constant_after_mean_removal(self):
        x = np.full(128, 3.7)
        _, power = dft_power(x - x.mean(), 128.0)
        assert np.all(power < 1e-20)

    def test_parseval_random(self):
        rng = Rng(11)
        for _ in range(50):
            n = 2 + int(rng.uniform(high=511))
            x = rng.normal((n,))
            _, power = dft_power(x, 100.0)
            ms = np.mean(x * x)
            assert abs(power.sum() - ms) <= 1e-9 * ms

    def test_rows_match_one_dimensional_calls(self):
        x = Rng(12).normal((3, 5, 128))
        _, power = dft_power(x, 128.0)
        assert power.shape == (3, 5, 65)
        for idx in np.ndindex(3, 5):
            np.testing.assert_array_equal(power[idx], dft_power(x[idx], 128.0)[1])
            ms = np.mean(x[idx] * x[idx])
            assert abs(power[idx].sum() - ms) <= 1e-9 * ms

    def test_too_short(self):
        with pytest.raises(ValueError):
            dft_power(np.array([1.0]), 10.0)


class TestNormalize:
    def test_two_point(self):
        np.testing.assert_allclose(normalize_mean_std([1.0, 3.0]), [-1.0, 1.0], atol=1e-15)

    def test_zero_variance_guard(self):
        np.testing.assert_array_equal(normalize_mean_std([5.0, 5.0, 5.0]), [0.0, 0.0, 0.0])

    def test_moments(self):
        rng = Rng(4)
        v = rng.normal((257,), mean=3.0, std=7.0)
        out = normalize_mean_std(v)
        assert abs(out.mean()) < 1e-10
        assert abs(np.sqrt(np.mean(out**2)) - 1.0) < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=64))
    def test_idempotent(self, vals):
        v = np.array(vals)
        once = normalize_mean_std(v)
        twice = normalize_mean_std(once)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-10)


class TestPairedTTest:
    def test_zero_mean_difference(self):
        a = np.array([1.0, 0.0, 1.0, 0.0])
        b = np.array([0.0, 1.0, 0.0, 1.0])
        t, p = paired_t_test(a, b)
        assert t == pytest.approx(0.0, abs=1e-15)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_against_integration_oracle(self):
        # d = [1, 2, 3]: t = 2 / (1 / sqrt(3)) = 2*sqrt(3)
        a = np.array([2.0, 3.0, 4.0])
        b = np.array([1.0, 1.0, 1.0])
        t, p = paired_t_test(a, b)
        assert t == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
        assert p == pytest.approx(student_t_p_oracle(t, 2), abs=1e-8)
        assert p == pytest.approx(0.0741799, abs=1e-6)

    def test_more_dfs_match_oracle(self):
        rng = Rng(9)
        for n in (4, 7, 12, 30):
            a = rng.normal((n,), mean=0.3)
            b = rng.normal((n,))
            t, p = paired_t_test(a, b)
            assert p == pytest.approx(student_t_p_oracle(t, n - 1), abs=1e-7)

    def test_identical_vectors_degenerate(self):
        a = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="zero-variance"):
            paired_t_test(a, a.copy())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(ValueError, match=r"finite values, got \((nan|-?inf), 0.0\) at pair 1"):
            paired_t_test([1.0, bad, 3.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite values"):
            paired_t_test([0.0, 0.0, 0.0], [1.0, 2.0, bad])

    def test_constant_shift_degenerate(self):
        a = np.array([0.31, 0.52, 0.47, 0.66])
        with pytest.raises(ValueError, match="zero-variance"):
            paired_t_test(a, a - 0.05)

    def test_sf_symmetry(self):
        assert student_t_sf2(-2.5, 5) == pytest.approx(student_t_sf2(2.5, 5), abs=1e-15)

    def test_df1_and_df2_closed_forms(self):
        for t in (0.0, 1e-3, 0.3, 1.0, 2.0, 3.5, 10.0, 100.0, 1e3):
            assert student_t_sf2(t, 1) == pytest.approx(1.0 - 2.0 / math.pi * math.atan(t),
                                                        abs=1e-15)
            assert student_t_sf2(t, 2) == pytest.approx(1.0 - t / math.sqrt(t * t + 2.0),
                                                        abs=1e-15)

    @pytest.mark.parametrize("df", range(1, 41))
    def test_every_small_df_matches_oracle(self, df):
        for t in (0.5, 1.7, 3.0, 6.0):
            assert student_t_sf2(t, df) == pytest.approx(student_t_p_oracle(t, df), abs=1e-10)

    def test_far_tail_is_never_negative(self):
        # 1 - A rounds to -2.2e-16 unclamped at e.g. df 9, t 300
        for df in range(1, 41):
            for t in (30.0, 100.0, 300.0, 1e3, 1e4):
                assert student_t_sf2(t, df) >= 0.0
            assert student_t_sf2(math.inf, df) == 0.0

    def test_nan_t_gives_nan(self):
        assert math.isnan(student_t_sf2(math.nan, 5))

    @pytest.mark.parametrize("df", [0, 2.5])
    def test_df_must_be_a_positive_integer(self, df):
        with pytest.raises(ValueError, match="degrees of freedom"):
            student_t_sf2(1.0, df)


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a, b = Rng(123456789), Rng(123456789)
        np.testing.assert_array_equal(a.raw64(1_000_000), b.raw64(1_000_000))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).raw64(64), Rng(2).raw64(64))

    def test_uniform_range_and_determinism(self):
        u = Rng(7).uniform((10_000,))
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        np.testing.assert_array_equal(u, Rng(7).uniform((10_000,)))

    def test_normal_moments(self):
        z = Rng(42).normal((200_000,))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_permutation_is_a_permutation(self):
        p = Rng(5).permutation(1000)
        assert np.array_equal(np.sort(p), np.arange(1000))

    def test_split_deterministic_and_disjoint(self):
        root = Rng(99)
        a = root.split("fold", 3, "repeat", 1)
        b = Rng(99).split("fold", 3, "repeat", 1)
        c = Rng(99).split("fold", 3, "repeat", 2)
        np.testing.assert_array_equal(a.raw64(100), b.raw64(100))
        assert not np.array_equal(Rng(99).split("fold", 3, "repeat", 1).raw64(100), c.raw64(100))

    def test_split_does_not_disturb_parent(self):
        a = Rng(17)
        first = a.raw64(10)
        b = Rng(17)
        b.split("x")
        np.testing.assert_array_equal(first, b.raw64(10))


class TestWorkspace:
    def test_smaller_requests_reuse_the_leading_elements(self):
        ws = Workspace()
        big = ws.take("a", (4, 6), np.float64)
        big[:] = np.arange(24.0).reshape(4, 6)
        rows = ws.take("a", (2, 6), np.float64)
        square = ws.take("a", (3, 3), np.float64)
        for part in (rows, square):
            assert part.flags.c_contiguous and np.shares_memory(part, big)
        np.testing.assert_array_equal(rows, big[:2])
        np.testing.assert_array_equal(square.ravel(), np.arange(9.0))

    def test_larger_request_or_other_dtype_reallocates(self):
        ws = Workspace()
        small = ws.take("a", (3, 3), np.float64)
        assert not np.shares_memory(ws.take("a", (4, 3), np.float64), small)
        other = ws.take("a", (2, 2), np.float32)
        assert other.dtype == np.float32 and other.shape == (2, 2)
