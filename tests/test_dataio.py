from functools import cache

import numpy as np
import pytest

from drowse.binio import FormatError
from drowse.dataio import (
    ALERT,
    DROWSY,
    EXCLUDED,
    RESAMPLE_CUTOFF_HZ,
    RESAMPLE_DOWN,
    RESAMPLE_TAPS,
    RESAMPLE_UP,
    SESSION_RATE_HZ,
    SampleSet,
    SessionRecord,
    SessionSamples,
    balance,
    generate_synthetic,
    label_session,
    read_sampleset,
    read_session,
    resample_500_to_128,
    session_samples,
    write_sampleset,
    write_session,
    _KAISER_BETA,
    _percentile,
    _verdicts,
)
from drowse.numerics import Rng, dft_power


def make_session(onsets, rts, rate=500):
    onsets = np.asarray(onsets, dtype=np.float64)
    rts = np.asarray(rts, dtype=np.float64)
    events = np.column_stack([onsets, onsets + rts, onsets + rts + 0.1])
    n_points = int((events[:, 2].max() + 1.0) * rate)
    return SessionRecord(rate, np.zeros(n_points), events)


def verdict(local_rt, global_rt, alert_rt):
    return int(_verdicts(np.array([local_rt]), np.array([global_rt]), alert_rt)[0])


class TestVerdictRule:
    def test_examples(self):
        assert verdict(0.6, 0.7, 0.5) == ALERT
        assert verdict(1.3, 1.4, 0.5) == DROWSY
        assert verdict(0.6, 2.0, 0.5) == EXCLUDED

    def test_thresholds_are_strict(self):
        assert verdict(0.75, 0.5, 0.5) == EXCLUDED
        assert verdict(1.25, 1.25, 0.5) == EXCLUDED
        assert verdict(0.7499, 0.7499, 0.5) == ALERT
        assert verdict(1.2501, 1.2501, 0.5) == DROWSY

    def test_partition(self):
        rng = Rng(77)
        for _ in range(200):
            local, glob = rng.uniform((2,), 0.05, 3.0)
            assert verdict(float(local), float(glob), 0.5) in (ALERT, DROWSY, EXCLUDED)


def reference_labels(session):
    """Brute force, one event at a time: the window is every earlier onset
    within 90 s, and the verdict is the rule written out per event."""
    onsets = session.events[:, 0]
    local_rts = session.events[:, 1] - session.events[:, 0]
    alert_rt = float(np.percentile(local_rts, 5.0))
    global_rts, verdicts = [], []
    for i, local in enumerate(local_rts):
        window = (onsets >= onsets[i] - 90.0) & (onsets < onsets[i])
        glob = float(np.mean(local_rts[window])) if window.any() else float(local)
        global_rts.append(glob)
        if local < 1.5 * alert_rt and glob < 1.5 * alert_rt:
            verdicts.append(ALERT)
        elif local > 2.5 * alert_rt and glob > 2.5 * alert_rt:
            verdicts.append(DROWSY)
        else:
            verdicts.append(EXCLUDED)
    return local_rts, np.array(global_rts), np.array(verdicts), alert_rt


def random_session(seed):
    """Onset gaps with some longer than 90 s and some zero; a tenth of the
    RTs at the minimum r0, so the alert RT is exactly r0, and some RTs
    exactly at 1.5 r0 and 2.5 r0. Onsets and these RTs are on a 1/512 s
    grid, so onset + RT - onset gives them back exactly; the other RTs
    take every bit, so window means round."""
    rng = Rng(seed)
    n = 20 + int(rng.uniform(high=300))
    gaps = np.round(64 * rng.uniform((n,), 0.0, 30.0)) / 64
    gaps[rng.uniform((n,)) < 0.05] += 120.0
    gaps[rng.uniform((n,)) < 0.05] = 0.0
    r0 = np.round(rng.uniform(low=77, high=154)) / 256
    rts = r0 * rng.uniform((n,), 1.01, 4.0)
    picks = rng.permutation(n)
    k = n // 10 + 1
    rts[picks[:k]] = r0
    rts[picks[k : k + 3]] = 1.5 * r0
    rts[picks[k + 3 : k + 6]] = 2.5 * r0
    return make_session(5.0 + np.cumsum(gaps), rts), r0


class TestLabelSession:
    def session(self):
        # 10 fast events then 10 slow ones, 10 s apart.
        onsets = 5.0 + 10.0 * np.arange(20)
        rts = np.array([0.5] * 10 + [2.0] * 10)
        return make_session(onsets, rts)

    def test_baseline_is_fifth_percentile(self):
        labels = label_session(self.session())
        # order statistics of [0.5 x10, 2.0 x10] at linear-interpolated 5%
        assert labels.alert_rt_s == pytest.approx(0.5)
        rts = np.arange(1.0, 21.0)
        labels = label_session(make_session(5.0 + 10.0 * np.arange(20), rts))
        assert labels.alert_rt_s == pytest.approx(1.0 + 0.95 * (2.0 - 1.0))

    def test_percentile_has_the_bits_of_np_percentile(self):
        # 41 levels per size, so both branches of the interpolation run
        rng = Rng(12)
        for n in (1, 2, 3, 20, 21, 97, 1000):
            for q in np.linspace(0.0, 100.0, 41):
                values = rng.normal((n,), mean=1.0, std=0.4)
                assert _percentile(values.copy(), q) == float(np.percentile(values, q))

    def test_verdicts(self):
        labels = label_session(self.session())
        assert labels.verdict[:10].tolist() == [ALERT] * 10
        # first slow event still has a fast 90 s window -> excluded
        assert labels.verdict[10] == EXCLUDED
        assert labels.global_rt_s[10] == pytest.approx(0.5)
        # mixed window straddling the change -> intermediate global RT
        assert labels.verdict[13] == EXCLUDED
        assert labels.global_rt_s[13] == pytest.approx((6 * 0.5 + 3 * 2.0) / 9)
        # last event: window is all slow
        assert labels.verdict[19] == DROWSY
        assert labels.global_rt_s[19] == pytest.approx(2.0)

    def test_first_event_falls_back_to_local(self):
        labels = label_session(self.session())
        assert labels.global_rt_s[0] == labels.local_rt_s[0]

    def test_matches_the_per_event_reference(self):
        empty_windows = at_alert = at_drowsy = 0
        for seed in range(24):
            session, r0 = random_session(seed)
            labels = label_session(session)
            local, glob, verdicts, alert_rt = reference_labels(session)
            assert labels.alert_rt_s == alert_rt == r0
            np.testing.assert_array_equal(labels.local_rt_s, local)
            np.testing.assert_array_equal(labels.global_rt_s, glob)
            np.testing.assert_array_equal(labels.verdict, verdicts)
            empty_windows += np.count_nonzero(np.diff(session.events[:, 0]) > 90.0)
            at_alert += np.count_nonzero(local == 1.5 * r0)
            at_drowsy += np.count_nonzero(local == 2.5 * r0)
        assert empty_windows > 0 and at_alert > 0 and at_drowsy > 0

    def test_too_few_events(self):
        with pytest.raises(ValueError, match="at least 20"):
            label_session(make_session(5.0 + 10.0 * np.arange(19), np.full(19, 0.5)))

    def test_unsorted_events_rejected(self):
        onsets = 5.0 + 10.0 * np.arange(20.0)
        onsets[3], onsets[4] = onsets[4], onsets[3]
        with pytest.raises(ValueError, match="sorted"):
            make_session(onsets, np.full(20, 0.5))

    def test_response_before_onset_rejected(self):
        with pytest.raises(ValueError, match="onset"):
            make_session([5.0] + list(5.0 + 10.0 * np.arange(1, 20)),
                         [-0.1] + [0.5] * 19)


@cache
def _filter_branches() -> list:
    """Polyphase decomposition of the windowed-sinc low-pass.

    Branch p holds taps p, p+32, p+64, ...; each branch is normalized to
    unit sum so the DC gain is exactly 1 (this also absorbs the factor 32
    that compensates zero-stuffing).
    """
    k = np.arange(RESAMPLE_TAPS, dtype=np.float64)
    center = (RESAMPLE_TAPS - 1) // 2
    # normalized cutoff at the virtual 16 kHz rate
    cut = 2.0 * RESAMPLE_CUTOFF_HZ / (SESSION_RATE_HZ * RESAMPLE_UP)
    taps = cut * np.sinc(cut * (k - center)) * np.kaiser(RESAMPLE_TAPS, _KAISER_BETA)
    branches = [taps[p::RESAMPLE_UP] for p in range(RESAMPLE_UP)]
    return [b / b.sum() for b in branches]


def reference_resample(x: np.ndarray) -> np.ndarray:
    """The per-phase polyphase resampler, one output phase at a time: the
    oracle for the block-matrix resample_500_to_128."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("input must be one-dimensional")
    span = -(-RESAMPLE_TAPS // RESAMPLE_UP)
    if x.size < span:
        raise ValueError(f"input shorter than the filter span ({span} points)")
    branches = _filter_branches()
    n_out = int(round(x.size * RESAMPLE_UP / RESAMPLE_DOWN))
    delay = (RESAMPLE_TAPS - 1) // 2

    pad = span
    xpad = np.concatenate([np.full(pad, x[0]), x, np.full(pad, x[-1])])
    out = np.empty(n_out)
    s = RESAMPLE_DOWN * np.arange(n_out) + delay
    phases = s % RESAMPLE_UP
    starts = s // RESAMPLE_UP + pad
    for p in range(RESAMPLE_UP):
        sel = np.flatnonzero(phases == p)
        b = branches[p]
        idx = starts[sel][:, None] - np.arange(b.size)[None, :]
        out[sel] = xpad[idx] @ b
    return out


class TestResample:
    def test_constant_passes_exactly(self):
        y = resample_500_to_128(np.full(1500, 3.25))
        assert y.shape == (384,)
        np.testing.assert_allclose(y, 3.25, atol=1e-6)

    def test_10hz_tone_amplitude(self):
        t = np.arange(1500) / 500.0
        y = resample_500_to_128(np.sin(2 * np.pi * 10.0 * t))
        n = np.arange(384)
        expected = np.sin(2 * np.pi * 10.0 * n / 128.0)
        # interior: away from the edge transients
        np.testing.assert_allclose(y[48:336], expected[48:336], atol=0.01)
        # least-squares amplitude over 20 whole cycles
        phase = 2 * np.pi * 10.0 * n[64:320] / 128.0
        a = 2.0 * np.mean(y[64:320] * np.sin(phase))
        b = 2.0 * np.mean(y[64:320] * np.cos(phase))
        assert np.hypot(a, b) == pytest.approx(1.0, abs=0.01)

    def test_100hz_tone_attenuated(self):
        t = np.arange(1500) / 500.0
        x = np.sin(2 * np.pi * 100.0 * t)
        y = resample_500_to_128(x)
        rms_in = np.sqrt(np.mean(x**2))
        rms_out = np.sqrt(np.mean(y[48:336] ** 2))
        assert 20 * np.log10(rms_in / rms_out) > 40.0

    def test_output_lengths(self):
        for n_in, n_out in ((1500, 384), (1000, 256), (625, 160)):
            assert resample_500_to_128(np.zeros(n_in)).shape == (n_out,)

    def test_linearity(self):
        rng = Rng(3)
        a = rng.normal((1500,))
        b = rng.normal((1500,))
        lhs = resample_500_to_128(a + b)
        rhs = resample_500_to_128(a) + resample_500_to_128(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_too_short(self):
        with pytest.raises(ValueError, match="filter span"):
            resample_500_to_128(np.zeros(312))

    @pytest.mark.parametrize("n", [313, 625, 1000, 1500, 5000, 12345])
    def test_matches_the_per_phase_reference(self, n):
        t = np.arange(n) / 500.0
        signals = {"random": Rng(n).normal((n,), std=30.0),
                   "tone": 40.0 * np.sin(2 * np.pi * 10.0 * t + 0.3),
                   "ramp": 5.0 + 2.0 * t}
        for name, x in signals.items():
            y = resample_500_to_128(x)
            expected = reference_resample(x)
            assert y.shape == expected.shape, name
            assert np.abs(y - expected).max() <= 1e-12 * np.abs(x).max(), name

    # 700 points give 179 outputs: the last 32-output block is trimmed
    @pytest.mark.parametrize("n, n_out", [(1500, 384), (700, 179)])
    def test_batched_rows_have_the_bits_of_single_rows(self, n, n_out):
        rows = Rng(n).normal((12, n), std=25.0)
        singles = np.stack([resample_500_to_128(row) for row in rows])
        assert singles.shape == (12, n_out)
        np.testing.assert_array_equal(resample_500_to_128(rows), singles)
        np.testing.assert_array_equal(resample_500_to_128(rows[:5]), singles[:5])
        cube = resample_500_to_128(rows.reshape(3, 4, n))
        assert cube.shape == (3, 4, n_out)
        np.testing.assert_array_equal(cube.reshape(12, n_out), singles)
        assert resample_500_to_128(np.zeros((0, n))).shape == (0, n_out)


class TestExtractWindows:
    def ramp_session(self):
        onsets = np.array([2.0] + list(10.0 + 10.0 * np.arange(19)))
        rts = np.full(20, 0.5)
        events = np.column_stack([onsets, onsets + rts, onsets + rts + 0.1])
        n_points = int(500 * 200)
        signal = np.arange(n_points) / 500.0  # signal value == time in seconds
        return SessionRecord(500, signal, events)

    def test_window_alignment_and_count(self):
        session = self.ramp_session()
        labels = label_session(session)
        assert np.all(labels.verdict == ALERT)
        out = session_samples(session, labels, 7, 0).samples
        # the t=2 s event lacks 3 s of history and is skipped
        assert len(out) == 19
        first = out[0]
        assert first.subject_id == 7 and first.label == 0
        # event at t=10: the window holds the ramp over [7 s, 10 s)
        expected = 7.0 + np.arange(384) / 128.0
        np.testing.assert_allclose(first.samples[48:336], expected[48:336], atol=1e-3)

    def test_rows_are_the_resampled_windows_in_event_order(self):
        session = self.ramp_session()
        session.signal = Rng(9).normal(session.signal.shape)
        labels = label_session(session)
        labels.verdict[:] = [ALERT, DROWSY, EXCLUDED, ALERT] * 5
        out = session_samples(session, labels, 3, 4)
        kept = [i for i, v in enumerate(labels.verdict) if i > 0 and v != EXCLUDED]
        assert len(out.samples) == len(kept) == 14
        for row, i in zip(out.samples.data, kept):
            end = int(round(session.events[i, 0] * 500))
            expected = resample_500_to_128(session.signal[end - 1500:end]).astype(np.float32)
            np.testing.assert_array_equal(row, expected)
        np.testing.assert_array_equal(out.samples.labels,
                                      [int(labels.verdict[i] == DROWSY) for i in kept])
        np.testing.assert_array_equal(out.samples.subjects, 3)
        np.testing.assert_array_equal(out.local_rts, labels.local_rt_s[kept])

    def test_excluded_events_skipped(self):
        session = self.ramp_session()
        labels = label_session(session)
        labels.verdict[:] = EXCLUDED
        assert len(session_samples(session, labels, 0, 0).samples) == 0

    def test_drowsy_label_mapping(self):
        session = self.ramp_session()
        labels = label_session(session)
        labels.verdict[:] = DROWSY
        out = session_samples(session, labels, 0, 0).samples
        assert set(out.labels) == {1}

    def test_wrong_rate(self):
        session = self.ramp_session()
        labels = label_session(session)
        session128 = SessionRecord(128, np.zeros(128 * 200), session.events)
        with pytest.raises(ValueError, match="500"):
            session_samples(session128, labels, 0, 0)


def session_of(subject, session_id, alert_rts, drowsy_rts):
    """Alert rows tagged 1000 + i and drowsy rows 2000 + i in their first point."""
    n_alert, n_drowsy = len(alert_rts), len(drowsy_rts)
    data = np.zeros((n_alert + n_drowsy, 384), dtype=np.float32)
    data[:, 0] = np.concatenate([1000 + np.arange(n_alert), 2000 + np.arange(n_drowsy)])
    labels = [0] * n_alert + [1] * n_drowsy
    samples = SampleSet(data, labels, np.full(len(labels), subject))
    return SessionSamples(subject, session_id, samples, list(alert_rts) + list(drowsy_rts))


class TestBalance:
    def test_small_session_discarded(self):
        small = session_of(1, 1, [0.5] * 49, [2.0] * 120)
        ok = session_of(2, 1, [0.5] * 50, [2.0] * 50)
        out = balance([small, ok])
        assert out.subject_ids() == [2]

    def test_most_balanced_session_wins(self):
        a = session_of(1, 1, [0.5] * 60, [2.0] * 80)
        b = session_of(1, 2, [0.5] * 70, [2.0] * 72)
        out = balance([a, b])
        assert out.class_counts(1) == (70, 70)

    def test_tie_prefers_larger_total_then_lower_id(self):
        a = session_of(1, 1, [0.5] * 60, [2.0] * 70)
        b = session_of(1, 2, [0.5] * 70, [2.0] * 80)
        out = balance([a, b])
        assert out.class_counts(1) == (70, 70)
        c = session_of(2, 3, [0.5] * 60, [2.0] * 70)
        d = session_of(2, 4, [0.5] * 60, [2.0] * 70)
        out = balance([c, d])
        # equal imbalance and total: session 3 kept; its tags start at 1000
        assert out.class_counts(2) == (60, 60)

    def test_alert_trim_drops_longest_rts(self):
        rng = Rng(5)
        alert_rts = 0.3 + 0.4 * rng.uniform((70,))
        sess = session_of(1, 1, list(alert_rts), [2.0] * 60)
        out = balance([sess])
        assert out.class_counts(1) == (60, 60)
        kept_tags = sorted(out.data[out.labels == 0, 0])
        order = np.argsort(alert_rts, kind="stable")[:60]
        expected = sorted(1000.0 + order)
        assert kept_tags == pytest.approx(expected)

    def test_drowsy_trim_drops_shortest_rts(self):
        rng = Rng(6)
        drowsy_rts = 1.5 + rng.uniform((65,))
        sess = session_of(1, 1, [0.5] * 55, list(drowsy_rts))
        out = balance([sess])
        assert out.class_counts(1) == (55, 55)
        kept_tags = sorted(out.data[out.labels == 1, 0])
        order = np.argsort(-drowsy_rts, kind="stable")[:55]
        expected = sorted(2000.0 + order)
        assert kept_tags == pytest.approx(expected)

    def test_balanced_counts_invariant(self):
        rng = Rng(7)
        sessions = []
        for subject in range(1, 5):
            for sid in range(1, 3):
                n_a = 50 + int(rng.uniform(high=40))
                n_d = 50 + int(rng.uniform(high=40))
                sessions.append(session_of(subject, sid,
                                           list(rng.uniform((n_a,), 0.3, 0.7)),
                                           list(rng.uniform((n_d,), 1.5, 3.0))))
        out = balance(sessions)
        for subject in out.subject_ids():
            n_alert, n_drowsy = out.class_counts(subject)
            assert n_alert == n_drowsy > 0

    def test_everything_dropped(self):
        with pytest.raises(ValueError, match="no session"):
            balance([session_of(1, 1, [0.5] * 10, [2.0] * 10)])


class TestSampleSetValues:
    def test_label_outside_0_1_is_not_wrapped(self):
        with pytest.raises(ValueError, match="labels"):
            SampleSet(np.zeros((2, 384)), np.array([0, 257]), np.array([1, 2]))

    def test_subject_outside_uint16_is_not_wrapped(self):
        for subjects in (np.array([70000]), np.array([-1]), [70000]):
            with pytest.raises(ValueError, match="subject"):
                SampleSet(np.zeros((1, 384)), [0], subjects)

    def test_non_integer_subject_is_not_truncated(self):
        for subjects in ([1.5, 2.7], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="subject"):
                SampleSet(np.zeros((2, 384)), [0, 1], subjects)


class TestSampleSetIO:
    def random_set(self, rng, n):
        data = rng.normal((n, 384)).astype(np.float32)
        labels = (rng.uniform((n,)) < 0.5).astype(np.uint8)
        subjects = np.floor(rng.uniform((n,), 0.0, 12)).astype(np.uint16)
        return SampleSet(data, labels, subjects)

    def test_round_trip_100_random_sets(self, tmp_path):
        rng = Rng(11)
        path = tmp_path / "s.eegd"
        for _ in range(100):
            original = self.random_set(rng, 1 + int(rng.uniform(high=6)))
            write_sampleset(original, path)
            back = read_sampleset(path)
            for name in ("data", "labels", "subjects"):
                a, b = getattr(back, name), getattr(original, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.eegd"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_sampleset(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "x.eegd"
        import struct
        path.write_bytes(b"EEGD" + struct.pack("<IIII", 2, 0, 384, 128))
        with pytest.raises(FormatError, match="version"):
            read_sampleset(path)

    def test_truncated_body(self, tmp_path):
        rng = Rng(12)
        path = tmp_path / "x.eegd"
        write_sampleset(self.random_set(rng, 3), path)
        raw = bytearray(path.read_bytes())
        import struct
        struct.pack_into("<I", raw, 8, 100)  # header claims 100 samples
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="truncated"):
            read_sampleset(path)

    def test_trailing_bytes(self, tmp_path):
        rng = Rng(13)
        path = tmp_path / "x.eegd"
        write_sampleset(self.random_set(rng, 2), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_sampleset(path)


class TestSessionIO:
    def test_round_trip(self, tmp_path):
        rng = Rng(15)
        signal = rng.normal((3000,)).astype(np.float32).astype(np.float64)
        onsets = np.array([1.0, 2.5, 4.0])
        events = np.column_stack([onsets, onsets + 0.5, onsets + 0.6])
        session = SessionRecord(500, signal, events)
        path = tmp_path / "x.eegs"
        write_session(session, path)
        back = read_session(path)
        assert back.rate == 500
        np.testing.assert_array_equal(back.signal, signal)
        np.testing.assert_array_equal(back.events, events)

    def test_truncated_signal(self, tmp_path):
        path = tmp_path / "x.eegs"
        import struct
        path.write_bytes(b"EEGS" + struct.pack("<IIQ", 1, 500, 1000) + b"\x00" * 12)
        with pytest.raises(FormatError, match="truncated"):
            read_session(path)


class TestSynthetic:
    def test_deterministic(self):
        a, b = generate_synthetic(3, 12, 9), generate_synthetic(3, 12, 9)
        for name in ("data", "labels", "subjects"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_counts(self):
        s = generate_synthetic(4, 15, 2)
        assert len(s) == 4 * 2 * 15
        assert s.subject_ids() == [1, 2, 3, 4]
        for subject in s.subject_ids():
            assert s.class_counts(subject) == (15, 15)

    def test_band_signatures(self):
        s = generate_synthetic(4, 20, 3)
        for i in range(len(s)):
            freqs, power = dft_power(s.data[i].astype(np.float64), 128)
            alpha = power[(freqs >= 8) & (freqs <= 12)].sum()
            beta = power[(freqs >= 12) & (freqs <= 30)].sum()
            if s.labels[i] == 1:
                assert alpha > beta
            else:
                assert beta > alpha

    def test_preconditions(self):
        with pytest.raises(ValueError, match="subjects"):
            generate_synthetic(1, 20, 1)
        with pytest.raises(ValueError, match="per class"):
            generate_synthetic(3, 5, 1)
