"""EEG dataset plumbing.

Session records (continuous 500 Hz traces with lane-departure events) are
turned into labeled 3-second samples at 128 Hz: reaction-time labeling,
anti-aliased 500 -> 128 Hz resampling, per-subject session selection and
class balancing, binary file formats for both stages, and a synthetic
generator with known spectral class signatures for desk-scale testing.
An event's verdict is an int code, ALERT (0), DROWSY (1) or EXCLUDED (-1),
held in one array per session; a kept event's code is its sample's label.
SampleSet is the one sample container from extraction to file: windows
are resampled straight into its rows, and EegSample is only the one-row
view that indexing a SampleSet returns.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cache

import numpy as np

from .binio import FormatError, check_version, expect_magic, read_exact, read_u32, read_u64
from .numerics import Rng

SAMPLE_RATE_HZ = 128
SAMPLE_POINTS = 384
SESSION_RATE_HZ = 500

ALERT = 0
DROWSY = 1
EXCLUDED = -1

ALERT_FACTOR = 1.5
DROWSY_FACTOR = 2.5
GLOBAL_WINDOW_S = 90.0
MIN_EVENTS = 20
MIN_CLASS_PER_SESSION = 50

# Rational rate change 500 -> 128 is up 32 / down 125.  The low-pass runs at
# the virtual 16 kHz rate; 10001 taps keep the group delay (5000) an exact
# multiple of 125 so output sample n lands on t = n/128 with no residual
# shift.  Kaiser beta for a 64 dB stopband, cutoff 0.9 of the new Nyquist.
RESAMPLE_UP = 32
RESAMPLE_DOWN = 125
RESAMPLE_TAPS = 10001
RESAMPLE_CUTOFF_HZ = 57.6
_KAISER_BETA = 0.1102 * (64.0 - 8.7)

_EEGD_MAGIC = b"EEGD"
_EEGS_MAGIC = b"EEGS"
_FORMAT_VERSION = 1
# One .eegd row: subject id, label, a zero pad byte, then the samples.
_EEGD_ROW = np.dtype([("subject", "<u2"), ("label", "u1"), ("pad", "u1"),
                      ("data", "<f4", (SAMPLE_POINTS,))])


@dataclass
class EegSample:
    """One 3-second single-channel window, 384 points (uV) at 128 Hz: the
    one-row float32 copy that indexing a SampleSet returns. The SampleSet
    has checked its values, so this class checks nothing."""

    subject_id: int
    label: int
    samples: np.ndarray  # float32


@dataclass
class SampleSet:
    """The one sample container, from extraction to file.

    data is [n, 384] float32, labels uint8 in {0,1}, subjects uint16.
    Immutable by convention once built.
    """

    data: np.ndarray
    labels: np.ndarray
    subjects: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        labels, subjects = np.asarray(self.labels), np.asarray(self.subjects)
        n = self.data.shape[0]
        if self.data.ndim != 2 or self.data.shape[1] != SAMPLE_POINTS:
            raise ValueError(f"data must be [n, {SAMPLE_POINTS}], got {self.data.shape}")
        if labels.shape != (n,) or subjects.shape != (n,):
            raise ValueError("labels/subjects length mismatch with data")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("data contains non-finite values")
        # check the raw values: the casts below would wrap them silently
        if np.any((labels != 0) & (labels != 1)):
            raise ValueError("labels must be 0 or 1")
        # a NaN differs from its floor, so it is refused with the fractions
        if np.any((subjects < 0) | (subjects > 65535) | (subjects != np.floor(subjects))):
            raise ValueError("subject ids must be integers in [0, 65535]")
        self.labels = labels.astype(np.uint8, copy=False)
        self.subjects = subjects.astype(np.uint16, copy=False)

    def __len__(self):
        return self.data.shape[0]

    def __getitem__(self, i: int) -> EegSample:
        return EegSample(int(self.subjects[i]), int(self.labels[i]), self.data[i].copy())

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        return (
            np.array_equal(self.data, other.data)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.subjects, other.subjects)
        )

    def subject_ids(self) -> list:
        """Sorted distinct subject ids, by a set: the first np.unique call
        of a process imports numpy.ma, which costs more than this."""
        return sorted(set(self.subjects.tolist()))

    def subset(self, which) -> "SampleSet":
        return SampleSet(self.data[which], self.labels[which], self.subjects[which])

    def class_counts(self, subject_id: int) -> tuple:
        mask = self.subjects == subject_id
        n_drowsy = int(self.labels[mask].sum())
        return int(mask.sum()) - n_drowsy, n_drowsy


def loso_subject_ids(subjects) -> list:
    """Sorted distinct subject ids, at least the 2 leave-one-subject-out
    needs; counted by a set, as SampleSet.subject_ids does."""
    subject_ids = sorted(set(np.asarray(subjects).tolist()))
    if len(subject_ids) < 2:
        raise ValueError("leave-one-subject-out needs at least 2 subjects")
    return subject_ids


@dataclass
class SessionRecord:
    """Continuous single-channel recording with lane-departure events.

    events is [n, 3] float64: event onset, response onset, response offset,
    all in seconds from recording start, sorted by event onset.
    """

    rate: int
    signal: np.ndarray
    events: np.ndarray

    def __post_init__(self):
        self.signal = np.asarray(self.signal, dtype=np.float64)
        self.events = np.asarray(self.events, dtype=np.float64).reshape(-1, 3)
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.signal.ndim != 1:
            raise ValueError("signal must be one-dimensional")
        if not np.all(np.isfinite(self.signal)):
            raise ValueError("signal contains non-finite values")
        if self.events.size:
            if not np.all(np.isfinite(self.events)):
                raise ValueError("event times contain non-finite values")
            onset, resp_on, resp_off = self.events.T
            if np.any(np.diff(onset) < 0):
                raise ValueError("events not sorted by onset")
            if np.any(onset >= resp_on) or np.any(resp_on > resp_off):
                raise ValueError("each event needs onset < response onset <= response offset")
            if onset[0] < 0 or np.any(resp_off > self.duration_s):
                raise ValueError("event times fall outside the recording")

    @property
    def duration_s(self) -> float:
        return self.signal.size / self.rate


@dataclass
class SessionLabels:
    """Reaction-time verdicts of a session's events, one array entry per event.

    verdict holds ALERT, DROWSY or EXCLUDED; the code of a kept event is
    its sample's label.
    """

    local_rt_s: np.ndarray
    global_rt_s: np.ndarray
    verdict: np.ndarray
    alert_rt_s: float

    def __iter__(self):
        # perfbench's RT-rule test iterates the events and reads each verdict
        # by name; this view serves it until that test reads the codes.
        names = np.array(["excluded", "alert", "drowsy"])[self.verdict + 1]
        return iter(np.rec.fromarrays([names], names="verdict"))


def _verdicts(local_rt: np.ndarray, global_rt: np.ndarray, alert_rt: float) -> np.ndarray:
    alert = (local_rt < ALERT_FACTOR * alert_rt) & (global_rt < ALERT_FACTOR * alert_rt)
    drowsy = (local_rt > DROWSY_FACTOR * alert_rt) & (global_rt > DROWSY_FACTOR * alert_rt)
    return np.select([alert, drowsy], [ALERT, DROWSY], EXCLUDED)


def _percentile(values: np.ndarray, q: float) -> float:
    # np.percentile's default linear method, step for step (so with its
    # bits), without the np.unique call whose first use imports numpy.ma.
    pos = (values.size - 1) * (q / 100)
    lo = math.floor(pos)
    hi = min(lo + 1, values.size - 1)
    a, b = np.partition(values, (lo, hi))[[lo, hi]]
    t, diff = pos - lo, b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def label_session(session: SessionRecord) -> SessionLabels:
    """Label every event of a session ALERT, DROWSY or EXCLUDED.

    local RT is response onset minus event onset; the session baseline
    (alert RT) is the 5th percentile of local RTs; global RT averages the
    local RTs of events starting in the preceding 90 s window, falling back
    to the event's own local RT when that window is empty.
    """
    n = session.events.shape[0]
    if n < MIN_EVENTS:
        raise ValueError(f"need at least {MIN_EVENTS} events to label a session, got {n}")
    onsets = session.events[:, 0]
    local_rts = session.events[:, 1] - onsets
    alert_rt = _percentile(local_rts, 5.0)
    starts = np.searchsorted(onsets, onsets - GLOBAL_WINDOW_S, side="left")
    stops = np.searchsorted(onsets, onsets, side="left")
    global_rts = np.array([local_rts[lo:hi].mean() if hi > lo else local
                           for lo, hi, local in zip(starts, stops, local_rts)])
    return SessionLabels(local_rts, global_rts, _verdicts(local_rts, global_rts, alert_rt),
                         alert_rt)


# -- resampling ---------------------------------------------------------------

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


def resample_500_to_128(x: np.ndarray) -> np.ndarray:
    """Rational 32/125 resampling with a Kaiser windowed-sinc anti-alias filter.

    Output sample n estimates the signal at t = n/128 s (group delay is
    compensated exactly).  Edges are handled by replicating the first/last
    input value, so a constant signal stays constant over the full output.
    """
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


# -- balancing ----------------------------------------------------------------

@dataclass
class SessionSamples:
    """Extracted samples of one session plus the RT metadata balancing needs."""

    subject_id: int
    session_id: int
    samples: SampleSet
    local_rts: np.ndarray

    def __post_init__(self):
        self.local_rts = np.asarray(self.local_rts, dtype=np.float64)
        if self.local_rts.shape != (len(self.samples),):
            raise ValueError("one local RT per sample required")


def session_samples(session: SessionRecord, labels: SessionLabels, subject_id: int,
                    session_id: int) -> SessionSamples:
    """Cut the 3 s window preceding each non-excluded event, resample it
    into one row of the session's SampleSet labeled with the event's
    verdict code, and keep the event's local RT for balancing.

    Events starting less than 3 s into the recording are skipped.
    """
    if session.rate != SESSION_RATE_HZ:
        raise ValueError(f"expected a {SESSION_RATE_HZ} Hz session, got {session.rate}")
    if labels.verdict.shape != (session.events.shape[0],):
        raise ValueError("one label per event required")
    window = 3 * SESSION_RATE_HZ
    ends = np.round(session.events[:, 0] * session.rate).astype(np.int64)
    kept = (labels.verdict != EXCLUDED) & (ends >= window)
    data = np.empty((np.count_nonzero(kept), SAMPLE_POINTS), dtype=np.float32)
    for row, end in zip(data, ends[kept]):
        row[:] = resample_500_to_128(session.signal[end - window : end])
    samples = SampleSet(data, labels.verdict[kept], np.full(len(data), subject_id))
    return SessionSamples(subject_id, session_id, samples, labels.local_rt_s[kept])


def _trim_majority(sess: SessionSamples) -> np.ndarray:
    """Equalize class counts: the mask of the shortest-RT alert / longest-RT
    drowsy samples."""
    labels = sess.samples.labels
    n_keep = min(sess.samples.class_counts(sess.subject_id))
    key = np.where(labels == DROWSY, -sess.local_rts, sess.local_rts)
    keep = np.zeros(labels.size, dtype=bool)
    for label in (ALERT, DROWSY):
        pos = np.flatnonzero(labels == label)
        keep[pos[np.argsort(key[pos], kind="stable")[:n_keep]]] = True
    return keep


def balance(sessions) -> SampleSet:
    """Session selection and class balancing.

    Sessions with fewer than 50 samples of either class are dropped; per
    subject the session with the most balanced class counts is kept (ties:
    larger total, then lower session id); the majority class is trimmed to
    the minority count keeping shortest-RT alert / longest-RT drowsy samples.
    """
    by_subject = {}
    for sess in sessions:
        if min(sess.samples.class_counts(sess.subject_id)) >= MIN_CLASS_PER_SESSION:
            by_subject.setdefault(sess.subject_id, []).append(sess)

    def rank(s):
        n_alert, n_drowsy = s.samples.class_counts(s.subject_id)
        return (abs(n_alert - n_drowsy), -(n_alert + n_drowsy), s.session_id)

    kept = [min(by_subject[subject], key=rank) for subject in sorted(by_subject)]
    if not kept:
        raise ValueError("no session survived balancing")
    masks = [_trim_majority(sess) for sess in kept]
    # Each kept row is gathered once, straight into the output.
    data = np.empty((sum(np.count_nonzero(m) for m in masks), SAMPLE_POINTS), np.float32)
    start = 0
    for sess, mask in zip(kept, masks):
        stop = start + np.count_nonzero(mask)
        np.compress(mask, sess.samples.data, axis=0, out=data[start:stop])
        start = stop
    keep = np.concatenate(masks)
    return SampleSet(data, np.concatenate([s.samples.labels for s in kept])[keep],
                     np.concatenate([s.samples.subjects for s in kept])[keep])


# -- file formats -------------------------------------------------------------

def write_sampleset(sample_set: SampleSet, path) -> None:
    rows = np.zeros(len(sample_set), dtype=_EEGD_ROW)
    rows["subject"] = sample_set.subjects
    rows["label"] = sample_set.labels
    rows["data"] = sample_set.data
    with open(path, "wb") as fh:
        fh.write(_EEGD_MAGIC)
        fh.write(struct.pack("<IIII", _FORMAT_VERSION, rows.size, SAMPLE_POINTS, SAMPLE_RATE_HZ))
        fh.write(rows.tobytes())


def read_sampleset(path) -> SampleSet:
    with open(path, "rb") as fh:
        expect_magic(fh, _EEGD_MAGIC)
        check_version(read_u32(fh, "version"), _FORMAT_VERSION, "sample set")
        n = read_u32(fh, "sample count")
        n_points = read_u32(fh, "points per sample")
        rate = read_u32(fh, "sampling rate")
        if n_points != SAMPLE_POINTS:
            raise FormatError(f"expected {SAMPLE_POINTS} points per sample, got {n_points}")
        if rate != SAMPLE_RATE_HZ:
            raise FormatError(f"expected {SAMPLE_RATE_HZ} Hz samples, got {rate}")
        rows = np.frombuffer(read_exact(fh, n * _EEGD_ROW.itemsize, "samples"), dtype=_EEGD_ROW)
        bad = np.flatnonzero(rows["label"] > 1)
        if bad.size:
            raise FormatError(f"sample {bad[0]} has invalid label {rows['label'][bad[0]]}")
        extra = fh.read(1)
        if extra:
            raise FormatError("trailing bytes after the last sample")
    try:
        return SampleSet(rows["data"].copy(), rows["label"].copy(), rows["subject"].copy())
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_session(session: SessionRecord, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_EEGS_MAGIC)
        fh.write(struct.pack("<II", _FORMAT_VERSION, session.rate))
        fh.write(struct.pack("<Q", session.signal.size))
        fh.write(session.signal.astype("<f4").tobytes())
        fh.write(struct.pack("<I", session.events.shape[0]))
        fh.write(session.events.astype("<f8").tobytes())


def read_session(path) -> SessionRecord:
    with open(path, "rb") as fh:
        expect_magic(fh, _EEGS_MAGIC)
        check_version(read_u32(fh, "version"), _FORMAT_VERSION, "session")
        rate = read_u32(fh, "sampling rate")
        n_points = read_u64(fh, "point count")
        raw = read_exact(fh, 4 * n_points, "signal")
        with np.errstate(invalid="ignore"):  # a signalling NaN; SessionRecord refuses it
            signal = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        n_events = read_u32(fh, "event count")
        raw = read_exact(fh, 24 * n_events, "events")
        events = np.frombuffer(raw, dtype="<f8").reshape(n_events, 3)
        extra = fh.read(1)
        if extra:
            raise FormatError("trailing bytes after the event table")
    try:
        return SessionRecord(rate, signal, events.copy())
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# -- synthetic data -----------------------------------------------------------

_T = np.arange(SAMPLE_POINTS) / SAMPLE_RATE_HZ


def _pink_noise(rng: Rng, rms_uv: float) -> np.ndarray:
    """1/f-amplitude sum of sinusoids at 1..63 Hz with random phases."""
    freqs = np.arange(1.0, 64.0)
    amps = freqs ** -0.5
    amps = amps * (rms_uv / np.sqrt(0.5 * np.sum(amps ** 2)))
    phases = rng.uniform((freqs.size,), 0.0, 2.0 * np.pi)
    return (amps[:, None] * np.sin(2 * np.pi * freqs[:, None] * _T[None, :]
                                   + phases[:, None])).sum(axis=0)


def _spindle_burst(rng: Rng, alpha_hz: float, amp_uv: float, lo_s: float,
                   hi_s: float) -> np.ndarray:
    center = rng.uniform(low=lo_s, high=hi_s)
    half_width = rng.uniform(low=0.45, high=0.6)
    phase = rng.uniform(low=0.0, high=2.0 * np.pi)
    arg = (_T - center) / half_width
    envelope = np.where(np.abs(arg) < 1.0, 0.5 * (1.0 + np.cos(np.pi * arg)), 0.0)
    return amp_uv * envelope * np.sin(2 * np.pi * alpha_hz * _T + phase)


def _drowsy_signal(rng: Rng, alpha_hz: float, gain: float, noise_uv: float) -> np.ndarray:
    sig = _pink_noise(rng, noise_uv)
    # Two bursts in disjoint time slots; equal-frequency bursts in the same
    # slot could cancel and erase the class signature.
    for lo_s, hi_s in ((0.6, 1.2), (1.8, 2.4)):
        amp = noise_uv * rng.uniform(low=3.2, high=4.5) * gain
        sig += _spindle_burst(rng, alpha_hz, amp, lo_s, hi_s)
    return sig


def _alert_signal(rng: Rng, gain: float, noise_uv: float) -> np.ndarray:
    sig = _pink_noise(rng, noise_uv)
    # Half the components are pinned below 30 Hz so the Beta band always
    # carries broadband mass regardless of the frequency draws.
    freqs = np.concatenate([rng.uniform((6,), 15.0, 30.0), rng.uniform((6,), 28.0, 45.0)])
    amps = noise_uv * rng.uniform((12,), 0.5, 0.75) * gain
    phases = rng.uniform((12,), 0.0, 2.0 * np.pi)
    sig += (amps[:, None] * np.sin(2 * np.pi * freqs[:, None] * _T[None, :]
                                   + phases[:, None])).sum(axis=0)
    if rng.uniform() < 0.3:
        sig += rng.uniform(low=4.0, high=8.0) * np.sin(2 * np.pi * 0.5 * _T + rng.uniform(low=0.0, high=2 * np.pi))
    return sig


def generate_synthetic(n_subjects: int, per_class: int, seed: int) -> SampleSet:
    """Synthetic two-class EEG with subject variability.

    Drowsy samples carry 9-11 Hz spindle bursts over pink noise; alert
    samples carry broadband 15-45 Hz activity (plus occasional slow drift)
    over pink noise.  Subject identity shifts the spindle frequency, gain
    and noise floor.  Deterministic per seed.
    """
    if not 2 <= n_subjects <= 65535:
        raise ValueError("need 2 to 65535 subjects")
    if per_class < 10:
        raise ValueError("need at least 10 samples per class")
    base = Rng(seed)
    data = np.empty((n_subjects, 2, per_class, SAMPLE_POINTS), dtype=np.float32)
    for subject in range(1, n_subjects + 1):
        traits = base.split("traits", subject)
        alpha_hz = traits.uniform(low=9.0, high=11.0)
        gain = traits.uniform(low=0.8, high=1.25)
        noise_uv = traits.uniform(low=2.5, high=4.0)
        for label in (0, 1):
            for i in range(per_class):
                rng = base.split("sample", subject, label, i)
                if label == 0:
                    sig = _alert_signal(rng, gain, noise_uv)
                else:
                    sig = _drowsy_signal(rng, alpha_hz, gain, noise_uv)
                data[subject - 1, label, i] = sig
    labels = np.tile(np.repeat([0, 1], per_class), n_subjects)
    subjects = np.repeat(np.arange(1, n_subjects + 1), 2 * per_class)
    return SampleSet(data.reshape(-1, SAMPLE_POINTS), labels, subjects)
