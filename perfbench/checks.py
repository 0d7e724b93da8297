"""Correctness checks on the outputs of the drowse commands.

Each check returns a list of problems; an empty list means the output passed.
The checks parse the program's files with their own readers and compare
with oracles written here (or, for Welch, with scipy), never with a stored
copy of earlier output.
"""

from __future__ import annotations

import math
import struct
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

POINTS = 384
RATE_HZ = 128
BLOCK = 8  # heatmap values per LSTM step

_EEGD_ROW = np.dtype([("subject", "<u2"), ("label", "u1"), ("pad", "u1"), ("x", "<f4", POINTS)])


# -- readers -------------------------------------------------------------------

def read_eegd(path) -> tuple:
    """(data [n, 384] float64, labels, subjects) of an .eegd sample file."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"EEGD":
        raise ValueError(f"{path}: not an .eegd file")
    _, n, points, rate = struct.unpack_from("<IIII", raw, 4)
    if (points, rate) != (POINTS, RATE_HZ) or len(raw) != 20 + n * _EEGD_ROW.itemsize:
        raise ValueError(f"{path}: unexpected layout")
    rows = np.frombuffer(raw, dtype=_EEGD_ROW, count=n, offset=20)
    return rows["x"].astype(np.float64), rows["label"].astype(int), rows["subject"].astype(int)


def read_eegs_events(path) -> np.ndarray:
    """[n, 3] event table (onset, response onset, response offset) of an .eegs file."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"EEGS":
        raise ValueError(f"{path}: not an .eegs file")
    n_points = struct.unpack_from("<Q", raw, 12)[0]
    at = 20 + 4 * n_points
    n_events = struct.unpack_from("<I", raw, at)[0]
    return np.frombuffer(raw, dtype="<f8", count=3 * n_events, offset=at + 4).reshape(-1, 3)


def _csv_rows(path) -> list:
    return [line.split(",") for line in Path(path).read_text().splitlines() if line]


# -- loso ----------------------------------------------------------------------

def check_loso(detail_path, summary_path, test_counts: dict, repeats: int, epochs: int) -> list:
    """Detail accuracies lie on the k/n_test grid, the summary follows from the
    detail rows, and every (subject, repeat, epoch) appears exactly once."""
    problems = []
    rows = _csv_rows(detail_path)
    if rows[0] != ["subject_id", "repeat", "epoch", "accuracy"]:
        return [f"{detail_path}: bad header {rows[0]}"]
    rows = rows[1:]
    want = len(test_counts) * repeats * epochs
    if len(rows) != want:
        problems.append(f"detail has {len(rows)} rows, expected {want}")
    acc = {}
    for subject, repeat, epoch, value in rows:
        key = (int(subject), int(repeat), int(epoch))
        if key in acc:
            problems.append(f"detail row {key} repeated")
        acc[key] = a = float(value)
        n = test_counts.get(key[0])
        if n is None:
            problems.append(f"detail names unknown subject {key[0]}")
            continue
        k = round(a * n)
        if not 0 <= k <= n or abs(a - k / n) > 1e-6:
            problems.append(f"accuracy {value} of subject {key[0]} is not k/{n}")
    for key in ((s, r, e) for s in test_counts for r in range(1, repeats + 1)
                for e in range(1, epochs + 1)):
        if key not in acc:
            problems.append(f"detail misses row {key}")
    if problems:
        return problems

    summary = _csv_rows(summary_path)
    if summary[0] != ["epoch", "mean_acc", "sd_acc"] or len(summary) != epochs + 1:
        return [f"{summary_path}: bad header or {len(summary) - 1} rows, expected {epochs}"]
    subjects = sorted(test_counts)
    for epoch, mean, sd in summary[1:]:
        e = int(epoch)
        per_subject = [sum(acc[(s, r, e)] for r in range(1, repeats + 1)) / repeats
                       for s in subjects]
        m = sum(per_subject) / len(per_subject)
        v = sum((p - m) ** 2 for p in per_subject) / (len(per_subject) - 1)
        for name, got, expected in (("mean", float(mean), m), ("sd", float(sd), math.sqrt(v))):
            if abs(got - expected) > 1e-5 * max(1.0, abs(expected)):
                problems.append(f"summary {name} at epoch {e} is {got}, "
                                f"detail gives {expected:.6g}")
    return problems


def loso_accuracy(summary_path) -> float:
    """Final-epoch mean accuracy of a loso summary CSV."""
    return float(_csv_rows(summary_path)[-1][1])


# -- train-explain -------------------------------------------------------------

def read_heatmap(path) -> tuple:
    """(header dict, table [384, 4]) of a heatmap CSV."""
    meta, rows = {}, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, value = line[1:].split("=", 1)
            meta[key.strip()] = float(value)
        elif line and not line.startswith("index,"):
            rows.append([float(v) for v in line.split(",")])
    return meta, np.array(rows)


def predicted_class(meta: dict) -> int:
    """Argmax class of a heatmap header; a tie predicts 0, as the program does."""
    return 1 if meta["p_drowsy"] > meta["p_alert"] else 0


def check_heatmap(csv_path, svg_path, signal: np.ndarray, label: int, subject: int) -> list:
    """Probabilities sum to 1, m_acc is a blockwise likelihood in [0, 1] whose
    last block is the predicted-class probability, and m_rel is the
    standardized first difference of the m_acc blocks (the telescoping sum)."""
    try:
        meta, table = read_heatmap(csv_path)
        p_alert, p_drowsy = meta["p_alert"], meta["p_drowsy"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{csv_path}: unreadable heatmap ({exc})"]
    problems = []
    if table.shape != (POINTS, 4) or not np.array_equal(table[:, 0], np.arange(POINTS)):
        return [f"{csv_path}: expected {POINTS} indexed rows, got {table.shape}"]
    if (meta.get("label"), meta.get("subject")) != (label, subject):
        problems.append(f"{csv_path}: header names subject {meta.get('subject')} "
                        f"label {meta.get('label')}, the sample is {subject}/{label}")
    if not np.array_equal(table[:, 1].astype(np.float32), signal.astype(np.float32)):
        problems.append(f"{csv_path}: signal column differs from the sample")
    if abs(p_alert + p_drowsy - 1.0) > 1e-8:
        problems.append(f"{csv_path}: p_alert + p_drowsy = {p_alert + p_drowsy}")
    m_rel, m_acc = table[:, 2], table[:, 3]
    if m_acc.min() < 0.0 or m_acc.max() > 1.0:
        problems.append(f"{csv_path}: m_acc leaves [0, 1]")
    acc_blocks = m_acc.reshape(-1, BLOCK)
    rel_blocks = m_rel.reshape(-1, BLOCK)
    if np.any(acc_blocks != acc_blocks[:, :1]) or np.any(rel_blocks != rel_blocks[:, :1]):
        problems.append(f"{csv_path}: heatmap not constant over {BLOCK}-point blocks")
    p_pred = p_drowsy if predicted_class(meta) == 1 else p_alert
    if abs(acc_blocks[-1, 0] - p_pred) > 1e-8:
        problems.append(f"{csv_path}: last m_acc block {acc_blocks[-1, 0]} is not "
                        f"the predicted-class probability {p_pred}")
    rel = rel_blocks[:, 0]
    if np.any(rel != 0.0):
        if abs(rel.mean()) > 1e-6 or abs(rel.std() - 1.0) > 1e-6:
            problems.append(f"{csv_path}: m_rel has mean {rel.mean()} and SD {rel.std()}")
        steps = np.diff(acc_blocks[:, 0], prepend=0.0)
        spread = steps.std()
        telescoped = (steps - steps.mean()) / spread if spread > 0 else np.zeros_like(steps)
        if np.max(np.abs(telescoped - rel)) > 1e-4:
            problems.append(f"{csv_path}: m_rel is not the standardized m_acc increments")
    try:
        root = ET.parse(svg_path).getroot()
        if not root.tag.endswith("svg"):
            problems.append(f"{svg_path}: root element is {root.tag}")
    except (OSError, ET.ParseError) as exc:
        problems.append(f"{svg_path}: not a readable SVG ({exc})")
    return problems


# -- classical -----------------------------------------------------------------

def rt_verdicts(events: np.ndarray) -> np.ndarray:
    """Reaction-time rule, written independently of the program: 0 alert,
    1 drowsy, -1 excluded. The baseline RT is the 5th percentile (linear
    interpolation) of the local RTs; an event's global RT is the mean local
    RT of the events starting in the 90 s before it."""
    onsets = events[:, 0]
    local = events[:, 1] - events[:, 0]
    ranked = sorted(local)
    h = (len(ranked) - 1) * 0.05
    lo = int(math.floor(h))
    base = ranked[lo] + (h - lo) * (ranked[min(lo + 1, len(ranked) - 1)] - ranked[lo])
    verdicts = []
    for i in range(len(onsets)):
        prior = [local[j] for j in range(len(onsets))
                 if onsets[i] - 90.0 <= onsets[j] < onsets[i]]
        glob = sum(prior) / len(prior) if prior else local[i]
        if local[i] < 1.5 * base and glob < 1.5 * base:
            verdicts.append(0)
        elif local[i] > 2.5 * base and glob > 2.5 * base:
            verdicts.append(1)
        else:
            verdicts.append(-1)
    return np.array(verdicts)


def expected_counts(sessions: dict, rate: int = 500) -> dict:
    """Per-subject class count after balancing, from the planted events.

    sessions maps (subject, session) to an event table. A window needs 3 s of
    signal before its event; a session needs 50 windows of each class; per
    subject the most balanced session wins (then the larger, then the lower
    id), and both classes keep the minority count.
    """
    best = {}
    for (subject, session), events in sessions.items():
        if len(events) < 20:
            continue  # too few events to label
        verdicts = rt_verdicts(events)
        starts = np.round(events[:, 0] * rate).astype(int) - 3 * rate
        kept = verdicts[(verdicts >= 0) & (starts >= 0)]
        n_alert, n_drowsy = int((kept == 0).sum()), int((kept == 1).sum())
        if min(n_alert, n_drowsy) < 50:
            continue
        rank = (abs(n_alert - n_drowsy), -(n_alert + n_drowsy), session)
        if subject not in best or rank < best[subject][0]:
            best[subject] = (rank, min(n_alert, n_drowsy))
    return {subject: count for subject, (_, count) in best.items()}


def check_counts(labels, subjects, expected: dict) -> list:
    got = {}
    for s in sorted(set(subjects.tolist())):
        mask = subjects == s
        got[s] = (int((labels[mask] == 0).sum()), int((labels[mask] == 1).sum()))
    want = {s: (n, n) for s, n in expected.items()}
    return [] if got == want else [f"class counts per subject {got}, the RT rule gives {want}"]


def check_tone(data, subjects, tone_uv: dict, tone_hz: float, tolerance: float = 0.03) -> list:
    """The planted tone's mean amplitude per subject stays within tolerance
    after 500 -> 128 Hz resampling (a 3 s window holds whole tone cycles)."""
    t = np.arange(POINTS) / RATE_HZ
    basis = np.exp(-2j * np.pi * tone_hz * t)
    problems = []
    for s, amp in tone_uv.items():
        rows = data[subjects == s]
        if rows.size == 0:
            problems.append(f"no samples of subject {s} to find the tone in")
            continue
        measured = float(np.mean(2.0 * np.abs(rows @ basis) / POINTS))
        if abs(measured / amp - 1.0) > tolerance:
            problems.append(f"subject {s}: {tone_hz} Hz tone of {amp} uV "
                            f"resampled to {measured:.3f} uV")
    return problems


BANDS = ((1.0, 4.0), (4.0, 8.0), (8.0, 12.0), (12.0, 30.0))


def scipy_relative_powers(x: np.ndarray) -> np.ndarray:
    """Relative band powers from scipy's Welch: 128-point symmetric Hamming
    segments, 50% overlap, mean removed, trapezoid over each closed band."""
    from scipy.signal import get_window, welch

    freqs, psd = welch(x, fs=RATE_HZ, window=get_window("hamming", 128, fftbins=False),
                       nperseg=128, noverlap=64, detrend="constant", scaling="density")
    powers = []
    for lo, hi in BANDS:
        mask = (freqs >= lo) & (freqs <= hi)
        powers.append(np.trapezoid(psd[mask], freqs[mask]))
    powers = np.array(powers)
    return powers / powers.sum()


def check_relative_powers(rows: np.ndarray, program) -> list:
    problems = []
    for i, x in enumerate(rows):
        diff = np.max(np.abs(program(x) - scipy_relative_powers(x)))
        if diff > 1e-9:
            problems.append(f"row {i}: relative powers differ from scipy Welch by {diff:.3g}")
    return problems


def _templates(x, m, count):
    return np.array([x[i:i + m] for i in range(count)])


def sampen_oracle(x, m=2):
    """Sample entropy by counting template pairs row by row (self-matches out)."""
    r = 0.2 * x.std()
    count = x.size - m

    def pairs(mm):
        t = _templates(x, mm, count)
        return sum(int((np.abs(t - t[i]).max(axis=1) <= r).sum()) - 1 for i in range(count))

    return -math.log(max(pairs(m + 1), 0.5) / max(pairs(m), 0.5))


def apen_oracle(x, m=2):
    """Approximate entropy by counting matches row by row (self-matches in)."""
    r = 0.2 * x.std()

    def phi(mm):
        count = x.size - mm + 1
        t = _templates(x, mm, count)
        return sum(math.log(int((np.abs(t - t[i]).max(axis=1) <= r).sum()) / count)
                   for i in range(count)) / count

    return phi(m) - phi(m + 1)


def fuzzyen_oracle(x, m=2):
    """Fuzzy entropy with baseline-removed templates, summed row by row."""
    r = 0.2 * x.std()
    count = x.size - m

    def phi(mm):
        t = _templates(x, mm, count)
        t = t - t.mean(axis=1, keepdims=True)
        total = 0.0
        for i in range(count):
            d = np.abs(t - t[i]).max(axis=1)
            total += float(np.exp(-(d ** 2) / r).sum()) - 1.0
        return total / (count * (count - 1))

    return math.log(phi(m)) - math.log(phi(m + 1))


def check_entropies(rows: np.ndarray, program) -> list:
    """program(x) gives (sample, fuzzy, approximate, ...) entropies of x."""
    problems = []
    for i, x in enumerate(rows):
        got = program(x)[:3]
        want = (sampen_oracle(x), fuzzyen_oracle(x), apen_oracle(x))
        for name, g, w in zip(("sample", "fuzzy", "approximate"), got, want):
            if abs(g - w) > 1e-10:
                problems.append(f"row {i}: {name} entropy {g!r}, counting gives {w!r}")
    return problems


def check_baseline_csv(path, test_counts: dict) -> list:
    """One k/n accuracy row per subject and a mean/sd footer that follows."""
    rows = _csv_rows(path)
    if rows[0] != ["subject_id", "accuracy"] or [r[0] for r in rows[-2:]] != ["mean", "sd"]:
        return [f"{path}: bad header or footer"]
    body = rows[1:-2]
    problems = []
    if sorted(int(s) for s, _ in body) != sorted(test_counts):
        problems.append(f"{path}: subjects {[s for s, _ in body]}, expected {sorted(test_counts)}")
        return problems
    values = [float(a) for _, a in body]
    for (s, a), value in zip(body, values):
        n = test_counts[int(s)]
        if abs(value - round(value * n) / n) > 1e-8:
            problems.append(f"{path}: accuracy {a} of subject {s} is not k/{n}")
    mean = sum(values) / len(values)
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
    if abs(float(rows[-2][1]) - mean) > 1e-8 or abs(float(rows[-1][1]) - sd) > 1e-8:
        problems.append(f"{path}: footer does not follow from the rows")
    return problems


def baseline_mean(path) -> float:
    return float(_csv_rows(path)[-2][1])
