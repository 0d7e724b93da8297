"""The benchmark's workloads: the inputs each one builds, the drowse commands
one round runs, and how a round's accuracy is read back.

Every input is a pure function of the workload seed and is built with
drowse's own generators and writers (generate_synthetic, write_sampleset,
write_session). The benchmark adds its own noise and subject shift, so that
no workload's accuracy saturates at 1.0.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import checks
from drowse import dataio
from drowse.numerics import Rng

NAMES = ("loso", "train-explain", "classical")

# loso: serial `drowse loso` (--threads 1) on noisy synthetic files. At
# --threads >1 on a small machine the program's pool workers and their BLAS
# threads oversubscribe the cores and a round takes 1x or 2x its usual time
# at random, which no per-run figure can hold steady; the traced run's
# training.pool_* metrics time the pool instead. Final-epoch accuracy after
# a few epochs varies with the data and the training seed, so round r trains
# with its own seed on file r mod LOSO_FILES, and the run reports the mean
# over its rounds.
LOSO_SUBJECTS = 4
LOSO_PER_CLASS = 20
LOSO_EPOCHS = 2
LOSO_REPEATS = 1
LOSO_FILES = 4

# train-explain: train on a clean `drowse synth` file, then explain held-out
# subjects whose samples carry the benchmark's noise and gain shift. Each
# round explains the next EXPLAINED_PER_ROUND samples of a seeded shuffle
# of the held-out file, so a run's accuracy spans many held-out subjects.
TE_SUBJECTS = 4
TE_PER_CLASS = 30
TE_EPOCHS = 4
HELDOUT_FIRST_ID = 101
HELDOUT_SUBJECTS = 16
HELDOUT_PER_CLASS = 10
EXPLAINED_PER_ROUND = 16

# Benchmark noise on synthetic samples: white noise, plus one gain per
# subject drawn from [1 - spread, 1 + spread].
NOISE_UV = 2.0
GAIN_SPREAD = 0.3

# classical: 500 Hz sessions with planted reaction times. Subject traits are
# fixed per subject so that accuracy moves across seeds only through the
# noise and event draws: (background uV, signature gain, alpha Hz, tone uV).
SUBJECT_TRAITS = {1: (6.0, 1.0, 9.5, 4.0), 2: (7.5, 0.8, 10.5, 6.0)}
SESSIONS_PER_SUBJECT = 2
TONE_HZ = 50.0  # in the resampler's passband, outside every feature band
# Events per block, alternating alert and drowsy. Session 1 is the more
# balanced, so every seed prepares 60 + 60 samples per subject and the
# baselines do the same work on every seed.
SESSION_BLOCKS = {1: (31, 30, 30, 30), 2: (34, 28, 34, 28)}
PAUSE_S = 95.0  # longer than the 90 s global-RT window, so blocks never mix
MID_EVENTS = 3  # mid-RT events, excluded on any seed, before the third block
ALERT_RT_S = (0.35, 0.45)  # below 1.5x any 5th-percentile RT
DROWSY_RT_S = (1.6, 3.0)  # above 2.5x it
MID_RT_S = (0.7, 0.85)  # between the two
BASELINES = (("relpower", "lda"), ("ratios", "lr"), ("entropies", "qda"))


def round_seed(seed: int, round_index: int) -> int:
    """Program seed of one round: rounds of a run differ, runs repeat."""
    return seed * 1000 + round_index


def _perturb(data: dataio.SampleSet, rng: Rng) -> dataio.SampleSet:
    """Scale every subject by its own gain and add white noise."""
    subjects = data.subject_ids()
    gains = dict(zip(subjects, rng.uniform((len(subjects),), 1 - GAIN_SPREAD, 1 + GAIN_SPREAD)))
    scale = np.array([gains[int(s)] for s in data.subjects])
    noisy = data.data * scale[:, None] + rng.normal(data.data.shape, std=NOISE_UV)
    return dataio.SampleSet(noisy, data.labels, data.subjects)


def heldout_set(seed: int) -> dataio.SampleSet:
    """The train-explain held-out samples: new subjects, noise and gain shift."""
    base = dataio.generate_synthetic(HELDOUT_SUBJECTS, HELDOUT_PER_CLASS, seed + 7919)
    ids = base.subjects + (HELDOUT_FIRST_ID - 1)
    return _perturb(dataio.SampleSet(base.data, base.labels, ids), Rng(seed).split("heldout"))


def session_path(directory: Path, subject: int, session: int) -> Path:
    return directory / f"s{subject:02d}_{session}.eegs"


def session_record(seed: int, subject: int, session: int) -> dataio.SessionRecord:
    """A 500 Hz session of alternating alert and drowsy event blocks.

    The 3 s before an alert event carry 15-28 Hz activity, before a drowsy
    event an alpha spindle, before a mid-RT event nothing; a TONE_HZ tone
    runs through the whole session.
    """
    background, gain, alpha_hz, tone_uv = SUBJECT_TRAITS[subject]
    rng = Rng(seed).split("session", subject, session)
    kinds, onsets, clock = [], [], 5.0
    for b, n in enumerate(SESSION_BLOCKS[session]):
        if b:
            clock += PAUSE_S
        if b == 2:
            for _ in range(MID_EVENTS):
                kinds.append(-1)
                onsets.append(clock)
                clock += rng.uniform(low=5.0, high=8.0)
            clock += PAUSE_S
        for _ in range(n):
            kinds.append(b % 2)
            onsets.append(clock)
            clock += rng.uniform(low=5.0, high=8.0)
    kinds, onsets = np.array(kinds), np.array(onsets)
    n = kinds.size
    rts = np.select([kinds == 0, kinds == 1],
                    [rng.uniform((n,), *ALERT_RT_S), rng.uniform((n,), *DROWSY_RT_S)],
                    rng.uniform((n,), *MID_RT_S))
    offsets = onsets + rts + rng.uniform((n,), 0.3, 0.8)
    rate = dataio.SESSION_RATE_HZ
    n_points = int(np.ceil((offsets[-1] + 5.0) * rate))
    t = np.arange(n_points) / rate

    # pink background: white noise shaped to a 1/sqrt(f) amplitude spectrum,
    # over a power-of-two length so the FFT stays cheap
    n_fft = 1 << (n_points - 1).bit_length()
    spectrum = np.fft.rfft(rng.normal((n_fft,)))
    spectrum /= np.sqrt(np.maximum(np.fft.rfftfreq(n_fft, 1.0 / rate), 1.0))
    signal = np.fft.irfft(spectrum, n_fft)[:n_points]
    signal *= background / signal.std()
    signal += tone_uv * np.sin(2 * np.pi * TONE_HZ * t + rng.uniform(low=0.0, high=2 * np.pi))

    window = 3 * rate
    tw = np.arange(window) / rate
    for kind, onset in zip(kinds, onsets):
        end = int(round(onset * rate))
        if kind == -1:
            continue
        if kind == 1:
            center = rng.uniform(low=0.8, high=2.2)
            arg = (tw - center) / rng.uniform(low=0.5, high=0.8)
            envelope = np.where(np.abs(arg) < 1.0, 0.5 * (1.0 + np.cos(np.pi * arg)), 0.0)
            freq = alpha_hz + rng.uniform(low=-0.3, high=0.3)
            amp = gain * rng.uniform(low=4.0, high=9.0)
            signal[end - window:end] += amp * envelope * np.sin(
                2 * np.pi * freq * tw + rng.uniform(low=0.0, high=2 * np.pi))
        else:
            freq = rng.uniform((4,), 15.0, 28.0)
            amp = gain * rng.uniform((4,), 0.8, 2.0)
            phase = rng.uniform((4,), 0.0, 2 * np.pi)
            signal[end - window:end] += (amp[:, None] * np.sin(
                2 * np.pi * freq[:, None] * tw[None, :] + phase[:, None])).sum(axis=0)
    events = np.column_stack([onsets, onsets + rts, offsets])
    return dataio.SessionRecord(rate, signal, events)


def build_inputs(name: str, seed: int, directory: Path) -> None:
    """Write one workload's inputs into directory."""
    directory.mkdir(parents=True, exist_ok=True)
    if name == "loso":
        for k in range(LOSO_FILES):
            data = dataio.generate_synthetic(LOSO_SUBJECTS, LOSO_PER_CLASS, seed * LOSO_FILES + k)
            dataio.write_sampleset(_perturb(data, Rng(seed).split("loso", k)),
                                   directory / loso_file(k))
    elif name == "train-explain":
        dataio.write_sampleset(heldout_set(seed), directory / "heldout.eegd")
    elif name == "classical":
        for subject in SUBJECT_TRAITS:
            for session in range(1, SESSIONS_PER_SUBJECT + 1):
                dataio.write_session(session_record(seed, subject, session),
                                     session_path(directory, subject, session))
    else:
        raise ValueError(f"unknown workload {name!r}")


def loso_file(round_index: int) -> str:
    return f"data{round_index % LOSO_FILES}.eegd"


def explained(seed: int, round_index: int) -> list:
    """Indices into the held-out file that one round explains."""
    order = Rng(seed).split("explain").permutation(2 * HELDOUT_SUBJECTS * HELDOUT_PER_CLASS)
    start = EXPLAINED_PER_ROUND * round_index % order.size
    return [int(i) for i in np.roll(order, -start)[:EXPLAINED_PER_ROUND]]


def round_commands(name: str, seed: int, round_index: int) -> list:
    """The drowse commands of one round, as argument lists run in the work dir."""
    s = str(round_seed(seed, round_index))
    if name == "loso":
        return [["loso", "--data", loso_file(round_index), "--out", "reports",
                 "--epochs", str(LOSO_EPOCHS), "--repeats", str(LOSO_REPEATS), "--seed", s,
                 "--threads", "1"]]
    if name == "train-explain":
        commands = [
            ["synth", "--out", "train.eegd", "--subjects", str(TE_SUBJECTS),
             "--per-class", str(TE_PER_CLASS), "--seed", s],
            ["train", "--data", "train.eegd", "--model", "model.eglm",
             "--epochs", str(TE_EPOCHS), "--seed", s],
        ]
        commands += [["explain", "--model", "model.eglm", "--data", "heldout.eegd",
                      "--sample", str(i), "--out", heatmap_name(i), "--svg"]
                     for i in explained(seed, round_index)]
        return commands
    if name == "classical":
        sessions = [session_path(Path("."), subject, session).name
                    for subject in SUBJECT_TRAITS
                    for session in range(1, SESSIONS_PER_SUBJECT + 1)]
        commands = [["prepare", *sessions, "--out", "prepared.eegd"]]
        commands += [["baseline", "--data", "prepared.eegd", "--features", features,
                      "--clf", clf, "--out", f"{features}.csv"] for features, clf in BASELINES]
        return commands
    raise ValueError(f"unknown workload {name!r}")


def heatmap_name(index: int) -> str:
    return f"heatmap{index:03d}.csv"


# -- checks --------------------------------------------------------------------

def _subject_counts(subjects) -> dict:
    ids, counts = np.unique(subjects, return_counts=True)
    return dict(zip(ids.tolist(), counts.tolist()))


def check_round(name: str, seed: int, round_index: int, directory: Path) -> tuple:
    """(accuracy, problems) of the outputs one round left in directory."""
    if name == "loso":
        _, _, subjects = checks.read_eegd(directory / loso_file(round_index))
        summary = directory / "reports" / "loso_summary.csv"
        problems = checks.check_loso(directory / "reports" / "loso_detail.csv", summary,
                                     _subject_counts(subjects), LOSO_REPEATS, LOSO_EPOCHS)
        return checks.loso_accuracy(summary), problems
    if name == "train-explain":
        _, labels, subjects = checks.read_eegd(directory / "train.eegd")
        want = {s: 2 * TE_PER_CLASS for s in range(1, TE_SUBJECTS + 1)}
        problems = [] if _subject_counts(subjects) == want and labels.mean() == 0.5 else [
            f"train.eegd holds {_subject_counts(subjects)}, expected {want} in balanced classes"]
        data, labels, subjects = checks.read_eegd(directory / "heldout.eegd")
        correct = 0
        indices = explained(seed, round_index)
        for i in indices:
            csv_path = directory / heatmap_name(i)
            found = checks.check_heatmap(csv_path, csv_path.with_suffix(".svg"),
                                         data[i], labels[i], subjects[i])
            if not found:
                meta, _ = checks.read_heatmap(csv_path)
                correct += checks.predicted_class(meta) == labels[i]
            problems += found
        return correct / len(indices), problems
    if name == "classical":
        events = {(subject, session):
                  checks.read_eegs_events(session_path(directory, subject, session))
                  for subject in SUBJECT_TRAITS for session in range(1, SESSIONS_PER_SUBJECT + 1)}
        _, labels, subjects = checks.read_eegd(directory / "prepared.eegd")
        problems = checks.check_counts(labels, subjects, checks.expected_counts(events))
        counts = _subject_counts(subjects)
        accuracies = []
        for features, _ in BASELINES:
            csv_path = directory / f"{features}.csv"
            problems += checks.check_baseline_csv(csv_path, counts)
            accuracies.append(checks.baseline_mean(csv_path))
        return float(np.mean(accuracies)), problems
    raise ValueError(f"unknown workload {name!r}")


def check_run(name: str, directory: Path) -> list:
    """Checks too slow for every round, made once on the last round's outputs."""
    if name != "classical":
        return []
    from drowse import baselines

    data, _, subjects = checks.read_eegd(directory / "prepared.eegd")
    tones = {subject: traits[3] for subject, traits in SUBJECT_TRAITS.items()}
    problems = checks.check_tone(data, subjects, tones, TONE_HZ)
    rows = data[np.linspace(0, len(data) - 1, 6).astype(int)]
    problems += checks.check_relative_powers(rows, baselines.relative_powers)
    problems += checks.check_entropies(rows[:2], baselines.four_entropies)
    return problems
