import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import drowse
from drowse.dataio import SampleSet, generate_synthetic
from drowse.network import cross_entropy, init_params
from drowse.numerics import Rng, paired_t_test
from drowse.training import (
    AdamState,
    CvReport,
    TrainConfig,
    adam_step,
    evaluate,
    loso_split,
    run_loso,
    train,
    write_report_csv,
    write_summary_csv,
)

SMALL_NET = (8, 16)  # kernels and kernel length of a small model


def zeroed_lstm():
    p = init_params(Rng(4))
    for name in ("lstm_w", "lstm_u", "lstm_b"):
        getattr(p, name)[:] = 0.0
    return p


def toy_set(labels, subjects=None):
    labels = np.asarray(labels, dtype=np.uint8)
    n = labels.size
    rng = Rng(99)
    data = rng.normal((n, 384)).astype(np.float32)
    subjects = np.asarray(subjects if subjects is not None else np.ones(n), dtype=np.uint16)
    return SampleSet(data, labels, subjects)


class TestCrossEntropy:
    def test_certain_correct(self):
        assert cross_entropy(np.array([[1.0, 0.0]]), np.array([0])) == 0.0

    def test_coin_flip(self):
        assert cross_entropy(np.array([[0.5, 0.5]]), np.array([1])) == pytest.approx(math.log(2.0))

    def test_batch_mean(self):
        p = np.array([[1.0, 0.0], [0.5, 0.5]])
        got = cross_entropy(p, np.array([0, 0]))
        assert got == pytest.approx(0.5 * math.log(2.0))

    def test_clamp(self):
        assert cross_entropy(np.array([[0.0, 1.0]]), np.array([0])) == pytest.approx(-math.log(1e-12))


class ScalarParams:
    """Single learnable scalar, mimicking the params interface."""

    def __init__(self, value):
        self.theta = np.array([value], dtype=np.float64)

    def learnable_items(self):
        return [("theta", self.theta)]


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = ScalarParams(1.5)
        state = AdamState.for_params(p)
        config = TrainConfig()
        for _ in range(5):
            adam_step(p, {"theta": np.zeros(1)}, state, config)
        assert p.theta[0] == 1.5

    def test_first_step_is_signed_learning_rate(self):
        for g in (0.3, -2.0, 1e4):
            p = ScalarParams(0.0)
            state = AdamState.for_params(p)
            config = TrainConfig()
            adam_step(p, {"theta": np.array([g])}, state, config)
            # bias correction makes mhat=g, vhat=g^2 on step one
            assert p.theta[0] == pytest.approx(-config.learning_rate * np.sign(g), rel=1e-6)

    def test_three_step_scalar_trajectory(self):
        config = TrainConfig()
        p = ScalarParams(1.0)
        state = AdamState.for_params(p)
        grads = [0.5, -0.25, 0.8]
        m = v = 0.0
        theta = 1.0
        for t, g in enumerate(grads, start=1):
            adam_step(p, {"theta": np.array([g])}, state, config)
            m = config.beta1 * m + (1 - config.beta1) * g
            v = config.beta2 * v + (1 - config.beta2) * g * g
            mhat = m / (1 - config.beta1 ** t)
            vhat = v / (1 - config.beta2 ** t)
            theta -= config.learning_rate * mhat / (math.sqrt(vhat) + config.adam_eps)
            assert p.theta[0] == pytest.approx(theta, rel=1e-12)
        assert state.t == 3

    def test_non_finite_gradient_rejected(self):
        p = ScalarParams(0.0)
        state = AdamState.for_params(p)
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(p, {"theta": np.array([np.nan])}, state, TrainConfig())


class TestTrainConfig:
    def test_defaults(self):
        c = TrainConfig()
        assert (c.learning_rate, c.beta1, c.beta2) == (0.01, 0.9, 0.999)
        assert (c.batch_size, c.max_epochs, c.repeats) == (50, 50, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=51)


class TestTrain:
    def test_same_seed_bit_identical(self):
        # Runs in one thread compute their steps (15, 15 and a short 10) and
        # the evaluations between epochs into that thread's workspace, the
        # second run into buffers the first left behind; a run in a new
        # thread starts from an empty workspace of its own.
        data = generate_synthetic(2, 10, 3)
        config = TrainConfig(max_epochs=2, batch_size=15)
        runs, accs = [], []

        def run():
            params = init_params(Rng(5), *SMALL_NET)
            accs.append([])
            train(params, data, config, Rng(6),
                  on_epoch=lambda e, p, ml: accs[-1].append(evaluate(p, data)))
            runs.append(params)

        run()
        run()
        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert len(runs) == 3
        for other in runs[1:]:
            for name in runs[0].__dataclass_fields__:
                np.testing.assert_array_equal(getattr(runs[0], name), getattr(other, name),
                                              err_msg=name)
        assert accs[0] == accs[1] == accs[2]

    def test_single_class_rejected(self):
        data = toy_set([0] * 12)
        params = init_params(Rng(5), *SMALL_NET)
        with pytest.raises(ValueError, match="single class"):
            train(params, data, TrainConfig(max_epochs=1), Rng(6))

    def test_learns_separable_data(self):
        data = generate_synthetic(4, 20, 1)
        config = TrainConfig(max_epochs=15, batch_size=50)
        params = init_params(Rng(1).split(0), *SMALL_NET)
        accs = []

        def record(epoch, current, mean_loss):
            accs.append(evaluate(current, data))

        train(params, data, config, Rng(1).split(1), on_epoch=record)
        assert max(accs) == 1.0

    def test_loss_decreases(self):
        data = generate_synthetic(4, 20, 1)
        config = TrainConfig(max_epochs=5, batch_size=50)
        params = init_params(Rng(2).split(0), *SMALL_NET)
        losses = []
        train(params, data, config, Rng(2).split(1),
              on_epoch=lambda e, p, ml: losses.append(ml))
        assert all(b <= a for a, b in zip(losses, losses[1:]))


class TestEvaluate:
    def test_constant_predictor(self):
        params = zeroed_lstm()
        # all-zero LSTM gives [0.5, 0.5]; the tie predicts label 0
        assert evaluate(params, toy_set([0] * 8)) == 1.0
        assert evaluate(params, toy_set([1] * 8)) == 0.0
        assert evaluate(params, toy_set([0] * 4 + [1] * 4)) == 0.5

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(zeroed_lstm(), toy_set([]))


class TestLoso:
    def test_split_disjoint_and_complete(self):
        data = generate_synthetic(4, 10, 2)
        train_set, test_set = loso_split(data, 3)
        assert set(np.unique(test_set.subjects)) == {3}
        assert 3 not in np.unique(train_set.subjects)
        assert len(train_set) + len(test_set) == len(data)

    def test_missing_subject(self):
        data = generate_synthetic(3, 10, 2)
        with pytest.raises(ValueError, match="not present"):
            loso_split(data, 9)

    def test_eleven_subjects_eleven_folds(self):
        subjects = np.repeat(np.arange(1, 12, dtype=np.uint16), 4)
        labels = np.tile([0, 0, 1, 1], 11).astype(np.uint8)
        data = SampleSet(Rng(8).normal((44, 384)).astype(np.float32), labels, subjects)
        config = TrainConfig(max_epochs=1, repeats=1, batch_size=4)
        report = run_loso(data, config)
        assert report.accuracies.shape == (11, 1, 1)
        assert report.subjects == list(range(1, 12))

    def test_fold_sizes_match_subject_counts(self):
        # subject 1 contributes 94 + 94 samples, so its fold tests on 188
        counts = {1: 94, 2: 60, 3: 52}
        rows = []
        for sid, per_class in counts.items():
            rows += [(sid, 0)] * per_class + [(sid, 1)] * per_class
        subjects = np.array([r[0] for r in rows], dtype=np.uint16)
        labels = np.array([r[1] for r in rows], dtype=np.uint8)
        data = SampleSet(Rng(9).normal((len(rows), 384)).astype(np.float32), labels, subjects)
        _, test_set = loso_split(data, 1)
        assert len(test_set) == 188

    def test_thread_count_does_not_change_report(self):
        data = generate_synthetic(3, 12, 4)
        config = TrainConfig(max_epochs=2, repeats=2, batch_size=24, seed=11)
        a = run_loso(data, config, threads=1)
        b = run_loso(data, config, threads=3)
        np.testing.assert_array_equal(a.accuracies, b.accuracies)
        assert a.subjects == b.subjects

    def test_summary_statistics(self):
        report = CvReport([1, 2, 3], np.array([
            [[0.5, 0.6]], [[0.7, 0.8]], [[0.9, 1.0]],
        ]))
        np.testing.assert_allclose(report.mean_curve(), [0.7, 0.8])
        np.testing.assert_allclose(report.sd_curve(), np.std([0.5, 0.7, 0.9], ddof=1))
        np.testing.assert_allclose(report.per_subject_curve()[:, 1], [0.6, 0.8, 1.0])

    def test_single_subject_rejected(self):
        data = toy_set([0, 1] * 6)
        with pytest.raises(ValueError, match="at least 2 subjects"):
            run_loso(data, TrainConfig(max_epochs=1, repeats=1))


UNGUARDED_SCRIPT = """
from drowse.dataio import generate_synthetic
from drowse.training import TrainConfig, run_loso

run_loso(generate_synthetic(3, 10, 101), TrainConfig(max_epochs=1), threads=2)
"""


def test_unguarded_pool_script_fails_fast(tmp_path):
    # Each spawned worker imports the script as its main module, so without
    # an `if __name__ == "__main__":` guard it calls run_loso while it is
    # still bootstrapping. The script must fail fast, say why and leave no
    # process of its session running.
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED_SCRIPT)
    env = dict(os.environ, PYTHONPATH=str(Path(drowse.__file__).resolve().parents[1]))
    start = time.monotonic()
    child = subprocess.Popen([sys.executable, str(script)], env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = child.communicate(timeout=90)
        elapsed = time.monotonic() - start
        deadline = time.monotonic() + 10
        while True:
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "processes of the script left running"
            time.sleep(0.1)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
    assert child.returncode != 0
    assert elapsed < 30
    assert 'if __name__ == "__main__":' in stderr


class TestLearningGuard:
    def test_subject_shifted_loso_accuracy_floor(self):
        # Clean synthetic data saturates within two epochs and hides a loss
        # of learning. A per-subject gain in [0.7, 1.3] plus 2 uV white
        # noise holds this run's final-epoch mean accuracy at 211/240 =
        # 0.879. The floor sits 0.05 (12 of the 240 test predictions)
        # below that, about the swing between neighbouring epochs.
        base = generate_synthetic(4, 30, 1)
        rng = Rng(1).split("shift")
        gains = rng.uniform((4,), 0.7, 1.3)
        shifted = base.data * gains[base.subjects - 1][:, None]
        data = SampleSet(shifted + rng.normal(base.data.shape, std=2.0),
                         base.labels, base.subjects)
        report = run_loso(data, TrainConfig(max_epochs=6, repeats=1, seed=1), threads=1)
        assert report.mean_curve()[-1] >= 0.879 - 0.05


class TestPairedComparison:
    # per-subject accuracy vectors go straight to numerics.paired_t_test
    def test_identical_accuracies_degenerate(self):
        a = np.array([0.7, 0.8, 0.9])
        with pytest.raises(ValueError):
            paired_t_test(a, a.copy())

    def test_constant_shift_degenerate(self):
        a = np.array([0.7, 0.8, 0.9])
        with pytest.raises(ValueError):
            paired_t_test(a, a - 0.05)


class TestCsvReports:
    def report(self):
        rng = Rng(21)
        return CvReport([1, 2], rng.uniform((2, 3, 4), 0.4, 1.0))

    def test_detail_rows(self, tmp_path):
        report = self.report()
        path = tmp_path / "detail.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "subject_id,repeat,epoch,accuracy"
        assert len(lines) == 1 + 2 * 3 * 4
        sid, rep, epoch, acc = lines[1].split(",")
        assert (sid, rep, epoch) == ("1", "1", "1")
        assert float(acc) == pytest.approx(report.accuracies[0, 0, 0], rel=1e-5)

    def test_summary_recomputable(self, tmp_path):
        report = self.report()
        path = tmp_path / "summary.csv"
        write_summary_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_acc,sd_acc"
        assert len(lines) == 1 + 4
        for e, line in enumerate(lines[1:]):
            _, mean_s, sd_s = line.split(",")
            assert float(mean_s) == pytest.approx(report.mean_curve()[e], rel=1e-5)
            assert float(sd_s) == pytest.approx(report.sd_curve()[e], rel=1e-5)

    def test_rewrite_is_bit_identical(self, tmp_path):
        report = self.report()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_report_csv(report, a)
        write_report_csv(report, b)
        assert a.read_bytes() == b.read_bytes()
