"""Model training and subject-independent evaluation.

Bias-corrected Adam, the seeded epoch loop (batch-norm running statistics
are folded in after every batch; the loss and its gradients come from
network.model_gradients), and a leave-one-subject-out harness that records
per-epoch test accuracy for every (subject, repeat) pair.  Folds are
embarrassingly parallel; results are keyed by (subject, repeat) so thread
count never changes the report.

At threads > 1 the folds run in a pool of worker processes started with
the spawn method: each worker is a fresh interpreter, never a fork of a
parent whose BLAS threads already exist, and it inherits the parent's
environment, so one BLAS thread (see the package docstring). The pool has
no initializer and its workers keep no state: a job is the path of a
temporary .eegd copy of the dataset, the TrainConfig and one (subject,
repeat) pair, and it reads the samples from that file, where a serial
fold takes them as an argument. So a fold depends only on the data, the
config and its pair, and the samples stay out of every pipe to a worker:
a write larger than the pipe buffer to a worker that died while starting
(as one importing an unguarded script does) would block for good. A
worker that dies breaks the pool, and run_loso raises that as
ChildProcessError. At threads == 1 the folds run in the calling process.
train and evaluate compute every step and chunk into the calling thread's
workspace (numerics.thread_workspace), so a process running folds, the
caller or a worker, maps its buffers once rather than once per step or
fold.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from .dataio import loso_subject_ids, read_sampleset, write_sampleset
from .network import init_params, model_forward, model_gradients, updated_running_stats
from .numerics import Rng, thread_workspace

EVAL_CHUNK = 256


@dataclass
class TrainConfig:
    # Adam's step size, and Kingma & Ba's (arXiv 1412.6980) moment decays and epsilon
    learning_rate: ClassVar[float] = 0.01
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8
    batch_size: int = 50
    max_epochs: int = 50
    repeats: int = 10
    seed: int = 1

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch size must be at least 2 (batch norm)")
        if not 1 <= self.max_epochs <= 50:
            raise ValueError("max_epochs must lie in [1, 50]")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(
            m={name: np.zeros_like(tensor) for name, tensor in params.learnable_items()},
            v={name: np.zeros_like(tensor) for name, tensor in params.learnable_items()},
        )


def adam_step(params, grads: dict, state: AdamState, config: TrainConfig):
    """One bias-corrected Adam update, applied to params in place."""
    state.t += 1
    c1 = 1.0 - config.beta1 ** state.t
    c2 = 1.0 - config.beta2 ** state.t
    for name, tensor in params.learnable_items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        tensor -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + config.adam_eps)
    return params


def train(params, train_set, config: TrainConfig, rng: Rng, on_epoch=None):
    """Epoch loop: seeded shuffle, fixed-size batches, Adam per batch.

    The trailing short batch is dropped when it has fewer than 2 samples
    (batch norm needs at least 2).  Batch-norm running statistics are
    updated after every batch.  ``on_epoch(epoch, params, mean_loss)`` is
    called after each epoch with 1-based epoch numbers.  Every step
    computes into the thread's workspace, which holds nothing between
    steps, so ``on_epoch`` may use it too (evaluate does).  The
    network computes in the samples' dtype, float32 for a SampleSet;
    params and the Adam moments stay float64 and take the float32
    gradients.  Returns params after the final epoch.
    """
    x = train_set.data[:, None, :]
    y = train_set.labels.astype(np.int64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    if y.min() == y.max():
        raise ValueError("training set contains a single class")

    state = AdamState.for_params(params)
    ws = thread_workspace()
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            if idx.size < 2:
                continue
            loss, grads, trace = model_gradients(x[idx], y[idx], params, ws)
            params.bn_run_mean, params.bn_run_var = updated_running_stats(
                params, trace.bn_mean, trace.bn_var)
            adam_step(params, grads, state, config)
            losses.append(loss)
        if on_epoch is not None:
            on_epoch(epoch, params, float(np.mean(losses)))
    return params


def evaluate(params, test_set) -> float:
    """Eval-mode accuracy; an exactly tied posterior predicts label 0.
    Every chunk computes in the samples' dtype (float32 for a SampleSet)
    into the thread's workspace."""
    n = len(test_set)
    if n == 0:
        raise ValueError("empty test set")
    x = test_set.data[:, None, :]
    y = test_set.labels.astype(np.int64)
    correct = 0
    ws = thread_workspace()
    for start in range(0, n, EVAL_CHUNK):
        probs, _ = model_forward(x[start:start + EVAL_CHUNK], params, "eval", ws)
        # np.argmax takes the first maximum, so a 0.5/0.5 tie predicts 0
        pred = np.argmax(probs, axis=1)
        correct += int((pred == y[start:start + EVAL_CHUNK]).sum())
    return correct / n


def loso_split(data, subject: int):
    """(train, test) split where ``subject`` is the held-out test subject."""
    test_mask = data.subjects == subject
    if not test_mask.any():
        raise ValueError(f"subject {subject} not present")
    return data.subset(~test_mask), data.subset(test_mask)


@dataclass
class CvReport:
    """Per-epoch accuracies for every (subject, repeat) of a LOSO run.

    accuracies is [n_subjects, n_repeats, n_epochs]; the summary statistics
    follow the mean-of-per-subject-means convention, with the SD taken
    across subjects (sample SD, ddof 1).
    """

    subjects: list
    accuracies: np.ndarray

    def per_subject_curve(self) -> np.ndarray:
        return self.accuracies.mean(axis=1)

    def mean_curve(self) -> np.ndarray:
        return self.per_subject_curve().mean(axis=0)

    def sd_curve(self) -> np.ndarray:
        return self.per_subject_curve().std(axis=0, ddof=1)


def _fold_job(data, config, subject, repeat):
    train_set, test_set = loso_split(data, subject)
    rng = Rng(config.seed).split(int(subject), int(repeat))
    params = init_params(rng)
    accs = []

    def record(epoch, current, mean_loss):
        accs.append(evaluate(current, test_set))

    train(params, train_set, config, rng, on_epoch=record)
    return int(subject), int(repeat), accs


def _fold_job_from_file(data_path, config, subject_repeat):
    return _fold_job(read_sampleset(data_path), config, *subject_repeat)


def run_loso(data, config: TrainConfig, threads: int = 1) -> CvReport:
    """Leave-one-subject-out evaluation with per-epoch accuracy recording.

    Every (subject, repeat) pair trains a fresh model from a seed derived
    from (config.seed, subject, repeat), so results are independent of both
    scheduling and thread count. At threads > 1 the workers are spawned, so
    they import the caller's main module: a script that calls this must
    keep its own work under ``if __name__ == "__main__":``. A call made
    while a spawned worker imports that module raises RuntimeError, and a
    worker that dies or fails to start raises ChildProcessError.
    """
    subjects = loso_subject_ids(data.subjects)
    jobs = [(subject, repeat) for subject in subjects for repeat in range(1, config.repeats + 1)]
    if threads > 1:
        # imported here, so that a serial run and a process that never
        # runs LOSO do not load them
        import multiprocessing
        import tempfile
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        # multiprocessing marks a spawned process as inheriting until its
        # bootstrap, which imports the parent's main module, is over.
        if getattr(multiprocessing.current_process(), "_inheriting", False):
            raise RuntimeError(
                "run_loso(threads > 1) was called while a spawned worker was importing "
                "the main module; put the script's own work under "
                "'if __name__ == \"__main__\":'")
        with tempfile.TemporaryDirectory(prefix="drowse-loso-") as tmp:
            data_path = os.path.join(tmp, "data.eegd")
            write_sampleset(data, data_path)
            try:
                with ProcessPoolExecutor(max_workers=min(threads, len(jobs)),
                                         mp_context=multiprocessing.get_context("spawn")) as pool:
                    results = list(pool.map(partial(_fold_job_from_file, data_path, config),
                                            jobs))
            except BrokenProcessPool as exc:
                raise ChildProcessError(f"a LOSO worker process died: {exc}") from exc
    else:
        results = [_fold_job(data, config, *job) for job in jobs]

    accuracies = np.zeros((len(subjects), config.repeats, config.max_epochs))
    row = {subject: i for i, subject in enumerate(subjects)}
    for subject, repeat, accs in results:
        accuracies[row[subject], repeat - 1, :] = accs
    return CvReport(subjects, accuracies)


def write_report_csv(report: CvReport, path) -> None:
    """Detail CSV: one row per (subject, repeat, epoch), 6 significant digits."""
    n_subjects, n_repeats, n_epochs = report.accuracies.shape
    with open(path, "w") as fh:
        fh.write("subject_id,repeat,epoch,accuracy\n")
        for si in range(n_subjects):
            for r in range(n_repeats):
                for e in range(n_epochs):
                    fh.write(f"{report.subjects[si]},{r + 1},{e + 1},"
                             f"{report.accuracies[si, r, e]:.6g}\n")


def write_summary_csv(report: CvReport, path) -> None:
    """Summary CSV: per-epoch mean and SD across subjects."""
    mean = report.mean_curve()
    sd = report.sd_curve()
    with open(path, "w") as fh:
        fh.write("epoch,mean_acc,sd_acc\n")
        for e in range(mean.size):
            fh.write(f"{e + 1},{mean[e]:.6g},{sd[e]:.6g}\n")
