"""The traced run: per-layer metrics from timed calls into every drowse module.

The suite calls the public functions of network, training, baselines,
dataio, interpret and numerics at fixed shapes, and runs each drowse
command once as a process for the cli layer. Every timed call is a span
(id, parent, name, start, end) recorded here, around the call; no span sits
inside the program. Spans stay in memory and are written as JSON when the
suite ends. A metric is the median of its spans, so it does not depend on
which workload asked for the traced run.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import workloads
from drowse import baselines, dataio, interpret, network, numerics, training

# metric name -> unit; the traced run reports exactly these
UNITS = {
    "network.forward_train_ms": "ms",
    "network.gradients_ms": "ms",
    "network.backward_ms": "ms",
    "network.forward_eval_ms": "ms",
    "network.forward_eval1_ms": "ms",
    "network.forward_eval_peak_mb": "MiB",
    "network.lstm_forward_ms": "ms",
    "network.elu_ms": "ms",
    "network.avgpool_ms": "ms",
    "network.batchnorm_eval_ms": "ms",
    "network.save_ms": "ms",
    "network.load_ms": "ms",
    "training.train_samples_per_s": "1/s",
    "training.evaluate_samples_per_s": "1/s",
    "training.adam_step_ms": "ms",
    "training.pool_speedup": "ratio",
    "training.pool_serial_s": "s",
    "training.pool_parallel_s": "s",
    "baselines.welch_ms": "ms",
    "baselines.relative_power_ms": "ms",
    "baselines.power_ratio_ms": "ms",
    "baselines.four_entropies_ms": "ms",
    "baselines.sample_entropy_ms": "ms",
    "baselines.approximate_entropy_ms": "ms",
    "baselines.fuzzy_entropy_ms": "ms",
    "baselines.spectral_entropy_ms": "ms",
    "baselines.loso_lr_ms": "ms",
    "baselines.loso_lda_ms": "ms",
    "baselines.loso_qda_ms": "ms",
    "baselines.loso_gnb_ms": "ms",
    "baselines.loso_knn_ms": "ms",
    "baselines.entropy_peak_mb": "MiB",
    "dataio.resample_ms": "ms",
    "dataio.label_session_ms": "ms",
    "dataio.balance_ms": "ms",
    "dataio.read_sampleset_mb_s": "MB/s",
    "dataio.write_sampleset_mb_s": "MB/s",
    "dataio.read_session_mb_s": "MB/s",
    "dataio.write_session_mb_s": "MB/s",
    "dataio.synth_samples_per_s": "1/s",
    "interpret.explain_ms": "ms",
    "interpret.emit_ms": "ms",
    "numerics.dft_power_ms": "ms",
    "numerics.rng_normal_mvals_s": "Mval/s",
    "cli.synth_s": "s",
    "cli.train_s": "s",
    "cli.explain_s": "s",
    "cli.loso_s": "s",
    "cli.prepare_s": "s",
    "cli.baseline_s": "s",
}


class Tracer:
    """In-memory spans; each records the span open when it started as parent."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                  "name": name, "start_s": time.perf_counter(), "end_s": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end_s"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list:
        return [s["end_s"] - s["start_s"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict:
        """Total time per span name, minus the time its child spans cover."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end_s"] - s["start_s"]
        totals = {}
        for s in self.spans:
            own = s["end_s"] - s["start_s"] - child.get(s["id"], 0.0)
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def timed(self, name: str, fn, reps: int) -> float:
        """Median seconds of reps spans around fn()."""
        for _ in range(reps):
            with self.span(name):
                fn()
        return statistics.median(self.durations(name))


def _peak_mib(fn) -> float:
    """tracemalloc peak of one call, in MiB (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _network(t: Tracer, data, params, directory: Path) -> dict:
    x = data.data.astype(np.float64)[:, None, :]
    y = data.labels.astype(np.int64)
    b50, y50 = x[:50], y[:50]
    chunk = x[:training.EVAL_CHUNK]
    _, trace = network.model_forward(b50, params, "train")
    lstm_in = trace.pool_out.transpose(0, 2, 1)
    model = directory / "layers.eglm"
    m = {
        "forward_train_ms": t.timed("network.model_forward.train50",
                                    lambda: network.model_forward(b50, params, "train"), 7),
        "gradients_ms": t.timed("network.model_gradients50",
                                lambda: network.model_gradients(b50, y50, params), 7),
        "forward_eval_ms": t.timed("network.model_forward.eval_chunk",
                                   lambda: network.model_forward(chunk, params, "eval"), 5),
        "forward_eval1_ms": t.timed("network.model_forward.eval1",
                                    lambda: network.model_forward(x[:1], params, "eval"), 20),
        "lstm_forward_ms": t.timed("network.lstm_forward",
                                   lambda: network.lstm_forward(lstm_in, params), 10),
        "elu_ms": t.timed("network.elu", lambda: network.elu(trace.bn_out), 10),
        "avgpool_ms": t.timed("network.avgpool", lambda: network.avgpool(trace.elu_out, 8), 10),
        "batchnorm_eval_ms": t.timed("network.batchnorm_eval", lambda: network.batchnorm_eval(
            trace.conv_out, params.bn_gamma, params.bn_beta, params.bn_run_mean,
            params.bn_run_var), 10),
        "save_ms": t.timed("network.save_params", lambda: network.save_params(params, model), 10),
        "load_ms": t.timed("network.load_params", lambda: network.load_params(model), 10),
    }
    m = {k: 1e3 * v for k, v in m.items()}
    m["backward_ms"] = m["gradients_ms"] - m["forward_train_ms"]
    with t.span("network.model_forward.eval_chunk_peak"):
        m["forward_eval_peak_mb"] = _peak_mib(lambda: network.model_forward(chunk, params, "eval"))
    return m


def _training(t: Tracer, data, params, seed: int, nproc: int) -> tuple:
    fold_train, _ = training.loso_split(data, data.subject_ids()[0])
    one_epoch = training.TrainConfig(max_epochs=1, seed=seed)
    fresh = network.init_params(numerics.Rng(seed))
    train_s = t.timed("training.train.one_epoch", lambda: training.train(
        fresh, fold_train, one_epoch, numerics.Rng(seed).split("epochs")), 3)
    eval_s = t.timed("training.evaluate", lambda: training.evaluate(params, data), 3)
    _, grads, _ = network.model_gradients(data.data[:50, None, :].astype(np.float64),
                                          data.labels[:50].astype(np.int64), params)
    scratch, state = params.copy(), training.AdamState.for_params(params)
    adam_s = t.timed("training.adam_step",
                     lambda: training.adam_step(scratch, grads, state, one_epoch), 20)

    tiny = dataio.generate_synthetic(3, 10, seed)
    reports = {}

    def tiny_loso(threads):
        reports.setdefault(threads, []).append(training.run_loso(tiny, one_epoch, threads=threads))

    serial = t.timed("training.run_loso.serial", lambda: tiny_loso(1), 3)
    parallel = t.timed("training.run_loso.parallel", lambda: tiny_loso(nproc), 3)
    reference = reports[1][0].accuracies
    problems = [f"run_loso at {threads} workers gave accuracies {r.accuracies.ravel()}, "
                f"at 1 worker {reference.ravel()}"
                for threads, runs in reports.items() for r in runs
                if not np.array_equal(r.accuracies, reference)]
    return {
        "train_samples_per_s": len(fold_train) / train_s,
        "evaluate_samples_per_s": len(data) / eval_s,
        "adam_step_ms": 1e3 * adam_s,
        "pool_speedup": serial / parallel,
        "pool_serial_s": serial,
        "pool_parallel_s": parallel,
    }, problems


def _baselines(t: Tracer, data) -> dict:
    rows = data.data[:8].astype(np.float64)

    def per_sample(name, fn, samples):
        with t.span(f"baselines.{name}"):
            for row in samples:
                with t.span(f"baselines.{name}.sample"):
                    fn(row)
        return 1e3 * statistics.median(t.durations(f"baselines.{name}.sample"))

    m = {
        "welch_ms": per_sample("welch_psd", baselines.welch_psd, rows),
        "relative_power_ms": per_sample("relative_powers", baselines.relative_powers, rows),
        "power_ratio_ms": per_sample("power_ratios", baselines.power_ratios, rows),
        "four_entropies_ms": per_sample("four_entropies", baselines.four_entropies, rows[:4]),
        "sample_entropy_ms": per_sample("sample_entropy", baselines.sample_entropy, rows[:4]),
        "approximate_entropy_ms": per_sample("approximate_entropy",
                                             baselines.approximate_entropy, rows[:4]),
        "fuzzy_entropy_ms": per_sample("fuzzy_entropy", baselines.fuzzy_entropy, rows[:4]),
        "spectral_entropy_ms": per_sample("spectral_entropy", baselines.spectral_entropy, rows),
    }
    with t.span("baselines.feature_matrix"):
        features = baselines.feature_matrix(data.data, "relative_power")
    for clf in baselines.CLASSIFIER_KINDS:
        m[f"loso_{clf}_ms"] = 1e3 * t.timed(f"baselines.loso_accuracies.{clf}", lambda: (
            baselines.loso_accuracies(features, data.labels, data.subjects, clf)), 3)
    with t.span("baselines.four_entropies.peak"):
        m["entropy_peak_mb"] = _peak_mib(lambda: baselines.four_entropies(rows[0]))
    return m


def _dataio(t: Tracer, data, seed: int, directory: Path) -> dict:
    with t.span("dataio.build_sessions"):
        records = {(s, k): workloads.session_record(seed, s, k)
                   for s in workloads.SUBJECT_TRAITS
                   for k in range(1, workloads.SESSIONS_PER_SUBJECT + 1)}
    record = records[(1, 1)]
    window = record.signal[:3 * dataio.SESSION_RATE_HZ]
    with t.span("dataio.resample_500_to_128.filter_design"):
        dataio.resample_500_to_128(window)  # the first call builds the filter
    m = {"resample_ms": 1e3 * t.timed("dataio.resample_500_to_128",
                                      lambda: dataio.resample_500_to_128(window), 20),
         "label_session_ms": 1e3 * t.timed("dataio.label_session",
                                           lambda: dataio.label_session(record), 5)}
    with t.span("dataio.session_samples"):
        extracted = [dataio.session_samples(r, dataio.label_session(r), s, k)
                     for (s, k), r in records.items()]
    m["balance_ms"] = 1e3 * t.timed("dataio.balance", lambda: dataio.balance(extracted), 5)

    def throughput(name, fn, path):
        seconds = t.timed(name, fn, 5)
        return path.stat().st_size / 1e6 / seconds

    eegd, eegs = directory / "layers.eegd", directory / "layers.eegs"
    m["write_sampleset_mb_s"] = throughput(
        "dataio.write_sampleset", lambda: dataio.write_sampleset(data, eegd), eegd)
    m["read_sampleset_mb_s"] = throughput(
        "dataio.read_sampleset", lambda: dataio.read_sampleset(eegd), eegd)
    m["write_session_mb_s"] = throughput(
        "dataio.write_session", lambda: dataio.write_session(record, eegs), eegs)
    m["read_session_mb_s"] = throughput(
        "dataio.read_session", lambda: dataio.read_session(eegs), eegs)
    synth_s = t.timed("dataio.generate_synthetic",
                      lambda: dataio.generate_synthetic(2, 20, seed), 3)
    m["synth_samples_per_s"] = 2 * 2 * 20 / synth_s
    return m


def _interpret(t: Tracer, data, params, directory: Path) -> dict:
    sample = data[0]
    pair = interpret.explain_sample(sample, params)
    csv_path, svg_path = directory / "layers_heatmap.csv", directory / "layers_heatmap.svg"
    return {
        "explain_ms": 1e3 * t.timed("interpret.explain_sample",
                                    lambda: interpret.explain_sample(sample, params), 20),
        "emit_ms": 1e3 * t.timed("interpret.emit_heatmap", lambda: interpret.emit_heatmap(
            pair, sample, csv_path, svg_path), 20),
    }


def _numerics(t: Tracer, data, seed: int) -> dict:
    segment = data.data[0, :baselines.SEGMENT].astype(np.float64)
    numerics.dft_power(segment, dataio.SAMPLE_RATE_HZ)  # builds the cached DFT matrices
    rng = numerics.Rng(seed)
    return {
        "dft_power_ms": 1e3 * t.timed("numerics.dft_power", lambda: numerics.dft_power(
            segment, dataio.SAMPLE_RATE_HZ), 50),
        "rng_normal_mvals_s": 1.0 / t.timed("numerics.Rng.normal",
                                            lambda: rng.normal((1_000_000,)), 3),
    }


def _cli(t: Tracer, seed: int, directory: Path, run_drowse) -> tuple:
    """Each drowse command once, as a process, on small probe inputs, with the
    flags the workloads give it (loso serial, as in the loso workload)."""
    directory.mkdir()
    for subject in workloads.SUBJECT_TRAITS:
        dataio.write_session(workloads.session_record(seed, subject, 1),
                             workloads.session_path(directory, subject, 1))
    sessions = [workloads.session_path(Path("."), s, 1).name for s in workloads.SUBJECT_TRAITS]
    s = str(seed)
    commands = [
        ["synth", "--out", "probe.eegd", "--subjects", "3", "--per-class", "10", "--seed", s],
        ["train", "--data", "probe.eegd", "--model", "probe.eglm", "--epochs", "1", "--seed", s],
        ["explain", "--model", "probe.eglm", "--data", "probe.eegd", "--sample", "0",
         "--out", "probe.csv", "--svg"],
        ["loso", "--data", "probe.eegd", "--out", "reports", "--epochs", "1", "--repeats", "1",
         "--seed", s, "--threads", "1"],
        ["prepare", *sessions, "--out", "prepared.eegd"],
        ["baseline", "--data", "prepared.eegd", "--features", "relpower", "--clf", "lda",
         "--out", "baseline.csv"],
    ]
    m, failed = {}, 0
    for argv in commands:
        with t.span(f"cli.{argv[0]}"):
            result = run_drowse(argv, directory)
        failed += result.exit_code != 0
        m[f"{argv[0]}_s"] = result.wall_s
    return m, failed


def run(workload: str, seed: int, directory: Path, run_drowse, trace_path: Path) -> dict:
    """Run the suite; return the result object and write the spans to trace_path.

    run_drowse(argv, cwd) runs one drowse command and returns its result.
    """
    t = Tracer()
    nproc = len(os.sched_getaffinity(0))
    data = dataio.generate_synthetic(4, 40, seed)
    params = network.init_params(numerics.Rng(seed).split("params"))
    metrics = {}
    with t.span("network"):
        metrics.update({f"network.{k}": v for k, v in _network(t, data, params, directory).items()})
    with t.span("training"):
        found, problems = _training(t, data, params, seed, nproc)
        metrics.update({f"training.{k}": v for k, v in found.items()})
    with t.span("baselines"):
        metrics.update({f"baselines.{k}": v for k, v in _baselines(t, data).items()})
    with t.span("dataio"):
        metrics.update({f"dataio.{k}": v for k, v in _dataio(t, data, seed, directory).items()})
    with t.span("interpret"):
        metrics.update({f"interpret.{k}": v
                        for k, v in _interpret(t, data, params, directory).items()})
    with t.span("numerics"):
        metrics.update({f"numerics.{k}": v for k, v in _numerics(t, data, seed).items()})
    with t.span("cli"):
        found, failed = _cli(t, seed, directory / "cli", run_drowse)
        metrics.update({f"cli.{k}": v for k, v in found.items()})
    if set(metrics) != set(UNITS):
        raise RuntimeError(f"suite metrics differ from UNITS: {set(metrics) ^ set(UNITS)}")

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        "workload": workload, "seed": seed, "nproc": nproc, "problems": problems,
        "self_s": t.self_times(), "spans": t.spans,
    }, indent=1))
    parents = {s["parent"] for s in t.spans}
    return {
        "correct": not problems,
        "attempted": sum(1 for s in t.spans if s["id"] not in parents),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in UNITS.items()},
    }
