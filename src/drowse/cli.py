"""Command line front end for the drowsiness pipeline.

Subcommands: prepare (label + balance raw sessions into a sample file),
synth (synthetic sample file), train (fit one model), loso
(leave-one-subject-out evaluation), explain (heatmaps for one sample),
baseline (spectral/entropy features + classical classifier).

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

import argparse
import os
import re
import sys

import numpy as np

# Each subcommand imports the modules it runs; baselines is imported here
# for its classifier list, which the parser's choices need.
from . import baselines, dataio
from .numerics import Rng

FEATURE_KINDS = {
    "relpower": "relative_power",
    "ratios": "power_ratio",
    "entropies": "four_entropies",
}


class UsageError(Exception):
    """Bad argument values discovered after flag parsing (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; usage errors must be 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolve_threads(value) -> int:
    """--threads flag, else DROWSE_THREADS, else the cores this process may run on."""
    if value is None:
        env = os.environ.get("DROWSE_THREADS", "").strip()
        if env:
            try:
                value = int(env)
            except ValueError:
                raise UsageError(f"DROWSE_THREADS must be an integer, got {env!r}")
        else:
            # sched_getaffinity honours taskset and cpusets; cpu_count counts the host
            value = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
    if value < 1:
        raise UsageError("thread count must be at least 1")
    return value


def _ids_from_filename(path) -> tuple:
    """Subject and session ids from the first two digit groups of the
    basename, e.g. s03_071017.eegs -> subject 3, session 71017; a single
    digit group means session 1."""
    digits = re.findall(r"\d+", os.path.basename(path))
    if not digits:
        raise UsageError(f"cannot read a subject id from filename: {path}")
    subject_id = int(digits[0])
    session_id = int(digits[1]) if len(digits) > 1 else 1
    return subject_id, session_id


def _check_output(path) -> None:
    """Refuse an output path before any work: its directory must exist and
    be writable, and the path must not be a directory."""
    directory = os.path.dirname(path) or "."
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise OSError(f"{path}: directory {directory} is missing or not writable")
    if os.path.isdir(path):
        raise IsADirectoryError(f"{path} is a directory")


def _print_counts(data) -> None:
    print(f"{'subject':>7}  {'alert':>6}  {'drowsy':>6}")
    total_alert = total_drowsy = 0
    for sid in data.subject_ids():
        n_alert, n_drowsy = data.class_counts(sid)
        total_alert += n_alert
        total_drowsy += n_drowsy
        print(f"{sid:>7}  {n_alert:>6}  {n_drowsy:>6}")
    print(f"{'Total':>7}  {total_alert:>6}  {total_drowsy:>6}")


def cmd_prepare(args) -> int:
    _check_output(args.out)
    kept = []
    for path in args.sessions:
        subject_id, session_id = _ids_from_filename(path)
        try:
            record = dataio.read_session(path)
            if record.events.shape[0] < dataio.MIN_EVENTS:
                print(f"warning: {path}: fewer than {dataio.MIN_EVENTS} events, skipped",
                      file=sys.stderr)
                continue
            labels = dataio.label_session(record)
            kept.append(dataio.session_samples(record, labels, subject_id, session_id))
        except (OSError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}")
    data = dataio.balance(kept)
    for sid in sorted({s.subject_id for s in kept} - set(data.subject_ids())):
        print(f"warning: subject {sid}: no session has {dataio.MIN_CLASS_PER_SESSION} "
              "samples of each class, dropped", file=sys.stderr)
    dataio.write_sampleset(data, args.out)
    _print_counts(data)
    print(f"wrote {len(data)} samples to {args.out}")
    return 0


def cmd_synth(args) -> int:
    _check_output(args.out)
    try:
        data = dataio.generate_synthetic(args.subjects, args.per_class, args.seed)
    except ValueError as exc:  # only its size checks raise
        raise UsageError(str(exc)) from None
    dataio.write_sampleset(data, args.out)
    print(f"wrote {len(data)} samples ({args.subjects} subjects, "
          f"{args.per_class} per class) to {args.out}")
    return 0


def _train_config(args, **extra):
    from . import training

    try:
        return training.TrainConfig(batch_size=args.batch, max_epochs=args.epochs,
                                    seed=args.seed, **extra)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_train(args) -> int:
    from . import network, training

    config = _train_config(args)
    _check_output(args.model)
    data = dataio.read_sampleset(args.data)
    base = Rng(config.seed)
    params = network.init_params(base.split("init"))

    def report(epoch, _params, mean_loss):
        print(f"epoch {epoch:2d}  loss {mean_loss:.6f}")

    params = training.train(params, data, config, base.split("epochs"),
                            on_epoch=report)
    network.save_params(params, args.model)
    print(f"saved model to {args.model}")
    return 0


def cmd_loso(args) -> int:
    from . import training

    config = _train_config(args, repeats=args.repeats)
    threads = _resolve_threads(args.threads)
    os.makedirs(args.out, exist_ok=True)
    data = dataio.read_sampleset(args.data)
    report = training.run_loso(data, config, threads=threads)
    detail_path = os.path.join(args.out, "loso_detail.csv")
    summary_path = os.path.join(args.out, "loso_summary.csv")
    training.write_report_csv(report, detail_path)
    training.write_summary_csv(report, summary_path)
    mean = report.mean_curve()
    sd = report.sd_curve()
    for e in range(mean.size):
        print(f"epoch {e + 1:2d}  mean {100 * mean[e]:6.2f}%  sd {100 * sd[e]:5.2f}")
    print(f"wrote {detail_path} and {summary_path}")
    return 0


def cmd_explain(args) -> int:
    from . import interpret, network

    svg_path = os.path.splitext(args.out)[0] + ".svg" if args.svg else None
    if svg_path and os.path.abspath(svg_path) == os.path.abspath(args.out):
        raise ValueError(f"--out {args.out} is also the path of the --svg heatmap")
    _check_output(args.out)
    if svg_path:
        _check_output(svg_path)
    data = dataio.read_sampleset(args.data)
    params = network.load_params(args.model)
    if not 0 <= args.sample < len(data):
        raise UsageError(f"sample index {args.sample} out of range [0, {len(data)})")
    sample = data[args.sample]
    pair = interpret.explain_sample(sample, params)
    interpret.emit_heatmap(pair, sample, args.out, svg_path)
    print(f"sample {args.sample} (subject {sample.subject_id}, label {sample.label}): "
          f"p_alert {pair.likelihoods[0]:.4f}  p_drowsy {pair.likelihoods[1]:.4f}")
    print(f"wrote {args.out}" + (f" and {svg_path}" if svg_path else ""))
    return 0


def _write_baseline_csv(subject_ids, accuracies, path) -> None:
    # footer statistics are taken over the values as printed, so the file
    # is self-consistent for any reader
    printed = [float(f"{a:.9g}") for a in accuracies]
    lines = ["subject_id,accuracy"]
    lines += [f"{sid},{a:.9g}" for sid, a in zip(subject_ids, printed)]
    lines.append(f"mean,{np.mean(printed):.9g}")
    lines.append(f"sd,{np.std(printed, ddof=1):.9g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_baseline(args) -> int:
    _check_output(args.out)
    data = dataio.read_sampleset(args.data)
    dataio.loso_subject_ids(data.subjects)  # before any feature is computed
    kind = FEATURE_KINDS[args.features]
    features = baselines.feature_matrix(data.data, kind)
    subject_ids, accuracies = baselines.loso_accuracies(
        features, data.labels, data.subjects, args.clf)
    _write_baseline_csv(subject_ids, accuracies, args.out)
    print(f"{args.features}+{args.clf}: mean accuracy {accuracies.mean():.4f} "
          f"(sd {accuracies.std(ddof=1):.4f}) over {len(subject_ids)} subjects")
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="drowse",
                     description="Interpretable single-channel EEG drowsiness "
                                 "recognition: CNN-LSTM plus classical baselines.")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    p = sub.add_parser("prepare",
                       help="label, resample, and balance raw sessions into a sample file",
                       description="Label raw .eegs sessions by reaction time, extract "
                                   "3 s windows at 128 Hz, balance classes per subject, "
                                   "and write one .eegd sample file. Subject and session "
                                   "ids come from the first two digit groups of each "
                                   "filename (e.g. s03_071017.eegs).")
    p.add_argument("sessions", nargs="+", help="input .eegs session files")
    p.add_argument("--out", required=True, help="output .eegd sample file")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("synth", help="write a synthetic sample file",
                       description="Generate a labeled synthetic sample set with "
                                   "subject-specific spectra and write it as .eegd.")
    p.add_argument("--out", required=True, help="output .eegd sample file")
    p.add_argument("--subjects", type=int, default=8, help="number of subjects (default 8)")
    p.add_argument("--per-class", type=int, default=100,
                   help="samples per class per subject (default 100)")
    p.add_argument("--seed", type=int, default=1, help="generator seed (default 1)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model on a full sample file",
                       description="Train the CNN-LSTM on every sample in the file "
                                   "and save the model.")
    p.add_argument("--data", required=True, help="input .eegd sample file")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--epochs", type=int, default=50, help="training epochs (default 50)")
    p.add_argument("--batch", type=int, default=50, help="batch size (default 50)")
    p.add_argument("--seed", type=int, default=1, help="run seed (default 1)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("loso", help="leave-one-subject-out cross validation",
                       description="Run repeated leave-one-subject-out cross "
                                   "validation and write per-fold and per-epoch "
                                   "summary CSV reports.")
    p.add_argument("--data", required=True, help="input .eegd sample file")
    p.add_argument("--out", required=True, help="output directory for the CSV reports")
    p.add_argument("--epochs", type=int, default=50, help="training epochs (default 50)")
    p.add_argument("--repeats", type=int, default=10,
                   help="repetitions per held-out subject (default 10)")
    p.add_argument("--batch", type=int, default=50, help="batch size (default 50)")
    p.add_argument("--seed", type=int, default=1, help="run seed (default 1)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (default: DROWSE_THREADS, else the cores "
                        "this process may run on)")
    p.set_defaults(func=cmd_loso)

    p = sub.add_parser("explain", help="write heatmaps for one sample",
                       description="Run one sample through a trained model and write "
                                   "the relative and accumulated heatmaps as CSV "
                                   "(and optionally SVG).")
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--data", required=True, help="input .eegd sample file")
    p.add_argument("--sample", type=int, default=0, help="sample index (default 0)")
    p.add_argument("--out", required=True, help="output heatmap CSV path")
    p.add_argument("--svg", action="store_true",
                   help="also write an SVG next to the CSV")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("baseline", help="classical feature + classifier benchmark",
                       description="Leave-one-subject-out accuracy of a spectral or "
                                   "entropy feature set with a classical classifier; "
                                   "writes a per-subject CSV with a mean/sd footer.")
    p.add_argument("--data", required=True, help="input .eegd sample file")
    p.add_argument("--features", required=True, choices=sorted(FEATURE_KINDS),
                   help="feature family")
    p.add_argument("--clf", required=True, choices=baselines.CLASSIFIER_KINDS, help="classifier")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
