"""Fast tests of the benchmark itself: its declared metrics, and that every
correctness check rejects a deliberately corrupted output.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import run
import workloads
from drowse import baselines, dataio, interpret, network, training
from drowse.numerics import Rng

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_match_the_code(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_end_to_end_output_schema(bench):
    metrics = run.end_to_end_metrics([2.0, 1.0, 3.0], [4.0, 4.5, 5.0], [100.0, 120.0, 110.0],
                                     [0.8, 0.9, 0.85], [0.5, 0.4, 0.6])
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
    decoded = json.loads(json.dumps(result))
    assert set(decoded) == {"correct", "attempted", "failed", "metrics"}
    for spec in bench["end_to_end"]:
        entry = decoded["metrics"][spec["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == spec["unit"]
        assert entry["value"] > 0
    assert metrics["wall_s"]["value"] == 2.0 and metrics["cpu_s"]["value"] == 4.5
    assert metrics["peak_rss_mb"]["value"] == 120.0 and metrics["setup_s"]["value"] == 0.5
    assert metrics["accuracy"]["value"] == pytest.approx(0.85)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "loso", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_tracer_self_time():
    t = layers.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
    own = t.self_times()
    outer = t.spans[0]["end_s"] - t.spans[0]["start_s"]
    inner = t.spans[1]["end_s"] - t.spans[1]["start_s"]
    assert t.spans[1]["parent"] == 0
    assert own["outer"] == pytest.approx(outer - inner)


# -- loso ------------------------------------------------------------------------

@pytest.fixture
def loso_files(tmp_path):
    test_counts = {1: 8, 2: 10}
    grid = np.array([[[5 / 8, 6 / 8]], [[7 / 10, 9 / 10]]])  # [subject, repeat, epoch]
    report = training.CvReport([1, 2], grid)
    detail, summary = tmp_path / "detail.csv", tmp_path / "summary.csv"
    training.write_report_csv(report, detail)
    training.write_summary_csv(report, summary)
    return detail, summary, test_counts


def test_loso_check_accepts_program_output(loso_files):
    detail, summary, counts = loso_files
    assert checks.check_loso(detail, summary, counts, repeats=1, epochs=2) == []
    assert checks.loso_accuracy(summary) == pytest.approx((6 / 8 + 9 / 10) / 2)


@pytest.mark.parametrize("old,new,which", [
    ("0.625", "0.6251", "detail"),     # off the k/8 grid
    ("2,1,2,0.9\n", "", "detail"),     # a missing row
    ("0.825", "0.826", "summary"),     # mean does not follow from the detail
])
def test_loso_check_rejects_corruption(loso_files, old, new, which):
    detail, summary, counts = loso_files
    path = detail if which == "detail" else summary
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    assert checks.check_loso(detail, summary, counts, repeats=1, epochs=2)


# -- train-explain -----------------------------------------------------------------

@pytest.fixture
def heatmap(tmp_path):
    sample = dataio.generate_synthetic(2, 10, 3)[5]
    params = network.init_params(Rng(4))
    csv_path, svg_path = tmp_path / "h.csv", tmp_path / "h.svg"
    interpret.emit_heatmap(interpret.explain_sample(sample, params), sample, csv_path, svg_path)
    return csv_path, svg_path, sample


def test_heatmap_check_accepts_program_output(heatmap):
    csv_path, svg_path, sample = heatmap
    assert checks.check_heatmap(csv_path, svg_path, sample.samples, sample.label,
                                sample.subject_id) == []


def _edit_column(csv_path, column, edit):
    lines = csv_path.read_text().splitlines()
    body = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    values = np.array([float(lines[i].split(",")[column]) for i in body])
    values = edit(values)
    for i, v in zip(body, values):
        parts = lines[i].split(",")
        parts[column] = f"{v:.9g}"
        lines[i] = ",".join(parts)
    csv_path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("corrupt", [
    # m_rel blocks swapped: no longer the standardized m_acc increments
    lambda p: _edit_column(p, 2, lambda v: np.concatenate([v[8:16], v[:8], v[16:]])),
    # m_acc not constant over a block
    lambda p: _edit_column(p, 3, lambda v: v + np.where(np.arange(v.size) == 3, 1e-3, 0.0)),
    # last m_acc block is not the predicted-class probability
    lambda p: _edit_column(p, 3, lambda v: np.where(np.arange(v.size) >= 376, v * 0.99, v)),
    # probabilities no longer sum to one
    lambda p: p.write_text(p.read_text().replace("# p_alert=", "# p_alert=0.001")),
    # a truncated SVG
    lambda p: p.with_suffix(".svg").write_text(p.with_suffix(".svg").read_text()[:-10]),
])
def test_heatmap_check_rejects_corruption(heatmap, corrupt):
    csv_path, svg_path, sample = heatmap
    corrupt(csv_path)
    assert checks.check_heatmap(csv_path, svg_path, sample.samples, sample.label,
                                sample.subject_id)


# -- classical ---------------------------------------------------------------------

def test_rt_rule_matches_the_program_and_counts_are_checked():
    record = workloads.session_record(5, 1, 1)
    program = [{"alert": 0, "drowsy": 1, "excluded": -1}[lab.verdict]
               for lab in dataio.label_session(record)]
    assert checks.rt_verdicts(record.events).tolist() == program
    labels, subjects = np.array([0, 1, 0, 1]), np.array([1, 1, 2, 2])
    assert checks.check_counts(labels, subjects, {1: 1, 2: 1}) == []
    assert checks.check_counts(labels, subjects, {1: 1, 2: 2})


def test_tone_check():
    t = np.arange(checks.POINTS) / checks.RATE_HZ
    rows = np.array([5.0 * np.sin(2 * np.pi * 50.0 * t + p) for p in (0.1, 1.0, 2.0)])
    subjects = np.array([1, 1, 1])
    assert checks.check_tone(rows, subjects, {1: 5.0}, 50.0) == []
    assert checks.check_tone(rows * 0.95, subjects, {1: 5.0}, 50.0)


def test_feature_checks_reject_a_perturbed_program():
    rows = dataio.generate_synthetic(2, 10, 6).data[[0, 15]].astype(np.float64)
    assert checks.check_relative_powers(rows, baselines.relative_powers) == []
    assert checks.check_relative_powers(rows, lambda x: baselines.relative_powers(x) * (1 + 1e-7))
    one = rows[:1]
    assert checks.check_entropies(one, baselines.four_entropies) == []
    assert checks.check_entropies(one, lambda x: baselines.four_entropies(x) + 1e-9)


def test_baseline_csv_check(tmp_path):
    path = tmp_path / "b.csv"
    good = "subject_id,accuracy\n1,0.75\n2,0.5\nmean,0.625\nsd,0.176776695\n"
    path.write_text(good)
    assert checks.check_baseline_csv(path, {1: 4, 2: 6}) == []
    assert checks.baseline_mean(path) == 0.625
    path.write_text(good.replace("1,0.75", "1,0.7"))  # off the k/4 grid, footer stale
    assert checks.check_baseline_csv(path, {1: 4, 2: 6})
