import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drowse
from drowse import baselines, cli, dataio

from test_interpret import read_heatmap_csv


def run(*argv):
    return cli.main(list(argv))


def write_rt_session(path, n_fast=60, n_slow=60, fast=0.5, slow=2.0, rate=500):
    """Session whose RT labeling yields n_fast alert events, a 9-event
    excluded transition, and the remaining slow events drowsy."""
    onsets = 5.0 + 10.0 * np.arange(n_fast + n_slow)
    rts = np.array([fast] * n_fast + [slow] * n_slow)
    events = np.column_stack([onsets, onsets + rts, onsets + rts + 0.1])
    n_points = int((onsets[-1] + slow + 5.0) * rate)
    session = dataio.SessionRecord(rate, np.zeros(n_points), events)
    dataio.write_session(session, path)


@pytest.fixture(scope="module")
def synth_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.eegd"
    assert run("synth", "--out", str(path), "--subjects", "3",
               "--per-class", "12", "--seed", "5") == 0
    return str(path)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, synth_file):
    path = tmp_path_factory.mktemp("model") / "model.eglm"
    assert run("train", "--data", synth_file, "--model", str(path),
               "--epochs", "1", "--batch", "8", "--seed", "3") == 0
    return str(path)


class TestParsing:
    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["synth", "--help"], ["loso", "--help"],
                     ["prepare", "--help"], ["train", "--help"],
                     ["explain", "--help"], ["baseline", "--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
        capsys.readouterr()

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", "--out", str(tmp_path / "x.eegd"), "--bogus"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_bad_choice_is_usage_error(self, synth_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["baseline", "--data", synth_file, "--features", "wavelets",
                      "--clf", "lda", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ("train", "--epochs", "0"),
        ("train", "--epochs", "51"),
        ("train", "--batch", "1"),
        ("loso", "--epochs", "0"),
        ("loso", "--epochs", "51"),
        ("loso", "--batch", "1"),
        ("loso", "--repeats", "0"),
        ("synth", "--subjects", "1"),
        ("synth", "--subjects", "65536"),
        ("synth", "--per-class", "3"),
    ], ids=" ".join)
    def test_bad_size_flag_is_usage_error(self, tmp_path, capsys, argv):
        # the data file does not exist: the flag must be rejected before any read
        paths = {"train": ["--data", str(tmp_path / "missing.eegd"),
                           "--model", str(tmp_path / "m.eglm")],
                 "loso": ["--data", str(tmp_path / "missing.eegd"),
                          "--out", str(tmp_path / "rep")],
                 "synth": ["--out", str(tmp_path / "s.eegd")]}
        code = run(argv[0], *paths[argv[0]], *argv[1:])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSynth:
    def test_deterministic_and_seed_sensitive(self, tmp_path):
        paths = [tmp_path / name for name in ("a.eegd", "b.eegd", "c.eegd")]
        for path, seed in zip(paths, (9, 9, 10)):
            assert run("synth", "--out", str(path), "--subjects", "2",
                       "--per-class", "10", "--seed", str(seed)) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() != paths[2].read_bytes()

    def test_counts(self, synth_file):
        data = dataio.read_sampleset(synth_file)
        assert len(data) == 3 * 2 * 12
        for sid in (1, 2, 3):
            assert data.class_counts(sid) == (12, 12)


class TestPrepare:
    def test_end_to_end(self, tmp_path, capsys):
        for sid in (1, 2):
            write_rt_session(tmp_path / f"s{sid:02d}_010203.eegs")
        out = tmp_path / "prepared.eegd"
        code = run("prepare", str(tmp_path / "s01_010203.eegs"),
                   str(tmp_path / "s02_010203.eegs"), "--out", str(out))
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["subject", "alert", "drowsy"]
        total = [l for l in lines if l.split() and l.split()[0] == "Total"][0]
        # the window mean crosses 2.5x alert RT at the 5th slow event, so
        # 55 of the 60 slow events are drowsy; alert is trimmed to match
        assert total.split() == ["Total", "110", "110"]
        data = dataio.read_sampleset(out)
        assert data.subject_ids() == [1, 2]
        assert data.class_counts(1) == (55, 55)

    def test_short_session_skipped_with_warning(self, tmp_path, capsys):
        write_rt_session(tmp_path / "s01_1.eegs")
        onsets = 5.0 + 10.0 * np.arange(5)
        events = np.column_stack([onsets, onsets + 0.5, onsets + 0.6])
        tiny = dataio.SessionRecord(500, np.zeros(30000), events)
        dataio.write_session(tiny, tmp_path / "s02_1.eegs")
        code = run("prepare", str(tmp_path / "s01_1.eegs"),
                   str(tmp_path / "s02_1.eegs"), "--out", str(tmp_path / "out.eegd"))
        captured = capsys.readouterr()
        assert code == 0
        assert "skipped" in captured.err
        assert dataio.read_sampleset(tmp_path / "out.eegd").subject_ids() == [1]

    def test_dropped_subject_named_in_warning(self, tmp_path, capsys):
        # subject 2's only session is all fast, so it has no drowsy sample
        write_rt_session(tmp_path / "s01_1.eegs")
        write_rt_session(tmp_path / "s02_1.eegs", n_slow=0)
        code = run("prepare", str(tmp_path / "s01_1.eegs"),
                   str(tmp_path / "s02_1.eegs"), "--out", str(tmp_path / "out.eegd"))
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: subject 2: " in captured.err and "dropped" in captured.err
        assert "subject 1" not in captured.err
        assert dataio.read_sampleset(tmp_path / "out.eegd").subject_ids() == [1]

    def test_zero_samples_is_runtime_error(self, tmp_path, capsys):
        # uniformly fast session: drowsy class stays empty, so balancing
        # drops the session and nothing is left to write
        write_rt_session(tmp_path / "s01_1.eegs", n_fast=60, n_slow=0)
        code = run("prepare", str(tmp_path / "s01_1.eegs"),
                   "--out", str(tmp_path / "out.eegd"))
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "out.eegd").exists()

    @pytest.mark.parametrize("n_points", [2**62, 2**42])
    def test_huge_point_count_is_runtime_error(self, tmp_path, capsys, n_points):
        path = tmp_path / "s01_1.eegs"
        path.write_bytes(b"EEGS" + struct.pack("<IIQ", 1, 500, n_points))
        code = run("prepare", str(path), "--out", str(tmp_path / "out.eegd"))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_subject_id_beyond_uint16_is_runtime_error(self, tmp_path, capsys):
        # a .eegd subject id is 16 bits; 70000 must not be written as 4464
        write_rt_session(tmp_path / "s70000_1.eegs")
        code = run("prepare", str(tmp_path / "s70000_1.eegs"),
                   "--out", str(tmp_path / "out.eegd"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 's70000_1.eegs'}: " in err and "subject" in err
        assert not (tmp_path / "out.eegd").exists()

    def test_wrong_rate_names_the_file(self, tmp_path, capsys):
        write_rt_session(tmp_path / "s01_1.eegs")
        write_rt_session(tmp_path / "s02_1.eegs", rate=250)
        code = run("prepare", str(tmp_path / "s01_1.eegs"), str(tmp_path / "s02_1.eegs"),
                   "--out", str(tmp_path / "out.eegd"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 's02_1.eegs'}: expected a 500 Hz session, got 250" in err
        assert not (tmp_path / "out.eegd").exists()

    def test_undigited_filename_is_usage_error(self, tmp_path, capsys):
        write_rt_session(tmp_path / "nodigits.eegs")
        code = run("prepare", str(tmp_path / "nodigits.eegs"),
                   "--out", str(tmp_path / "out.eegd"))
        assert code == 1
        capsys.readouterr()


class TestTrainExplain:
    def test_explain_writes_csv_and_svg(self, synth_file, model_file, tmp_path, capsys):
        out = tmp_path / "heat.csv"
        assert run("explain", "--model", model_file, "--data", synth_file,
                   "--sample", "3", "--out", str(out), "--svg") == 0
        capsys.readouterr()
        parsed = read_heatmap_csv(out)
        assert parsed["signal"].shape == (384,)
        assert parsed["m_rel"].shape == (384,)
        svg = (tmp_path / "heat.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_index_out_of_range(self, synth_file, model_file, tmp_path, capsys):
        code = run("explain", "--model", model_file, "--data", synth_file,
                   "--sample", "72", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_missing_data_file(self, model_file, tmp_path, capsys):
        code = run("explain", "--model", model_file, "--data",
                   str(tmp_path / "missing.eegd"), "--out", str(tmp_path / "x.csv"))
        assert code == 2
        capsys.readouterr()

    def test_float32_overflow_named(self, tmp_path, capsys):
        # Finite float32 samples (peak about 2.8e38) whose conv and batch-norm
        # sums overflow float32.
        data = dataio.generate_synthetic(2, 10, 1)
        path = tmp_path / "huge.eegd"
        dataio.write_sampleset(dataio.SampleSet(data.data * np.float32(1e37), data.labels,
                                                data.subjects), path)
        with np.errstate(over="ignore", invalid="ignore"):
            code = run("train", "--data", str(path), "--model", str(tmp_path / "m.eglm"),
                       "--epochs", "1", "--batch", "8")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "float32 overflow in the network" in err


class TestLoso:
    def test_reports_and_thread_env(self, synth_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DROWSE_THREADS", "2")
        out = tmp_path / "rep"
        assert run("loso", "--data", synth_file, "--out", str(out),
                   "--epochs", "1", "--repeats", "1", "--seed", "4") == 0
        stdout = capsys.readouterr().out
        assert "epoch  1" in stdout
        detail = (out / "loso_detail.csv").read_text().splitlines()
        summary = (out / "loso_summary.csv").read_text().splitlines()
        assert detail[0] == "subject_id,repeat,epoch,accuracy"
        assert len(detail) == 1 + 3 * 1 * 1
        assert summary[0] == "epoch,mean_acc,sd_acc"
        assert len(summary) == 2

    def test_bad_thread_env_is_usage_error(self, synth_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DROWSE_THREADS", "many")
        code = run("loso", "--data", synth_file, "--out", str(tmp_path / "rep"),
                   "--epochs", "1", "--repeats", "1")
        assert code == 1
        assert "DROWSE_THREADS" in capsys.readouterr().err

    def test_default_threads_follow_cpu_affinity(self, monkeypatch):
        # Under taskset -c 0 on a many-core host: one worker, not one per host core.
        monkeypatch.delenv("DROWSE_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._resolve_threads(None) == 1
        monkeypatch.delattr(os, "sched_getaffinity")  # a platform without it
        assert cli._resolve_threads(None) == 16

    def test_thread_count_invariance(self, synth_file, tmp_path):
        # Child processes, so that each sets its own BLAS thread count
        # before numpy loads: worker count x BLAS threads must not matter.
        src = str(Path(drowse.__file__).resolve().parents[1])
        reports = {}
        for threads in ("1", "2"):
            for blas in ("1", "2"):
                out = tmp_path / f"workers{threads}-blas{blas}"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, PYTHONPATH=src)
                subprocess.run([sys.executable, "-m", "drowse", "loso", "--data", synth_file,
                                "--out", str(out), "--epochs", "2", "--repeats", "2",
                                "--seed", "6", "--threads", threads],
                               env=env, capture_output=True, timeout=300, check=True)
                reports[threads, blas] = [(out / name).read_bytes()
                                          for name in ("loso_detail.csv", "loso_summary.csv")]
        assert reports["1", "1"][0].count(b"\n") == 1 + 3 * 2 * 2
        for key, report in reports.items():
            assert report == reports["1", "1"], key


    def test_dead_worker_is_runtime_error(self, synth_file, tmp_path, capsys, monkeypatch):
        # Spawned workers unpickle a job's function by name, so each one
        # runs _exit_worker, and a worker that exits breaks the pool.
        from drowse import training

        monkeypatch.setattr(training, "_fold_job_from_file", _exit_worker)
        code = run("loso", "--data", synth_file, "--out", str(tmp_path / "rep"),
                   "--epochs", "1", "--repeats", "1", "--threads", "2")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: a LOSO worker process died")

    def test_pool_removes_its_data_copy(self, synth_file, tmp_path, capsys, monkeypatch):
        import tempfile

        from drowse import training

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        argv = ["loso", "--data", synth_file, "--out", str(tmp_path / "rep"),
                "--epochs", "1", "--repeats", "1", "--threads", "2"]
        assert run(*argv) == 0
        assert not list(tmp_path.glob("drowse-loso-*"))
        monkeypatch.setattr(training, "_fold_job_from_file", _exit_worker)
        assert run(*argv) == 2
        assert "a LOSO worker process died" in capsys.readouterr().err
        assert not list(tmp_path.glob("drowse-loso-*"))


def _exit_worker(*_args):
    os._exit(3)


@pytest.mark.parametrize("case", ["train", "train-to-directory", "loso"])
def test_unusable_output_refused_before_training(synth_file, tmp_path, capsys, monkeypatch,
                                                  case):
    from drowse import training

    def no_training(*_args, **_kwargs):
        raise AssertionError("trained for an output that cannot be written")

    monkeypatch.setattr(training, "train", no_training)
    monkeypatch.setattr(training, "run_loso", no_training)
    taken = tmp_path / "taken"
    taken.write_text("")
    command = {"train": ["train", "--model", str(tmp_path / "missing" / "m.eglm")],
               "train-to-directory": ["train", "--model", str(tmp_path)],
               "loso": ["loso", "--out", str(taken)]}[case]
    code = run(*command, "--data", synth_file, "--epochs", "1")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


class TestBaseline:
    def test_csv_footer_consistent(self, synth_file, tmp_path, capsys):
        out = tmp_path / "base.csv"
        assert run("baseline", "--data", synth_file, "--features", "relpower",
                   "--clf", "lda", "--out", str(out)) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "subject_id,accuracy"
        rows = [float(l.split(",")[1]) for l in lines[1:-2]]
        footer_mean = float(lines[-2].split(",")[1])
        footer_sd = float(lines[-1].split(",")[1])
        assert lines[-2].startswith("mean,") and lines[-1].startswith("sd,")
        assert len(rows) == 3
        assert footer_mean == pytest.approx(np.mean(rows), abs=1e-9)
        assert footer_sd == pytest.approx(np.std(rows, ddof=1), abs=1e-9)

    def test_all_feature_kinds_run(self, synth_file, tmp_path, capsys):
        for features in ("relpower", "ratios", "entropies"):
            out = tmp_path / f"{features}.csv"
            assert run("baseline", "--data", synth_file, "--features", features,
                       "--clf", "knn", "--out", str(out)) == 0
            assert out.exists()
        capsys.readouterr()

    @pytest.mark.parametrize("subjects", [[], [2]])
    def test_too_few_subjects_refused_before_features(self, synth_file, tmp_path, capsys,
                                                      monkeypatch, subjects):
        data = dataio.read_sampleset(synth_file)
        path = tmp_path / "few.eegd"
        dataio.write_sampleset(data.subset(np.isin(data.subjects, subjects)), path)

        def no_features(*_):
            raise AssertionError("features computed for a file LOSO cannot split")

        monkeypatch.setattr(baselines, "feature_matrix", no_features)
        code = run("baseline", "--data", str(path), "--features", "entropies",
                   "--clf", "lda", "--out", str(tmp_path / "base.csv"))
        assert code == 2
        assert "leave-one-subject-out needs at least 2 subjects" in capsys.readouterr().err
        assert not (tmp_path / "base.csv").exists()

    @pytest.mark.parametrize("features", ["relpower", "ratios", "entropies"])
    def test_silent_sample_named(self, synth_file, tmp_path, capsys, monkeypatch, features):
        def no_entropy(*_):
            raise AssertionError("an entropy was computed before the silent sample was refused")

        monkeypatch.setattr(baselines, "fuzzy_entropy", no_entropy)
        data = dataio.read_sampleset(synth_file)
        data.data[41] = 0.0
        path = tmp_path / "silent.eegd"
        dataio.write_sampleset(data, path)
        code = run("baseline", "--data", str(path), "--features", features,
                   "--clf", "lda", "--out", str(tmp_path / "base.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert "error: sample 41 " in err and "power" in err


_IMPORTED_MODULES = """
import sys
from drowse import cli
assert cli.main(sys.argv[1:]) == 0
print(" ".join(sorted(sys.modules)))
"""


@pytest.mark.parametrize("command", ["synth", "explain"])
def test_commands_import_only_what_they_run(synth_file, model_file, tmp_path, command):
    # A child process, so that no module this test session loaded counts.
    argv = {"synth": ["synth", "--out", str(tmp_path / "s.eegd"), "--subjects", "2",
                      "--per-class", "10"],
            "explain": ["explain", "--model", model_file, "--data", synth_file,
                        "--out", str(tmp_path / "h.csv")]}[command]
    src = str(Path(drowse.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-c", _IMPORTED_MODULES, *argv],
                           env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                           text=True, timeout=120, check=True)
    modules = set(child.stdout.splitlines()[-1].split())
    assert "drowse.dataio" in modules
    assert not modules & {"drowse.training", "multiprocessing", "concurrent.futures"}


@pytest.mark.parametrize("command", ["loso", "train", "prepare", "baseline"])
def test_commands_do_not_import_numpy_ma(synth_file, tmp_path, command):
    # The first np.unique call of a process imports numpy.ma, 10-16 ms of
    # start-up that none of these commands needs.
    sessions = []
    if command == "prepare":
        for sid in (1, 2):
            sessions.append(str(tmp_path / f"s{sid:02d}_010203.eegs"))
            write_rt_session(sessions[-1])
    argv = {"loso": ["loso", "--data", synth_file, "--out", str(tmp_path / "rep"),
                     "--epochs", "1", "--threads", "1"],
            "train": ["train", "--data", synth_file, "--model", str(tmp_path / "m.eglm"),
                      "--epochs", "1"],
            "prepare": ["prepare", *sessions, "--out", str(tmp_path / "p.eegd")],
            "baseline": ["baseline", "--data", synth_file, "--features", "relpower",
                         "--clf", "lda", "--out", str(tmp_path / "b.csv")]}[command]
    src = str(Path(drowse.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-c", _IMPORTED_MODULES, *argv],
                           env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                           text=True, timeout=120, check=True)
    assert "numpy.ma" not in child.stdout.splitlines()[-1].split()
