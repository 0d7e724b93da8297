"""Acceptance suite: one test per release criterion.

Every test prints a single `criterion N PASS/FAIL: ...` line and asserts
the same condition; run with `pytest -s` or `-rA` to see the lines for
passing tests.  Criterion 7 needs the externally prepared dataset and is
skipped unless DROWSE_DATASET points at its .eegd file.
"""

import math
import os
import time

import numpy as np
import pytest

from drowse import baselines, cli, dataio, interpret, network, training
from drowse.numerics import Rng, dft_power, paired_t_test

from test_baselines import apen_oracle, fuzzyen_oracle, sampen_oracle

REDUCED = (4, 8)  # kernels and kernel length of the small model, on 48-point inputs


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_gradient_check():
    rng = Rng(11)
    params = network.init_params(rng.split("init"), *REDUCED)
    x = rng.split("x").normal((4, 1, 48), std=20.0)
    labels = np.array([0, 1, 0, 1])

    def loss_of(p):
        probs, _ = network.model_forward(x, p, "train")
        return network.cross_entropy(probs, labels)

    _, grads, _ = network.model_gradients(x, labels, params)
    h = 1e-5
    worst_rel = worst_abs_small = 0.0
    n_checked = 0
    for name, tensor in params.learnable_items():
        analytic = grads[name]
        for j in range(tensor.size):
            orig = tensor.flat[j]
            tensor.flat[j] = orig + h
            up = loss_of(params)
            tensor.flat[j] = orig - h
            down = loss_of(params)
            tensor.flat[j] = orig
            fd = (up - down) / (2.0 * h)
            a = float(analytic.flat[j])
            if abs(a) < 1e-6:
                worst_abs_small = max(worst_abs_small, abs(fd - a))
            else:
                worst_rel = max(worst_rel, abs(fd - a) / max(abs(a), abs(fd)))
            n_checked += 1
    ok = worst_rel < 1e-4 and worst_abs_small < 1e-8
    report(1, ok, f"{n_checked} parameters, max rel err {worst_rel:.2e} (<1e-4), "
                  f"max abs err below 1e-6 magnitude {worst_abs_small:.2e} (<1e-8)")


def test_criterion_2_heatmap_identities():
    base = Rng(22)
    worst_sum = worst_comp = 0.0
    lengths_ok = blocks_ok = True
    for i in range(200):
        draw = base.split("draw", i)
        params = network.init_params(draw.split("init"))
        x = draw.split("x").normal((1, 1, 384), std=25.0)
        _, trace = network.model_forward(x, params, "eval")
        lik = [interpret.hidden_likelihoods(trace, c) for c in (0, 1)]
        worst_comp = max(worst_comp, float(np.max(np.abs(lik[0] + lik[1] - 1.0))))
        for values in lik:
            deltas = np.diff(np.concatenate([[0.0], values]))
            worst_sum = max(worst_sum, abs(float(deltas.sum()) - float(values[-1])))
            m_acc = interpret.accumulated_heatmap(values)
            m_rel = interpret.relative_heatmap(values)
            lengths_ok &= m_acc.size == 384 and m_rel.size == 384
            blocks_ok &= np.array_equal(m_acc.reshape(48, 8),
                                        np.repeat(values[:, None], 8, axis=1))
    ok = worst_sum < 1e-9 and worst_comp < 1e-12 and lengths_ok and blocks_ok
    report(2, ok, f"200 draws: telescoping err {worst_sum:.2e} (<1e-9), "
                  f"complement err {worst_comp:.2e} (<1e-12), "
                  f"lengths 384 {lengths_ok}, block values exact {blocks_ok}")


def test_criterion_3_entropy_oracles():
    rng = Rng(33)
    worst = 0.0
    for i in range(50):
        n = 20 + int(rng.split("len", i).uniform(high=181))
        x = rng.split("sig", i).normal((n,))
        worst = max(worst,
                    abs(baselines.approximate_entropy(x) - apen_oracle(x)),
                    abs(baselines.sample_entropy(x) - sampen_oracle(x)),
                    abs(baselines.fuzzy_entropy(x) - fuzzyen_oracle(x)))
    const = np.full(80, 3.3)
    analytic_ok = (baselines.approximate_entropy(const) == 0.0
                   and baselines.sample_entropy(const) == 0.0
                   and baselines.fuzzy_entropy(const) == 0.0
                   and abs(baselines.sample_entropy(np.tile([1.0, -1.0], 30))) < 1e-12)
    ok = worst < 1e-10 and analytic_ok
    report(3, ok, f"50 random signals: max |impl - oracle| {worst:.2e} (<1e-10); "
                  f"constant and alternating cases exact {analytic_ok}")


def test_criterion_4_spectral_suite():
    t = np.arange(384) / 128.0
    freqs, psd = baselines.welch_psd(np.sin(2 * np.pi * 10.0 * t))
    tone_mass = float(psd[(freqs >= 9.0) & (freqs <= 11.0)].sum() / psd.sum())

    rng = Rng(44)
    worst_sum = 0.0
    for _ in range(200):
        rel = baselines.relative_powers(rng.normal((384,)))
        worst_sum = max(worst_sum, abs(float(rel.sum()) - 1.0))

    worst_parseval = 0.0
    for _ in range(1000):
        x = rng.normal((384,))
        _, power = dft_power(x, 128.0)
        mean_square = float(np.mean(x * x))
        worst_parseval = max(worst_parseval,
                             abs(float(power.sum()) - mean_square) / mean_square)

    ok = tone_mass >= 0.95 and worst_sum < 1e-9 and worst_parseval < 1e-9
    report(4, ok, f"10 Hz tone mass in 9-11 Hz {100 * tone_mass:.2f}% (>=95), "
                  f"relative power sum err {worst_sum:.2e} (<1e-9), "
                  f"Parseval rel err {worst_parseval:.2e} (<1e-9) over 1000 vectors")


def test_criterion_5_synthetic_end_to_end():
    start = time.time()
    data = dataio.generate_synthetic(8, 100, 1)
    config = training.TrainConfig(max_epochs=15, repeats=1, batch_size=50, seed=1)
    rep = training.run_loso(data, config, threads=min(8, os.cpu_count() or 1))
    best = float(rep.mean_curve().max())
    features = baselines.feature_matrix(data.data, "relative_power")
    _, accs = baselines.loso_accuracies(features, data.labels, data.subjects, "lda")
    lda_mean = float(accs.mean())
    elapsed = time.time() - start
    ok = best >= 0.90 and lda_mean >= 0.80 and elapsed < 600.0
    report(5, ok, f"cnn-lstm best LOSO mean {100 * best:.2f}% (>=90) within 15 epochs, "
                  f"relpower+lda {100 * lda_mean:.2f}% (>=80), {elapsed:.0f} s (<600)")


def test_criterion_6_thread_determinism(tmp_path, capsys):
    data_path = tmp_path / "synth.eegd"
    assert cli.main(["synth", "--out", str(data_path), "--subjects", "4",
                     "--per-class", "25", "--seed", "2"]) == 0
    blobs = []
    for threads in ("1", "3"):
        out = tmp_path / f"rep{threads}"
        code = cli.main(["loso", "--data", str(data_path), "--out", str(out),
                         "--repeats", "2", "--epochs", "5", "--seed", "7",
                         "--threads", threads])
        assert code == 0
        blobs.append(((out / "loso_detail.csv").read_bytes(),
                      (out / "loso_summary.csv").read_bytes()))
    capsys.readouterr()  # drop the CLI progress output
    ok = blobs[0] == blobs[1]
    report(6, ok, "loso --repeats 2 --epochs 5 --seed 7 with --threads 1 vs 3: "
                  + ("bit-identical CSV reports" if ok else "reports differ"))


def test_criterion_7_real_dataset_reproduction():
    path = os.environ.get("DROWSE_DATASET", "")
    if not path or not os.path.exists(path):
        print("criterion 7 SKIP: set DROWSE_DATASET to the prepared 11-subject "
              ".eegd file to run the full reproduction (1-2 h)")
        pytest.skip("external dataset not provided")
    data = dataio.read_sampleset(path)
    config = training.TrainConfig(max_epochs=15, repeats=10, batch_size=50, seed=1)
    rep = training.run_loso(data, config, threads=min(8, os.cpu_count() or 1))
    mean15 = float(rep.mean_curve()[14])
    within = abs(mean15 - 0.7297) <= 0.035

    means = {}
    for kind in ("relative_power", "power_ratio", "four_entropies"):
        features = baselines.feature_matrix(data.data, kind)
        for clf in ("lr", "lda"):
            _, accs = baselines.loso_accuracies(features, data.labels,
                                                data.subjects, clf)
            means[kind, clf] = float(accs.mean())
    ordered = all(means["relative_power", clf] > means["power_ratio", clf]
                  > means["four_entropies", clf] for clf in ("lr", "lda"))
    ok = within and ordered
    report(7, ok, f"LOSO mean at epoch 15 {100 * mean15:.2f}% (target 72.97 +- 3.5), "
                  f"feature ordering relpower > ratios > entropies: {ordered}")


def test_criterion_8_paired_t_test():
    t_stat, p_value = paired_t_test(np.array([1.0, 2.0, 3.0]), np.zeros(3))
    t_exact = 2.0 * math.sqrt(3.0)
    # Student-t tail for df=2 has the closed form 1 - t/sqrt(t^2+2);
    # quadrature over the density cross-checks it
    p_exact = 1.0 - t_exact / math.sqrt(t_exact ** 2 + 2.0)
    u = np.linspace(t_exact, 400.0, 400_001)
    density = (1.0 / (2.0 * math.sqrt(2.0))) * (1.0 + u * u / 2.0) ** -1.5
    p_quad = 2.0 * float(np.trapezoid(density, u))
    ok = (abs(t_stat - 3.4641) < 1e-3 and abs(p_value - 0.0742) < 1e-3
          and abs(t_stat - t_exact) < 1e-9 and abs(p_value - p_exact) < 1e-6
          and abs(p_quad - p_exact) < 1e-4)
    report(8, ok, f"t {t_stat:.4f} (expect 3.4641), p {p_value:.4f} (expect 0.0742), "
                  f"quadrature oracle p {p_quad:.4f}")
