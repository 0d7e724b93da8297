import types
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from drowse.dataio import EegSample, generate_synthetic
from drowse.dataio import _pink_noise, _spindle_burst
from drowse.interpret import (
    HeatmapPair,
    accumulated_heatmap,
    emit_heatmap,
    explain_sample,
    hidden_likelihoods,
    relative_heatmap,
    render_svg,
)
from drowse.network import POOL, init_params, model_forward
from drowse.numerics import Rng
from drowse.training import TrainConfig, train

SMALL_NET = (8, 16)  # kernels and kernel length of a small model


def read_heatmap_csv(path) -> dict:
    """Parse an emitted heatmap CSV back into arrays and metadata."""
    meta = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, value = line[1:].split("=", 1)
                meta[key.strip()] = float(value)
            elif line and not line.startswith("index,"):
                rows.append([float(v) for v in line.split(",")])
    table = np.asarray(rows)
    return {
        "meta": meta,
        "signal": table[:, 1],
        "m_rel": table[:, 2],
        "m_acc": table[:, 3],
    }


def random_sample(seed, subject=1, label=1):
    return EegSample(subject, label, Rng(seed).normal((384,)).astype(np.float32))


@pytest.fixture(scope="module")
def trained():
    """A small model trained to separate the synthetic classes."""
    data = generate_synthetic(4, 30, 1)
    params = init_params(Rng(3).split(0), *SMALL_NET)
    train(params, data, TrainConfig(max_epochs=10, batch_size=50), Rng(3).split(1))
    return params


class TestHiddenLikelihoods:
    def test_all_zero_hidden_gives_half(self):
        trace = types.SimpleNamespace(hidden=np.zeros((48, 1, 2)))
        np.testing.assert_allclose(hidden_likelihoods(trace, 0), 0.5)
        np.testing.assert_allclose(hidden_likelihoods(trace, 1), 0.5)

    def test_last_matches_model_output(self):
        params = init_params(Rng(5))
        x = Rng(6).normal((1, 1, 384))
        probs, trace = model_forward(x, params, "eval")
        for c in (0, 1):
            assert hidden_likelihoods(trace, c)[-1] == pytest.approx(probs[0, c], abs=1e-12)

    def test_values_in_open_interval(self):
        trace = types.SimpleNamespace(hidden=Rng(7).normal((48, 1, 2)))
        h = hidden_likelihoods(trace, 1)
        assert np.all((h > 0) & (h < 1))

    def test_complementarity(self):
        trace = types.SimpleNamespace(hidden=Rng(8).normal((48, 1, 2)))
        total = hidden_likelihoods(trace, 0) + hidden_likelihoods(trace, 1)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_batch_trace_rejected(self):
        trace = types.SimpleNamespace(hidden=np.zeros((48, 2, 2)))
        with pytest.raises(ValueError, match="single-sample"):
            hidden_likelihoods(trace, 0)


class TestAccumulatedHeatmap:
    def test_blockwise_repeat(self):
        h = Rng(9).uniform((48,))
        m = accumulated_heatmap(h)
        assert m.shape == (384,)
        np.testing.assert_array_equal(m[:8], np.full(8, h[0]))
        np.testing.assert_array_equal(m[8:16], np.full(8, h[1]))
        np.testing.assert_array_equal(m.reshape(48, 8), np.tile(h[:, None], (1, 8)))

    def test_constant(self):
        np.testing.assert_array_equal(accumulated_heatmap(np.full(48, 0.7)), np.full(384, 0.7))

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="48"):
            accumulated_heatmap(np.zeros(47))


class TestRelativeHeatmap:
    def test_telescoping_identity(self):
        for seed in range(20):
            h = Rng(seed).uniform((48,))
            deltas = np.diff(h, prepend=0.0)
            assert deltas.sum() == pytest.approx(h[-1], abs=1e-12)

    def test_constant_evolution(self):
        m = relative_heatmap(np.full(48, 0.7))
        blocks = m[::8]
        assert blocks[0] > 0
        np.testing.assert_allclose(blocks[1:], blocks[1], atol=1e-12)
        assert blocks[1] < 0
        assert blocks.mean() == pytest.approx(0.0, abs=1e-12)

    def test_normalized_moments(self):
        h = Rng(10).uniform((48,))
        blocks = relative_heatmap(h)[::8]
        assert blocks.mean() == pytest.approx(0.0, abs=1e-12)
        assert blocks.std() == pytest.approx(1.0, abs=1e-12)

    def test_zero_input_guard(self):
        np.testing.assert_array_equal(relative_heatmap(np.zeros(48)), np.zeros(384))

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="48"):
            relative_heatmap(np.zeros(49))


class TestExplainSample:
    def test_heatmap_pair_consistency(self):
        params = init_params(Rng(11))
        pair = explain_sample(random_sample(12), params)
        c = pair.predicted_class
        assert pair.likelihoods[c] == max(pair.likelihoods)
        # final accumulated block equals the output likelihood
        np.testing.assert_allclose(pair.m_acc[376:], pair.likelihoods[c], atol=1e-12)
        assert pair.m_rel.shape == pair.m_acc.shape == (384,)
        assert np.all((pair.m_acc >= 0) & (pair.m_acc <= 1))

    def test_block_structure(self):
        params = init_params(Rng(13))
        pair = explain_sample(random_sample(14), params)
        for m in (pair.m_rel, pair.m_acc):
            blocks = m.reshape(48, 8)
            assert np.all(blocks == blocks[:, :1])

    def test_eval_mode_is_deterministic(self):
        params = init_params(Rng(15))
        sample = random_sample(16)
        a = explain_sample(sample, params)
        b = explain_sample(sample, params)
        np.testing.assert_array_equal(a.m_rel, b.m_rel)
        np.testing.assert_array_equal(a.likelihoods, b.likelihoods)

    def test_spindle_burst_drives_second_half_attribution(self, trained):
        # one alpha burst confined to the second half of the window
        rng = Rng(17)
        sig = _pink_noise(rng.split("noise"), 2.0)
        sig = sig + _spindle_burst(rng.split("burst"), 10.0, 12.0, 2.1, 2.3)
        sample = EegSample(1, 1, sig.astype(np.float32))
        pair = explain_sample(sample, trained)
        assert pair.predicted_class == 1
        # block 0 is always salient by construction (likelihood starts at 0),
        # so rank the remaining blocks
        blocks = np.abs(pair.m_rel[::8])
        top = 1 + int(np.argmax(blocks[1:]))
        assert top >= 24, f"top attribution block {top} not in the second half"


class TestEmission:
    def pair_and_sample(self):
        params = init_params(Rng(18))
        sample = random_sample(19, subject=5, label=0)
        return explain_sample(sample, params), sample

    def test_csv_round_trip(self, tmp_path):
        pair, sample = self.pair_and_sample()
        path = tmp_path / "heatmap.csv"
        emit_heatmap(pair, sample, path)
        lines = path.read_text().splitlines()
        assert lines[4] == "index,signal_uV,m_rel,m_acc"
        assert len(lines) == 5 + 384
        back = read_heatmap_csv(path)
        assert back["meta"]["subject"] == 5
        assert back["meta"]["label"] == 0
        assert back["meta"]["p_alert"] == pytest.approx(pair.likelihoods[0], rel=1e-8)
        assert back["meta"]["p_drowsy"] == pytest.approx(pair.likelihoods[1], rel=1e-8)
        np.testing.assert_allclose(back["m_rel"], pair.m_rel, rtol=1e-7)
        np.testing.assert_allclose(back["m_acc"], pair.m_acc, rtol=1e-7)
        np.testing.assert_allclose(back["signal"], sample.samples, rtol=1e-6, atol=1e-8)

    def test_svg_well_formed(self, tmp_path):
        pair, sample = self.pair_and_sample()
        csv_path = tmp_path / "heatmap.csv"
        svg_path = tmp_path / "heatmap.svg"
        emit_heatmap(pair, sample, csv_path, svg_path)
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")
        body = svg_path.read_text()
        assert "polyline" in body and "rect" in body

    def test_svg_renders_standalone(self):
        pair = HeatmapPair(1, np.array([0.2, 0.8]), Rng(20).normal((384,)),
                           Rng(21).uniform((384,)))
        svg = render_svg(pair, Rng(22).normal((384,)))
        ET.fromstring(svg)

    def test_heatmaps_follow_the_pooling_window(self, tmp_path):
        sample = random_sample(23)
        pair = explain_sample(sample, init_params(Rng(24), *SMALL_NET))
        c = pair.predicted_class
        for m in (pair.m_rel, pair.m_acc):
            assert m.shape == (384,)
            blocks = m.reshape(384 // POOL, POOL)
            assert np.all(blocks == blocks[:, :1])
        np.testing.assert_allclose(pair.m_acc[-POOL:], pair.likelihoods[c], atol=1e-12)
        csv_path, svg_path = tmp_path / "heatmap.csv", tmp_path / "heatmap.svg"
        emit_heatmap(pair, sample, csv_path, svg_path)
        back = read_heatmap_csv(csv_path)
        np.testing.assert_allclose(back["m_acc"], pair.m_acc, rtol=1e-7)
        np.testing.assert_allclose(back["m_rel"], pair.m_rel, rtol=1e-7)
        # one strip per LSTM step, plus the background and two panel frames
        rects = ET.fromstring(svg_path.read_text()).findall("{http://www.w3.org/2000/svg}rect")
        assert len(rects) == 384 // POOL + 3
