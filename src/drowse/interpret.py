"""Heatmaps that localize the evidence behind a classification.

The hidden state of every LSTM step is pushed through a softmax, giving the
likelihood evolution of the predicted class over the 48 steps of a 384-point
sample, network.POOL points each. Repeating each value over its pooling window
maps it back onto the input points (accumulated heatmap); normalized first
differences of the evolution mark where the likelihood moved (relative heatmap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import SAMPLE_POINTS
from .network import POOL, model_forward
from .numerics import normalize_mean_std, softmax_rows

STEPS = SAMPLE_POINTS // POOL  # LSTM steps over one sample


@dataclass
class HeatmapPair:
    """Both heatmaps for one sample, tied to the class they explain."""

    predicted_class: int
    likelihoods: np.ndarray  # final [p_alert, p_drowsy]
    m_rel: np.ndarray
    m_acc: np.ndarray


def hidden_likelihoods(trace, c: int) -> np.ndarray:
    """Class-c likelihood after every LSTM step, for a single-sample trace.

    trace.hidden is [T, B, 2]; B must be 1.
    """
    hidden = trace.hidden
    if hidden.ndim != 3 or hidden.shape[1] != 1:
        raise ValueError("expected a single-sample trace")
    if c not in (0, 1):
        raise ValueError(f"class must be 0 or 1, got {c}")
    return softmax_rows(hidden[:, 0, :])[:, c]


def accumulated_heatmap(likelihoods: np.ndarray) -> np.ndarray:
    """Repeat each per-step likelihood over its pooling window, preserving order."""
    likelihoods = np.asarray(likelihoods, dtype=np.float64)
    if likelihoods.shape != (STEPS,):
        raise ValueError(f"expected {STEPS} likelihood values, got {likelihoods.shape}")
    return np.repeat(likelihoods, POOL)


def relative_heatmap(likelihoods: np.ndarray) -> np.ndarray:
    """Normalized likelihood increments, repeated over each pooling window.

    The step-0 likelihood is defined as 0, so the first increment is the
    full likelihood after one step; increments are standardized over the
    step values before repeating.  An all-zero increment sequence (possible
    only for an all-zero likelihood input) maps to an all-zero heatmap.
    """
    likelihoods = np.asarray(likelihoods, dtype=np.float64)
    if likelihoods.shape != (STEPS,):
        raise ValueError(f"expected {STEPS} likelihood values, got {likelihoods.shape}")
    deltas = np.diff(likelihoods, prepend=0.0)
    return np.repeat(normalize_mean_std(deltas), POOL)


def explain_sample(sample, params) -> HeatmapPair:
    """Run one sample in eval mode and build both heatmaps for the argmax class."""
    x = np.asarray(sample.samples, dtype=np.float64)[None, None, :]
    probs, trace = model_forward(x, params, "eval")
    c = int(np.argmax(probs[0]))
    evolution = hidden_likelihoods(trace, c)
    return HeatmapPair(
        predicted_class=c,
        likelihoods=probs[0],
        m_rel=relative_heatmap(evolution),
        m_acc=accumulated_heatmap(evolution),
    )


# -- file emission ------------------------------------------------------------

def emit_heatmap(pair: HeatmapPair, sample, path_csv, path_svg=None) -> None:
    """Write the heatmap CSV (and optionally a minimal two-panel SVG)."""
    signal = np.asarray(sample.samples, dtype=np.float64)
    with open(path_csv, "w") as fh:
        fh.write(f"# subject={sample.subject_id}\n")
        fh.write(f"# label={sample.label}\n")
        fh.write(f"# p_alert={pair.likelihoods[0]:.9g}\n")
        fh.write(f"# p_drowsy={pair.likelihoods[1]:.9g}\n")
        fh.write("index,signal_uV,m_rel,m_acc\n")
        for i in range(signal.size):
            fh.write(f"{i},{signal[i]:.9g},{pair.m_rel[i]:.9g},{pair.m_acc[i]:.9g}\n")
    if path_svg is not None:
        with open(path_svg, "w") as fh:
            fh.write(render_svg(pair, signal))


def _diverging_color(value: float) -> str:
    """Symmetric blue-white-red scale, clipped at +-3."""
    t = float(np.clip(value / 3.0, -1.0, 1.0))
    if t < 0:
        r, g, b = 255 + int(211 * t), 255 + int(165 * t), 255
    else:
        r, g, b = 255, 255 - int(190 * t), 255 - int(215 * t)
    return f"rgb({r},{g},{b})"


def _polyline(xs, ys, color: str, width: float) -> str:
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return (f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
            f'points="{points}"/>')


def render_svg(pair: HeatmapPair, signal: np.ndarray) -> str:
    """Two stacked panels: the signal over the relative heatmap, then the
    accumulated likelihood curve.  No external plotting stack."""
    width, panel_h, gap = 960, 220, 40
    height = 2 * panel_h + 3 * gap
    n = signal.size
    xs = gap + (width - 2 * gap) * np.arange(n) / (n - 1)

    lo, hi = signal.min(), signal.max()
    span = (hi - lo) or 1.0
    y_sig = gap + panel_h - panel_h * (signal - lo) / span
    y0_acc = 2 * gap + panel_h
    y_acc = y0_acc + panel_h - panel_h * pair.m_acc

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    # relative heatmap as colored background strips, one per LSTM step
    for block in range(n // POOL):
        x0 = xs[block * POOL]
        x1 = xs[min((block + 1) * POOL, n - 1)]
        color = _diverging_color(pair.m_rel[block * POOL])
        parts.append(f'<rect x="{x0:.2f}" y="{gap}" width="{x1 - x0:.2f}" '
                     f'height="{panel_h}" fill="{color}"/>')
    parts.append(_polyline(xs, y_sig, "black", 0.8))
    parts.append(f'<rect x="{gap}" y="{gap}" width="{width - 2 * gap}" '
                 f'height="{panel_h}" fill="none" stroke="gray"/>')
    # accumulated heatmap panel with a 0.5 reference line
    y_half = y0_acc + panel_h * 0.5
    parts.append(f'<line x1="{gap}" y1="{y_half}" x2="{width - gap}" '
                 f'y2="{y_half}" stroke="lightgray" stroke-dasharray="4"/>')
    parts.append(_polyline(xs, y_acc, "steelblue", 1.5))
    parts.append(f'<rect x="{gap}" y="{y0_acc}" width="{width - 2 * gap}" '
                 f'height="{panel_h}" fill="none" stroke="gray"/>')
    label = "drowsy" if pair.predicted_class == 1 else "alert"
    parts.append(f'<text x="{gap}" y="{gap - 8}" font-family="sans-serif" '
                 f'font-size="14">predicted {label}, '
                 f'p={pair.likelihoods[pair.predicted_class]:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
