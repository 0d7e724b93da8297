"""Conventional features and classical classifiers for comparison runs.

Three feature families (relative band powers, band-power ratios, four
entropies), computed for all rows of [..., 384] samples at once, plus five
classifiers implemented directly (logistic regression, LDA, QDA, Gaussian
naive Bayes, k-nearest-neighbors).  One function, `classify`, fits a
classifier and predicts with it; LDA, QDA and GNB are one Gaussian
discriminant that differs only in the covariance it fits.  Everything in
this module is deterministic: no RNG, so fit+predict is a pure function of
the data.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataio import SAMPLE_POINTS, SAMPLE_RATE_HZ, loso_subject_ids
from .numerics import dft_power, sigmoid, thread_workspace

SEGMENT = 128
BANDS = (("delta", 1.0, 4.0), ("theta", 4.0, 8.0),
         ("alpha", 8.0, 12.0), ("beta", 12.0, 30.0))

CLASSIFIER_KINDS = ("lr", "lda", "qda", "gnb", "knn")

LR_ITERATIONS = 500
LR_STEP = 0.1
LR_L2 = 1e-4
SHRINKAGE = 1e-3
GNB_VAR_FLOOR = 1e-9
KNN_K = 5
FUZZY_WIDTH = 2  # the fuzzy membership exponent of Chen et al. 2007


# -- spectral features ---------------------------------------------------------

FREQS = np.arange(SEGMENT // 2 + 1) * (SAMPLE_RATE_HZ / SEGMENT)  # the PSD's 1 Hz grid
# Trapezoid rule on the 1 Hz grid: weight 1 inside a band, 1/2 at its edges.
BAND_WEIGHTS = np.array([[0.5 if f in (lo, hi) else float(lo < f < hi) for _, lo, hi in BANDS]
                         for f in FREQS])  # [65, 4]
ENTROPY_BINS = slice(1, 31)  # 1-30 Hz; a slice keeps each row's bins contiguous


class _NoPower(ValueError):
    def __init__(self, row: int):  # the sample's index among the call's rows
        super().__init__(f"sample {row} has no power in the 1-30 Hz bands")
        self.row = row


def _row_totals(values: np.ndarray) -> np.ndarray:
    """Each row's sum over the last axis; refuses a row with no 1-30 Hz power."""
    total = values.sum(axis=-1, keepdims=True)
    silent = np.flatnonzero(total <= 0.0)
    if silent.size:
        raise _NoPower(int(silent[0]))
    return total


def welch_psd(x: np.ndarray) -> tuple:
    """Welch power spectral density of each sample in [..., 384].

    Five 128-point segments with 50% overlap, Hamming window, per-segment
    mean removal, all in one dft_power call; one-sided power per Hz on FREQS.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (SAMPLE_POINTS,):
        raise ValueError(f"expected {SAMPLE_POINTS}-point samples, got {x.shape}")
    window = np.hamming(SEGMENT)
    scale = SEGMENT**2 / (SAMPLE_RATE_HZ * np.sum(window**2))
    segments = sliding_window_view(x, SEGMENT, axis=-1)[..., ::SEGMENT // 2, :]
    segments = (segments - segments.mean(axis=-1, keepdims=True)) * window
    freqs, power = dft_power(segments, SAMPLE_RATE_HZ)
    return freqs, power.mean(axis=-2) * scale


def _band_powers(x: np.ndarray) -> tuple:
    """Trapezoid power of each sample in the four BANDS, and its four-band total."""
    powers = np.einsum("...f,fb->...b", welch_psd(x)[1], BAND_WEIGHTS)
    return powers, _row_totals(powers)


def relative_powers(x: np.ndarray) -> np.ndarray:
    """Band powers of each sample normalized by its four-band total; rows sum to 1."""
    powers, total = _band_powers(x)
    return powers / total


def ratios_from_bands(powers: np.ndarray) -> np.ndarray:
    """(theta+alpha)/beta, alpha/beta, (theta+alpha)/(alpha+beta), theta/beta per row."""
    _, theta, alpha, beta = np.moveaxis(powers, -1, 0)
    numerators = np.stack([theta + alpha, alpha, theta + alpha, theta], axis=-1)
    denominators = np.stack([beta, beta, alpha + beta, beta], axis=-1)
    return numerators / np.maximum(denominators, 1e-12)


def power_ratios(x: np.ndarray) -> np.ndarray:
    return ratios_from_bands(_band_powers(x)[0])


def spectral_entropy(x: np.ndarray) -> np.ndarray:
    """Normalized Shannon entropy of each sample's 1-30 Hz PSD distribution, in [0, 1]."""
    psd = welch_psd(x)[1][..., ENTROPY_BINS]
    p = psd / _row_totals(psd)
    log_p = np.log(p, out=np.zeros_like(p), where=p > 0)
    return -np.einsum("...f,...f->...", p, log_p) / np.log(p.shape[-1])


# -- entropies -----------------------------------------------------------------

def _validate_entropy_input(x: np.ndarray, m: int) -> np.ndarray:
    if m < 1:
        raise ValueError(f"template length m must be at least 1, got {m}")
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < m + 2:
        raise ValueError(f"need at least {m + 2} points, got {x.size}")
    return x


def _abs_differences(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i, j] = |values[i] - values[j]|, computed in place in `out`.

    out holds values[j] - values[i] before the abs, whose magnitude is the
    same double; writing it in place is faster than an outer subtraction
    into a separate destination.
    """
    np.copyto(out, values)
    np.subtract(out, values[:, None], out=out)
    return np.abs(out, out=out)


def _lagwise_chebyshev(templates: np.ndarray) -> np.ndarray:
    """[N, N] Chebyshev distances between the rows of [N, mm] templates.

    Built one lag at a time, d = max_k |t[i, k] - t[j, k]|, in the "dist"
    buffer of the thread's workspace, each lag's differences in its
    "lag" buffer: no [N, N, mm] difference array exists, and no [N, N]
    array is allocated once the buffers are large enough. The result is an
    exactly sized C-contiguous array, so its sum adds in the same order as
    a fresh array's. max and abs are exact, so the values equal the
    broadcast formulation bit for bit. The next call overwrites the result.
    """
    n = templates.shape[0]
    ws = thread_workspace()
    dist = _abs_differences(templates[:, 0], ws.take("dist", (n, n), np.float64))
    lag = ws.take("lag", (n, n), np.float64)
    for k in range(1, templates.shape[1]):
        np.maximum(dist, _abs_differences(templates[:, k], lag), out=dist)
    return dist


def _sample_and_approximate_entropy(x: np.ndarray, m: int, r: float | None) -> tuple:
    """(SampEn, ApEn) from one pair of Chebyshev match masks.

    Every template distance is built from one [n, n] matrix
    A[i, j] = |x[i] - x[j]|: the length-m distance between templates i and
    j is max_k A[i+k, j+k] over k < m, so d_m is the elementwise max of the
    diagonal-shifted blocks A[k:k+N, k:k+N] over the N = n-m+1 templates,
    and d_{m+1} = max(d_m[:-1, :-1], A[m:, m:]) over the first n-m. A max
    is within r exactly when each of its terms is, so the code takes the
    same shifted blocks of the mask A <= r and ANDs them: within_m is
    d_m <= r and within_m1 = within_m[:-1, :-1] & (A <= r)[m:, m:] is
    d_{m+1} <= r, with the same match counts. One subtraction pass serves
    every lag, and no [N, N, mm] array exists. ApEn counts each mask in
    full (self-matches included); SampEn counts the first n-m rows and
    columns of each (self-matches dropped), as Richman & Moorman 2000
    define it. Sharing the masks follows Manis 2008.
    """
    x = _validate_entropy_input(x, m)
    sd = float(x.std())
    if sd == 0.0:
        return 0.0, 0.0
    if r is None:
        r = 0.2 * sd
    n = x.size
    n_templates = n - m
    count = n_templates + 1  # templates of length m
    ws = thread_workspace()
    close = ws.take("close", (n, n), np.bool_)
    np.less_equal(_abs_differences(x, ws.take("dist", (n, n), np.float64)), r, out=close)
    within_m = ws.take("within_m", (count, count), np.bool_)
    np.copyto(within_m, close[:count, :count])
    for k in range(1, m):
        within_m &= close[k:k + count, k:k + count]
    within_m1 = ws.take("within_m1", (n_templates, n_templates), np.bool_)
    np.logical_and(within_m[:-1, :-1], close[m:, m:], out=within_m1)

    b = np.count_nonzero(within_m[:-1, :-1]) - n_templates  # drop the diagonal
    a = np.count_nonzero(within_m1) - n_templates
    sampen = float(-np.log(max(a, 0.5) / max(b, 0.5)))

    def phi(within):
        return np.mean(np.log(np.count_nonzero(within, axis=1) / within.shape[0]))

    return sampen, float(phi(within_m) - phi(within_m1))


def approximate_entropy(x: np.ndarray, m: int = 2, r: float | None = None) -> float:
    """ApEn: phi(m) - phi(m+1), Chebyshev distance, self-matches included.

    phi(mm) averages the log share of the n-mm+1 templates within r of each
    template; see `_sample_and_approximate_entropy` for the shared masks.
    """
    return _sample_and_approximate_entropy(x, m, r)[1]


def sample_entropy(x: np.ndarray, m: int = 2, r: float | None = None) -> float:
    """SampEn: -ln(A/B) over n-m templates of both lengths, self-matches excluded.

    A zero match count is capped at 0.5 so the logarithm stays finite. The
    masks are shared with ApEn; see `_sample_and_approximate_entropy`.
    """
    return _sample_and_approximate_entropy(x, m, r)[0]


def fuzzy_entropy(x: np.ndarray, m: int = 2, r: float | None = None) -> float:
    """FuzzyEn: ln phi(m) - ln phi(m+1) with similarity exp(-d^FUZZY_WIDTH / r).

    Templates are baseline-removed (their own mean subtracted) before the
    Chebyshev distance; both template lengths use n-m templates. The mean
    removal differs between lengths, so each length builds its own distance
    matrix lag by lag instead of using the SampEn/ApEn shifted blocks. The
    similarity is computed in place in that matrix; dividing by -r gives
    the bits of negating and then dividing by r, since rounding is
    symmetric in sign.
    """
    x = _validate_entropy_input(x, m)
    sd = float(x.std())
    if sd == 0.0:
        return 0.0
    if r is None:
        r = 0.2 * sd
    n_templates = x.size - m

    def phi(mm):
        templates = sliding_window_view(x, mm)[:n_templates]
        templates = templates - templates.mean(axis=1, keepdims=True)
        mu = _lagwise_chebyshev(templates)
        mu **= FUZZY_WIDTH
        np.divide(mu, -r, out=mu)
        np.exp(mu, out=mu)
        return (mu.sum() - n_templates) / (n_templates * (n_templates - 1))

    return float(np.log(phi(m)) - np.log(phi(m + 1)))


def four_entropies(x: np.ndarray) -> np.ndarray:
    """(sample, fuzzy, approximate, spectral) entropy of each sample in [..., 384].
    The spectral column comes first, so a silent sample is refused early."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape[:-1] + (4,))
    out[..., 3] = spectral_entropy(x)
    for row, values in zip(x.reshape(-1, SAMPLE_POINTS), out.reshape(-1, 4)):
        values[0], values[2] = _sample_and_approximate_entropy(row, 2, None)
        values[1] = fuzzy_entropy(row)
    return out


# -- feature dispatch ----------------------------------------------------------

_FEATURE_FUNCS = {
    "relative_power": relative_powers,
    "power_ratio": power_ratios,
    "four_entropies": four_entropies,
}
FEATURE_CHUNK = 256  # rows per feature call; bounds the temporaries, not the bits


def feature_matrix(data: np.ndarray, kind: str) -> np.ndarray:
    """[n, 4] feature matrix for [n, 384] sample data, FEATURE_CHUNK rows
    per call; a row's bits do not depend on the rows that share its call."""
    try:
        func = _FEATURE_FUNCS[kind]
    except KeyError:
        raise ValueError(f"unknown feature kind: {kind!r}") from None
    chunks = []
    for start in range(0, len(data), FEATURE_CHUNK):
        try:
            chunks.append(func(data[start:start + FEATURE_CHUNK]))
        except _NoPower as exc:
            raise _NoPower(start + exc.row) from None
    return np.concatenate(chunks)


# -- classifiers ---------------------------------------------------------------

def _shrunk(cov: np.ndarray) -> np.ndarray:
    d = cov.shape[0]
    return cov + (SHRINKAGE * np.trace(cov) / d) * np.eye(d)


def classify(kind: str, features: np.ndarray, labels, queries: np.ndarray,
             k: int = KNN_K) -> np.ndarray:
    """Fit one of the five classifier kinds on [n, d] features and their
    labels, and return the 0/1 label of each row of [m, d] queries.

    Both matrices are standardized with the training mean and std. Each
    kind scores the queries per class; the larger score wins and a tie goes
    to class 0. LDA, QDA and GNB are one Gaussian discriminant,
    -0.5 * (log det S_c + (q - mu_c)' S_c^-1 (q - mu_c)) + log prior_c,
    and differ only in the covariance S_c: the pooled shrunk covariance
    over n - 2 for both classes (LDA), each class's shrunk covariance over
    n_c - 1 (QDA), or each class's diagonal of per-feature variances
    floored at GNB_VAR_FLOOR (GNB).
    """
    if kind not in CLASSIFIER_KINDS:
        raise ValueError(f"unknown classifier kind: {kind!r}")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise ValueError("features must be [n, d] with one label per row")
    counts = np.bincount(y, minlength=2)
    if np.unique(y).size < 2:
        raise ValueError("training data contains a single class")
    if counts.min() < 2:
        raise ValueError("need at least 2 samples per class")
    n, d = x.shape
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != d:
        raise ValueError(f"expected {d} features per query row, got shape {q.shape}")

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 1e-12, std, 1.0)
    z = (x - mean) / std
    q = (q - mean) / std

    if kind == "lr":
        w = np.zeros(d)
        b = 0.0
        for _ in range(LR_ITERATIONS):
            p = sigmoid(z @ w + b)
            err = p - y
            w -= LR_STEP * (z.T @ err / n + 2.0 * LR_L2 * w)
            b -= LR_STEP * float(err.mean())
        margin = q @ w + b
        scores = np.column_stack([-margin, margin])
    elif kind == "knn":
        k = min(k, n)
        dist = np.sqrt(((z - q[:, None]) ** 2).sum(axis=2))
        # stable sort: equal distances resolve to the lower training index
        votes = y[np.argsort(dist, axis=1, kind="stable")[:, :k]].sum(axis=1)
        scores = np.column_stack([k - votes, votes])
    else:
        mus = np.stack([z[y == c].mean(axis=0) for c in (0, 1)])
        centered = z - mus[y]
        if kind == "lda":
            covs = [_shrunk(centered.T @ centered / (n - 2))] * 2
        elif kind == "qda":
            covs = [_shrunk(centered[y == c].T @ centered[y == c] / (counts[c] - 1))
                    for c in (0, 1)]
        else:  # gnb
            covs = [np.diag(np.maximum((centered[y == c] ** 2).mean(axis=0), GNB_VAR_FLOOR))
                    for c in (0, 1)]
        columns = []
        for mu, cov, log_prior in zip(mus, covs, np.log(counts / n)):
            sign, logdet = np.linalg.slogdet(cov)
            if sign <= 0:
                raise ValueError("class covariance is not positive definite")
            diff = q - mu
            mahal = np.einsum("ij,jk,ik->i", diff, np.linalg.inv(cov), diff)
            columns.append(-0.5 * (logdet + mahal) + log_prior)
        scores = np.column_stack(columns)
    return (scores[:, 1] > scores[:, 0]).astype(np.int64)


def loso_accuracies(features: np.ndarray, labels, subjects, clf_kind: str) -> tuple:
    """Leave-one-subject-out accuracy per subject for one feature matrix."""
    labels = np.asarray(labels, dtype=np.int64)
    subjects = np.asarray(subjects)
    subject_ids = loso_subject_ids(subjects)
    accs = []
    for sid in subject_ids:
        test = subjects == sid
        pred = classify(clf_kind, features[~test], labels[~test], features[test])
        accs.append(float((pred == labels[test]).mean()))
    return subject_ids, np.array(accs)
