"""Deterministic numeric substrate: seeded RNG, softmax, sigmoid, DFT power,
t-test, and the per-thread scratch buffers of the network and the entropies.

Everything here but the Workspace is pure and reproducible: the generator
is counter-based (no platform RNG), so identical seeds give identical
streams on every platform, and the t-test p-value is computed in-repo as
the finite Student-t tail sum for integer degrees of freedom.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64 increment
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; a bijection on 64-bit words."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _key_words(key) -> list[int]:
    # Fold an int or str key into 64-bit words for stream derivation.
    if isinstance(key, (int, np.integer)):
        return [int(key) & _MASK64]
    if isinstance(key, str):
        raw = key.encode("utf-8")
        raw += b"\x00" * (-len(raw) % 8)
        return [int.from_bytes(raw[i : i + 8], "little") for i in range(0, len(raw), 8)] or [0]
    raise TypeError(f"rng split key must be int or str, got {type(key).__name__}")


class Rng:
    """Counter-based deterministic random generator (SplitMix64 stream).

    Draw i of a stream with seed s is ``mix64(s + GOLDEN * i)``, so the
    sequence depends only on (seed, draw index), never on platform state.
    Not suitable for cryptography. Single-owner: never share one instance
    between concurrent tasks; derive children with :meth:`split` instead.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) & _MASK64)
        self._count = 0

    def raw64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words as a uint64 array."""
        if n < 0:
            raise ValueError("draw count must be non-negative")
        with np.errstate(over="ignore"):
            idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
            out = _mix64(self._seed + _GOLDEN * idx)
        self._count += int(n)
        return out

    def _unit(self, n: int) -> np.ndarray:
        # next n draws on the grid k * 2^-53, k in [0, 2^53)
        return (self.raw64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform(self, shape=None, low: float = 0.0, high: float = 1.0) -> np.ndarray | float:
        """Uniform draws in [low, high); scalar when shape is None."""
        n = 1 if shape is None else int(np.prod(shape))
        out = low + (high - low) * self._unit(n)
        return float(out[0]) if shape is None else out.reshape(shape)

    def normal(self, shape=None, mean: float = 0.0, std: float = 1.0):
        """Gaussian draws via Box-Muller; scalar when shape is None."""
        n = 1 if shape is None else int(np.prod(shape))
        m = (n + 1) // 2
        # u1 in (0, 1] so the log never sees zero; the sum is exact.
        u1 = self._unit(m) + 2.0**-53
        u2 = self._unit(m)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.empty(2 * m)
        z[0::2] = r * np.cos(2.0 * np.pi * u2)
        z[1::2] = r * np.sin(2.0 * np.pi * u2)
        out = mean + std * z[:n]
        return float(out[0]) if shape is None else out.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """A uniform permutation of range(n) (argsort of random keys)."""
        return np.argsort(self.raw64(n), kind="stable")

    def split(self, *keys) -> "Rng":
        """Derive an independent child stream keyed by ints or strings.

        Children with equal (seed, keys) are identical; the child stream
        does not consume or disturb this generator's counter.
        """
        with np.errstate(over="ignore"):
            s = np.array([self._seed ^ np.uint64(0xA5A5A5A5A5A5A5A5)], dtype=np.uint64)
            for key in keys:
                for word in _key_words(key):
                    s = _mix64(s + _GOLDEN * np.array([word], dtype=np.uint64))
        return Rng(int(s[0]))


class Workspace:
    """Named scratch buffers reused across calls.

    Each name is backed by one flat array. take(name, shape, dtype) returns
    its leading prod(shape) elements as a C-contiguous array of that shape,
    and allocates a new flat array only when a request needs more elements
    or another dtype. The leading rows of a C-contiguous array are the
    leading elements of its memory, so a smaller request of the same row
    shape gets the same memory a view of leading rows would. An array taken
    from a workspace, and anything computed into it, is overwritten by the
    next take of that name.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous array of the given shape and dtype backed by buffer `name`."""
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.dtype != dtype or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


_thread_buffers = threading.local()


def thread_workspace() -> Workspace:
    """The calling thread's Workspace, made on first use; no two threads share one."""
    if not hasattr(_thread_buffers, "workspace"):
        _thread_buffers.workspace = Workspace()
    return _thread_buffers.workspace


def assert_finite(x: np.ndarray, what: str) -> None:
    """Raise ValueError if ``x`` contains NaN or Inf."""
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite values in {what}")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated through exp(-|x|) so that no input
    overflows; exact 0 and 1 at -inf and +inf."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def softmax_rows(v: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-D array (shared max-subtraction guard)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError("softmax_rows expects a non-empty 2-D array")
    assert_finite(v, "softmax input")
    e = np.exp(v - v.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@lru_cache(maxsize=8)
def _dft_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    ang = 2.0 * np.pi * k * t / n
    return np.cos(ang), np.sin(ang)


def dft_power(signal: np.ndarray, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided DFT power spectrum of real signals, one per row of [..., n].

    Direct O(n^2) transform, one einsum dot product per bin against cached
    cos/sin matrices, so a row's bits do not depend on its batch (a BLAS
    product blocks by row count). It is the package's only spectral
    transform. Bin powers satisfy Parseval exactly:
    ``sum(power, -1) == mean(signal**2, -1)`` up to rounding.

    Returns (frequencies in Hz, power per bin as [..., n // 2 + 1]).
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ValueError("dft_power needs signals of length >= 2 along the last axis")
    assert_finite(x, "dft_power input")
    n = x.shape[-1]
    re, im = (np.einsum("...t,kt->...k", x, m) for m in _dft_matrices(n))
    power = (re * re + im * im) / (n * n)
    power[..., 1:(n + 1) // 2] *= 2.0  # every bin but DC and (n even) Nyquist
    return np.arange(n // 2 + 1) * (rate / n), power


def normalize_mean_std(v: np.ndarray) -> np.ndarray:
    """Remove the mean and divide by the population standard deviation.

    Degenerate inputs (population std below 1e-12) come back as all zeros
    rather than blowing up, so constant sequences stay well-defined.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("normalize_mean_std expects a non-empty vector")
    centered = v - v.mean()
    std = np.sqrt(np.mean(centered * centered))
    if std < 1e-12:
        return np.zeros_like(v)
    return centered / std


def student_t_sf2(t: float, df: int) -> float:
    """Two-tailed tail probability P(|T| >= t) for Student's t, integer df.

    A = P(|T| < t) is the finite sum of Abramowitz & Stegun 26.7.3 (odd df)
    or 26.7.4 (even df) in theta = atan(|t| / sqrt(df)), and the tail is
    1 - A, clamped at 0 where A rounds above 1. It is accurate to about
    1e-12 absolute (3e-13 seen, at df 30000), but as A nears 1 the relative
    precision falls with p: about 1e-10 for p >= 1e-3, 3e-8 for p >= 1e-6
    and 1e-5 for p >= 1e-9, and fewer than 3 significant digits are left
    at p = 1e-12. Raises ValueError unless df is an integer >= 1.
    """
    if df != int(df) or df < 1:
        raise ValueError("degrees of freedom must be an integer >= 1")
    df = int(df)
    odd = df % 2
    t = abs(float(t))
    theta = math.atan(t / math.sqrt(df))
    cos2 = df / (df + t * t)  # cos(theta)^2; cos(theta) itself loses digits at large t
    # 1 + r_1 cos^2 + r_1 r_2 cos^4 + ... to df // 2 terms
    total, term = 0.0, 1.0
    for k in range(df // 2):
        total += term
        term *= cos2 * (2 * k + 1 + odd) / (2 * k + 2 + odd)
    if odd:
        below = (theta + math.sin(theta) * math.sqrt(cos2) * total) * 2.0 / math.pi
    else:
        below = math.sin(theta) * total
    return 0.0 if below > 1.0 else 1.0 - below  # a NaN t stays NaN


def paired_t_test(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Paired two-tailed t-test on matched measurement vectors.

    t uses the sample standard deviation of the differences (n-1 divisor);
    the p-value comes from the Student-t distribution with df = n-1.
    Raises ValueError for a non-finite measurement, and when the
    differences have (numerically) zero variance, since t is undefined there.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired_t_test needs two equal-length vectors")
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"paired_t_test needs finite values, got ({a[i]}, {b[i]}) at pair {i}")
    n = a.size
    if n < 2:
        raise ValueError("paired_t_test needs at least 2 pairs")
    d = a - b
    sd = float(np.std(d, ddof=1))
    scale = max(1.0, float(np.abs(d).max()))
    if sd <= 1e-12 * scale:
        raise ValueError("degenerate paired t-test: zero-variance differences")
    t = float(d.mean() / (sd / math.sqrt(n)))
    return t, student_t_sf2(t, n - 1)
