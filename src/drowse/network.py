"""The CNN-LSTM: forward pass, hand-derived gradients, and model files.

Layer stack: 1-D convolution (same padding) -> batch norm -> ELU ->
non-overlapping average pooling -> LSTM over the pooled feature sequence
-> softmax on the final hidden state. The hidden dimension equals the
number of classes, so every intermediate hidden state can be read as a
running class likelihood (see the interpret module).

All gradients are analytic, derived for this fixed graph, including
backpropagation through time over the LSTM and through the batch
statistics of the normalization layer. Model files store binary32, and
ModelParams holds float64.

The parameters' shapes are the architecture: the kernel count and length
are those of conv_w, and the input length is the batch's. Only the
pooling window is fixed, at POOL input points per LSTM step. init_params
and load_params, which create the tensors, are the only functions that
take a size. Nothing checks a hand-built ModelParams for consistency:
numpy raises ValueError where mismatched tensors meet.

model_forward and model_gradients compute in the dtype
np.result_type(input dtype, float32): float32 input (the samples of a
SampleSet) runs in float32, float64 or int64 input runs in float64. The
code path is the same for both: each call casts the parameters to that
dtype once (astype without copy, so the float64 path copies nothing), the
workspace buffers and the LSTM arrays take it, and the float32 path
returns float32 trace arrays and gradients. The final softmax, the
probabilities and the loss are float64 for either. The public
single-layer functions batchnorm_eval, elu and avgpool compute in float64.

batchnorm_eval serves both modes: it standardizes with the statistics it
is given, running ones in eval mode and batch ones in train mode, in the
train path's order: xhat = (x - mean) * inv_std, then gamma * xhat + beta.
In the network every per-channel sum of batch norm (the mean, the
two-pass centered variance, dbeta and dgamma) is one BLAS product
ones @ x over the [B * n, K] rows, the train-mode forward keeps xhat for
the backward, and eval mode applies one scale, gamma / sqrt(run_var +
eps), and one shift. Per-channel vectors are tiled over the n points, so
that each ufunc runs one long inner loop instead of one per point.

The backward passes reuse what the forward holds. For x <= 0 the ELU slope is
exp(x) = elu(x) + 1, so it needs no second exp. In batch norm, with
dxhat = gamma * dout, sum(dxhat) = gamma * dbeta and sum(dxhat * xhat) =
gamma * dgamma, so dx = gamma * inv_std * (dout - (dbeta + xhat * dgamma) / N):
a * dout + b * xhat + c with per-channel a, b and c, built in dout's buffer.
ELU is max(expm1(min(x, 0)), x) and pooling adds each window's points in
order, then divides: the values of expm1(min(x, 0)) + max(x, 0) and of
np.mean, in fewer passes.

The conv -> batch norm -> ELU -> pool block keeps its activations
channels-last, [B, n, K], the layout the conv matmul writes: batch
statistics reduce over axes (0, 1), each layer fills one buffer per call
in place, pooling adds the pool-axis slices of a [B, T, pool, K] reshape
into the LSTM's [B, T, K] input, and the backward broadcasts each
window's gradient over that axis instead of repeating it.
The trace exposes [B, K, n] and [B, K, T] transposed views of these
buffers, the layout the public batchnorm_eval, elu and avgpool take. The
conv has no bias: batch norm subtracts each channel's mean, which would
cancel it. Model files keep a zero conv.b (see load_params).

The forward and backward passes write every [B, n, L] window array and
every [B, n, K] activation, gradient and temporary into a Workspace (from
numerics), which allocates each buffer once and hands a shorter batch the
leading rows of its memory, so
the steps of a training run after its first map no fresh pages for them.
Only the destinations of the ufuncs differ from fresh arrays, so the bits
are the same. A trace built on a workspace holds views of its buffers: it
is valid until that workspace's next use. model_forward and
model_gradients make a fresh workspace when given none, so a trace made
without one stays valid.

The LSTM's weights are kept stacked, one [4D, ...] tensor each for the
input weights, the recurrent weights and the biases, with row blocks in
gate order i, f, g, o, so every step is one gate matmul forward and
backward. A forward step takes one tanh for all four gates, as
sigmoid(a) = 0.5 + 0.5 * tanh(a / 2): the exact halving is folded into
the input projection and the recurrent weights, and one per-block scale
and shift turn tanh into the sigmoid gates and leave g's tanh as it is.
Model files keep one tensor per gate (lstm.W_i ... lstm.b_o);
_TENSOR_ATTRS maps each to its row block.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np

from .binio import FormatError, check_version, expect_magic, read_exact, read_u16, read_u32
from .numerics import Rng, Workspace, assert_finite, softmax_rows

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # new_running = (1 - m) * old + m * batch
N_CLASSES = 2  # labels are 0 (alert) and 1 (drowsy); also the LSTM hidden size
POOL = 8  # input points per LSTM step


# Serialized tensor names, in canonical file order. Each maps to the
# parameter attribute that holds it and, for the LSTM, its row block in
# gate order i, f, g, o (None: the whole tensor); conv_b is file-only.
_TENSOR_ATTRS: dict[str, tuple[str, int | None]] = {
    "conv.w": ("conv_w", None),
    "conv.b": ("conv_b", None),
    "bn.gamma": ("bn_gamma", None),
    "bn.beta": ("bn_beta", None),
    "bn.run_mean": ("bn_run_mean", None),
    "bn.run_var": ("bn_run_var", None),
    "lstm.W_i": ("lstm_w", 0),
    "lstm.W_f": ("lstm_w", 1),
    "lstm.W_g": ("lstm_w", 2),
    "lstm.W_o": ("lstm_w", 3),
    "lstm.U_i": ("lstm_u", 0),
    "lstm.U_f": ("lstm_u", 1),
    "lstm.U_g": ("lstm_u", 2),
    "lstm.U_o": ("lstm_u", 3),
    "lstm.b_i": ("lstm_b", 0),
    "lstm.b_f": ("lstm_b", 1),
    "lstm.b_g": ("lstm_b", 2),
    "lstm.b_o": ("lstm_b", 3),
}
_BUFFER_ATTRS = ("bn_run_mean", "bn_run_var")


@dataclass
class ModelParams:
    """All tensors of the model: learnable weights plus the batch-norm
    running statistics (buffers, excluded from gradients).

    The LSTM is stored stacked: each of ``lstm_w``, ``lstm_u`` and
    ``lstm_b`` holds four row blocks of D rows in gate order input, forget,
    cell candidate, output. Model files keep one tensor per gate block."""

    conv_w: np.ndarray  # [kernels, 1, kernel_len]
    bn_gamma: np.ndarray
    bn_beta: np.ndarray
    bn_run_mean: np.ndarray
    bn_run_var: np.ndarray
    lstm_w: np.ndarray  # [4 * classes, kernels]
    lstm_u: np.ndarray  # [4 * classes, classes]
    lstm_b: np.ndarray  # [4 * classes]

    def learnable_items(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)
                if f.name not in _BUFFER_ATTRS]

    def copy(self) -> "ModelParams":
        return ModelParams(**{f.name: getattr(self, f.name).copy() for f in fields(self)})

    def astype(self, dtype) -> "ModelParams":
        """The tensors in ``dtype``; those already in it are shared, not copied."""
        return ModelParams(**{f.name: getattr(self, f.name).astype(dtype, copy=False)
                              for f in fields(self)})


def _compute_dtype(x: np.ndarray) -> np.dtype:
    # float32 stays float32; float64 and integer input compute in float64.
    return np.result_type(x.dtype, np.float32)


def _glorot(rng: Rng, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(shape, -bound, bound)


def init_params(rng: Rng, kernels: int = 32, kernel_len: int = 64) -> ModelParams:
    """Glorot-uniform weights, zero biases except a forget bias of 1,
    identity batch-norm affine, unit running variance. Deterministic in
    the generator's seed (fixed draw order). The defaults give the
    full-size model: 32 kernels of length 64, which over a 384-point input
    pooled by POOL make a 48-step sequence with a 2-dimensional hidden
    state."""
    k, length, d = kernels, kernel_len, N_CLASSES
    conv_w = _glorot(rng, (k, 1, length), fan_in=1 * length, fan_out=k * length)
    lstm_w = _glorot(rng, (4 * d, k), fan_in=k, fan_out=d)
    lstm_u = _glorot(rng, (4 * d, d), fan_in=d, fan_out=d)
    lstm_b = np.zeros(4 * d)
    lstm_b[d : 2 * d] = 1.0  # forget gate
    return ModelParams(
        conv_w=conv_w,
        bn_gamma=np.ones(k),
        bn_beta=np.zeros(k),
        bn_run_mean=np.zeros(k),
        bn_run_var=np.ones(k),
        lstm_w=lstm_w,
        lstm_u=lstm_u,
        lstm_b=lstm_b,
    )


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


def _conv_windows(x2: np.ndarray, kernel_len: int, ws: Workspace) -> np.ndarray:
    # x2: [B, n] -> contiguous [B, n, kernel_len] windows of the padded signal.
    batch, n = x2.shape
    left = (kernel_len - 1) // 2
    xpad = ws.take("xpad", (batch, n + kernel_len - 1), x2.dtype)
    xpad[:, :left] = 0.0
    xpad[:, left:left + n] = x2
    xpad[:, left + n:] = 0.0
    windows = ws.take("windows", (batch, n, kernel_len), x2.dtype)
    np.copyto(windows, np.lib.stride_tricks.sliding_window_view(xpad, kernel_len, axis=1))
    return windows


def _conv_apply(windows: np.ndarray, w: np.ndarray, ws: Workspace) -> np.ndarray:
    # Correlate [B, n, L] windows with kernels [K, 1, L] -> [B, n, K].
    batch, n, length = windows.shape
    out = ws.take("conv", (batch, n, w.shape[0]), windows.dtype)
    np.matmul(windows.reshape(batch * n, length), w[:, 0, :].T, out=out.reshape(batch * n, -1))
    return out


def _conv_backward(dout, windows):
    # Kernel gradient only: the input is the data, so no gradient flows
    # further back.
    batch, n, k = dout.shape
    dw2 = dout.reshape(batch * n, k).T @ windows.reshape(batch * n, windows.shape[2])
    return dw2[:, None, :]


def _channel_sum(x):
    # Per-channel sum of a channels-last [..., K] array as one BLAS product.
    rows = x.reshape(-1, x.shape[-1])
    return np.ones(rows.shape[0], rows.dtype) @ rows


def _per_point(v, x):
    # A per-channel [K] vector repeated over the n points of a channels-last
    # [B, n, K] x. Against a [K] vector a ufunc on x loops over K elements at
    # a time; against this [n, K] array, over n * K. The bits are the same.
    return np.tile(v, (x.shape[1], 1))


def batchnorm_eval(x, gamma, beta, mean, var):
    """Per-channel standardization of a [B, K, n] activation with the
    statistics it is given: the running statistics in eval mode, the batch
    statistics in train mode."""
    out = np.subtract(np.asarray(x, dtype=np.float64).transpose(0, 2, 1), mean)
    out *= 1.0 / np.sqrt(var + BN_EPS)
    out *= gamma
    out += beta
    return out.transpose(0, 2, 1)


def _batchnorm_running(x, params: ModelParams, out):
    # Eval mode on channels-last x: the running statistics and the affine
    # folded into one per-channel scale and one shift.
    scale = params.bn_gamma / np.sqrt(params.bn_run_var + BN_EPS)
    np.multiply(x, _per_point(scale, x), out=out)
    out += _per_point(params.bn_beta - params.bn_run_mean * scale, x)
    return out


def _batchnorm_train(x, gamma, beta, ws: Workspace):
    # Channels-last [B, n, K]. Returns the output, the standardized xhat
    # (kept for the backward) and the batch statistics. The output buffer
    # first holds the squares of the two-pass centered variance.
    if x.shape[0] < 2:
        raise ValueError("batch norm in train mode needs a batch of at least 2")
    count = x.shape[0] * x.shape[1]
    mean = _channel_sum(x) / count
    xhat = np.subtract(x, _per_point(mean, x), out=ws.take("xhat", x.shape, x.dtype))
    out = np.square(xhat, out=ws.take("bn", x.shape, x.dtype))
    var = _channel_sum(out) / count
    xhat *= _per_point(1.0 / np.sqrt(var + BN_EPS), x)
    np.multiply(xhat, _per_point(gamma, x), out=out)
    out += _per_point(beta, x)
    return out, xhat, mean, var


def updated_running_stats(params: ModelParams, batch_mean, batch_var):
    new_mean = (1.0 - BN_MOMENTUM) * params.bn_run_mean + BN_MOMENTUM * batch_mean
    new_var = (1.0 - BN_MOMENTUM) * params.bn_run_var + BN_MOMENTUM * batch_var
    return new_mean, new_var


def _batchnorm_backward(dout, xhat, var, gamma, ws: Workspace):
    # Channels-last [B, n, K]; dx = a * dout + b * xhat + c is built in
    # place in dout's buffer.
    count = dout.shape[0] * dout.shape[1]
    dbeta = _channel_sum(dout)
    tmp = np.multiply(dout, xhat, out=ws.take("tmp", dout.shape, dout.dtype))
    dgamma = _channel_sum(tmp)
    a = gamma / np.sqrt(var + BN_EPS)
    np.multiply(xhat, _per_point(a * dgamma / -count, xhat), out=tmp)
    dout *= _per_point(a, dout)
    dout += tmp
    dout += _per_point(a * dbeta / -count, dout)
    return dout, dgamma, dbeta


def _elu(x, out):
    # expm1(min(x, 0)) is 0.0 for x > 0 and at least x otherwise, so each
    # element is x or expm1(x) (-0.0 stays -0.0: on a tie np.maximum
    # returns its second argument), with no exp of positive values.
    np.minimum(x, 0.0, out=out)
    np.expm1(out, out=out)
    return np.maximum(out, x, out=out)


def elu(x: np.ndarray) -> np.ndarray:
    """Exponential linear unit, alpha = 1."""
    x = np.asarray(x, dtype=np.float64)
    return _elu(x, np.empty_like(x))


def _elu_backward(dout, elu_out, ws: Workspace):
    # dout may broadcast against elu_out; the result has elu_out's shape.
    grad = np.minimum(elu_out, 0.0, out=ws.take("slope", elu_out.shape, elu_out.dtype))
    grad += 1.0
    grad *= dout
    return grad


def _avgpool(x, pool, out):
    # Channels-last [B, n, K] -> [B, n / pool, K]: the window's points
    # added in order, then divided by pool, as np.mean does.
    b, n, k = x.shape
    windows = x.reshape(b, n // pool, pool, k)
    np.copyto(out, windows[:, :, 0])
    for j in range(1, pool):
        out += windows[:, :, j]
    out /= pool
    return out


def avgpool(x: np.ndarray, pool: int) -> np.ndarray:
    """Non-overlapping temporal average pooling of a [B, K, n] activation."""
    x = np.asarray(x, dtype=np.float64)
    b, k, n = x.shape
    if n % pool != 0:
        raise ValueError(f"temporal length {n} not divisible by pool {pool}")
    out = np.empty((b, n // pool, k))
    return _avgpool(x.transpose(0, 2, 1), pool, out).transpose(0, 2, 1)


@dataclass
class LstmCache:
    xs: np.ndarray  # [B, T, K]
    gates: np.ndarray  # [T, B, 4D] gate activations, blocks i, f, g, o
    c: np.ndarray  # cell states c_1..c_T
    tanh_c: np.ndarray
    h: np.ndarray  # [T+1, B, D], h[0] = 0


def lstm_forward(xs: np.ndarray, params: ModelParams) -> tuple[np.ndarray, LstmCache]:
    """Run the forget-gate LSTM (no peepholes) over a [B, T, K] sequence
    from zero initial hidden and cell states.

    Returns the hidden-state sequence h_1..h_T as [T, B, D] plus the cache
    needed for backpropagation through time, computed in the dtype that
    model_forward would use for the same input.
    """
    xs = np.asarray(xs)
    dtype = _compute_dtype(xs)
    xs = xs.astype(dtype, copy=False)
    params = params.astype(dtype)
    batch, steps, _ = xs.shape
    d = params.lstm_u.shape[1]
    # sigmoid(a) = 0.5 + 0.5 * tanh(a / 2); block g keeps tanh(a)
    half = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype), d)
    shift = np.repeat(np.array([0.5, 0.5, 0.0, 0.5], dtype), d)
    proj = xs.reshape(batch * steps, -1) @ params.lstm_w.T  # input part of all gates
    proj += params.lstm_b
    proj *= half
    u_half = params.lstm_u.T * half

    gates = np.empty((steps, batch, 4 * d), dtype)
    gates[...] = proj.reshape(batch, steps, 4 * d).transpose(1, 0, 2)
    c_seq = np.empty((steps, batch, d), dtype)
    tanh_c = np.empty((steps, batch, d), dtype)
    h_seq = np.zeros((steps + 1, batch, d), dtype)
    c_prev = np.zeros((batch, d), dtype)
    recurrent = np.empty((batch, 4 * d), dtype)
    i_g = np.empty((batch, d), dtype)
    for t in range(steps):
        a = gates[t]  # holds the scaled input part; becomes the activations
        a += np.matmul(h_seq[t], u_half, out=recurrent)
        np.tanh(a, out=a)
        a *= half
        a += shift
        c = np.multiply(a[:, d:2 * d], c_prev, out=c_seq[t])
        c += np.multiply(a[:, :d], a[:, 2 * d:3 * d], out=i_g)
        np.tanh(c, out=tanh_c[t])
        np.multiply(a[:, 3 * d:], tanh_c[t], out=h_seq[t + 1])
        c_prev = c
    cache = LstmCache(xs=xs, gates=gates, c=c_seq, tanh_c=tanh_c, h=h_seq)
    return h_seq[1:], cache


def _lstm_backward(dh_last: np.ndarray, cache: LstmCache, params: ModelParams):
    # Backpropagation through time. Only the recurrence runs step by step;
    # the parameter gradients and the input gradient are one matmul each
    # over the pre-activation gradients of all T * B rows. dh_last and
    # params are in the cache's dtype.
    xs = cache.xs
    batch, steps, k = xs.shape
    d = dh_last.shape[1]
    i, f, g, o = np.split(cache.gates, 4, axis=2)  # [T, B, D] each
    c_prev = np.zeros_like(cache.c)
    c_prev[1:] = cache.c[:-1]
    # Gradient of each gate's pre-activation per unit of the cell gradient
    # (blocks i, f, g) or of the hidden-state gradient (block o).
    local = np.empty((steps, batch, 4, d), xs.dtype)
    local[:, :, 0] = g * i * (1.0 - i)
    local[:, :, 1] = c_prev * f * (1.0 - f)
    local[:, :, 2] = i * (1.0 - g * g)
    local[:, :, 3] = cache.tanh_c * o * (1.0 - o)
    dh_dc = o * (1.0 - cache.tanh_c * cache.tanh_c)
    da = np.empty_like(local)
    dh = dh_last
    dc = np.zeros((batch, d), xs.dtype)
    for t in range(steps - 1, -1, -1):
        dc += dh * dh_dc[t]
        np.multiply(dc[:, None, :], local[t, :, :3], out=da[t, :, :3])
        np.multiply(dh, local[t, :, 3], out=da[t, :, 3])
        dh = da[t].reshape(batch, 4 * d) @ params.lstm_u
        dc *= f[t]
    da = da.reshape(steps * batch, 4 * d)  # rows ordered (t, b)
    grads = {
        "lstm_w": da.T @ xs.transpose(1, 0, 2).reshape(steps * batch, k),
        "lstm_u": da.T @ cache.h[:-1].reshape(steps * batch, d),
        "lstm_b": da.sum(axis=0),
    }
    dxs = (da @ params.lstm_w).reshape(steps, batch, k).transpose(1, 0, 2)
    return dxs, grads


@dataclass
class ForwardTrace:
    """Everything the backward pass (and the interpreter) needs."""

    conv_windows: np.ndarray  # [B, n, L]
    conv_out: np.ndarray  # [B, K, n], a view of the channels-last buffer
    bn_xhat: np.ndarray | None  # [B, n, K] channels-last, standardized conv_out (train only)
    bn_out: np.ndarray  # [B, K, n] view
    bn_mean: np.ndarray | None  # batch statistics (train mode only)
    bn_var: np.ndarray | None
    elu_out: np.ndarray  # [B, K, n] view
    pool_out: np.ndarray  # [B, K, T], a view of the LSTM input
    lstm_cache: LstmCache
    hidden: np.ndarray  # [T, B, D], h_1..h_T
    probs: np.ndarray  # [B, D]


def model_forward(
    batch: np.ndarray, params: ModelParams, mode: str, workspace: Workspace | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Full forward pass over a [B, 1, n] batch, n a positive multiple of POOL.

    Returns per-class probabilities [B, N_CLASSES] (rows sum to 1, float64)
    and the forward trace. Pure: running statistics are not touched;
    train-mode batch statistics are reported in the trace for the caller.
    The activations are computed in float32 for float32 input and in
    float64 otherwise, into ``workspace`` (a fresh one when None), and the
    trace is valid until that workspace's next use.
    """
    x = np.asarray(batch)
    dtype = _compute_dtype(x)
    x = x.astype(dtype, copy=False)
    if x.ndim != 3 or x.shape[1] != 1 or x.shape[2] == 0 or x.shape[2] % POOL:
        raise ValueError(f"expected batch [B, 1, n] with n a multiple of {POOL}, got {x.shape}")
    assert_finite(x, "model input")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")

    params = params.astype(dtype)
    ws = Workspace() if workspace is None else workspace
    windows = _conv_windows(x[:, 0, :], params.conv_w.shape[2], ws)
    conv_out = _conv_apply(windows, params.conv_w, ws)  # [B, n, K]
    shape = conv_out.shape
    if mode == "train":
        bn_out, xhat, mean, var = _batchnorm_train(conv_out, params.bn_gamma, params.bn_beta, ws)
    else:
        bn_out = _batchnorm_running(conv_out, params, ws.take("bn", shape, dtype))
        xhat = mean = var = None
    elu_out = _elu(bn_out, ws.take("elu", shape, dtype))
    lstm_in = _avgpool(elu_out, POOL, ws.take("pool", (shape[0], shape[1] // POOL, shape[2]),
                                              dtype))  # [B, T, K]
    hidden, lstm_cache = lstm_forward(lstm_in, params)
    assert_finite(hidden[-1], f"the LSTM output, from a {dtype.name} overflow in the network")
    probs = softmax_rows(hidden[-1])
    trace = ForwardTrace(
        conv_windows=windows,
        conv_out=conv_out.transpose(0, 2, 1),
        bn_xhat=xhat,
        bn_out=bn_out.transpose(0, 2, 1),
        bn_mean=mean,
        bn_var=var,
        elu_out=elu_out.transpose(0, 2, 1),
        pool_out=lstm_in.transpose(0, 2, 1),
        lstm_cache=lstm_cache,
        hidden=hidden,
        probs=probs,
    )
    return probs, trace


def cross_entropy(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood; probabilities clamped at 1e-12."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels)
    picked = probabilities[np.arange(labels.size), labels]
    return float(-np.mean(np.log(np.maximum(picked, 1e-12))))


def model_gradients(
    batch: np.ndarray,
    labels: np.ndarray,
    params: ModelParams,
    workspace: Workspace | None = None,
) -> tuple[float, dict[str, np.ndarray], ForwardTrace]:
    """Mean cross-entropy loss and its exact gradients for one train batch.

    Gradients are returned as a dict keyed by parameter attribute name
    (running statistics excluded), in the compute dtype of model_forward.
    The trace is included so the training loop can update running
    statistics from the batch statistics. The activations and their
    gradients are computed into ``workspace`` (a fresh one when None); the
    returned gradients are fresh arrays.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != np.shape(batch)[0]:
        raise ValueError("labels must be a vector matching the batch size")
    if labels.min() < 0 or labels.max() >= N_CLASSES:
        raise ValueError("labels out of range")
    ws = Workspace() if workspace is None else workspace
    params = params.astype(_compute_dtype(np.asarray(batch)))
    probs, trace = model_forward(batch, params, "train", ws)
    loss = cross_entropy(probs, labels)
    if not np.isfinite(loss):
        raise ValueError("non-finite training loss")

    b = probs.shape[0]
    onehot = np.zeros_like(probs)
    onehot[np.arange(b), labels] = 1.0
    # Softmax + cross-entropy identity, from the float64 probabilities.
    dh_last = ((probs - onehot) / b).astype(params.lstm_u.dtype)

    dxs, lstm_grads = _lstm_backward(dh_last, trace.lstm_cache, params)  # [B, T, K]
    elu_out = trace.elu_out.transpose(0, 2, 1)  # channels-last [B, n, K]
    pooled_windows = elu_out.reshape(b, -1, POOL, elu_out.shape[2])
    # Average-pool backward: each window's gradient / pool, broadcast over it.
    dbn_out = _elu_backward((dxs / POOL)[:, :, None, :],
                            pooled_windows, ws).reshape(elu_out.shape)
    dconv, dgamma, dbeta = _batchnorm_backward(
        dbn_out, trace.bn_xhat, trace.bn_var, params.bn_gamma, ws)
    grads: dict[str, np.ndarray] = {
        "conv_w": _conv_backward(dconv, trace.conv_windows),
        "bn_gamma": dgamma,
        "bn_beta": dbeta,
    }
    grads.update(lstm_grads)
    for name, g in grads.items():
        assert_finite(g, f"gradient of {name}")
    return loss, grads, trace


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

_MODEL_MAGIC = b"EGLM"


def _gate_rows(array: np.ndarray, block: int | None) -> np.ndarray:
    """The view of a parameter array that one file tensor holds."""
    return array if block is None else np.split(array, 4)[block]


def save_params(params: ModelParams, path) -> None:
    """Write all tensors to a named-tensor model file (binary32 values),
    with conv.b as zeros."""
    tensors = dict(vars(params), conv_b=np.zeros(params.conv_w.shape[0]))
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<II", 1, len(_TENSOR_ATTRS)))
        for name, (attr, block) in _TENSOR_ATTRS.items():
            arr = np.asarray(_gate_rows(tensors[attr], block), dtype=np.float32)
            encoded = name.encode("ascii")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes(order="C"))


def load_params(path, kernels: int = 32, kernel_len: int = 64) -> ModelParams:
    """Read a model file back; raises FormatError on bad magic or version,
    unknown, duplicate or missing tensor names, shape mismatches,
    non-finite values, or truncation. A non-zero conv.b, from a model that
    trained one, is folded into bn.run_mean: (conv + b) - mean = conv - (mean - b)."""
    known = {name.encode("ascii"): (name, attr, block)
             for name, (attr, block) in _TENSOR_ATTRS.items()}
    d = N_CLASSES
    tensors = {attr: np.empty(kernels) for attr in (
        "conv_b", "bn_gamma", "bn_beta", "bn_run_mean", "bn_run_var")}
    tensors.update(conv_w=np.empty((kernels, 1, kernel_len)), lstm_w=np.empty((4 * d, kernels)),
                   lstm_u=np.empty((4 * d, d)), lstm_b=np.empty(4 * d))
    seen: set[str] = set()
    with open(path, "rb") as fh:
        expect_magic(fh, _MODEL_MAGIC)
        version = read_u32(fh, "version")
        check_version(version, 1, "model file")
        count = read_u32(fh, "tensor count")
        for _ in range(count):
            name_len = read_u16(fh, "tensor name length")
            raw_name = read_exact(fh, name_len, "tensor name")
            if raw_name not in known:
                raise FormatError(f"unknown tensor name {raw_name!r}")
            name, attr, block = known[raw_name]
            target = _gate_rows(tensors[attr], block)
            rank = read_exact(fh, 1, "tensor rank")[0]
            dims = struct.unpack(f"<{rank}I", read_exact(fh, 4 * rank, "tensor dims"))
            if tuple(dims) != target.shape:
                raise FormatError(
                    f"tensor {name!r} has shape {tuple(dims)}, expected {target.shape}"
                )
            n_vals = int(np.prod(dims)) if dims else 1
            raw = read_exact(fh, 4 * n_vals, f"values of {name!r}")
            with np.errstate(invalid="ignore"):  # a signalling NaN; refused below
                arr = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(dims)
            if not np.all(np.isfinite(arr)):
                raise FormatError(f"tensor {name!r} has non-finite values")
            if name in seen:
                raise FormatError(f"duplicate tensor {name!r}")
            seen.add(name)
            target[...] = arr
    missing = [name for name in _TENSOR_ATTRS if name not in seen]
    if missing:
        raise FormatError(f"missing tensors: {', '.join(missing)}")
    if np.any(tensors["bn_run_var"] <= 0.0):
        raise FormatError("bn.run_var must be positive")
    tensors["bn_run_mean"] -= tensors.pop("conv_b")
    return ModelParams(**tensors)
