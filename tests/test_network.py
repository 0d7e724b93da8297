import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drowse
from drowse.binio import FormatError
from drowse.dataio import generate_synthetic
from drowse.network import (
    BN_EPS,
    POOL,
    ModelParams,
    avgpool,
    batchnorm_eval,
    cross_entropy,
    elu,
    init_params,
    load_params,
    lstm_forward,
    model_forward,
    model_gradients,
    save_params,
    updated_running_stats,
    _avgpool,
    _batchnorm_backward,
    _batchnorm_train,
    _channel_sum,
    _conv_apply,
    _conv_windows,
    _elu,
    _elu_backward,
    _lstm_backward,
)
from drowse.numerics import Rng, Workspace, softmax_rows

REDUCED = (4, 8)  # kernels and kernel length of the small model, on 48-point inputs


def naive_conv(x, w):
    """Reference O(n*k) sliding dot product on the explicitly padded signal."""
    batch, _, n = x.shape
    k, _, length = w.shape
    left = (length - 1) // 2
    out = np.zeros((batch, k, n))
    for bi in range(batch):
        xpad = np.concatenate([np.zeros(left), x[bi, 0], np.zeros(length - 1 - left)])
        for j in range(k):
            for t in range(n):
                acc = 0.0
                for tap in range(length):
                    acc += w[j, 0, tap] * xpad[t + tap]
                out[bi, j, t] = acc
    return out


def loss_of(params, batch, labels):
    probs, _ = model_forward(batch, params, "train")
    return cross_entropy(probs, labels)


class TestInit:
    def test_deterministic(self):
        a = init_params(Rng(7))
        b = init_params(Rng(7))
        for (_, ta), (_, tb) in zip(a.learnable_items(), b.learnable_items()):
            np.testing.assert_array_equal(ta, tb)

    def test_conv_bound(self):
        p = init_params(Rng(3))
        bound = math.sqrt(6.0 / (1 * 64 + 32 * 64))
        assert np.abs(p.conv_w).max() <= bound
        # Glorot-uniform draws should come close to the bound.
        assert np.abs(p.conv_w).max() > 0.9 * bound

    def test_bias_init(self):
        p = init_params(Rng(1))
        np.testing.assert_array_equal(p.lstm_b[2:4], [1.0, 1.0])
        np.testing.assert_array_equal(p.bn_gamma, np.ones(32))
        np.testing.assert_array_equal(p.bn_run_var, np.ones(32))


class TestConv:
    def test_delta_kernel_identity(self):
        rng = Rng(5)
        x = rng.normal((3, 1, 384))
        w = np.zeros((32, 1, 64))
        w[:, 0, 31] = 1.0
        ws = Workspace()
        out = _conv_apply(_conv_windows(x[:, 0, :], 64, ws), w, ws)
        for j in range(32):
            np.testing.assert_allclose(out[:, :, j], x[:, 0, :], atol=1e-12)

    def test_ones_kernel_constant_interior(self):
        c = 2.5
        x = np.full((1, 1, 384), c)
        ws = Workspace()
        out = _conv_apply(_conv_windows(x[:, 0, :], 64, ws), np.ones((1, 1, 64)), ws)
        np.testing.assert_allclose(out[0, 32:320, 0], 64 * c, atol=1e-9)

    def test_matches_naive(self):
        rng = Rng(8)
        x = rng.normal((2, 1, 20))
        w = rng.normal((3, 1, 5))
        ws = Workspace()
        out = _conv_apply(_conv_windows(x[:, 0, :], 5, ws), w, ws)  # [B, n, K]
        np.testing.assert_allclose(out, naive_conv(x, w).transpose(0, 2, 1), atol=1e-12)

    def test_shape_mismatch(self):
        # model_forward refuses a bad input shape; numpy, parameters that disagree
        p = init_params(Rng(5))
        with pytest.raises(ValueError):
            model_forward(np.zeros((2, 2, 384)), p, "eval")
        p.bn_beta = np.zeros(31)
        with pytest.raises(ValueError):
            model_forward(np.zeros((2, 1, 384)), p, "eval")


class TestBatchNorm:
    # _batchnorm_train takes channels-last [B, n, K] activations.
    def test_train_standardizes(self):
        rng = Rng(2)
        x = rng.normal((4, 384, 32), mean=3.0, std=2.0)
        out = _batchnorm_train(x, np.ones(32), np.zeros(32), Workspace())[0]
        np.testing.assert_allclose(out.mean(axis=(0, 1)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=(0, 1)), 1.0, atol=1e-4)

    def test_zero_variance_channel(self):
        x = np.full((3, 16, 2), 5.0)
        beta = np.array([0.25, -0.5])
        out = _batchnorm_train(x, np.ones(2), beta, Workspace())[0]
        np.testing.assert_allclose(out[:, :, 0], 0.25, atol=1e-3)
        np.testing.assert_allclose(out[:, :, 1], -0.5, atol=1e-3)

    def test_eval_identity(self):
        rng = Rng(9)
        x = rng.normal((2, 4, 12))
        out = batchnorm_eval(x, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4))
        np.testing.assert_allclose(out, x / math.sqrt(1.0 + 1e-5), atol=1e-12)

    def test_single_sample_train_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            _batchnorm_train(np.zeros((1, 12, 4)), np.ones(4), np.zeros(4), Workspace())

    def test_float32_channel_sum_is_near_the_float64_sum(self):
        # 19 200 terms per channel, summed by one BLAS product in float32;
        # the error is measured against the largest channel's sum of |x|.
        x = Rng(41).normal((50, 384, 32), mean=2.0, std=3.0).astype(np.float32)
        exact = x.astype(np.float64).sum(axis=(0, 1))
        scale = np.abs(x.astype(np.float64)).sum(axis=(0, 1)).max()
        assert _channel_sum(x).dtype == np.float32
        assert np.abs(_channel_sum(x) - exact).max() <= 4e-6 * scale

    def test_eval_scale_and_shift_match_batchnorm_eval(self):
        data = generate_synthetic(2, 10, 4)
        p = perturbed_params(5)
        p.bn_run_mean = np.linspace(-0.3, 0.4, 32)
        p.bn_run_var = np.linspace(0.2, 3.0, 32)
        _, trace = model_forward(data.data[:, None, :].astype(np.float64), p, "eval")
        want = batchnorm_eval(trace.conv_out, p.bn_gamma, p.bn_beta, p.bn_run_mean,
                              p.bn_run_var)
        assert_close_normwise(trace.bn_out, want)

    def test_running_update(self):
        p = init_params(Rng(1))
        mean, var = updated_running_stats(p, np.full(32, 2.0), np.full(32, 4.0))
        np.testing.assert_allclose(mean, 0.2)
        np.testing.assert_allclose(var, 0.9 * 1.0 + 0.1 * 4.0)


class TestElu:
    def test_values(self):
        np.testing.assert_allclose(elu(np.array([0.0, 1.0])), [0.0, 1.0])
        assert elu(np.array([-1.0]))[0] == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-12)

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for x0 in (0.5, -0.5):
            x = np.array([x0])
            numeric = (elu(x + h) - elu(x - h)) / (2 * h)
            analytic = _elu_backward(np.ones(1), elu(x), Workspace())
            np.testing.assert_allclose(analytic, numeric, atol=1e-8)


class TestLayerBits:
    """ELU and pooling keep the values of their earlier formulas, in both
    compute dtypes (the sign of a zero ELU output may differ)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_elu_and_pool_match_the_earlier_formulas(self, dtype):
        x = Rng(43).normal((6, 64, 5), std=4.0).astype(dtype)
        x[0, :8] = 0.0
        x[1, :8] = -1e-30
        old_elu = np.expm1(np.minimum(x, 0.0)) + np.maximum(x, 0.0)
        np.testing.assert_array_equal(_elu(x, np.empty_like(x)), old_elu)
        old_pool = x.reshape(6, 64 // POOL, POOL, 5).mean(axis=2)
        np.testing.assert_array_equal(_avgpool(x, POOL, np.empty_like(old_pool)), old_pool)


def reference_elu_backward(dout, x):
    """ELU gradient from the pre-activation, with a second exp."""
    return dout * np.where(x > 0.0, 1.0, np.exp(np.minimum(x, 0.0)))


def reference_batchnorm_backward(dout, xhat, inv_std, gamma):
    """Batch-norm gradient through dxhat and its two reductions."""
    n_stat = dout.shape[0] * dout.shape[2]
    dgamma = np.sum(dout * xhat, axis=(0, 2))
    dbeta = np.sum(dout, axis=(0, 2))
    dxhat = dout * gamma[None, :, None]
    sum_dxhat = dxhat.sum(axis=(0, 2), keepdims=True)
    sum_dxhat_xhat = np.sum(dxhat * xhat, axis=(0, 2), keepdims=True)
    dx = (inv_std[None, :, None] / n_stat) * (
        n_stat * dxhat - sum_dxhat - xhat * sum_dxhat_xhat
    )
    return dx, dgamma, dbeta


def assert_close_normwise(actual, desired):
    # Scaled by the largest magnitude: at x = -30 the ELU slope is 9e-14,
    # and elu(x) + 1 carries the rounding of a number near -1.
    assert np.max(np.abs(actual - desired)) <= 1e-12 * np.max(np.abs(desired))


class TestBackwardMatchesReference:
    """The backward passes built from forward outputs agree with the
    textbook forms on [B, K, n] inputs with edge cases planted."""

    def inputs(self, seed):
        rng = Rng(seed)
        x = rng.normal((6, 5, 40), mean=0.5, std=3.0)
        x[0, 0, :4] = 0.0
        x[1, 1, :4] = -30.0
        x[:, 3, :] = 0.1  # a constant channel
        gamma = rng.normal((5,))
        gamma[2] = 0.0
        return x, gamma, rng.normal((6, 5, 40)), rng.normal((5,))

    def test_elu_backward(self):
        for seed in range(3):
            x, _, dout, _ = self.inputs(seed)
            assert_close_normwise(_elu_backward(dout, elu(x), Workspace()),
                                  reference_elu_backward(dout, x))

    def test_batchnorm_backward(self):
        for seed in range(3):
            x, gamma, dout, beta = self.inputs(seed)
            # the production helpers take channels-last [B, n, K]
            x_cl, dout_cl = x.transpose(0, 2, 1), dout.transpose(0, 2, 1)
            _, xhat_cl, mean, var = _batchnorm_train(x_cl, gamma, beta, Workspace())
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
            # dx is built in the buffer of its dout argument, so pass a copy
            dx, dgamma, dbeta = _batchnorm_backward(dout_cl.copy(), xhat_cl, var, gamma,
                                                    Workspace())
            got = (dx.transpose(0, 2, 1), dgamma, dbeta)
            want = reference_batchnorm_backward(dout, xhat, inv_std, gamma)
            for g, w in zip(got, want):
                assert_close_normwise(g, w)
            np.testing.assert_array_equal(got[0][:, 2, :], 0.0)  # gamma = 0


def reference_model_gradients(batch, labels, params):
    """One train step in the [B, K, n] layout: the conv output as a
    transposed view, the pool gradient through np.repeat and the conv
    gradient through a transposed copy. Returns the loss and gradients."""
    length, pool = params.conv_w.shape[2], POOL
    xpad = np.pad(batch[:, 0, :], ((0, 0), ((length - 1) // 2, length // 2)))
    windows = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(xpad, length, axis=1))
    b, n, _ = windows.shape
    conv = windows.reshape(b * n, length) @ params.conv_w[:, 0, :].T
    conv = conv.reshape(b, n, -1).transpose(0, 2, 1)
    mean, var = conv.mean(axis=(0, 2)), conv.var(axis=(0, 2))
    gamma, beta = params.bn_gamma[None, :, None], params.bn_beta[None, :, None]
    inv_std = 1.0 / np.sqrt(var[None, :, None] + BN_EPS)
    bn = gamma * (conv - mean[None, :, None]) * inv_std + beta
    act = np.where(bn > 0.0, bn, np.expm1(bn))
    pooled = act.reshape(b, act.shape[1], n // pool, pool).mean(axis=3)  # [B, K, T]
    hidden, cache = lstm_forward(pooled.transpose(0, 2, 1), params)
    probs = softmax_rows(hidden[-1])
    onehot = np.zeros_like(probs)
    onehot[np.arange(b), labels] = 1.0
    dxs, grads = _lstm_backward((probs - onehot) / b, cache, params)
    dact = np.repeat(dxs.transpose(0, 2, 1) / pool, pool, axis=2)
    dbn = dact * (np.minimum(act, 0.0) + 1.0)
    xhat = (conv - mean[None, :, None]) * inv_std
    dgamma = np.sum(dbn * xhat, axis=(0, 2))
    dbeta = np.sum(dbn, axis=(0, 2))
    dconv = gamma * inv_std * (dbn - (dbeta[:, None] + xhat * dgamma[:, None]) / (b * n))
    dconv_flat = dconv.transpose(1, 0, 2).reshape(-1, b * n)
    grads.update(conv_w=(dconv_flat @ windows.reshape(b * n, length))[:, None, :],
                 bn_gamma=dgamma, bn_beta=dbeta)
    return cross_entropy(probs, labels), grads


def reference_eval_probs(batch, params, conv_b):
    """Eval-mode forward in float64 whose conv adds the bias conv_b before
    batch norm, written independently of model_forward."""
    length, pool = params.conv_w.shape[2], POOL
    xpad = np.pad(batch[:, 0, :], ((0, 0), ((length - 1) // 2, length // 2)))
    windows = np.lib.stride_tricks.sliding_window_view(xpad, length, axis=1)  # [B, n, L]
    conv = windows @ params.conv_w[:, 0, :].T + conv_b  # [B, n, K]
    bn = (params.bn_gamma * (conv - params.bn_run_mean) / np.sqrt(params.bn_run_var + BN_EPS)
          + params.bn_beta)
    act = np.where(bn > 0.0, bn, np.expm1(bn))
    b, n, k = act.shape
    hidden, _ = lstm_forward(act.reshape(b, n // pool, pool, k).mean(axis=2), params)
    return softmax_rows(hidden[-1])


def perturbed_params(seed):
    """Initial weights with a non-trivial batch-norm affine."""
    p = init_params(Rng(seed))
    p.bn_gamma = np.linspace(0.5, 1.5, 32)
    p.bn_beta = np.linspace(-0.2, 0.2, 32)
    return p


class TestChannelsLastLayout:
    def batch50(self):
        data = generate_synthetic(4, 30, 1)
        rows = Rng(3).permutation(len(data))[:50]
        return data.data[rows, None, :].astype(np.float64), data.labels[rows].astype(np.int64)

    def test_gradients_match_reference_layout(self):
        x, y = self.batch50()
        p = perturbed_params(7)
        loss, grads, _ = model_gradients(x, y, p)
        ref_loss, ref = reference_model_gradients(x, y, p)
        assert abs(loss - ref_loss) <= 1e-12 * ref_loss
        assert grads.keys() == ref.keys()
        for name in grads:
            assert_close_normwise(grads[name], ref[name])

    def test_public_layers_reproduce_the_trace(self):
        # The calls the traced benchmark suite makes on trace fields.
        x, _ = self.batch50()
        p = perturbed_params(8)
        _, trace = model_forward(x, p, "train")
        assert trace.conv_out.shape == trace.bn_out.shape == trace.elu_out.shape == (50, 32, 384)
        np.testing.assert_array_equal(elu(trace.bn_out), trace.elu_out)
        np.testing.assert_array_equal(avgpool(trace.elu_out, 8), trace.pool_out)
        np.testing.assert_array_equal(
            batchnorm_eval(trace.conv_out, p.bn_gamma, p.bn_beta, trace.bn_mean, trace.bn_var),
            trace.bn_out,
        )
        np.testing.assert_array_equal(lstm_forward(trace.pool_out.transpose(0, 2, 1), p)[0],
                                      trace.hidden)


class TestComputeDtype:
    def test_float32_gradients_agree_with_float64(self):
        x, y = TestChannelsLastLayout().batch50()
        p = perturbed_params(7)
        loss64, ref, _ = model_gradients(x, y, p)
        loss32, grads, _ = model_gradients(x.astype(np.float32), y, p)
        assert abs(loss32 - loss64) <= 1e-6 * loss64
        for name in ref:
            err = np.abs(grads[name].astype(np.float64) - ref[name]).max()
            assert err <= 1e-4 * np.abs(ref[name]).max(), name

    @pytest.mark.parametrize("dtype, compute", [
        (np.float32, np.float32), (np.float64, np.float64), (np.int64, np.float64)])
    def test_trace_and_gradients_follow_the_input(self, dtype, compute):
        rng = Rng(31)
        x = np.round(rng.normal((6, 1, 48), std=20.0)).astype(dtype)
        y = np.array([0, 1, 0, 1, 1, 0])
        p = init_params(rng, *REDUCED)
        _, grads, trace = model_gradients(x, y, p)
        arrays = {name: getattr(trace, name) for name in (
            "conv_windows", "conv_out", "bn_xhat", "bn_out", "bn_mean", "bn_var", "elu_out",
            "pool_out", "hidden")}
        arrays.update((f"lstm_cache.{name}", getattr(trace.lstm_cache, name))
                      for name in ("xs", "gates", "c", "tanh_c", "h"))
        for name, array in {**arrays, **grads}.items():
            assert array.dtype == compute, name
        eval_probs, eval_trace = model_forward(x, p, "eval")
        assert eval_trace.hidden.dtype == compute
        # The softmax, and so the probabilities, stay float64; so do params.
        assert trace.probs.dtype == eval_probs.dtype == np.float64
        assert all(tensor.dtype == np.float64 for _, tensor in p.learnable_items())


BLAS_CHILD = """
import sys
import numpy as np
from drowse import network
from drowse.dataio import generate_synthetic
from drowse.numerics import Rng
data = generate_synthetic(4, 30, 1)
x = data.data[:, None, :].astype(np.float64)
params = network.init_params(Rng(7))
loss, grads, _ = network.model_gradients(x[:50], data.labels[:50].astype(np.int64), params)
probs, _ = network.model_forward(x, params, "eval")
parts = [np.float64(loss)] + [grads[name] for name in sorted(grads)] + [probs]
sys.stdout.buffer.write(b"".join(part.tobytes() for part in parts))
"""


def test_results_do_not_depend_on_blas_thread_count():
    src = str(Path(drowse.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", BLAS_CHILD], env=env,
                             capture_output=True, timeout=120, check=True)
        outputs.append(run.stdout)
    assert len(outputs[0]) > 8 * 240 * 2
    assert outputs[0] == outputs[1]


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("setting, threads", [(None, "1"), ("2", "2")])
def test_package_import_defaults_to_one_blas_thread(setting, threads):
    src = str(Path(drowse.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = src
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    run = subprocess.run(
        [sys.executable, "-c", "import drowse, os; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert run.stdout.strip() == threads


class TestWorkspace:
    def test_reused_workspace_matches_fresh_calls(self):
        data = generate_synthetic(4, 30, 2)
        x = data.data[:, None, :].astype(np.float64)
        y = data.labels.astype(np.int64)
        p = perturbed_params(9)
        ws = Workspace()
        windows = []
        # A full batch, a short final batch (leading-row views), a full one.
        for start, rows in ((0, 50), (50, 20), (70, 50)):
            part = slice(start, start + rows)
            loss, grads, trace = model_gradients(x[part], y[part], p, ws)
            ref_loss, ref, _ = model_gradients(x[part], y[part], p)
            assert loss == ref_loss
            assert grads.keys() == ref.keys()
            for name in grads:
                np.testing.assert_array_equal(grads[name], ref[name], err_msg=name)
            assert trace.conv_out.shape == (rows, 32, 384)
            windows.append(trace.conv_windows)
        assert np.shares_memory(windows[0], windows[1])
        assert np.shares_memory(windows[0], windows[2])
        probs, _ = model_forward(x, p, "eval", ws)
        ref_probs, _ = model_forward(x, p, "eval")
        assert probs.shape == (240, 2)
        np.testing.assert_array_equal(probs, ref_probs)

    def test_alternating_dtypes_match_fresh_calls(self):
        data = generate_synthetic(4, 30, 3)
        y = data.labels[:50].astype(np.int64)
        p = perturbed_params(10)
        ws = Workspace()
        for dtype in (np.float32, np.float64, np.float32, np.float64):
            x = data.data[:50, None, :].astype(dtype)
            loss, grads, trace = model_gradients(x, y, p, ws)
            ref_loss, ref, ref_trace = model_gradients(x, y, p)
            assert loss == ref_loss
            for name in grads:
                assert grads[name].dtype == ref[name].dtype == dtype
                np.testing.assert_array_equal(grads[name], ref[name], err_msg=name)
            np.testing.assert_array_equal(trace.hidden, ref_trace.hidden)
            probs, _ = model_forward(x, p, "eval", ws)
            np.testing.assert_array_equal(probs, model_forward(x, p, "eval")[0])


class TestAvgPool:
    def test_constant(self):
        x = np.full((2, 3, 384), 1.25)
        np.testing.assert_array_equal(avgpool(x, 8), np.full((2, 3, 48), 1.25))

    def test_window_mean(self):
        x = np.arange(1.0, 9.0).reshape(1, 1, 8)
        assert avgpool(x, 8)[0, 0, 0] == pytest.approx(4.5)

    def test_output_length(self):
        assert avgpool(np.zeros((1, 32, 384)), 8).shape == (1, 32, 48)

    def test_indivisible(self):
        with pytest.raises(ValueError, match="divisible"):
            avgpool(np.zeros((1, 1, 10)), 4)


def scalar_params():
    z = np.zeros(1)
    return ModelParams(
        conv_w=np.zeros((1, 1, 1)),
        bn_gamma=np.ones(1), bn_beta=z.copy(), bn_run_mean=z.copy(), bn_run_var=np.ones(1),
        lstm_w=np.ones((4, 1)), lstm_u=np.zeros((4, 1)), lstm_b=np.zeros(4),
    )


class TestLstm:
    def test_all_zero_weights_give_zero_hidden(self):
        p = init_params(Rng(1))
        for name in ("lstm_w", "lstm_u", "lstm_b"):
            getattr(p, name)[:] = 0.0
        xs = Rng(2).normal((3, 48, 32))
        h, _ = lstm_forward(xs, p)
        np.testing.assert_array_equal(h, np.zeros((48, 3, 2)))

    def test_hand_computed_single_step(self):
        p = scalar_params()
        h, cache = lstm_forward(np.ones((1, 1, 1)), p)
        sig1 = 1.0 / (1.0 + math.exp(-1.0))
        c1 = sig1 * math.tanh(1.0)
        np.testing.assert_allclose(cache.c[0, 0, 0], c1, atol=1e-15)
        np.testing.assert_allclose(h[0, 0, 0], sig1 * math.tanh(c1), atol=1e-15)

    def test_sequence_shapes(self):
        p = init_params(Rng(4))
        h, _ = lstm_forward(Rng(5).normal((2, 48, 32)), p)
        assert h.shape == (48, 2, 2)


class TestModelForward:
    def test_rows_sum_to_one(self):
        p = init_params(Rng(11))
        probs, _ = model_forward(Rng(12).normal((5, 1, 384)), p, "train")
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_eval_deterministic(self):
        p = init_params(Rng(11))
        x = Rng(13).normal((3, 1, 384))
        a, _ = model_forward(x, p, "eval")
        b, _ = model_forward(x, p, "eval")
        np.testing.assert_array_equal(a, b)

    def test_trace_shapes(self):
        p = init_params(Rng(11))
        probs, trace = model_forward(Rng(14).normal((3, 1, 384)), p, "train")
        assert trace.conv_out.shape == (3, 32, 384)
        assert trace.pool_out.shape == (3, 32, 48)
        assert trace.hidden.shape == (48, 3, 2)
        assert probs.shape == (3, 2)

    def test_zero_lstm_params_give_coin_flip(self):
        p = init_params(Rng(11))
        for name in ("lstm_w", "lstm_u", "lstm_b"):
            getattr(p, name)[:] = 0.0
        probs, _ = model_forward(Rng(15).normal((4, 1, 384)), p, "train")
        np.testing.assert_allclose(probs, 0.5, atol=1e-12)

    def test_input_length_is_any_multiple_of_the_pool(self):
        # The architecture is the parameters': full-size params take 48 points.
        p = init_params(Rng(11))
        x = Rng(16).normal((3, 1, 48))
        probs, trace = model_forward(x, p, "eval")
        assert probs.shape == (3, 2) and trace.hidden.shape == (48 // POOL, 3, 2)
        _, grads, _ = model_gradients(x, np.array([0, 1, 1]), p)
        assert grads["conv_w"].shape == (32, 1, 64)

    def test_wrong_length_rejected(self):
        p = init_params(Rng(11))
        for n in (100, 0):
            with pytest.raises(ValueError, match="expected batch"):
                model_forward(np.zeros((2, 1, n)), p, "eval")


class TestGradients:
    def test_batch_duplication_invariance(self):
        p = init_params(Rng(21), *REDUCED)
        x = Rng(22).normal((3, 1, 48))
        y = np.array([0, 1, 0])
        _, g1, _ = model_gradients(x, y, p)
        x2 = np.concatenate([x, x], axis=0)
        y2 = np.concatenate([y, y])
        _, g2, _ = model_gradients(x2, y2, p)
        for name in g1:
            np.testing.assert_allclose(g1[name], g2[name], atol=1e-12)

    def test_finite_difference_all_params(self):
        p = init_params(Rng(23), *REDUCED)
        x = Rng(24).normal((4, 1, 48))
        y = np.array([0, 1, 1, 0])
        _, grads, _ = model_gradients(x, y, p)
        h = 1e-5
        worst = 0.0
        for name, tensor in p.learnable_items():
            flat = tensor.reshape(-1)
            g_flat = grads[name].reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss_of(p, x, y)
                flat[idx] = orig - h
                down = loss_of(p, x, y)
                flat[idx] = orig
                numeric = (up - down) / (2 * h)
                analytic = g_flat[idx]
                denom = max(abs(numeric), abs(analytic))
                if denom < 1e-6:
                    assert abs(numeric - analytic) < 1e-8, f"{name}[{idx}]"
                else:
                    rel = abs(numeric - analytic) / denom
                    worst = max(worst, rel)
                    assert rel < 1e-4, f"{name}[{idx}]: rel error {rel}"

    def test_loss_is_mean_cross_entropy(self):
        p = init_params(Rng(25), *REDUCED)
        x = Rng(26).normal((4, 1, 48))
        y = np.array([1, 0, 1, 1])
        loss, _, _ = model_gradients(x, y, p)
        probs, _ = model_forward(x, p, "train")
        expected = -np.mean(np.log(probs[np.arange(4), y]))
        assert loss == pytest.approx(expected, abs=1e-12)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        p = init_params(Rng(31))
        # Values that are exactly representable in binary32 survive bit-exactly.
        for name in [f.name for f in p.__dataclass_fields__.values()]:
            arr = getattr(p, name)
            arr[:] = np.float64(np.float32(arr))
        path = tmp_path / "m.eglm"
        save_params(p, path)
        q = load_params(path)
        for name in p.__dataclass_fields__:
            np.testing.assert_array_equal(getattr(p, name), getattr(q, name), err_msg=name)
        # And the file itself is stable under re-serialization.
        path2 = tmp_path / "m2.eglm"
        save_params(q, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_conv_bias_of_older_files_is_folded_into_the_running_mean(self, tmp_path):
        # Files written by models that still trained a conv bias may hold a
        # non-zero conv.b. Loaded, they must evaluate as a forward pass that
        # adds that bias before batch norm.
        p = perturbed_params(37)
        p.bn_run_mean = np.linspace(-0.5, 0.5, 32)
        p.bn_run_var = np.linspace(0.5, 2.0, 32)
        for name in p.__dataclass_fields__:
            getattr(p, name)[...] = np.float32(getattr(p, name))
        path = tmp_path / "m.eglm"
        save_params(p, path)
        tensors = read_eglm(path)
        assert len(tensors) == 18
        np.testing.assert_array_equal(tensors["conv.b"], np.zeros(32, np.float32))
        write_eglm(tmp_path / "copy.eglm", tensors)
        assert (tmp_path / "copy.eglm").read_bytes() == path.read_bytes()

        bias = np.where(np.arange(32) % 2 == 0, 0.3, -0.3).astype(np.float32)
        write_eglm(path, {**tensors, "conv.b": bias})
        q = load_params(path)
        x = generate_synthetic(2, 10, 5).data[:8, None, :].astype(np.float64)
        probs, _ = model_forward(x, q, "eval")
        ref = reference_eval_probs(x, p, bias.astype(np.float64))
        np.testing.assert_allclose(probs, ref, rtol=1e-12, atol=0.0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.eglm"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            load_params(path)

    def test_missing_tensor(self, tmp_path):
        p = init_params(Rng(32))
        path = tmp_path / "m.eglm"
        save_params(p, path)
        raw = path.read_bytes()
        # Drop the trailing tensor (lstm.b_o) and fix the count.
        name = b"lstm.b_o"
        cut = raw.rindex(name) - 2
        trimmed = raw[:8] + (17).to_bytes(4, "little") + raw[12:cut]
        path.write_bytes(trimmed)
        with pytest.raises(FormatError, match="missing"):
            load_params(path)

    def test_shape_mismatch(self, tmp_path):
        p = init_params(Rng(33))
        p64 = p.copy()
        p64.conv_w = p64.conv_w[:, :, :63]
        path = tmp_path / "m.eglm"
        save_params(p64, path)
        with pytest.raises(FormatError, match="shape"):
            load_params(path)

    def test_truncated(self, tmp_path):
        p = init_params(Rng(34))
        path = tmp_path / "m.eglm"
        save_params(p, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_params(path)

    def test_gate_blocks_map_to_their_file_tensors(self, tmp_path):
        # Save and load could swap gate blocks consistently and still round
        # trip, so the file is parsed here by a reader of its own.
        p = init_params(Rng(35))
        for block in range(4):
            rows = slice(2 * block, 2 * block + 2)
            p.lstm_w[rows] = 1.0 + block
            p.lstm_u[rows] = 10.0 + block
            p.lstm_b[rows] = 100.0 + block
        path = tmp_path / "m.eglm"
        save_params(p, path)
        tensors = read_eglm(path)
        gate_names = [f"lstm.{kind}_{gate}" for kind in "WUb" for gate in "ifgo"]
        assert list(tensors) == ["conv.w", "conv.b", "bn.gamma", "bn.beta",
                                 "bn.run_mean", "bn.run_var"] + gate_names
        for block, gate in enumerate("ifgo"):
            np.testing.assert_array_equal(tensors[f"lstm.W_{gate}"], np.full((2, 32), 1.0 + block))
            np.testing.assert_array_equal(tensors[f"lstm.U_{gate}"], np.full((2, 2), 10.0 + block))
            np.testing.assert_array_equal(tensors[f"lstm.b_{gate}"], np.full(2, 100.0 + block))
        q = load_params(path)
        for name in ("lstm_w", "lstm_u", "lstm_b"):
            np.testing.assert_array_equal(getattr(q, name), getattr(p, name), err_msg=name)

    def test_duplicate_tensor(self, tmp_path):
        p = init_params(Rng(36))
        path = tmp_path / "m.eglm"
        save_params(p, path)
        raw = path.read_bytes()
        start, end = raw.index(b"lstm.W_i") - 2, raw.index(b"lstm.W_f") - 2
        doubled = raw[:8] + (19).to_bytes(4, "little") + raw[12:end] + raw[start:end] + raw[end:]
        path.write_bytes(doubled)
        with pytest.raises(FormatError, match="duplicate tensor 'lstm.W_i'"):
            load_params(path)

    def test_unknown_tensor(self, tmp_path):
        path = tmp_path / "m.eglm"
        name = b"conv.bogus"
        body = struct_pack_tensor(name)
        path.write_bytes(b"EGLM" + (1).to_bytes(4, "little") + (1).to_bytes(4, "little") + body)
        with pytest.raises(FormatError, match="unknown tensor"):
            load_params(path)


def struct_pack_tensor(name: bytes) -> bytes:
    return struct.pack("<H", len(name)) + name + struct.pack("<B", 1) + struct.pack("<I", 1) + b"\x00" * 4


def write_eglm(path, tensors: dict) -> None:
    """The inverse of read_eglm: a version-1 file of the given float32
    tensors, in dict order."""
    parts = [b"EGLM", struct.pack("<II", 1, len(tensors))]
    for name, arr in tensors.items():
        arr = np.asarray(arr, "<f4")
        parts += [struct.pack("<H", len(name)), name.encode("ascii"),
                  struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes()]
    path.write_bytes(b"".join(parts))


def read_eglm(path) -> dict:
    """Tensor name -> float32 array, in file order, parsed from the bytes."""
    raw = path.read_bytes()
    assert raw[:4] == b"EGLM"
    version, count = struct.unpack_from("<II", raw, 4)
    assert version == 1
    pos, tensors = 12, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        name = raw[pos + 2 : pos + 2 + name_len].decode("ascii")
        pos += 2 + name_len
        rank = raw[pos]
        dims = struct.unpack_from(f"<{rank}I", raw, pos + 1)
        pos += 1 + 4 * rank
        size = int(np.prod(dims))
        tensors[name] = np.frombuffer(raw, "<f4", size, pos).reshape(dims)
        pos += 4 * size
    assert pos == len(raw)
    return tensors
