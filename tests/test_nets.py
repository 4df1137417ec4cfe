"""Network substrate: forward pass, exact backprop vs finite differences,
forward-mode JVP, caches that keep a workspace, the allocator policy set at
import, Adam, and checkpoint round-trips and corruption."""

import hashlib
import json
import os
import platform
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ifo_lab import nets


def loss_on_flat(net, x, weights):
    """Scalar probe loss sum(weights * output) as a function of flat params."""

    def f(flat):
        probe = net.copy()
        probe.set_flat(flat)
        out, _ = nets.mlp_forward(probe, x)
        return float(np.sum(weights * out))

    return f


class TestForward:
    def test_single_linear_layer_affine(self):
        net = nets.MlpParams([np.array([[2.0]])], [np.array([1.0])])
        out, _ = nets.mlp_forward(net, np.array([[3.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(7.0)

    def test_zero_params_give_zero_output(self):
        net = nets.init_mlp([3, 5, 2], activation="tanh",
                            rng=np.random.default_rng(0))
        net.set_flat(np.zeros(net.n_params))
        out, _ = nets.mlp_forward(net, np.ones((1, 3)))
        assert np.all(out == 0.0)

    def test_matches_straight_line_recomputation(self):
        net = nets.init_mlp([4, 6, 3], activation="tanh",
                            rng=np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(1, 4))
        out, _ = nets.mlp_forward(net, x)
        h = np.tanh(x @ net.weights[0] + net.biases[0])
        expect = h @ net.weights[1] + net.biases[1]
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_batch_matches_per_row(self):
        net = nets.init_mlp([3, 8, 2], activation="leaky_relu",
                            rng=np.random.default_rng(3))
        xs = np.random.default_rng(4).normal(size=(7, 3))
        batch_out, _ = nets.mlp_forward(net, xs)
        for i, x in enumerate(xs):
            one, _ = nets.mlp_forward(net, x[None])
            np.testing.assert_allclose(batch_out[i], one[0], rtol=1e-12)

    def test_dimension_mismatch_reports_shapes(self):
        net = nets.init_mlp([3, 4, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            nets.mlp_forward(net, np.ones((1, 5)))

    def test_rejects_a_vector(self):
        net = nets.init_mlp([3, 4, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            nets.mlp_forward(net, np.ones(3))

    def test_sigmoid_output_strictly_inside_clamp(self):
        net = nets.init_mlp([2, 4, 1], activation="leaky_relu",
                            output_transform="sigmoid",
                            rng=np.random.default_rng(5))
        xs = np.random.default_rng(6).normal(size=(100, 2)) * 50
        out, _ = nets.mlp_forward(net, xs)
        assert np.all(out >= nets.SIGMOID_CLAMP)
        assert np.all(out <= 1.0 - nets.SIGMOID_CLAMP)

    def test_huge_logit_clamps_exactly(self):
        assert nets.clamped_sigmoid(np.array([1e3]))[0] == 1.0 - 1e-8
        assert nets.clamped_sigmoid(np.array([-1e3]))[0] == 1e-8


class TestBackward:
    def test_affine_layer_gradients(self):
        # y = Wx + b: weight grad is outer(x, g), bias grad is g
        net = nets.MlpParams([np.array([[2.0, -1.0], [0.5, 3.0]])],
                             [np.array([1.0, -1.0])])
        x = np.array([[1.5, -2.0]])
        g = np.array([[0.7, -0.3]])
        _, cache = nets.mlp_forward(net, x)
        (w_grad,), (b_grad,) = net.views(nets.mlp_backward(net, cache, g))
        np.testing.assert_allclose(w_grad, np.outer(x, g))
        np.testing.assert_allclose(b_grad, g[0])

    def test_zero_output_grad_gives_zero_param_grads(self):
        net = nets.init_mlp([3, 4, 2], rng=np.random.default_rng(0))
        x = np.ones((1, 3))
        _, cache = nets.mlp_forward(net, x)
        grad = nets.mlp_backward(net, cache, np.zeros((1, 2)))
        assert grad.shape == (net.n_params,) and np.all(grad == 0.0)

    def test_rejects_a_vector_output_grad(self):
        net = nets.init_mlp([3, 4, 2], rng=np.random.default_rng(0))
        _, cache = nets.mlp_forward(net, np.ones((1, 3)))
        with pytest.raises(ValueError):
            nets.mlp_backward(net, cache, np.zeros(2))

    @pytest.mark.parametrize("activation", nets.HIDDEN_ACTIVATIONS)
    def test_three_layer_matches_finite_differences(self, activation):
        rng = np.random.default_rng(7)
        net = nets.init_mlp([3, 8, 8, 2], activation=activation, rng=rng)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 2))
        _, cache = nets.mlp_forward(net, x)
        grad = nets.mlp_backward(net, cache, w)
        fd = nets.finite_diff_grad(loss_on_flat(net, x, w), net.flatten())
        err = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert err < 1e-4

    def test_sigmoid_output_gradient_matches_fd(self):
        rng = np.random.default_rng(8)
        net = nets.init_mlp([2, 6, 1], activation="leaky_relu",
                            output_transform="sigmoid", rng=rng)
        x = rng.normal(size=(5, 2))
        w = rng.normal(size=(5, 1))
        _, cache = nets.mlp_forward(net, x)
        grad = nets.mlp_backward(net, cache, w)
        fd = nets.finite_diff_grad(loss_on_flat(net, x, w), net.flatten())
        err = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert err < 1e-4


class TestJvp:
    def test_jvp_matches_directional_finite_difference(self):
        rng = np.random.default_rng(9)
        net = nets.init_mlp([3, 8, 2], activation="tanh", rng=rng)
        x = rng.normal(size=(6, 3))
        _, cache = nets.mlp_forward(net, x)
        v = rng.normal(size=net.n_params)
        jvp = nets.mlp_jvp(net, cache, v)
        eps = 1e-6
        plus, minus = net.copy(), net.copy()
        plus.set_flat(net.flatten() + eps * v)
        minus.set_flat(net.flatten() - eps * v)
        fd = (nets.mlp_forward(plus, x)[0] - nets.mlp_forward(minus, x)[0]) / (2 * eps)
        np.testing.assert_allclose(jvp, fd, rtol=1e-5, atol=1e-8)


    def test_rejects_a_tangent_of_another_shape(self):
        net = nets.init_mlp([3, 4, 2], rng=np.random.default_rng(0))
        _, cache = nets.mlp_forward(net, np.ones((1, 3)))
        with pytest.raises(ValueError):
            nets.mlp_jvp(net, cache, np.zeros(net.n_params - 1))


def _bits(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


class TestWorkspaceCache:
    """Products through a cache that keeps a workspace equal those through a
    plain cache bit for bit, and no later call changes an earlier result."""

    @pytest.mark.parametrize("activation", nets.HIDDEN_ACTIVATIONS)
    @pytest.mark.parametrize("output_transform", nets.OUTPUT_TRANSFORMS)
    @pytest.mark.parametrize("rows", [None, 7])  # None: a batch of one
    def test_bit_identical_to_plain_cache(self, activation, output_transform, rows):
        rows = rows or 1
        rng = np.random.default_rng(21)
        net = nets.init_mlp([3, 6, 5, 4, 2], activation, output_transform, rng=rng)
        x = rng.normal(size=(rows, 3))
        _, plain = nets.mlp_forward(net, x)
        _, kept = nets.mlp_forward(net, x)
        assert nets.keep_workspace(kept) is kept
        returned = []
        for _ in range(3):
            tangent = rng.normal(size=net.n_params)
            g = rng.normal(size=(rows, 2))
            got = [nets.mlp_jvp(net, kept, tangent), nets.mlp_backward(net, kept, g)]
            assert _bits(got) == _bits([nets.mlp_jvp(net, plain, tangent),
                                        nets.mlp_backward(net, plain, g)])
            returned.append((got, _bits(got)))
        assert "workspace" not in plain and kept["workspace"]
        for got, bits in returned:
            assert _bits(got) == bits


FAULTS_OF_FRESH_ARRAYS = """
import resource
import numpy as np
import ifo_lab

def cycle():
    a = np.ones((2200, 64))
    b = a * a
    del a, b

for _ in range(3):
    cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestAllocatorPolicy:
    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="the allocator policy applies to glibc only")
    def test_freed_arrays_cost_no_page_faults(self):
        # without the policy each 1.1 MB array is mapped afresh: about 51,800
        # minor faults over these 100 cycles
        src = str(Path(nets.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", FAULTS_OF_FRESH_ARRAYS], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout.split()[-1]) < 100

    @pytest.mark.parametrize("system, libc", [("linux", ("", "")),
                                              ("darwin", ("glibc", "2.36"))],
                             ids=["other-libc", "other-platform"])
    def test_does_nothing_without_glibc(self, monkeypatch, system, libc):
        opened = []
        monkeypatch.setattr(nets.sys, "platform", system)
        monkeypatch.setattr(nets.platform, "libc_ver", lambda *a, **k: libc)
        monkeypatch.setattr(nets.ctypes, "CDLL", lambda *a, **k: opened.append(a))
        assert nets._keep_freed_arrays() is False
        assert opened == []


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        net = nets.init_mlp([2, 3, 1], rng=np.random.default_rng(0))
        before = net.flatten()
        state = nets.AdamState(net)
        nets.adam_step(state, net, np.zeros(net.n_params))
        assert state.step_count == 1
        np.testing.assert_array_equal(net.flatten(), before)

    def test_first_step_hand_value(self):
        # scalar param 0, grad 1, alpha 0.1: bias-corrected first step is
        # exactly -alpha * g / (|g| + eps') which is -0.1 up to epsilon
        net = nets.MlpParams([np.array([[0.0]])], [np.array([0.0])])
        state = nets.AdamState(net, alpha=0.1)
        nets.adam_step(state, net, np.array([1.0, 0.0]))
        assert net.weights[0][0, 0] == pytest.approx(-0.1, abs=1e-6)

    def test_rejects_non_finite_gradients(self):
        net = nets.init_mlp([2, 2], rng=np.random.default_rng(0))
        state = nets.AdamState(net)
        before = net.flatten()
        bad = np.full(net.n_params, np.nan)
        with pytest.raises(FloatingPointError):
            nets.adam_step(state, net, bad)
        assert state.step_count == 0
        np.testing.assert_array_equal(net.flatten(), before)

    def test_rejects_a_gradient_of_another_shape(self):
        net = nets.init_mlp([2, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            nets.adam_step(nets.AdamState(net), net, np.zeros((1, net.n_params)))

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(42)
            net = nets.init_mlp([3, 4, 1], rng=rng)
            state = nets.AdamState(net, alpha=0.01)
            x = np.random.default_rng(1).normal(size=(8, 3))
            for _ in range(10):
                out, cache = nets.mlp_forward(net, x)
                nets.adam_step(state, net, nets.mlp_backward(net, cache, out / len(out)))
            return net.flatten()

        np.testing.assert_array_equal(run(), run())

    def test_second_moments_nonnegative(self):
        net = nets.init_mlp([2, 2], rng=np.random.default_rng(0))
        state = nets.AdamState(net)
        nets.adam_step(state, net, np.random.default_rng(3).normal(size=net.n_params))
        assert np.all(state.v >= 0)

    def test_fifty_steps_match_the_plain_expressions_bit_for_bit(self):
        net = nets.init_mlp([3, 5, 2], rng=np.random.default_rng(0))
        state = nets.AdamState(net, alpha=0.01)
        rng = np.random.default_rng(8)
        flat, m, v = net.flatten(), np.zeros(net.n_params), np.zeros(net.n_params)
        b1, b2, alpha, eps = state.beta1, state.beta2, state.alpha, state.epsilon
        for t in range(1, 51):
            g = rng.normal(size=net.n_params) * 10.0 ** rng.integers(-6, 3, size=net.n_params)
            nets.adam_step(state, net, g)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            flat -= alpha * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        assert _bits([net.flat, state.m, state.v]) == _bits([flat, m, v])


class TestDistinctRows:
    def test_codes_count_rows_in_order_of_first_appearance(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [5.0, 6.0], [3.0, 4.0]])
        rows = nets.DistinctRows.of(x)
        assert rows.code.tolist() == [0, 1, 0, 2, 1]
        assert rows.distinct.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        assert rows.counts.tolist() == [2, 2, 1]

    def test_rebuilds_the_input_exactly(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(7, 3))[rng.integers(7, size=200)]
        rows = nets.DistinctRows.of(x)
        assert rows.distinct[rows.code].tobytes() == x.tobytes()
        assert len(rows.distinct) == len({row.tobytes() for row in x})
        first_seen = [int(np.flatnonzero(rows.code == j)[0]) for j in range(len(rows.distinct))]
        assert first_seen == sorted(first_seen)

    def test_signed_zeros_are_different_rows(self):
        # rows are keyed by their bytes, and -0.0 and 0.0 differ in the sign bit
        x = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        rows = nets.DistinctRows.of(x)
        assert rows.code.tolist() == [0, 1, 0]
        assert np.signbit(rows.distinct[:, 0]).tolist() == [False, True]

    def test_counts_sum_to_the_row_count(self):
        rng = np.random.default_rng(10)
        x = np.eye(5)[rng.integers(5, size=83)]
        rows = nets.DistinctRows.of(x)
        assert len(rows) == 83 and rows.counts.sum() == 83
        assert rows.counts.tolist() == [int(np.sum(rows.code == j)) for j in range(5)]

    @pytest.mark.parametrize("repeats", [True, False])
    def test_take_codes_its_rows_like_coding_them_afresh(self, repeats):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 3))[rng.integers(6, size=40)]
        idx = rng.integers(40, size=25) if repeats else rng.permutation(40)[:25]
        taken, fresh = nets.DistinctRows.of(x).take(idx), nets.DistinctRows.of(x[idx])
        assert taken.distinct.tobytes() == fresh.distinct.tobytes()
        assert taken.code.tobytes() == fresh.code.tobytes()
        assert taken.counts.tolist() == fresh.counts.tolist()

    def test_sum_rows_adds_each_row_onto_its_distinct_row(self):
        rows = nets.DistinctRows.of(np.array([[1.0], [2.0], [1.0], [1.0]]))
        per_row = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]])
        assert rows.sum_rows(per_row).tolist() == [[8.0, 80.0], [2.0, 20.0]]

    @staticmethod
    def coded_like_their_join(*parts):
        """DistinctRows.of(*parts), checked byte for byte against the coding
        of the joined array of the parts' rows in C order, and that coding
        against the joined array."""
        rows = nets.DistinctRows.of(*parts)
        x = np.concatenate([p.reshape(-1, p.shape[-1]) for p in parts], axis=1)
        joined = nets.DistinctRows.of(x)
        assert joined.distinct[joined.code].tobytes() == x.tobytes()
        firsts = [int(np.flatnonzero(joined.code == j)[0]) for j in range(len(joined.distinct))]
        assert firsts == sorted(firsts)
        assert rows.distinct.shape == joined.distinct.shape
        assert rows.distinct.dtype == joined.distinct.dtype
        assert rows.distinct.tobytes() == joined.distinct.tobytes()
        assert rows.code.tobytes() == joined.code.tobytes()
        assert rows.counts.tobytes() == joined.counts.tobytes()
        return rows

    def test_parts_code_like_their_join_where_rows_agree_in_one_part(self):
        a = np.array([[1.0], [1.0], [2.0], [1.0], [2.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0], [5.0, 6.0], [5.0, 6.0], [7.0, 8.0]])
        rows = self.coded_like_their_join(a, b)
        assert rows.code.tolist() == [0, 1, 2, 0, 3]

    def test_parts_keep_signed_zeros_apart(self):
        a = np.array([[1.0], [1.0], [1.0]])
        b = np.array([[0.0, 2.0], [-0.0, 2.0], [0.0, 2.0]])
        rows = self.coded_like_their_join(a, b)
        assert rows.code.tolist() == [0, 1, 0]
        assert np.signbit(rows.distinct[:, 1]).tolist() == [False, True]

    @pytest.mark.parametrize("blocks, offset", [(1, -1), (1, 0), (1, 1), (3, 5)])
    def test_parts_code_like_their_join_around_a_block_boundary(self, blocks, offset):
        n = blocks * nets.DistinctRows.JOIN_BLOCK + offset
        rng = np.random.default_rng(12)
        a, b = np.eye(3)[rng.integers(3, size=n)], np.eye(4)[rng.integers(4, size=n)]
        # rows first seen at the end of the first block and in the last one
        a[min(n, nets.DistinctRows.JOIN_BLOCK) - 1] = [2.0, 0.0, 0.0]
        a[n - 1] = [3.0, 0.0, 0.0]
        self.coded_like_their_join(a, b, a[:, :1])

    def test_parts_of_zero_rows(self):
        rows = self.coded_like_their_join(np.empty((0, 2)), np.empty((0, 3)))
        assert rows.distinct.shape == (0, 5) and len(rows) == 0

    @pytest.mark.parametrize("n, h", [(1300, 7), (3, nets.DistinctRows.JOIN_BLOCK + 5),
                                      (1, 10), (0, 5)],
                             ids=["H-not-dividing-block", "episode-over-block",
                                  "one-episode", "no-episodes"])
    def test_episode_parts_code_like_their_flat_join(self, n, h):
        """(n, H, d) parts, here the views buffer[:, :-1] and buffer[:, 1:]
        of an episode-major buffer as a batch takes them, code like their
        flattened join."""
        rng = np.random.default_rng(13)
        buffer = np.eye(4)[rng.integers(4, size=(n, h + 1))]
        extra = np.eye(3)[rng.integers(3, size=(n, h))]
        per_block = max(1, nets.DistinctRows.JOIN_BLOCK // h)
        if n:
            # a row first seen at the end of the first block of episodes, a
            # row first seen at the start of the next and seen again there,
            # and a row first seen last
            buffer[min(n, per_block) - 1, h - 1] = [2.0, 0.0, 0.0, 0.0]
            if n > per_block:
                buffer[per_block, 0] = [3.0, 0.0, 0.0, 0.0]
                buffer[per_block, 1] = [2.0, 0.0, 0.0, 0.0]
            buffer[n - 1, h] = [4.0, 0.0, 0.0, 0.0]
        self.coded_like_their_join(buffer[:, :-1], buffer[:, 1:], extra)

    def test_episode_parts_keep_signed_zeros_apart(self):
        buffer = np.zeros((2, 4, 2))
        buffer[..., 1] = 2.0
        buffer[0, 1, 0] = buffer[1, 3, 0] = -0.0
        rows = self.coded_like_their_join(buffer[:, :-1], buffer[:, 1:])
        assert rows.code.tolist() == [0, 1, 2, 2, 2, 0]
        assert np.signbit(rows.distinct[:, [0, 2]]).tolist() == [
            [False, True], [True, False], [False, False]]

    def test_parts_of_different_lengths_rejected(self):
        # the message names the leading shapes: (n, H) parts with different
        # H have the same length
        for parts in [(np.zeros((4, 2)), np.zeros((3, 2))),
                      (np.zeros((4, 5, 2)), np.zeros((4, 6, 2))),
                      (np.zeros((4, 2)), np.zeros((4, 1, 2)))]:
            shapes = str([p.shape[:-1] for p in parts])
            with pytest.raises(ValueError, match=re.escape(shapes)):
                nets.DistinctRows.of(*parts)


class TestForwardCache:
    """The forward cache holds each layer's input and the output layer's
    pre-activation; the hidden pre-activations are not kept."""

    @pytest.mark.parametrize("activation", nets.HIDDEN_ACTIVATIONS)
    def test_holds_no_hidden_preactivation(self, activation):
        rows = 300
        rng = np.random.default_rng(30)
        net = nets.init_mlp([5, 64, 64, 3], activation, rng=rng)
        x = rng.normal(size=(rows, 5))
        out, cache = nets.mlp_forward(net, x)
        assert sorted(cache) == ["inputs", "preact"]
        assert cache["inputs"][0] is x and cache["preact"] is out
        hidden = cache["inputs"][1:]
        assert [h.shape for h in hidden] == [(rows, 64), (rows, 64)]
        # the first hidden input is the activation, which differs from the
        # pre-activation wherever the activation is not the identity
        z = x @ net.weights[0] + net.biases[0]
        assert not np.array_equal(hidden[0], z)

    @pytest.mark.parametrize("activation, slope", [("leaky_relu", nets.LEAKY_SLOPE)])
    def test_gradient_at_zero_and_subnormal_preactivations(self, activation, slope):
        # the backward pass reads the derivative off the activation h; it must
        # equal the rule on the pre-activation z, 1 where z > 0 and the slope
        # elsewhere, at z = 0.0, -0.0 and negative subnormals too
        z = np.array([[0.0, -0.0, -5e-324, -1e-310, 5e-324, 1.0, -1.0]])
        h = np.where(z > 0.0, z, slope * z)
        rng = np.random.default_rng(31)
        net = nets.init_mlp([2, 7, 3], activation, rng=rng)
        x, g = rng.normal(size=(1, 2)), rng.normal(size=(1, 3))
        _, cache = nets.mlp_forward(net, x)
        cache["inputs"][1] = h   # the activation of the chosen pre-activations
        grad = nets.mlp_backward(net, cache, g)

        delta = (g @ net.weights[1].T) * np.where(z > 0.0, 1.0, slope)
        want = nets.MlpParams([x.T @ delta, h.T @ g], [delta.sum(axis=0), g.sum(axis=0)])
        assert grad.tobytes() == want.flat.tobytes()


def plain_head_grad(out, y):
    """Gradient of the mean softmax cross-entropy (integer y) or of half the
    mean squared error (float y) w.r.t. every row of out."""
    if not np.issubdtype(y.dtype, np.integer):
        return (out - y) / len(y)
    z = out - out.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(len(y)), y] -= 1.0
    p /= len(y)
    return p


def plain_fit(net, adam, x, y, rng, epochs, minibatch):
    """The reference fit: one forward and one backward over every row of
    every minibatch."""
    labels = np.issubdtype(y.dtype, np.integer)
    y = y if labels else y.reshape(len(y), -1)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(order), minibatch):
            idx = order[start : start + minibatch]
            out, cache = nets.mlp_forward(net, x[idx])
            nets.adam_step(adam, net, nets.mlp_backward(net, cache, plain_head_grad(out, y[idx])))


class TestFitSupervised:
    def _net(self, out_dim):
        return nets.init_mlp([3, 8, out_dim], rng=np.random.default_rng(0))

    def _both_fits(self, x, y, epochs):
        fitted = []
        for fit, data in ((nets.fit_supervised, nets.DistinctRows.of(x)), (plain_fit, x)):
            net = self._net(3)
            fit(net, nets.AdamState(net, alpha=1e-2), data, y, np.random.default_rng(11),
                epochs, 16)
            fitted.append(net.flatten())
        return fitted

    @pytest.mark.parametrize("labels", [True, False])
    def test_distinct_rows_train_bit_identically_to_the_plain_loop(self, labels):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(60, 3))
        y = rng.integers(3, size=60) if labels else rng.normal(size=(60, 3))
        fitted, plain = self._both_fits(x, y, epochs=3)
        assert fitted.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("labels", [True, False])
    def test_repeated_rows_train_like_the_plain_loop_within_rounding(self, labels):
        # one-hot rows repeat many times per minibatch; labels and targets
        # still differ between copies of a row
        rng = np.random.default_rng(12)
        x = np.eye(3)[rng.integers(3, size=64)]
        y = rng.integers(3, size=64) if labels else rng.normal(size=(64, 3))
        fitted, plain = self._both_fits(x, y, epochs=1)
        np.testing.assert_allclose(fitted, plain, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("labels", [True, False])
    def test_loss_gradient_matches_finite_differences(self, labels):
        # the loss whose gradient fit_supervised feeds to the backward pass:
        # mean softmax cross-entropy, or half the mean squared error
        rng = np.random.default_rng(1)
        net = self._net(4)
        x = rng.normal(size=(6, 3))
        y = rng.integers(4, size=6) if labels else rng.normal(size=(6, 4))

        def loss(flat):
            probe = net.copy()
            probe.set_flat(flat)
            out, _ = nets.mlp_forward(probe, x)
            if labels:
                logp = out - np.log(np.exp(out).sum(axis=1, keepdims=True))
                return float(-logp[np.arange(6), y].mean())
            return float(0.5 * ((out - y) ** 2).sum(axis=1).mean())

        out, cache = nets.mlp_forward(net, x)
        analytic = nets.mlp_backward(net, cache, plain_head_grad(out, y))
        fd = nets.finite_diff_grad(loss, net.flatten())
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("labels", [True, False])
    def test_a_given_code_trains_like_coding_inside(self, labels):
        # a caller's own coding, its distinct rows in another order than
        # first appearance, trains like DistinctRows.of coding the rows
        rng = np.random.default_rng(8)
        hot = rng.integers(4, size=50)
        x = np.eye(4)[hot]
        y = rng.integers(3, size=50) if labels else rng.normal(size=(50, 3))
        fitted = []
        for rows in (nets.DistinctRows.of(x), nets.DistinctRows(np.eye(4), hot)):
            net = nets.init_mlp([4, 8, 3], rng=np.random.default_rng(0))
            nets.fit_supervised(net, nets.AdamState(net), rows, y,
                                np.random.default_rng(9), epochs=2, minibatch=16)
            fitted.append(net.flatten())
        assert fitted[0].tobytes() == fitted[1].tobytes()

    def test_vector_targets_fit_a_one_output_net_like_column_targets(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(50, 3)), rng.normal(size=50)
        fitted = []
        for targets in (y, y[:, None]):
            net = self._net(1)
            nets.fit_supervised(net, nets.AdamState(net), nets.DistinctRows.of(x), targets,
                                np.random.default_rng(3), epochs=3, minibatch=16)
            fitted.append(net.flatten())
        np.testing.assert_array_equal(fitted[0], fitted[1])

    def test_only_the_given_rows_are_visited(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(40, 3)), rng.integers(3, size=40)
        rows = np.arange(10, 40)
        poisoned = y.copy()
        poisoned[:10] = (y[:10] + 1) % 3
        fitted = []
        for labels in (y, poisoned):
            net = self._net(3)
            nets.fit_supervised(net, nets.AdamState(net), nets.DistinctRows.of(x), labels,
                                np.random.default_rng(5), epochs=2, minibatch=8, rows=rows)
            fitted.append(net.flatten())
        np.testing.assert_array_equal(fitted[0], fitted[1])

    @pytest.mark.parametrize("labels", [True, False])
    def test_fit_lowers_the_loss(self, labels):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(64, 3))
        y = (x[:, 0] > 0).astype(int) if labels else x[:, :2] * 0.5
        net = self._net(2)

        def loss():
            out, _ = nets.mlp_forward(net, x)
            if labels:
                logp = out - np.log(np.exp(out).sum(axis=1, keepdims=True))
                return -logp[np.arange(64), y].mean()
            return np.mean((out - y) ** 2)

        before = loss()
        nets.fit_supervised(net, nets.AdamState(net, alpha=1e-2), nets.DistinctRows.of(x), y,
                            np.random.default_rng(7), epochs=20, minibatch=16)
        assert loss() < 0.5 * before


class TestFiniteDiff:
    def test_quadratic(self):
        grad = nets.finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert grad[0] == pytest.approx(6.0, abs=1e-8)

    def test_constant(self):
        grad = nets.finite_diff_grad(lambda x: 5.0, np.zeros(4))
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_non_finite_evaluation_reports_coordinate(self):
        def f(x):
            return float("nan") if x[1] != 0 else 0.0

        with pytest.raises(ValueError, match="1"):
            nets.finite_diff_grad(f, np.zeros(3))


class TestFlatLayout:
    """One network's parameters in the checkpoint's order, W0 row-major, b0,
    W1, b1, ..., with weights[k] and biases[k] reading and writing them."""

    def _net(self):
        return nets.init_mlp([3, 5, 4, 2], rng=np.random.default_rng(12))

    def test_flatten_is_the_layer_order_concatenation(self):
        net = self._net()
        parts = []
        for w, b in zip(net.weights, net.biases):
            parts += [w.ravel(), b]
        np.testing.assert_array_equal(net.flatten(), np.concatenate(parts))
        assert net.flatten().shape == (net.n_params,)

    def test_writes_through_arrays_show_in_flatten(self):
        net = self._net()
        net.weights[1][2, 3] = 7.0
        net.biases[2][1] = -3.0
        flat = net.flatten()
        assert flat[3 * 5 + 5 + 2 * 4 + 3] == 7.0
        assert flat[-1] == -3.0

    def test_set_flat_shows_in_arrays(self):
        net = self._net()
        vec = np.arange(net.n_params, dtype=np.float64)
        net.set_flat(vec)
        np.testing.assert_array_equal(net.weights[0], vec[:15].reshape(3, 5))
        np.testing.assert_array_equal(net.biases[0], vec[15:20])
        np.testing.assert_array_equal(net.biases[-1], vec[-2:])

    def test_flatten_returns_a_copy(self):
        net = self._net()
        before = net.flatten()
        flat = net.flatten()
        flat[:] = 0.0
        np.testing.assert_array_equal(net.flatten(), before)

    def test_copy_is_independent(self):
        net = self._net()
        twin = net.copy()
        before = net.flatten()
        twin.weights[0][0, 0] += 1.0
        twin.set_flat(np.zeros(twin.n_params))
        np.testing.assert_array_equal(net.flatten(), before)
        net.biases[0][0] = 5.0
        assert twin.biases[0][0] == 0.0
        assert (twin.activation, twin.output_transform) == (net.activation,
                                                            net.output_transform)

    def test_views_share_the_flat_vector(self):
        net = self._net()
        assert all(np.shares_memory(a, net.flat) for a in net.weights + net.biases)
        vec = np.arange(net.n_params, dtype=np.float64)
        weights, biases = net.views(vec)
        assert [w.shape for w in weights] == [w.shape for w in net.weights]
        assert [b.shape for b in biases] == [b.shape for b in net.biases]
        assert all(np.shares_memory(a, vec) for a in weights + biases)

    def test_weights_are_c_contiguous(self):
        net = self._net()
        for net in (net, net.copy()):
            assert all(w.flags.c_contiguous for w in net.weights)
            assert all(b.flags.c_contiguous for b in net.biases)


class TestCheckpoint:
    # SHA-256 of the checkpoint bytes of seeded networks; the format and the
    # parameter layout must not change them
    SHA256 = {
        "categorical policy": "d0b9c30b8794dde4747a83dfed3b2bb4729c02d9c2ecedaa1722996e034cc785",
        "gaussian policy": "aeddd6f05da96288c209406f820381e2a90c800e940fddcfa0bf7bf9366a8005",
        "sigmoid discriminator":
            "0e8549f4b30e6410c58bbb31e2d838da1b92fa2d63f7eececa346f74a4538bf5",
    }

    @pytest.mark.parametrize("kind", sorted(SHA256))
    def test_checkpoint_bytes_are_pinned(self, tmp_path, kind):
        from ifo_lab import adversary, trpo
        path = tmp_path / "net.mlp"
        if kind == "categorical policy":
            net = nets.init_mlp([25, 16, 16, 4], rng=np.random.default_rng(31), out_gain=0.01)
            trpo.StochasticPolicy("categorical", net).save(path)
        elif kind == "gaussian policy":
            net = nets.init_mlp([4, 8, 2], rng=np.random.default_rng(32), out_gain=0.01)
            trpo.StochasticPolicy("gaussian", net, np.array([-0.5, 0.25])).save(path)
        else:
            # one Adam step, so the biases are nonzero and the step is pinned too
            disc = adversary.Discriminator(8, hidden=(16, 16), seed=33)
            rng = np.random.default_rng(34)
            adversary.disc_update(disc, rng.normal(size=(20, 8)), rng.normal(size=(30, 8)))
            nets.save_mlp(path, disc.params, extra={"role": "discriminator"})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.SHA256[kind]

    def test_roundtrip_bit_identical(self, tmp_path):
        net = nets.init_mlp([3, 16, 2], activation="leaky_relu",
                            output_transform="sigmoid",
                            rng=np.random.default_rng(11))
        path = tmp_path / "net.mlp"
        nets.save_mlp(path, net, extra={"tag": "x"})
        loaded, extra = nets.load_mlp(path)
        assert extra["tag"] == "x"
        assert loaded.activation == net.activation
        assert loaded.output_transform == net.output_transform
        assert loaded.flatten().tobytes() == net.flatten().tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mlp"
        path.write_bytes(b"NOTANET!" + b"\0" * 32)
        with pytest.raises(ValueError):
            nets.load_mlp(path)

    def _saved(self, tmp_path):
        net = nets.init_mlp([3, 4, 2], rng=np.random.default_rng(5))
        path = tmp_path / "net.mlp"
        nets.save_mlp(path, net)
        return net, path, path.read_bytes()

    def test_truncation_at_every_byte_names_file_and_field(self, tmp_path):
        net, path, raw = self._saved(tmp_path)
        magic = len(nets.CHECKPOINT_MAGIC)
        (hlen,) = struct.unpack("<I", raw[magic:magic + 4])
        ends = [(magic, "not a network checkpoint"), (magic + 4 + hlen, "header")]
        for k, (w, b) in enumerate(zip(net.weights, net.biases)):
            ends.append((ends[-1][0] + w.nbytes, f"layer {k} weights"))
            ends.append((ends[-1][0] + b.nbytes, f"layer {k} biases"))
        assert ends[-1][0] == len(raw)
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError) as err:
                nets.load_mlp(path)
            field = next(name for end, name in ends if cut < end)
            assert str(err.value).startswith(f"{path}: {field}")

    @pytest.mark.parametrize("extra", [b"\0", b"\0" * 4, b"\xff" * 8])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        _, path, raw = self._saved(tmp_path)
        path.write_bytes(raw + extra)
        with pytest.raises(ValueError, match=f"trailing bytes: {len(extra)} bytes") as err:
            nets.load_mlp(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("header", [
        b"{not json", b"\xff\xfe", b"[]", b'{"layer_sizes": [3, 2]}',
        json.dumps({"layer_sizes": [3, -2], "activation": "tanh",
                    "output_transform": "identity"}).encode(),
        json.dumps({"layer_sizes": [3, 2], "activation": "swish",
                    "output_transform": "identity"}).encode(),
        json.dumps({"layer_sizes": [3, 2], "activation": "relu",
                    "output_transform": "identity"}).encode(),
    ])
    def test_corrupt_header_names_file_and_field(self, tmp_path, header):
        path = tmp_path / "net.mlp"
        path.write_bytes(nets.CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header
                         + b"\0" * 64)
        with pytest.raises(ValueError) as err:
            nets.load_mlp(path)
        assert str(err.value).startswith(f"{path}: header: ")
