"""Network substrate: forward pass, exact backprop vs finite differences,
forward-mode JVP, caches that keep a workspace, Adam, and checkpoint
round-trips and corruption."""

import json
import struct

import numpy as np
import pytest

from ifo_lab import nets


def flat_grads(grads):
    return np.concatenate([g.ravel() for g in grads])


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
        out, _ = nets.mlp_forward(net, np.array([3.0]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(7.0)

    def test_zero_params_give_zero_output(self):
        net = nets.init_mlp([3, 5, 2], activation="tanh",
                            rng=np.random.default_rng(0))
        net.set_flat(np.zeros(net.n_params))
        out, _ = nets.mlp_forward(net, np.ones(3))
        assert np.all(out == 0.0)

    def test_matches_straight_line_recomputation(self):
        net = nets.init_mlp([4, 6, 3], activation="tanh",
                            rng=np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=4)
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
            single, _ = nets.mlp_forward(net, x)
            np.testing.assert_allclose(batch_out[i], single, rtol=1e-12)

    def test_dimension_mismatch_reports_shapes(self):
        net = nets.init_mlp([3, 4, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            nets.mlp_forward(net, np.ones(5))

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
        x = np.array([1.5, -2.0])
        g = np.array([0.7, -0.3])
        _, cache = nets.mlp_forward(net, x)
        grads, input_grad = nets.mlp_backward(net, cache, g)
        np.testing.assert_allclose(grads[0], np.outer(x, g))
        np.testing.assert_allclose(grads[1], g)
        np.testing.assert_allclose(input_grad, net.weights[0] @ g)

    def test_zero_output_grad_gives_zero_param_grads(self):
        net = nets.init_mlp([3, 4, 2], rng=np.random.default_rng(0))
        x = np.ones(3)
        _, cache = nets.mlp_forward(net, x)
        grads, _ = nets.mlp_backward(net, cache, np.zeros(2))
        assert all(np.all(g == 0.0) for g in grads)

    @pytest.mark.parametrize("activation", nets.HIDDEN_ACTIVATIONS)
    def test_three_layer_matches_finite_differences(self, activation):
        rng = np.random.default_rng(7)
        net = nets.init_mlp([3, 8, 8, 2], activation=activation, rng=rng)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 2))
        _, cache = nets.mlp_forward(net, x)
        grads, _ = nets.mlp_backward(net, cache, w)
        fd = nets.finite_diff_grad(loss_on_flat(net, x, w), net.flatten())
        err = np.abs(flat_grads(grads) - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert err < 1e-4

    def test_sigmoid_output_gradient_matches_fd(self):
        rng = np.random.default_rng(8)
        net = nets.init_mlp([2, 6, 1], activation="leaky_relu",
                            output_transform="sigmoid", rng=rng)
        x = rng.normal(size=(5, 2))
        w = rng.normal(size=(5, 1))
        _, cache = nets.mlp_forward(net, x)
        grads, _ = nets.mlp_backward(net, cache, w)
        fd = nets.finite_diff_grad(loss_on_flat(net, x, w), net.flatten())
        err = np.abs(flat_grads(grads) - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert err < 1e-4


class TestJvp:
    def test_jvp_matches_directional_finite_difference(self):
        rng = np.random.default_rng(9)
        net = nets.init_mlp([3, 8, 2], activation="tanh", rng=rng)
        x = rng.normal(size=(6, 3))
        _, cache = nets.mlp_forward(net, x)
        v = rng.normal(size=net.n_params)
        tangents = []
        offset = 0
        for arr in net.arrays():
            tangents.append(v[offset : offset + arr.size].reshape(arr.shape))
            offset += arr.size
        jvp = nets.mlp_jvp(net, cache, tangents)
        eps = 1e-6
        plus, minus = net.copy(), net.copy()
        plus.set_flat(net.flatten() + eps * v)
        minus.set_flat(net.flatten() - eps * v)
        fd = (nets.mlp_forward(plus, x)[0] - nets.mlp_forward(minus, x)[0]) / (2 * eps)
        np.testing.assert_allclose(jvp, fd, rtol=1e-5, atol=1e-8)


def _bits(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


class TestWorkspaceCache:
    """Products through a cache that keeps a workspace equal those through a
    plain cache bit for bit, and no later call changes an earlier result."""

    @pytest.mark.parametrize("activation", nets.HIDDEN_ACTIVATIONS)
    @pytest.mark.parametrize("output_transform", nets.OUTPUT_TRANSFORMS)
    @pytest.mark.parametrize("rows", [None, 7])
    def test_bit_identical_to_plain_cache(self, activation, output_transform, rows):
        rng = np.random.default_rng(21)
        net = nets.init_mlp([3, 6, 5, 4, 2], activation, output_transform, rng=rng)
        x = rng.normal(size=3 if rows is None else (rows, 3))
        _, plain = nets.mlp_forward(net, x)
        _, kept = nets.mlp_forward(net, x)
        assert nets.keep_workspace(kept) is kept
        out_shape = (2,) if rows is None else (rows, 2)
        returned = []
        for _ in range(3):
            tangents = [rng.normal(size=a.shape) for a in net.arrays()]
            g = rng.normal(size=out_shape)
            jvp = nets.mlp_jvp(net, kept, tangents)
            grads, input_grad = nets.mlp_backward(net, kept, g)
            got = [jvp, *grads, input_grad]
            plain_grads, plain_input_grad = nets.mlp_backward(net, plain, g)
            assert _bits(got) == _bits([nets.mlp_jvp(net, plain, tangents),
                                        *plain_grads, plain_input_grad])
            returned.append((got, _bits(got)))
        assert "workspace" not in plain and kept["workspace"]
        for got, bits in returned:
            assert _bits(got) == bits


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        net = nets.init_mlp([2, 3, 1], rng=np.random.default_rng(0))
        before = net.flatten()
        state = nets.AdamState.for_params(net)
        nets.adam_step(state, net, [np.zeros_like(a) for a in net.arrays()])
        assert state.step_count == 1
        np.testing.assert_array_equal(net.flatten(), before)

    def test_first_step_hand_value(self):
        # scalar param 0, grad 1, alpha 0.1: bias-corrected first step is
        # exactly -alpha * g / (|g| + eps') which is -0.1 up to epsilon
        net = nets.MlpParams([np.array([[0.0]])], [np.array([0.0])])
        state = nets.AdamState.for_params(net, alpha=0.1)
        nets.adam_step(state, net, [np.array([[1.0]]), np.array([0.0])])
        assert net.weights[0][0, 0] == pytest.approx(-0.1, abs=1e-6)

    def test_rejects_non_finite_gradients(self):
        net = nets.init_mlp([2, 2], rng=np.random.default_rng(0))
        state = nets.AdamState.for_params(net)
        bad = [np.full_like(a, np.nan) for a in net.arrays()]
        with pytest.raises(ValueError):
            nets.adam_step(state, net, bad)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(42)
            net = nets.init_mlp([3, 4, 1], rng=rng)
            state = nets.AdamState.for_params(net, alpha=0.01)
            x = np.random.default_rng(1).normal(size=(8, 3))
            for _ in range(10):
                out, cache = nets.mlp_forward(net, x)
                grads, _ = nets.mlp_backward(net, cache, out / len(out))
                nets.adam_step(state, net, grads)
            return net.flatten()

        np.testing.assert_array_equal(run(), run())

    def test_second_moments_nonnegative(self):
        net = nets.init_mlp([2, 2], rng=np.random.default_rng(0))
        state = nets.AdamState.for_params(net)
        grads = [np.random.default_rng(3).normal(size=a.shape) for a in net.arrays()]
        nets.adam_step(state, net, grads)
        assert all(np.all(v >= 0) for v in state.v)


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


class TestCheckpoint:
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
        for a, b in zip(net.arrays(), loaded.arrays()):
            np.testing.assert_array_equal(a, b)

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
    ])
    def test_corrupt_header_names_file_and_field(self, tmp_path, header):
        path = tmp_path / "net.mlp"
        path.write_bytes(nets.CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header
                         + b"\0" * 64)
        with pytest.raises(ValueError) as err:
            nets.load_mlp(path)
        assert str(err.value).startswith(f"{path}: header: ")
