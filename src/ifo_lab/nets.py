"""Dense multi-layer perceptrons with exact manual backprop, Adam, and
finite-difference gradient oracles.

Everything is float64 numpy. Weights are stored (in_dim, out_dim) so a batch
of row vectors propagates as ``x @ W + b``. Forward passes return a cache
that is sufficient for an exact backward pass; no autodiff anywhere.

A cache marked with ``keep_workspace`` also keeps, for as long as the cache
lives, each hidden layer's activation derivative and the arrays into which
``mlp_jvp`` and ``mlp_backward`` write their hidden-layer products. Repeated
products over one batch, such as the Fisher-vector products of one TRPO
step, then allocate no (N, hidden) arrays. That matters because the
allocator hands a freed array of a megabyte back to the operating system,
so every fresh one is paid for again in page faults, which cost more than
the arithmetic. The results are bit-identical to those through a plain
cache, and returned arrays are always fresh. Caches used once keep nothing:
kept arrays in every cache would raise peak memory for no reuse.

``BinaryReader`` is the one reader of the checkpoint and demonstration
formats: truncated, padded or corrupt files fail with a ValueError that
names the file and the field.
"""

import json
import math
import os
import struct

import numpy as np

HIDDEN_ACTIVATIONS = ("tanh", "relu", "leaky_relu")
OUTPUT_TRANSFORMS = ("identity", "sigmoid")
LEAKY_SLOPE = 0.01
SIGMOID_CLAMP = 1e-8

CHECKPOINT_MAGIC = b"IFONET1\n"


class MlpParams:
    """Layered affine parameters plus activation/output tags.

    weights[k] has shape (in_k, out_k); consecutive dims must chain. The
    activation applies after every layer except the last; the output
    transform applies after the last layer.
    """

    def __init__(self, weights, biases, activation="tanh", output_transform="identity"):
        if activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if output_transform not in OUTPUT_TRANSFORMS:
            raise ValueError(f"unknown output transform {output_transform!r}")
        if len(weights) != len(biases) or not weights:
            raise ValueError("weights and biases must be nonempty and aligned")
        self.weights = [np.array(w, dtype=np.float64) for w in weights]
        self.biases = [np.array(b, dtype=np.float64) for b in biases]
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
                raise ValueError(
                    f"layer {k}: weight {w.shape} and bias {b.shape} do not form an affine map"
                )
            if k > 0 and self.weights[k - 1].shape[1] != w.shape[0]:
                raise ValueError(
                    f"layer {k - 1} output dim {self.weights[k - 1].shape[1]} "
                    f"!= layer {k} input dim {w.shape[0]}"
                )
        self.activation = activation
        self.output_transform = output_transform

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def in_dim(self):
        return self.weights[0].shape[0]

    @property
    def out_dim(self):
        return self.weights[-1].shape[1]

    @property
    def n_params(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def arrays(self):
        """Parameter arrays in a fixed order: W0, b0, W1, b1, ..."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self):
        return MlpParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.activation,
            self.output_transform,
        )

    def flatten(self):
        return np.concatenate([a.ravel() for a in self.arrays()])

    def set_flat(self, vec):
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.n_params,):
            raise ValueError(f"flat vector shape {vec.shape} != ({self.n_params},)")
        i = 0
        for a in self.arrays():
            a[...] = vec[i : i + a.size].reshape(a.shape)
            i += a.size


def init_mlp(layer_sizes, activation="tanh", output_transform="identity",
             rng=None, out_gain=1.0):
    """Scaled-uniform (Glorot-style) init; out_gain shrinks the last layer."""
    rng = np.random.default_rng(rng)
    weights, biases = [], []
    n_layers = len(layer_sizes) - 1
    for k in range(n_layers):
        fan_in, fan_out = layer_sizes[k], layer_sizes[k + 1]
        gain = out_gain if k == n_layers - 1 else 1.0
        limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases, activation, output_transform)


def _act(z, tag):
    if tag == "tanh":
        return np.tanh(z)
    if tag == "relu":
        return np.maximum(z, 0.0)
    return np.where(z > 0.0, z, LEAKY_SLOPE * z)


def keep_workspace(cache):
    """Let mlp_jvp and mlp_backward keep work arrays in this forward cache.

    Through such a cache each hidden layer's activation derivative is
    computed once and kept, and the hidden-layer products of every call are
    written into kept arrays, so repeated products over one batch stop
    allocating (N, hidden) arrays. The results are bit-identical to those
    through a plain cache, and returned arrays are never reused. The kept
    arrays live as long as the cache. Returns the cache.
    """
    cache["workspace"] = {}
    return cache


def _work(cache, key, shape):
    """The kept work array `key` of the cache's workspace, made on first use;
    None (a fresh result) when the cache keeps no workspace."""
    workspace = cache.get("workspace")
    if workspace is None:
        return None
    buf = workspace.get(key)
    if buf is None:
        buf = workspace[key] = np.empty(shape)
    return buf


def _act_deriv(cache, k, tag):
    """Derivative of hidden layer k's activation at its pre-activation,
    computed once and kept if the cache keeps a workspace."""
    workspace = cache.get("workspace", {})  # a plain cache keeps nothing
    deriv = workspace.get(("deriv", k))
    if deriv is None:
        if tag == "tanh":
            h = cache["inputs"][k + 1]  # tanh(preacts[k]), kept by the forward pass
            deriv = 1.0 - h * h
        elif tag == "relu":
            deriv = (cache["preacts"][k] > 0.0).astype(np.float64)
        else:
            deriv = np.where(cache["preacts"][k] > 0.0, 1.0, LEAKY_SLOPE)
        workspace[("deriv", k)] = deriv
    return deriv


def clamped_sigmoid(z):
    """Sigmoid clipped into [SIGMOID_CLAMP, 1 - SIGMOID_CLAMP]."""
    s = 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
    return np.clip(s, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)


def mlp_forward(params, x):
    """Forward pass; accepts a single vector or a (batch, in_dim) matrix.

    Returns (output, cache). The cache records per-layer inputs and
    pre-activations and is what mlp_backward / mlp_jvp consume.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.ndim != 2 or h.shape[1] != params.in_dim:
        raise ValueError(
            f"input shape {x.shape} does not match first layer input dim {params.in_dim}"
        )
    inputs, preacts = [], []
    n_layers = len(params.weights)
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        z = h @ w + b
        preacts.append(z)
        if k < n_layers - 1:
            h = _act(z, params.activation)
    z = preacts[-1]
    if params.output_transform == "sigmoid":
        out = clamped_sigmoid(z)
    else:
        out = z
    cache = {"inputs": inputs, "preacts": preacts, "single": single}
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite values in forward pass output")
    return (out[0] if single else out), cache


def mlp_backward(params, cache, output_grad):
    """Exact gradients of sum(output * output_grad) w.r.t. params and input.

    Returns (grads, input_grad) with grads ordered like params.arrays().
    """
    g = np.asarray(output_grad, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    n_layers = len(params.weights)
    if len(cache["inputs"]) != n_layers or cache["preacts"][-1].shape != g.shape:
        raise ValueError(
            f"stale cache: output grad shape {g.shape} vs cached "
            f"{cache['preacts'][-1].shape}"
        )
    if params.output_transform == "sigmoid":
        s = clamped_sigmoid(cache["preacts"][-1])
        delta = g * s * (1.0 - s)
    else:
        delta = g
    w_grads = [None] * n_layers
    b_grads = [None] * n_layers
    for k in range(n_layers - 1, -1, -1):
        x_k = cache["inputs"][k]
        w_grads[k] = x_k.T @ delta
        b_grads[k] = delta.sum(axis=0)
        if k > 0:
            delta = np.matmul(delta, params.weights[k].T, out=_work(cache, k - 1, x_k.shape))
            np.multiply(delta, _act_deriv(cache, k - 1, params.activation), out=delta)
        else:
            delta = delta @ params.weights[k].T
    grads = []
    for wg, bg in zip(w_grads, b_grads):
        grads.append(wg)
        grads.append(bg)
    input_grad = delta[0] if cache["single"] else delta
    return grads, input_grad


def mlp_jvp(params, cache, tangents):
    """Forward-mode directional derivative of the output w.r.t. params.

    tangents is ordered like params.arrays(). The input is held fixed.
    Output transforms are ignored (returns the tangent of the final
    pre-activation), which is what Fisher-vector products need.
    """
    n_layers = len(params.weights)
    if len(tangents) != 2 * n_layers:
        raise ValueError("tangent list does not mirror parameter arrays")
    dh = None
    for k in range(n_layers):
        hidden = k < n_layers - 1
        x_k = cache["inputs"][k]
        dw, db = tangents[2 * k], tangents[2 * k + 1]
        shape = (len(x_k), params.weights[k].shape[1])
        # the output layer's tangent is returned, so only hidden ones are kept
        dz = np.matmul(x_k, dw, out=_work(cache, k, shape) if hidden else None)
        np.add(dz, db, out=dz)
        if dh is not None:
            np.add(dz, np.matmul(dh, params.weights[k], out=_work(cache, ("dh@W", k), shape)),
                   out=dz)
        if hidden:
            dh = np.multiply(dz, _act_deriv(cache, k, params.activation), out=dz)
    return dz[0] if cache["single"] else dz


class AdamState:
    """First/second-moment state for a fixed list of parameter arrays."""

    def __init__(self, shapes, alpha=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.step_count = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.alpha = alpha
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon

    @classmethod
    def for_params(cls, params, **kw):
        arrays = params.arrays() if isinstance(params, MlpParams) else params
        return cls([a.shape for a in arrays], **kw)


def adam_step(state, params, grads):
    """One bias-corrected Adam update, in place. Returns (params, state).

    params may be an MlpParams or a list of arrays; grads must mirror it.
    """
    arrays = params.arrays() if isinstance(params, MlpParams) else params
    if len(grads) != len(arrays):
        raise ValueError("gradient list does not mirror parameter arrays")
    for a, g in zip(arrays, grads):
        g = np.asarray(g)
        if g.shape != a.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {a.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient entries")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for a, g, m, v in zip(arrays, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        a -= state.alpha * (m / c1) / (np.sqrt(v / c2) + state.epsilon)
    return params, state


def finite_diff_grad(f, x, h=1e-5):
    """Central finite differences (f(x+h e_i) - f(x-h e_i)) / 2h."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    bad = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        fp = f(x + e)
        fm = f(x - e)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            bad.append(i)
            continue
        grad.flat[i] = (fp - fm) / (2.0 * h)
    if bad:
        raise ValueError(f"non-finite function evaluations at coordinates {bad}")
    return grad


def save_mlp(path, params, extra=None):
    """Checkpoint: magic, u32 JSON-header length, JSON header, then raw
    float64 little-endian parameter arrays in layer order (W then b)."""
    header = {
        "format_version": 1,
        "layer_sizes": params.layer_sizes,
        "activation": params.activation,
        "output_transform": params.output_transform,
        "extra": extra or {},
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for a in params.arrays():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


class BinaryReader:
    """Field-by-field reader of a binary file, the one reader of the
    checkpoint and demonstration formats. Every read must find the bytes it
    asks for and nothing may follow the last field; errors are ValueErrors
    that name the file and the field. Use it as a context manager."""

    def __init__(self, path):
        self.path = path
        self.fh = open(path, "rb")
        self.size = os.fstat(self.fh.fileno()).st_size

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def error(self, field, problem):
        return ValueError(f"{self.path}: {field}: {problem}")

    def magic(self, magic, what):
        found = self.fh.read(len(magic))
        if found != magic:
            raise ValueError(f"{self.path}: not {what} (bad magic {found!r})")

    def take(self, n, field):
        left = self.size - self.fh.tell()
        if n > left:
            raise self.error(field, f"truncated, {n} bytes promised, {left} left")
        return self.fh.read(n)

    def unpack(self, fmt, field):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), field))

    def array(self, dtype, shape, field):
        dtype = np.dtype(dtype)
        data = self.take(dtype.itemsize * math.prod(shape), field)
        return np.frombuffer(data, dtype=dtype).reshape(shape).copy()

    def end(self):
        left = self.size - self.fh.tell()
        if left:
            raise self.error("trailing bytes", f"{left} bytes after the last field")


def load_mlp(path):
    """Inverse of save_mlp. Returns (params, extra)."""
    with BinaryReader(path) as reader:
        reader.magic(CHECKPOINT_MAGIC, "a network checkpoint")
        (hlen,) = reader.unpack("<I", "header")
        blob = reader.take(hlen, "header")
        try:
            header = json.loads(blob.decode("utf-8"))
            sizes = header["layer_sizes"]
            activation, output_transform = header["activation"], header["output_transform"]
        except (UnicodeDecodeError, json.JSONDecodeError, TypeError, KeyError) as err:
            raise reader.error("header", f"not a checkpoint header ({err!r})") from None
        if not (isinstance(sizes, list) and len(sizes) > 1
                and all(type(n) is int and n > 0 for n in sizes)):
            raise reader.error("header", f"bad layer sizes {sizes!r}")
        weights, biases = [], []
        for k in range(len(sizes) - 1):
            weights.append(reader.array("<f8", (sizes[k], sizes[k + 1]), f"layer {k} weights"))
            biases.append(reader.array("<f8", (sizes[k + 1],), f"layer {k} biases"))
        reader.end()
        try:
            params = MlpParams(weights, biases, activation, output_transform)
        except ValueError as err:
            raise reader.error("header", str(err)) from None
    return params, header.get("extra", {})
