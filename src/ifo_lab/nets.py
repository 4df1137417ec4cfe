"""Dense multi-layer perceptrons with exact manual backprop, Adam, the one
supervised-fit routine, and finite-difference gradient oracles.

Everything is float64 numpy. Weights are stored (in_dim, out_dim) and every
pass takes a leading batch axis: a (batch, in_dim) input propagates as
``x @ W + b``, and one row is a batch of one. Forward passes return a cache
that is sufficient for an exact backward pass; no autodiff anywhere.

A network's parameters live in one contiguous vector, ``MlpParams.flat``, in
the checkpoint's order: W0 row-major, b0, W1, b1, and so on.
``weights[k]`` and ``biases[k]`` are reshaped views into it, so a write
through either shows in both. Parameter gradients (``mlp_backward``),
tangents (``mlp_jvp``), Adam's moments and TRPO's search directions are flat
vectors in the same layout, and ``MlpParams.views`` gives the per-layer
views of any of them.

Importing this module sets glibc's allocator to keep freed memory in the
process heap (``_keep_freed_arrays``). By default glibc serves an array of a
megabyte, such as an (N, 64) float64 batch at N of about 2200, with its own
mmap and unmaps it when it is freed, so every fresh one is paid for again in
page faults, which cost more than the arithmetic. With the mmap threshold at
32 MiB and the trim threshold at 64 MiB, a freed array stays in the heap and
the next one of its size reuses the same pages. Only where memory comes
from changes, so results are bit-identical; on other platforms and libcs
the import changes nothing.

``fit_supervised`` is the one minibatch-Adam fit: BCO's inverse dynamics
model and its behavioral cloning train through it.
``DistinctRows`` is the one distinct-row type, behind its minibatches, the
discriminator's inputs and the TRPO step (``trpo.CodedStates``).

``BinaryReader`` is the one reader of the checkpoint and demonstration
formats: truncated, padded or corrupt files fail with a ValueError that
names the file and the field.
"""

import ctypes
import json
import math
import os
import platform
import struct
import sys

import numpy as np

HIDDEN_ACTIVATIONS = ("tanh", "leaky_relu")
OUTPUT_TRANSFORMS = ("identity", "sigmoid")
LEAKY_SLOPE = 0.01
SIGMOID_CLAMP = 1e-8

CHECKPOINT_MAGIC = b"IFONET1\n"


def _keep_freed_arrays():
    """Raise glibc's mmap and trim thresholds so that freed arrays stay in the
    heap for reuse instead of going back to the kernel. Returns True if both
    settings were applied. Does nothing and returns False off Linux, under
    another libc, or if mallopt is missing or refuses a value; never raises.
    """
    if sys.platform != "linux" or platform.libc_ver()[0] != "glibc":
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    # M_MMAP_THRESHOLD (-3 in <malloc.h>) at 32 MiB, the largest value glibc
    # accepts on 64-bit; M_TRIM_THRESHOLD (-1) at twice that, the ratio glibc
    # keeps when it raises the mmap threshold itself
    return mallopt(-3, 32 << 20) == 1 and mallopt(-1, 64 << 20) == 1


_keep_freed_arrays()


class MlpParams:
    """Layered affine parameters in one flat vector plus activation/output
    tags.

    weights[k] has shape (in_k, out_k); consecutive dims must chain. The
    activation applies after every layer except the last; the output
    transform applies after the last layer. The constructor copies the
    given arrays into `flat`; weights and biases are views into it.
    """

    def __init__(self, weights, biases, activation="tanh", output_transform="identity"):
        if activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if output_transform not in OUTPUT_TRANSFORMS:
            raise ValueError(f"unknown output transform {output_transform!r}")
        if len(weights) != len(biases) or not weights:
            raise ValueError("weights and biases must be nonempty and aligned")
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        for k, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
                raise ValueError(
                    f"layer {k}: weight {w.shape} and bias {b.shape} do not form an affine map"
                )
            if k > 0 and weights[k - 1].shape[1] != w.shape[0]:
                raise ValueError(
                    f"layer {k - 1} output dim {weights[k - 1].shape[1]} "
                    f"!= layer {k} input dim {w.shape[0]}"
                )
        self.layer_sizes = [weights[0].shape[0]] + [w.shape[1] for w in weights]
        self.activation = activation
        self.output_transform = output_transform
        # (weight slice, weight shape, bias slice) of each layer in a flat vector
        self._layout, i = [], 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            end = i + n_in * n_out
            self._layout.append((slice(i, end), (n_in, n_out), slice(end, end + n_out)))
            i = end + n_out
        self.flat = np.empty(i)
        self.weights, self.biases = self.views(self.flat)
        for view, a in zip(self.weights + self.biases, weights + biases):
            view[...] = a

    def views(self, vec):
        """(weights, biases): per-layer reshaped views of a flat vector in
        this network's layout, such as `flat` or a flat gradient."""
        return ([vec[w].reshape(shape) for w, shape, _ in self._layout],
                [vec[b] for _, _, b in self._layout])

    @property
    def in_dim(self):
        return self.layer_sizes[0]

    @property
    def out_dim(self):
        return self.layer_sizes[-1]

    @property
    def n_params(self):
        return self.flat.size

    def copy(self):
        return MlpParams(self.weights, self.biases, self.activation, self.output_transform)

    def flatten(self):
        return self.flat.copy()

    def set_flat(self, vec):
        if np.shape(vec) != self.flat.shape:
            raise ValueError(f"flat vector shape {np.shape(vec)} != ({self.n_params},)")
        self.flat[:] = vec


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
    """The hidden activation of z, written over z."""
    if tag == "tanh":
        return np.tanh(z, out=z)
    return np.multiply(z, LEAKY_SLOPE, out=z, where=~(z > 0.0))


def keep_workspace(cache):
    """Let mlp_jvp and mlp_backward keep work arrays in this forward cache.

    Through such a cache each hidden layer's activation derivative is
    computed once and kept, and the hidden-layer products of every call are
    written into kept arrays, so repeated products over one batch neither
    recompute the derivative nor call the allocator for (N, hidden) arrays.
    The results are bit-identical to those through a plain cache, and
    returned arrays are never reused. The kept arrays live as long as the
    cache, so only caches used for repeated products are marked: kept arrays
    in every cache would raise peak memory for no reuse. Returns the cache.
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
    """Derivative of hidden layer k's activation at its pre-activation z,
    read off the activation h (the next layer's input), computed once and
    kept if the cache keeps a workspace. For leaky_relu, h > 0 exactly
    where z > 0, at signed zeros and subnormals too."""
    workspace = cache.get("workspace", {})  # a plain cache keeps nothing
    deriv = workspace.get(("deriv", k))
    if deriv is None:
        h = cache["inputs"][k + 1]
        if tag == "tanh":
            deriv = 1.0 - h * h
        else:
            deriv = np.where(h > 0.0, 1.0, LEAKY_SLOPE)
        workspace[("deriv", k)] = deriv
    return deriv


def clamped_sigmoid(z):
    """Sigmoid clipped into [SIGMOID_CLAMP, 1 - SIGMOID_CLAMP]."""
    s = 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
    return np.clip(s, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)


def mlp_forward(params, x):
    """Forward pass over a (batch, in_dim) matrix.

    Returns (output, cache), the cache being what mlp_backward and mlp_jvp
    consume. It holds each layer's input ("inputs": x, then every hidden
    activation) and the output layer's pre-activation ("preact"), and no
    hidden pre-activation: each is overwritten by its activation, from which
    the backward and tangent passes read the derivative. An identity output
    is the cached pre-activation itself.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.in_dim:
        raise ValueError(
            f"input shape {h.shape} does not match first layer input dim {params.in_dim}"
        )
    inputs = []
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        z = h @ w
        z += b
        if k < last:
            h = _act(z, params.activation)
    if params.output_transform == "sigmoid":
        out = clamped_sigmoid(z)
    else:
        out = z
    cache = {"inputs": inputs, "preact": z}
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite values in forward pass output")
    return out, cache


def mlp_backward(params, cache, output_grad):
    """Exact gradient of sum(output * output_grad) w.r.t. the parameters, as
    one fresh flat vector in the layout of params.flat."""
    g = np.asarray(output_grad, dtype=np.float64)
    n_layers = len(params.weights)
    if len(cache["inputs"]) != n_layers or cache["preact"].shape != g.shape:
        raise ValueError(
            f"stale cache: output grad shape {g.shape} vs cached {cache['preact'].shape}"
        )
    if params.output_transform == "sigmoid":
        s = clamped_sigmoid(cache["preact"])
        delta = g * s * (1.0 - s)
    else:
        delta = g
    grad = np.empty(params.n_params)
    w_grads, b_grads = params.views(grad)
    for k in range(n_layers - 1, -1, -1):
        x_k = cache["inputs"][k]
        np.matmul(x_k.T, delta, out=w_grads[k])
        np.sum(delta, axis=0, out=b_grads[k])
        if k > 0:
            delta = np.matmul(delta, params.weights[k].T, out=_work(cache, k - 1, x_k.shape))
            np.multiply(delta, _act_deriv(cache, k - 1, params.activation), out=delta)
    return grad


def mlp_jvp(params, cache, tangent):
    """Forward-mode directional derivative of the output w.r.t. params.

    tangent is a flat vector in the layout of params.flat. The input is held
    fixed. Output transforms are ignored (returns the tangent of the final
    pre-activation), which is what Fisher-vector products need.
    """
    if np.shape(tangent) != params.flat.shape:
        raise ValueError(f"tangent shape {np.shape(tangent)} != ({params.n_params},)")
    n_layers = len(params.weights)
    dws, dbs = params.views(tangent)
    dh = None
    for k in range(n_layers):
        hidden = k < n_layers - 1
        x_k = cache["inputs"][k]
        shape = (len(x_k), params.weights[k].shape[1])
        # the output layer's tangent is returned, so only hidden ones are kept
        dz = np.matmul(x_k, dws[k], out=_work(cache, k, shape) if hidden else None)
        np.add(dz, dbs[k], out=dz)
        if dh is not None:
            np.add(dz, np.matmul(dh, params.weights[k], out=_work(cache, ("dh@W", k), shape)),
                   out=dz)
        if hidden:
            dh = np.multiply(dz, _act_deriv(cache, k, params.activation), out=dz)
    return dz


class AdamState:
    """First/second-moment state for the flat parameters of an MlpParams,
    plus two scratch vectors of the same size that adam_step writes its
    intermediate products into."""

    def __init__(self, params, alpha=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.step_count = 0
        self.m = np.zeros(params.n_params)
        self.v = np.zeros(params.n_params)
        self.scratch = (np.empty(params.n_params), np.empty(params.n_params))
        self.alpha = alpha
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon


def adam_step(state, params, grad):
    """One bias-corrected Adam update of params.flat, in place, by a flat
    gradient. A non-finite gradient raises FloatingPointError before anything
    changes.

    The products go through the state's scratch vectors with the operand
    order of `v += ((1 - beta2) * g) * g` and
    `flat -= (alpha * (m / c1)) / (sqrt(v / c2) + epsilon)`, so no
    parameter-sized temporary is allocated and the result is bit-identical
    to those expressions.
    """
    if np.shape(grad) != params.flat.shape:
        raise ValueError(f"gradient shape {np.shape(grad)} != ({params.n_params},)")
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient entries")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    a, b = state.scratch
    np.multiply(1.0 - state.beta1, grad, out=a)
    state.m *= state.beta1
    state.m += a
    np.multiply(1.0 - state.beta2, grad, out=a)
    a *= grad
    state.v *= state.beta2
    state.v += a
    np.divide(state.m, c1, out=a)
    np.multiply(state.alpha, a, out=a)
    np.divide(state.v, c2, out=b)
    np.sqrt(b, out=b)
    b += state.epsilon
    a /= b
    params.flat -= a


def _softmax_xent_grad(out, rows, labels):
    """Gradient of the mean softmax cross-entropy w.r.t. the logits out[rows].
    The softmax runs once per row of out, before the gather."""
    p = out - out.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    p = p[rows]
    p[np.arange(len(labels)), labels] -= 1.0
    p /= len(labels)
    return p


def _squared_error_grad(out, rows, targets):
    """Gradient of half the mean squared error w.r.t. the outputs out[rows]."""
    return (out[rows] - targets) / len(targets)


class DistinctRows:
    """The rows of a 2-D array as its distinct rows and a code: row i is
    distinct[code[i]], and counts[j] rows are distinct[j].

    DistinctRows.of(x) keys rows exactly, by their bytes (-0.0 and 0.0 make
    different rows, NaNs with the same bits the same row), and lists the
    distinct rows in order of first appearance.
    """

    JOIN_BLOCK = 4096   # about the rows joined at a time by of(*parts)

    def __init__(self, distinct, code):
        self.distinct = distinct
        self.code = code
        self.counts = np.bincount(code, minlength=len(distinct))

    @classmethod
    def of(cls, *parts):
        """The rows of one array, or of arrays taken as joined side by side.

        A part is (n, d), or (n, H, d) for n episodes of H rows each, whose
        rows are taken in C order, as reshape(n * H, d) takes them; all
        parts share their leading shape. of(a, b) gives, bit for bit, the
        distinct rows, code and counts of of(np.concatenate([a.reshape(-1,
        d_a), b.reshape(-1, d_b)], axis=1)), but joins only about JOIN_BLOCK
        rows at a time, in whole episodes, and the distinct rows, so neither
        the joined array nor a flat copy of a part is ever built.
        """
        lead = parts[0].shape[:-1]
        if any(p.shape[:-1] != lead for p in parts) or len(lead) not in (1, 2):
            raise ValueError(f"parts of leading shapes {[p.shape[:-1] for p in parts]}: "
                             "they need one shared (n,) or (n, H)")
        if len(lead) == 1:
            parts = [p[:, None] for p in parts]
        n_episodes, h = parts[0].shape[:2]

        index = {}  # row bytes -> (code, index of the row's first appearance)
        code = np.empty(n_episodes * h, dtype=np.intp)
        per_block = max(1, cls.JOIN_BLOCK // max(h, 1))
        for first in range(0, n_episodes, per_block):
            block = np.concatenate([p[first : first + per_block] for p in parts], axis=2)
            block = block.reshape(-1, block.shape[2])
            start = first * h
            code[start : start + len(block)] = np.fromiter(
                (index.setdefault(row.tobytes(), (len(index), i))[0]
                 for i, row in enumerate(block, start)), dtype=np.intp, count=len(block))
        firsts = np.fromiter((i for _, i in index.values()), dtype=np.intp, count=len(index))
        episode, step = np.divmod(firsts, max(h, 1))
        return cls(np.concatenate([p[episode, step] for p in parts], axis=1), code)

    def __len__(self):
        return len(self.code)

    def take(self, idx):
        """Rows idx as a DistinctRows of their own, first seen first."""
        codes = self.code[idx]
        _, firsts = np.unique(codes, return_index=True)
        present = codes[np.sort(firsts)]
        slot = np.empty(len(self.distinct), dtype=np.intp)
        slot[present] = np.arange(len(present))
        return DistinctRows(self.distinct[present], slot[codes])

    def sum_rows(self, per_row):
        """Per-row values summed onto their distinct rows, in row order."""
        total = np.zeros((len(self.distinct),) + per_row.shape[1:])
        np.add.at(total, self.code, per_row)
        return total


def fit_supervised(net, adam, x, y, rng, epochs, minibatch, rows=None):
    """Minibatch Adam on a supervised loss, in place.

    x is the data as a DistinctRows. Integer y holds class labels and the
    loss is softmax cross-entropy; float y holds regression targets, (n,)
    for a one-output net or (n, out_dim), and the loss is half the mean
    squared error. Each epoch visits the `rows` of the data (all of them by
    default) in the order of rng.permutation, one Adam step per minibatch.

    A step runs the network once per distinct row of its minibatch
    (x.take). Each row's output gradient, still divided by the minibatch
    size, is taken from its distinct row's output (the softmax runs once
    per distinct row) and summed onto that row before one backward pass, so
    the gradient is the plain step's sum added in another order. A
    minibatch without repeated rows takes the plain step bit for bit.
    """
    if np.issubdtype(y.dtype, np.integer):
        output_grad = _softmax_xent_grad
    else:
        output_grad = _squared_error_grad
        y = y.reshape(len(y), -1)
    for _ in range(epochs):
        order = rng.permutation(len(x) if rows is None else rows)
        for start in range(0, len(order), minibatch):
            idx = order[start : start + minibatch]
            step = x.take(idx)
            out, cache = mlp_forward(net, step.distinct)
            grad = step.sum_rows(output_grad(out, step.code, y[idx]))
            adam_step(adam, net, mlp_backward(net, cache, grad))


FD_STEP = 1e-5


def finite_diff_grad(f, x):
    """Central finite differences (f(x+h e_i) - f(x-h e_i)) / 2h, h = FD_STEP."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    bad = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = FD_STEP
        fp = f(x + e)
        fm = f(x - e)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            bad.append(i)
            continue
        grad.flat[i] = (fp - fm) / (2.0 * FD_STEP)
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
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


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
