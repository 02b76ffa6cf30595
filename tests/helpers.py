"""Independent reference implementations used as test oracles.

Nothing here touches the tape engine: gradients come from central
differences of plain loss evaluations, the MLP forward pass is a
straight-line numpy reimplementation, and dense Hessians are assembled
column by column so they can be fed to numpy's eigensolver.
"""

from __future__ import annotations

import numpy as np

GELU_C0 = 0.7978845608028654
GELU_C1 = 0.044715


def gelu(a):
    """Tanh-form GeLU, elementwise on a float or an array."""
    return 0.5 * a * (1 + np.tanh(GELU_C0 * (a + GELU_C1 * a ** 3)))


def central_diff_derivatives(fn, a):
    """First, second and third derivatives of an elementwise function at a,
    by central differences with steps 1e-5, 1e-4 and 1e-3 (larger steps for
    higher orders, whose quotients amplify round-off more)."""
    h = 1e-5
    d1 = (fn(a + h) - fn(a - h)) / (2 * h)
    h = 1e-4
    d2 = (fn(a + h) - 2 * fn(a) + fn(a - h)) / h ** 2
    h = 1e-3
    d3 = (fn(a + 2 * h) - 2 * fn(a + h) + 2 * fn(a - h) - fn(a - 2 * h)) / (2 * h ** 3)
    return d1, d2, d3


def central_diff_grad(loss_fn, x, h=1e-5):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (loss_fn(x + e) - loss_fn(x - e)) / (2 * h)
    return g


def straightline_mlp_loss(spec, params, inputs, labels):
    """Forward pass + loss without the tape, mirroring the model conventions."""
    layers = spec.layers
    h = np.asarray(inputs, dtype=np.float64)
    offset = 0
    n_layers = len(layers) - 1
    for i, (fan_in, fan_out) in enumerate(zip(layers[:-1], layers[1:])):
        w = params[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = params[offset:offset + fan_out]
        offset += fan_out
        h = h @ w + b
        if i < n_layers - 1:
            if spec.activation == "gelu":
                h = gelu(h)
            else:
                h = np.maximum(h, 0.0)
    if spec.head == "ce":
        labels = np.asarray(labels, dtype=np.int64)
        m = h.max(axis=1, keepdims=True)
        lse = np.log(np.exp(h - m).sum(axis=1)) + m[:, 0]
        return float((lse - h[np.arange(h.shape[0]), labels]).mean())
    targets = np.asarray(labels, dtype=np.float64)
    if targets.ndim == 1:
        targets = np.eye(layers[-1])[targets.astype(np.int64)]
    return float(((h - targets) ** 2).sum() / (2 * targets.shape[0]))


def count_jets(oracle):
    """Wrap ``oracle.jet`` so that each call, one HVP, appends to the
    returned list."""
    calls = []
    jet = oracle.jet

    def counted(*args, **kwargs):
        calls.append(1)
        return jet(*args, **kwargs)
    oracle.jet = counted
    return calls


def dense_hessian(oracle, x):
    """Hessian assembled one HVP per coordinate."""
    d = oracle.dim
    out = np.zeros((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        out[:, i] = oracle.hvp(x, e)
    return 0.5 * (out + out.T)


def random_symmetric(dim, seed, scale=1.0, gap=0.0):
    """Random symmetric matrix; a positive gap makes the top eigenvalue
    dominate in magnitude (the regime power iteration is built for)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    a = scale * (a + a.T) / 2
    if gap > 0.0:
        vals, vecs = np.linalg.eigh(a)
        vals[-1] = np.abs(vals).max() + gap
        a = (vecs * vals) @ vecs.T
    return a


def matrix_with_spectrum(values, seed):
    """Symmetric matrix with the given eigenvalues in a random basis."""
    values = np.asarray(values, dtype=np.float64)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((values.size, values.size)))
    return (q * values) @ q.T


def zoo_specs():
    """Three smooth model specs exercised by the correctness-core checks."""
    from samlab.models import MlpSpec

    return (MlpSpec((2, 8, 2), "gelu", "ce"),
            MlpSpec((3, 7, 4), "gelu", "ce"),
            MlpSpec((2, 6, 1), "gelu", "mse"))


def zoo_oracle(spec, mode="exact", n=24, seed=5):
    from samlab.data import gen_synthetic
    from samlab.models import mlp_oracle

    # The blob embedding needs dim >= classes; labels only need to fit the head.
    classes = min(spec.layers[-1], spec.layers[0]) if spec.head == "ce" \
        else min(spec.layers[0], 2)
    ds = gen_synthetic(n, spec.layers[0], classes, 3.0, seed)
    labels = ds.labels
    if spec.head == "mse":
        rng = np.random.default_rng(seed)
        labels = rng.standard_normal((n, spec.layers[-1]))
    return mlp_oracle(spec, ds.inputs, labels, mode=mode)
