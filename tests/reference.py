"""A straight-line numpy MLP with hand-written derivatives, as a test oracle.

It shares nothing with the tape engine: the forward pass, the backward pass
and the Hessian-vector product below are written out layer by layer from
the model's definition. From ``samlab`` it may import only the dataset
generators, ``models.init_params``, ``rng.stream``, ``data.sample_batch``
and the config resolver; it imports none of them itself, so whatever a test
feeds it comes from there.

The model: layers of widths ``(in, hidden..., out)``; layer i reads its
weight W_i ``(fan_in, fan_out)``, row-major, and then its bias b_i
``(fan_out,)`` from consecutive coordinates of the flat parameters. Every
layer but the last is followed by the tanh-form GeLU
``a (1 + tanh(c0 (a + c1 a^3))) / 2`` or by ReLU. The loss of one batch of
n rows is softmax cross-entropy averaged over the rows (integer labels),
or ``sum((z - t)^2) / (2 n)`` against targets t (MSE; integer labels are
one-hot targets). Stacked inputs ``(S, n, in)`` with ``(S, d)`` parameters
give the sum of the S batch losses, and row s of the gradient is batch s's.
"""

from __future__ import annotations

import numpy as np

C0 = 0.7978845608028654   # sqrt(2 / pi)
C1 = 0.044715


def _act(kind: str, a: np.ndarray, order: int) -> tuple:
    """(f(a), f'(a)) of the activation, elementwise, and f''(a) at order 2."""
    if kind == "relu":
        return (np.maximum(a, 0.0), (a > 0.0).astype(float),
                np.zeros_like(a))[:order + 1]
    sq = a * a
    t = np.tanh(C0 * a * (1.0 + C1 * sq))
    s = 1.0 - t * t                                    # tanh' at u
    du = C0 * (1.0 + 3.0 * C1 * sq)                    # u'(a)
    out = (0.5 * a * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * a * s * du)
    if order < 2:
        return out
    # f'' = s u' + a (s u'' - 2 t s u'^2) / 2, with u'' = 6 c0 c1 a
    return out + (s * (du + 3.0 * C0 * C1 * sq - a * t * du * du),)


def _layers(widths, params: np.ndarray) -> list:
    """(W_i, b_i) per layer as views of the ``(..., d)`` parameters."""
    out, at = [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        w = params[..., at:at + fan_in * fan_out]
        at += fan_in * fan_out
        out.append((w.reshape(params.shape[:-1] + (fan_in, fan_out)),
                    params[..., at:at + fan_out]))
        at += fan_out
    if at != params.shape[-1]:
        raise ValueError(f"{params.shape[-1]} parameters for {at} in the layers")
    return out


def _targets(head: str, labels, out: int) -> np.ndarray:
    labels = np.asarray(labels)
    if head == "ce" or labels.dtype.kind in "iu":
        return np.eye(out)[labels]
    return labels.astype(float)


def _forward(widths, activation, params, inputs, order) -> tuple:
    """The layers, the pre-activations a_i and inputs h_i of every layer,
    and the activation's derivatives at each hidden a_i up to ``order``."""
    h, pre, ins, derivs = np.asarray(inputs, dtype=float), [], [], []
    layers = _layers(widths, params)
    for i, (w, b) in enumerate(layers):
        ins.append(h)
        pre.append(h @ w + b[..., None, :])
        if i < len(layers) - 1:
            h, *d = _act(activation, pre[-1], order)
            derivs.append(d)
    return layers, pre, ins, derivs


def _head(head, z, t) -> tuple:
    """(loss, dloss/dz, the map v -> d(dloss/dz)[v]) of the summed batch
    losses over logits z ``(..., n, out)`` and one-hot or real targets t."""
    n = z.shape[-2]
    if head == "mse":
        return np.sum((z - t) ** 2) / (2 * n), (z - t) / n, lambda v: v / n
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    se = e.sum(axis=-1, keepdims=True)
    p = e / se
    loss = np.sum(np.log(se) + m - np.sum(z * t, axis=-1, keepdims=True)) / n
    return (loss, (p - t) / n,
            lambda v: p * (v - np.sum(p * v, axis=-1, keepdims=True)) / n)


def _flat(widths, grads: list) -> np.ndarray:
    """The per-layer (dW_i, db_i) in the flat layout."""
    lead = grads[0][0].shape[:-2]
    return np.concatenate([np.concatenate([dw.reshape(lead + (-1,)), db], axis=-1)
                           for dw, db in grads], axis=-1)


def loss_and_grad(widths, activation, head, params, inputs, labels) -> tuple:
    """(loss, gradient) by the hand-written backward pass."""
    params = np.asarray(params, dtype=float)
    layers, pre, ins, derivs = _forward(widths, activation, params, inputs, 1)
    loss, da, _ = _head(head, pre[-1], _targets(head, labels, widths[-1]))
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        grads.append((ins[i].swapaxes(-1, -2) @ da, da.sum(axis=-2)))
        if i:
            da = (da @ layers[i][0].swapaxes(-1, -2)) * derivs[i - 1][0]
    return float(loss), _flat(widths, grads[::-1])


def hvp(widths, activation, head, params, inputs, labels, v) -> np.ndarray:
    """H v by a hand-written forward-over-reverse pass: the directional
    derivative along v of every quantity of :func:`loss_and_grad`."""
    params = np.asarray(params, dtype=float)
    layers, pre, ins, derivs = _forward(widths, activation, params, inputs, 2)
    dlayers = _layers(widths, np.asarray(v, dtype=float))
    # tangents of the layer inputs (the data's is zero) and pre-activations
    dins, dpre = [None], []
    for i, ((w, _), (dw, db)) in enumerate(zip(layers, dlayers)):
        dpre.append(ins[i] @ dw + db[..., None, :])
        if i:
            dpre[i] += dins[i] @ w
        if i < len(layers) - 1:
            dins.append(derivs[i][0] * dpre[i])
    _, da, dhead = _head(head, pre[-1], _targets(head, labels, widths[-1]))
    dda = dhead(dpre[-1])
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        dw = ins[i].swapaxes(-1, -2) @ dda
        if i:
            dw += dins[i].swapaxes(-1, -2) @ da
        grads.append((dw, dda.sum(axis=-2)))
        if i:
            w, dw = layers[i][0].swapaxes(-1, -2), dlayers[i][0].swapaxes(-1, -2)
            f1, f2 = derivs[i - 1]
            dh = da @ w
            dda = (dda @ w + da @ dw) * f1 + dh * f2 * dpre[i - 1]
            da = dh * f1
    return _flat(widths, grads[::-1])


def third(widths, activation, head, params, inputs, labels, u,
          h=1e-4) -> np.ndarray:
    """third(u, u), the derivative along u of H u, as the central
    difference (H(x + h u) u - H(x - h u) u) / (2 h) of :func:`hvp`, row by
    row for stacked parameters. Its error is O(h^2) (see the tests)."""
    params, u = np.asarray(params, dtype=float), np.asarray(u, dtype=float)
    return (hvp(widths, activation, head, params + h * u, inputs, labels, u)
            - hvp(widths, activation, head, params - h * u, inputs, labels, u)
            ) / (2 * h)
