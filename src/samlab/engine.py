"""Reverse-mode differentiation on dense float64 tensors with Taylor jets.

Every value on the tape is a *jet*: a tuple of ``degree + 1`` numpy arrays
holding the coefficients of a truncated Taylor expansion in one scalar
parameter. Degree 0 is ordinary evaluation, degree 1 carries a tangent
(forward-over-reverse: the backward sweep then yields Hessian-vector
products), and degree 2 carries a second-order tangent whose backward sweep
yields third-order directional derivatives. Most backward rules are written
in jet arithmetic over saved forward jets, so their higher-order correctness
follows from the first-order rule.

Shapes are static per tape, reductions run in numpy's fixed index order, and
no randomness is involved, so repeated evaluation is bit-identical.

The thirteen ops are ``add``, ``sub``, ``mul``, ``scale``, ``matmul``,
``dense``, ``relu``, ``pow_int``, ``gelu``, ``softmax_ce``, ``sum_all``,
``slice1d`` and ``reshape``. Every one takes leading stack axes, which
evaluate several independent graphs on one tape in the manner of vmap: a
leaf of shape ``(B, d)`` holds B parameter vectors, and a scalar output that
sums B per-row losses has row b of its adjoint jet equal to row b's own jet.
``add``/``sub``/``mul`` broadcast as numpy does and reduce back in the VJP;
``scale``, ``relu``, ``pow_int`` and ``gelu`` are elementwise; ``reshape``
and ``sum_all`` take any shape. ``matmul`` multiplies the last two axes of
operands with equal leading axes, ``slice1d`` slices the last axis, and
``softmax_ce`` takes logits ``(..., n, C)`` with labels ``(..., n)`` and
sums the per-batch mean losses over the leading axes.

``dense``, ``gelu`` and ``softmax_ce`` are fused: each is one node.
``dense`` is an MLP layer ``h @ W + b`` that reads W and b as views of a
flat parameter leaf, with the arithmetic of ``slice1d``, ``reshape``,
``matmul`` and ``add`` composed. ``softmax_ce`` composes its forward jet
and VJP from the jet arithmetic below. ``gelu`` states its derivatives f',
f'' and f''' in closed form at the primal and builds both jets from them,
in fewer array operations than tanh of a cubic composed from jet products.
A constant's higher coefficients are one read-only zero, and ``matmul`` and
``dense`` multiply only the primal of a constant operand, such as an MLP's
data input.
"""

from __future__ import annotations

import numpy as np

MAX_DEGREE = 2

# tanh-form GeLU constants
GELU_C0 = 0.7978845608028654   # sqrt(2 / pi)
GELU_C1 = 0.044715
_GELU_C01 = GELU_C0 * GELU_C1

Jet = tuple  # tuple[np.ndarray, ...], length degree + 1


# ---------------------------------------------------------------------------
# jet arithmetic
# ---------------------------------------------------------------------------

def jet_const(value, degree: int) -> Jet:
    v = np.asarray(value, dtype=np.float64)
    return (v,) + tuple(np.zeros_like(v) for _ in range(degree))


def jadd(a: Jet, b: Jet) -> Jet:
    return tuple(x + y for x, y in zip(a, b))


def jsub(a: Jet, b: Jet) -> Jet:
    return tuple(x - y for x, y in zip(a, b))


def jneg(a: Jet) -> Jet:
    return tuple(-x for x in a)


def jscale(a: Jet, c: float) -> Jet:
    return tuple(c * x for x in a)


def _jplus(a: Jet, c: float) -> Jet:
    """a + c for a constant c: only the primal coefficient moves."""
    return (a[0] + c,) + a[1:]


def jmul(a: Jet, b: Jet) -> Jet:
    """Truncated product: coefficient m is sum of a_i * b_j over i + j = m."""
    k = len(a) - 1
    out = []
    for m in range(k + 1):
        acc = a[0] * b[m]
        for i in range(1, m + 1):
            acc = acc + a[i] * b[m - i]
        out.append(acc)
    return tuple(out)


def jmatmul(a: Jet, b: Jet) -> Jet:
    k = len(a) - 1
    out = []
    for m in range(k + 1):
        acc = a[0] @ b[m]
        for i in range(1, m + 1):
            acc = acc + a[i] @ b[m - i]
        out.append(acc)
    return tuple(out)


def jdiv(a: Jet, b: Jet) -> Jet:
    c0 = a[0] / b[0]
    out = [c0]
    if len(a) > 1:
        c1 = (a[1] - c0 * b[1]) / b[0]
        out.append(c1)
    if len(a) > 2:
        out.append((a[2] - c0 * b[2] - out[1] * b[1]) / b[0])
    return tuple(out)


def jexp(a: Jet) -> Jet:
    e = np.exp(a[0])
    out = [e]
    if len(a) > 1:
        out.append(e * a[1])
    if len(a) > 2:
        out.append(e * (a[2] + 0.5 * a[1] * a[1]))
    return tuple(out)


def jlog(a: Jet) -> Jet:
    out = [np.log(a[0])]
    if len(a) > 1:
        r = a[1] / a[0]
        out.append(r)
    if len(a) > 2:
        out.append(a[2] / a[0] - 0.5 * r * r)
    return tuple(out)


def jpow_int(a: Jet, p: int) -> Jet:
    if p < 1:
        raise ValueError("pow_int requires integer power >= 1")
    out = a
    for _ in range(p - 1):
        out = jmul(out, a)
    return out


def _reduce_to(arr: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast result back down to the given operand shape."""
    if arr.shape == shape:
        return arr
    extra = arr.ndim - len(shape)
    if extra > 0:
        arr = arr.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and arr.shape[i] != 1)
    if axes:
        arr = arr.sum(axis=axes, keepdims=True)
    return arr


def jreduce_to(a: Jet, shape: tuple) -> Jet:
    return tuple(_reduce_to(x, shape) for x in a)


# ---------------------------------------------------------------------------
# tape and nodes
# ---------------------------------------------------------------------------

class Tensor:
    """One node on a tape: a jet value plus links for the backward sweep."""

    __slots__ = ("tape", "idx", "op", "jet", "parents", "vjps", "requires_grad")

    def __init__(self, tape, op, jet, parents, vjps, requires_grad):
        self.tape = tape
        self.op = op
        self.jet = jet
        self.parents = parents
        self.vjps = vjps
        self.requires_grad = requires_grad
        self.idx = len(tape.nodes)
        tape.nodes.append(self)

    @property
    def value(self) -> np.ndarray:
        return self.jet[0]

    @property
    def shape(self) -> tuple:
        return self.jet[0].shape


class Tape:
    """Ordered record of operations; creation order is topological order."""

    def __init__(self, degree: int = 0):
        if not 0 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in [0, {MAX_DEGREE}]")
        self.degree = degree
        self.nodes: list[Tensor] = []

    def leaf(self, value, tangent=None) -> Tensor:
        """Differentiable input. The tangent seeds the jet's first-order
        coefficient; the second-order one is zero."""
        v = np.asarray(value, dtype=np.float64)
        coeffs = [v]
        for t in (tangent, None)[: self.degree]:
            coeffs.append(np.zeros_like(v) if t is None
                          else np.asarray(t, dtype=np.float64))
        return Tensor(self, "leaf", tuple(coeffs), (), (), True)

    def const(self, value) -> Tensor:
        """Non-differentiable input. Its higher coefficients are zero, held
        as one read-only zero broadcast to its shape, so a tape keeps no
        memory for them."""
        v = np.asarray(value, dtype=np.float64)
        jet = (v,)
        if self.degree:
            jet += (np.broadcast_to(0.0, v.shape),) * self.degree
        return Tensor(self, "const", jet, (), (), False)


def _make(tape, op, jet, parents, vjps) -> Tensor:
    rg = any(p.requires_grad for p in parents)
    return Tensor(tape, op, jet, tuple(parents), tuple(vjps), rg)


def _wrap(tape, x):
    return x if isinstance(x, Tensor) else tape.const(x)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    b = _wrap(a.tape, b)
    sa, sb = a.shape, b.shape
    return _make(a.tape, "add", jadd(a.jet, b.jet), (a, b),
                 (lambda g: jreduce_to(g, sa), lambda g: jreduce_to(g, sb)))


def sub(a: Tensor, b) -> Tensor:
    b = _wrap(a.tape, b)
    sa, sb = a.shape, b.shape
    return _make(a.tape, "sub", jsub(a.jet, b.jet), (a, b),
                 (lambda g: jreduce_to(g, sa),
                  lambda g: jreduce_to(jneg(g), sb)))


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(a.tape, b)
    sa, sb = a.shape, b.shape
    aj, bj = a.jet, b.jet
    return _make(a.tape, "mul", jmul(aj, bj), (a, b),
                 (lambda g: jreduce_to(jmul(g, bj), sa),
                  lambda g: jreduce_to(jmul(g, aj), sb)))


def scale(a: Tensor, c: float) -> Tensor:
    return _make(a.tape, "scale", jscale(a.jet, c), (a,),
                 (lambda g: jscale(g, c),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes must be equal.

    An operand that requires no grad is a constant, so its higher jet
    coefficients are zero: only its primal multiplies the other operand's
    coefficients, and it gets no VJP. An MLP's data input is one."""
    aj, bj = a.jet, b.jet
    if not a.requires_grad:
        a0T = aj[0].swapaxes(-1, -2)
        return _make(a.tape, "matmul", tuple(aj[0] @ c for c in bj), (a, b),
                     (None, lambda g: tuple(a0T @ c for c in g)))
    if not b.requires_grad:
        b0T = bj[0].swapaxes(-1, -2)
        return _make(a.tape, "matmul", tuple(c @ bj[0] for c in aj), (a, b),
                     (lambda g: tuple(c @ b0T for c in g), None))
    ajT = tuple(c.swapaxes(-1, -2) for c in aj)
    bjT = tuple(c.swapaxes(-1, -2) for c in bj)
    return _make(a.tape, "matmul", jmatmul(aj, bj), (a, b),
                 (lambda g: jmatmul(g, bjT), lambda g: jmatmul(ajT, g)))


def dense(h: Tensor, x: Tensor, offset: int, shape: tuple) -> Tensor:
    """One affine layer, ``h @ W + b``, as one node. W ``(fan_in, fan_out)``
    and then b ``(fan_out,)`` are views of each jet coefficient of x,
    starting at ``offset`` on its last axis; leading axes of x are stack
    axes, and h then has the same ones.

    The arithmetic is that of ``slice1d``, ``reshape``, ``matmul`` and
    ``add`` composed, bit for bit, without their nodes: a constant h
    multiplies only its primal, and x's adjoint is one zero array per
    coefficient with ``h^T g`` in the W block and ``g`` summed over rows in
    the b block."""
    fan_in, fan_out = shape
    full = x.shape
    lead = full[:-1]
    mid = offset + fan_in * fan_out
    stop = mid + fan_out
    wj = tuple(c[..., offset:mid].reshape(lead + shape) for c in x.jet)
    bj = tuple(c[..., None, mid:stop] for c in x.jet)
    hj, const = h.jet, not h.requires_grad
    hjT = tuple(c.swapaxes(-1, -2) for c in hj)
    out = tuple(hj[0] @ c for c in wj) if const else jmatmul(hj, wj)

    def vjp_h(g):
        return jmatmul(g, tuple(c.swapaxes(-1, -2) for c in wj))

    def vjp_x(g):
        gw = tuple(hjT[0] @ c for c in g) if const else jmatmul(hjT, g)
        adj = []
        for cw, cg in zip(gw, g):
            z = np.zeros(full)
            z[..., offset:mid] = cw.reshape(lead + (mid - offset,))
            z[..., mid:stop] = cg.sum(axis=-2)
            adj.append(z)
        return tuple(adj)

    return _make(x.tape, "dense", jadd(out, bj), (h, x),
                 (None if const else vjp_h, vjp_x))


def relu(a: Tensor) -> Tensor:
    # The active set is fixed by the primal coefficient, so all jet
    # coefficients share one mask. ReLU has no Taylor expansion at the kink;
    # an input of exactly 0 takes the zero branch.
    mask = (a.jet[0] > 0.0).astype(np.float64)
    return _make(a.tape, "relu", tuple(c * mask for c in a.jet), (a,),
                 (lambda g: tuple(c * mask for c in g),))


def pow_int(a: Tensor, p: int) -> Tensor:
    aj = a.jet

    def vjp(g):
        if p == 1:
            return g
        return jmul(g, jscale(jpow_int(aj, p - 1), float(p)))

    return _make(a.tape, f"pow{p}", jpow_int(aj, p), (a,), (vjp,))


def gelu(a: Tensor) -> Tensor:
    """Tanh-form GeLU, f(a) = a (1 + t) / 2 with t = tanh(u), u = c0 (a + c1 a^3).

    The derivatives f', f'' and f''' at the primal a0 are closed-form in t,
    each computed only if the tape's degree needs it. The forward jet is
    (f, f' a1, f' a2 + f'' a1^2 / 2), and the VJP multiplies by the jet of
    f', which is (f', f'' a1, f'' a2 + f''' a1^2 / 2).
    """
    aj = a.jet
    a0 = aj[0]
    sq = a0 * a0
    t = np.tanh(a0 * (_GELU_C01 * sq + GELU_C0))
    half = 0.5 * t + 0.5                               # (1 + t) / 2
    s = 1.0 - t * t                                    # sech^2 u = t' / u'
    du = (3.0 * _GELU_C01) * sq + GELU_C0              # u'
    out = [a0 * half]
    fp = [half + 0.5 * a0 * (s * du)]                  # f' = (1 + t)/2 + a t'/2
    if len(aj) > 1:
        # f'' = t' + a t''/2 = s p with p = u' + a u''/2 - a t u'^2
        du2 = du * du
        p = (6.0 * _GELU_C01) * sq + GELU_C0 - a0 * t * du2
        f2 = s * p
        out.append(fp[0] * aj[1])
        fp.append(f2 * aj[1])
    if len(aj) > 2:
        # f''' = (s p)' = s (p' - 2 t u' p), with u'' = 6 c0 c1 a
        dp = ((12.0 * _GELU_C01) * a0 * (1.0 - a0 * t * du)
              - du2 * (t + a0 * s * du))
        f3 = s * (dp - 2.0 * t * du * p)
        out.append(fp[0] * aj[2] + 0.5 * fp[1] * aj[1])
        fp.append(f2 * aj[2] + 0.5 * f3 * aj[1] * aj[1])
    fp = tuple(fp)
    return _make(a.tape, "gelu", tuple(out), (a,), (lambda g: jmul(g, fp),))


def softmax_ce(z: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy of logits ``(..., n, C)`` against integer labels
    ``(..., n)``: the mean over n rows, summed over any leading axes.

    The log-sum-exp is shifted by the row maximum of the primal logits, a
    constant, so large logits stay finite. The VJP is
    ``g / n * (softmax(z) - onehot)``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    where = (*np.indices(labels.shape, sparse=True), labels)
    n = labels.shape[-1]
    zj = z.jet
    m = zj[0].max(axis=-1, keepdims=True)
    e = jexp(_jplus(zj, -m))
    s = tuple(c.sum(axis=-1, keepdims=True) for c in e)
    lse = _jplus(jlog(s), m)
    out = tuple(np.asarray((l[..., 0] - c[where]).sum() / n)
                for l, c in zip(lse, zj))

    def vjp(g):
        p = jdiv(e, s)
        p[0][where] -= 1.0
        return jmul(jscale(g, 1.0 / n), p)

    return _make(z.tape, "softmax_ce", out, (z,), (vjp,))


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return _make(a.tape, "sum", tuple(np.asarray(c.sum()) for c in a.jet), (a,),
                 (lambda g: tuple(np.broadcast_to(c, shape).copy() for c in g),))


def slice1d(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice [start, stop) of the last axis."""
    shape = a.shape

    def vjp(g):
        out = []
        for c in g:
            z = np.zeros(shape)
            z[..., start:stop] = c
            out.append(z)
        return tuple(out)

    return _make(a.tape, "slice", tuple(c[..., start:stop] for c in a.jet), (a,),
                 (vjp,))


def reshape(a: Tensor, shape: tuple) -> Tensor:
    old = a.shape
    return _make(a.tape, "reshape", tuple(c.reshape(shape) for c in a.jet), (a,),
                 (lambda g: tuple(c.reshape(old) for c in g),))


# ---------------------------------------------------------------------------
# backward sweep
# ---------------------------------------------------------------------------

def backward(output: Tensor, wrt: list[Tensor]) -> list[Jet]:
    """Adjoint jets of a scalar output with respect to the given leaves.

    Coefficient i of the returned jet for leaf x is (1/i!) d^i/de^i of the
    gradient map evaluated along the tangents seeded into x. Degree 1 thus
    yields (grad, H v); degree 2 yields (grad, H u, third(u, u) / 2).
    """
    if output.value.shape != ():
        raise ValueError("backward expects a scalar output node")
    tape = output.tape
    adj: list[Jet | None] = [None] * len(tape.nodes)
    adj[output.idx] = jet_const(1.0, tape.degree)
    for node in reversed(tape.nodes):
        g = adj[node.idx]
        if g is None or not node.requires_grad or not node.parents:
            continue
        # Consumed once passed to the parents; leaves keep theirs.
        adj[node.idx] = None
        for parent, vjp in zip(node.parents, node.vjps):
            if not parent.requires_grad:
                continue
            contrib = vjp(g)
            if adj[parent.idx] is None:
                adj[parent.idx] = contrib
            else:
                adj[parent.idx] = jadd(adj[parent.idx], contrib)
    out = []
    for leaf in wrt:
        g = adj[leaf.idx]
        out.append(g if g is not None else jet_const(np.zeros(leaf.shape), tape.degree))
    return out
