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
``slice1d`` and ``reshape``. All take leading stack axes, which evaluate
independent graphs on one tape as vmap does: a ``(B, d)`` leaf holds B
parameter vectors, and row b of the adjoint of a sum of B per-row losses
is row b's own. ``add``/``sub``/``mul`` broadcast and reduce back in the
VJP; ``matmul`` multiplies the last two axes, ``slice1d`` slices the last
axis, and ``softmax_ce`` sums per-batch mean losses over leading axes.

``dense``, ``gelu`` and ``softmax_ce`` are fused: each is one node.
``dense`` is an MLP layer ``h @ W + b`` that reads W and b as views of a
flat parameter leaf, with the arithmetic of ``slice1d``, ``reshape``,
``matmul`` and ``add`` composed. ``softmax_ce`` composes its forward jet
and VJP from the jet arithmetic below. ``gelu`` states its derivatives f',
f'' and f''' in closed form at the primal and builds both jets from them,
in fewer array operations than tanh of a cubic composed from jet products.
A constant's higher coefficients are zero, so ``matmul`` and ``dense``
multiply only its primal; ``dense`` takes one, such as an MLP's data batch,
as a plain array, which is no node on the tape.

Record and push. Each op has one rule in two parts. The primal part runs
when the node is made: coefficient 0 and the factors that depend only on
the primal point. The tangent part computes coefficients 1..k from the
parents' jets; a tape of degree k runs it right after the primal part.
The VJP ``vjp(g, lo)`` gives coefficients lo..k of a parent's adjoint from
the node's adjoint jet g. A tape thus *records* its point: every node's
coefficient 0 and factors, and, after :func:`backward`, coefficient 0 of
the adjoints a push reads (the leaves' and every non-linear VJP's).
:meth:`Tape.push` seeds a new tangent there and runs only the tangent
parts, and the next :func:`backward` sweeps coefficients 1..k only
(lo = 1): an HVP at a recorded point is one tangent sweep each way over a
fixed linearisation. The factors kept are
GeLU's f' (with f'' and f''' once a degree has needed them, t until then),
softmax_ce's exponentials, sums and quotient, ReLU's mask, pow_int's powers
and dense's constant input and view of W at the primal.
Coefficient m of every rule depends on coefficients 0..m of its inputs
only, so a push gives a fresh pass's coefficients bit for bit.

In place. A rule writes in place only into an array it allocated in the
same call, and only before it hands that array on. It never writes into
an array that a caller got back, that the record holds, or that a rule
keeps as a factor: GeLU's t, f' and f'', softmax_ce's e and s, dense's
h0 and W. An in-place step reorders only commutative operations, so
``p = s * du; p *= 0.5 * a0; p += half`` has the bits of
``half + 0.5 * a0 * (s * du)``.
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
    return tuple(map(np.add, a, b))


def jscale(a: Jet, c: float) -> Jet:
    return tuple(c * x for x in a)


def jmul(a: Jet, b: Jet, lo: int = 0) -> Jet:
    """Coefficients lo..k of the truncated product: coefficient m is the
    sum of a_i * b_j over i + j = m."""
    if len(a) == 1 and not lo:
        return (a[0] * b[0],)
    out = []
    for m in range(lo, len(a)):
        acc = a[0] * b[m]
        for i in range(1, m + 1):
            acc += a[i] * b[m - i]
        out.append(acc)
    return tuple(out)


def jmatmul(a: Jet, b: Jet, lo: int = 0) -> Jet:
    """Coefficients lo..k of the truncated matrix product."""
    if len(a) == 1 and not lo:
        return (a[0] @ b[0],)
    out = []
    for m in range(lo, len(a)):
        acc = a[0] @ b[m]
        for i in range(1, m + 1):
            acc += a[i] @ b[m - i]
        out.append(acc)
    return tuple(out)


def jdiv(a: Jet, b: Jet, c0=None) -> Jet:
    """a / b; ``c0`` is a[0] / b[0] where it is already known."""
    c0 = a[0] / b[0] if c0 is None else c0
    out = [c0]
    if len(a) > 1:
        c1 = a[1] - c0 * b[1]
        c1 /= b[0]
        out.append(c1)
    if len(a) > 2:
        c2 = a[2] - c0 * b[2]
        c2 -= c1 * b[1]
        c2 /= b[0]
        out.append(c2)
    return tuple(out)


def jexp(a: Jet, e=None) -> Jet:
    """exp(a); ``e`` is exp(a[0]) where it is already known."""
    e = np.exp(a[0]) if e is None else e
    out = [e]
    if len(a) > 1:
        out.append(e * a[1])
    if len(a) > 2:
        c2 = 0.5 * a[1]
        c2 *= a[1]
        c2 += a[2]
        c2 *= e
        out.append(c2)
    return tuple(out)


def jlog(a: Jet, log0=None) -> Jet:
    """log(a); ``log0`` is log(a[0]) where it is already known."""
    out = [np.log(a[0]) if log0 is None else log0]
    if len(a) > 1:
        r = a[1] / a[0]
        out.append(r)
    if len(a) > 2:
        c2 = a[2] / a[0]
        c2 -= 0.5 * r * r
        out.append(c2)
    return tuple(out)


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


def _transposed(a: Jet) -> list:
    return [c.swapaxes(-1, -2) for c in a]


# backward's adjoint of its scalar output per degree, (1, 0, ..), read-only
_SEEDS = tuple(tuple(np.broadcast_to(c, ()) for c in jet_const(1.0, k))
               for k in range(MAX_DEGREE + 1))


# ---------------------------------------------------------------------------
# tape and nodes
# ---------------------------------------------------------------------------

class Tensor:
    """One node on a tape: a jet value plus links for the backward sweep.

    ``tangent()`` is the tangent part of the node's rule, None for leaves
    and constants, whose higher coefficients the tape seeds. A ``linear``
    node's VJPs map each adjoint coefficient on its own, so a push needs
    no coefficient 0 of its adjoint."""

    __slots__ = ("tape", "idx", "op", "jet", "parents", "vjps",
                 "requires_grad", "tangent", "linear")

    def __init__(self, tape, op, jet, parents, vjps, requires_grad,
                 tangent=None, linear=False):
        self.tape = tape
        self.op = op
        self.jet = jet
        self.parents = parents
        self.vjps = vjps
        self.requires_grad = requires_grad
        self.tangent = tangent
        self.linear = linear
        self.idx = len(tape.nodes)
        tape.nodes.append(self)

    @property
    def value(self) -> np.ndarray:
        return self.jet[0]

    @property
    def shape(self) -> tuple:
        return self.jet[0].shape


class Tape:
    """Ordered record of operations; creation order is topological order.

    ``adjoint`` is None until :func:`backward` sweeps the tape, then the
    output's index and, per node, coefficient 0 of its adjoint: None for a
    linear node and where the output does not reach."""

    def __init__(self, degree: int = 0):
        _check_degree(degree)
        self.degree = degree
        self.nodes: list[Tensor] = []
        self.adjoint = None

    def _seeds(self, v: np.ndarray, tangent) -> tuple:
        """A leaf's coefficients 1..degree: the tangent, then zeros."""
        return tuple(np.zeros_like(v) if t is None
                     else np.asarray(t, dtype=np.float64)
                     for t in (tangent, None)[: self.degree])

    def _zeros(self, v: np.ndarray) -> tuple:
        """A constant's coefficients 1..degree: one read-only zero, so a
        tape keeps no memory for them."""
        return (np.broadcast_to(0.0, v.shape),) * self.degree if self.degree else ()

    def leaf(self, value, tangent=None) -> Tensor:
        """Differentiable input. The tangent seeds the jet's first-order
        coefficient; the second-order one is zero."""
        v = np.asarray(value, dtype=np.float64)
        jet = (v,) + self._seeds(v, tangent) if self.degree else (v,)
        return Tensor(self, "leaf", jet, (), (), True)

    def const(self, value) -> Tensor:
        """Non-differentiable input; its higher coefficients are zero."""
        v = np.asarray(value, dtype=np.float64)
        return Tensor(self, "const", (v,) + self._zeros(v), (), (), False)

    def push(self, leaf: Tensor, tangent, degree: int) -> None:
        """Seed ``leaf`` with the tangent (any other leaf with zero) at the
        recorded point and sweep coefficients 1..degree of every node's jet
        by its tangent part; coefficient 0 and the factors stay as
        recorded. The next :func:`backward` then sweeps coefficients
        1..degree only."""
        _check_degree(degree)
        self.degree = degree
        for node in self.nodes:
            v = node.jet[0]
            if node.tangent is not None:
                node.jet = (v,) + node.tangent()
            elif node.requires_grad:
                node.jet = (v,) + self._seeds(v, tangent if node is leaf else None)
            else:
                node.jet = (v,) + self._zeros(v)


def _check_degree(degree: int) -> None:
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_DEGREE}]")


def _make(tape, op, primal, parents: tuple, vjps: tuple, tangent,
          linear: bool = False) -> Tensor:
    """A node from the primal part of its rule; a tape of degree > 0 runs
    the tangent part at once."""
    rg = False
    for p in parents:
        if p.requires_grad:
            rg = True
            break
    node = Tensor(tape, op, (primal,), parents, vjps, rg, tangent, linear)
    if tape.degree:
        node.jet += tangent()
    return node


def _wrap(tape, x):
    return x if isinstance(x, Tensor) else tape.const(x)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    b = _wrap(a.tape, b)
    sa, sb = a.shape, b.shape
    return _make(a.tape, "add", a.jet[0] + b.jet[0], (a, b),
                 (lambda g, lo=0: jreduce_to(g[lo:], sa),
                  lambda g, lo=0: jreduce_to(g[lo:], sb)),
                 lambda: jadd(a.jet[1:], b.jet[1:]), linear=True)


def sub(a: Tensor, b) -> Tensor:
    b = _wrap(a.tape, b)
    sa, sb = a.shape, b.shape
    return _make(a.tape, "sub", a.jet[0] - b.jet[0], (a, b),
                 (lambda g, lo=0: jreduce_to(g[lo:], sa),
                  lambda g, lo=0: jreduce_to(tuple(map(np.negative, g[lo:])), sb)),
                 lambda: tuple(map(np.subtract, a.jet[1:], b.jet[1:])), linear=True)


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(a.tape, b)
    sa, sb = a.shape, b.shape
    return _make(a.tape, "mul", a.jet[0] * b.jet[0], (a, b),
                 (lambda g, lo=0: jreduce_to(jmul(g, b.jet, lo), sa),
                  lambda g, lo=0: jreduce_to(jmul(g, a.jet, lo), sb)),
                 lambda: jmul(a.jet, b.jet, 1))


def scale(a: Tensor, c: float) -> Tensor:
    return _make(a.tape, "scale", c * a.jet[0], (a,),
                 (lambda g, lo=0: jscale(g[lo:], c),),
                 lambda: jscale(a.jet[1:], c), linear=True)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes must be equal.

    An operand that requires no grad is a constant, so its higher jet
    coefficients are zero: only its primal multiplies the other operand's
    coefficients, and it gets no VJP. An MLP's data input is one."""
    a0, b0 = a.jet[0], b.jet[0]
    if not a.requires_grad:
        a0T = a0.swapaxes(-1, -2)
        return _make(a.tape, "matmul", a0 @ b0, (a, b),
                     (None, lambda g, lo=0: tuple(a0T @ c for c in g[lo:])),
                     lambda: tuple(a0 @ c for c in b.jet[1:]), linear=True)
    if not b.requires_grad:
        b0T = b0.swapaxes(-1, -2)
        return _make(a.tape, "matmul", a0 @ b0, (a, b),
                     (lambda g, lo=0: tuple(c @ b0T for c in g[lo:]), None),
                     lambda: tuple(c @ b0 for c in a.jet[1:]), linear=True)
    return _make(a.tape, "matmul", a0 @ b0, (a, b),
                 (lambda g, lo=0: jmatmul(g, _transposed(b.jet), lo),
                  lambda g, lo=0: jmatmul(_transposed(a.jet), g, lo)),
                 lambda: jmatmul(a.jet, b.jet, 1))


def dense(h, x: Tensor, offset: int, shape: tuple) -> Tensor:
    """One affine layer, ``h @ W + b``, as one node. W ``(fan_in, fan_out)``
    and then b ``(fan_out,)`` are views of each jet coefficient of x,
    starting at ``offset`` on its last axis; leading axes of x are stack
    axes, and h then has the same ones.

    The arithmetic is that of ``slice1d``, ``reshape``, ``matmul`` and
    ``add`` composed, bit for bit, without their nodes. An h that is an
    array of data, or a node that requires no grad, is a constant: only
    its primal multiplies, and x is the one parent. x's adjoint is one zero
    array per coefficient with ``h^T g`` in the W block and ``g`` summed
    over rows in the b block."""
    fan_in, fan_out = shape
    mid = offset + fan_in * fan_out
    stop = mid + fan_out
    x0 = x.jet[0]
    wshape = x0.shape[:-1] + shape
    w0 = x0[..., offset:mid].reshape(wshape)
    const = not isinstance(h, Tensor) or not h.requires_grad
    h0 = h.jet[0] if isinstance(h, Tensor) else h

    def weights():
        # W's jet: the view of x's primal made with the node, then views
        # of x's current higher coefficients
        return [w0] + [c[..., offset:mid].reshape(wshape) for c in x.jet[1:]]

    def tangent():
        wj = weights()
        out = ([h0 @ c for c in wj[1:]] if const
               else jmatmul(h.jet, wj, 1))
        for c, cx in zip(out, x.jet[1:]):
            c += cx[..., None, mid:stop]
        return tuple(out)

    def vjp_h(g, lo=0):
        return jmatmul(g, _transposed(weights()), lo)

    def vjp_x(g, lo=0):
        hT = _transposed((h0,) if const else h.jet)
        adj = []
        for m in range(lo, len(g)):
            z = np.zeros(x0.shape)
            # h^T g, coefficient m summing hT_i g_(m-i), into a view of z
            zw = z[..., offset:mid].reshape(wshape)
            np.matmul(hT[0], g[m], out=zw)
            for i in range(1, min(m + 1, len(hT))):
                zw += hT[i] @ g[m - i]
            np.add.reduce(g[m], axis=-2, out=z[..., mid:stop])
            adj.append(z)
        return adj

    out = h0 @ w0
    out += x0[..., None, mid:stop]
    parents, vjps = ((x,), (vjp_x,)) if const else ((h, x), (vjp_h, vjp_x))
    return _make(x.tape, "dense", out, parents, vjps, tangent, linear=const)


def relu(a: Tensor) -> Tensor:
    # The active set is fixed by the primal coefficient, so all jet
    # coefficients share one mask. ReLU has no Taylor expansion at the kink;
    # an input of exactly 0 takes the zero branch.
    mask = (a.jet[0] > 0.0).astype(np.float64)
    return _make(a.tape, "relu", a.jet[0] * mask, (a,),
                 (lambda g, lo=0: tuple(c * mask for c in g[lo:]),),
                 lambda: tuple(c * mask for c in a.jet[1:]), linear=True)


def pow_int(a: Tensor, p: int) -> Tensor:
    """a^p by repeated jet products; the VJP multiplies by the jet of
    p a^(p-1), the product chain's second-to-last jet."""
    if p < 1:
        raise ValueError("pow_int requires integer power >= 1")
    a0 = a.jet[0]
    powers = [a0]                                      # a^1 .. a^p at a0
    for _ in range(p - 1):
        powers.append(powers[-1] * a0)
    slope = [float(p) * powers[-2]] if p > 1 else []   # jet of p a^(p-1)

    def tangent():
        aj = a.jet
        out = aj
        for i in range(1, p):
            if i == p - 1:
                slope[1:] = jscale(out[1:], float(p))
            out = (powers[i],) + jmul(out, aj, 1)
        return out[1:]

    def vjp(g, lo=0):
        return jmul(g, slope, lo) if p > 1 else g[lo:]

    return _make(a.tape, f"pow{p}", powers[-1], (a,), (vjp,), tangent,
                 linear=p == 1)


def _gelu_factors(a0: np.ndarray, t=None) -> tuple:
    """(a^2, t, sech^2 u, u') at a0 for the tanh-form GeLU, t = tanh(u) with
    u = c0 (a + c1 a^3); t is computed unless given."""
    sq = a0 * a0
    if t is None:
        t = _GELU_C01 * sq
        t += GELU_C0
        t *= a0
        t = np.tanh(t)
    s = 1.0 - t * t
    du = (3.0 * _GELU_C01) * sq
    du += GELU_C0
    return sq, t, s, du


def _gelu_higher(a0, sq, t, s, du, k: int) -> list:
    """f'' and, at k = 2, f''' at a0 (none at k = 0), from _gelu_factors."""
    if not k:
        return []
    # f'' = t' + a t''/2 = s p with p = u' + a u''/2 - a t u'^2
    du2 = du * du
    at = a0 * t
    p = (6.0 * _GELU_C01) * sq
    p += GELU_C0
    p -= at * du2
    out = [s * p]
    if k > 1:
        # f''' = (s p)' = s (p' - 2 t u' p), with u'' = 6 c0 c1 a, and
        # p' = 12 c0 c1 a (1 - a t u') - u'^2 (t + a s u')
        dp = 1.0 - at * du
        dp *= (12.0 * _GELU_C01) * a0
        w = a0 * s
        w *= du
        w += t
        w *= du2
        dp -= w
        w = 2.0 * t
        w *= du
        w *= p
        dp -= w
        dp *= s
        out.append(dp)
    return out


def gelu(a: Tensor) -> Tensor:
    """Tanh-form GeLU, f(a) = a (1 + t) / 2 with t = tanh(u), u = c0 (a + c1 a^3).

    The derivatives f', f'' and f''' at the primal a0 are closed-form in t.
    The node keeps f', f'' and f''' once a degree has needed them, and t
    until then: a push that first needs f'' makes it from t, and one that
    first needs f''' after f'' recomputes t. The forward jet is (f, f' a1,
    f' a2 + f'' a1^2 / 2), and the VJP multiplies by the jet of f', which
    is (f', f'' a1, f'' a2 + f''' a1^2 / 2).
    """
    a0 = a.jet[0]
    sq, t, s, du = _gelu_factors(a0)
    half = 0.5 * t
    half += 0.5                                        # (1 + t) / 2
    f1 = s * du
    f1 *= 0.5 * a0
    f1 += half                                         # f' = (1 + t)/2 + a t'/2
    fp = [f1]
    f23 = _gelu_higher(a0, sq, t, s, du, a.tape.degree)
    if f23:
        t = None

    def tangent():
        nonlocal t
        aj = a.jet
        if len(f23) < len(aj) - 1:
            f23[:] = _gelu_higher(a0, *_gelu_factors(a0, t), len(aj) - 1)
            t = None
        del fp[1:]
        out = []
        if len(aj) > 1:
            out.append(fp[0] * aj[1])
            fp.append(f23[0] * aj[1])
        if len(aj) > 2:
            c = fp[0] * aj[2]
            c += 0.5 * fp[1] * aj[1]
            out.append(c)
            c = 0.5 * f23[1]
            c *= aj[1]
            c *= aj[1]
            c += f23[0] * aj[2]
            fp.append(c)
        return tuple(out)

    half *= a0
    return _make(a.tape, "gelu", half, (a,),
                 (lambda g, lo=0: jmul(g, fp, lo),), tangent)


def label_index(labels: np.ndarray, classes: int) -> np.ndarray:
    """The flat C-order index of each row's label logit in logits
    ``(..., n, classes)``, which ``np.ravel_multi_index`` builds and checks."""
    rows = np.arange(labels.size).reshape(labels.shape)
    return np.ravel_multi_index((rows, labels), (labels.size, classes))


def softmax_ce(z: Tensor, labels: np.ndarray, flat=None) -> Tensor:
    """Softmax cross-entropy of logits ``(..., n, C)`` against integer labels
    ``(..., n)`` in [0, C): the mean over n rows, summed over any leading
    axes.

    The log-sum-exp is shifted by the row maximum of the primal logits, a
    constant, so large logits stay finite. The VJP is
    ``g / n * (softmax(z) - onehot)``. Each row's label logit is read at its
    :func:`label_index`, made here unless a caller that passes the same
    int64 labels on every pass made it once as ``flat``.
    """
    z0 = z.jet[0]
    if flat is None:
        labels = np.asarray(labels, dtype=np.int64)
        if z0.shape[:-1] != labels.shape:
            raise ValueError("softmax_ce needs one label per row of logits")
        flat = label_index(labels, z0.shape[-1])
    n = labels.shape[-1]
    m = np.maximum.reduce(z0, axis=-1, keepdims=True)
    e0 = z0 - m
    np.exp(e0, out=e0)
    e = [e0]                              # jet of exp(z - m)
    s = [np.add.reduce(e0, axis=-1, keepdims=True)]
    log_s = np.log(s[0])
    # softmax(z0) less the one-hot, and softmax(z0), each made when a VJP
    # first needs it
    dsoft = soft = None

    def loss(lse, zc):
        return np.asarray(np.add.reduce(lse[..., 0] - zc.take(flat),
                                        axis=None) / n)

    def tangent():
        zj = z.jet
        # The shift by m moves coefficient 0 only, so z's higher
        # coefficients are those of z - m.
        e[1:] = jexp(zj, e[0])[1:]
        s[1:] = [np.add.reduce(c, axis=-1, keepdims=True) for c in e[1:]]
        return tuple(loss(c, zc) for c, zc in zip(jlog(s, log_s)[1:], zj[1:]))

    def vjp(g, lo=0):
        nonlocal dsoft, soft
        if dsoft is None:
            dsoft = np.divide(e[0], s[0], order="C")
            dsoft.reshape(-1)[flat] -= 1.0
        p = (dsoft,)
        if len(g) > 1:
            if soft is None:
                soft = e[0] / s[0]
            p += jdiv(e, s, soft)[1:]
        # g is a scalar's adjoint: each coefficient is scaled as a float
        return jmul([float(c) * (1.0 / n) for c in g], p, lo)

    return _make(z.tape, "softmax_ce", loss(log_s + m, z0), (z,), (vjp,),
                 tangent)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return _make(a.tape, "sum", np.asarray(a.jet[0].sum()), (a,),
                 (lambda g, lo=0: tuple(np.broadcast_to(c, shape).copy()
                                        for c in g[lo:]),),
                 lambda: tuple(np.asarray(c.sum()) for c in a.jet[1:]),
                 linear=True)


def slice1d(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice [start, stop) of the last axis."""
    shape = a.shape

    def vjp(g, lo=0):
        out = []
        for c in g[lo:]:
            z = np.zeros(shape)
            z[..., start:stop] = c
            out.append(z)
        return tuple(out)

    return _make(a.tape, "slice", a.jet[0][..., start:stop], (a,), (vjp,),
                 lambda: tuple(c[..., start:stop] for c in a.jet[1:]),
                 linear=True)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    old = a.shape
    return _make(a.tape, "reshape", a.jet[0].reshape(shape), (a,),
                 (lambda g, lo=0: tuple(c.reshape(old) for c in g[lo:]),),
                 lambda: tuple(c.reshape(shape) for c in a.jet[1:]),
                 linear=True)


# ---------------------------------------------------------------------------
# backward sweep
# ---------------------------------------------------------------------------

def backward(output: Tensor, wrt: list[Tensor]) -> list[Jet]:
    """Adjoint jets of a scalar output with respect to the given leaves.

    Coefficient i of the returned jet for leaf x is (1/i!) d^i/de^i of the
    gradient map evaluated along the tangents seeded into x. Degree 1 thus
    yields (grad, H v); degree 2 yields (grad, H u, third(u, u) / 2).

    The first sweep from an output records coefficient 0 of the adjoints a
    push reads in ``tape.adjoint``; a later sweep from it, after
    :meth:`Tape.push`, computes coefficients 1..k only and reads
    coefficient 0 from the record.
    """
    if output.jet[0].shape != ():
        raise ValueError("backward expects a scalar output node")
    tape = output.tape
    nodes = tape.nodes
    k = tape.degree
    top = output.idx
    lo = 1 if tape.adjoint is not None and tape.adjoint[0] == top else 0
    adj0 = tape.adjoint[1] if lo else [None] * len(nodes)
    adj: list = [None] * (top + 1)
    adj[top] = _SEEDS[k][lo:]
    # No node after the output reaches it, so the sweep starts there.
    for i in range(top if lo <= k else -1, -1, -1):
        g = adj[i]
        if g is None:
            continue
        node = nodes[i]
        if lo:
            g = (adj0[i], *g)
        elif not node.linear:
            adj0[i] = g[0]
        if not node.requires_grad or not node.parents:
            continue
        # Consumed once passed to the parents; leaves keep theirs.
        adj[i] = None
        for parent, vjp in zip(node.parents, node.vjps):
            if parent.requires_grad:
                j = parent.idx
                contrib = vjp(g, lo)
                adj[j] = contrib if adj[j] is None else jadd(adj[j], contrib)
    tape.adjoint = (top, adj0)
    out = []
    for leaf in wrt:
        g0 = adj0[leaf.idx]
        if g0 is None:
            out.append(jet_const(np.zeros(leaf.shape), k))
        elif lo:
            out.append((g0, *adj[leaf.idx]) if k else (g0,))
        else:
            out.append(tuple(adj[leaf.idx]))
    return out
