"""Tape engine: jet arithmetic, op gradients, determinism, replay."""

import numpy as np
import pytest

from helpers import central_diff_grad
from samlab import engine as eng


def scalar_graph(build, x0, degree=0, tangent=None):
    tape = eng.Tape(degree=degree)
    leaf = tape.leaf(np.asarray(x0, dtype=np.float64), tangent=tangent)
    out = build(tape, leaf)
    return tape, leaf, out


class TestJetArithmetic:
    def test_mul_convolution(self):
        a = tuple(np.asarray(v) for v in (2.0, 3.0, 4.0))
        b = tuple(np.asarray(v) for v in (5.0, 7.0, 11.0))
        c = eng.jmul(a, b)
        assert [float(v) for v in c] == [10.0, 29.0, 63.0]

    def test_div_inverts_mul(self):
        rng = np.random.default_rng(0)
        a = tuple(rng.standard_normal(4) for _ in range(3))
        b = tuple(rng.standard_normal(4) + 3.0 for _ in range(3))
        back = eng.jdiv(eng.jmul(a, b), b)
        for got, want in zip(back, a):
            np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("fn,ref", [
        (eng.jexp, np.exp),
        (eng.jlog, np.log),
    ])
    def test_unary_taylor_coefficients(self, fn, ref):
        # Compare against numerical Taylor coefficients of t -> ref(a0 + a1 t + a2 t^2).
        a = (np.asarray(0.7), np.asarray(0.4), np.asarray(-0.3))
        c = fn(a)
        h = 1e-4
        def curve(t):
            return ref(a[0] + a[1] * t + a[2] * t * t)
        d1 = (curve(h) - curve(-h)) / (2 * h)
        d2 = (curve(h) - 2 * curve(0.0) + curve(-h)) / h ** 2
        np.testing.assert_allclose(float(c[0]), curve(0.0), rtol=1e-12)
        np.testing.assert_allclose(float(c[1]), d1, rtol=1e-6)
        np.testing.assert_allclose(float(c[2]), d2 / 2, rtol=1e-4)


class TestBackward:
    def test_polynomial_third_order(self):
        # f(x) = x^3: gradient 3x^2, curvature 6x, third derivative 6.
        def build(tape, x):
            return eng.sum_all(eng.pow_int(x, 3))
        _, leaf, out = scalar_graph(build, [2.0], degree=2, tangent=[1.0])
        jet = eng.backward(out, [leaf])[0]
        assert float(jet[0][0]) == pytest.approx(12.0)
        assert float(jet[1][0]) == pytest.approx(12.0)   # H u at u = 1
        assert float(jet[2][0]) == pytest.approx(3.0)    # third(u, u) / 2

    def test_every_op_matches_central_differences(self):
        # One graph over all thirteen ops: slice1d, reshape, a matmul with a
        # leading stack axis, add, sub, mul (broadcast over that axis),
        # scale, relu, pow_int, gelu, softmax_ce, sum_all, and a dense layer
        # over a differentiable input that reads the last 10 coordinates.
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(24)
        mat = rng.standard_normal((2, 3, 4))
        bias = rng.standard_normal(4)
        labels = np.array([[0, 3], [2, 1]])

        def build(tape, x):
            a = eng.reshape(eng.slice1d(x, 0, 12), (2, 2, 3))
            b = eng.slice1d(x, 12, 14)
            b_rows = eng.reshape(b, (2, 1, 1))
            z = eng.sub(eng.add(eng.matmul(a, tape.const(mat)), bias),
                        eng.scale(b_rows, 0.3))                     # (2, 2, 4)
            ce = eng.softmax_ce(eng.gelu(z), labels)
            gated = eng.mul(eng.relu(z), b_rows)
            cubic = eng.sum_all(eng.pow_int(b, 3))
            y = eng.dense(eng.reshape(z, (4, 4)), x, 14, (4, 2))    # (4, 2)
            return eng.add(eng.add(ce, eng.scale(eng.sum_all(gated), 0.5)),
                           eng.add(eng.scale(cubic, 0.1),
                                   eng.scale(eng.sum_all(eng.mul(y, y)), 0.05)))

        def loss(v):
            tape = eng.Tape(degree=0)
            return float(build(tape, tape.leaf(v)).value)

        tape, leaf, out = scalar_graph(build, x0)
        kinds = {node.op for node in tape.nodes} - {"leaf", "const"}
        assert kinds == {"slice", "reshape", "matmul", "dense", "add", "sub",
                         "mul", "scale", "relu", "pow3", "gelu", "softmax_ce",
                         "sum"}
        g = eng.backward(out, [leaf])[0][0]
        np.testing.assert_allclose(g, central_diff_grad(loss, x0, h=1e-6),
                                   rtol=2e-5, atol=2e-8)

    def test_hvp_matches_fd_of_gradient(self):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(4)
        v = rng.standard_normal(4)

        def build(tape, x):
            return eng.sum_all(eng.gelu(eng.mul(eng.pow_int(x, 2),
                                                eng.scale(x, 0.3))))

        def grad_at(pt):
            _, leaf, out = scalar_graph(build, pt)
            return eng.backward(out, [leaf])[0][0]

        _, leaf, out = scalar_graph(build, x0, degree=1, tangent=v)
        hv = eng.backward(out, [leaf])[0][1]
        h = 1e-6
        fd = (grad_at(x0 + h * v) - grad_at(x0 - h * v)) / (2 * h)
        np.testing.assert_allclose(hv, fd, rtol=1e-6, atol=1e-9)


class TestTape:
    def test_topological_and_replayable(self):
        def build(tape, x):
            return eng.sum_all(eng.gelu(eng.pow_int(x, 2)))

        tape1, leaf1, out1 = scalar_graph(build, [0.5, -0.2], degree=2,
                                          tangent=[0.3, 0.7])
        tape2, leaf2, out2 = scalar_graph(build, [0.5, -0.2], degree=2,
                                          tangent=[0.3, 0.7])
        for node in tape1.nodes:
            assert all(p.idx < node.idx for p in node.parents)
        assert len(tape1.nodes) == len(tape2.nodes)
        for n1, n2 in zip(tape1.nodes, tape2.nodes):
            assert n1.op == n2.op
            assert [c.tobytes() for c in n1.jet] == [c.tobytes() for c in n2.jet]
        adj1 = eng.backward(out1, [leaf1])[0]
        adj2 = eng.backward(out2, [leaf2])[0]
        assert [c.tobytes() for c in adj1] == [c.tobytes() for c in adj2]

    def test_degree_limit(self):
        with pytest.raises(ValueError):
            eng.Tape(degree=3)

    def test_backward_needs_scalar(self):
        tape = eng.Tape(degree=0)
        leaf = tape.leaf(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            eng.backward(leaf, [leaf])
