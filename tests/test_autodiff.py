"""Gradient and semantics checks for the autodiff core.

Every differentiable op is verified against central finite differences in
float64 (h=1e-5, relative error < 1e-4) over randomized shapes.
"""

import numpy as np
import pytest

from vqlat import autodiff as ad
from vqlat.autodiff import Tensor
from vqlat.errors import ContractError, ShapeError
from vqlat.model import causal_mask

from tests.oracles import adam_reference, assert_grads_close, attention_chain, linear_chain

N_RANDOM_SHAPES = 20


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


def run_backward(out):
    loss = ad.sum_(out)
    ad.backward(loss)
    return loss


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, b.data)

    def test_forced_product(self):
        a = Tensor([[1.0, 0.0]])
        b = Tensor([[0.0], [5.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[0.0]])

    def test_shape_error_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 2)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            ad.matmul(a, b)

    def test_gradients_3x4_by_4x2(self):
        rng = np.random.default_rng(0)
        a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
        run_backward(ad.matmul(a, b))
        assert_grads_close(lambda: float(np.matmul(a.data, b.data).sum()), [a, b])

    @pytest.mark.parametrize("seed", range(N_RANDOM_SHAPES))
    def test_gradients_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(1, 6, size=3)
        batched = seed % 3 == 2
        shape_a = (2, m, k) if batched else (m, k)
        a, b = leaf(rng, *shape_a), leaf(rng, k, n)
        run_backward(ad.matmul(a, b))
        assert_grads_close(lambda: float(np.matmul(a.data, b.data).sum()), [a, b])


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        y = ad.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(y.data, [1 / 3] * 3, atol=1e-12)

    def test_large_input_stability(self):
        y = ad.softmax(Tensor([1000.0, 0.0], dtype=np.float64), axis=0)
        np.testing.assert_allclose(y.data, [1.0, 0.0], atol=1e-9)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        y = ad.softmax(Tensor(rng.standard_normal((4, 7))), axis=-1)
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-6)
        assert (y.data >= 0).all()

    def test_invalid_axis(self):
        with pytest.raises(ContractError):
            ad.softmax(Tensor(np.zeros((2, 2))), axis=5)

    def test_jacobian_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        x = leaf(rng, 5)
        w = rng.standard_normal(5)  # random linear functional makes the check nontrivial
        out = ad.mul(ad.softmax(x, axis=0), Tensor(w, dtype=np.float64))
        run_backward(out)

        def f():
            e = np.exp(x.data - x.data.max())
            return float(((e / e.sum()) * w).sum())

        assert_grads_close(f, [x])

    @pytest.mark.parametrize("seed", range(N_RANDOM_SHAPES))
    def test_gradients_random_shapes(self, seed):
        rng = np.random.default_rng(100 + seed)
        rows, cols = rng.integers(1, 6, size=2)
        x = leaf(rng, rows, cols)
        w = rng.standard_normal((rows, cols))
        run_backward(ad.mul(ad.softmax(x, axis=-1), Tensor(w, dtype=np.float64)))

        def f():
            e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
            return float(((e / e.sum(axis=-1, keepdims=True)) * w).sum())

        assert_grads_close(f, [x])


class TestLinear:
    @pytest.mark.parametrize("shape", [(5, 4), (3, 2, 4), (2, 1, 4)])
    def test_gradients(self, shape):
        rng = np.random.default_rng(len(shape) + shape[-2])
        x, w, b = leaf(rng, *shape), leaf(rng, 4, 3), leaf(rng, 3)
        r = rng.standard_normal(shape[:-1] + (3,))
        run_backward(ad.mul(ad.linear(x, w, b), Tensor(r, dtype=np.float64)))
        assert_grads_close(lambda: float(((x.data @ w.data + b.data) * r).sum()), [x, w, b])

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(7)
        x, w, b = (Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
                   for s in ((2, 3, 4), (4, 5), (5,)))
        y = ad.linear(x, w, b)
        run_backward(y)
        assert y.data.dtype == np.float32
        assert all(t.grad.dtype == np.float32 for t in (x, w, b))

    @pytest.mark.parametrize("w_shape,b_shape", [((3, 2), (2,)), ((4, 2), (3,)), ((4,), (4,))])
    def test_shape_error(self, w_shape, b_shape):
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)))


def attention_reference(q, k, v, heads, mask):
    """Attention over [B, L, d] arrays, one head's column slice at a time."""
    dh = q.shape[-1] // heads
    out = []
    for cols in (slice(i * dh, (i + 1) * dh) for i in range(heads)):
        scores = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2) / np.sqrt(dh)
        if mask is not None:
            scores = scores + mask
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        out.append((e / e.sum(axis=-1, keepdims=True)) @ v[..., cols])
    return np.concatenate(out, axis=-1)


ATTENTION_CASES = {  # heads, query length, key length, causal mask's past (None: no mask)
    "one_head_no_mask": (1, 3, 3, None),
    "four_heads_causal": (4, 3, 3, 0),
    "causal_with_past": (4, 2, 5, 3),
    "one_head_causal_step": (1, 1, 4, 3),
    "cross_lq_below_lk": (4, 2, 5, None),
    "cross_lq_above_lk": (1, 5, 2, None),
    "two_heads_causal_with_past": (2, 3, 4, 1),
}


class TestAttention:
    @pytest.mark.parametrize("case", ATTENTION_CASES)
    def test_gradients(self, case):
        h, lq, lk, past = ATTENTION_CASES[case]
        rng = np.random.default_rng(900 + h * 10 + lq * lk)
        q, k, v = leaf(rng, 2, lq, h * 3), leaf(rng, 2, lk, h * 3), leaf(rng, 2, lk, h * 3)
        mask = None if past is None else causal_mask(lq, past).astype(np.float64)
        r = rng.standard_normal((2, lq, h * 3))
        run_backward(ad.mul(ad.attention(q, k, v, h, mask), Tensor(r, dtype=np.float64)))
        assert_grads_close(
            lambda: float((attention_reference(q.data, k.data, v.data, h, mask) * r).sum()), [q, k, v])

    @pytest.mark.parametrize("plain", [True, False], ids=["arrays", "constant_tensors"])
    def test_keys_values_without_gradient(self, plain):
        rng = np.random.default_rng(11)
        q = leaf(rng, 2, 1, 12)
        k, v = rng.standard_normal((2, 2, 4, 12))
        mask = causal_mask(1, 3).astype(np.float64)
        r = rng.standard_normal(q.shape)
        kv = (k, v) if plain else (Tensor(k), Tensor(v))
        run_backward(ad.mul(ad.attention(q, *kv, 4, mask), Tensor(r, dtype=np.float64)))
        assert_grads_close(lambda: float((attention_reference(q.data, k, v, 4, mask) * r).sum()), [q])

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(12)
        q, k, v = (Tensor(rng.standard_normal((1, 3, 8)).astype(np.float32), requires_grad=True)
                   for _ in range(3))
        y = ad.attention(q, k, v, 2, causal_mask(3))
        run_backward(y)
        assert y.data.dtype == np.float32
        assert all(t.grad.dtype == np.float32 for t in (q, k, v))

    @pytest.mark.parametrize("k_shape,v_shape", [((1, 3, 10), (1, 3, 10)),
                                                 ((2, 3, 8), (2, 3, 8)),
                                                 ((1, 3, 8), (1, 2, 8)),
                                                 ((1, 2, 3, 4), (1, 2, 3, 4))])
    def test_shape_error(self, k_shape, v_shape):
        with pytest.raises(ShapeError, match="attention"):
            ad.attention(Tensor(np.zeros((1, 3, 8))), np.zeros(k_shape), np.zeros(v_shape), 2)

    @pytest.mark.parametrize("heads", [3, 5, 16, 0])
    def test_width_not_divisible_by_heads(self, heads):
        with pytest.raises(ShapeError, match=f"{heads} heads"):
            ad.attention(Tensor(np.zeros((1, 3, 8))), np.zeros((1, 2, 8)), np.zeros((1, 2, 8)), heads)


class TestFusedForwardEqualsChain:
    """Each fused node's forward has the same bits as the chain of nodes it replaces."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,n", [((5, 16), 8), ((1, 1, 64), 64), ((32, 1, 64), 123),
                                         ((32, 7, 64), 256), ((16, 9, 256), 64)])
    def test_linear(self, dtype, shape, n):
        rng = np.random.default_rng(shape[0] * n)
        x, w, b = (Tensor(rng.standard_normal(s).astype(dtype)) for s in (shape, (shape[-1], n), (n,)))
        got, want = ad.linear(x, w, b).data, linear_chain(x, w, b).data
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b,h,lq,lk,past", [(16, 4, 9, 9, 0), (32, 4, 1, 7, 6),
                                                (16, 4, 9, 12, None), (3, 1, 1, 1, None),
                                                (8, 2, 5, 5, 0)])
    def test_attention(self, dtype, b, h, lq, lk, past):
        rng = np.random.default_rng(b * lq + lk)
        q, k, v = (Tensor(rng.standard_normal((b, n, h * 16)).astype(dtype)) for n in (lq, lk, lk))
        mask = None if past is None else causal_mask(lq, past)
        got, want = ad.attention(q, k, v, h, mask).data, attention_chain(q, k, v, h, mask).data
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


class TestBackwardSemantics:
    def test_sum_gradient_is_ones(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        ad.backward(ad.sum_(w))
        np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            ad.backward(ad.mul(w, 2.0))

    def test_repeated_backward_accumulates(self):
        w = Tensor(np.ones(4), requires_grad=True)
        loss = ad.sum_(w)
        ad.backward(loss)
        ad.backward(loss)
        np.testing.assert_array_equal(w.grad, [2.0] * 4)

    def test_two_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 5)), dtype=np.float64)
        w1, b1 = leaf(rng, 5, 8), leaf(rng, 8)
        w2, b2 = leaf(rng, 8, 3), leaf(rng, 3)
        targets = rng.integers(0, 3, size=4)

        def forward():
            h = ad.relu(ad.add(ad.matmul(x, w1), b1))
            return ad.cross_entropy_with_logits(ad.add(ad.matmul(h, w2), b2), targets)

        ad.backward(forward())

        def f():
            return float(forward().data)

        assert_grads_close(f, [w1, b1, w2, b2])


class TestElementwiseOps:
    @pytest.mark.parametrize("op,npop", [(ad.add, np.add), (ad.sub, np.subtract), (ad.mul, np.multiply)])
    @pytest.mark.parametrize("seed", range(N_RANDOM_SHAPES))
    def test_gradients_random_shapes(self, op, npop, seed):
        rng = np.random.default_rng(200 + seed)
        shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
        # alternate between same-shape and broadcast (trailing-dim) operands
        b_shape = shape if seed % 2 == 0 else shape[-1:]
        a, b = leaf(rng, *shape), leaf(rng, *b_shape)
        run_backward(op(a, b))
        assert_grads_close(lambda: float(npop(a.data, b.data).sum()), [a, b])

    def test_broadcast_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


class TestLayerNorm:
    @pytest.mark.parametrize("seed", range(N_RANDOM_SHAPES))
    def test_gradients_random_shapes(self, seed):
        rng = np.random.default_rng(300 + seed)
        rows, d = rng.integers(1, 5), rng.integers(2, 7)
        x, g, b = leaf(rng, rows, d), leaf(rng, d), leaf(rng, d)
        w = rng.standard_normal((rows, d))
        run_backward(ad.mul(ad.layer_norm(x, g, b), Tensor(w, dtype=np.float64)))

        def f():
            mu = x.data.mean(-1, keepdims=True)
            xc = x.data - mu
            var = (xc * xc).mean(-1, keepdims=True)
            return float((((xc / np.sqrt(var + 1e-5)) * g.data + b.data) * w).sum())

        assert_grads_close(f, [x, g, b])

    def test_normalizes_last_axis(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((3, 16)), dtype=np.float64)
        ones, zeros = Tensor(np.ones(16)), Tensor(np.zeros(16))
        y = ad.layer_norm(x, ones, zeros).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)


class TestEmbeddingLookup:
    @pytest.mark.parametrize("seed", range(N_RANDOM_SHAPES))
    def test_gradients_random_shapes(self, seed):
        rng = np.random.default_rng(400 + seed)
        v, d = int(rng.integers(3, 8)), int(rng.integers(2, 5))
        ids = rng.integers(0, v, size=rng.integers(1, 6))
        table = leaf(rng, v, d)
        run_backward(ad.embedding_lookup(table, ids))
        assert_grads_close(lambda: float(table.data[ids].sum()), [table])

    def test_repeated_ids_accumulate(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        ad.backward(ad.sum_(ad.embedding_lookup(table, [1, 1, 2])))
        np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [1, 1]])

    def test_out_of_range_id(self):
        with pytest.raises(ContractError):
            ad.embedding_lookup(Tensor(np.zeros((3, 2))), [3])


class TestCrossEntropy:
    @pytest.mark.parametrize("seed", range(N_RANDOM_SHAPES))
    def test_gradients_random_shapes(self, seed):
        rng = np.random.default_rng(500 + seed)
        n, v = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        logits = leaf(rng, n, v)
        targets = rng.integers(0, v, size=n)
        ad.backward(ad.cross_entropy_with_logits(logits, targets))

        def f():
            m = logits.data.max(axis=1, keepdims=True)
            lse = m[:, 0] + np.log(np.exp(logits.data - m).sum(axis=1))
            return float(np.mean(lse - logits.data[np.arange(n), targets]))

        assert_grads_close(f, [logits])

    def test_uniform_logits_loss_is_log_v(self):
        loss = ad.cross_entropy_with_logits(Tensor(np.zeros((2, 4)), dtype=np.float64), [0, 3])
        assert abs(loss.item() - np.log(4)) < 1e-12


class TestShapeOps:
    @pytest.mark.parametrize("seed", range(N_RANDOM_SHAPES))
    def test_reshape_transpose_gradients(self, seed):
        rng = np.random.default_rng(600 + seed)
        a, b, c = rng.integers(1, 5, size=3)
        x = leaf(rng, a, b, c)
        w = rng.standard_normal((c, b, a))
        y = ad.transpose(x, (2, 1, 0))
        run_backward(ad.mul(y, Tensor(w, dtype=np.float64)))
        assert_grads_close(lambda: float((x.data.transpose(2, 1, 0) * w).sum()), [x])

    def test_reshape_round_trip(self):
        rng = np.random.default_rng(5)
        x = leaf(rng, 2, 6)
        run_backward(ad.reshape(ad.reshape(x, (3, 4)), (2, 6)))
        np.testing.assert_array_equal(x.grad, np.ones((2, 6)))


class TestReductions:
    @pytest.mark.parametrize("seed", [*range(N_RANDOM_SHAPES),
                                      pytest.param(N_RANDOM_SHAPES, id="tuple_axis")])
    def test_sum_mean_gradients(self, seed):
        rng = np.random.default_rng(700 + seed)
        tuple_axis = seed == N_RANDOM_SHAPES
        shape = tuple(rng.integers(1, 5, size=3 if tuple_axis else 2))
        axis = (0, -1) if tuple_axis else int(rng.integers(0, 2))
        x = leaf(rng, *shape)
        w = rng.standard_normal(np.sum(x.data, axis=axis).shape)
        run_backward(ad.mul(ad.mean_(x, axis=axis), Tensor(w, dtype=np.float64)))
        assert_grads_close(lambda: float((x.data.mean(axis=axis) * w).sum()), [x])


class TestReluDropout:
    @pytest.mark.parametrize("seed", range(N_RANDOM_SHAPES))
    def test_relu_gradients(self, seed):
        rng = np.random.default_rng(800 + seed)
        x = leaf(rng, *tuple(rng.integers(1, 6, size=2)))
        # keep entries away from the kink so finite differences stay valid
        x.data[np.abs(x.data) < 1e-3] += 0.1
        run_backward(ad.relu(x))
        assert_grads_close(lambda: float(np.maximum(x.data, 0).sum()), [x])

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones(5))
        assert ad.dropout(x, 0.5, None, training=False) is x

    def test_dropout_train_scales_surviving_entries(self):
        rng = np.random.default_rng(6)
        x = Tensor(np.ones((100, 10)), requires_grad=True)
        y = ad.dropout(x, 0.25, rng, training=True)
        kept = y.data != 0
        np.testing.assert_allclose(y.data[kept], 1 / 0.75)
        assert 0.6 < kept.mean() < 0.9
        ad.backward(ad.sum_(y))
        np.testing.assert_allclose(x.grad[kept], 1 / 0.75)
        np.testing.assert_allclose(x.grad[~kept], 0.0)


class TestAdam:
    def test_first_step_matches_closed_form(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True, dtype=np.float64)
        opt = ad.Adam([p], lr=0.1)
        p.grad = np.array([0.5, -0.25])
        opt.step()
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = np.array([1.0, -2.0]) - 0.1 * np.array([0.5, -0.25]) / (np.abs([0.5, -0.25]) + 1e-8)
        np.testing.assert_allclose(p.data, expected, rtol=1e-7)

    def test_zero_grad_clears(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.ones(2)
        ad.Adam([p]).zero_grad()
        assert p.grad is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_per_parameter_loop(self, dtype):
        rng = np.random.default_rng(7)
        shapes = [(1,), (5,), (5, 3), (4, 6)]
        start = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
        # gradients of mixed scale, with exact zeros, so some moments stay tiny
        steps = [[(rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 3, size=shape)
                   * (rng.random(shape) > 0.2)).astype(dtype) for shape in shapes] for _ in range(6)]
        params = [Tensor(arr.copy(), requires_grad=True) for arr in start]
        opt = ad.Adam(params, lr=0.01)
        for grads in steps:
            opt.zero_grad()
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
        want, want_m, want_v = adam_reference(start, steps, lr=0.01)
        for p, w in zip(params, want):
            assert p.data.dtype == dtype and p.data.shape == w.shape
            assert np.array_equal(p.data, w)
        assert np.array_equal(opt._m, np.concatenate([m.ravel() for m in want_m]))
        assert np.array_equal(opt._v, np.concatenate([v.ravel() for v in want_v]))

    def test_parameters_are_views_of_one_buffer(self):
        params = [Tensor(np.full(shape, i, dtype=np.float32), requires_grad=True)
                  for i, shape in enumerate([(2, 3), (4,), (1,)])]
        opt = ad.Adam(params)
        assert all(np.shares_memory(p.data, opt._flat) for p in params)
        assert opt._flat.tolist() == [0.0] * 6 + [1.0] * 4 + [2.0]

    def test_mixed_dtypes_rejected(self):
        params = [Tensor(np.zeros(2, dtype=np.float32), requires_grad=True),
                  Tensor(np.zeros(2, dtype=np.float64), requires_grad=True)]
        with pytest.raises(ContractError, match="one dtype"):
            ad.Adam(params)

    def test_missing_gradient_rejected(self):
        params = [Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(3), requires_grad=True)]
        opt = ad.Adam(params)
        params[0].grad = np.ones(2, dtype=np.float32)
        with pytest.raises(ContractError, match=r"parameters \[1\] have no gradient"):
            opt.step()
        assert opt.t == 0 and params[0].data.tolist() == [1.0, 1.0]


class TestDeterminism:
    def test_identical_seeds_bitwise_identical(self):
        def build(seed):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            loss = ad.sum_(ad.softmax(ad.matmul(x, w), axis=-1))
            ad.backward(loss)
            return loss.data.copy(), x.grad.copy()

        l1, g1 = build(42)
        l2, g2 = build(42)
        assert l1.tobytes() == l2.tobytes()
        assert g1.tobytes() == g2.tobytes()
