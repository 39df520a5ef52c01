"""Autodiff engine: frozen hand-computed gradients, shape policing
and finite-difference agreement."""

import numpy as np
import pytest

from psygat import tensor as T


def t64(x):
    return T.Tensor(np.asarray(x, dtype=np.float64))


class TestHandGradients:
    def test_matmul_gradient_matches_hand_derivation(self):
        # f = sum(A @ B) with A=[[1,2]], B=[[3],[4]] -> dA = B^T, dB = A^T
        a = t64([[1.0, 2.0]])
        b = t64([[3.0], [4.0]])
        T.backward(T.tsum(T.matmul(a, b)))
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]])
        np.testing.assert_allclose(b.grad, [[1.0], [2.0]])

    def test_mul_add_chain(self):
        # f = sum((x + y) * x), df/dx = 2x + y, df/dy = x
        x = t64([[2.0, -1.0]])
        y = t64([[5.0, 3.0]])
        T.backward(T.tsum(T.mul(T.add(x, y), x)))
        np.testing.assert_allclose(x.grad, [[9.0, 1.0]])
        np.testing.assert_allclose(y.grad, [[2.0, -1.0]])

    def test_layer_norm_output_of_two_point_row(self):
        # row [0, 2]: mean 1, var 1 -> xhat = [-1, 1] up to the eps guard
        x = t64([[0.0, 2.0]])
        g = t64(np.ones(2))
        b = t64(np.zeros(2))
        out = T.layer_norm(x, g, b)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_layer_norm_grad_orthogonal_to_constant_shift(self):
        # shifting a row by a constant leaves LN output unchanged, so the
        # gradient of any loss must sum to zero along the row
        rng = np.random.default_rng(0)
        x = t64(rng.standard_normal((3, 5)))
        g = t64(rng.standard_normal(5))
        b = t64(rng.standard_normal(5))
        w = rng.standard_normal((3, 5))
        T.backward(T.tsum(T.mul(T.layer_norm(x, g, b), t64(w))))
        np.testing.assert_allclose(x.grad.sum(axis=1), np.zeros(3), atol=1e-10)

    def test_segment_softmax_two_groups(self):
        # group 0: [ln1, ln3] -> [0.25, 0.75]; group 1: single -> 1.0
        logits = t64([0.0, np.log(3.0), 2.5])
        out = T.segment_softmax(logits, [0, 0, 1])
        np.testing.assert_allclose(out.data, [0.25, 0.75, 1.0], atol=1e-12)

    def test_segment_softmax_handles_noncontiguous_groups(self):
        logits = t64([1.0, 5.0, 1.0])
        out = T.segment_softmax(logits, [0, 1, 0])
        np.testing.assert_allclose(out.data[[0, 2]], [0.5, 0.5])
        assert out.data[1] == pytest.approx(1.0)

    def test_segment_sum_and_backward(self):
        x = t64([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = T.segment_sum(x, [0, 0, 1], 2)
        np.testing.assert_allclose(out.data, [[4.0, 6.0], [5.0, 6.0]])
        T.backward(T.tsum(T.mul(out, t64([[1.0, 1.0], [10.0, 10.0]]))))
        np.testing.assert_allclose(x.grad, [[1.0, 1.0], [1.0, 1.0], [10.0, 10.0]])

    @pytest.mark.parametrize("seg,num", [
        ([2, 2, 3, 5, 5, 5], 8),  # empty leading, interior and trailing segments
        ([0, 1, 2], 3),
        ([4], 6),
        ([], 3),
    ])
    def test_segment_sum_matches_add_at_reference(self, seg, num):
        rng = np.random.default_rng(len(seg))
        x = t64(rng.standard_normal((len(seg), 3)))
        ref = np.zeros((num, 3))
        np.add.at(ref, np.asarray(seg, dtype=np.int64), x.data)
        np.testing.assert_allclose(T.segment_sum(x, seg, num).data, ref, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("seg,num", [([0, 2, 1], 3), ([0, 0, 3], 3), ([-1, 0, 0], 2)])
    def test_segment_sum_rejects_unsorted_or_out_of_range_ids(self, seg, num):
        with pytest.raises(T.ShapeError):
            T.segment_sum(t64(np.ones((3, 2))), seg, num)

    @pytest.mark.parametrize("seg,num", [([0, 1, 2, 3], 4), ([1, 4, 5, 9], 11), ([2], 3)])
    def test_segment_sum_of_increasing_ids_is_bit_equal_to_reduceat(self, seg, num):
        rng = np.random.default_rng(len(seg) + num)
        x = T.Tensor(rng.standard_normal((len(seg), 5)).astype(np.float32))
        ref = np.zeros((num, 5), dtype=np.float32)
        ref[seg] = np.add.reduceat(x.data, np.arange(len(seg)), axis=0)
        out = T.segment_sum(x, seg, num)
        np.testing.assert_array_equal(out.data, ref)
        T.backward(T.tsum(out))
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    @pytest.mark.parametrize("seg,num", [([0, 1, 3], 3), ([-1, 0, 1], 2), ([2, 1, 0], 3)])
    def test_segment_sum_rejects_bad_distinct_ids(self, seg, num):
        with pytest.raises(T.ShapeError):
            T.segment_sum(t64(np.ones((3, 2))), seg, num)

    def test_gather_rows_accumulates_repeated_indices(self):
        x = t64([[1.0], [2.0]])
        out = T.gather_rows(x, [0, 0, 1])
        T.backward(T.tsum(out))
        np.testing.assert_allclose(x.grad, [[2.0], [1.0]])

    @pytest.mark.parametrize("counts", [
        [1] * 6, [2] * 6, [3] * 6, [4] * 6, [5] * 6, [1, 2, 3, 4, 5, 0], [],
    ])
    def test_gather_rows_backward_is_bit_equal_to_add_at(self, counts):
        # float32 sums depend on their order, so equality pins the in-order
        # sum that np.add.at makes, with and without a leading axis
        rng = np.random.default_rng(len(counts) + sum(counts))
        idx = rng.permutation(np.repeat(np.arange(len(counts)), counts).astype(np.int64))
        for lead in ((), (3,)):
            x = T.Tensor(rng.standard_normal(lead + (len(counts) + 2, 5)).astype(np.float32))
            w = (rng.standard_normal(lead + (idx.size, 5))
                 * 10.0 ** rng.integers(-3, 4, lead + (idx.size, 1))).astype(np.float32)
            T.backward(T.tsum(T.mul(T.gather_rows(x, idx), T.Tensor(w))))
            ref = np.zeros_like(x.data)
            for k in range(idx.size):
                ref[..., idx[k], :] += w[..., k, :]
            np.testing.assert_array_equal(x.grad, ref)

    def test_sigmoid_at_zero(self):
        out = T.sigmoid(t64(np.zeros((1, 1))))
        assert out.data[0, 0] == pytest.approx(0.5)

    def test_softplus_matches_log1p_exp_and_is_overflow_safe(self):
        x = t64([[-800.0, 0.0, 800.0]])
        out = T.softplus(x)
        assert out.data[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out.data[0, 1] == pytest.approx(np.log(2.0))
        assert out.data[0, 2] == pytest.approx(800.0)
        assert np.all(np.isfinite(out.data))

    def test_tmean_gradient_is_uniform(self):
        x = t64(np.arange(6.0).reshape(2, 3))
        T.backward(T.tmean(x))
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1.0 / 6.0))

    def test_l2_normalize_rows_unit_norm_and_tangent_grad(self):
        rng = np.random.default_rng(1)
        x = t64(rng.standard_normal((4, 6)))
        out = T.l2_normalize_rows(x)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(4), atol=1e-6)
        # gradient of sum(y) must be orthogonal to x row-wise only when the
        # weighting aligns with y; generic check via fd below instead
        w = rng.standard_normal((4, 6))
        T.backward(T.tsum(T.mul(out, t64(w))))
        assert x.grad.shape == (4, 6)

    def test_scalar_broadcast_and_reduce(self):
        x = t64([[1.0, 2.0], [3.0, 4.0]])
        s = t64(3.0)
        T.backward(T.tsum(T.mul(x, s)))
        np.testing.assert_allclose(x.grad, np.full((2, 2), 3.0))
        assert s.grad == pytest.approx(10.0)

    def test_grads_accumulate_until_zeroed(self):
        x = t64([[1.0]])
        T.backward(T.tsum(T.mul(x, x)))
        T.backward(T.tsum(T.mul(x, x)))
        assert x.grad[0, 0] == pytest.approx(4.0)
        x.zero_grad()
        assert x.grad is None


class TestGradientCopies:
    def test_first_gradients_share_no_memory(self):
        # add hands the same upstream array to both inputs
        a, b = t64([[1.0, 2.0]]), t64([[3.0, 4.0]])
        T.backward(T.tsum(T.add(a, b)))
        assert not np.shares_memory(a.grad, b.grad)

    def test_clip_gradients_scales_each_parameter_once(self):
        from psygat.train import clip_gradients

        a, b = t64([[1.0, 2.0]]), t64([[3.0, 4.0]])
        T.backward(T.tsum(T.add(a, b)))
        # four unit entries: global norm 2, every entry scaled by 1 / 2 once
        assert clip_gradients([("a", a), ("b", b)], max_norm=1.0) == pytest.approx(2.0)
        np.testing.assert_array_equal(a.grad, [[0.5, 0.5]])
        np.testing.assert_array_equal(b.grad, [[0.5, 0.5]])

    def test_first_gradient_is_a_copy_in_the_tensor_dtype(self):
        x = T.Tensor(np.zeros(3, dtype=np.float32))
        g = np.array([0.1, 0.2, 0.3])
        x.accumulate(g)
        g[:] = 5.0
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, np.array([0.1, 0.2, 0.3], dtype=np.float32))

    def test_scalar_first_gradient_broadcasts(self):
        x = t64(np.zeros((2, 2)))
        x.accumulate(np.asarray(1.5))
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 1.5))


def composed_focal(z, gamma):
    """The focal chain focal fuses: softplus(-z) * (1 - sigmoid(z))^gamma."""
    nll = T.softplus(T.mul(z, T.Tensor(np.asarray(-1.0, dtype=z.dtype), requires_grad=False)))
    one = T.Tensor(np.asarray(1.0, dtype=z.dtype), requires_grad=False)
    return T.mul(T.pow_const(T.sub(one, T.sigmoid(z)), gamma), nll)


def where_elu(x, alpha=1.0):
    """ELU as np.where selects it."""
    neg = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)

    def backward(g):
        x.accumulate(g * np.where(x.data > 0, 1.0, neg + alpha))

    return T.Tensor(np.where(x.data > 0, x.data, neg), (x,), backward)


def value_and_grad(op, values, dtype, weights=None):
    """Output and input gradient of op at values, each as bytes; weights
    make the upstream gradient non-uniform."""
    z = T.Tensor(np.asarray(values, dtype=dtype))
    out = op(z)
    loss = out if weights is None else T.tsum(T.mul(out, T.Tensor(weights.astype(dtype))))
    T.backward(loss)
    return out.data.tobytes(), z.grad.tobytes()


class TestFusedOpsMatchTheirReferences:
    LOGITS = [0.0, 1e-8, -1e-8, 20.0, -20.0, 60.0, -60.0, 0.3, -2.5]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0])
    def test_focal_is_bit_equal_to_the_composed_chain(self, dtype, gamma):
        rng = np.random.default_rng(int(gamma * 10))
        values = np.concatenate([self.LOGITS, 4.0 * rng.standard_normal(40)])
        weights = rng.standard_normal(values.shape)
        cases = [(z, None) for z in self.LOGITS]  # 0-d, as focal_loss sees one logit
        saw_nan = False
        for z, w in cases + [(values, weights)]:
            out, grad = value_and_grad(lambda t: T.focal(t, gamma), z, dtype, w)
            # the chain's 0 ** (gamma - 1) at saturated logits
            with np.errstate(all="ignore"):
                want_out, want_grad = value_and_grad(lambda t: composed_focal(t, gamma), z,
                                                     dtype, w)
            assert out == want_out
            grad, want_grad = np.frombuffer(grad, dtype), np.frombuffer(want_grad, dtype)
            # below gamma 1 the chain's gradient is NaN where sigmoid(z)
            # rounds to 1; focal's is zero there
            nan = np.isnan(want_grad)
            saw_nan |= nan.any()
            assert np.all(grad[nan] == 0.0)
            assert grad[~nan].tobytes() == want_grad[~nan].tobytes()
        assert saw_nan == (gamma < 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_focal_at_gamma_zero_is_bit_equal_to_softplus_of_minus_z(self, dtype):
        rng = np.random.default_rng(4)
        values = np.concatenate([self.LOGITS, 4.0 * rng.standard_normal(40)])
        weights = rng.standard_normal(values.shape)

        def logistic(t):
            return T.softplus(T.mul(t, T.Tensor(np.asarray(-1.0, dtype=dtype),
                                                requires_grad=False)))

        for z in self.LOGITS:
            assert (value_and_grad(lambda t: T.focal(t, 0.0), z, dtype)
                    == value_and_grad(logistic, z, dtype))
        assert (value_and_grad(lambda t: T.focal(t, 0.0), values, dtype, weights)
                == value_and_grad(logistic, values, dtype, weights))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_elu_is_bit_equal_to_the_where_form(self, dtype):
        info = np.finfo(dtype)
        special = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
                   info.tiny, -info.tiny, np.inf, -np.inf, -100.0, 100.0, 1e-30, -1e-30]
        rng = np.random.default_rng(3)
        values = np.concatenate([special, 3.0 * rng.standard_normal(200)])
        weights = rng.standard_normal(values.shape)
        assert (value_and_grad(T.elu, values, dtype, weights)
                == value_and_grad(where_elu, values, dtype, weights))
        for x in special:
            assert value_and_grad(T.elu, x, dtype) == value_and_grad(where_elu, x, dtype)


def stacked_and_sliced(op, arrays, shared, rng):
    """op's output and input gradients on arrays with a leading member axis
    (the shared ones without it), and the same assembled from one op call
    per member on its slices, a shared input's gradient accumulated over
    the members; the upstream gradient is random."""
    stacked = [T.Tensor(a) for a in arrays]
    out = op(*stacked)
    weights = rng.standard_normal(out.shape).astype(out.dtype)
    T.backward(T.tsum(T.mul(out, T.Tensor(weights))))
    got = [out.data] + [t.grad for t in stacked]
    common = [T.Tensor(a) if s else None for a, s in zip(arrays, shared)]
    outs, grads = [], [[] for _ in arrays]
    for k in range(out.shape[0]):
        ins = [c if s else T.Tensor(a[k]) for a, s, c in zip(arrays, shared, common)]
        o = op(*ins)
        T.backward(T.tsum(T.mul(o, T.Tensor(weights[k]))))
        outs.append(o.data)
        for j, t in enumerate(ins):
            grads[j].append(t.grad)
    want = [np.stack(outs)] + [c.grad if s else np.stack(g)
                               for c, s, g in zip(common, shared, grads)]
    return got, want


M3 = 3
MEMBER_AXIS_CASES = {
    "matmul": (T.matmul, [(M3, 4, 5), (M3, 5, 6)], [False, False]),
    "matmul shared left": (T.matmul, [(4, 5), (M3, 5, 6)], [True, False]),
    "matmul shared right": (T.matmul, [(M3, 4, 5), (5, 6)], [False, True]),
    "add_bias": (T.add_bias, [(M3, 4, 6), (M3, 6)], [False, False]),
    "add_bias shared rows": (T.add_bias, [(4, 6), (M3, 6)], [True, False]),
    "add_bias shared bias": (T.add_bias, [(M3, 4, 6), (6,)], [False, True]),
    "layer_norm": (T.layer_norm, [(M3, 4, 6), (M3, 6), (M3, 6)], [False, False, False]),
    "layer_norm shared input": (T.layer_norm, [(4, 6), (M3, 6), (M3, 6)], [True, False, False]),
    "segment_sum one row each": (lambda x: T.segment_sum(x, [0, 2, 3], 5), [(M3, 3, 4)], [False]),
    "segment_sum runs": (lambda x: T.segment_sum(x, [0, 0, 2, 2, 2, 4], 6), [(M3, 6, 4)], [False]),
    "chain_attention": (lambda s, d, a: T.chain_attention(s, d, a, [1, 2, 4], 0.2),
                        [(M3, 5, 6), (M3, 5, 6), (M3, 2, 3)], [False] * 3),
    "gather_rows": (lambda x: T.gather_rows(x, [2, 0, 2, 1]), [(M3, 4, 3)], [False]),
    "concat_cols": (lambda x, y: T.concat_cols([x, y]), [(M3, 4, 2), (M3, 4, 3)], [False, False]),
    "slice_cols": (lambda x: T.slice_cols(x, 1, 4), [(M3, 4, 5)], [False]),
    "reshape": (lambda x: T.reshape(x, x.shape[:-2] + (10, 2)), [(M3, 4, 5)], [False]),
    "transpose": (T.transpose, [(M3, 4, 5)], [False]),
}


class TestMemberAxis:
    """Ops with a leading member axis compute, forward and backward, what
    one call per member does, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(MEMBER_AXIS_CASES))
    def test_bit_equal_to_one_call_per_member(self, case, dtype):
        op, shapes, shared = MEMBER_AXIS_CASES[case]
        rng = np.random.default_rng(len(case))
        arrays = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
        got, want = stacked_and_sliced(op, arrays, shared, rng)
        for g, w in zip(got, want):
            assert g.dtype == dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_mismatched_leads_rejected(self):
        with pytest.raises(T.ShapeError, match="leading"):
            T.matmul(t64(np.ones((2, 3, 4))), t64(np.ones((3, 4, 5))))
        with pytest.raises(T.ShapeError, match="leading"):
            T.add_bias(t64(np.ones((2, 3, 4))), t64(np.ones((3, 4))))
        with pytest.raises(T.ShapeError, match="attention vectors"):
            T.chain_attention(t64(np.ones((2, 3, 4))), t64(np.ones((2, 3, 4))),
                              t64(np.ones((3, 1, 4))), [1], 0.2)

    def test_stack_params_shares_storage_with_members(self):
        from psygat import model as M

        cfg = M.ModelConfig(text_dim=12, hidden=16, heads=2, persona_dim=4, head_hidden=8)
        members = [M.ModelParams(cfg, seed=k) for k in range(3)]
        before = [m.snapshot() for m in members]
        stacked = T.stack_params(members)
        assert stacked.config is cfg and list(stacked.tensors) == list(members[0].tensors)
        for name, t in stacked.named():
            assert t.shape == (3,) + members[0][name].shape
            for k, m in enumerate(members):
                assert m[name].data.base is t.data
                np.testing.assert_array_equal(m[name].data, before[k][name])
        members[1]["text_w"].data *= 2.0
        np.testing.assert_array_equal(stacked["text_w"].data[1], 2.0 * before[1]["text_w"])


class TestConstantsAndNoGrad:
    def test_constant_gets_no_grad(self):
        # the constant is layer_norm's x and a mul operand; both skip its gradient
        rng = np.random.default_rng(0)
        c = T.Tensor(rng.standard_normal((3, 4)), requires_grad=False)
        w, gamma, beta = t64(rng.standard_normal((4, 4))), t64(np.ones(4)), t64(np.zeros(4))
        T.backward(T.tsum(T.mul(T.matmul(T.layer_norm(c, gamma, beta), w), c)))
        assert c.grad is None
        assert all(p.grad is not None for p in (w, gamma, beta))

    def test_op_on_constants_is_a_constant(self):
        c = T.Tensor(np.ones((2, 2)), requires_grad=False)
        out = T.matmul(T.add(c, c), c)
        assert not out.requires_grad
        assert out.parents == () and out._backward is None
        with pytest.raises(T.UsageError):
            T.backward(T.tsum(out))

    def test_no_grad_records_no_parents(self):
        x = t64([[0.5, -1.0], [2.0, 0.25]])
        with T.no_grad():
            y = T.tsum(T.tanh(T.matmul(x, x)))
        assert y.parents == () and y._backward is None and not y.requires_grad
        with pytest.raises(T.UsageError):
            T.backward(y)
        assert x.grad is None
        # grad mode is back on after the block, also when it raised
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError
        T.backward(T.tsum(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data)


def graph_nodes(loss):
    """Every tensor the loss was computed from, the loss included."""
    seen, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t.parents)
    return list(seen.values())


class TestFreedGraph:
    def forward(self):
        rng = np.random.default_rng(8)
        x, w = t64(rng.standard_normal((3, 4))), t64(rng.standard_normal((4, 2)))
        h = T.tanh(T.matmul(x, w))
        return x, w, h, T.tsum(T.mul(h, h))

    def test_backward_leaves_no_intermediate_state(self):
        x, w, h, loss = self.forward()
        inner = [t for t in graph_nodes(loss) if t.parents]
        assert len(inner) == 4  # matmul, tanh, mul, tsum
        T.backward(loss)
        for t in inner:
            assert t.grad is None and t.parents == () and t._backward is T._freed
        # leaves keep their gradients
        np.testing.assert_allclose(w.grad, x.data.T @ (2 * h.data * (1 - h.data**2)))
        assert x.grad.shape == x.shape

    def test_second_backward_from_the_same_loss_raises(self):
        x, w, _, loss = self.forward()
        T.backward(loss)
        before = x.grad.copy(), w.grad.copy()
        with pytest.raises(T.UsageError, match="earlier backward freed"):
            T.backward(loss)
        # nothing reached the leaves a second time
        np.testing.assert_array_equal(x.grad, before[0])
        np.testing.assert_array_equal(w.grad, before[1])

    @pytest.mark.parametrize("built", ["before", "after"])
    def test_second_loss_through_freed_nodes_raises(self, built):
        _, _, h, loss = self.forward()
        other = T.tsum(h) if built == "before" else None
        T.backward(loss)
        if other is None:
            other = T.tsum(h)
        with pytest.raises(T.UsageError, match="earlier backward freed"):
            T.backward(other)


class TestShapePolicy:
    def test_mismatched_elementwise_shapes_rejected(self):
        with pytest.raises(T.ShapeError):
            T.add(t64(np.zeros((2, 3))), t64(np.zeros((3, 2))))

    def test_row_broadcast_rejected_without_dedicated_op(self):
        with pytest.raises(T.ShapeError):
            T.add(t64(np.zeros((2, 3))), t64(np.zeros(3)))

    def test_add_bias_validates_width(self):
        with pytest.raises(T.ShapeError):
            T.add_bias(t64(np.zeros((2, 3))), t64(np.zeros(4)))

    def test_scale_rows_validates_height(self):
        with pytest.raises(T.ShapeError):
            T.scale_rows(t64(np.zeros((2, 3))), t64(np.zeros(3)))

    def test_matmul_inner_dim_check(self):
        with pytest.raises(T.ShapeError):
            T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))

    def test_backward_requires_scalar(self):
        x = t64(np.zeros((2, 2)))
        with pytest.raises(T.UsageError):
            T.backward(T.mul(x, x))


class TestDropout:
    def test_train_mode_zeroes_and_rescales(self):
        rng = np.random.default_rng(0)
        x = t64(np.ones((200, 200)))
        out = T.dropout(x, 0.25, rng.random(x.shape))
        vals = np.unique(out.data)
        assert set(np.round(vals, 6)) <= {0.0, np.round(1 / 0.75, 6)}
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_invalid_probability(self):
        with pytest.raises(T.UsageError):
            T.dropout(t64(np.ones((2, 2))), 1.0, np.zeros((2, 2)))

    def test_given_draws_match_the_rng_they_came_from(self):
        x = t64(np.arange(12.0).reshape(3, 4))
        u = np.random.default_rng(1).random((3, 4))
        given = T.dropout(x, 0.4, u)
        np.testing.assert_array_equal(given.data, x.data * (u >= 0.4) * (1.0 / 0.6))
        with pytest.raises(T.ShapeError):
            T.dropout(x, 0.4, np.zeros(12))


class TestGradCheck:
    def test_grad_check_accepts_correct_gradient(self):
        rng = np.random.default_rng(3)
        x = t64(rng.standard_normal((3, 4)))
        err = T.grad_check(lambda: T.tsum(T.mul(T.tanh(x), x)), [x])
        assert err < 1e-7

    def test_grad_check_flags_wrong_gradient(self):
        x = t64([[0.5, -0.3]])

        def broken(a):
            out = T.Tensor(a.data * 2.0, (a,))
            out._backward = lambda g: a.accumulate(g * 3.0)  # wrong factor
            return out

        err = T.grad_check(lambda: T.tsum(broken(x)), [x])
        assert err > 0.1
