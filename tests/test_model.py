"""Session classifier: configuration, shapes, attention structure,
readout invariance and persona conditioning."""

from dataclasses import replace

import numpy as np
import pytest

from psygat import model as M
from psygat import tensor as T
from psygat.graph import GraphBatch


def small_config(**overrides):
    base = dict(text_dim=24, hidden=16, heads=2, num_layers=2, set2set_iters=3,
                persona_count=4, persona_dim=4, head_hidden=8, dropout=0.0)
    base.update(overrides)
    return M.ModelConfig(**base)


def make_graph(rng, n=5, config=None, persona=1, label=1):
    from psygat.graph import SessionGraph

    config = config or small_config()
    peu = rng.integers(0, 2, (n, 8)).astype(np.float32)
    peu[:, 7] = rng.integers(-1, 2, n)
    return SessionGraph(
        session_id="t",
        node_text=rng.standard_normal((n, config.text_dim)).astype(np.float32),
        node_peu=peu,
        persona=persona,
        label=label,
    )


def run(graph, params, persona=None, **kwargs):
    """forward over a batch of the one graph, under another persona if given."""
    if persona is not None:
        graph = replace(graph, persona=persona)
    return M.forward(GraphBatch.from_graphs([graph]), params, **kwargs)


def attention_edges(batch):
    """(src, dst) of the self-plus-predecessor attention edges, built edge by
    edge: destination by destination, each self edge before its predecessor
    edge. This order is the layout of each head's attention dropout draws."""
    src, dst = [], []
    start = 0
    for n in batch.sizes.tolist():
        for j in range(start, start + n):
            src.append(j)
            dst.append(j)
            if j > start:
                src.append(j - 1)
                dst.append(j)
        start += n
    return np.array(src), np.array(dst)


class TestConfig:
    def test_hidden_must_divide_by_heads(self):
        with pytest.raises(M.ConfigError):
            small_config(hidden=15, heads=2)

    def test_fields(self):
        assert list(M.ModelConfig.__dataclass_fields__) == [
            "text_dim", "hidden", "heads", "num_layers", "set2set_iters", "persona_count",
            "persona_dim", "head_hidden", "dropout", "persona"]

    @pytest.mark.parametrize("value", ["off", 0, None])
    def test_persona_must_be_a_bool(self, value):
        with pytest.raises(M.ConfigError, match="persona must be true or false"):
            small_config(persona=value)

    def test_set2set_needs_an_iteration(self):
        with pytest.raises(M.ConfigError, match="set2set_iters"):
            small_config(set2set_iters=0)

    def test_derived_dims(self):
        c = small_config()
        assert c.head_dim == 8
        assert c.readout_dim == 32

    def test_json_round_trip(self):
        c = small_config(hidden=32, dropout=0.1)
        assert M.ModelConfig.from_json(c.to_json()) == c


class TestParams:
    def test_seed_determinism(self):
        a = M.ModelParams(small_config(), seed=3)
        b = M.ModelParams(small_config(), seed=3)
        for (n1, t1), (n2, t2) in zip(a.named(), b.named()):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_different_seeds_differ(self):
        a = M.ModelParams(small_config(), seed=0)
        b = M.ModelParams(small_config(), seed=1)
        assert not np.allclose(a["text_w"].data, b["text_w"].data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_tensor_is_a_view_of_one_block(self, dtype):
        from tests.test_tensor import assert_views_of_block

        p = M.ModelParams(small_config(), seed=0, dtype=dtype)
        assert p.flat.data.dtype == dtype and p.flat.data.flags.c_contiguous
        assert p.flat.grad is None  # allocated by the first zero_grad
        assert_views_of_block(p)
        p.zero_grad()
        assert p.flat.grad.dtype == dtype and not p.flat.grad.any()
        for (name, t), (_, g) in zip(p.named(), p.views(p.flat.grad)):
            assert t.grad.base is p.flat.grad and t.grad.ctypes.data == g.ctypes.data, name
        grad = p.flat.grad
        grad[...] = 1.0
        p.zero_grad()  # zeroes the same block
        assert p.flat.grad is grad and not grad.any() and p["text_w"].grad.base is grad


class TestForward:
    def test_output_shapes(self):
        rng = np.random.default_rng(0)
        cfg = small_config()
        params = M.ModelParams(cfg, seed=0)
        out = run(make_graph(rng, 6, cfg), params)
        assert out.logits.shape == (1,)
        assert out.probs.shape == (1,) and 0.0 < out.probs[0] < 1.0
        assert out.node_reps.shape == (6, 16)
        assert out.session_reps.shape == (1, 32)
        assert out.conditioned_reps.shape == (1, 36)

    def test_single_node_graph_works(self):
        rng = np.random.default_rng(0)
        cfg = small_config()
        out = run(make_graph(rng, 1, cfg, persona=0), M.ModelParams(cfg, seed=0))
        assert np.all(np.isfinite(out.logits.data))

    def test_prob_matches_logit(self):
        rng = np.random.default_rng(1)
        cfg = small_config()
        out = run(make_graph(rng, 4, cfg, persona=2), M.ModelParams(cfg, seed=1))
        assert out.probs[0] == pytest.approx(1 / (1 + np.exp(-float(out.logits.data[0]))), rel=1e-6)

    def test_persona_out_of_range_rejected(self):
        rng = np.random.default_rng(0)
        cfg = small_config()
        with pytest.raises(M.DataError):
            run(make_graph(rng, 3, cfg, persona=4), M.ModelParams(cfg, seed=0))

    def test_persona_off_ignores_persona_id(self):
        rng = np.random.default_rng(0)
        cfg = small_config(persona=False)
        params = M.ModelParams(cfg, seed=0)
        g = make_graph(rng, 5, cfg)
        a = run(g, params, 0)
        b = run(g, params, 3)
        np.testing.assert_array_equal(a.logits.data, b.logits.data)
        # off mode zero-pads, so conditioned width matches on mode
        assert a.conditioned_reps.shape == (1, 36)
        np.testing.assert_array_equal(a.conditioned_reps.data[:, 32:], np.zeros((1, 4)))

    def test_persona_off_draws_the_persona_on_parameters(self):
        # one parameter set for both configs, so a seed's blob is the same
        on = M.ModelParams(small_config(), seed=5)
        off = M.ModelParams(small_config(persona=False), seed=5)
        assert on.shapes == off.shapes
        assert on.flat.data.tobytes() == off.flat.data.tobytes()

    def test_persona_on_changes_output(self):
        rng = np.random.default_rng(0)
        cfg = small_config()
        params = M.ModelParams(cfg, seed=0)
        g = make_graph(rng, 5, cfg)
        probs = {p: run(g, params, p).probs[0] for p in range(4)}
        assert len(set(probs.values())) > 1

    def test_text_dim_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(M.ConfigError):
            run(make_graph(rng, 3, small_config(text_dim=10)), M.ModelParams(small_config(), seed=0))

    def test_deterministic_in_eval_mode(self):
        rng = np.random.default_rng(0)
        cfg = small_config(dropout=0.5)
        params = M.ModelParams(cfg, seed=0)
        g = make_graph(rng, 5, cfg)
        assert run(g, params).probs[0] == run(g, params).probs[0]


class TestAttentionStructure:
    def test_edges_are_self_plus_incoming_chain(self):
        rng = np.random.default_rng(0)
        batch = GraphBatch.from_graphs([make_graph(rng, 3)])
        pairs = list(zip(*(e.tolist() for e in attention_edges(batch))))
        assert pairs == [(0, 0), (1, 1), (0, 1), (2, 2), (1, 2)]
        assert batch.edge_dst.tolist() == [1, 2]

    def test_attention_sums_to_one_per_destination(self):
        # re-run the layer's attention computation and check normalization
        rng = np.random.default_rng(2)
        cfg = small_config()
        params = M.ModelParams(cfg, seed=2)
        g = GraphBatch.from_graphs([make_graph(rng, 6, cfg)])
        h = M.project_inputs(g, params)
        srcs, dsts = attention_edges(g)
        src_proj = T.matmul(h, params["gat0_w_src"])
        dst_proj = T.matmul(h, params["gat0_w_dst"])
        pre = T.leaky_relu(T.add(T.gather_rows(src_proj, srcs), T.gather_rows(dst_proj, dsts)),
                           M.LEAKY_SLOPE)
        attn_t = T.transpose(params["gat0_attn"])
        for head in range(cfg.heads):
            lo, hi = head * cfg.head_dim, (head + 1) * cfg.head_dim
            logits = T.reshape(T.matmul(T.slice_cols(pre, lo, hi),
                                        T.slice_cols(attn_t, head, head + 1)), (len(srcs),))
            alpha = M.T.segment_softmax(logits, dsts)
            sums = np.zeros(6)
            np.add.at(sums, dsts, alpha.data)
            np.testing.assert_allclose(sums, np.ones(6), atol=1e-6)

    def test_future_nodes_cannot_influence_first_node(self):
        # directed chain: node 0 only attends to itself, so perturbing the
        # last utterance leaves node 0's representation unchanged
        rng = np.random.default_rng(3)
        cfg = small_config()
        params = M.ModelParams(cfg, seed=3)
        g = make_graph(rng, 5, cfg)
        before = run(g, params).node_reps.data[0].copy()
        g.node_text[4] += 10.0
        after = run(g, params).node_reps.data[0]
        np.testing.assert_allclose(before, after, atol=1e-6)


def composed_attention(src_proj, dst_proj, attn, batch, slope, uniforms=None, p=0.0):
    """The generic message-passing form of chain_attention, over the explicit
    self-plus-chain edge list: gathers, a segment softmax per head, optional
    dropout of the weights, a segment sum per head."""
    srcs, dsts = attention_edges(batch)
    n = dst_proj.shape[0]
    d = attn.shape[1]
    e_src = T.gather_rows(src_proj, srcs)
    pre = T.leaky_relu(T.add(e_src, T.gather_rows(dst_proj, dsts)), slope)
    attn_t = T.transpose(attn)
    out = []
    for head in range(attn.shape[0]):
        lo, hi = head * d, (head + 1) * d
        a = T.slice_cols(attn_t, head, head + 1)
        alpha = T.segment_softmax(T.reshape(T.matmul(T.slice_cols(pre, lo, hi), a), (len(srcs),)),
                                  dsts)
        if uniforms is not None:
            alpha = T.dropout(alpha, p, uniforms[head])
        out.append(T.segment_sum(T.scale_rows(T.slice_cols(e_src, lo, hi), alpha), dsts, n))
    return T.concat_cols(out)


def node_keep(batch, uniforms, p, dtype):
    """Self and predecessor dropout multipliers, (N, heads) each, from each
    head's draws over the edge list. Graph by graph, as
    model._dropout_draws splits them: a graph's rows 0, 1, 3, 5, ... are its
    self edges and rows 0, 2, 4, ... its predecessor edges, row 0 standing
    in for the chain head, which has none."""
    per_graph = np.split(np.stack(uniforms, axis=1), np.cumsum(2 * batch.sizes - 1)[:-1])
    draws = (np.concatenate([np.concatenate((u[:1], u[1::2])) for u in per_graph]),
             np.concatenate([u[::2] for u in per_graph]))
    return tuple((u >= p).astype(dtype) * np.asarray(1.0 / (1.0 - p), dtype=dtype) for u in draws)


class TestChainAttention:
    SIZES = (4, 1, 7, 2, 1, 5)

    def inputs(self, dtype, seed=0, heads=2, d=4):
        rng = np.random.default_rng(seed)
        batch = GraphBatch.from_graphs([make_graph(rng, n) for n in self.SIZES])
        n = batch.node_graph.shape[0]

        def leaf(*shape):
            return T.Tensor(rng.standard_normal(shape), dtype=dtype)

        return rng, batch, leaf(n, heads * d), leaf(n, heads * d), leaf(heads, d)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("train", [False, True])
    def test_matches_composed_message_passing(self, dtype, tol, train):
        rng, batch, src, dst, attn = self.inputs(dtype)
        p = 0.3
        uniforms = ([rng.random(len(attention_edges(batch)[1])) for _ in range(attn.shape[0])]
                    if train else None)
        keep = node_keep(batch, uniforms, p, src.dtype) if train else None
        weights = rng.standard_normal(src.shape).astype(dtype)
        results = []
        for run in (lambda: T.chain_attention(src, dst, attn, batch.edge_dst, 0.2, keep),
                    lambda: composed_attention(src, dst, attn, batch, 0.2, uniforms, p)):
            for t in (src, dst, attn):
                t.zero_grad()
            out = run()
            T.backward(T.tsum(T.mul(out, T.Tensor(weights, requires_grad=False))))
            results.append([out.data] + [t.grad.copy() for t in (src, dst, attn)])
        for fused, composed in zip(*results):
            assert fused.dtype == composed.dtype == dtype
            np.testing.assert_allclose(fused, composed, rtol=tol, atol=tol)

    def test_weights_sum_to_one_per_destination(self):
        # with every source row equal to v, each destination receives
        # (alpha_self + alpha_pred) * v, whatever dst makes of the scores
        rng, batch, _, dst, attn = self.inputs(np.float64, seed=1)
        v = rng.standard_normal(dst.shape[1])
        src = T.Tensor(np.tile(v, (dst.shape[0], 1)), dtype=np.float64)
        out = T.chain_attention(src, dst, attn, batch.edge_dst, 0.2)
        np.testing.assert_allclose(out.data, src.data, rtol=1e-12, atol=0)

    def test_chain_heads_attend_only_to_themselves(self):
        _, batch, src, dst, attn = self.inputs(np.float64, seed=2)
        out = T.chain_attention(src, dst, attn, batch.edge_dst, 0.2)
        heads = np.cumsum(batch.sizes) - batch.sizes
        np.testing.assert_array_equal(out.data[heads], src.data[heads])

    @pytest.mark.parametrize("edge_dst", [[0, 1], [2, 2], [3, 1], [1, 20]])
    def test_bad_edge_destinations_rejected(self, edge_dst):
        _, _, src, dst, attn = self.inputs(np.float64)
        with pytest.raises(T.ShapeError):
            T.chain_attention(src, dst, attn, edge_dst, 0.2)

    @pytest.mark.parametrize("shape", [(2, 3), (4, 4), (8,), (1, 2, 4)])
    def test_attention_that_does_not_fit_the_projections_rejected(self, shape):
        # H * D must be the projections' width (8 here), and the lead theirs
        _, batch, src, dst, _ = self.inputs(np.float64)
        with pytest.raises(T.ShapeError, match="attention vectors"):
            T.chain_attention(src, dst, T.Tensor(np.ones(shape)), batch.edge_dst, 0.2)


class TestReadouts:
    def test_set2set_permutation_invariance(self):
        rng = np.random.default_rng(4)
        cfg = small_config()
        params = M.ModelParams(cfg, seed=4)
        reps = T.Tensor(rng.standard_normal((7, cfg.hidden)).astype(np.float32))
        out = M.set2set_readout(reps, params)
        perm = rng.permutation(7)
        out_p = M.set2set_readout(T.Tensor(reps.data[perm]), params)
        np.testing.assert_allclose(out.data, out_p.data, atol=1e-5)


def reference_set2set(node_reps, params, node_graph=None, num_graphs=1):
    """Set2Set with every iteration run through the full LSTM cell, the first
    one from explicit zero q, q_star and cell, kept as the reference."""
    c = params.config
    n = node_reps.shape[0]
    dtype = node_reps.dtype
    b = num_graphs
    q = T.Tensor(np.zeros((b, c.hidden), dtype=dtype), requires_grad=False)
    cell = T.Tensor(np.zeros((b, c.hidden), dtype=dtype), requires_grad=False)
    q_star = T.Tensor(np.zeros((b, 2 * c.hidden), dtype=dtype), requires_grad=False)
    rows = np.repeat(np.arange(b), n)
    if b > 1:
        mask = np.where(np.arange(b)[:, None] == node_graph[None, :], 0.0, -np.inf)
        mask = T.Tensor(mask.astype(dtype).reshape(b * n), requires_grad=False)
    reps_t = T.transpose(node_reps)
    for _ in range(c.set2set_iters):
        gates = T.add_bias(
            T.add(T.matmul(q_star, params["s2s_wx"]), T.matmul(q, params["s2s_wh"])),
            params["s2s_b"],
        )
        h = c.hidden
        i = T.sigmoid(T.slice_cols(gates, 0, h))
        f = T.sigmoid(T.slice_cols(gates, h, 2 * h))
        g = T.tanh(T.slice_cols(gates, 2 * h, 3 * h))
        o = T.sigmoid(T.slice_cols(gates, 3 * h, 4 * h))
        cell = T.add(T.mul(f, cell), T.mul(i, g))
        q = T.mul(o, T.tanh(cell))
        scores = T.reshape(T.matmul(q, reps_t), (b * n,))
        if b > 1:
            scores = T.add(scores, mask)
        alpha = T.segment_softmax(scores, rows)
        r = T.matmul(T.reshape(alpha, (b, n)), node_reps)
        q_star = T.concat_cols([q, r])
    return q_star


class TestSet2SetFirstStep:
    @pytest.mark.parametrize("sizes", [(6,), (1,), (4, 1, 5), (1, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("iters", [1, 3])
    def test_output_and_gradients_bit_equal_to_the_full_loop(self, sizes, dtype, iters):
        rng = np.random.default_rng(sum(sizes) + iters)
        params = M.ModelParams(small_config(set2set_iters=iters), seed=iters, dtype=dtype)
        # a trained bias, so the first step's gates are not all zero
        params["s2s_b"].data = rng.standard_normal(params["s2s_b"].shape).astype(dtype)
        node_graph = np.repeat(np.arange(len(sizes)), sizes)
        reps = T.Tensor(rng.standard_normal((sum(sizes), 16)), dtype=dtype)
        weights = T.Tensor(rng.standard_normal((len(sizes), 32)), dtype=dtype, requires_grad=False)
        results = []
        for readout in (M.set2set_readout, reference_set2set):
            params.zero_grad()
            reps.zero_grad()
            out = readout(reps, params, node_graph, len(sizes))
            T.backward(T.tsum(T.mul(out, weights)))
            # with one iteration nothing reads the LSTM weights, and a gradient
            # never accumulated counts as zero, as AdamW and clipping take it
            results.append([out.data, reps.grad] + [
                np.zeros_like(params[k].data) if params[k].grad is None else params[k].grad
                for k in ("s2s_wx", "s2s_wh", "s2s_b")])
        for got, want in zip(*results):
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("iters", [1, 3])
    def test_first_step_makes_seven_fewer_ops(self, iters):
        # no matmuls of the zero q and q_star, no add of their products, no
        # forget gate (slice and sigmoid), no f * cell and no add to i * g;
        # two graphs, so the reference adds the cross-graph mask as well
        params = M.ModelParams(small_config(set2set_iters=iters), seed=0)
        reps = T.Tensor(np.random.default_rng(0).standard_normal((5, 16)), dtype=np.float32)
        graphs = (np.array([0, 0, 1, 1, 1]), 2)

        def graph_nodes(out):
            seen, stack = {}, [out]
            while stack:
                t = stack.pop()
                if id(t) not in seen:
                    seen[id(t)] = t
                    stack.extend(t.parents)
            return seen.values()

        ops = [sum(1 for t in graph_nodes(readout(reps, params, *graphs)) if t.parents)
               for readout in (M.set2set_readout, reference_set2set)]
        assert ops[1] - ops[0] == 7
        leaves = [t for t in graph_nodes(M.set2set_readout(reps, params, *graphs))
                  if not t.parents]
        assert any(t is params["s2s_wx"] for t in leaves) == (iters > 1)


def test_gradients_flow_to_every_parameter():
    rng = np.random.default_rng(7)
    cfg = small_config()
    params = M.ModelParams(cfg, seed=7)
    g = make_graph(rng, 5, cfg)
    out = run(g, params)
    T.backward(T.tsum(out.logits))
    dead = [name for name, t in params.named()
            if t.grad is None or not np.any(t.grad)]
    assert dead == []


class TestBatching:
    SIZES = (4, 1, 7, 2, 5)

    def graphs(self, rng, cfg):
        return [make_graph(rng, n, cfg, persona=k % 4, label=k % 2)
                for k, n in enumerate(self.SIZES)]

    def test_batch_indices_are_disjoint_and_offset(self):
        rng = np.random.default_rng(0)
        batch = GraphBatch.from_graphs([make_graph(rng, 2), make_graph(rng, 1), make_graph(rng, 3)])
        assert batch.node_graph.tolist() == [0, 0, 1, 2, 2, 2]
        assert batch.edge_dst.tolist() == [1, 4, 5]
        pairs = list(zip(*(e.tolist() for e in attention_edges(batch))))
        assert pairs == [(0, 0), (1, 1), (0, 1), (2, 2), (3, 3), (4, 4), (3, 4), (5, 5), (4, 5)]
        assert batch.edge_attr.shape == (3, 8)
        assert batch.labels.tolist() == [1, 1, 1]

    def test_attention_edges_match_the_explicit_construction(self):
        # the reference edge list equals the one built from head positions alone
        rng = np.random.default_rng(1)
        batch = GraphBatch.from_graphs([make_graph(rng, n) for n in self.SIZES + (1, 3)])
        head = np.zeros(int(batch.sizes.sum()), dtype=bool)
        head[np.cumsum(batch.sizes) - batch.sizes] = True
        dst = np.repeat(np.arange(head.size), np.where(head, 1, 2))
        src = dst.copy()
        src[np.flatnonzero(dst[1:] == dst[:-1]) + 1] = np.flatnonzero(~head) - 1
        ref_src, ref_dst = attention_edges(batch)
        np.testing.assert_array_equal(ref_dst, dst)
        np.testing.assert_array_equal(ref_src, src)

    def test_unlabeled_graph_leaves_batch_unlabeled(self):
        rng = np.random.default_rng(0)
        g = make_graph(rng, 2)
        g.label = None
        assert GraphBatch.from_graphs([g, make_graph(rng, 3)]).labels is None

    def test_empty_batch_rejected(self):
        with pytest.raises(M.DataError):
            GraphBatch.from_graphs([])

    def test_batched_logits_match_per_graph(self):
        rng = np.random.default_rng(8)
        cfg = small_config(dropout=0.3)
        params = M.ModelParams(cfg, seed=8)
        graphs = self.graphs(rng, cfg)
        batched = M.forward(GraphBatch.from_graphs(graphs), params)
        single = [run(g, params) for g in graphs]
        np.testing.assert_allclose(batched.logits.data,
                                   [o.logits.data[0] for o in single], atol=1e-5)
        np.testing.assert_allclose(batched.node_reps.data,
                                   np.concatenate([o.node_reps.data for o in single]), atol=1e-5)

    def test_perturbing_one_graph_leaves_the_others_bit_identical(self):
        rng = np.random.default_rng(9)
        cfg = small_config()
        params = M.ModelParams(cfg, seed=9)
        graphs = self.graphs(rng, cfg)
        before = M.forward(GraphBatch.from_graphs(graphs), params).logits.data.copy()
        for k in range(len(graphs)):
            graphs[k].node_text += 3.0
            graphs[k].node_peu[-1, 0] = 1.0 - graphs[k].node_peu[-1, 0]
            after = M.forward(GraphBatch.from_graphs(graphs), params).logits.data
            others = [j for j in range(len(graphs)) if j != k]
            np.testing.assert_array_equal(after[others], before[others])
            assert after[k] != before[k]
            before = after.copy()

    def test_training_forward_drops_what_per_graph_forwards_drop(self):
        rng = np.random.default_rng(13)
        cfg = small_config(dropout=0.4)
        params = M.ModelParams(cfg, seed=13)
        graphs = self.graphs(rng, cfg)
        batch_stream, stream = np.random.default_rng(5), np.random.default_rng(5)
        batched = M.forward(GraphBatch.from_graphs(graphs), params, rng=batch_stream)
        single = [run(g, params, rng=stream).logits.data[0] for g in graphs]
        np.testing.assert_allclose(batched.logits.data, single, atol=1e-5)
        assert batch_stream.random() == stream.random()  # both took the same draws
        eval_logits = M.forward(GraphBatch.from_graphs(graphs), params).logits.data
        assert not np.allclose(batched.logits.data, eval_logits)

    def test_an_rng_at_zero_dropout_draws_nothing(self):
        rng = np.random.default_rng(14)
        cfg = small_config(dropout=0.0)
        params = M.ModelParams(cfg, seed=14)
        graph = make_graph(rng, 3, cfg)
        stream = np.random.default_rng(3)
        np.testing.assert_array_equal(run(graph, params, rng=stream).logits.data,
                                      run(graph, params).logits.data)
        assert stream.random() == np.random.default_rng(3).random()

    def test_batch_of_single_node_graphs(self):
        rng = np.random.default_rng(10)
        cfg = small_config()
        params = M.ModelParams(cfg, seed=10)
        graphs = [make_graph(rng, 1, cfg), make_graph(rng, 1, cfg)]
        batch = GraphBatch.from_graphs(graphs)
        assert batch.edge_attr.shape == (0, 8)
        out = M.forward(batch, params)
        assert out.logits.shape == (2,)
        single = [run(g, params).logits.data[0] for g in graphs]
        np.testing.assert_allclose(out.logits.data, single, atol=1e-5)

    def test_each_graph_is_conditioned_on_its_own_persona(self):
        rng = np.random.default_rng(11)
        cfg = small_config()
        params = M.ModelParams(cfg, seed=11)
        graphs = self.graphs(rng, cfg)
        own = M.forward(GraphBatch.from_graphs(graphs), params).logits.data
        moved = [replace(g, persona=3) for g in graphs]
        out = M.forward(GraphBatch.from_graphs(moved), params).logits.data
        single = [run(g, params, 3).logits.data[0] for g in graphs]
        np.testing.assert_allclose(out, single, atol=1e-5)
        changed = np.array([g.persona != 3 for g in graphs])
        assert np.all(out[changed] != own[changed])
        np.testing.assert_array_equal(out[~changed], own[~changed])

    def test_encode_matches_forward_node_reps(self):
        rng = np.random.default_rng(12)
        cfg = small_config()
        params = M.ModelParams(cfg, seed=12)
        batch = GraphBatch.from_graphs(self.graphs(rng, cfg))
        np.testing.assert_array_equal(M.encode(batch, params).data,
                                      M.forward(batch, params).node_reps.data)
