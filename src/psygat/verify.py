"""Finite-difference verification of every differentiable operation, of
the full session model and of the causal scorer's hand-written backward,
in float64.
"""

from __future__ import annotations

import numpy as np

from . import causal as C
from . import model as M
from . import tensor as T
from .graph import GraphBatch, SessionGraph

OP_TOL = 1e-4
END_TO_END_TOL = 1e-3


def _rand(rng, *shape):
    return T.Tensor(rng.standard_normal(shape), dtype=np.float64)


def _fw(op, rng):
    """Wrap an op in a fixed random linear functional so grads are nontrivial.

    The weighting tensor is drawn once, keeping f deterministic across the
    repeated evaluations finite differencing needs.
    """
    cache = {}

    def f():
        out = op()
        if "c" not in cache:
            cache["c"] = T.Tensor(rng.standard_normal(out.shape), dtype=np.float64)
        return T.tsum(T.mul(out, cache["c"]))

    return f


def _check(f, params, eps=1e-5, max_coords=16, rng=None):
    return T.grad_check(f, params, eps=eps, max_coords=max_coords, rng=rng)


def _op_checks(rng):
    m, k, n = (int(rng.integers(1, 9)) for _ in range(3))
    a, b = _rand(rng, m, k), _rand(rng, k, n)
    yield "matmul", _fw(lambda: T.matmul(a, b), rng), [a, b]

    x, y = _rand(rng, m, n), _rand(rng, m, n)
    yield "add", _fw(lambda: T.add(x, y), rng), [x, y]
    yield "sub", _fw(lambda: T.sub(x, y), rng), [x, y]
    yield "mul", _fw(lambda: T.mul(x, y), rng), [x, y]

    s = _rand(rng, n)
    yield "add_bias", _fw(lambda: T.add_bias(x, s), rng), [x, s]
    r = _rand(rng, m)
    yield "scale_rows", _fw(lambda: T.scale_rows(x, r), rng), [x, r]

    z = _rand(rng, m, n)
    yield "leaky_relu", _fw(lambda: T.leaky_relu(z, 0.2), rng), [z]
    yield "elu", _fw(lambda: T.elu(z), rng), [z]
    yield "sigmoid", _fw(lambda: T.sigmoid(z), rng), [z]
    yield "tanh", _fw(lambda: T.tanh(z), rng), [z]
    yield "softplus", _fw(lambda: T.softplus(z), rng), [z]
    yield "exp", _fw(lambda: T.exp(z), rng), [z]

    pos = T.Tensor(rng.uniform(0.5, 2.0, (m, n)), dtype=np.float64)
    yield "log", _fw(lambda: T.log(pos), rng), [pos]
    yield "pow_const", _fw(lambda: T.pow_const(pos, 2.5), rng), [pos]

    # one- or two-column rows make the normalized output (nearly) constant in
    # the input, so fd returns pure rounding noise; use wider rows
    ln_n = int(rng.integers(4, 9))
    zl = _rand(rng, m, ln_n)
    g, bta = _rand(rng, ln_n), _rand(rng, ln_n)
    yield "layer_norm", _fw(lambda: T.layer_norm(zl, g, bta), rng), [zl, g, bta]

    e = int(rng.integers(2, 9))
    logits = _rand(rng, e)
    seg = np.sort(rng.integers(0, max(1, e // 2), e))
    yield "segment_softmax", _fw(lambda: T.segment_softmax(logits, seg), rng), [logits]

    xe = _rand(rng, e, n)
    nseg = int(seg.max()) + 1
    yield "segment_sum", _fw(lambda: T.segment_sum(xe, seg, nseg), rng), [xe]

    idx = rng.integers(0, m, e)
    yield "gather_rows", _fw(lambda: T.gather_rows(x, idx), rng), [x]

    yield "concat_cols", _fw(lambda: T.concat_cols([x, y]), rng), [x, y]
    yield "concat_rows", _fw(lambda: T.concat_rows([x, y]), rng), [x, y]
    lo = int(rng.integers(0, n))
    hi = int(rng.integers(lo + 1, n + 1))
    yield "slice_cols", _fw(lambda: T.slice_cols(x, lo, hi), rng), [x]
    yield "reshape", _fw(lambda: T.reshape(x, (n, m)), rng), [x]
    yield "transpose", _fw(lambda: T.transpose(x), rng), [x]
    yield "tsum", lambda: T.tsum(x), [x]
    yield "tmean", lambda: T.tmean(x), [x]

    # single-column rows make x/||x|| locally constant and fd pure noise;
    # the op is only ever applied to wide embedding matrices
    xn = _rand(rng, m, int(rng.integers(2, 9)))
    yield "l2_normalize_rows", _fw(lambda: T.l2_normalize_rows(xn), rng), [xn]

    # fd needs the same dropout mask on every call, hence fixed draws
    u = np.random.default_rng(7).random(x.shape)
    yield "dropout", _fw(lambda: T.dropout(x, 0.3, u), rng), [x]

    yield "chain_attention", *_chain_attention_check(rng)

    # signed logits of alternating sign, clear of saturation; an integer and
    # a non-integer focusing exponent, and gamma 0, the logistic loss that
    # focal_gamma = 0 trains with
    sign = np.where(np.arange(m * n) % 2 == 0, 1.0, -1.0).reshape(m, n)
    zf = T.Tensor(sign * rng.uniform(0.1, 3.0, (m, n)), dtype=np.float64)
    for gamma in (2.0, 0.7, 0.0):
        yield "focal", _fw(lambda gamma=gamma: T.focal(zf, gamma), rng), [zf]


def _chain_attention_check(rng):
    """Several chains, lone nodes among them, with dropout multipliers.

    Where a node's self and predecessor pre-activations lie on the same
    LeakyReLU side, a dst coordinate shifts both of its scores alike, the
    two-way softmax cancels the shift and fd returns rounding noise around
    an exact zero. src alternating in sign along the nodes, and larger than
    dst, puts the two on opposite sides, at least 0.25 from the kink. A
    chain head's lone weight is 1 exactly, so its dst rows read an exact
    zero both ways.
    """
    sizes = rng.integers(1, 5, int(rng.integers(2, 5)))
    n = int(sizes.sum())
    heads, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    head = np.zeros(n, dtype=bool)
    head[np.cumsum(sizes) - sizes] = True
    edge_dst = np.flatnonzero(~head)
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)[:, None]
    src = T.Tensor(sign * rng.uniform(0.5, 1.0, (n, heads * d)), dtype=np.float64)
    dst = T.Tensor(rng.uniform(-0.25, 0.25, (n, heads * d)), dtype=np.float64)
    attn = T.Tensor(0.5 * rng.standard_normal((heads, d)), dtype=np.float64)
    keep = tuple(np.where(rng.random((n, heads)) >= 0.3, 1.0 / 0.7, 0.0) for _ in range(2))
    f = _fw(lambda: T.chain_attention(src, dst, attn, edge_dst, 0.2, keep), rng)
    return f, [src, dst, attn]


def check_ops(trials=100, seed=0):
    """Max relative fd error per op over randomized small shapes."""
    worst = {}
    for trial in range(trials):
        rng = np.random.default_rng(seed * 100_003 + trial)
        crng = np.random.default_rng(trial)
        for name, f, params in _op_checks(rng):
            # chain_attention has coordinates of gradient near 1e-6 (a
            # saturated two-way softmax, or both of a node's weights
            # dropped), where 1e-5 steps leave fd in rounding noise; its
            # inputs stay clear of the kink, so it takes the model checks'
            # 1e-4 steps
            eps = 1e-4 if name == "chain_attention" else 1e-5
            err = _check(f, params, eps=eps, rng=crng)
            worst[name] = max(worst.get(name, 0.0), err)
    return worst


def _tiny_graph(rng, n_nodes=4, text_dim=12):
    peu = rng.integers(0, 2, (n_nodes, 8)).astype(np.float64)
    peu[:, 7] = rng.integers(-1, 2, n_nodes)
    return SessionGraph(
        session_id="gc",
        node_text=rng.standard_normal((n_nodes, text_dim)),
        node_peu=peu,
        persona=1,
        label=1,
    )


def _model_check(f, params, seed):
    leaves = list(params.tensors.values())
    # eps=1e-4: smaller steps push fd into rounding noise on the many
    # low-sensitivity coordinates (unused LN offsets etc.)
    return T.grad_check(f, leaves, eps=1e-4, max_coords=3, rng=np.random.default_rng(seed))


def _tiny_params(seed):
    cfg = M.ModelConfig(text_dim=12, hidden=16, heads=2, persona_dim=4, head_hidden=8,
                        dropout=0.0)
    return M.ModelParams(cfg, seed=seed, dtype=np.float64)


def check_model(seed=0, n_nodes=4):
    """End-to-end fd check of the full forward on a small graph, float64."""
    rng = np.random.default_rng(seed)
    params = _tiny_params(seed)
    batch = GraphBatch.from_graphs([_tiny_graph(rng, n_nodes, params.config.text_dim)])
    return _model_check(lambda: T.tsum(M.forward(batch, params).logits), params, seed)


def check_batch(seed=0, sizes=(5, 1, 8, 3)):
    """fd check of one batched forward over graphs of mixed lengths, one of
    them a single node without edges, through a random functional of the
    per-graph logits, float64."""
    # With fewer nodes some w_dst columns get an exactly-zero gradient (a
    # shift shared by a destination's attention logits cancels in its
    # softmax), where fd returns rounding noise; with more, a LeakyReLU or
    # ELU kink falls within eps of some coordinate more often.
    rng = np.random.default_rng(seed)
    params = _tiny_params(seed)
    graphs = [_tiny_graph(rng, n, params.config.text_dim) for n in sizes]
    for k, g in enumerate(graphs):
        g.persona = k % params.config.persona_count
    batch = GraphBatch.from_graphs(graphs)
    f = _fw(lambda: M.forward(batch, params).logits, rng)
    return _model_check(f, params, seed)


def check_stacked(seed=0, sizes=(5, 1, 8, 3)):
    """fd check of one forward of three members stacked along a member
    axis (tensor.stack_params), over check_batch's graphs, with respect to
    the stacked leaves, float64. Every op with a member axis in the forward
    passes these gradients back along it. The operands the members share
    (input features, edge attributes, the zero Set2Set state) are
    constants, so no gradient sums over the members."""
    rng = np.random.default_rng(seed)
    stacked = T.stack_params([_tiny_params(seed + k) for k in range(3)])
    graphs = [_tiny_graph(rng, n, stacked.config.text_dim) for n in sizes]
    for k, g in enumerate(graphs):
        g.persona = k % stacked.config.persona_count
    batch = GraphBatch.from_graphs(graphs)
    f = _fw(lambda: M.forward(batch, stacked).logits, rng)
    return _model_check(f, stacked, seed)


def check_causal_scorer(seed=0):
    """fd check of causal.scorer_loss, whose backward is written by hand:
    the focal loss (gamma 2) of a small scorer over 12 rows of random
    features, labels of both classes, every coordinate, float64."""
    rng = np.random.default_rng(seed)
    scorer = C.ScorerParams(C.CausalConfig(window=1, hidden=5), model_hidden=3, seed=seed,
                            dtype=np.float64)
    x = rng.standard_normal((12, scorer.input_dim))
    sign = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    leaves = list(scorer.tensors.values())

    def f():
        loss = C.scorer_loss(scorer, x, sign)
        # scorer_loss has written every gradient already, so the loss node's
        # backward has nothing left to pass on
        return T.Tensor(loss, tuple(leaves), lambda g: None, dtype=np.float64)

    return _check(f, leaves, max_coords=None)


def run_suite(trials=100, seed=0):
    """(name, max_rel_err, tolerance, passed) rows for ops plus the full model,
    on one graph, on a batch and with stacked members, then the causal
    scorer's hand-written backward."""
    rows = []
    for name, err in sorted(check_ops(trials, seed).items()):
        rows.append((name, err, OP_TOL, err < OP_TOL))
    for name, err in (("full_model_forward", check_model(seed)),
                      ("batched_model_forward", check_batch(seed)),
                      ("stacked_model_forward", check_stacked(seed))):
        rows.append((name, err, END_TO_END_TOL, err < END_TO_END_TOL))
    err = check_causal_scorer(seed)
    rows.append(("causal_scorer", err, OP_TOL, err < OP_TOL))
    return rows
