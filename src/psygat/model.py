"""Session-level classifier: dual input projections, edge-injected GATv2
layers with residuals, Set2Set readout, persona conditioning, MLP head.

Every function runs on a GraphBatch, the disjoint union of its graphs, so
one forward serves a whole minibatch; attention and readout never cross
graph boundaries. Parameters stacked along a leading member axis
(tensor.stack_params) run a whole ensemble in the same forward: every
activation then carries that axis first, and the functions below index
nodes and features from the last axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .config import Config
from .errors import ConfigError, DataError
from .peu import NUM_CATEGORIES

LEAKY_SLOPE = 0.2  # negative slope of the GATv2 attention LeakyReLU


@dataclass
class ModelConfig(Config):
    text_dim: int = 384
    hidden: int = 128
    heads: int = 2
    num_layers: int = 2
    set2set_iters: int = 4
    persona_count: int = 4
    persona_dim: int = 16
    head_hidden: int = 64
    dropout: float = 0.2
    persona: bool = True  # False: the head reads zeros in place of the persona row

    def __post_init__(self):
        super().__post_init__()
        self._check(lambda v: v >= 1, ">= 1", *(f.name for f in fields(self) if f.type == "int"))
        self._check(lambda v: 0 <= v < 1, "in [0, 1)", "dropout")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")

    @property
    def head_dim(self):
        return self.hidden // self.heads

    @property
    def readout_dim(self):
        return 2 * self.hidden


class ModelParams(T.Params):
    """The session classifier's parameters; creation order is the checkpoint order."""

    def __init__(self, config, seed=0, dtype=np.float32):
        self.config = config
        rng = np.random.default_rng(seed)
        c = config
        h = c.hidden
        inits = {}

        def w(name, fan_in, fan_out, shape=None):
            inits[name] = (shape or (fan_in, fan_out),
                           lambda: T.xavier(rng, fan_in, fan_out, dtype, shape))

        def const(name, size, value):
            inits[name] = ((size,), lambda: value)

        const("text_ln_gamma", c.text_dim, 1.0)
        const("text_ln_beta", c.text_dim, 0.0)
        w("text_w", c.text_dim, h)
        const("text_b", h, 0.0)
        const("peu_ln_gamma", NUM_CATEGORIES, 1.0)
        const("peu_ln_beta", NUM_CATEGORIES, 0.0)
        w("peu_w", NUM_CATEGORIES, h)
        const("peu_b", h, 0.0)
        const("fuse_ln_gamma", h, 1.0)
        const("fuse_ln_beta", h, 0.0)
        for layer in range(c.num_layers):
            w(f"gat{layer}_edge_w", NUM_CATEGORIES, h)
            const(f"gat{layer}_edge_b", h, 0.0)
            w(f"gat{layer}_w_src", h, h)
            w(f"gat{layer}_w_dst", h, h)
            # the GATv2 score vectors, one row per head
            w(f"gat{layer}_attn", c.head_dim, 1, shape=(c.heads, c.head_dim))
            const(f"gat{layer}_b", h, 0.0)
        w("s2s_wx", 2 * h, 4 * h)
        w("s2s_wh", h, 4 * h)
        const("s2s_b", 4 * h, 0.0)
        table = (c.persona_count, c.persona_dim)
        inits["persona_table"] = (table, lambda: rng.normal(0.0, 0.02, size=table).astype(dtype))
        w("head_w1", c.readout_dim + c.persona_dim, c.head_hidden)
        const("head_b1", c.head_hidden, 0.0)
        w("head_w2", c.head_hidden, 1)
        const("head_b2", 1, 0.0)
        super().__init__(inits, dtype)


@dataclass
class ForwardOutput:
    """Shapes for single-model parameters; stacked parameters put their
    member axis M first, e.g. logits (M, B)."""

    logits: T.Tensor  # (B,)
    probs: np.ndarray  # (B,) float64
    node_reps: T.Tensor  # (N, hidden)
    session_reps: T.Tensor  # (B, readout_dim)
    conditioned_reps: T.Tensor  # (B, readout_dim + persona_dim)


def project_inputs(batch, params):
    """LN -> linear per stream, sum, LN: the fused initial node features."""
    c = params.config
    if batch.node_text.shape[1] != c.text_dim:
        raise ConfigError(
            f"text dim {batch.node_text.shape[1]} does not match model text_dim {c.text_dim}"
        )
    dtype = params["text_w"].dtype
    text = T.Tensor(batch.node_text.astype(dtype, copy=False), requires_grad=False)
    peu = T.Tensor(batch.node_peu.astype(dtype, copy=False), requires_grad=False)
    t = T.layer_norm(text, params["text_ln_gamma"], params["text_ln_beta"])
    t = T.add_bias(T.matmul(t, params["text_w"]), params["text_b"])
    p = T.layer_norm(peu, params["peu_ln_gamma"], params["peu_ln_beta"])
    p = T.add_bias(T.matmul(p, params["peu_w"]), params["peu_b"])
    return T.layer_norm(T.add(t, p), params["fuse_ln_gamma"], params["fuse_ln_beta"])


def gat_layer(h, batch, params, layer, draws=None):
    """One edge-injected GATv2 layer with residual connection.

    Edge attributes are projected and summed into their destination nodes
    before attention. Every node attends to itself and to its predecessor
    in the chain, so attention is well-defined at each chain head; one
    chain_attention op scores both edges of all heads in closed form.
    draws, in training, yields the dropout draws of each site in turn (see
    _dropout_draws).
    """
    c = params.config
    dtype = h.dtype
    inj = T.add_bias(
        T.matmul(T.Tensor(batch.edge_attr.astype(dtype, copy=False), requires_grad=False),
                 params[f"gat{layer}_edge_w"]),
        params[f"gat{layer}_edge_b"],
    )
    hp = T.add(h, T.segment_sum(inj, batch.edge_dst, h.shape[-2]))
    keep = None
    if draws is not None:
        scale = np.asarray(1.0 / (1.0 - c.dropout), dtype=dtype)
        keep = tuple((next(draws) >= c.dropout).astype(dtype) * scale for _ in range(2))
    agg = T.chain_attention(
        T.matmul(hp, params[f"gat{layer}_w_src"]),
        T.matmul(hp, params[f"gat{layer}_w_dst"]),
        params[f"gat{layer}_attn"], batch.edge_dst, LEAKY_SLOPE, keep,
    )
    agg = T.elu(T.add_bias(agg, params[f"gat{layer}_b"]))
    if draws is not None:
        agg = T.dropout(agg, c.dropout, next(draws))
    return T.add(agg, h)


def encode(batch, params, draws=None):
    """Node representations: input projection followed by the GAT layers."""
    h = project_inputs(batch, params)
    for layer in range(params.config.num_layers):
        h = gat_layer(h, batch, params, layer, draws)
    return h


def _dropout_draws(batch, config, rng):
    """U[0, 1) draws for every dropout site of one training forward.

    Each graph takes its draws in turn, site by site in forward order (per
    layer the attention, then the layer output; the MLP head last); each
    site then joins its graphs' draws in batch order. A batch thus drops
    exactly what forwards of its graphs one at a time, in order, would
    drop, so batching leaves a seed's masks unchanged.

    Attention draws one number per edge of the self-plus-predecessor edge
    list, head by head (row 0 the chain head's self edge, rows 2i - 1 and
    2i node i's self and predecessor edges), split into (n, heads) self and
    predecessor sites; the chain head's predecessor row is a filler that
    meets an exact-zero attention weight.
    """
    c = config
    per_graph = []
    for n in batch.sizes:
        sites = []
        for _ in range(c.num_layers):
            u = np.stack([rng.random(2 * n - 1) for _ in range(c.heads)], axis=1)
            sites += [np.concatenate((u[:1], u[1::2])), u[::2]]
            sites.append(rng.random((n, c.hidden)))
        sites.append(rng.random((1, c.head_hidden)))
        per_graph.append(sites)
    return [np.concatenate(site) for site in zip(*per_graph)]


def set2set_readout(node_reps, params, node_graph=None, num_graphs=1):
    """Iterative attention pooling driven by an LSTM query; output [q || r].

    node_graph maps each node row to its graph (non-decreasing; all zeros
    when omitted). Every graph's query scores all N nodes in one (B, N)
    matmul; nodes of other graphs are masked out before the per-graph
    softmax, so their attention weight is exactly zero (a one-graph mask
    is all +0.0). With a member axis, each member's graphs are separate
    softmax segments of one segment_softmax.
    """
    c = params.config
    lead = node_reps.shape[:-2]
    n = node_reps.shape[-2]
    h = c.hidden
    b = num_graphs
    m = math.prod(lead)
    if node_graph is None:
        node_graph = np.zeros(n, dtype=np.int64)
    rows = np.repeat(np.arange(m * b), n)
    mask = np.where(np.arange(b)[:, None] == node_graph[None, :], 0.0, -np.inf)
    mask = T.Tensor(np.tile(mask.astype(node_reps.dtype).reshape(b * n), m),
                    requires_grad=False)
    reps_t = T.transpose(node_reps)
    zeros = T.Tensor(np.zeros((b, 4 * h), dtype=node_reps.dtype), requires_grad=False)
    cell = q_star = None
    for _ in range(c.set2set_iters):
        if q_star is None:
            # the LSTM starts from zero q, q_star and cell: its gates are the
            # bias alone and the new cell is i * g
            gates = T.add_bias(zeros, params["s2s_b"])
        else:
            gates = T.add_bias(
                T.add(T.matmul(q_star, params["s2s_wx"]), T.matmul(q, params["s2s_wh"])),
                params["s2s_b"],
            )
        i = T.sigmoid(T.slice_cols(gates, 0, h))
        g = T.tanh(T.slice_cols(gates, 2 * h, 3 * h))
        o = T.sigmoid(T.slice_cols(gates, 3 * h, 4 * h))
        if cell is None:
            cell = T.mul(i, g)
        else:
            f = T.sigmoid(T.slice_cols(gates, h, 2 * h))
            cell = T.add(T.mul(f, cell), T.mul(i, g))
        q = T.mul(o, T.tanh(cell))
        scores = T.add(T.reshape(T.matmul(q, reps_t), (m * b * n,)), mask)
        alpha = T.segment_softmax(scores, rows)
        r = T.matmul(T.reshape(alpha, lead + (b, n)), node_reps)
        q_star = T.concat_cols([q, r])
    return q_star


def forward(batch, params, rng=None):
    """Full pipeline from a GraphBatch to one depression logit per graph,
    each graph conditioned on its own persona.

    Given an rng, a training forward, every dropout site draws from it
    (_dropout_draws); without one nothing is dropped.

    A config with persona=False swaps the persona rows for zero vectors of
    the same width, so both configs share one parameter set. Stacked params
    (tensor.stack_params) score every member in this one forward.
    """
    c = params.config
    lead = params["head_b2"].shape[:-1]
    b = batch.num_graphs
    personas = batch.personas
    if c.persona and not np.all((personas >= 0) & (personas < c.persona_count)):
        raise DataError(f"persona ids {personas.tolist()} out of range [0, {c.persona_count})")
    draws = None
    if rng is not None and c.dropout > 0.0:
        draws = iter(_dropout_draws(batch, c, rng))
    node_reps = encode(batch, params, draws)
    session_reps = set2set_readout(node_reps, params, batch.node_graph, b)
    if c.persona:
        z = T.gather_rows(params["persona_table"], personas)
    else:
        z = T.Tensor(np.zeros(lead + (b, c.persona_dim), dtype=session_reps.dtype),
                     requires_grad=False)
    cond = T.concat_cols([session_reps, z])
    hidden = T.elu(T.add_bias(T.matmul(cond, params["head_w1"]), params["head_b1"]))
    if draws is not None:
        hidden = T.dropout(hidden, c.dropout, next(draws))
    logits = T.reshape(T.add_bias(T.matmul(hidden, params["head_w2"]), params["head_b2"]),
                       lead + (b,))
    return ForwardOutput(
        logits=logits,
        probs=T.stable_sigmoid(logits.data.astype(np.float64)),
        node_reps=node_reps,
        session_reps=session_reps,
        conditioned_reps=cond,
    )
