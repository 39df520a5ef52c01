"""Session-level classifier: dual input projections, edge-injected GATv2
layers with residuals, Set2Set readout, persona conditioning, MLP head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError
from .peu import NUM_CATEGORIES


@dataclass
class ModelConfig:
    text_dim: int = 384
    hidden: int = 128
    heads: int = 2
    num_layers: int = 2
    set2set_iters: int = 4
    persona_count: int = 4
    persona_dim: int = 16
    head_hidden: int = 64
    dropout: float = 0.2
    attn_dropout: bool = True
    out_dropout: bool = True
    readout: str = "set2set"  # or "mean"
    leaky_slope: float = 0.2

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.readout not in ("set2set", "mean"):
            raise ConfigError(f"unknown readout {self.readout!r}")

    @property
    def head_dim(self):
        return self.hidden // self.heads

    @property
    def readout_dim(self):
        return 2 * self.hidden if self.readout == "set2set" else self.hidden

    def to_json(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_json(cls, obj):
        return cls(**obj)


class ModelParams(T.Params):
    """The session classifier's parameters; creation order is the checkpoint order."""

    def __init__(self, config, seed=0, dtype=np.float32):
        self.config = config
        self.tensors = {}
        rng = np.random.default_rng(seed)
        c = config
        h = c.hidden

        def w(name, fan_in, fan_out, shape=None):
            self.tensors[name] = T.Tensor(T.xavier(rng, fan_in, fan_out, dtype, shape), name=name)

        def const(name, value):
            self.tensors[name] = T.Tensor(np.asarray(value, dtype=dtype), name=name)

        const("text_ln_gamma", np.ones(c.text_dim))
        const("text_ln_beta", np.zeros(c.text_dim))
        w("text_w", c.text_dim, h)
        const("text_b", np.zeros(h))
        const("peu_ln_gamma", np.ones(NUM_CATEGORIES))
        const("peu_ln_beta", np.zeros(NUM_CATEGORIES))
        w("peu_w", NUM_CATEGORIES, h)
        const("peu_b", np.zeros(h))
        const("fuse_ln_gamma", np.ones(h))
        const("fuse_ln_beta", np.zeros(h))
        for layer in range(c.num_layers):
            w(f"gat{layer}_edge_w", NUM_CATEGORIES, h)
            const(f"gat{layer}_edge_b", np.zeros(h))
            w(f"gat{layer}_w_src", h, h)
            w(f"gat{layer}_w_dst", h, h)
            for head in range(c.heads):
                w(f"gat{layer}_attn{head}", c.head_dim, 1)
            const(f"gat{layer}_b", np.zeros(h))
        if c.readout == "set2set":
            w("s2s_wx", 2 * h, 4 * h)
            w("s2s_wh", h, 4 * h)
            const("s2s_b", np.zeros(4 * h))
        self.tensors["persona_table"] = T.Tensor(
            (rng.normal(0.0, 0.02, size=(c.persona_count, c.persona_dim))).astype(dtype),
            name="persona_table",
        )
        w("head_w1", c.readout_dim + c.persona_dim, c.head_hidden)
        const("head_b1", np.zeros(c.head_hidden))
        w("head_w2", c.head_hidden, 1)
        const("head_b2", np.zeros(1))


@dataclass
class ForwardOutput:
    logit: T.Tensor  # scalar
    prob: float
    node_reps: T.Tensor  # (T, hidden)
    session_rep: T.Tensor  # (1, readout_dim)
    conditioned_rep: T.Tensor  # (1, readout_dim + persona_dim)


def project_inputs(graph, params):
    """LN -> linear per stream, sum, LN: the fused initial node features."""
    c = params.config
    if graph.node_text.shape[1] != c.text_dim:
        raise ConfigError(
            f"text dim {graph.node_text.shape[1]} does not match model text_dim {c.text_dim}"
        )
    dtype = params["text_w"].dtype
    text = T.Tensor(graph.node_text.astype(dtype))
    peu = T.Tensor(graph.node_peu.astype(dtype))
    t = T.layer_norm(text, params["text_ln_gamma"], params["text_ln_beta"])
    t = T.add_bias(T.matmul(t, params["text_w"]), params["text_b"])
    p = T.layer_norm(peu, params["peu_ln_gamma"], params["peu_ln_beta"])
    p = T.add_bias(T.matmul(p, params["peu_w"]), params["peu_b"])
    return T.layer_norm(T.add(t, p), params["fuse_ln_gamma"], params["fuse_ln_beta"])


def _attention_edges(n):
    """Self edge plus incoming chain edge per destination, sorted by dst."""
    srcs, dsts = [], []
    for j in range(n):
        srcs.append(j)
        dsts.append(j)
        if j > 0:
            srcs.append(j - 1)
            dsts.append(j)
    return np.asarray(srcs), np.asarray(dsts)


def gat_layer(h, graph, params, layer, train=False, rng=None):
    """One edge-injected GATv2 layer with residual connection.

    Edge attributes are projected and summed into their destination nodes
    before attention. Every node gets an implicit self edge so attention
    is well-defined at the chain head.
    """
    c = params.config
    n = h.shape[0]
    dtype = h.dtype
    if graph.edge_attr.shape[0] > 0:
        inj = T.add_bias(
            T.matmul(T.Tensor(graph.edge_attr.astype(dtype)), params[f"gat{layer}_edge_w"]),
            params[f"gat{layer}_edge_b"],
        )
        real_dst = np.arange(1, n)
        hp = T.add(h, T.segment_sum(inj, real_dst, n))
    else:
        hp = h

    srcs, dsts = _attention_edges(n)
    src_proj = T.matmul(hp, params[f"gat{layer}_w_src"])
    dst_proj = T.matmul(hp, params[f"gat{layer}_w_dst"])
    e_src = T.gather_rows(src_proj, srcs)
    e_dst = T.gather_rows(dst_proj, dsts)
    pre = T.leaky_relu(T.add(e_src, e_dst), c.leaky_slope)

    heads_out = []
    for head in range(c.heads):
        lo, hi = head * c.head_dim, (head + 1) * c.head_dim
        s = T.slice_cols(pre, lo, hi)
        logits = T.reshape(T.matmul(s, params[f"gat{layer}_attn{head}"]), (len(srcs),))
        alpha = T.segment_softmax(logits, dsts)
        if train and c.attn_dropout:
            alpha = T.dropout(alpha, c.dropout, rng, train=True)
        msg = T.scale_rows(T.slice_cols(e_src, lo, hi), alpha)
        heads_out.append(T.segment_sum(msg, dsts, n))
    agg = T.concat_cols(heads_out) if len(heads_out) > 1 else heads_out[0]
    agg = T.elu(T.add_bias(agg, params[f"gat{layer}_b"]))
    if train and c.out_dropout:
        agg = T.dropout(agg, c.dropout, rng, train=True)
    return T.add(agg, h)


def set2set_readout(node_reps, params):
    """Iterative attention pooling driven by an LSTM query; output [q || r]."""
    c = params.config
    n = node_reps.shape[0]
    dtype = node_reps.dtype
    q = T.Tensor(np.zeros((1, c.hidden), dtype=dtype))
    cell = T.Tensor(np.zeros((1, c.hidden), dtype=dtype))
    q_star = T.Tensor(np.zeros((1, 2 * c.hidden), dtype=dtype))
    seg = np.zeros(n, dtype=np.int64)
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
        scores = T.reshape(T.matmul(node_reps, T.transpose(q)), (n,))
        alpha = T.segment_softmax(scores, seg)
        r = T.matmul(T.reshape(alpha, (1, n)), node_reps)
        q_star = T.concat_cols([q, r])
    return q_star


def mean_readout(node_reps):
    n = node_reps.shape[0]
    ones = T.Tensor(np.full((1, n), 1.0 / n, dtype=node_reps.dtype))
    return T.matmul(ones, node_reps)


def forward(graph, persona, params, train=False, rng=None, persona_mode=True):
    """Full pipeline from a SessionGraph to a depression logit.

    persona_mode=False swaps the persona row for a zero vector of the same
    width so head shapes match across modes.
    """
    c = params.config
    if persona_mode and not (0 <= persona < c.persona_count):
        raise DataError(f"persona {persona} out of range [0, {c.persona_count})")
    h = project_inputs(graph, params)
    for layer in range(c.num_layers):
        h = gat_layer(h, graph, params, layer, train=train, rng=rng)
    node_reps = h
    if c.readout == "set2set":
        session_rep = set2set_readout(node_reps, params)
    else:
        session_rep = mean_readout(node_reps)
    if persona_mode:
        z = T.gather_rows(params["persona_table"], [persona])
    else:
        z = T.Tensor(np.zeros((1, c.persona_dim), dtype=session_rep.dtype))
    cond = T.concat_cols([session_rep, z])
    hidden = T.elu(T.add_bias(T.matmul(cond, params["head_w1"]), params["head_b1"]))
    if train and c.out_dropout:
        hidden = T.dropout(hidden, c.dropout, rng, train=True)
    logit = T.reshape(T.add_bias(T.matmul(hidden, params["head_w2"]), params["head_b2"]), ())
    prob = float(T.stable_sigmoid(np.float64(logit.data)))
    return ForwardOutput(
        logit=logit,
        prob=prob,
        node_reps=node_reps,
        session_rep=session_rep,
        conditioned_rep=cond,
    )
