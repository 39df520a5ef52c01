"""Minimal reverse-mode autodiff on numpy arrays.

Training runs in float32; gradient verification runs in float64 because
central differences are unreliable at single precision. Broadcasting is
deliberately restricted to exact-shape and scalar operands; the few
row/column broadcasts the model needs have dedicated ops (add_bias,
scale_rows) so silent shape bugs cannot slip through.

The ops an eval forward uses also take leading batch dimensions, "the
lead", which is how an ensemble runs as one forward over parameters
stacked along a member axis (stack_params): matmul, add_bias, layer_norm,
segment_sum, chain_attention, gather_rows, concat_cols, slice_cols,
reshape and transpose work on the last one or two axes. An operand
without the lead is shared: it broadcasts over the lead, and its gradient
sums over it.

Only what a gradient is read from is tracked: a leaf made with
requires_grad=False is a constant, an op's output needs a gradient iff
one of its inputs does, and inside no_grad() no op records its inputs.
Backward never visits a tensor that needs no gradient, and ops skip the
gradient math of inputs that need none.
"""

from __future__ import annotations

import contextlib
import copy

import numpy as np

from .errors import NumericalError, ShapeError, UsageError

LAYER_NORM_EPS = 1e-5

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Run ops without recording their inputs or backward closures, so an
    eval-mode forward frees each intermediate once nothing else holds it."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    __slots__ = ("data", "grad", "parents", "_backward", "name", "requires_grad")

    def __init__(self, data, parents=(), backward=None, name=None, dtype=None,
                 requires_grad=True):
        """A leaf (no parents) needs a gradient unless requires_grad=False.
        A tensor made from parents needs one iff a parent does, and keeps
        its parents and backward closure only then and outside no_grad."""
        if dtype is not None:
            data = np.asarray(data, dtype=dtype)
        else:
            data = np.asarray(data)
            if data.dtype not in (np.float32, np.float64):
                data = data.astype(np.float32)
        self.data = data
        self.grad = None
        if parents:
            requires_grad = False
            if _grad_enabled:
                # a plain loop: any() over a generator made an add ~30% slower
                for p in parents:
                    if p.requires_grad:
                        requires_grad = True
                        break
            if not requires_grad:
                parents, backward = (), None
        self.parents = parents
        self._backward = backward
        self.name = name
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def accumulate(self, g):
        """Add g to the gradient. A first gradient of matching shape is
        stored as a copy in this tensor's dtype: ops may hand the same
        array to several inputs, and clipping scales gradients in place."""
        if self.grad is None:
            if g.shape == self.data.shape:
                self.grad = np.array(g, dtype=self.data.dtype)
                return
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, name={self.name})"


def xavier(rng, fan_in, fan_out, dtype, shape=None):
    """Glorot-uniform draw; shape defaults to (fan_in, fan_out)."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out)).astype(dtype)


class Params:
    """Named leaf tensors in a fixed creation order (the checkpoint order).
    Subclasses fill self.tensors; stack_params sets stacked."""

    stacked = None

    def __getitem__(self, name):
        return self.tensors[name]

    def named(self):
        return self.tensors.items()

    def zero_grad(self):
        for t in self.tensors.values():
            t.zero_grad()

    def snapshot(self, into=None):
        """name -> a copy of each tensor's data; given an earlier snapshot
        into, the data is copied into its arrays instead, allocating nothing."""
        if into is None:
            return {name: t.data.copy() for name, t in self.named()}
        for name, t in self.named():
            into[name][...] = t.data
        return into

    def load_snapshot(self, snap):
        """In place, so a stack the tensors are slices of holds it too."""
        for name, t in self.named():
            t.data[...] = snap[name].reshape(t.data.shape)


def stack_params(members):
    """A clone of members[0] whose tensors hold all members' same-named
    tensors along a new leading axis, for one forward over every member.

    Each member tensor is re-pointed at its slice k of the stack, and the
    member is tagged stacked = (stack, k), so members and stack share one
    copy of the weights: an in-place update of either shows in both. While
    the members are, in order, every slice of one stack, a call returns
    that stack; a rebound member tensor, or another order, subset or
    repeat of the members, stacks afresh. Members must have equal tensor
    names, shapes and dtypes.
    """
    kept = members[0].stacked and members[0].stacked[0]
    tags = [(kept, k) for k in range(len(members))]
    if kept and [p.stacked for p in members] == tags and all(
            len(t.data) == len(members) and all(p[name].data.base is t.data for p in members)
            for name, t in kept.named()):
        return kept
    clone = copy.copy(members[0])
    clone.stacked, clone.tensors = None, {}
    for name, t in members[0].named():
        stack = np.empty((len(members),) + t.data.shape, dtype=t.data.dtype)
        for k, p in enumerate(members):
            stack[k] = p[name].data
            p[name].data = stack[k]
        clone.tensors[name] = Tensor(stack, name=name)
    for k, p in enumerate(members):
        p.stacked = (clone, k)
    return clone


def _check_elementwise(a, b, opname):
    if a.shape == b.shape or a.data.ndim == 0 or b.data.ndim == 0:
        return
    raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} are neither equal nor scalar")


def _reduce_to(g, shape):
    # undo scalar broadcast
    if g.shape == shape:
        return g
    return np.asarray(g.sum(), dtype=g.dtype).reshape(shape)


def _lead(opname, *operands):
    """The common lead of (tensor, trailing ndim) operands: each operand's
    dimensions before its trailing ones are either absent (shared) or that
    lead."""
    lead = ()
    for t, k in operands:
        own = t.shape[:t.data.ndim - k]
        if own and own != lead:
            if lead:
                raise ShapeError(f"{opname}: leading dimensions {lead} and {own} "
                                 "neither equal nor absent")
            lead = own
    return lead


def _unshare(g, shape):
    """g, summed over the lead that an operand of the given shape lacks."""
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra))) if extra else g


def add(a, b):
    _check_elementwise(a, b, "add")

    def backward(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_reduce_to(g, b.data.shape))

    return Tensor(a.data + b.data, (a, b), backward)


def sub(a, b):
    _check_elementwise(a, b, "sub")

    def backward(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_reduce_to(-g, b.data.shape))

    return Tensor(a.data - b.data, (a, b), backward)


def mul(a, b):
    _check_elementwise(a, b, "mul")

    def backward(g):
        if a.requires_grad:
            a.accumulate(_reduce_to(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_reduce_to(g * a.data, b.data.shape))

    return Tensor(a.data * b.data, (a, b), backward)


def matmul(a, b):
    """(..., n, k) @ (..., k, m) with np.matmul semantics; a 2-d operand is
    shared by every matrix of the other's lead. np.matmul multiplies each
    pair of matrices as the 2-d product does, so a stacked product equals
    its 2-d slices bit for bit."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    _lead("matmul", (a, 2), (b, 2))

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unshare(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            b.accumulate(_unshare(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return Tensor(a.data @ b.data, (a, b), backward)


def add_bias(x, b):
    """x: (..., n, d) plus b: (..., d) on every row."""
    if x.data.ndim < 2 or b.data.ndim < 1 or x.shape[-1] != b.shape[-1]:
        raise ShapeError(f"add_bias: shapes {x.shape} and {b.shape}")
    _lead("add_bias", (x, 2), (b, 1))

    def backward(g):
        if x.requires_grad:
            x.accumulate(_unshare(g, x.data.shape))
        if b.requires_grad:
            b.accumulate(_unshare(g.sum(axis=-2), b.data.shape))

    return Tensor(x.data + b.data[..., None, :], (x, b), backward)


def scale_rows(x, s):
    """x: (n, d) scaled row-wise by s: (n,)."""
    if x.data.ndim != 2 or s.data.ndim != 1 or x.shape[0] != s.shape[0]:
        raise ShapeError(f"scale_rows: shapes {x.shape} and {s.shape}")

    def backward(g):
        if x.requires_grad:
            x.accumulate(g * s.data[:, None])
        if s.requires_grad:
            s.accumulate((g * x.data).sum(axis=1))

    return Tensor(x.data * s.data[:, None], (x, s), backward)


def _leaky(z, slope):
    """LeakyReLU of an array for 0 <= slope <= 1: the larger of z and
    slope * z, the same values as np.where at a fraction of its cost."""
    return np.maximum(z, slope * z)


def leaky_relu(x, slope=0.2):
    def backward(g):
        x.accumulate(g * np.where(x.data > 0, 1.0, slope).astype(x.dtype))

    return Tensor(_leaky(x.data, slope), (x,), backward)


def elu(x):
    """ELU with alpha 1, without np.where: for x > 0 the negative part
    exp(0) - 1 is exactly +0.0 (never -0.0), so neg + max(x, 0) is x there
    and neg elsewhere, and neg + 1 is the slope on both sides."""
    neg = np.exp(np.minimum(x.data, 0.0)) - 1.0

    def backward(g):
        x.accumulate(g * (neg + 1.0))

    return Tensor(neg + np.maximum(x.data, 0.0), (x,), backward)


def _sigmoid_halves(a):
    """e = exp(-|a|) and the sigmoids of |a| and -|a|: 1 / (1 + e) and e / (1 + e)."""
    e = np.exp(-np.abs(a))
    e1 = 1.0 + e
    return e, 1.0 / e1, e / e1


def stable_sigmoid(a):
    """Elementwise 1 / (1 + e^-a) on a numpy array, overflow-free for any sign."""
    _, big, small = _sigmoid_halves(a)
    return np.where(a >= 0, big, small)


def sigmoid(x):
    y = stable_sigmoid(x.data)

    def backward(g):
        x.accumulate(g * y * (1.0 - y))

    return Tensor(y, (x,), backward)


def tanh(x):
    y = np.tanh(x.data)

    def backward(g):
        x.accumulate(g * (1.0 - y * y))

    return Tensor(y, (x,), backward)


def softplus(x):
    # log(1 + e^x), overflow-safe
    y = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))

    def backward(g):
        x.accumulate(g * stable_sigmoid(x.data))

    return Tensor(y, (x,), backward)


def focal_parts(z, gamma):
    """The focal loss (1 - sigmoid(z))^gamma * softplus(-z) of an array z of
    signed logits, elementwise, and a function that maps an upstream
    gradient g to the gradient in z. At gamma 0 it is the logistic loss
    softplus(-z).

    exp(-|z|) is computed once, and both sigmoids and softplus(-z) come
    from it. Every value is otherwise the float operations, in the same
    order, of composing mul(z, -1), softplus, sigmoid, sub from 1,
    pow_const and mul (at gamma 0, mul and softplus), so results are
    bit-identical to that chain. One exception: where sigmoid(z) rounds to
    1 and gamma < 1, the chain's factor (1 - sigmoid(z))^(gamma - 1) is
    1 / 0 and its gradient NaN; here that factor is 0, its limit once
    multiplied by 1 - sigmoid(z), and the gradient is zero.
    """
    minus = np.asarray(-1.0, dtype=z.dtype)
    t = z * minus
    e, big, small = _sigmoid_halves(z)  # |t| is |z|
    nll = np.maximum(t, 0.0) + np.log1p(e)
    if gamma == 0.0:
        return nll, lambda g: g * np.where(t >= 0, big, small) * minus
    s = np.where(z >= 0, big, small)
    # an array even when z is 0-d, so ** takes ndarray's power path as
    # pow_const's does
    q = np.asarray(np.asarray(1.0, dtype=z.dtype) - s)
    w = q**gamma

    def grad(g):
        if gamma < 1.0:
            with np.errstate(divide="ignore"):
                dw = np.where(q == 0.0, 0.0, q ** (gamma - 1))
        else:
            dw = q ** (gamma - 1)
        g_q = g * nll * gamma * dw
        return -g_q * s * q + g * w * np.where(t >= 0, big, small) * minus

    return w * nll, grad


def focal(z, gamma):
    """focal_parts as one op: elementwise (1 - sigmoid(z))^gamma * softplus(-z)."""
    terms, grad = focal_parts(z.data, gamma)
    return Tensor(terms, (z,), lambda g: z.accumulate(grad(g)))


def log(x):
    def backward(g):
        x.accumulate(g / x.data)

    return Tensor(np.log(x.data), (x,), backward)


def exp(x):
    y = np.exp(x.data)

    def backward(g):
        x.accumulate(g * y)

    return Tensor(y, (x,), backward)


def pow_const(x, p):
    def backward(g):
        x.accumulate(g * p * x.data ** (p - 1))

    return Tensor(x.data**p, (x,), backward)


def dropout(x, p, uniform):
    """Inverted dropout: keep where uniform, an array of U[0, 1) draws of
    x's shape, is >= p, and scale by 1 / (1 - p)."""
    if not (0.0 <= p < 1.0):
        raise UsageError(f"dropout probability {p} outside [0, 1)")
    if uniform.shape != x.shape:
        raise ShapeError(f"dropout draws of shape {uniform.shape} for input {x.shape}")
    keep = (uniform >= p).astype(x.dtype)
    scale = np.asarray(1.0 / (1.0 - p), dtype=x.dtype)

    def backward(g):
        x.accumulate(g * keep * scale)

    return Tensor(x.data * keep * scale, (x,), backward)


def layer_norm(x, gamma, beta, eps=LAYER_NORM_EPS):
    """Per-row normalization of (..., n, d), then affine with gamma/beta of
    shape (..., d). A shared x is normalized once for every affine."""
    if x.data.ndim < 2:
        raise ShapeError(f"layer_norm expects a matrix, got {x.shape}")
    d = x.shape[-1]
    if gamma.shape[-1:] != (d,) or beta.shape != gamma.shape:
        raise ShapeError(f"layer_norm affine shapes {gamma.shape}/{beta.shape} vs d={d}")
    _lead("layer_norm", (x, 2), (gamma, 1))
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    g_rows = gamma.data[..., None, :]

    def backward(g):
        if gamma.requires_grad:
            gamma.accumulate(_unshare((g * xhat).sum(axis=-2), gamma.data.shape))
        if beta.requires_grad:
            beta.accumulate(_unshare(g.sum(axis=-2), beta.data.shape))
        if x.requires_grad:
            gx = g * g_rows
            # d/dx of (x - mu) * inv with mu, inv both functions of the row
            gx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                        - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
            x.accumulate(_unshare(gx, x.data.shape))

    return Tensor(xhat * g_rows + beta.data[..., None, :], (x, gamma, beta), backward)


def segment_softmax(logits, segment_ids):
    """Softmax over groups of a 1-d logits vector.

    segment_ids maps each entry to its group; entries of a group need not
    be contiguous. Max-subtraction per group keeps the exp stable.
    """
    if logits.data.ndim != 1:
        raise ShapeError(f"segment_softmax expects a vector, got {logits.shape}")
    seg = np.asarray(segment_ids, dtype=np.int64)
    n = logits.shape[0]
    if seg.shape != (n,):
        raise ShapeError(f"segment ids length {seg.shape} vs logits {logits.shape}")
    if n == 0:
        return Tensor(np.zeros(0, dtype=logits.dtype), (logits,), lambda g: None)
    nseg = int(seg.max()) + 1
    mx = np.full(nseg, -np.inf, dtype=logits.dtype)
    np.maximum.at(mx, seg, logits.data)
    e = np.exp(logits.data - mx[seg])
    denom = np.zeros(nseg, dtype=logits.dtype)
    np.add.at(denom, seg, e)
    y = e / denom[seg]

    def backward(g):
        dot = np.zeros(nseg, dtype=logits.dtype)
        np.add.at(dot, seg, g * y)
        logits.accumulate(y * (g - dot[seg]))

    return Tensor(y, (logits,), backward)


def segment_sum(x, segment_ids, num_segments):
    """Sum rows of (..., n, d) into (..., num_segments, d) buckets.

    segment_ids must be non-decreasing, which lets one np.add.reduceat over
    the runs of equal ids do the sum; strictly increasing ids have one row
    per bucket and are copied in. Ids that do not occur leave their bucket
    zero.
    """
    if x.data.ndim < 2:
        raise ShapeError(f"segment_sum expects a matrix, got {x.shape}")
    seg = np.asarray(segment_ids, dtype=np.int64)
    if seg.shape != (x.shape[-2],):
        raise ShapeError(f"segment ids length {seg.shape} vs rows {x.shape}")
    y = np.zeros(x.shape[:-2] + (num_segments, x.shape[-1]), dtype=x.dtype)
    if seg.size:
        step = np.diff(seg)
        if np.any(step < 0):
            raise ShapeError("segment_sum needs non-decreasing segment ids")
        if seg[0] < 0 or seg[-1] >= num_segments:
            raise ShapeError(f"segment ids [{seg[0]}, {seg[-1]}] outside {num_segments} segments")
        if step.all():
            y[..., seg, :] = x.data
        else:
            starts = np.concatenate(([0], np.flatnonzero(step) + 1))
            y[..., seg[starts], :] = np.add.reduceat(x.data, starts, axis=-2)

    def backward(g):
        x.accumulate(g[..., seg, :])

    return Tensor(y, (x,), backward)


def chain_attention(src_proj, dst_proj, attn, edge_dst, slope, keep=None):
    """GATv2 attention on chains: every node attends to itself and, if it
    has one, to its predecessor i - 1.

    src_proj and dst_proj are (..., N, H * D); attn is (..., H, D), one
    score vector per head, with the projections' lead; edge_dst lists,
    strictly increasing, the nodes that have a predecessor. Head h scores
    edge j -> i as leaky_relu(src[j] + dst[i]) . attn[h] over its D
    columns and softmaxes each node's (at most two) scores in
    segment_softmax's order: max, exp, then self + predecessor. The output
    holds alpha_self * src[i] + alpha_pred * src[i - 1] for each head, heads
    side by side. That is segment_softmax and segment_sum over the explicit
    self-plus-chain edge list, computed on dense and shifted arrays with no
    gather or scatter.

    keep, for attention dropout, is a pair of (N, H) multipliers for the
    self and predecessor weights, each 0 or the inverted-dropout scale; a
    0/1 mask times the scale is exact, so alpha * keep rounds as dropout's
    (alpha * mask) * scale does. Predecessor entries of nodes without one
    do not matter.
    """
    src, dst = src_proj.data, dst_proj.data
    lead = src.shape[:-2]
    if (src.ndim < 2 or dst.shape != src.shape or attn.data.ndim != src.ndim
            or attn.shape[:-2] != lead or attn.shape[-2] * attn.shape[-1] != src.shape[-1]):
        raise ShapeError(f"chain_attention: attention vectors {attn.shape} for projections "
                         f"{src_proj.shape}/{dst_proj.shape}")
    n, width = src.shape[-2:]
    heads, d = attn.shape[-2:]
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    if edge_dst.ndim != 1 or (edge_dst.size and (
            edge_dst[0] < 1 or edge_dst[-1] >= n or np.any(np.diff(edge_dst) <= 0))):
        raise ShapeError(f"chain_attention: edge destinations must rise strictly within [1, {n})")
    if keep is not None and any(k.shape != (n, heads) for k in keep):
        raise ShapeError(f"chain_attention: keep multipliers {[k.shape for k in keep]}, "
                         f"expected {(n, heads)}")

    # block-diagonal (..., H * D, H): one matmul scores every head
    rows = np.arange(width)
    diag = (..., rows, rows // d)
    blocks = np.zeros(lead + (width, heads), dtype=src.dtype)
    blocks[diag] = attn.data.reshape(lead + (width,))
    # row i of the self arrays is edge i -> i; row i - 1 of the predecessor
    # arrays is edge i - 1 -> i
    z_self = src + dst
    z_pred = src[..., :-1, :] + dst[..., 1:, :]
    pre_self, pre_pred = _leaky(z_self, slope), _leaky(z_pred, slope)
    s_self = pre_self @ blocks
    s_pred = np.full(lead + (n, heads), -np.inf, dtype=src.dtype)
    s_pred[..., edge_dst, :] = (pre_pred @ blocks)[..., edge_dst - 1, :]
    mx = np.maximum(s_self, s_pred)
    e_self = np.exp(s_self - mx)
    e_pred = np.exp(s_pred - mx)  # exactly 0 where there is no predecessor
    denom = e_self + e_pred
    a_self, a_pred = e_self / denom, e_pred / denom
    w_self, w_pred = (a_self, a_pred) if keep is None else (a_self * keep[0], a_pred * keep[1])

    src3 = src.reshape(lead + (n, heads, d))
    out = (src3 * w_self[..., None]).reshape(lead + (n, width))
    out[..., 1:, :] += (src3[..., :-1, :, :] * w_pred[..., 1:, :, None]).reshape(
        lead + (n - 1, width))

    def backward(g):
        g3 = g.reshape(lead + (n, heads, d))
        gw_self = (g3 * src3).sum(axis=-1)
        gw_pred = np.zeros_like(gw_self)
        gw_pred[..., 1:, :] = (g3[..., 1:, :, :] * src3[..., :-1, :, :]).sum(axis=-1)
        if keep is not None:
            gw_self, gw_pred = gw_self * keep[0], gw_pred * keep[1]
        # two-way softmax backward; a_pred = 0 zeroes nodes without a predecessor
        dot = gw_self * a_self + gw_pred * a_pred
        gs_self = a_self * (gw_self - dot)
        gs_pred = (a_pred * (gw_pred - dot))[..., 1:, :]
        if attn.requires_grad:
            g_blocks = (np.swapaxes(pre_self, -1, -2) @ gs_self
                        + np.swapaxes(pre_pred, -1, -2) @ gs_pred)
            attn.accumulate(g_blocks[diag].reshape(attn.shape))
        blocks_t = np.swapaxes(blocks, -1, -2)
        gz_self = (gs_self @ blocks_t) * np.where(z_self > 0, 1.0, slope).astype(src.dtype)
        gz_pred = (gs_pred @ blocks_t) * np.where(z_pred > 0, 1.0, slope).astype(src.dtype)
        if src_proj.requires_grad:
            g_src = (g3 * w_self[..., None]).reshape(lead + (n, width)) + gz_self
            g_src[..., :-1, :] += (g3[..., 1:, :, :] * w_pred[..., 1:, :, None]).reshape(
                lead + (n - 1, width)) + gz_pred
            src_proj.accumulate(g_src)
        if dst_proj.requires_grad:
            gz_self[..., 1:, :] += gz_pred
            dst_proj.accumulate(gz_self)

    return Tensor(out, (src_proj, dst_proj, attn), backward)


def gather_rows(x, indices):
    """Rows indices of (..., n, d): (..., len(indices), d)."""
    if x.data.ndim < 2:
        raise ShapeError(f"gather_rows expects a matrix, got {x.shape}")
    idx = np.asarray(indices, dtype=np.int64)

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (..., idx, slice(None)), g)
        x.accumulate(gx)

    return Tensor(x.data[..., idx, :], (x,), backward)


def concat_cols(tensors):
    """Join (..., n, d_k) tensors of one lead along the last axis."""
    rows = tensors[0].shape[:-1]
    for t in tensors:
        if t.data.ndim < 2 or t.shape[:-1] != rows:
            raise ShapeError(f"concat_cols: row mismatch {[t.shape for t in tensors]}")
    offsets = np.cumsum([0] + [t.shape[-1] for t in tensors])

    def backward(g):
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t.accumulate(g[..., a:b])

    return Tensor(np.concatenate([t.data for t in tensors], axis=-1), tuple(tensors), backward)


def concat_rows(tensors):
    d = tensors[0].shape[1]
    for t in tensors:
        if t.data.ndim != 2 or t.shape[1] != d:
            raise ShapeError(f"concat_rows: col mismatch {[t.shape for t in tensors]}")
    offsets = np.cumsum([0] + [t.shape[0] for t in tensors])

    def backward(g):
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t.accumulate(g[a:b])

    return Tensor(np.concatenate([t.data for t in tensors], axis=0), tuple(tensors), backward)


def slice_cols(x, start, stop):
    """Columns start:stop of the last axis."""
    def backward(g):
        gx = np.zeros_like(x.data)
        gx[..., start:stop] = g
        x.accumulate(gx)

    return Tensor(x.data[..., start:stop], (x,), backward)


def reshape(x, shape):
    def backward(g):
        x.accumulate(g.reshape(x.data.shape))

    return Tensor(x.data.reshape(shape), (x,), backward)


def transpose(x):
    """Swap the last two axes."""
    def backward(g):
        x.accumulate(np.swapaxes(g, -1, -2))

    return Tensor(np.swapaxes(x.data, -1, -2), (x,), backward)


def tsum(x):
    def backward(g):
        x.accumulate(np.full_like(x.data, g))

    return Tensor(np.asarray(x.data.sum(), dtype=x.dtype), (x,), backward)


def tmean(x):
    n = x.data.size

    def backward(g):
        x.accumulate(np.full_like(x.data, g / n))

    return Tensor(np.asarray(x.data.mean(), dtype=x.dtype), (x,), backward)


def l2_normalize_rows(x, eps=1e-12):
    """Row-wise x / ||x||; rows with near-zero norm pass through scaled by 1/eps-guarded norm."""
    if x.data.ndim != 2:
        raise ShapeError(f"l2_normalize_rows expects a matrix, got {x.shape}")
    norm = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True) + eps)
    y = x.data / norm

    def backward(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        x.accumulate((g - y * dot) / norm)

    return Tensor(y, (x,), backward)


def _freed(g):
    raise UsageError("backward through a graph that an earlier backward freed; "
                     "run the forward again")


def backward(loss):
    """Reverse accumulation from a scalar loss; leaf grads add until zeroed.

    Only tensors that need a gradient are visited. The graph is freed as
    it is consumed: once a non-leaf's closure has run, the node drops its
    grad, parents and closure, so its saved arrays and its inputs' go as
    soon as nothing else holds them. A second backward through a freed
    node, from the same loss or from another that shares it, raises
    UsageError.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise UsageError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise UsageError("backward from a tensor that needs no gradient "
                         "(a constant, or computed under no_grad)")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    loss.accumulate(np.ones_like(loss.data))
    while topo:
        node = topo.pop()
        if node._backward is not None:  # a leaf has none and keeps its grad
            node._backward(node.grad)
            node.grad, node._backward, node.parents = None, _freed, ()


def grad_check(f, params, eps=1e-4, max_coords=None, rng=None):
    """Max relative error between analytic and central-difference gradients.

    f is a zero-argument callable returning a scalar Tensor and must be
    deterministic. params is a list of leaf Tensors (use float64 data).
    """
    for p in params:
        p.zero_grad()
    loss = f()
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    with no_grad():
        for p, an in zip(params, analytic):
            flat = p.data.reshape(-1)
            coords = range(flat.size)
            if max_coords is not None and flat.size > max_coords:
                r = rng if rng is not None else np.random.default_rng(0)
                coords = r.choice(flat.size, size=max_coords, replace=False)
            for i in coords:
                orig = flat[i]
                flat[i] = orig + eps
                hi = f().item()
                flat[i] = orig - eps
                lo = f().item()
                flat[i] = orig
                if not (np.isfinite(hi) and np.isfinite(lo)):
                    raise NumericalError(f"non-finite loss at coordinate {i} of {p.name or p.shape}")
                fd = (hi - lo) / (2 * eps)
                a = an.reshape(-1)[i]
                err = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
                worst = max(worst, err)
    return worst
