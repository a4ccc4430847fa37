"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray and remembers the parents and local adjoint rule
of the operation that produced it. backward() lists the graph below a
scalar root in topological order (every operation's inputs precede it),
then sweeps that list once in reverse, accumulating adjoints into every
requires_grad leaf: into its `grad_buffer` if it has one (a ModelParams
parameter's view of `ModelParams.grad`), else into a new array.

The primitive set is what the attention network and loss compose: add,
mul and div (also as the operators +, -, *, / and unary -, with the tensor
on the left), matmul, concat/narrow/gather, relu, sqrt, where and sum/mean
reductions, plus two fused ones with hand-derived adjoints: `gatv2`, a
whole GATv2 attention aggregation, and `layer_norm`, the affine layer norm.
Each fused primitive keeps the tape order of the composition it replaces,
so adjoints reach nodes with several consumers in the same order, while the
tape holds one node instead of 17 or 3. `layer_norm` repeats its
composition's operations and is bit-identical to it; `gatv2` sums each
head's columns as BLAS products and agrees with its composition to about
1e-15 (with one-column heads, bit for bit but for the adjoint of `a`).
`segment_sum` and `segment_softmax` belong to the composition `gatv2`
replaces and are kept as primitives for it. All forward values are float64.
The kernels are written for the N x d per-observation arrays, with d as
small as 16, on which numpy's per-row machinery is slow: a reduction over
the short axis is a product with a ones vector (or with a 0/1 head-block
matrix), a mask is a branch-free product instead of np.where, and a segment
maximum is np.maximum.reduceat over sorted rows instead of np.maximum.at.
The right operand of add, mul and div may be a number or an array: it
becomes a constant Tensor and takes the Tensor path, shape check included
(a mismatch raises ShapeError). So `div` divides by a number; it does not
multiply by its reciprocal.
Identical inputs give bit-identical outputs only within one numpy build,
BLAS kernel and BLAS thread count: matrix products round differently
under another kernel or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested primitive."""


class SegmentIndexError(ValueError):
    """A segment-index vector is out of range or leaves a segment empty."""


class NumericError(ArithmeticError):
    """A NaN or Inf appeared where a finite value is required."""

    def __init__(self, message: str, context: str | None = None):
        super().__init__(message if context is None else f"{message} [{context}]")
        self.context = context


def _as_array(values) -> np.ndarray:
    if type(values) is np.ndarray and values.dtype == np.float64:
        return values
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64))


class Tensor:
    """A float64 array with an optional adjoint buffer.

    Leaves are created directly (requires_grad marks trainable parameters);
    interior nodes are created by the primitives below and carry a `_vjp`
    closure that pushes the output adjoint to the parents' .grad buffers.
    Tensors without grad are immutable by convention and safe to share.
    """

    __slots__ = ("values", "requires_grad", "grad", "grad_buffer", "_parents", "_vjp",
                 "_needs", "_done")

    def __init__(self, values, requires_grad: bool = False, _parents=(), _vjp=None):
        self.values = _as_array(values)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.grad_buffer: np.ndarray | None = None
        self._parents = _parents
        self._vjp = _vjp
        self._needs = requires_grad or any(p._needs for p in _parents)
        self._done = False

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    def _first_grad(self) -> bool:
        """If .grad is None, make it grad_buffer (or a new array) to write."""
        if self.grad is not None:
            return False
        self.grad = np.empty(self.values.shape) if self.grad_buffer is None else self.grad_buffer
        return True

    def _add_grad(self, g: np.ndarray, owned: bool = False) -> None:
        """Accumulate an adjoint. `owned` marks a new array the caller holds
        no other reference to; it becomes .grad uncopied if there is no
        grad_buffer. Anything else is copied, so no two tensors share a
        buffer. Every vjp passes an adjoint of exactly this tensor's shape."""
        if owned and self.grad is None and self.grad_buffer is None:
            self.grad = g
        elif self._first_grad():
            np.copyto(self.grad, g)
        else:
            self.grad += g

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, -other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)


def _trace(root: Tensor) -> list[Tensor]:
    """The subgraph reaching `root` in topological order, by iterative
    postorder DFS: parents land before their consumers."""
    nodes: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            nodes.append(node)
            continue
        if id(node) in visited or not node._needs:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return nodes


def backward(root: Tensor, params=None) -> None:
    """Populate .grad = d(root)/d(leaf) for every requires_grad leaf.

    `root` must be scalar. Adjoints add into any existing .grad buffers;
    re-running backward through the same root is rejected. Leaves listed
    in `params` that the graph never reaches get zero grad buffers.
    """
    if root.values.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
    if root._done:
        raise RuntimeError("backward already ran through this root")
    root._done = True
    nodes = _trace(root)
    root._add_grad(np.ones_like(root.values), owned=True)
    for node in reversed(nodes):
        if node._vjp is not None and node.grad is not None:
            node._vjp(node.grad)
        if not node.requires_grad:
            node.grad = None   # interior adjoints are per-pass scratch
    if params is not None:
        for p in params:
            if p._first_grad():
                p.grad.fill(0.0)


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes that numpy broadcasting expanded. The
    result is g itself when nothing was expanded, else a new array. A 2-D
    gradient summed over its rows, or over its columns, is one BLAS product
    with a ones vector: numpy's reduction over a short axis is several
    times slower on the N x 16 per-observation arrays."""
    if g.shape == shape:
        return g
    if g.ndim == 2:
        rows, cols = g.shape
        if shape in ((cols,), (1, cols)):
            return (np.ones(rows) @ g).reshape(shape)
        if shape == (rows, 1):
            return (g @ np.ones(cols)).reshape(shape)
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def scatter_add(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[i] = sum of values[k] over k with index[k] == i, of shape
    (size,) + values.shape[1:] (a plain-array helper, not a primitive).

    Rows are summed in input order, starting from zero, so the result is
    bit-identical to np.add.at into zeros. Up to 2**15 values take one
    np.bincount over (row, column) cells; larger inputs take one per
    column, which keeps the index temporary at one entry per row. BA's
    point blocks (9 columns) and back-substitution (3 columns) over the
    ~15k observations of a 30x1000 scene take that path, as do the
    full-scale network's gather adjoints and attention sums.
    """
    width = math.prod(values.shape[1:])
    flat = values.reshape(len(values), width)
    if 0 < flat.size <= 2**15:     # (np.bincount of nothing is int64)
        cells = (index[:, None] * width + np.arange(width)).ravel()
        out = np.bincount(cells, weights=flat.ravel(), minlength=size * width)
    else:
        out = np.empty((size, width))
        for k, col in enumerate(flat.T):
            out[:, k] = np.bincount(index, weights=col, minlength=size)
    return out.reshape((size,) + values.shape[1:])


# -- primitives ----------------------------------------------------------

def _operand(b) -> Tensor:
    """A number or array operand as a constant Tensor, so that add, mul and
    div run one code path whatever the right operand is."""
    return b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=np.float64))


def add(a: Tensor, b) -> Tensor:
    b = _operand(b)
    try:
        values = a.values + b.values
    except ValueError as e:
        raise ShapeError(f"add: {a.shape} vs {b.shape}") from e
    out = Tensor(values, _parents=(a, b))

    def vjp(g):
        if a._needs:
            _add_passed(a, g)
        if b._needs:
            _add_passed(b, g)
    out._vjp = vjp
    return out


def _add_passed(t: Tensor, g: np.ndarray) -> None:
    """Push an output adjoint through unchanged, up to broadcasting."""
    r = _unbroadcast(g, t.values.shape)
    t._add_grad(r, owned=r is not g)


def mul(a: Tensor, b) -> Tensor:
    b = _operand(b)
    try:
        values = a.values * b.values
    except ValueError as e:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}") from e
    out = Tensor(values, _parents=(a, b))

    def vjp(g):
        if a._needs:
            a._add_grad(_unbroadcast(g * b.values, a.values.shape), owned=True)
        if b._needs:
            b._add_grad(_unbroadcast(g * a.values, b.values.shape), owned=True)
    out._vjp = vjp
    return out


def div(a: Tensor, b) -> Tensor:
    b = _operand(b)
    try:
        values = a.values / b.values
    except ValueError as e:
        raise ShapeError(f"div: {a.shape} vs {b.shape}") from e
    out = Tensor(values, _parents=(a, b))

    def vjp(g):
        if a._needs:
            a._add_grad(_unbroadcast(g / b.values, a.values.shape), owned=True)
        if b._needs:
            b._add_grad(_unbroadcast(-g * a.values / (b.values * b.values), b.values.shape),
                        owned=True)
    out._vjp = vjp
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    out = Tensor(a.values @ b.values, _parents=(a, b))

    def vjp(g):
        if a._needs:
            a._add_grad(g @ b.values.T, owned=True)
        if b._needs:
            first = b._first_grad()
            _add_product(b.grad, a.values.T, g, first)
    out._vjp = vjp
    return out


def _add_product(out: np.ndarray, x: np.ndarray, y: np.ndarray, first: bool) -> None:
    """out = x @ y in place if `first`, else out += x @ y."""
    if first:
        np.matmul(x, y, out=out)
    else:
        out += x @ y


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of nothing")
    values = np.concatenate([t.values for t in tensors], axis=axis)
    out = Tensor(values, _parents=tuple(tensors))
    sizes = [t.values.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t._needs:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._add_grad(g[tuple(idx)])
    out._vjp = vjp
    return out


def narrow(t: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    if start < 0 or start + length > t.values.shape[axis]:
        raise ShapeError(f"narrow: [{start}:{start + length}] outside axis of "
                         f"size {t.values.shape[axis]}")
    idx = [slice(None)] * t.values.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(t.values[idx], _parents=(t,))

    def vjp(g):
        if t._first_grad():
            t.grad.fill(0.0)
        t.grad[idx] += g
    out._vjp = vjp
    return out


def gather(t: Tensor, index: np.ndarray) -> Tensor:
    """Select rows by an index array; backward scatter-adds."""
    index = np.asarray(index, dtype=np.int64)
    if index.size and (index.min() < 0 or index.max() >= t.values.shape[0]):
        raise SegmentIndexError("gather index out of range")
    out = Tensor(t.values[index], _parents=(t,))

    n_rows = t.values.shape[0]
    out._vjp = lambda g: t._add_grad(scatter_add(index, g, n_rows), owned=True)
    return out


def _segments(index, rows: int, num_segments: int, nonempty: bool = False) -> np.ndarray:
    """index as int64, checked to hold one segment in [0, num_segments)
    per row; with nonempty, also that every segment occurs."""
    index = np.asarray(index, dtype=np.int64)
    if index.shape != (rows,):
        raise SegmentIndexError("segment index must have one entry per row")
    if index.size and (index.min() < 0 or index.max() >= num_segments):
        raise SegmentIndexError("segment index out of range")
    if nonempty and (num_segments < 1 or np.bincount(index, minlength=num_segments).min() == 0):
        raise SegmentIndexError("segment softmax over an empty segment")
    return index


def segment_max(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[i] = max of values[k] over k with index[k] == i, of shape
    (size,) + values.shape[1:], and -inf where no k has index[k] == i (a
    plain-array helper, not a primitive).

    The rows are stably sorted by segment, unless `index` is sorted
    already, and each non-empty segment is reduced with one
    np.maximum.reduceat: several times faster than np.maximum.at, and
    exact, since a maximum does not round.
    """
    counts = np.bincount(index, minlength=size)
    if not (index[1:] >= index[:-1]).all():
        values = values[np.argsort(index, kind="stable")]
    starts = np.cumsum(counts) - counts
    if counts.all():
        return np.maximum.reduceat(values, starts, axis=0)
    out = np.full((size,) + values.shape[1:], -np.inf)
    nonempty = counts > 0
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(values, starts[nonempty], axis=0)
    return out


def _softmax(x: np.ndarray, index: np.ndarray, num_segments: int) -> np.ndarray:
    """Softmax of the rows of x within each segment, per trailing column."""
    ex = np.exp(x - segment_max(index, x, num_segments)[index])
    return ex / scatter_add(index, ex, num_segments)[index]


def _softmax_vjp(g: np.ndarray, alpha: np.ndarray, index: np.ndarray,
                 num_segments: int) -> np.ndarray:
    inner = scatter_add(index, g * alpha, num_segments)
    return alpha * (g - inner[index])


def segment_sum(t: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Scatter-add rows of t into num_segments output rows (out[k] = sum
    over rows e with index[e] == k)."""
    index = _segments(index, t.values.shape[0], num_segments)
    out = Tensor(scatter_add(index, t.values, num_segments), _parents=(t,))
    out._vjp = lambda g: t._add_grad(g[index], owned=True)
    return out


def segment_softmax(t: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Softmax across rows sharing a segment index, per trailing column.

    Every segment must be non-empty (an attention target with no incoming
    edge has no distribution).
    """
    index = _segments(index, t.values.shape[0], num_segments, nonempty=True)
    alpha = _softmax(t.values, index, num_segments)
    out = Tensor(alpha, _parents=(t,))
    out._vjp = lambda g: t._add_grad(_softmax_vjp(g, alpha, index, num_segments), owned=True)
    return out


def gatv2(src: Tensor, tgt: Tensor, w: Tensor, a: Tensor, edge_tgt: np.ndarray,
          n_tgt: int, heads: int, slope: float) -> tuple[Tensor, np.ndarray]:
    """GATv2 attention aggregation over a directed bipartite edge set, as
    one primitive (Brody et al., ICLR 2022).

    Row e of `src` (E, d) is the source of edge e, which points into row
    `edge_tgt[e]` of `tgt` (n_tgt, d). `w` (2d, da) stacks the target and
    source halves of the linear map, and `a` (da,) holds the score vectors
    of `heads` heads of width da / heads. Per head, the edge score is
    a . leaky_relu(W_tgt h_tgt + W_src h_src); the scores are softmax-
    normalized over each target's in-edges (a target without one raises
    SegmentIndexError) and weight the source projections W_src h_src.
    Returns the (n_tgt, da) output and the (E, heads) weights.

    The forward and the vjp follow the narrow/matmul/gather/add/leaky_relu/
    reshape/mul/tsum/segment_softmax/segment_sum composition
    (tests/oracles.py::gatv2_oracle). The leaky ReLU max(x, slope x) and
    its slope factor are exact, and so are the head expansions
    (np.repeat). The per-head sums over hd columns are products with a
    (da, heads) block matrix, and a's adjoint is a product over the edges,
    so values and gradients agree with the composition to rounding (about
    1e-15) rather than bit for bit; with one-wide heads everything but a's
    adjoint is bit-identical. The parents are listed (tgt, src, w, a) so
    that the tape visits the inputs in the composition's order, and
    adjoints reach nodes with several consumers in the same order.
    """
    d1 = src.shape[1]
    if tgt.shape[1] != d1:
        raise ShapeError(f"gatv2: target dim {tgt.shape[1]} != source dim {d1}")
    if src.shape[0] != len(edge_tgt):
        raise ShapeError(f"gatv2: {src.shape[0]} source rows for {len(edge_tgt)} edges")
    if tgt.shape[0] != n_tgt:
        raise ShapeError(f"gatv2: {tgt.shape[0]} target rows for {n_tgt} targets")
    da = a.values.size
    if a.shape != (da,) or da % heads or w.shape != (2 * d1, da):
        raise ShapeError(f"gatv2: weights {w.shape} and scores {a.shape} for width {d1} "
                         f"and {heads} heads")
    index = _segments(edge_tgt, src.shape[0], n_tgt, nonempty=True)
    hd = da // heads
    w_tgt, w_src = w.values[:d1], w.values[d1:]
    s_proj = src.values @ w_src                                   # (E, da)
    act = (tgt.values @ w_tgt)[index]
    act += s_proj
    np.maximum(act, slope * act, out=act)                         # leaky ReLU
    # block[j, h] is 1 where column j belongs to head h, so that a product
    # with it sums each head's hd columns
    block = (np.arange(da)[:, None] // hd == np.arange(heads)).astype(np.float64)
    alpha = _softmax(act @ (block * a.values[:, None]), index, n_tgt)   # (E, heads)
    out = Tensor(scatter_add(index, s_proj * np.repeat(alpha, hd, axis=1), n_tgt),
                 _parents=(tgt, src, w, a))

    def vjp(g):
        first_w = w._needs and w._first_grad()
        g_e = g[index]                                            # (E, da)
        g_scores = _softmax_vjp((g_e * s_proj) @ block, alpha, index, n_tgt)
        if a._needs:
            per_head = (g_scores.T @ act).reshape(heads, heads, hd)
            a._add_grad(per_head[np.arange(heads), np.arange(heads)].reshape(da), owned=True)
        g_pre = np.repeat(g_scores, hd, axis=1)
        g_pre *= a.values
        g_pre *= (act > 0) * (1.0 - slope) + slope               # leaky ReLU slope
        if tgt._needs or w._needs:
            g_t = scatter_add(index, g_pre, n_tgt)
            if tgt._needs:
                tgt._add_grad(g_t @ w_tgt.T, owned=True)
            if w._needs:
                _add_product(w.grad[:d1], tgt.values.T, g_t, first_w)
        if src._needs or w._needs:
            g_e *= np.repeat(alpha, hd, axis=1)
            g_e += g_pre
            if src._needs:
                src._add_grad(g_e @ w_src.T, owned=True)
            if w._needs:
                _add_product(w.grad[d1:], src.values.T, g_e, first_w)
    out._vjp = vjp
    return out, alpha


def relu(t: Tensor) -> Tensor:
    """max(x, 0), which unlike a masked select is branch-free and carries a
    NaN through; the adjoint is the output adjoint times the mask x > 0."""
    values = np.maximum(t.values, 0.0)
    out = Tensor(values, _parents=(t,))
    out._vjp = lambda g: t._add_grad(g * (values > 0), owned=True)
    return out


def layer_norm(t: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the feature (last) axis to zero mean and unit
    variance, then scale by `gain` and shift by `bias`. The row means are
    products with a ones vector, and the adjoints of `gain` and `bias` sum
    over the rows the same way (`_unbroadcast`). The parents (t, gain,
    bias) keep the tape order of the normalization followed by a mul and
    an add primitive, and the values and gradients equal that composition's
    (tests/oracles.py::layer_norm_oracle)."""
    x = t.values
    d = x.shape[-1]
    ones = np.ones(d)
    y = x - ((x @ ones) / d)[..., None]
    inv = 1.0 / np.sqrt(((y * y) @ ones) / d + eps)[..., None]
    y *= inv
    out = Tensor(y * gain.values + bias.values, _parents=(t, gain, bias))

    def vjp(g):
        if bias._needs:
            _add_passed(bias, g)
        if gain._needs:
            gain._add_grad(_unbroadcast(g * y, gain.values.shape), owned=True)
        if t._needs:
            gy = g * gain.values
            gx = gy - ((gy @ ones) / d)[..., None]
            gy *= y
            gx -= y * ((gy @ ones) / d)[..., None]
            gx *= inv
            t._add_grad(gx, owned=True)
    out._vjp = vjp
    return out


def sqrt(t: Tensor) -> Tensor:
    values = np.sqrt(t.values)
    out = Tensor(values, _parents=(t,))
    out._vjp = lambda g: t._add_grad(g * 0.5 / values, owned=True)
    return out


def where(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select a where mask else b; mask is a plain boolean array (the
    condition is not differentiated through)."""
    mask = np.asarray(mask, dtype=bool)
    out = Tensor(np.where(mask, a.values, b.values), _parents=(a, b))

    def vjp(g):
        if a._needs:
            a._add_grad(_unbroadcast(np.where(mask, g, 0.0), a.values.shape), owned=True)
        if b._needs:
            b._add_grad(_unbroadcast(np.where(mask, 0.0, g), b.values.shape), owned=True)
    out._vjp = vjp
    return out


def tsum(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(t.values.sum(axis=axis, keepdims=keepdims), _parents=(t,))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        t._add_grad(np.broadcast_to(g, t.values.shape))
    out._vjp = vjp
    return out


def tmean(t: Tensor) -> Tensor:
    """The mean of all entries, as a scalar."""
    return mul(tsum(t), 1.0 / t.values.size)


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values, grad_buffer: np.ndarray | None = None) -> Tensor:
    t = Tensor(values, requires_grad=True)
    t.grad_buffer = grad_buffer
    return t


# -- finite-difference oracle ---------------------------------------------

@dataclass
class GradCheckReport:
    """Per-parameter comparison of reverse-mode against central differences."""

    max_relative: float
    per_param: dict
    passed: bool
    tol: float

    def worst(self) -> str:
        name = max(self.per_param, key=lambda k: self.per_param[k][0])
        rel, at = self.per_param[name]
        return f"{name}[{at}]: rel dev {rel:.3e}"


def grad_check(f, params, step: float = 1e-5, tol: float = 1e-6,
               max_coords_per_param: int | None = None, seed: int = 0,
               refine_step: float | None = None) -> GradCheckReport:
    """Compare reverse-mode gradients of f(params) with central differences.

    `params` maps names to the leaf Tensors to check. f must be
    deterministic and return a scalar Tensor. Relative deviation
    per coordinate is |fd - ad| / max(|fd|, |ad|, 1e-3); the floor keeps
    finite-difference roundoff at near-zero gradients from registering as
    failures. With max_coords_per_param set, a seeded random subset of
    coordinates of each parameter is checked instead of all of them.

    With refine_step set, a coordinate that misses the tolerance at the
    primary step is re-measured at the smaller step. That separates
    finite-difference artifacts from real gradient errors: truncation and
    a kink (ReLU corner) straddled by the primary bracket both vanish as
    the step shrinks, while a wrong adjoint stays wrong at every step.
    """
    zero_grads(params.values())
    root = f()
    if not np.isfinite(root.values).all():
        raise NumericError("objective is not finite at the evaluation point")
    backward(root, params=params.values())
    grads = {name: p.grad.copy() for name, p in params.items()}

    def central(flat, c, h):
        orig = flat[c]
        flat[c] = orig + h
        f_plus = f().values.item()
        flat[c] = orig - h
        f_minus = f().values.item()
        flat[c] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError("objective not finite while perturbing a parameter")
        return (f_plus - f_minus) / (2.0 * h)

    rng = np.random.default_rng(seed)
    per_param = {}
    overall = 0.0
    for name, p in params.items():
        flat = p.values.reshape(-1)
        size = flat.size
        if max_coords_per_param is not None and size > max_coords_per_param:
            coords = np.sort(rng.choice(size, size=max_coords_per_param, replace=False))
        else:
            coords = np.arange(size)
        worst, worst_at = 0.0, 0
        gflat = grads[name].reshape(-1)
        for c in coords:
            ad = gflat[c]
            fd = central(flat, c, step)
            rel = abs(fd - ad) / max(abs(fd), abs(ad), 1e-3)
            if rel > tol and refine_step is not None:
                fd = central(flat, c, refine_step)
                rel = abs(fd - ad) / max(abs(fd), abs(ad), 1e-3)
            if rel > worst:
                worst, worst_at = rel, int(c)
        per_param[name] = (worst, worst_at)
        overall = max(overall, worst)
    return GradCheckReport(max_relative=overall, per_param=per_param,
                           passed=overall <= tol, tol=tol)
