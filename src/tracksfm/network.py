"""Permutation-equivariant attention network mapping sparse point tracks to
camera parameters and 3D points.

Four feature collections flow through the network: one vector per observed
projection (sparse, keyed by observation), one per view, one per scene
point, and a single global vector. Attention-based aggregation moves
information from projections to views/points, from views/points to the
global vector, and a pointwise update distributes it back to the
projections. After L rounds, regression heads read cameras off the view
features and 3D coordinates off the scene point features.

All computation runs on the autodiff Tensors, so the output is
differentiable with respect to every parameter.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .scene import EUCLIDEAN, PROJECTIVE, Scene

LEAKY_SLOPE = 0.2    # GATv2 convention
LN_EPS = 1e-5
NUM_HEADS = 4


class LayerNumericError(ad.NumericError):
    """Non-finite feature values, tagged with the layer that produced them."""

    def __init__(self, stage: str, layer: int | None = None):
        where = stage if layer is None else f"{stage}, layer {layer}"
        super().__init__("non-finite feature values", context=where)
        self.layer = layer
        self.stage = stage


@dataclass(frozen=True)
class NetConfig:
    """Architecture hyperparameters. The full-scale configuration is
    layers=12, d_p=32, d_v=1024, d_s=64, d_g=2048."""

    layers: int = 12
    d_p: int = 32
    d_v: int = 1024
    d_s: int = 64
    d_g: int = 2048
    mode: str = EUCLIDEAN

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("need at least one layer")
        if min(self.d_p, self.d_v, self.d_s, self.d_g) < 4:
            raise ValueError("feature dimensions must be >= 4")
        if self.mode not in (EUCLIDEAN, PROJECTIVE):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def camera_outputs(self) -> int:
        return 7 if self.mode == EUCLIDEAN else 12


def _att_dim(d1: int) -> int:
    """Total attention output width: 4 heads of ceil(d1/4) each.

    Equals d1 whenever d1 is a multiple of 4; the rounding only matters for
    the dim-2 initial embeddings, where each head gets width 1.
    """
    return NUM_HEADS * ((d1 + NUM_HEADS - 1) // NUM_HEADS)


# -- parameter registry ----------------------------------------------------

def _gca_shapes(prefix: str, d1: int, d2: int, has_tgt: bool):
    yield f"{prefix}.ln_src.g", (d1,)
    yield f"{prefix}.ln_src.b", (d1,)
    if has_tgt:
        yield f"{prefix}.ln_tgt.g", (d2,)
        yield f"{prefix}.ln_tgt.b", (d2,)
        if d1 != d2:
            yield f"{prefix}.proj_in.w", (d2, d1)
            yield f"{prefix}.proj_in.b", (d1,)
    da = _att_dim(d1)
    yield f"{prefix}.att.w", (2 * d1, da)
    yield f"{prefix}.att.a", (da,)
    if da != d2:
        yield f"{prefix}.proj_out.w", (da, d2)
        yield f"{prefix}.proj_out.b", (d2,)


def _node_update_shapes(prefix: str, d_src: int, d: int, has_tgt: bool):
    yield from _gca_shapes(f"{prefix}.gca", d_src, d, has_tgt)
    yield f"{prefix}.ln.g", (d,)
    yield f"{prefix}.ln.b", (d,)
    yield f"{prefix}.ffn.w", (d, d)
    yield f"{prefix}.ffn.b", (d,)


def _global_update_shapes(prefix: str, cfg: NetConfig, has_tgt: bool):
    yield from _gca_shapes(f"{prefix}.gca_v", cfg.d_v, cfg.d_g, has_tgt)
    yield from _gca_shapes(f"{prefix}.gca_s", cfg.d_s, cfg.d_g, has_tgt)
    yield f"{prefix}.ln.g", (cfg.d_g,)
    yield f"{prefix}.ln.b", (cfg.d_g,)
    yield f"{prefix}.ffn.w", (cfg.d_g, cfg.d_g)
    yield f"{prefix}.ffn.b", (cfg.d_g,)


def _proj_update_shapes(prefix: str, cfg: NetConfig, d_p_in: int):
    yield f"{prefix}.ln_v.g", (cfg.d_v,)
    yield f"{prefix}.ln_v.b", (cfg.d_v,)
    yield f"{prefix}.ln_s.g", (cfg.d_s,)
    yield f"{prefix}.ln_s.b", (cfg.d_s,)
    yield f"{prefix}.ln_g.g", (cfg.d_g,)
    yield f"{prefix}.ln_g.b", (cfg.d_g,)
    yield f"{prefix}.ln_p.g", (d_p_in,)
    yield f"{prefix}.ln_p.b", (d_p_in,)
    yield f"{prefix}.ffn.w", (cfg.d_v + cfg.d_s + cfg.d_g + d_p_in, cfg.d_p)
    yield f"{prefix}.ffn.b", (cfg.d_p,)


def _head_shapes(prefix: str, d: int, out: int):
    yield f"{prefix}.l0.w", (d, d)
    yield f"{prefix}.l0.b", (d,)
    yield f"{prefix}.l1.w", (d, d)
    yield f"{prefix}.l1.b", (d,)
    yield f"{prefix}.l2.w", (d, out)
    yield f"{prefix}.l2.b", (out,)


def param_shapes(cfg: NetConfig) -> "OrderedDict[str, tuple]":
    """Canonical parameter enumeration; the order here fixes the layout of
    checkpoints and the draw order of initialization."""
    shapes: OrderedDict[str, tuple] = OrderedDict()

    def put(gen):
        for name, shape in gen:
            shapes[name] = shape

    put([("embed.w", (2, 2)), ("embed.b", (2,))])
    put(_node_update_shapes("init_view", 2, cfg.d_v, has_tgt=False))
    put(_node_update_shapes("init_point", 2, cfg.d_s, has_tgt=False))
    put(_global_update_shapes("init_global", cfg, has_tgt=False))
    for layer in range(cfg.layers):
        d_p_in = 2 if layer == 0 else cfg.d_p + 2
        put(_proj_update_shapes(f"layer{layer}.proj", cfg, d_p_in))
        put(_node_update_shapes(f"layer{layer}.view", cfg.d_p, cfg.d_v, has_tgt=True))
        put(_node_update_shapes(f"layer{layer}.point", cfg.d_p, cfg.d_s, has_tgt=True))
        if layer < cfg.layers - 1:
            put(_global_update_shapes(f"layer{layer}.global", cfg, has_tgt=True))
    put(_head_shapes("cam_head", cfg.d_v, cfg.camera_outputs))
    put(_head_shapes("point_head", cfg.d_s, 3))
    return shapes


def parameter_count(cfg: NetConfig) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(cfg).values())


def flat_views(buffer: np.ndarray, shapes) -> "OrderedDict[str, np.ndarray]":
    """One view of `buffer` per (name, shape) item of `shapes`, laid out
    back to back in that order."""
    views: OrderedDict[str, np.ndarray] = OrderedDict()
    offset = 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = buffer[offset:offset + size].reshape(shape)
        offset += size
    return views


class ModelParams:
    """All learned weights, addressable by canonical name.

    The values live in one contiguous float64 buffer, `flat`, laid out in
    param_shapes order (the checkpoint layout), and every parameter's
    `values` is a view of it. A given `flat` of parameter_count(cfg) values
    is adopted, not copied; without one the parameters start at zero.
    `grad`, laid out the same, holds each parameter's `grad_buffer`; made
    with np.zeros, it holds no resident pages until backward writes them.
    """

    def __init__(self, cfg: NetConfig, flat: np.ndarray | None = None):
        self.cfg = cfg
        size = parameter_count(cfg)
        flat = np.zeros(size) if flat is None else flat
        if flat.dtype != np.float64 or flat.shape != (size,) or not flat.flags.c_contiguous:
            raise ValueError(f"expected {size} contiguous float64 parameter values, got "
                             f"shape {flat.shape} of {flat.dtype}")
        self.flat = flat
        self.grad = np.zeros(size)
        grads = flat_views(self.grad, param_shapes(cfg))
        self.tensors = OrderedDict((name, ad.parameter(v, grads[name]))
                                   for name, v in flat_views(flat, param_shapes(cfg)).items())

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def view(self, prefix: str) -> "_ParamView":
        return _ParamView(self.tensors, prefix)


class _ParamView:
    def __init__(self, tensors, prefix: str):
        self._tensors = tensors
        self._prefix = prefix

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[f"{self._prefix}.{name}"]

    def __contains__(self, name: str) -> bool:
        return f"{self._prefix}.{name}" in self._tensors

    def sub(self, name: str) -> "_ParamView":
        return _ParamView(self._tensors, f"{self._prefix}.{name}")


def init_params(cfg: NetConfig, seed: int) -> ModelParams:
    """Uniform(+-1/sqrt(fan_in)) weights, zero biases, unit LN gains.

    For attention score vectors fan_in is the per-head width; for matrices
    it is the input dimension. Drawing follows canonical parameter order,
    so a seed fully determines the result. The draws go straight into the
    parameter buffer: random() in [0, 1), times 2 bound, minus bound, is
    bit-identical to uniform(-bound, bound).
    """
    rng = np.random.default_rng(seed)
    params = ModelParams(cfg)
    for name, p in params.tensors.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "b":
            continue
        if leaf == "g":
            p.values.fill(1.0)
            continue
        fan_in = p.shape[0] // NUM_HEADS if leaf == "a" else p.shape[0]
        bound = 1.0 / np.sqrt(fan_in)
        rng.random(out=p.values)
        p.values *= 2 * bound
        p.values += -bound
    return params


# -- building blocks -------------------------------------------------------

def _ln_affine(x: Tensor, pv, name: str) -> Tensor:
    sub = pv.sub(name)
    return ad.layer_norm(x, sub["g"], sub["b"], LN_EPS)


def _linear(x: Tensor, pv, name: str) -> Tensor:
    sub = pv.sub(name)
    return ad.matmul(x, sub["w"]) + sub["b"]


def graph_cross_attention(h1: Tensor, h2: Tensor | None, edge_tgt: np.ndarray,
                          n_tgt: int, pv) -> Tensor:
    """Cross-attention wrapper: normalize the sources (row e of h1 feeds
    edge e) and the previous targets h2, or use zero queries without them;
    attend with `ad.gatv2` (NUM_HEADS heads, `att.w` and `att.a`); and
    apply `proj_in` (targets to the source width) and `proj_out`
    (attention output to the target width) where `pv` holds them, as
    `_gca_shapes` decides from the widths."""
    h1n = ad.relu(_ln_affine(h1, pv, "ln_src"))
    if h2 is not None:
        queries = ad.relu(_ln_affine(h2, pv, "ln_tgt"))
        if "proj_in.w" in pv:
            queries = _linear(queries, pv, "proj_in")
    else:
        queries = ad.constant(np.zeros((n_tgt, h1.shape[1])))
    out, _ = ad.gatv2(h1n, queries, pv["att.w"], pv["att.a"], edge_tgt, n_tgt,
                      NUM_HEADS, LEAKY_SLOPE)
    if "proj_out.w" in pv:
        out = _linear(out, pv, "proj_out")
    return out


def _node_update(p: Tensor, edge_tgt: np.ndarray, n_tgt: int,
                 prev: Tensor | None, pv) -> Tensor:
    att = graph_cross_attention(p, prev, edge_tgt, n_tgt, pv.sub("gca"))
    h = prev + att if prev is not None else att
    return h + _linear(ad.relu(_ln_affine(h, pv, "ln")), pv, "ffn")


def update_view_feats(p: Tensor, view_idx: np.ndarray, num_views: int,
                      v_prev: Tensor | None, pv) -> Tensor:
    """Aggregate each view's projection features into its view feature
    (residual), then apply a residual feed-forward update."""
    return _node_update(p, view_idx, num_views, v_prev, pv)


def update_point_feats(p: Tensor, point_idx: np.ndarray, num_points: int,
                       s_prev: Tensor | None, pv) -> Tensor:
    """Mirror image of update_view_feats over the track columns."""
    return _node_update(p, point_idx, num_points, s_prev, pv)


def update_global_feat(v: Tensor, s: Tensor, g_prev: Tensor | None, pv) -> Tensor:
    """Two independent aggregations (views and points) summed into the
    global vector, followed by a residual feed-forward update."""
    gv = graph_cross_attention(v, g_prev, np.zeros(v.shape[0], dtype=np.int64), 1,
                               pv.sub("gca_v"))
    gs = graph_cross_attention(s, g_prev, np.zeros(s.shape[0], dtype=np.int64), 1,
                               pv.sub("gca_s"))
    g = g_prev + gv + gs if g_prev is not None else gv + gs
    return g + _linear(ad.relu(_ln_affine(g, pv, "ln")), pv, "ffn")


def update_proj_feats(p_prev: Tensor | None, p_in: Tensor, v: Tensor, s: Tensor,
                      g: Tensor, view_idx: np.ndarray, point_idx: np.ndarray,
                      pv) -> Tensor:
    """Pointwise update: each projection collects its view, point, and the
    global features (no aggregation), and a shared feed-forward layer maps
    them back to the projection width. The previous projection features act
    as the residual; at the first layer there are none.

    The layer is ffn([v[view] || s[point] || g || p]), evaluated without
    forming that concatenation: `ffn.w` is split by rows into the view,
    point, global and projection blocks, each feature is multiplied by its
    block at its own row count (m views, n points, one global row), and
    only the d_p-wide products are gathered onto the observations.
    """
    vn = ad.relu(_ln_affine(v, pv, "ln_v"))
    sn = ad.relu(_ln_affine(s, pv, "ln_s"))
    gn = ad.relu(_ln_affine(g, pv, "ln_g"))
    pn = ad.relu(_ln_affine(p_in, pv, "ln_p"))
    w = pv["ffn.w"]
    d_v, d_s, d_g = vn.shape[1], sn.shape[1], gn.shape[1]
    per_view = ad.matmul(vn, ad.narrow(w, 0, 0, d_v))                       # (m, d_p)
    per_point = ad.matmul(sn, ad.narrow(w, 0, d_v, d_s))                    # (n, d_p)
    shared = ad.matmul(gn, ad.narrow(w, 0, d_v + d_s, d_g)) + pv["ffn.b"]   # (1, d_p)
    own = ad.matmul(pn, ad.narrow(w, 0, d_v + d_s + d_g, pn.shape[1]))      # (N, d_p)
    delta = ad.gather(per_view, view_idx) + ad.gather(per_point, point_idx) + shared + own
    return p_prev + delta if p_prev is not None else delta


def _head(x: Tensor, pv) -> Tensor:
    h = ad.relu(_linear(x, pv, "l0"))
    h = ad.relu(_linear(h, pv, "l1"))
    return _linear(h, pv, "l2")


@dataclass
class ForwardResult:
    """Differentiable network output.

    Euclidean mode: unit quaternions (m, 4) and centers (m, 3).
    Projective mode: row-major camera matrices (m, 12), unit Frobenius
    norm, sign fixed so the largest-magnitude entry is positive.
    """

    mode: str
    points: Tensor
    quats: Tensor | None = None
    centers: Tensor | None = None
    matrices: Tensor | None = None

    def reconstruction(self) -> "Reconstruction":
        if self.mode == EUCLIDEAN:
            return Reconstruction(mode=self.mode, quats=self.quats.values.copy(),
                                  centers=self.centers.values.copy(),
                                  points=self.points.values.copy())
        return Reconstruction(mode=self.mode,
                              matrices=self.matrices.values.reshape(-1, 3, 4).copy(),
                              points=self.points.values.copy())


@dataclass
class Reconstruction:
    """Plain-array reconstruction: per-view cameras plus 3D points."""

    mode: str
    points: np.ndarray
    quats: np.ndarray | None = None      # (m, 4) unit, euclidean mode
    centers: np.ndarray | None = None    # (m, 3)
    matrices: np.ndarray | None = None   # (m, 3, 4) projective mode

    @property
    def num_views(self) -> int:
        arr = self.quats if self.mode == EUCLIDEAN else self.matrices
        return len(arr)


def _check_finite(t: Tensor, stage: str, layer: int | None = None) -> None:
    if not np.isfinite(t.values).all():
        raise LayerNumericError(stage, layer)


def normalize_quaternions(q: Tensor) -> Tensor:
    norm = ad.sqrt(ad.tsum(q * q, axis=1, keepdims=True))
    return q / (norm + 1e-12)


def normalize_camera_matrices(p: Tensor) -> Tensor:
    """Scale each 12-vector to unit Frobenius norm; fix the sign so the
    entry of largest magnitude is positive (sign treated as constant)."""
    fro = ad.sqrt(ad.tsum(p * p, axis=1, keepdims=True))
    scaled = p / (fro + 1e-12)
    idx = np.argmax(np.abs(scaled.values), axis=1)
    lead = scaled.values[np.arange(len(idx)), idx]
    sign = np.where(lead < 0, -1.0, 1.0).reshape(-1, 1)
    return scaled * sign


def forward(scene: Scene, params: ModelParams) -> ForwardResult:
    """Run the full network on a (normalized) scene.

    Layer schedule: embed the image points, bootstrap view/point/global
    features from the embedding, then L rounds of projection, view, point,
    and global updates -- the global update is skipped on the last round --
    and finally the two regression heads.
    """
    cfg = params.cfg
    if scene.mode != cfg.mode:
        raise ValueError(f"scene mode {scene.mode!r} != model mode {cfg.mode!r}")
    m, n = scene.num_views, scene.num_points
    view_idx, point_idx = scene.view_idx, scene.point_idx

    pv = params.view
    p0 = ad.matmul(ad.constant(scene.xy), params["embed.w"]) + params["embed.b"]
    _check_finite(p0, "embedding")

    v = update_view_feats(p0, view_idx, m, None, pv("init_view"))
    s = update_point_feats(p0, point_idx, n, None, pv("init_point"))
    g = update_global_feat(v, s, None, pv("init_global"))
    _check_finite(g, "initial updates")

    p = None
    for layer in range(cfg.layers):
        p_in = p0 if layer == 0 else ad.concat([p, p0], axis=1)
        p = update_proj_feats(p, p_in, v, s, g, view_idx, point_idx,
                              pv(f"layer{layer}.proj"))
        v = update_view_feats(p, view_idx, m, v, pv(f"layer{layer}.view"))
        s = update_point_feats(p, point_idx, n, s, pv(f"layer{layer}.point"))
        if layer < cfg.layers - 1:
            g = update_global_feat(v, s, g, pv(f"layer{layer}.global"))
        _check_finite(v, "layer update", layer)
        _check_finite(s, "layer update", layer)

    cams_raw = _head(ad.relu(v), pv("cam_head"))
    points = _head(ad.relu(s), pv("point_head"))
    _check_finite(cams_raw, "camera head")
    _check_finite(points, "point head")

    if cfg.mode == EUCLIDEAN:
        centers = ad.narrow(cams_raw, 1, 0, 3)
        quats = normalize_quaternions(ad.narrow(cams_raw, 1, 3, 4))
        return ForwardResult(mode=EUCLIDEAN, points=points, quats=quats, centers=centers)
    matrices = normalize_camera_matrices(cams_raw)
    return ForwardResult(mode=PROJECTIVE, points=points, matrices=matrices)
