"""Training: Adam with warmup/decay schedule, subsequence sampling, camera
rotation augmentation, artificial outlier injection, validation tracking,
and bit-exact checkpointing.

Every random decision inside the loop draws from a generator derived from
(seed, iteration), so training is a pure function of (data, config, seed)
and resuming from a checkpoint reproduces the uninterrupted run exactly.
Parameters, gradients and both Adam moments live in four flat buffers,
all but the gradients held by a Checkpoint: a resumed run trains in the
loaded buffers, and each best-validation checkpoint is handed to a
callback over those buffers as it is found, so training copies none.
"""

from __future__ import annotations

import json
import math
import os
import struct
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, scatter_add
from .network import ModelParams, NetConfig, forward, init_params, param_shapes
from .objective import loss, normalize_param_grads
from .rotations import axis_angle_to_matrix, matrix_to_quat, quat_to_matrix
from .scene import (EUCLIDEAN, Scene, SceneError, _is_count, _is_number, pose_matrices, project,
                    subsample_views)


class InfeasibleOutlierRateError(SceneError):
    """Coverage lower bounds leave too few selectable observations."""


@dataclass(frozen=True)
class AugmentConfig:
    enabled: bool = False
    alpha_range_deg: tuple = (-15.0, 15.0)
    gamma_range_deg: tuple = (-20.0, 20.0)


@dataclass(frozen=True)
class OutlierConfig:
    enabled: bool = False
    rate: float = 0.10


@dataclass(frozen=True)
class TrainConfig:
    """Schedule and data-handling settings for train_loop.

    The learning rate warms up linearly from 0 over warmup_iters
    iterations, then decays exponentially by decay_factor every
    decay_every iterations. constant_lr switches to a flat base_lr, the
    fine-tuning regime.
    """

    net: NetConfig = field(default_factory=NetConfig)
    base_lr: float = 1e-4
    warmup_iters: int = 2500
    decay_factor: float = 10.0
    decay_every: int = 250000
    epochs: int = 1000
    validate_every: int = 250
    subseq_min: int = 10
    subseq_max: int = 20
    aug: AugmentConfig = field(default_factory=AugmentConfig)
    outliers: OutlierConfig = field(default_factory=OutlierConfig)
    seed: int = 0
    constant_lr: bool = False

    def __post_init__(self):
        for name in ("base_lr", "warmup_iters", "epochs"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"train config field {name!r} must be non-negative")
        for name in ("decay_factor", "decay_every", "validate_every"):
            if not getattr(self, name) > 0:
                raise ValueError(f"train config field {name!r} must be positive")
        if not 0 <= self.outliers.rate < 1:
            raise ValueError("outlier rate must lie in [0, 1)")
        if self.subseq_min > self.subseq_max or self.subseq_min < 2:
            raise ValueError("bad subsequence range")
        a, g = self.aug.alpha_range_deg, self.aug.gamma_range_deg
        if a[0] > a[1] or g[0] > g[1]:
            raise ValueError("augmentation angle ranges must be ordered")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return from_fields(cls, d, "train config")


# What a JSON value must be for a config field of each type.
_FIELD_TYPES = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
}


def from_fields(cls, d: dict, name: str):
    """cls(**d) for a config dataclass, raising ValueError for a d that is
    not a JSON object, a key that names no field of cls, or a value of the
    wrong type for its field: an int field takes an integer (not a bool), a
    float field any number, a bool field true or false, a tuple field a
    list as long as its default, and a nested config field an object, which
    is read the same way. The annotations are resolved with get_type_hints,
    since the config modules postpone their evaluation."""
    if not isinstance(d, dict):
        raise ValueError(f"{name} must be a JSON object")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {name} field {', '.join(map(repr, unknown))}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name not in d:
            continue
        value, kind = d[f.name], hints[f.name]
        if is_dataclass(kind):
            value = from_fields(kind, value, f.name)
        elif kind is tuple:
            if not (isinstance(value, (list, tuple)) and len(value) == len(f.default)
                    and all(map(_is_number, value))):
                raise ValueError(f"{name} field {f.name!r} must be a list of "
                                 f"{len(f.default)} numbers")
            value = tuple(value)
        elif kind in _FIELD_TYPES and not _FIELD_TYPES[kind][1](value):
            raise ValueError(f"{name} field {f.name!r} must be {_FIELD_TYPES[kind][0]}")
        values[f.name] = value
    return cls(**values)


def lr_at(iteration: int, cfg: TrainConfig) -> float:
    """Learning rate at a 0-based iteration index.

    Linear warmup from 0 to base_lr over the first warmup_iters
    iterations, then base_lr * decay_factor**(-(it - warmup)/decay_every).
    """
    if iteration < 0:
        raise ValueError("iteration must be >= 0")
    if cfg.constant_lr:
        return cfg.base_lr
    if iteration <= cfg.warmup_iters:
        if cfg.warmup_iters == 0:
            return cfg.base_lr
        return cfg.base_lr * iteration / cfg.warmup_iters
    return cfg.base_lr * cfg.decay_factor ** (-(iteration - cfg.warmup_iters) / cfg.decay_every)


# Adam scans and updates the four flat buffers in chunks of this many
# values, so its scratch memory is a few chunks whatever the model size.
# 2**15 beat 2**13 at both sizes (one BLAS thread): 0.95-0.98 against
# 1.01-1.07 ms per step on the overfit model (137,800 values), and
# 1.33-1.38 against 1.39-1.53 s at full scale (145,176,240 values).
ADAM_BUCKET = 2**15
# Adam's moment decay rates and denominator offset (Kingma & Ba, ICLR 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(eq=False)
class AdamState:
    """Adam moments `m` and `v`, two flat buffers laid out like the
    ModelParams.flat they serve, adopted and not copied, and the step
    count `t`."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls(np.zeros(params.flat.size), np.zeros(params.flat.size))


def adam_step(params: ModelParams, state: AdamState, lr: float) -> AdamState:
    """Standard Adam update with bias correction, in place on the params,
    from `params.grad`. A parameter whose `.grad` is not its view of that
    buffer, a non-finite gradient, or a state of another size is rejected
    before anything changes. The update runs over the four flat buffers
    chunk by chunk, with the per-element expression order of the
    per-tensor update, so its result is bit-identical to that.
    """
    if state.m.size != params.flat.size:
        raise ad.ShapeError(f"Adam state holds {state.m.size} values for "
                            f"{params.flat.size} parameters")
    for name, p in params.tensors.items():
        if p.grad is not p.grad_buffer:
            raise ad.ShapeError(f"{name} has no gradient in its view of the gradient buffer")
    starts = range(0, params.flat.size, ADAM_BUCKET)
    if not all(np.isfinite(params.grad[i:i + ADAM_BUCKET]).all() for i in starts):
        raise NumericError("non-finite gradient")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for start in starts:
        chunk = slice(start, start + ADAM_BUCKET)
        g = params.grad[chunk]
        m = state.m[chunk]
        v = state.v[chunk]
        tmp = np.empty_like(g)
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=tmp)
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=tmp)
        tmp *= g
        v += tmp
        step = np.divide(m, bc1)
        step *= lr
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step /= tmp
        params.flat[chunk] -= step
    return state


# -- data augmentation -----------------------------------------------------

def augment(scene: Scene, rng: np.random.Generator,
            alpha_range_deg=(-15.0, 15.0), gamma_range_deg=(-20.0, 20.0)) -> Scene:
    """Rotate every camera about its own center and re-render observations.

    First a rotation by alpha about the principal (viewing) axis, then by
    gamma about a uniformly random axis orthogonal to it. `rng` draws the
    m alphas (degrees), then the m axis directions (angles in [0, 2 pi) in
    the image plane), then the m gammas (degrees). Scene points stay fixed;
    image points are replaced by exact reprojections under the perturbed
    poses, and gt_poses are updated to match. Requires a normalized
    euclidean scene with ground-truth poses and points.
    """
    if scene.mode != EUCLIDEAN:
        raise SceneError("augmentation is defined for euclidean scenes")
    if scene.gt_quats is None or scene.gt_points is None:
        raise SceneError("augmentation requires ground-truth poses and points")
    if scene.intrinsics is not None and not np.allclose(
            scene.intrinsics, np.eye(3), atol=1e-12):
        raise SceneError("augmentation expects normalized (identity-K) observations")

    m = scene.num_views
    alphas = rng.uniform(*alpha_range_deg, size=m)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=m)
    gammas = rng.uniform(*gamma_range_deg, size=m)

    Rz = axis_angle_to_matrix(np.tile([0.0, 0.0, 1.0], (m, 1)), np.deg2rad(alphas))
    axes = np.stack([np.cos(thetas), np.sin(thetas), np.zeros(m)], axis=1)
    Rg = axis_angle_to_matrix(axes, np.deg2rad(gammas))
    R_new = Rg @ Rz @ quat_to_matrix(scene.gt_quats)

    xy, z = project(pose_matrices(R_new, scene.gt_centers), scene.gt_points,
                    scene.view_idx, scene.point_idx)
    if np.any(z[:, 2] <= 0):
        raise NumericError("augmentation rotated a point behind its camera")
    return replace(scene, xy=xy, gt_quats=matrix_to_quat(R_new))


# -- artificial outlier injection -------------------------------------------

OUTLIER_SELECTION_ROUNDS = 50   # candidate draw/demote cycles before giving up


def inject_outliers(scene: Scene, rate: float,
                    rng: np.random.Generator) -> tuple[Scene, np.ndarray]:
    """Replace a fraction of the measurements with per-view bivariate
    normal draws fit to the surviving inliers.

    Selection protects coverage: observations in views with <= 8 visible
    points, and of points visible in <= 2 views, are fixed as inliers up
    front. Candidates are oversampled at the harmonic mean of the needed
    fraction and 1, any candidate whose selection would push a view below
    8 or a point below 2 inliers is demoted (fixing that whole view/point),
    and the cycle repeats until exactly round(rate * N) outliers are
    selectable. Returns the corrupted scene and the outlier mask in
    canonical observation order; the caller keeps the original scene as
    the learning target.
    """
    if not 0 <= rate < 1:
        raise ValueError("rate must lie in [0, 1)")
    N = scene.num_observations
    mask = np.zeros(N, dtype=bool)
    target = int(round(rate * N))
    if target == 0:
        return scene, mask

    m, n = scene.num_views, scene.num_points
    vi, pi = scene.view_idx, scene.point_idx
    points_per_view = np.bincount(vi, minlength=m)
    views_per_point = np.bincount(pi, minlength=n)
    fixed = (points_per_view[vi] <= 8) | (views_per_point[pi] <= 2)

    chosen = None
    for _ in range(OUTLIER_SELECTION_ROUNDS):
        pool = np.flatnonzero(~fixed)
        if pool.size < target:
            raise InfeasibleOutlierRateError(
                f"only {pool.size} selectable observations for {target} outliers")
        nu = target / pool.size
        frac = 1.0 / (0.5 / nu + 0.5)
        k = min(pool.size, max(target, int(round(frac * pool.size))))
        cand = np.zeros(N, dtype=bool)
        cand[rng.choice(pool, size=k, replace=False)] = True

        inlier_pv = np.bincount(vi[~cand], minlength=m)
        inlier_vp = np.bincount(pi[~cand], minlength=n)
        bad = (inlier_pv < 8)[vi] | (inlier_vp < 2)[pi]
        if bad.any():
            fixed |= bad
            cand &= ~bad
        remaining = np.flatnonzero(cand)
        if remaining.size >= target:
            chosen = rng.choice(remaining, size=target, replace=False)
            break
    if chosen is None:
        raise InfeasibleOutlierRateError("selection did not converge")
    mask[chosen] = True
    return replace(scene, xy=_draw_outliers(scene, mask, rng)), mask


def _draw_outliers(scene: Scene, mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """scene.xy with the rows of `mask` replaced by draws from each view's
    bivariate normal, fit as the mean and np.cov (ddof=1) of its inliers.
    One block of standard normals covers every outlier in view order, the
    stream that one draw per view takes.

    The result is bit-identical to fitting and drawing one view at a time
    (tests/oracles.py::outlier_draws_oracle). The inlier rows are summed in
    order, as np.mean sums them. The covariance and the draw product stay
    one small BLAS product per view over its contiguous rows, as np.cov
    and `draws @ L.T` compute them: a product over all views at once would
    round differently.
    """
    vi, m = scene.view_idx, scene.num_views
    inl = ~mask
    vi_in, xy_in = vi[inl], scene.xy[inl]
    counts = np.bincount(vi_in, minlength=m)
    mean = scatter_add(vi_in, xy_in, m) / counts[:, None]
    xc = xy_in - mean[vi_in]
    out = np.flatnonzero(mask)           # canonical order, so grouped by view
    per_view = np.bincount(vi[out], minlength=m)
    views = np.flatnonzero(per_view)
    per_view = per_view[views]
    in_lo = (np.cumsum(counts) - counts)[views]
    cov = np.stack([xc[lo:lo + k].T @ xc[lo:lo + k] for lo, k in zip(in_lo, counts[views])])
    cov *= (1.0 / (counts[views] - 1))[:, None, None]
    draws = rng.standard_normal((out.size, 2))
    xy = scene.xy.copy()
    for v, lo, k, L in zip(views, np.cumsum(per_view) - per_view, per_view,
                           _cholesky_factors(cov)):
        xy[out[lo:lo + k]] = mean[v] + draws[lo:lo + k] @ L.T
    return xy


def _cholesky_factors(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of 2x2 covariances; a covariance
    that is not positive definite gets sqrt(largest eigenvalue) * I."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    L = np.empty_like(cov)
    for k, c in enumerate(cov):
        try:
            L[k] = np.linalg.cholesky(c)
        except np.linalg.LinAlgError:
            lam = float(np.max(np.linalg.eigvalsh(c)))
            L[k] = np.sqrt(max(lam, 0.0)) * np.eye(2)
    return L


# -- checkpointing -----------------------------------------------------------

_MAGIC = b"TSFMCKP1"


@dataclass
class Checkpoint:
    """Everything needed to continue training bit-exactly. `params`,
    `adam_m` and `adam_v` are flat buffers in the ModelParams layout of
    the config's network. A resumed train_loop trains in them and a
    ModelParams adopts `params`, so neither copies them."""

    train_config: TrainConfig
    params: np.ndarray
    adam_m: np.ndarray
    adam_v: np.ndarray
    adam_t: int
    iteration: int
    epoch: int
    val_history: list
    best_val: float | None = None


# What each checkpoint header field beside the configs must be.
_HEADER_FIELDS = {
    "format_version": ("1", lambda v: _is_count(v) and v == 1),
    "adam_t": ("a non-negative integer", _is_count),
    "iteration": ("a non-negative integer", _is_count),
    "epoch": ("a non-negative integer", _is_count),
    "val_history": ("a list of [integer, number] pairs", lambda v: isinstance(v, list) and all(
        isinstance(x, list) and len(x) == 2 and _is_count(x[0]) and _is_number(x[1])
        for x in v)),
    "best_val": ("null or a number", lambda v: v is None or _is_number(v)),
}


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Binary container: magic, u64 header length, JSON header, then the
    params, Adam m and Adam v buffers, each written whole as raw
    little-endian float64. The file is written beside `path` under a
    temporary name and then renamed over it, so a save that fails part
    way leaves what was at `path` as it was."""
    shapes = param_shapes(ckpt.train_config.net)
    header = {
        "format_version": 1,
        "train_config": ckpt.train_config.to_dict(),
        "adam_t": ckpt.adam_t,
        "iteration": ckpt.iteration,
        "epoch": ckpt.epoch,
        "val_history": ckpt.val_history,
        "best_val": ckpt.best_val,
        "params": [[name, list(shape)] for name, shape in shapes.items()],
    }
    blob = json.dumps(header).encode("utf-8")
    tmp = f"{path}.tmp"
    f = open(tmp, "wb")
    try:
        with f:
            f.write(_MAGIC)
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for buffer in (ckpt.params, ckpt.adam_m, ckpt.adam_v):
                f.write(memoryview(np.ascontiguousarray(buffer, dtype="<f8")))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint. Raises ValueError when
    the header's parameter names or shapes differ from param_shapes of its
    network config, when a field of _HEADER_FIELDS does not hold, when the
    file is cut short, or when bytes trail the last buffer."""
    with open(path, "rb") as f:
        if f.read(8) != _MAGIC:
            raise ValueError("not a checkpoint file")
        size = f.read(8)
        if len(size) != 8:
            raise ValueError("checkpoint is truncated in its header")
        (hlen,) = struct.unpack("<Q", size)
        blob = f.read(hlen)
        if len(blob) != hlen:
            raise ValueError("checkpoint is truncated in its header")
        header = json.loads(blob.decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("checkpoint header must be a JSON object")
        cfg = TrainConfig.from_dict(header["train_config"])
        shapes = param_shapes(cfg.net)
        if header["params"] != [[name, list(shape)] for name, shape in shapes.items()]:
            raise ValueError("checkpoint header field 'params' names parameters that "
                             "do not match its network config")
        for key, (kind, valid) in _HEADER_FIELDS.items():
            if not valid(header[key]):
                raise ValueError(f"checkpoint header field {key!r} must be {kind}")
        size = sum(map(math.prod, shapes.values()))
        buffers = []
        for name in ("params", "adam_m", "adam_v"):
            buffer = np.empty(size, dtype="<f8")
            if f.readinto(memoryview(buffer).cast("B")) != buffer.nbytes:
                raise ValueError(f"checkpoint is truncated in buffer {name!r}")
            buffers.append(buffer)
        if f.read(1):
            raise ValueError("checkpoint has trailing bytes")
    return Checkpoint(cfg, *buffers, header["adam_t"], header["iteration"], header["epoch"],
                      [tuple(x) for x in header["val_history"]], header["best_val"])


# -- the loop ----------------------------------------------------------------

@dataclass
class TrainResult:
    """What train_loop returns: the checkpoint over the loop's own buffers
    where the run ended, the loss of each iteration it ran, and why it
    aborted (None when it did not)."""

    checkpoint: Checkpoint
    loss_history: np.ndarray
    abort_reason: str | None = None


def _iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, iteration]))


def sample_subsequence(scene: Scene, rng: np.random.Generator,
                       lo: int, hi: int) -> Scene:
    """Contiguous window of views, length uniform in [min(lo, m),
    min(hi, m)], uniform start; scenes are capture-ordered."""
    m = scene.num_views
    w_hi = min(hi, m)
    w_lo = min(lo, m)
    for _ in range(8):
        w = int(rng.integers(w_lo, w_hi + 1))
        start = int(rng.integers(0, m - w + 1))
        try:
            sub, _ = subsample_views(scene, np.arange(start, start + w))
            return sub
        except SceneError:
            continue
    return scene


def validation_error(scenes, params: ModelParams) -> float:
    """Mean reprojection over full validation scenes."""
    values = []
    for scene in scenes:
        out = forward(scene, params)
        _, rep = loss(scene, out)
        values.append(rep.mean_reprojection)
    return float(np.mean(values))


def train_loop(scenes, val_scenes, cfg: TrainConfig,
               resume_from: Checkpoint | None = None,
               iteration_callback=None, on_best=None) -> TrainResult:
    """Run the full schedule over the training scenes, which, like the
    validation scenes, must be in the network's mode.

    One epoch samples one subsequence per training scene, in list order.
    Per iteration: subsample views, optionally augment, optionally inject
    outliers (the network sees the corrupted scene, the loss targets the
    clean one), forward, backward, global gradient normalization, Adam at
    the scheduled rate. Validation runs every validate_every epochs. Each
    time it improves on the best, on_best(checkpoint) gets a checkpoint
    over the live buffers, which the next step overwrites, so a caller
    that keeps it saves or copies it in the call (on resume, also once at
    the start if the checkpoint's last validation is its best). On a
    numeric failure the loop aborts and returns the last good state: the
    state before a failed step, which normalization and Adam leave as it
    was when they raise, or after the epoch of a failed validation, which
    is not recorded.

    A resume continues at scene `iteration - epoch * len(scenes)` of the
    checkpoint's epoch, so a run resumed after a step abort repeats the
    straight run bit for bit; an offset outside [0, len(scenes)) means
    the scene list changed and raises ValueError. A resume after a
    validation abort starts the next epoch and does not rerun that
    validation.

    The returned checkpoint holds the loop's own buffers. On resume those
    are the three buffers of `resume_from`, which the loop trains in, so
    the checkpoint passed in is consumed.
    """
    if not scenes:
        raise ValueError("no training scenes")
    for scene in (*scenes, *val_scenes):
        if scene.mode != cfg.net.mode:
            raise ValueError(f"scene mode {scene.mode!r} != model mode {cfg.net.mode!r}")
    if resume_from is not None:
        if resume_from.train_config.net != cfg.net:
            raise ValueError("the checkpoint's network config differs from the train config's")
        params = ModelParams(cfg.net, resume_from.params)
        state = AdamState(resume_from.adam_m, resume_from.adam_v, resume_from.adam_t)
        iteration = resume_from.iteration
        start_epoch = resume_from.epoch
        val_history = list(resume_from.val_history)
        best_val = resume_from.best_val
    else:
        params = init_params(cfg.net, cfg.seed)
        state = AdamState.zeros(params)
        iteration = 0
        start_epoch = 0
        val_history = []
        best_val = None
    if not 0 <= iteration - start_epoch * len(scenes) < len(scenes):
        raise ValueError(f"the checkpoint's iteration {iteration} does not fall in its epoch "
                         f"{start_epoch} of {len(scenes)} training scenes")
    losses = []

    def snapshot(epoch: int) -> Checkpoint:
        return Checkpoint(cfg, params.flat, state.m, state.v, state.t, iteration, epoch,
                          list(val_history), best_val)

    if on_best is not None and val_history and val_history[-1] == (start_epoch, best_val):
        on_best(snapshot(start_epoch))
    for epoch in range(start_epoch, cfg.epochs):
        for scene in scenes[iteration - epoch * len(scenes):]:
            rng = _iteration_rng(cfg.seed, iteration)
            try:
                sub = sample_subsequence(scene, rng, cfg.subseq_min, cfg.subseq_max)
                if cfg.aug.enabled:
                    sub = augment(sub, rng, cfg.aug.alpha_range_deg,
                                  cfg.aug.gamma_range_deg)
                target = sub
                if cfg.outliers.enabled:
                    net_input, _ = inject_outliers(sub, cfg.outliers.rate, rng)
                else:
                    net_input = sub
                ad.zero_grads(params.tensors.values())
                out = forward(net_input, params)
                total, report = loss(target, out)
                ad.backward(total, params=params.tensors.values())
                normalize_param_grads(params)
                adam_step(params, state, lr_at(iteration, cfg))
            except NumericError as e:
                return TrainResult(snapshot(epoch), np.asarray(losses), str(e))
            losses.append(report.mean_reprojection)
            if iteration_callback is not None:
                iteration_callback(iteration=iteration, net_input=net_input,
                                   target=target, report=report)
            iteration += 1
        if val_scenes and (epoch + 1) % cfg.validate_every == 0:
            try:
                val = validation_error(val_scenes, params)
            except NumericError as e:
                return TrainResult(snapshot(epoch + 1), np.asarray(losses), str(e))
            val_history.append((epoch + 1, val))
            if best_val is None or val < best_val:
                best_val = val
                if on_best is not None:
                    on_best(snapshot(epoch + 1))

    return TrainResult(snapshot(max(start_epoch, cfg.epochs)), np.asarray(losses))
