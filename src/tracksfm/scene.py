"""Scene representation: sparse 2D point tracks with optional calibration
and ground truth, JSON ingestion/emission, coordinate normalization, view
subsetting, a synthetic scene generator for tests and experiments, and the
numpy camera projection that the generator, augmentation, bundle adjustment
and the metrics share.

A scene holds measurements m_ij for every (view i, scene point j) pair
marked visible in the observability pattern. Observations are stored in
canonical row-major order, sorted by (view, point); all per-observation
arrays elsewhere in the package follow that order. Arrays are frozen
(read-only) after construction, so scenes are safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .rotations import look_at_rotation, matrix_to_quat, quat_to_matrix

EUCLIDEAN = "euclidean"
PROJECTIVE = "projective"


class SceneError(ValueError):
    """Base class for scene validation failures."""


class MalformedSceneError(SceneError):
    """File does not conform to the scene JSON format."""


class DuplicateObservationError(SceneError):
    """The same (view, point) pair appears more than once."""


class IndexRangeError(SceneError):
    """A view or point index is outside [0, num_views) / [0, num_points)."""


class CoverageError(SceneError):
    """A point is seen in < 2 views, or a view sees < 2 points."""


class SingularIntrinsicsError(SceneError):
    """An intrinsics matrix is not invertible."""


class DegenerateViewError(SceneError):
    """All image points of a view coincide; Hartley scale is undefined."""


class InfeasibleVisibilityError(SceneError):
    """Generator cannot satisfy the minimum-coverage constraints."""


class EmptySubsceneError(SceneError):
    """View subsetting left no valid scene."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Incidence:
    """Segment structure of a scene's observations. Observations of view i
    are rows view_bounds[i]:view_bounds[i + 1] of the canonical order; those
    of point j are rows point_order[point_bounds[j]:point_bounds[j + 1]],
    in canonical order (point_order is the stable sort by point)."""

    view_bounds: np.ndarray    # (m + 1,)
    point_order: np.ndarray    # (N,)
    point_bounds: np.ndarray   # (n + 1,)


@dataclass(frozen=True)
class Scene:
    """Sparse point-track measurements for one scene.

    observations are split into parallel arrays: view_idx, point_idx (int64)
    and xy (N, 2) float64, sorted by (view, point). Coordinates are either
    raw pixels (with `intrinsics` present) or normalized, depending on how
    far through the pipeline the scene is.
    """

    num_views: int
    num_points: int
    view_idx: np.ndarray
    point_idx: np.ndarray
    xy: np.ndarray
    mode: str = EUCLIDEAN
    intrinsics: np.ndarray | None = None       # (m, 3, 3)
    gt_quats: np.ndarray | None = None         # (m, 4), (w, x, y, z)
    gt_centers: np.ndarray | None = None       # (m, 3)
    gt_points: np.ndarray | None = None        # (n, 3)

    def __post_init__(self):
        m, n = self.num_views, self.num_points
        if self.mode not in (EUCLIDEAN, PROJECTIVE):
            raise MalformedSceneError(f"unknown mode {self.mode!r}")
        if m < 0 or n < 0:
            raise MalformedSceneError(f"negative scene size ({m} views, {n} points)")
        vi = np.ascontiguousarray(np.asarray(self.view_idx, dtype=np.int64))
        pi = np.ascontiguousarray(np.asarray(self.point_idx, dtype=np.int64))
        xy = np.ascontiguousarray(np.asarray(self.xy, dtype=np.float64))
        if vi.shape != pi.shape or xy.shape != (vi.size, 2):
            raise MalformedSceneError("observation arrays have inconsistent shapes")
        if not np.isfinite(xy).all():
            raise MalformedSceneError("observations must be finite")
        if vi.size and (vi.min() < 0 or vi.max() >= m):
            raise IndexRangeError("view index out of range")
        if pi.size and (pi.min() < 0 or pi.max() >= n):
            raise IndexRangeError("point index out of range")
        if 2 * max(m, n) > vi.size:          # before any array is sized by m or n
            raise CoverageError(f"{m} views and {n} points need at least "
                                f"{2 * max(m, n)} observations, not {vi.size}")
        order = np.lexsort((pi, vi))
        vi, pi, xy = vi[order], pi[order], xy[order]
        key = vi * n + pi
        if np.any(np.diff(key) == 0):
            dup = int(np.flatnonzero(np.diff(key) == 0)[0])
            raise DuplicateObservationError(
                f"duplicate observation (view={vi[dup]}, point={pi[dup]})")
        views_per_point = np.bincount(pi, minlength=n)
        points_per_view = np.bincount(vi, minlength=m)
        if np.any(views_per_point < 2):
            bad = int(np.argmin(views_per_point))
            raise CoverageError(
                f"point {bad} observed in {views_per_point[bad]} view(s), need >= 2")
        if np.any(points_per_view < 2):
            bad = int(np.argmin(points_per_view))
            raise CoverageError(
                f"view {bad} observes {points_per_view[bad]} point(s), need >= 2")
        object.__setattr__(self, "view_idx", _freeze(vi))
        object.__setattr__(self, "point_idx", _freeze(pi))
        object.__setattr__(self, "xy", _freeze(xy))
        for name, expect in (("intrinsics", (m, 3, 3)), ("gt_quats", (m, 4)),
                             ("gt_centers", (m, 3)), ("gt_points", (n, 3))):
            val = getattr(self, name)
            if val is None:
                continue
            arr = np.ascontiguousarray(np.asarray(val, dtype=np.float64))
            if arr.shape != expect:
                raise MalformedSceneError(f"{name} has shape {arr.shape}, expected {expect}")
            if not np.isfinite(arr).all():
                raise MalformedSceneError(f"{name} must be finite")
            object.__setattr__(self, name, _freeze(arr))
        if (self.gt_quats is None) != (self.gt_centers is None):
            raise MalformedSceneError("gt poses need both quaternions and centers")

    @property
    def num_observations(self) -> int:
        return int(self.view_idx.size)

    @cached_property
    def incidence(self) -> Incidence:
        """Computed on first read and cached on this scene. Every scene
        builder (`replace` included) makes a new Scene, which computes its
        own."""
        def bounds(idx, size):
            return np.concatenate([[0], np.cumsum(np.bincount(idx, minlength=size))])
        return Incidence(
            view_bounds=_freeze(bounds(self.view_idx, self.num_views)),
            point_order=_freeze(np.argsort(self.point_idx, kind="stable")),
            point_bounds=_freeze(bounds(self.point_idx, self.num_points)))


# Projections with |depth| below this cannot be dehomogenized; `project`
# reports them as infinite image points.
DEPTH_GUARD = 1e-12


def pose_matrices(R: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Camera matrices [R | -Rc], shape (m, 3, 4), from world-to-camera
    rotations (m, 3, 3) and centers (m, 3)."""
    t = -np.einsum("kab,kb->ka", R, centers)
    return np.concatenate([R, t[:, :, None]], axis=2)


def project(P: np.ndarray, points: np.ndarray, view_idx: np.ndarray,
            point_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project points[point_idx] through the 3x4 cameras P[view_idx].

    Returns (xy (N, 2), z (N, 3)) with z = P[view] [X; 1] in camera-frame
    coordinates and xy = z[:2] / z[2]; xy is inf where |z[2]| < DEPTH_GUARD.
    """
    Xh = np.concatenate([points, np.ones((len(points), 1))], axis=1)
    z = np.einsum("kab,kb->ka", P[view_idx], Xh[point_idx])
    guarded = np.abs(z[:, 2]) < DEPTH_GUARD
    xy = z[:, :2] / np.where(guarded, 1.0, z[:, 2])[:, None]
    xy[guarded] = np.inf
    return xy, z


@dataclass(frozen=True)
class NormalizationRecord:
    """Per-view affine image transforms applied during normalization.

    transforms[i] maps raw to normalized homogeneous coordinates and
    inverses[i] maps back; transforms[i] @ inverses[i] = I to 1e-12.
    """

    transforms: np.ndarray   # (m, 3, 3)
    inverses: np.ndarray     # (m, 3, 3)

    def __post_init__(self):
        T = np.asarray(self.transforms, dtype=np.float64)
        Ti = np.asarray(self.inverses, dtype=np.float64)
        eye = np.broadcast_to(np.eye(3), T.shape)
        if not np.allclose(T @ Ti, eye, atol=1e-12):
            raise SceneError("normalization transform and inverse do not compose to identity")
        object.__setattr__(self, "transforms", _freeze(np.ascontiguousarray(T)))
        object.__setattr__(self, "inverses", _freeze(np.ascontiguousarray(Ti)))

    @classmethod
    def identity(cls, m: int) -> "NormalizationRecord":
        eye = np.tile(np.eye(3), (m, 1, 1))
        return cls(eye, eye.copy())

    def to_pixels(self, view: np.ndarray, xy: np.ndarray) -> np.ndarray:
        """Map normalized coordinates back to pixel units, per observation."""
        T = self.inverses[view]
        h = np.concatenate([xy, np.ones((len(xy), 1))], axis=1)
        p = np.einsum("nij,nj->ni", T, h)
        return p[:, :2] / p[:, 2:3]


def _apply_homogeneous(T: np.ndarray, xy: np.ndarray) -> np.ndarray:
    h = np.concatenate([xy, np.ones((len(xy), 1))], axis=1)
    p = h @ T.T
    return p[:, :2] / p[:, 2:3]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_count(v) -> bool:
    return _is_number(v) and isinstance(v, int) and v >= 0


def _numbers(value, name: str, width: int) -> np.ndarray:
    """value, a JSON list of lists of `width` numbers, as a finite (k, width)
    float64 array (an empty list reads as (0, width)); ValueError names the field."""
    if value == []:
        return np.empty((0, width))
    try:
        arr = np.asarray(value)
    except ValueError:                       # ragged lists
        arr = np.empty(0, dtype=object)
    if arr.dtype.kind not in "if" or arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{name} must be lists of {width} numbers")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _columns(value, name: str, keys: tuple) -> list:
    """One list per key of the values under it, from a JSON list of objects
    whose keys are exactly `keys` (scene gt_poses, reconstruction cameras)."""
    if not (isinstance(value, list)
            and all(isinstance(o, dict) and o.keys() == set(keys) for o in value)):
        raise ValueError(f"{name} must be a list of objects with keys "
                         f"{', '.join(map(repr, keys))}")
    return [[o[key] for o in value] for key in keys]


def _poses_json(quats: np.ndarray, centers: np.ndarray) -> list:
    """Poses as the {"q", "c"} objects that _columns reads."""
    return [{"q": q, "c": c} for q, c in zip(quats.tolist(), centers.tolist())]


def load_scene(path) -> Scene:
    """Read a scene from the documented JSON format. Checks the JSON type of
    each field, naming it in a MalformedSceneError; the Scene checks the rest."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        if not isinstance(doc, dict):
            raise ValueError("top level must be an object")
        for name in ("num_views", "num_points"):
            if not _is_count(doc.get(name)):
                raise ValueError(f"{name} must be a non-negative integer")
        obs = _numbers(doc.get("observations"), "observations", 4)
        if np.any(obs[:, :2] != np.round(obs[:, :2])):
            raise ValueError("observation indices must be integers")
        optional = {}
        if doc.get("intrinsics") is not None:
            optional["intrinsics"] = _numbers(doc["intrinsics"], "intrinsics", 9).reshape(-1, 3, 3)
        if doc.get("gt_poses") is not None:
            quats, centers = _columns(doc["gt_poses"], "gt_poses", ("q", "c"))
            optional["gt_quats"] = _numbers(quats, "gt_quats", 4)
            optional["gt_centers"] = _numbers(centers, "gt_centers", 3)
        if doc.get("gt_points") is not None:
            optional["gt_points"] = _numbers(doc["gt_points"], "gt_points", 3)
    except ValueError as e:                  # JSONDecodeError included
        raise MalformedSceneError(str(e)) from e
    return Scene(num_views=doc["num_views"], num_points=doc["num_points"],
                 view_idx=obs[:, 0].astype(np.int64), point_idx=obs[:, 1].astype(np.int64),
                 xy=obs[:, 2:], mode=doc.get("mode"), **optional)


def save_scene(scene: Scene, path) -> None:
    """Write a scene in the documented JSON format (full double precision)."""
    doc = {
        "num_views": scene.num_views,
        "num_points": scene.num_points,
        "mode": scene.mode,
        "observations": [[i, j, x, y] for i, j, (x, y) in zip(
            scene.view_idx.tolist(), scene.point_idx.tolist(), scene.xy.tolist())],
    }
    if scene.intrinsics is not None:
        doc["intrinsics"] = scene.intrinsics.reshape(-1, 9).tolist()
    if scene.gt_quats is not None:
        doc["gt_poses"] = _poses_json(scene.gt_quats, scene.gt_centers)
    if scene.gt_points is not None:
        doc["gt_points"] = scene.gt_points.tolist()
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def normalize_euclidean(scene: Scene) -> tuple[Scene, NormalizationRecord]:
    """Replace pixel measurements by K^{-1}-normalized image coordinates.

    Requires intrinsics for every view. The returned record stores K^{-1}
    (forward) and K (inverse) per view for recovering pixel-unit errors.
    """
    if scene.intrinsics is None:
        raise SceneError("normalize_euclidean requires intrinsics")
    K = scene.intrinsics
    if np.any(np.abs(np.linalg.det(K)) < 1e-12):
        bad = int(np.argmin(np.abs(np.linalg.det(K))))
        raise SingularIntrinsicsError(f"intrinsics of view {bad} are singular")
    Kinv = np.linalg.inv(K)
    xy = np.empty_like(scene.xy)
    for i in range(scene.num_views):
        sel = scene.view_idx == i
        xy[sel] = _apply_homogeneous(Kinv[i], scene.xy[sel])
    record = NormalizationRecord(transforms=Kinv, inverses=K)
    out = replace(scene, xy=xy, intrinsics=None)
    return out, record


def normalize_hartley(scene: Scene) -> tuple[Scene, NormalizationRecord]:
    """Per-view translation/scaling to zero centroid and mean radius sqrt(2)."""
    if scene.mode != PROJECTIVE:
        raise SceneError("Hartley normalization applies to projective scenes")
    T = np.zeros((scene.num_views, 3, 3))
    Tinv = np.zeros_like(T)
    xy = np.empty_like(scene.xy)
    for i in range(scene.num_views):
        sel = scene.view_idx == i
        pts = scene.xy[sel]
        centroid = pts.mean(axis=0)
        mean_dist = np.linalg.norm(pts - centroid, axis=1).mean()
        if mean_dist < 1e-12:
            raise DegenerateViewError(f"all points of view {i} coincide")
        s = np.sqrt(2.0) / mean_dist
        T[i] = [[s, 0, -s * centroid[0]], [0, s, -s * centroid[1]], [0, 0, 1]]
        Tinv[i] = [[1 / s, 0, centroid[0]], [0, 1 / s, centroid[1]], [0, 0, 1]]
        xy[sel] = _apply_homogeneous(T[i], pts)
    record = NormalizationRecord(transforms=T, inverses=Tinv)
    return replace(scene, xy=xy), record


@dataclass(frozen=True)
class SceneGenConfig:
    """Settings for the synthetic generator.

    Cameras sit on a jittered ring segment of the given radius and arc,
    ordered by ring angle (so view indices follow capture order, the way
    real capture walks do), all looking at a point cloud inside a
    unit-scale box around the origin. Every point therefore has positive
    depth in every camera by construction.
    """

    num_views: int = 10
    num_points: int = 100
    visibility: float = 1.0
    noise_sigma: float = 0.0
    ring_radius: float = 4.0
    arc_degrees: float = 360.0
    box_size: float = 1.0
    mode: str = EUCLIDEAN
    max_repair_rounds: int = 100


def generate_synthetic(cfg: SceneGenConfig, seed: int) -> Scene:
    """Generate a deterministic synthetic scene with exact ground truth.

    Observations are exact projections of gt_points under gt_poses, plus
    optional Gaussian noise of cfg.noise_sigma (in normalized units). The
    visibility mask is repaired so every view keeps >= 8 points and every
    point >= 2 views.
    """
    m, n = cfg.num_views, cfg.num_points
    if m < 2 or n < 8:
        raise InfeasibleVisibilityError("need num_views >= 2 and num_points >= 8")
    if not 0.0 < cfg.visibility <= 1.0:
        raise InfeasibleVisibilityError("visibility must be in (0, 1]")
    rng = np.random.default_rng(seed)

    half = cfg.box_size / 2.0
    points = rng.uniform(-half, half, size=(n, 3))

    arc = np.deg2rad(cfg.arc_degrees)
    angles = rng.uniform(0.0, 2.0 * np.pi) + np.sort(rng.uniform(0.0, arc, size=m))
    radii = cfg.ring_radius * (1.0 + rng.uniform(-0.1, 0.1, size=m))
    heights = rng.uniform(-0.5, 0.5, size=m) * cfg.box_size
    centers = np.stack([radii * np.cos(angles), radii * np.sin(angles), heights], axis=1)
    look_targets = rng.uniform(-0.1, 0.1, size=(m, 3)) * cfg.box_size
    quats = np.stack([
        matrix_to_quat(look_at_rotation(centers[i], look_targets[i]))
        for i in range(m)
    ])

    visible = rng.random((m, n)) < cfg.visibility
    for _ in range(cfg.max_repair_rounds):
        need_views = np.flatnonzero(visible.sum(axis=0) < 2)
        for j in need_views:
            off = np.flatnonzero(~visible[:, j])
            add = rng.choice(off, size=2 - int(visible[:, j].sum()), replace=False)
            visible[add, j] = True
        need_points = np.flatnonzero(visible.sum(axis=1) < 8)
        for i in need_points:
            off = np.flatnonzero(~visible[i])
            add = rng.choice(off, size=8 - int(visible[i].sum()), replace=False)
            visible[i, add] = True
        if np.all(visible.sum(axis=0) >= 2) and np.all(visible.sum(axis=1) >= 8):
            break
    else:
        raise InfeasibleVisibilityError("could not satisfy coverage constraints")

    vi, pi = np.nonzero(visible)
    xy, _ = project(pose_matrices(quat_to_matrix(quats), centers), points, vi, pi)
    if cfg.noise_sigma > 0:
        xy = xy + rng.normal(0.0, cfg.noise_sigma, size=xy.shape)

    intrinsics = np.tile(np.eye(3), (m, 1, 1)) if cfg.mode == EUCLIDEAN else None
    return Scene(
        num_views=m, num_points=n,
        view_idx=vi.astype(np.int64), point_idx=pi.astype(np.int64), xy=xy,
        mode=cfg.mode, intrinsics=intrinsics,
        gt_quats=quats, gt_centers=centers, gt_points=points,
    )


@dataclass(frozen=True)
class SubsetMaps:
    """Provenance of a subsampled scene: new index -> original index."""

    view_map: np.ndarray
    point_map: np.ndarray


def subsample_views(scene: Scene, view_subset) -> tuple[Scene, SubsetMaps]:
    """Restrict a scene to a subset of views.

    Points left with < 2 observing views are dropped; if that pushes a view
    below 2 points the view is dropped too, iterating to a fixed point so
    the result always satisfies the scene invariants. Indices are
    re-densified; the returned maps give original indices.
    """
    subset = np.asarray(view_subset, dtype=np.int64)
    if subset.size == 0:
        raise EmptySubsceneError("view subset is empty")
    if len(np.unique(subset)) != subset.size:
        raise IndexRangeError("view subset contains duplicates")
    if subset.min() < 0 or subset.max() >= scene.num_views:
        raise IndexRangeError("view subset index out of range")

    keep_views = np.zeros(scene.num_views, dtype=bool)
    keep_views[subset] = True
    keep_points = np.ones(scene.num_points, dtype=bool)
    while True:
        mask = keep_views[scene.view_idx] & keep_points[scene.point_idx]
        vcount = np.bincount(scene.point_idx[mask], minlength=scene.num_points)
        drop_p = keep_points & (vcount < 2)
        pcount = np.bincount(scene.view_idx[mask], minlength=scene.num_views)
        drop_v = keep_views & (pcount < 2)
        if not drop_p.any() and not drop_v.any():
            break
        keep_points &= ~drop_p
        keep_views &= ~drop_v
    if not mask.any() or keep_views.sum() == 0 or keep_points.sum() == 0:
        raise EmptySubsceneError("no valid observations remain after filtering")

    view_map = subset[keep_views[subset]]
    point_map = np.flatnonzero(keep_points)
    new_view = np.full(scene.num_views, -1, dtype=np.int64)
    new_view[view_map] = np.arange(view_map.size)
    new_point = np.full(scene.num_points, -1, dtype=np.int64)
    new_point[point_map] = np.arange(point_map.size)

    sub = Scene(
        num_views=int(view_map.size), num_points=int(point_map.size),
        view_idx=new_view[scene.view_idx[mask]],
        point_idx=new_point[scene.point_idx[mask]],
        xy=scene.xy[mask],
        mode=scene.mode,
        intrinsics=None if scene.intrinsics is None else scene.intrinsics[view_map],
        gt_quats=None if scene.gt_quats is None else scene.gt_quats[view_map],
        gt_centers=None if scene.gt_centers is None else scene.gt_centers[view_map],
        gt_points=None if scene.gt_points is None else scene.gt_points[point_map],
    )
    return sub, SubsetMaps(view_map=view_map, point_map=point_map)
