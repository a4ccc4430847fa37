"""Classical post-processing and evaluation: DLT triangulation, two-round
Huber bundle adjustment via Levenberg-Marquardt with a point-block Schur
complement, closed-form similarity alignment, and the three evaluation
metrics (pixel reprojection, rotation degrees, translation distance).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import scatter_add
from .network import Reconstruction
from .rotations import matrix_to_quat, quat_multiply, quat_normalize, quat_to_matrix
from .scene import (DEPTH_GUARD, EUCLIDEAN, PROJECTIVE, NormalizationRecord, Scene,
                    pose_matrices, project)


class DegenerateConfigError(ValueError):
    """Camera configuration too degenerate for similarity alignment."""


# Levenberg-Marquardt damping schedule and stopping tolerances.
LM_LAMBDA_INIT = 1e-3
LM_LAMBDA_SCALE = 10.0
LM_LAMBDA_MAX = 1e12
REL_DECREASE_TOL = 1e-12
GRAD_TOL = 1e-12


@dataclass(frozen=True)
class BaConfig:
    huber_threshold: float = 0.1          # normalized units
    max_iters_per_round: int = 100
    rounds: int = 2                        # interleaved with triangulation

    def __post_init__(self):
        if self.huber_threshold <= 0 or self.rounds < 1:
            raise ValueError("huber threshold must be positive, rounds >= 1")


@dataclass
class BaDiagnostics:
    """Accepted-step objective sequences per round, plus exit status."""

    objectives: list = field(default_factory=list)   # one list per round
    converged: bool = True
    message: str = ""


def camera_matrices(recon: Reconstruction) -> np.ndarray:
    """Per-view 3x4 projection matrices ([R | -Rc] in euclidean mode)."""
    if recon.mode == EUCLIDEAN:
        return pose_matrices(quat_to_matrix(recon.quats), recon.centers)
    return recon.matrices


# -- triangulation ----------------------------------------------------------

def triangulate(scene: Scene, recon: Reconstruction) -> tuple[np.ndarray, np.ndarray]:
    """DLT: per point, stack  x*P_3 - P_1  and  y*P_3 - P_2  over all
    observing views and take the smallest right singular vector.

    Returns (points (n, 3), degenerate mask). A point is flagged degenerate
    when the system is rank-deficient (all rays parallel) or the
    homogeneous solution has (near-)zero last coordinate; flagged points
    keep the input reconstruction's coordinates.
    """
    P = camera_matrices(recon)
    n = scene.num_points
    points = recon.points.copy()
    degenerate = np.zeros(n, dtype=bool)
    order = np.argsort(scene.point_idx, kind="stable")
    pj = scene.point_idx[order]
    vj = scene.view_idx[order]
    xyj = scene.xy[order]
    bounds = np.searchsorted(pj, np.arange(n + 1))
    for j in range(n):
        lo, hi = bounds[j], bounds[j + 1]
        views = vj[lo:hi]
        xy = xyj[lo:hi]
        A = np.empty((2 * len(views), 4))
        A[0::2] = xy[:, :1] * P[views, 2] - P[views, 0]
        A[1::2] = xy[:, 1:2] * P[views, 2] - P[views, 1]
        _, sv, Vt = np.linalg.svd(A, full_matrices=True)
        X = Vt[-1]
        if sv[2] <= 1e-10 * sv[0] or abs(X[3]) < 1e-12:
            degenerate[j] = True
            continue
        points[j] = X[:3] / X[3]
    return points, degenerate


# -- bundle adjustment --------------------------------------------------------

def _residuals(scene: Scene, P: np.ndarray, points: np.ndarray):
    xy, z = project(P, points, scene.view_idx, scene.point_idx)
    return scene.xy - xy, z


def _robust_objective(r: np.ndarray, delta: float) -> float:
    e = np.linalg.norm(r, axis=1)
    quad = e <= delta
    vals = np.where(quad, 0.5 * e * e, delta * (e - 0.5 * delta))
    return float(vals.sum())


def _huber_weights(r: np.ndarray, delta: float) -> np.ndarray:
    e = np.linalg.norm(r, axis=1)
    w = np.ones_like(e)
    tail = e > delta
    w[tail] = delta / e[tail]
    return w


def _so3_exp_quat(w: np.ndarray) -> np.ndarray:
    """Axis-angle rows (k, 3) -> unit quaternions (k, 4); rows with angle
    below 1e-12 take the first-order quaternion, renormalized."""
    theta = np.linalg.norm(w, axis=1, keepdims=True)
    small = theta < 1e-12
    axis = w / np.where(small, 1.0, theta)
    q = np.concatenate([np.cos(theta / 2), np.sin(theta / 2) * axis], axis=1)
    q_small = quat_normalize(np.concatenate([np.ones_like(theta), 0.5 * w], axis=1))
    return np.where(small, q_small, q)


class _EuclideanState:
    """Camera = (quat, center), 6 local dof: axis-angle increment composed
    on the left of the rotation, plus a center offset."""

    def __init__(self, recon: Reconstruction):
        self.quats = recon.quats.copy()
        self.centers = recon.centers.copy()
        self.points = recon.points.copy()

    def matrices(self) -> np.ndarray:
        return pose_matrices(quat_to_matrix(self.quats), self.centers)

    def cam_jacobian(self, scene: Scene, z: np.ndarray) -> np.ndarray:
        """d z / d [omega, dc] per observation, shape (N, 3, 6)."""
        N = len(z)
        J = np.zeros((N, 3, 6))
        # d(exp(w) z)/dw at w=0 is -[z]x
        J[:, 0, 1], J[:, 0, 2] = z[:, 2], -z[:, 1]
        J[:, 1, 0], J[:, 1, 2] = -z[:, 2], z[:, 0]
        J[:, 2, 0], J[:, 2, 1] = z[:, 1], -z[:, 0]
        R = quat_to_matrix(self.quats)[scene.view_idx]
        J[:, :, 3:] = -R
        return J

    def point_jacobian(self, scene: Scene) -> np.ndarray:
        return quat_to_matrix(self.quats)[scene.view_idx]

    def apply_cam_step(self, delta: np.ndarray) -> None:
        self.quats = quat_normalize(quat_multiply(_so3_exp_quat(delta[:, :3]), self.quats))
        self.centers += delta[:, 3:]

    def snapshot(self):
        return (self.quats.copy(), self.centers.copy(), self.points.copy())

    def restore(self, snap) -> None:
        self.quats, self.centers, self.points = (a.copy() for a in snap)

    def to_reconstruction(self) -> Reconstruction:
        return Reconstruction(mode=EUCLIDEAN, quats=self.quats.copy(),
                              centers=self.centers.copy(), points=self.points.copy())


class _ProjectiveState:
    """Camera = 3x4 matrix, 12 raw dof; the scale/sign gauge is fixed by
    renormalizing after each accepted step (the objective is invariant)."""

    def __init__(self, recon: Reconstruction):
        self.P = recon.matrices.copy()
        self.points = recon.points.copy()

    def matrices(self) -> np.ndarray:
        return self.P

    def cam_jacobian(self, scene: Scene, z: np.ndarray) -> np.ndarray:
        N = len(z)
        Xh = np.concatenate([self.points, np.ones((len(self.points), 1))], axis=1)
        Xo = Xh[scene.point_idx]
        J = np.zeros((N, 3, 12))
        for k in range(3):
            J[:, k, 4 * k:4 * k + 4] = Xo
        return J

    def point_jacobian(self, scene: Scene) -> np.ndarray:
        return self.P[scene.view_idx][:, :, :3]

    def apply_cam_step(self, delta: np.ndarray) -> None:
        self.P += delta.reshape(-1, 3, 4)
        flat = self.P.reshape(-1, 12)
        norm = np.linalg.norm(flat, axis=1, keepdims=True)
        flat /= np.where(norm < 1e-300, 1.0, norm)
        lead = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=1)]
        flat *= np.where(lead < 0, -1.0, 1.0)[:, None]
        self.P = flat.reshape(-1, 3, 4)

    def snapshot(self):
        return (self.P.copy(), self.points.copy())

    def restore(self, snap) -> None:
        self.P, self.points = (a.copy() for a in snap)

    def to_reconstruction(self) -> Reconstruction:
        return Reconstruction(mode=PROJECTIVE, matrices=self.P.copy(),
                              points=self.points.copy())


@dataclass
class _NormalBlocks:
    """Gauss-Newton normal-equation blocks of the robustified objective."""

    U: np.ndarray        # (m, dc, dc) camera diagonal blocks
    V: np.ndarray        # (n, 3, 3) point diagonal blocks
    W: np.ndarray        # (N_u, dc, 3) per-observation coupling blocks
    gc: np.ndarray       # (m, dc) camera gradient
    gp: np.ndarray       # (n, 3) point gradient
    vi: np.ndarray
    pi: np.ndarray


def _build_normal_blocks(scene: Scene, state, cfg: BaConfig) -> _NormalBlocks:
    m, n = scene.num_views, scene.num_points
    r, z = _residuals(scene, state.matrices(), state.points)
    usable = np.abs(z[:, 2]) >= DEPTH_GUARD

    # dr/d(param) = -dPi/dz . dz/d(param), whitened by sqrt Huber weights
    w = np.sqrt(_huber_weights(r[usable], cfg.huber_threshold))
    zs = z[usable]
    dPi = np.zeros((int(usable.sum()), 2, 3))
    inv = 1.0 / zs[:, 2]
    dPi[:, 0, 0] = inv
    dPi[:, 1, 1] = inv
    dPi[:, 0, 2] = -zs[:, 0] * inv * inv
    dPi[:, 1, 2] = -zs[:, 1] * inv * inv
    dPi *= -w[:, None, None]
    Jc = dPi @ state.cam_jacobian(scene, z)[usable]
    Jp = dPi @ state.point_jacobian(scene)[usable]
    rw = r[usable] * w[:, None]
    vi_u, pi_u = scene.view_idx[usable], scene.point_idx[usable]

    U = scatter_add(vi_u, np.einsum("kab,kac->kbc", Jc, Jc), m)
    V = scatter_add(pi_u, np.einsum("kab,kac->kbc", Jp, Jp), n)
    gc = scatter_add(vi_u, np.einsum("kab,ka->kb", Jc, rw), m)
    gp = scatter_add(pi_u, np.einsum("kab,ka->kb", Jp, rw), n)
    W = Jc.transpose(0, 2, 1) @ Jp
    return _NormalBlocks(U=U, V=V, W=W, gc=gc, gp=gp, vi=vi_u, pi=pi_u)


def _damped(blocks: np.ndarray, lam: float) -> np.ndarray:
    out = blocks.copy()
    diag = np.einsum("kii->ki", out)
    diag += lam * np.maximum(diag, 1e-12)
    return out


# Points per slab in the Schur assembly. Each (m, dc, SCHUR_SLICE, 3) slab
# takes 24 * m * dc * SCHUR_SLICE bytes (0.55 MB at m=30, dc=6), so the
# assembly's memory does not grow with the number of points; at 30 views and
# 1000 points one slab over all points doubles the step's peak allocation
# (14.1 MB against 6.7 MB).
SCHUR_SLICE = 128


def solve_schur_step(nb: _NormalBlocks, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve the damped normal equations by eliminating the point blocks.

    Returns (delta_cameras (m, dc), delta_points (n, 3)); raises
    numpy.linalg.LinAlgError when the reduced system cannot be solved.
    """
    m, dc = nb.U.shape[:2]
    n = len(nb.V)
    Ud = _damped(nb.U, lam)
    Vinv = np.linalg.inv(_damped(nb.V, lam))
    order = np.argsort(nb.pi, kind="stable")
    vi, pi, W = nb.vi[order], nb.pi[order], nb.W[order]
    Y = W @ Vinv[pi]

    # S = blockdiag(Ud) - sum_j W_j Vinv_j W_j^T, with W_j the coupling
    # blocks of point j stacked over all cameras (zero where unobserved).
    # Per slice of points, W and Y = W Vinv are scattered into dense
    # (m, dc, slice, 3) slabs and one slab product is subtracted; scenes
    # hold no duplicate (view, point) pair, so no slab entry is written twice.
    S = np.zeros((m * dc, m * dc))
    rhs = -nb.gc.ravel()
    bounds = np.searchsorted(pi, np.arange(0, n + SCHUR_SLICE, SCHUR_SLICE))
    for j0, lo, hi in zip(range(0, n, SCHUR_SLICE), bounds[:-1], bounds[1:]):
        width = min(SCHUR_SLICE, n - j0)
        W_slab = np.zeros((m, dc, width, 3))
        Y_slab = np.zeros((m, dc, width, 3))
        W_slab[vi[lo:hi], :, pi[lo:hi] - j0] = W[lo:hi]
        Y_slab[vi[lo:hi], :, pi[lo:hi] - j0] = Y[lo:hi]
        Y_flat = Y_slab.reshape(m * dc, 3 * width)
        S -= Y_flat @ W_slab.reshape(m * dc, 3 * width).T
        rhs += Y_flat @ nb.gp[j0:j0 + width].ravel()
    cams = np.arange(m)
    S.reshape(m, dc, m, dc)[cams, :, cams] += Ud

    delta_c = np.linalg.solve(S, rhs).reshape(m, dc)
    resid_p = -nb.gp - scatter_add(pi, np.einsum("kab,ka->kb", W, delta_c[vi]), n)
    delta_p = np.einsum("kab,kb->ka", Vinv, resid_p)
    return delta_c, delta_p


def solve_dense_step(nb: _NormalBlocks, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Assemble and solve the full damped normal equations without
    elimination: the correctness oracle for the Schur path on tiny
    problems."""
    m, dc = nb.U.shape[:2]
    n = len(nb.V)
    size = m * dc + 3 * n
    H = np.zeros((size, size))
    g = np.zeros(size)
    for i in range(m):
        H[i * dc:(i + 1) * dc, i * dc:(i + 1) * dc] = _damped(nb.U[i][None], lam)[0]
        g[i * dc:(i + 1) * dc] = nb.gc[i]
    off = m * dc
    for j in range(n):
        H[off + 3 * j:off + 3 * j + 3, off + 3 * j:off + 3 * j + 3] = \
            _damped(nb.V[j][None], lam)[0]
        g[off + 3 * j:off + 3 * j + 3] = nb.gp[j]
    for k in range(len(nb.W)):
        i, j = nb.vi[k], nb.pi[k]
        H[i * dc:(i + 1) * dc, off + 3 * j:off + 3 * j + 3] += nb.W[k]
        H[off + 3 * j:off + 3 * j + 3, i * dc:(i + 1) * dc] += nb.W[k].T
    delta = np.linalg.solve(H, -g)
    return delta[:m * dc].reshape(m, dc), delta[m * dc:].reshape(n, 3)


def _lm_round(scene: Scene, state, cfg: BaConfig, diagnostics: BaDiagnostics) -> None:
    """One Levenberg-Marquardt round; mutates state in place. Steps are
    accepted only when the true robust objective decreases, so the recorded
    trace is strictly decreasing."""
    lam = LM_LAMBDA_INIT

    r, _ = _residuals(scene, state.matrices(), state.points)
    obj = _robust_objective(r, cfg.huber_threshold)
    trace = [obj]
    diagnostics.objectives.append(trace)
    if not np.isfinite(obj):
        diagnostics.converged = False
        diagnostics.message = "non-finite objective at round start"
        return

    for _ in range(cfg.max_iters_per_round):
        nb = _build_normal_blocks(scene, state, cfg)
        ginf = max(np.abs(nb.gc).max(initial=0.0), np.abs(nb.gp).max(initial=0.0))
        if ginf < GRAD_TOL:
            return

        accepted = False
        while lam <= LM_LAMBDA_MAX:
            try:
                delta_c, delta_p = solve_schur_step(nb, lam)
            except np.linalg.LinAlgError:
                lam *= LM_LAMBDA_SCALE
                continue
            snap = state.snapshot()
            state.apply_cam_step(delta_c)
            state.points += delta_p
            r_new, _ = _residuals(scene, state.matrices(), state.points)
            new_obj = _robust_objective(r_new, cfg.huber_threshold)
            if np.isfinite(new_obj) and new_obj < obj:
                lam = max(lam / LM_LAMBDA_SCALE, 1e-15)
                rel = (obj - new_obj) / max(obj, 1e-300)
                obj = new_obj
                trace.append(obj)
                accepted = True
                if rel < REL_DECREASE_TOL:
                    return
                break
            state.restore(snap)
            lam *= LM_LAMBDA_SCALE
        if not accepted:
            diagnostics.converged = False
            diagnostics.message = "damping escalation exhausted"
            return


def bundle_adjust(scene: Scene, recon: Reconstruction,
                  cfg: BaConfig | None = None) -> tuple[Reconstruction, BaDiagnostics]:
    """Minimize the Huber-robustified reprojection objective over cameras
    and points, in `rounds` LM rounds interleaved with DLT triangulation.

    The objective is non-increasing over accepted LM steps within each
    round (asserted by the diagnostics); re-triangulation between rounds
    restarts the point coordinates from the refined cameras.
    """
    cfg = cfg or BaConfig()
    if recon.mode != scene.mode:
        raise ValueError("reconstruction mode does not match scene mode")
    if recon.points.shape[0] != scene.num_points:
        raise ValueError("reconstruction has wrong number of points")
    _check_camera_count(scene, recon)
    state = _EuclideanState(recon) if recon.mode == EUCLIDEAN else _ProjectiveState(recon)
    diagnostics = BaDiagnostics()
    for rnd in range(cfg.rounds):
        _lm_round(scene, state, cfg, diagnostics)
        if rnd < cfg.rounds - 1:
            pts, _ = triangulate(scene, state.to_reconstruction())
            state.points = pts
    return state.to_reconstruction(), diagnostics


# -- similarity alignment ------------------------------------------------------

@dataclass(frozen=True)
class SimilarityTransform:
    """x -> scale * R(quat) x + translation, scale > 0."""

    scale: float
    quat: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        if self.scale <= 0:
            raise DegenerateConfigError("similarity scale must be positive")

    def matrix(self) -> np.ndarray:
        return quat_to_matrix(self.quat)

    def apply_points(self, X: np.ndarray) -> np.ndarray:
        return self.scale * X @ self.matrix().T + self.translation

    def apply_reconstruction(self, recon: Reconstruction) -> Reconstruction:
        """Transform a euclidean reconstruction into the target frame.

        Camera orientation maps as R_cam -> R_cam R^T so projections of
        transformed points are preserved (the scale folds into depth)."""
        return Reconstruction(
            mode=recon.mode,
            quats=matrix_to_quat(quat_to_matrix(recon.quats) @ self.matrix().T),
            centers=self.apply_points(recon.centers),
            points=self.apply_points(recon.points),
        )


def align_similarity(est: Reconstruction, gt: Reconstruction) -> SimilarityTransform:
    """Closed-form least-squares similarity mapping estimated camera
    centers onto the ground-truth ones (centroid/variance/SVD method).

    Deriving the rotation from the centers keeps the alignment anchored by
    the camera configuration as a whole, so a single bad pose reads as that
    camera's error instead of tilting the frame. Configurations where the
    centers do not pin the rotation (fewer than 3 cameras, or collinear
    centers) are rejected.
    """
    if est.mode != EUCLIDEAN or gt.mode != EUCLIDEAN:
        raise DegenerateConfigError("similarity alignment needs euclidean poses")
    ce, cg = est.centers, gt.centers
    if len(ce) < 3:
        raise DegenerateConfigError("need at least 3 cameras to align")
    mu_e, mu_g = ce.mean(axis=0), cg.mean(axis=0)
    de, dg = ce - mu_e, cg - mu_g
    sv = np.linalg.svd(de, compute_uv=False)
    if sv[0] < 1e-12 or sv[1] < 1e-9 * sv[0]:
        raise DegenerateConfigError("camera centers are (near-)collinear")

    cov = dg.T @ de / len(ce)
    U, d, Vt = np.linalg.svd(cov)
    D = np.diag([1.0, 1.0, np.sign(np.linalg.det(U) * np.linalg.det(Vt))])
    R_align = U @ D @ Vt
    var_e = (de * de).sum() / len(ce)
    s = float((d * np.diag(D)).sum() / var_e)
    if s <= 0:
        raise DegenerateConfigError("alignment produced non-positive scale")
    t = mu_g - s * R_align @ mu_e
    return SimilarityTransform(scale=s, quat=matrix_to_quat(R_align), translation=t)


# -- metrics ---------------------------------------------------------------------

@dataclass
class MetricsReport:
    mean_reprojection_px: float
    mean_rotation_deg: float
    mean_translation: float

    def as_dict(self) -> dict:
        return {
            "reprojection_px": self.mean_reprojection_px,
            "rotation_deg": self.mean_rotation_deg,
            "translation": self.mean_translation,
        }


def _check_camera_count(scene: Scene, recon: Reconstruction) -> None:
    if recon.num_views != scene.num_views:
        raise ValueError(f"reconstruction has {recon.num_views} cameras, "
                         f"scene has {scene.num_views} views")


def reprojection_errors_px(scene: Scene, recon: Reconstruction,
                           record: NormalizationRecord | None = None) -> np.ndarray:
    """Per-observation reprojection distance in pixel units, recovered by
    mapping both measured and projected points back through the
    normalization record (identity when none is given). Observations whose
    projection falls under the projector's depth guard read inf."""
    _check_camera_count(scene, recon)
    xy, _ = project(camera_matrices(recon), recon.points, scene.view_idx, scene.point_idx)
    guarded = np.isinf(xy[:, 0])
    if record is None:
        record = NormalizationRecord.identity(scene.num_views)
    measured_px = record.to_pixels(scene.view_idx, scene.xy)
    proj_px = record.to_pixels(scene.view_idx, np.where(guarded[:, None], 0.0, xy))
    return np.where(guarded, np.inf, np.linalg.norm(measured_px - proj_px, axis=1))


def metrics(scene: Scene, recon: Reconstruction, gt: Reconstruction,
            record: NormalizationRecord | None = None) -> MetricsReport:
    """The three evaluation numbers: mean pixel reprojection error of the
    reconstruction against the measured tracks, and mean rotation (deg) /
    translation errors of the cameras after similarity alignment to the
    ground truth. Alignment removes the gauge freedom, so a globally
    transformed copy of the ground truth scores (0, 0, 0)."""
    reproj = float(reprojection_errors_px(scene, recon, record).mean())
    transform = align_similarity(recon, gt)
    aligned = transform.apply_reconstruction(recon)
    Ra = quat_to_matrix(aligned.quats)
    Rg = quat_to_matrix(gt.quats)
    rel = np.einsum("kab,kcb->kac", Ra, Rg)       # R_est R_gt^T
    # quaternion-based angle: stable near the identity, unlike acos(trace)
    q = matrix_to_quat(rel)
    angles = 2.0 * np.arctan2(np.linalg.norm(q[:, 1:], axis=1), np.abs(q[:, 0]))
    rot_deg = float(np.degrees(np.mean(angles)))
    trans = float(np.linalg.norm(aligned.centers - gt.centers, axis=1).mean())
    return MetricsReport(mean_reprojection_px=reproj, mean_rotation_deg=rot_deg,
                         mean_translation=trans)


# -- reconstruction io -------------------------------------------------------------

def save_reconstruction(recon: Reconstruction, path) -> None:
    doc: dict = {"mode": recon.mode,
                 "points": [list(map(float, p)) for p in recon.points]}
    if recon.mode == EUCLIDEAN:
        doc["cameras"] = [
            {"q": list(map(float, q)), "c": list(map(float, c))}
            for q, c in zip(recon.quats, recon.centers)
        ]
    else:
        doc["cameras"] = [{"P": list(map(float, P.ravel()))} for P in recon.matrices]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def load_reconstruction(path) -> Reconstruction:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    points = np.asarray(doc["points"], dtype=np.float64)
    if doc["mode"] == EUCLIDEAN:
        quats = np.asarray([c["q"] for c in doc["cameras"]], dtype=np.float64)
        centers = np.asarray([c["c"] for c in doc["cameras"]], dtype=np.float64)
        return Reconstruction(mode=EUCLIDEAN, quats=quats, centers=centers, points=points)
    matrices = np.asarray([c["P"] for c in doc["cameras"]], dtype=np.float64).reshape(-1, 3, 4)
    return Reconstruction(mode=PROJECTIVE, matrices=matrices, points=points)


def export_ply(points: np.ndarray, path) -> None:
    """Binary little-endian PLY with double-precision vertex coordinates."""
    points = np.asarray(points, dtype="<f8")
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {len(points)}\n"
        "property double x\n"
        "property double y\n"
        "property double z\n"
        "end_header\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(np.ascontiguousarray(points).tobytes())
