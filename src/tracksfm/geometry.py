"""Classical post-processing and evaluation: DLT triangulation, two-round
Huber bundle adjustment via Levenberg-Marquardt with a point-block Schur
complement, closed-form similarity alignment, and the three evaluation
metrics (pixel reprojection, rotation degrees, translation distance).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import scatter_add
from .network import Reconstruction
from .rotations import matrix_to_quat, quat_multiply, quat_normalize, quat_to_matrix
from .scene import (DEPTH_GUARD, EUCLIDEAN, PROJECTIVE, Incidence, NormalizationRecord,
                    Scene, _columns, _numbers, _poses_json, pose_matrices, project)


class DegenerateConfigError(ValueError):
    """Camera configuration too degenerate for similarity alignment."""


# Levenberg-Marquardt damping schedule and stopping tolerances.
LM_LAMBDA_INIT = 1e-3
LM_LAMBDA_SCALE = 10.0
LM_LAMBDA_MAX = 1e12
REL_DECREASE_TOL = 1e-12
GRAD_TOL = 1e-12
# A rejected step no longer than STEP_TOL * (|x| + STEP_TOL), x the cameras
# and points, ends the round as converged (Ceres's parameter_tolerance;
# Madsen, Nielsen & Tingleff 2004, sec. 3.2). Near a minimum the objective
# changes with the square of the step, so a relative step below about
# sqrt(machine epsilon) changes it by no more than its rounding: rejecting
# such a step says the objective has reached its floor.
STEP_TOL = 1e-8


@dataclass(frozen=True)
class BaConfig:
    huber_threshold: float = 0.1          # normalized units
    max_iters_per_round: int = 100
    rounds: int = 2                        # each point restarts from refined or DLT between

    def __post_init__(self):
        if not 0 < self.huber_threshold < np.inf:
            raise ValueError("BA field 'huber_threshold' must be finite and positive")
        for name in ("max_iters_per_round", "rounds"):
            if getattr(self, name) < 1:
                raise ValueError(f"BA field {name!r} must be at least 1")


@dataclass
class BaDiagnostics:
    """Per-round LM record, plus exit status.

    Each list holds one entry per round: the objective at the start and
    after each accepted step; the damping lambda each accepted step was
    solved with; the number of rejected steps; why the round stopped
    ("relative decrease", "gradient", "small step", "iteration cap",
    "damping exhausted" or "non-finite start"); and the number of
    observations with depth <= 0 at round start and at round end.
    `restart_kept` holds one entry per round boundary: the number of points
    that kept their refined position rather than their re-triangulation.
    """

    objectives: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)
    rejected: list = field(default_factory=list)
    stop_reasons: list = field(default_factory=list)
    behind_camera: list = field(default_factory=list)   # [start, end] pairs
    restart_kept: list = field(default_factory=list)
    converged: bool = True
    message: str = ""


# Stop reasons that make a round fail, with their exit messages.
_FAILURES = {"damping exhausted": "damping escalation exhausted",
             "non-finite start": "non-finite objective at round start"}


def camera_matrices(recon: Reconstruction) -> np.ndarray:
    """Per-view 3x4 projection matrices ([R | -Rc] in euclidean mode)."""
    if recon.mode == EUCLIDEAN:
        return pose_matrices(quat_to_matrix(recon.quats), recon.centers)
    return recon.matrices


# -- triangulation ----------------------------------------------------------

def triangulate(scene: Scene, recon: Reconstruction) -> tuple[np.ndarray, np.ndarray]:
    """DLT: per point, stack  x*P_3 - P_1  and  y*P_3 - P_2  over all
    observing views and take the smallest right singular vector. Points
    with the same track length are solved in one stacked SVD.

    Returns (points (n, 3), degenerate mask). A point is flagged degenerate
    when the system is rank-deficient (all rays parallel) or the
    homogeneous solution has (near-)zero last coordinate, and in euclidean
    mode also when the solution has depth <= 0 in a camera that observes
    it (cheirality; Hartley, "Chirality", IJCV 1998). Flagged points keep
    the input reconstruction's coordinates. Projective cameras carry no
    depth sign, so that mode has no cheirality test.
    """
    P = camera_matrices(recon)
    inc = scene.incidence
    points = recon.points.copy()
    degenerate = np.zeros(scene.num_points, dtype=bool)
    lengths = np.diff(inc.point_bounds)
    for length in np.unique(lengths):
        js = np.flatnonzero(lengths == length)
        obs = inc.point_order[inc.point_bounds[js, None] + np.arange(length)]
        Pv, xy = P[scene.view_idx[obs]], scene.xy[obs]
        A = xy[..., None] * Pv[:, :, 2:3] - Pv[:, :, :2]       # (points, length, 2, 4)
        _, sv, Vt = np.linalg.svd(A.reshape(len(js), 2 * length, 4), full_matrices=False)
        X = Vt[:, -1]
        bad = (sv[:, 2] <= 1e-10 * sv[:, 0]) | (np.abs(X[:, 3]) < 1e-12)
        X = X[:, :3] / np.where(bad, 1.0, X[:, 3])[:, None]
        if recon.mode == EUCLIDEAN:
            depth = np.einsum("plk,pk->pl", Pv[:, :, 2, :3], X) + Pv[:, :, 2, 3]
            bad |= (depth <= 0).any(axis=1)
        degenerate[js] = bad
        points[js[~bad]] = X[~bad]
    return points, degenerate


# -- bundle adjustment --------------------------------------------------------

def _residuals(scene: Scene, recon: Reconstruction):
    xy, z = project(camera_matrices(recon), recon.points, scene.view_idx, scene.point_idx)
    return scene.xy - xy, z


def _huber(r: np.ndarray, delta: float) -> np.ndarray:
    """Per-observation Huber value of the residual norm."""
    e = np.linalg.norm(r, axis=1)
    return np.where(e <= delta, 0.5 * e * e, delta * (e - 0.5 * delta))


def _robust_objective(r: np.ndarray, delta: float) -> float:
    return float(_huber(r, delta).sum())


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


def _stepped(recon: Reconstruction, delta_c: np.ndarray, delta_p: np.ndarray) -> Reconstruction:
    """A new reconstruction moved by a camera step (m, dc) and a point step
    (n, 3). Euclidean cameras take 6 local dof: an axis-angle increment
    composed on the left of the rotation, plus a center offset. Projective
    cameras take their 12 raw entries; the scale/sign gauge is then fixed
    by renormalizing (the objective is invariant)."""
    points = recon.points + delta_p
    if recon.mode == EUCLIDEAN:
        quats = quat_normalize(quat_multiply(_so3_exp_quat(delta_c[:, :3]), recon.quats))
        return Reconstruction(mode=EUCLIDEAN, quats=quats, centers=recon.centers + delta_c[:, 3:],
                              points=points)
    flat = recon.matrices.reshape(-1, 12) + delta_c
    norm = np.linalg.norm(flat, axis=1, keepdims=True)
    flat /= np.where(norm < 1e-300, 1.0, norm)
    lead = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=1)]
    flat *= np.where(lead < 0, -1.0, 1.0)[:, None]
    return Reconstruction(mode=PROJECTIVE, matrices=flat.reshape(-1, 3, 4), points=points)


def _jacobians(scene: Scene, recon: Reconstruction, z: np.ndarray):
    """d z / d camera (3, dc, N) and d z / d point (3, 3, N) per observation,
    in the camera parametrization of `_stepped`. d z / d point is the left
    3x3 block of the camera matrix in both modes."""
    Jp = camera_matrices(recon)[:, :, :3].transpose(1, 2, 0)[:, :, scene.view_idx]
    if recon.mode == EUCLIDEAN:
        Jc = np.zeros((3, 6, len(z)))
        # d(exp(w) z)/dw at w=0 is -[z]x
        Jc[0, 1], Jc[0, 2] = z[:, 2], -z[:, 1]
        Jc[1, 0], Jc[1, 2] = -z[:, 2], z[:, 0]
        Jc[2, 0], Jc[2, 1] = z[:, 1], -z[:, 0]
        Jc[:, 3:] = -Jp
        return Jc, Jp
    Jc = np.zeros((3, 12, len(z)))
    X = recon.points[scene.point_idx].T
    for k in range(3):
        Jc[k, 4 * k:4 * k + 3] = X
        Jc[k, 4 * k + 3] = 1.0
    return Jc, Jp


@dataclass
class _NormalBlocks:
    """Gauss-Newton normal-equation blocks of the robustified objective.
    Observations under the depth guard carry zero weight, so W keeps one
    (zero) block for each of them and the scene's incidence holds."""

    U: np.ndarray        # (m, dc, dc) camera diagonal blocks
    V: np.ndarray        # (n, 3, 3) point diagonal blocks
    W: np.ndarray        # (N, dc, 3) per-observation coupling blocks
    gc: np.ndarray       # (m, dc) camera gradient
    gp: np.ndarray       # (n, 3) point gradient
    vi: np.ndarray
    pi: np.ndarray
    inc: Incidence


# The 6 unique entries of a symmetric 3x3 block (its upper triangle, row by
# row), and the position of each of the 9 entries among them.
_TRIU3 = (np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 2]))
_SYM3 = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])


def _build_normal_blocks(scene: Scene, recon: Reconstruction, r: np.ndarray, z: np.ndarray,
                         cfg: BaConfig) -> _NormalBlocks:
    """The blocks at recon, whose residuals and projections are (r, z)."""
    m, n = scene.num_views, scene.num_points
    inc = scene.incidence
    usable = np.abs(z[:, 2]) >= DEPTH_GUARD
    depth = np.where(usable, z[:, 2], 1.0)
    r = np.where(usable[:, None], r, 0.0)

    # dr/d(param) = -dPi/dz . dz/d(param), whitened by sqrt Huber weights:
    # the two rows of dPi . J are (J_0 - x' J_2) / z_2 and (J_1 - y' J_2) / z_2
    w = np.sqrt(_huber_weights(r, cfg.huber_threshold)) * usable
    a = -w / depth
    x, y = z[:, 0] / depth, z[:, 1] / depth

    def rows(J):
        """(3, d, N) Jacobian of z -> (d, N, 2) whitened residual Jacobian."""
        out = np.empty(J.shape[1:] + (2,))
        out[..., 0] = a * (J[0] - x * J[2])
        out[..., 1] = a * (J[1] - y * J[2])
        return out

    Jc, Jp = (rows(J) for J in _jacobians(scene, recon, z))
    rw = r * w[:, None]

    # U_i = A A^T and gc_i = A rw_i over view i's rows, A of shape (dc, 2 N_i)
    dc = len(Jc)
    U = np.empty((m, dc, dc))
    gc = np.empty((m, dc))
    for i, (lo, hi) in enumerate(zip(inc.view_bounds[:-1], inc.view_bounds[1:])):
        A = Jc[:, lo:hi].reshape(dc, -1)
        U[i] = A @ A.T
        gc[i] = A @ rw[lo:hi].ravel()

    # V from the 6 unique entries of each symmetric block, plus gp
    p0, p1 = Jp[..., 0], Jp[..., 1]
    iu, ju = _TRIU3
    pt = np.concatenate([p0[iu] * p0[ju] + p1[iu] * p1[ju], p0 * rw[:, 0] + p1 * rw[:, 1]])
    pt = scatter_add(scene.point_idx, pt.T, n)
    # W_k = Jc_k^T Jp_k, the sum of the outer products of the two rows; a
    # batched product needs no (N, dc, 3) temporaries
    W = Jc.transpose(1, 0, 2) @ Jp.transpose(1, 2, 0)
    return _NormalBlocks(U=U, V=pt[:, _SYM3].reshape(n, 3, 3), W=W, gc=gc, gp=pt[:, 6:],
                         vi=scene.view_idx, pi=scene.point_idx, inc=inc)


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
    L = np.linalg.cholesky(Vinv)                   # Vinv_j = L_j L_j^T
    order = nb.inc.point_order
    vi, pi = nb.vi[order], nb.pi[order]
    Z = nb.W[order] @ L[pi]
    Lg = np.einsum("kba,kb->ka", L, nb.gp)         # L_j^T gp_j

    # S = blockdiag(Ud) - sum_j W_j Vinv_j W_j^T = blockdiag(Ud) - sum_j Z_j Z_j^T,
    # with W_j the coupling blocks of point j stacked over all cameras (zero
    # where unobserved) and Z_j = W_j L_j. Per slice of points, Z is scattered
    # into a dense (m, dc, slice, 3) slab and the slab's Gram product is
    # subtracted; scenes hold no duplicate (view, point) pair, so no slab
    # entry is written twice.
    S = np.zeros((m * dc, m * dc))
    rhs = -nb.gc.ravel()
    bounds = nb.inc.point_bounds[np.append(np.arange(0, n, SCHUR_SLICE), n)]
    for j0, lo, hi in zip(range(0, n, SCHUR_SLICE), bounds[:-1], bounds[1:]):
        width = min(SCHUR_SLICE, n - j0)
        Z_slab = np.zeros((m, dc, width, 3))
        Z_slab[vi[lo:hi], :, pi[lo:hi] - j0] = Z[lo:hi]
        Z_flat = Z_slab.reshape(m * dc, 3 * width)
        S -= Z_flat @ Z_flat.T
        rhs += Z_flat @ Lg[j0:j0 + width].ravel()
    cams = np.arange(m)
    S.reshape(m, dc, m, dc)[cams, :, cams] += Ud

    delta_c = np.linalg.solve(S, rhs).reshape(m, dc)
    resid_p = -nb.gp - scatter_add(nb.pi, np.einsum("kab,ka->kb", nb.W, delta_c[nb.vi]), n)
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


def _behind(z: np.ndarray) -> int:
    return int(np.count_nonzero(z[:, 2] <= 0))


def _small_step(recon: Reconstruction, delta_c: np.ndarray, delta_p: np.ndarray) -> bool:
    cams = (recon.quats, recon.centers) if recon.mode == EUCLIDEAN else (recon.matrices,)
    x_norm = np.sqrt(sum(np.vdot(a, a) for a in (*cams, recon.points)))
    step = np.sqrt(np.vdot(delta_c, delta_c) + np.vdot(delta_p, delta_p))
    return step <= STEP_TOL * (x_norm + STEP_TOL)


def _lm_steps(scene: Scene, recon: Reconstruction, r, z, cfg: BaConfig, trace: list,
              lambdas: list):
    """LM iterations from recon, whose residuals r and projections z give the
    finite objective trace[-1]. Each trial is a new reconstruction, kept only
    when the objective falls; a rejected trial that is a small step ends the
    round. Appends each accepted step's objective and damping. Returns (stop
    reason, rejected steps, final reconstruction, its z)."""
    lam, rejected, obj = LM_LAMBDA_INIT, 0, trace[-1]
    for _ in range(cfg.max_iters_per_round):
        nb = _build_normal_blocks(scene, recon, r, z, cfg)
        ginf = max(np.abs(nb.gc).max(initial=0.0), np.abs(nb.gp).max(initial=0.0))
        if ginf < GRAD_TOL:
            return "gradient", rejected, recon, z
        while lam <= LM_LAMBDA_MAX:
            try:
                delta_c, delta_p = solve_schur_step(nb, lam)
            except np.linalg.LinAlgError:
                rejected += 1
                lam *= LM_LAMBDA_SCALE
                continue
            trial = _stepped(recon, delta_c, delta_p)
            r_new, z_new = _residuals(scene, trial)
            new_obj = _robust_objective(r_new, cfg.huber_threshold)
            if np.isfinite(new_obj) and new_obj < obj:
                lambdas.append(lam)
                lam = max(lam / LM_LAMBDA_SCALE, 1e-15)
                rel = (obj - new_obj) / max(obj, 1e-300)
                recon, r, z, obj = trial, r_new, z_new, new_obj
                trace.append(obj)
                break
            rejected += 1
            if _small_step(recon, delta_c, delta_p):
                return "small step", rejected, recon, z
            lam *= LM_LAMBDA_SCALE
        else:
            return "damping exhausted", rejected, recon, z
        if rel < REL_DECREASE_TOL:
            return "relative decrease", rejected, recon, z
    return "iteration cap", rejected, recon, z


def _lm_round(scene: Scene, recon: Reconstruction, cfg: BaConfig,
              diagnostics: BaDiagnostics) -> Reconstruction:
    """One Levenberg-Marquardt round from recon; returns the refined
    reconstruction. Steps are accepted only when the true robust objective
    decreases, so the recorded trace is strictly decreasing."""
    r, z = _residuals(scene, recon)
    trace, lambdas = [_robust_objective(r, cfg.huber_threshold)], []
    reason, rejected, end, z_end = "non-finite start", 0, recon, z
    if np.isfinite(trace[0]):
        reason, rejected, end, z_end = _lm_steps(scene, recon, r, z, cfg, trace, lambdas)
    if reason in _FAILURES:
        diagnostics.converged = False
        diagnostics.message = _FAILURES[reason]
    diagnostics.objectives.append(trace)
    diagnostics.lambdas.append(lambdas)
    diagnostics.rejected.append(rejected)
    diagnostics.stop_reasons.append(reason)
    diagnostics.behind_camera.append([_behind(z), _behind(z_end)])
    return end


def _restart_points(scene: Scene, recon: Reconstruction,
                    cfg: BaConfig) -> tuple[Reconstruction, int]:
    """The next round's start: each point keeps its refined position when
    its robust cost over its own observations at recon's cameras is no
    higher than its DLT triangulation's and, in euclidean mode, it lies in
    front of every camera that observes it; otherwise it takes the
    triangulation. With the cameras fixed the objective is a sum of
    per-point terms, so the start is no higher than recon's objective
    unless a point behind a camera moved, and it has no more observations
    behind the cameras than the triangulation. Returns (start, number of
    points kept)."""
    n = scene.num_points
    tri = replace(recon, points=triangulate(scene, recon)[0])
    (r, z), (r_tri, _) = _residuals(scene, recon), _residuals(scene, tri)
    delta = cfg.huber_threshold
    keep = (scatter_add(scene.point_idx, _huber(r, delta), n)
            <= scatter_add(scene.point_idx, _huber(r_tri, delta), n))
    if recon.mode == EUCLIDEAN:
        keep[scene.point_idx[z[:, 2] <= 0]] = False
    points = np.where(keep[:, None], recon.points, tri.points)
    return replace(recon, points=points), int(np.count_nonzero(keep))


def bundle_adjust(scene: Scene, recon: Reconstruction,
                  cfg: BaConfig | None = None) -> tuple[Reconstruction, BaDiagnostics]:
    """Minimize the Huber-robustified reprojection objective over cameras
    and points, in `rounds` LM rounds.

    The objective is non-increasing over accepted LM steps within each
    round (asserted by the diagnostics). Between rounds each point starts
    from the better of its refined position and its DLT triangulation at
    the refined cameras (`_restart_points`), so a round starts no higher
    than the previous one ended, unless a point behind a camera had to
    move. The input is left untouched, and the result shares no array with
    it.
    """
    cfg = cfg or BaConfig()
    if recon.mode != scene.mode:
        raise ValueError("reconstruction mode does not match scene mode")
    _check_counts(scene, recon)
    recon = copy.deepcopy(recon)
    diagnostics = BaDiagnostics()
    for rnd in range(cfg.rounds):
        recon = _lm_round(scene, recon, cfg, diagnostics)
        if rnd < cfg.rounds - 1:
            recon, kept = _restart_points(scene, recon, cfg)
            diagnostics.restart_kept.append(kept)
    capped = [str(k + 1) for k, why in enumerate(diagnostics.stop_reasons)
              if why == "iteration cap"]
    if capped and not diagnostics.message:
        diagnostics.message = (f"iteration cap ({cfg.max_iters_per_round}) reached "
                               f"in round {', '.join(capped)}")
    return recon, diagnostics


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


def _check_counts(scene: Scene, recon: Reconstruction) -> None:
    """One camera per view and one point per scene point, or ValueError."""
    if recon.num_views != scene.num_views:
        raise ValueError(f"reconstruction has {recon.num_views} cameras, "
                         f"scene has {scene.num_views} views")
    if len(recon.points) != scene.num_points:
        raise ValueError(f"reconstruction has {len(recon.points)} points, "
                         f"scene has {scene.num_points}")


def reprojection_errors_px(scene: Scene, recon: Reconstruction,
                           record: NormalizationRecord | None = None) -> np.ndarray:
    """Per-observation reprojection distance in pixel units, recovered by
    mapping both measured and projected points back through the
    normalization record (identity when none is given). Observations whose
    projection falls under the projector's depth guard read inf."""
    _check_counts(scene, recon)
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
    doc: dict = {"mode": recon.mode, "points": recon.points.tolist()}
    if recon.mode == EUCLIDEAN:
        doc["cameras"] = _poses_json(recon.quats, recon.centers)
    else:
        doc["cameras"] = [{"P": P} for P in recon.matrices.reshape(-1, 12).tolist()]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def load_reconstruction(path) -> Reconstruction:
    """Read the JSON that `save_reconstruction` writes, with every
    quaternion scaled to unit norm. Raises ValueError naming the field when
    the mode is unknown, a camera has other keys than its mode's, a shape is
    wrong, a value is not finite or a quaternion has zero norm."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("mode") not in (EUCLIDEAN, PROJECTIVE):
        raise ValueError(f"reconstruction mode must be {EUCLIDEAN!r} or {PROJECTIVE!r}")
    points = _numbers(doc.get("points"), "reconstruction points", 3)
    if doc["mode"] == EUCLIDEAN:
        quats, centers = _columns(doc.get("cameras"), "reconstruction cameras", ("q", "c"))
        quats = _numbers(quats, "reconstruction camera q", 4)
        if not np.linalg.norm(quats, axis=1).all():
            raise ValueError("reconstruction camera q must have nonzero norm")
        return Reconstruction(mode=EUCLIDEAN, quats=quat_normalize(quats), points=points,
                              centers=_numbers(centers, "reconstruction camera c", 3))
    [matrices] = _columns(doc.get("cameras"), "reconstruction cameras", ("P",))
    matrices = _numbers(matrices, "reconstruction camera P", 12).reshape(-1, 3, 4)
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
