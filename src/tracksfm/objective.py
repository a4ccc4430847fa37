"""Differentiable projection and the training objective.

The loss is the non-squared reprojection error averaged over all observed
image points. Projections whose depth falls below the hinge threshold
h = 1e-4 contribute minus their depth instead, which removes the
singularity at the principal plane and pushes points back in front of the
camera. An epsilon of 1e-12 augments the residual norm so the square root
stays differentiable at exact-zero residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, Tensor
from .network import ForwardResult, Reconstruction
from .scene import EUCLIDEAN, Scene

DEPTH_HINGE = 1e-4
RESIDUAL_EPS = 1e-12


@dataclass
class LossReport:
    """Summary of one loss evaluation."""

    mean_reprojection: float
    hinge_count: int


def _cross(a: Tensor, b: Tensor) -> Tensor:
    ax, ay, az = (ad.narrow(a, 1, k, 1) for k in range(3))
    bx, by, bz = (ad.narrow(b, 1, k, 1) for k in range(3))
    return ad.concat([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx], axis=1)


def _rotate_by_quat(q: Tensor, v: Tensor) -> Tensor:
    """Rotate row vectors v by unit row quaternions q (w, x, y, z)."""
    w = ad.narrow(q, 1, 0, 1)
    vec = ad.narrow(q, 1, 1, 3)
    t = _cross(vec, v) * 2.0
    return v + w * t + _cross(vec, t)


def _camera_depths_and_rays(scene: Scene, result: ForwardResult) -> Tensor:
    """Per-observation camera-frame coordinates z (N, 3)."""
    vi, pi = scene.view_idx, scene.point_idx
    X = ad.gather(result.points, pi)
    if result.mode == EUCLIDEAN:
        q = ad.gather(result.quats, vi)
        c = ad.gather(result.centers, vi)
        return _rotate_by_quat(q, X - c)
    P = ad.gather(result.matrices, vi)          # (N, 12) row-major
    rows = []
    for k in range(3):
        rk = ad.narrow(P, 1, 4 * k, 3)
        dk = ad.narrow(P, 1, 4 * k + 3, 1)
        rows.append(ad.tsum(rk * X, axis=1, keepdims=True) + dk)
    return ad.concat(rows, axis=1)


def _wrap_reconstruction(recon: Reconstruction) -> ForwardResult:
    if recon.mode == EUCLIDEAN:
        return ForwardResult(mode=recon.mode, points=ad.constant(recon.points),
                             quats=ad.constant(recon.quats),
                             centers=ad.constant(recon.centers))
    return ForwardResult(mode=recon.mode, points=ad.constant(recon.points),
                         matrices=ad.constant(recon.matrices.reshape(-1, 12)))


def loss(scene: Scene, result: ForwardResult | Reconstruction) -> tuple[Tensor, LossReport]:
    """Hinged mean reprojection error as a differentiable scalar.

    Per observation: ||m_ij - projection|| while the depth is at least the
    hinge threshold, minus the depth below it (strict inequality: a depth
    of exactly h takes the reprojection branch). Returns the scalar Tensor
    and a plain-number report.
    """
    if isinstance(result, Reconstruction):
        result = _wrap_reconstruction(result)
    if result.points.shape[0] != scene.num_points:
        raise ValueError("reconstruction has wrong number of points")
    cams = result.quats if result.mode == EUCLIDEAN else result.matrices
    if cams.shape[0] != scene.num_views:
        raise ValueError("reconstruction has wrong number of cameras")

    z = _camera_depths_and_rays(scene, result)
    depth = ad.narrow(z, 1, 2, 1)                         # (N, 1)
    hinged = depth.values < DEPTH_HINGE
    safe_depth = ad.where(hinged, ad.constant(np.ones_like(depth.values)), depth)
    img = ad.narrow(z, 1, 0, 2) / safe_depth
    diff = ad.constant(scene.xy) - img
    resid = ad.sqrt(ad.tsum(diff * diff, axis=1, keepdims=True) + RESIDUAL_EPS**2)
    term = ad.where(hinged, -depth, resid)
    total = ad.tmean(term)
    if not np.isfinite(total.values).all():
        raise NumericError("loss is not finite")
    return total, LossReport(mean_reprojection=total.values.item(),
                             hinge_count=int(hinged.sum()))


def normalize_param_grads(params) -> float:
    """Scale the Tensor .grad buffers in place so their concatenation has
    unit L2 norm; returns the pre-normalization norm.

    Normalization is global (one scale for every tensor), preserving the
    update direction exactly. An all-zero gradient passes through
    unchanged; non-finite gradients are an error.
    """
    tensors = params.tensors.values() if hasattr(params, "tensors") else params
    grads = [t.grad for t in tensors if t.grad is not None]
    sq = sum(float(np.dot(g.ravel(), g.ravel())) for g in grads)
    # A NaN or Inf entry makes the sum non-finite; only then is it worth a
    # scan. A finite gradient whose squares overflow keeps norm = inf.
    if not np.isfinite(sq) and not all(np.isfinite(g).all() for g in grads):
        raise NumericError("non-finite gradient")
    norm = float(np.sqrt(sq))
    if norm > 0.0:
        for g in grads:
            g /= norm
    return norm
