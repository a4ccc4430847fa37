"""Reference implementations that the vectorized code in `src/` replaced.

They are kept as test oracles: slow, written one matrix, one point or one
observation at a time, and compared against the production code.
"""

import numpy as np

from tracksfm import autodiff as ad
from tracksfm.autodiff import Tensor, scatter_add
from tracksfm.geometry import _huber_weights, _residuals, camera_matrices
from tracksfm.rotations import quat_normalize, quat_to_matrix
from tracksfm.scene import DEPTH_GUARD


def matrix_to_quat_oracle(R: np.ndarray) -> np.ndarray:
    """Shepperd's method on a single rotation matrix."""
    t = np.trace(R)
    candidates = np.array([t, R[0, 0], R[1, 1], R[2, 2]])
    case = int(np.argmax(candidates))
    if case == 0:
        r = np.sqrt(1.0 + t)
        s = 0.5 / r
        q = np.array([
            0.5 * r,
            (R[2, 1] - R[1, 2]) * s,
            (R[0, 2] - R[2, 0]) * s,
            (R[1, 0] - R[0, 1]) * s,
        ])
    else:
        i = case - 1
        j, k = (i + 1) % 3, (i + 2) % 3
        r = np.sqrt(1.0 + R[i, i] - R[j, j] - R[k, k])
        s = 0.5 / r
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) * s
        q[1 + i] = 0.5 * r
        q[1 + j] = (R[j, i] + R[i, j]) * s
        q[1 + k] = (R[k, i] + R[i, k]) * s
    if q[0] < 0:
        q = -q
    return quat_normalize(q)


def triangulate_oracle(scene, recon):
    """DLT one point at a time, with the degenerate and cheirality rules of
    `triangulate`."""
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
        point = X[:3] / X[3]
        if recon.mode == "euclidean" and np.any(P[views, 2, :3] @ point + P[views, 2, 3] <= 0):
            degenerate[j] = True     # behind a camera that observes it
            continue
        points[j] = point
    return points, degenerate


def _jacobians_oracle(scene, recon, z):
    """Per-observation d z / d camera (N, 3, dc) and d z / d point (N, 3, 3)."""
    N = len(z)
    if recon.mode == "euclidean":
        R = quat_to_matrix(recon.quats)[scene.view_idx]
        Jc = np.zeros((N, 3, 6))
        # d(exp(w) z)/dw at w=0 is -[z]x
        Jc[:, 0, 1], Jc[:, 0, 2] = z[:, 2], -z[:, 1]
        Jc[:, 1, 0], Jc[:, 1, 2] = -z[:, 2], z[:, 0]
        Jc[:, 2, 0], Jc[:, 2, 1] = z[:, 1], -z[:, 0]
        Jc[:, :, 3:] = -R
        return Jc, R
    Xh = np.concatenate([recon.points, np.ones((len(recon.points), 1))], axis=1)
    Xo = Xh[scene.point_idx]
    Jc = np.zeros((N, 3, 12))
    for k in range(3):
        Jc[:, k, 4 * k:4 * k + 4] = Xo
    return Jc, recon.matrices[scene.view_idx][:, :, :3]


def normal_blocks_oracle(scene, recon, huber_threshold):
    """Per-observation normal blocks: an (N_u, 2, 3) projection derivative,
    batched Jacobian products and (N_u, dc, dc) blocks scattered into views
    and points, over the observations the depth guard keeps.

    Returns (U, V, W, gc, gp, usable) with W holding one block per usable
    observation.
    """
    m, n = scene.num_views, scene.num_points
    r, z = _residuals(scene, recon)
    usable = np.abs(z[:, 2]) >= DEPTH_GUARD
    w = np.sqrt(_huber_weights(r[usable], huber_threshold))
    zs = z[usable]
    dPi = np.zeros((int(usable.sum()), 2, 3))
    inv = 1.0 / zs[:, 2]
    dPi[:, 0, 0] = inv
    dPi[:, 1, 1] = inv
    dPi[:, 0, 2] = -zs[:, 0] * inv * inv
    dPi[:, 1, 2] = -zs[:, 1] * inv * inv
    dPi *= -w[:, None, None]
    cam_jac, point_jac = _jacobians_oracle(scene, recon, z)
    Jc = dPi @ cam_jac[usable]
    Jp = dPi @ point_jac[usable]
    rw = r[usable] * w[:, None]
    vi_u, pi_u = scene.view_idx[usable], scene.point_idx[usable]
    U = scatter_add(vi_u, np.einsum("kab,kac->kbc", Jc, Jc), m)
    V = scatter_add(pi_u, np.einsum("kab,kac->kbc", Jp, Jp), n)
    gc = scatter_add(vi_u, np.einsum("kab,ka->kb", Jc, rw), m)
    gp = scatter_add(pi_u, np.einsum("kab,ka->kb", Jp, rw), n)
    W = Jc.transpose(0, 2, 1) @ Jp
    return U, V, W, gc, gp, usable


def leaky_relu(t, slope=0.2):
    """The leaky ReLU as a primitive: x where x > 0, else slope * x."""
    pos = t.values > 0
    out = Tensor(np.where(pos, t.values, slope * t.values), _parents=(t,))
    out._vjp = lambda g: t._add_grad(np.where(pos, g, slope * g), owned=True)
    return out


def reshape(t, shape):
    """A reshape as a primitive; its adjoint is the output adjoint reshaped
    back, copied into the parent's buffer."""
    out = Tensor(t.values.reshape(shape), _parents=(t,))
    out._vjp = lambda g: t._add_grad(g.reshape(t.values.shape))
    return out


def gatv2_oracle(src, tgt, w, a, edge_tgt, n_tgt, heads=4, slope=0.2):
    """`ad.gatv2` composed from 17 primitives, as the network computed the
    attention before the fusion. Returns the output and the weights tensor."""
    d1 = src.shape[1]
    da = a.shape[0]
    hd = da // heads
    w_tgt = ad.narrow(w, 0, 0, d1)
    w_src = ad.narrow(w, 0, d1, d1)
    s_proj = ad.matmul(src, w_src)
    t_proj = ad.matmul(tgt, w_tgt)
    act = leaky_relu(ad.gather(t_proj, edge_tgt) + s_proj, slope)
    scores = ad.tsum(reshape(act, (-1, heads, hd)) * reshape(a, (1, heads, hd)), axis=2)
    alpha = ad.segment_softmax(scores, edge_tgt, n_tgt)
    weighted = reshape(s_proj, (-1, heads, hd)) * reshape(alpha, (-1, heads, 1))
    return ad.segment_sum(reshape(weighted, (-1, da)), edge_tgt, n_tgt), alpha


def layer_norm_oracle(x, gain, bias, eps=1e-5):
    """The affine layer norm as three primitives: the normalization (the
    fused primitive with a unit gain and zero bias, which is exact), a mul
    and an add."""
    d = x.shape[-1]
    plain = ad.layer_norm(x, ad.constant(np.ones(d)), ad.constant(np.zeros(d)), eps)
    return plain * gain + bias
