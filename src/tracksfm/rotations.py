"""Quaternion and rotation-matrix helpers shared across the package.

Quaternions are stored as (w, x, y, z) and assumed unit-norm unless noted.
The quaternion functions accept a single item or a leading batch axis;
`axis_angle_to_matrix` and `look_at_rotation` take a single item.
"""

from __future__ import annotations

import numpy as np


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Unit quaternion(s) -> rotation matrix/matrices, shape (..., 3, 3)."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3), dtype=np.float64)
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - w * z)
    R[..., 0, 2] = 2 * (x * z + w * y)
    R[..., 1, 0] = 2 * (x * y + w * z)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - w * x)
    R[..., 2, 0] = 2 * (x * z - w * y)
    R[..., 2, 1] = 2 * (y * z + w * x)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def matrix_to_quat(R: np.ndarray) -> np.ndarray:
    """Rotation matrix/matrices (..., 3, 3) -> unit quaternion(s) (w, x, y, z),
    w >= 0.

    Shepperd's method: per matrix, pick the largest of the four candidate
    pivots (trace, R00, R11, R22; the first on ties) for numerical stability.
    """
    R = np.asarray(R, dtype=np.float64)
    flat = R.reshape(-1, 3, 3)
    t = flat[:, 0, 0] + flat[:, 1, 1] + flat[:, 2, 2]
    case = np.argmax(np.stack([t, flat[:, 0, 0], flat[:, 1, 1], flat[:, 2, 2]]), axis=0)
    q = np.empty((len(flat), 4))
    sel = case == 0
    Rs = flat[sel]
    r = np.sqrt(1.0 + t[sel])
    s = 0.5 / r
    q[sel, 0] = 0.5 * r
    q[sel, 1] = (Rs[:, 2, 1] - Rs[:, 1, 2]) * s
    q[sel, 2] = (Rs[:, 0, 2] - Rs[:, 2, 0]) * s
    q[sel, 3] = (Rs[:, 1, 0] - Rs[:, 0, 1]) * s
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        sel = case == i + 1
        Rs = flat[sel]
        r = np.sqrt(1.0 + Rs[:, i, i] - Rs[:, j, j] - Rs[:, k, k])
        s = 0.5 / r
        q[sel, 0] = (Rs[:, k, j] - Rs[:, j, k]) * s
        q[sel, 1 + i] = 0.5 * r
        q[sel, 1 + j] = (Rs[:, j, i] + Rs[:, i, j]) * s
        q[sel, 1 + k] = (Rs[:, k, i] + Rs[:, i, k]) * s
    q[q[:, 0] < 0] *= -1.0
    return quat_normalize(q).reshape(R.shape[:-2] + (4,))


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b; rotation by a*b applies b first, then a."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def axis_angle_to_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues formula for a unit axis and an angle in radians."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    K = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def look_at_rotation(center: np.ndarray, target: np.ndarray, up=(0.0, 0.0, 1.0)) -> np.ndarray:
    """World-to-camera rotation for a camera at `center` looking at `target`.

    Camera convention: +z forward (viewing direction), +x right, +y down.
    """
    center = np.asarray(center, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - center
    fwd = fwd / np.linalg.norm(fwd)
    up = np.asarray(up, dtype=np.float64)
    right = np.cross(fwd, up)
    nr = np.linalg.norm(right)
    if nr < 1e-12:
        # viewing direction parallel to up; pick another reference
        right = np.cross(fwd, np.array([1.0, 0.0, 0.0]))
        nr = np.linalg.norm(right)
    right = right / nr
    down = np.cross(fwd, right)
    # rows of R are the camera axes expressed in world coordinates
    return np.stack([right, down, fwd])
