"""Quaternion and rotation-matrix helpers shared across the package.

Quaternions are stored as (w, x, y, z) and assumed unit-norm unless noted.
All functions accept a single item or a leading batch axis.
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
    """Rotation matrix -> unit quaternion (w, x, y, z), w >= 0.

    Shepperd's method: pick the largest of the four candidate pivots for
    numerical stability.
    """
    R = np.asarray(R, dtype=np.float64)
    if R.ndim == 2:
        return _matrix_to_quat_single(R)
    return np.stack([_matrix_to_quat_single(Ri) for Ri in R])


def _matrix_to_quat_single(R: np.ndarray) -> np.ndarray:
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
