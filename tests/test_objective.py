import numpy as np
import pytest

from tracksfm import autodiff as ad
from tracksfm.autodiff import NumericError, grad_check
from tracksfm.network import ForwardResult, Reconstruction
from tracksfm.objective import (
    DEPTH_HINGE,
    _camera_depths_and_rays,
    loss,
    normalize_param_grads,
)
from tracksfm.rotations import axis_angle_to_matrix, matrix_to_quat, quat_to_matrix
from tracksfm.scene import Scene, pose_matrices, project

from conftest import make_scene, gt_reconstruction

IDENTITY_P = np.eye(3, 4)[None]


def project_one(P, X):
    """scene.project for one 3x4 camera and one point: (xy (2,), depth)."""
    xy, z = project(np.asarray(P)[None], np.asarray(X, dtype=np.float64)[None],
                    np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    return xy[0], z[0, 2]


class TestProject:
    def test_identity_on_axis(self):
        xy, depth = project_one(IDENTITY_P[0], [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(xy, [0.0, 0.0])
        assert depth == 2.0

    def test_dehomogenization(self):
        xy, depth = project_one(IDENTITY_P[0], [2.0, 4.0, 2.0])
        np.testing.assert_array_equal(xy, [1.0, 2.0])
        assert depth == 2.0

    def test_against_matrix_oracle(self, rng):
        """Projection through pose_matrices equals rotating X - c into the
        camera frame and dividing by depth."""
        for _ in range(20):
            axis = rng.normal(size=3)
            q = matrix_to_quat(axis_angle_to_matrix(axis, rng.uniform(0, np.pi)))
            c = rng.normal(size=3)
            X = rng.normal(size=3) + np.array([0, 0, 5.0])
            R = quat_to_matrix(q)
            xy, depth = project_one(pose_matrices(R[None], c[None])[0], X)
            z = R @ (X - c)
            np.testing.assert_allclose(xy, z[:2] / z[2], atol=1e-12)
            np.testing.assert_allclose(depth, z[2], atol=1e-12)

    def test_projective_camera(self, rng):
        P = rng.normal(size=(3, 4))
        X = rng.normal(size=3)
        xy, depth = project_one(P, X)
        z = P @ np.append(X, 1.0)
        np.testing.assert_allclose(xy, z[:2] / z[2], atol=1e-14)

    def test_depth_guard_gives_inf(self):
        """Depth below the guard (here exactly 0) dehomogenizes to inf
        without a floating-point warning; other rows are unaffected."""
        P = np.repeat(IDENTITY_P, 2, axis=0)
        X = np.array([[1.0, 1.0, 0.0], [2.0, 4.0, 2.0]])
        with np.errstate(all="raise"):
            xy, z = project(P, X, np.array([0, 1]), np.array([0, 1]))
        assert np.isinf(xy[0]).all()
        np.testing.assert_array_equal(xy[1], [1.0, 2.0])
        np.testing.assert_array_equal(z[:, 2], [0.0, 2.0])

    @pytest.mark.parametrize("mode", ["euclidean", "projective"])
    def test_matches_autodiff_projection(self, rng, mode):
        """Camera-frame coordinates of the numpy projector equal those of
        the differentiable one in the loss."""
        scene, raw, _ = make_scene(num_views=4, num_points=15, visibility=0.8, seed=7)
        recon = gt_reconstruction(raw)
        recon.points = recon.points + rng.normal(size=recon.points.shape) * 0.1
        P = pose_matrices(quat_to_matrix(recon.quats), recon.centers)
        if mode == "projective":
            P = P * rng.uniform(0.5, 2.0, size=(len(P), 1, 1))
            P[:, :, 3] += rng.normal(size=(len(P), 3)) * 0.1
            result = ForwardResult(mode=mode, points=ad.constant(recon.points),
                                   matrices=ad.constant(P.reshape(-1, 12)))
        else:
            result = ForwardResult(mode=mode, points=ad.constant(recon.points),
                                   quats=ad.constant(recon.quats),
                                   centers=ad.constant(recon.centers))
        _, z = project(P, recon.points, scene.view_idx, scene.point_idx)
        z_ad = _camera_depths_and_rays(scene, result).values
        np.testing.assert_allclose(z, z_ad, rtol=0, atol=1e-12)


def behind_camera_scene():
    """Two cameras looking down +z; the first point sits behind camera 0
    (depth -0.5) but in front of camera 1, for hinge-branch tests."""
    scene = Scene(
        num_views=2, num_points=2,
        view_idx=[0, 0, 1, 1], point_idx=[0, 1, 0, 1],
        xy=[[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1]],
    )
    quats = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]])
    centers = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -3.0]])
    points = np.array([[0.0, 0.0, -0.5], [0.0, 0.0, 2.0]])
    return scene, Reconstruction(mode="euclidean", quats=quats, centers=centers,
                                 points=points)


class TestLoss:
    def test_zero_at_ground_truth(self):
        scene, raw, _ = make_scene(num_views=5, num_points=25, seed=3)
        total, report = loss(scene, gt_reconstruction(raw))
        assert report.mean_reprojection <= 1e-10
        assert report.hinge_count == 0

    def test_hinge_term_is_minus_depth(self):
        """A point at depth -0.5 contributes exactly 0.5. Both points
        project to the image origin, so the other three terms are the
        distances of their measurements from it: 0.1, 0.1 and sqrt(0.02)."""
        scene, recon = behind_camera_scene()
        _, report = loss(scene, recon)
        assert report.hinge_count == 1
        expected = (0.5 + 0.1 + 0.1 + np.sqrt(0.02)) / 4
        np.testing.assert_allclose(report.mean_reprojection, expected, rtol=0, atol=1e-15)

    def test_boundary_depth_takes_reprojection_branch(self):
        """depth == h exactly: strict inequality routes to reprojection."""
        scene, recon = behind_camera_scene()
        pts = recon.points.copy()
        pts[0] = [0.0, 0.0, DEPTH_HINGE]     # exactly h in camera 0
        recon.points = pts
        _, report = loss(scene, recon)
        assert report.hinge_count == 0

    def test_rigid_invariance(self, rng):
        """Loss is unchanged by a global rigid transform of cameras and
        points together."""
        scene, raw, _ = make_scene(num_views=5, num_points=20, seed=4)
        recon = gt_reconstruction(raw)
        _, base = loss(scene, recon)
        for _ in range(5):
            R = axis_angle_to_matrix(rng.normal(size=3), rng.uniform(0, np.pi))
            t = rng.normal(size=3) * 3.0
            q_r = matrix_to_quat(R)
            quats = np.stack([matrix_to_quat(quat_to_matrix(q) @ R.T)
                              for q in recon.quats])
            moved = Reconstruction(
                mode="euclidean", quats=quats,
                centers=recon.centers @ R.T + t,
                points=recon.points @ R.T + t,
            )
            _, rep = loss(scene, moved)
            assert abs(rep.mean_reprojection - base.mean_reprojection) <= 1e-9

    def test_gradient_matches_fd_away_from_hinge(self, rng):
        scene, raw, _ = make_scene(num_views=3, num_points=10, seed=5)
        recon = gt_reconstruction(raw)
        quats = ad.parameter(recon.quats + rng.normal(size=recon.quats.shape) * 0.01)
        centers = ad.parameter(recon.centers + rng.normal(size=recon.centers.shape) * 0.01)
        points = ad.parameter(recon.points + rng.normal(size=recon.points.shape) * 0.01)

        def build():
            from tracksfm.network import normalize_quaternions
            result = ForwardResult(mode="euclidean", points=points,
                                   quats=normalize_quaternions(quats), centers=centers)
            return loss(scene, result)[0]
        report = grad_check(build, {"q": quats, "c": centers, "X": points},
                            step=1e-5, tol=1e-4)
        assert report.passed, report.worst()

    def test_shape_validation(self):
        scene, raw, _ = make_scene(seed=0)
        recon = gt_reconstruction(raw)
        recon.points = recon.points[:-1]
        with pytest.raises(ValueError):
            loss(scene, recon)


def grad_tensors(**grads):
    """Parameters carrying the given gradients, keyed by name."""
    out = {}
    for name, g in grads.items():
        t = ad.parameter(np.zeros_like(g))
        t.grad = np.array(g, dtype=np.float64)
        out[name] = t
    return out


def joint_norm(tensors):
    return np.sqrt(sum(float(np.dot(t.grad.ravel(), t.grad.ravel()))
                       for t in tensors.values()))


class TestNormalizeGradients:
    def test_unit_norm_direction_preserved(self, rng):
        grads = {"a": rng.normal(size=(4, 3)) * 5, "b": rng.normal(size=(7,)) * 5}
        tensors = grad_tensors(**grads)
        normalize_param_grads(tensors.values())
        assert abs(joint_norm(tensors) - 1.0) <= 1e-12
        ratio = tensors["a"].grad / grads["a"]
        np.testing.assert_allclose(ratio, ratio.ravel()[0], rtol=1e-12)
        ratio_b = tensors["b"].grad / grads["b"]
        np.testing.assert_allclose(ratio_b, ratio.ravel()[0], rtol=1e-12)

    def test_norm_ten_becomes_one(self):
        g = np.zeros(100)
        g[0] = 10.0
        tensors = grad_tensors(g=g)
        assert normalize_param_grads(tensors.values()) == 10.0
        assert abs(joint_norm(tensors) - 1.0) <= 1e-12

    def test_zero_passes_through(self):
        tensors = grad_tensors(a=np.zeros(5))
        assert normalize_param_grads(tensors.values()) == 0.0
        np.testing.assert_array_equal(tensors["a"].grad, np.zeros(5))

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            normalize_param_grads(grad_tensors(a=np.array([1.0, np.nan])).values())

    def test_inf_in_later_tensor_rejected(self):
        """The sum of squares is not finite, and the scan finds the Inf
        entry in a tensor other than the first."""
        tensors = grad_tensors(a=np.ones(3), b=np.array([2.0, -np.inf]))
        with pytest.raises(NumericError):
            normalize_param_grads(tensors.values())

    def test_finite_overflow_is_not_an_error(self):
        """Finite gradients whose squares overflow give norm inf and zero
        gradients, with no NumericError."""
        tensors = grad_tensors(a=np.array([1e200, -1e200]), b=np.array([3.0]))
        with np.errstate(over="ignore"):
            assert normalize_param_grads(tensors.values()) == np.inf
        np.testing.assert_array_equal(tensors["a"].grad, np.zeros(2))
        np.testing.assert_array_equal(tensors["b"].grad, np.zeros(1))

    def test_descent_direction_invariance(self, rng):
        """One plain gradient step moves in the identical direction with
        and without normalization."""
        g = rng.normal(size=(6,))
        tensors = grad_tensors(w=g)
        normalize_param_grads(tensors.values())
        scaled = tensors["w"].grad
        cos = np.dot(g, scaled) / (np.linalg.norm(g) * np.linalg.norm(scaled))
        assert abs(cos - 1.0) <= 1e-12

    def test_in_place_param_variant(self, rng):
        a = ad.parameter(rng.normal(size=(3,)))
        a.grad = rng.normal(size=(3,)) * 7
        before = a.grad.copy()
        norm = normalize_param_grads([a])
        assert abs(np.linalg.norm(a.grad) - 1.0) <= 1e-12
        assert abs(norm - np.linalg.norm(before)) <= 1e-12
