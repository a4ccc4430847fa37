from dataclasses import replace

import numpy as np
import pytest

from tracksfm.geometry import (
    SCHUR_SLICE,
    BaConfig,
    DegenerateConfigError,
    SimilarityTransform,
    _build_normal_blocks,
    _residuals,
    _restart_points,
    _robust_objective,
    _stepped,
    align_similarity,
    bundle_adjust,
    camera_matrices,
    export_ply,
    load_reconstruction,
    metrics,
    reprojection_errors_px,
    save_reconstruction,
    solve_dense_step,
    solve_schur_step,
    triangulate,
)
from tracksfm.network import Reconstruction
from tracksfm.objective import loss
from tracksfm.rotations import (axis_angle_to_matrix, matrix_to_quat,
                                quat_multiply, quat_to_matrix)
from tracksfm.scene import Scene, normalize_hartley, project
from tracksfm.train import inject_outliers

from conftest import make_scene, gt_reconstruction
from oracles import normal_blocks_oracle, triangulate_oracle


def perturbed_gt(raw, rng, rot_deg=2.0, center_frac=0.01, point_sigma=0.01):
    diam = np.linalg.norm(raw.gt_centers.max(0) - raw.gt_centers.min(0))
    quats = raw.gt_quats.copy()
    for i in range(len(quats)):
        axis = rng.normal(size=3)
        dq = matrix_to_quat(axis_angle_to_matrix(axis, np.deg2rad(rot_deg)))
        quats[i] = quat_multiply(dq, quats[i])
    return Reconstruction(
        mode="euclidean",
        quats=quats,
        centers=raw.gt_centers + rng.normal(size=(len(quats), 3)) * center_frac * diam,
        points=raw.gt_points + rng.normal(size=raw.gt_points.shape) * point_sigma,
    )


class TestTriangulate:
    def test_two_views_recover_point(self):
        scene, raw, _ = make_scene(num_views=2, num_points=10, seed=0)
        recon = gt_reconstruction(raw)
        recon.points = np.zeros_like(recon.points)
        points, degenerate = triangulate(scene, recon)
        assert not degenerate.any()
        np.testing.assert_allclose(points, raw.gt_points, atol=1e-9)

    def test_redundant_view_consistent(self):
        """A third consistent view leaves the solution within 1e-9."""
        scene2, raw2, _ = make_scene(num_views=2, num_points=10, seed=1)
        scene3, raw3, _ = make_scene(num_views=3, num_points=10, seed=1)
        # same generator seed gives different scenes; instead compare both
        # triangulations against the exact ground truth
        p2, _ = triangulate(scene2, gt_reconstruction(raw2))
        p3, _ = triangulate(scene3, gt_reconstruction(raw3))
        np.testing.assert_allclose(p2, raw2.gt_points, atol=1e-9)
        np.testing.assert_allclose(p3, raw3.gt_points, atol=1e-9)

    def test_duplicate_views_degenerate(self):
        scene = Scene(num_views=2, num_points=2,
                      view_idx=[0, 0, 1, 1], point_idx=[0, 1, 0, 1],
                      xy=[[0.0, 0.0], [0.1, 0.1], [0.0, 0.0], [0.1, 0.1]])
        q = np.array([[1.0, 0, 0, 0]] * 2)
        c = np.zeros((2, 3))     # identical cameras: parallel rays
        recon = Reconstruction(mode="euclidean", quats=q, centers=c,
                               points=np.ones((2, 3)))
        points, degenerate = triangulate(scene, recon)
        assert degenerate.all()
        np.testing.assert_array_equal(points, np.ones((2, 3)))  # kept input

    def test_matches_per_point_oracle(self, rng):
        """Stacked SVDs per track length give the per-point DLT's points and
        degenerate mask bit for bit; point 0 keeps two views, made one
        camera, with the same image point."""
        scene, raw, _ = make_scene(num_views=6, num_points=60, visibility=0.6, seed=19)
        recon = perturbed_gt(raw, rng)
        vi, pi = scene.view_idx, scene.point_idx
        a, b = vi[pi == 0][:2]
        recon.quats[b], recon.centers[b] = recon.quats[a], recon.centers[a]
        keep = (pi != 0) | (vi == a) | (vi == b)
        xy = scene.xy.copy()
        xy[(pi == 0) & (vi == b)] = xy[(pi == 0) & (vi == a)]
        scene = replace(scene, view_idx=vi[keep], point_idx=pi[keep], xy=xy[keep])
        assert len(np.unique(np.diff(scene.incidence.point_bounds))) >= 3
        points, degenerate = triangulate(scene, recon)
        want_points, want_degenerate = triangulate_oracle(scene, recon)
        assert degenerate[0]
        assert np.array_equal(degenerate, want_degenerate)
        assert np.array_equal(points, want_points)

    def test_point_behind_a_camera_keeps_input(self):
        """A point mirrored through camera 0's center projects to the same
        image point there, so its tracks re-rendered from the mirror image
        triangulate exactly to a point behind camera 0: it is flagged and
        keeps its input coordinates, while the others are solved."""
        scene, raw, _ = make_scene(num_views=4, num_points=12, seed=5)
        recon = gt_reconstruction(raw)
        j = scene.point_idx[scene.view_idx == 0][0]
        mirrored = recon.points.copy()
        mirrored[j] = 2.0 * recon.centers[0] - recon.points[j]
        P = camera_matrices(recon)
        xy, z = project(P, mirrored, scene.view_idx, scene.point_idx)
        assert (z[(scene.point_idx == j) & (scene.view_idx == 0), 2] < 0).all()
        start = recon.points + 0.5
        points, degenerate = triangulate(replace(scene, xy=xy),
                                         replace(recon, points=start))
        assert degenerate.tolist() == [k == j for k in range(scene.num_points)]
        np.testing.assert_array_equal(points[j], start[j])
        keep = np.arange(scene.num_points) != j
        np.testing.assert_allclose(points[keep], raw.gt_points[keep], atol=1e-9)

    def test_project_triangulate_identity(self, rng):
        """Round trip over 200 random noise-free points seen by 2-5 views."""
        scene, raw, _ = make_scene(num_views=5, num_points=200, visibility=0.6,
                                   seed=2)
        points, degenerate = triangulate(scene, gt_reconstruction(raw))
        assert not degenerate.any()
        np.testing.assert_allclose(points, raw.gt_points, atol=1e-9)


class TestBundleAdjust:
    def test_fixed_point_at_ground_truth(self):
        """Starting at the optimum: objective below 1e-12 and the
        reconstruction unchanged within 1e-8."""
        scene, raw, _ = make_scene(num_views=6, num_points=40, seed=3)
        gt = gt_reconstruction(raw)
        refined, diag = bundle_adjust(scene, gt)
        assert diag.converged
        assert diag.objectives[0][-1] < 1e-12
        np.testing.assert_allclose(refined.centers, gt.centers, atol=1e-8)
        np.testing.assert_allclose(refined.points, gt.points, atol=1e-8)

    def test_basin_of_convergence(self, rng):
        """2 degree / 1% perturbations return to a sub-1e-8 mean
        reprojection."""
        scene, raw, _ = make_scene(num_views=10, num_points=100, visibility=0.8,
                                   seed=4)
        start = perturbed_gt(raw, rng)
        refined, diag = bundle_adjust(scene, start)
        assert diag.converged
        assert loss(scene, refined)[1].mean_reprojection < 1e-8

    def test_objective_monotone_over_accepted_steps(self, rng):
        scene, raw, _ = make_scene(num_views=8, num_points=60, visibility=0.9,
                                   seed=5)
        refined, diag = bundle_adjust(scene, perturbed_gt(raw, rng))
        for trace in diag.objectives:
            assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_huber_shields_outlier(self, rng):
        """One gross outlier pulls the Huber solution away from the clean
        data less than a quadratic loss does (measured gauge-free, as
        reprojection against the uncorrupted measurements)."""
        scene, raw, _ = make_scene(num_views=6, num_points=40, seed=6)
        xy = scene.xy.copy()
        xy[0] += 0.3     # gross corruption: ~2x the image spread
        from dataclasses import replace
        corrupted = replace(scene, xy=xy)
        start = perturbed_gt(raw, rng, rot_deg=0.5, center_frac=0.005)

        huber, _ = bundle_adjust(corrupted, start, BaConfig(huber_threshold=0.1))
        quad, _ = bundle_adjust(corrupted, start, BaConfig(huber_threshold=1e9))
        err_huber = reprojection_errors_px(scene, huber, None).mean()
        err_quad = reprojection_errors_px(scene, quad, None).mean()
        assert err_huber < err_quad
        assert err_huber < 0.01

    def test_projective_mode(self, rng):
        scene, raw, _ = make_scene(num_views=5, num_points=40, seed=7,
                                   mode="projective")
        from tracksfm.scene import normalize_hartley
        scene_n, record = normalize_hartley(scene)
        # ground-truth cameras in Hartley-normalized image coordinates
        P = camera_matrices(gt_reconstruction(raw))
        Pn = np.einsum("kab,kbc->kac", record.transforms, P)
        flat = Pn.reshape(-1, 12)
        flat /= np.linalg.norm(flat, axis=1, keepdims=True)
        start = Reconstruction(
            mode="projective",
            matrices=(flat + rng.normal(size=flat.shape) * 0.01).reshape(-1, 3, 4),
            points=raw.gt_points + rng.normal(size=raw.gt_points.shape) * 0.01,
        )
        refined, diag = bundle_adjust(scene_n, start)
        # projective cameras carry a sign gauge, so judge by image-space
        # residuals rather than the depth-hinged training loss
        assert reprojection_errors_px(scene_n, refined, None).mean() < 1e-8
        # without a depth test the restart selects each point by cost alone
        assert diag.objectives[1][0] <= diag.objectives[0][-1]

    def test_nonconvergence_flag_on_degenerate_input(self):
        scene, raw, _ = make_scene(num_views=4, num_points=12, seed=8)
        bad = gt_reconstruction(raw)
        bad.points = bad.points.copy()
        bad.points[0] = bad.centers[0]     # point on a camera center
        refined, diag = bundle_adjust(scene, bad)
        assert not diag.converged
        assert diag.stop_reasons[0] == "non-finite start"
        assert diag.message == "non-finite objective at round start"

    def test_round_record(self, rng):
        """Per round: one damping value per accepted step, a rejected-step
        count, a stop reason; the cap is named in the message of a run
        that still counts as converged."""
        scene, raw, _ = make_scene(num_views=8, num_points=60, visibility=0.9, seed=5)
        start = perturbed_gt(raw, rng)
        _, diag = bundle_adjust(scene, start, BaConfig(max_iters_per_round=2))
        assert diag.converged
        assert diag.stop_reasons == ["iteration cap", "iteration cap"]
        assert diag.message == "iteration cap (2) reached in round 1, 2"
        assert [len(lams) for lams in diag.lambdas] == [2, 2]
        assert all(lam > 0 for lams in diag.lambdas for lam in lams)
        _, diag = bundle_adjust(scene, start)
        assert diag.converged and diag.message == ""
        assert len(diag.stop_reasons) == len(diag.rejected) == 2
        assert set(diag.stop_reasons) <= {"relative decrease", "gradient"}
        for trace, lams, rejected in zip(diag.objectives, diag.lambdas, diag.rejected):
            assert len(lams) == len(trace) - 1
            assert isinstance(rejected, int) and rejected >= 0

    @pytest.mark.parametrize("seed", range(4))
    def test_restart_no_higher_than_round_end(self, seed):
        """With 5% outliers the DLT triangulation at round 1's cameras costs
        more than round 1's Huber optimum; round 2 starts no higher than
        round 1 ended and needs at most 2 accepted steps."""
        scene, raw, _ = make_scene(10, 100, visibility=0.8, noise=1e-3, seed=seed)
        scene, _ = inject_outliers(scene, 0.05, np.random.default_rng(seed))
        start = perturbed_gt(raw, np.random.default_rng(100 + seed))
        _, diag = bundle_adjust(scene, start)
        first, second = diag.objectives
        assert second[0] <= first[-1]
        assert len(second) - 1 <= 2

    def test_cheirality_counts(self):
        """Observations with depth <= 0 at each round's start and end: a
        point mirrored through camera 0's center starts behind it; a
        restart does not keep it there, and round 2 starts with every
        observation in front."""
        scene, raw, _ = make_scene(num_views=6, num_points=40, seed=3)
        start = gt_reconstruction(raw)
        pts = start.points.copy()
        pts[0] = 2.0 * start.centers[0] - pts[0]
        start.points = pts

        def behind(recon):
            _, z = project(camera_matrices(recon), recon.points,
                           scene.view_idx, scene.point_idx)
            return int((z[:, 2] <= 0).sum())

        assert behind(start) >= 1
        first, diag = bundle_adjust(scene, start, BaConfig(rounds=1))
        assert diag.behind_camera == [[behind(start), behind(first)]]
        restarted, kept = _restart_points(scene, start, BaConfig())
        assert kept == scene.num_points - 1
        np.testing.assert_array_equal(restarted.points[0], triangulate(scene, start)[0][0])
        np.testing.assert_array_equal(restarted.points[1:], start.points[1:])
        assert behind(restarted) == 0
        second_start, kept = _restart_points(scene, first, BaConfig())
        refined, diag = bundle_adjust(scene, start)
        assert diag.restart_kept == [kept]
        assert diag.behind_camera == [[behind(start), behind(first)],
                                      [behind(second_start), behind(refined)]]
        assert behind(second_start) == 0
        # every point and center reflected through the origin: the same
        # image points with every depth negated, which the triangulation
        # matches but cannot bring in front; no point is kept
        gt = gt_reconstruction(raw)
        reflected = replace(gt, centers=-gt.centers, points=-gt.points)
        assert behind(reflected) == scene.num_observations
        assert _restart_points(scene, reflected, BaConfig())[1] == 0

    @pytest.mark.parametrize("case", ["ground truth, one round", "perturbed", "projective"])
    def test_input_untouched_and_not_aliased(self, rng, case):
        """The input keeps its values, and no returned array shares memory
        with it, also when no step is accepted (one round from the exact
        optimum stops at the gradient test)."""
        mode = "projective" if case == "projective" else "euclidean"
        scene, raw, _ = make_scene(num_views=6, num_points=40, seed=3, mode=mode)
        cfg = BaConfig()
        if case == "ground truth, one round":
            start, cfg = gt_reconstruction(raw), BaConfig(rounds=1)
        elif case == "perturbed":
            start = perturbed_gt(raw, rng)
        else:
            scene, record = normalize_hartley(scene)
            perturbed = perturbed_gt(raw, rng)
            P = np.einsum("kab,kbc->kac", record.transforms, camera_matrices(perturbed))
            P /= np.linalg.norm(P.reshape(6, 12), axis=1)[:, None, None]
            start = Reconstruction(mode="projective", matrices=P, points=perturbed.points)
        fields = ("points", "quats", "centers", "matrices")
        inputs = [a for a in (getattr(start, f) for f in fields) if a is not None]
        before = [a.copy() for a in inputs]
        refined, diag = bundle_adjust(scene, start, cfg)
        if case == "ground truth, one round":
            assert diag.stop_reasons == ["gradient"] and diag.lambdas == [[]]
        else:
            assert diag.converged and diag.lambdas[0]        # round 1 steps
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)
        outputs = [a for a in (getattr(refined, f) for f in fields) if a is not None]
        assert len(outputs) == len(inputs)
        assert not any(np.shares_memory(a, b) for a in outputs for b in inputs)


def scene_with_unusable_point(rng, mode, n, m=5):
    """A perturbed start on an (m, n) scene where point 0 keeps two
    observations and sits on the principal planes of both cameras, so the
    depth guard drops both."""
    scene, raw, _ = make_scene(num_views=m, num_points=n, visibility=0.8,
                               seed=11, mode=mode)
    start = perturbed_gt(raw, rng)
    if mode == "projective":
        scene, record = normalize_hartley(scene)
        P = np.einsum("kab,kbc->kac", record.transforms, camera_matrices(start))
        P /= np.linalg.norm(P.reshape(m, 12), axis=1)[:, None, None]
        start = Reconstruction(mode="projective", matrices=P, points=start.points)
    vi, pi = scene.view_idx, scene.point_idx
    views = vi[pi == 0][:2]
    keep = (pi != 0) | np.isin(vi, views)
    scene = replace(scene, view_idx=vi[keep], point_idx=pi[keep], xy=scene.xy[keep])
    depth_rows = camera_matrices(start)[views, 2]
    start.points[0] = np.linalg.lstsq(depth_rows[:, :3], -depth_rows[:, 3],
                                      rcond=None)[0]
    return scene, start


def normal_blocks(scene, recon, cfg=BaConfig()):
    return _build_normal_blocks(scene, recon, *_residuals(scene, recon), cfg)


class TestSchurAgainstDense:
    def test_step_matches_dense_solution(self, rng):
        """The point-block elimination must reproduce the full normal
        equation solve."""
        scene, raw, _ = make_scene(num_views=5, num_points=25, visibility=0.8,
                                   seed=9)
        nb = normal_blocks(scene, perturbed_gt(raw, rng))
        for lam in (1e-3, 1e-1, 10.0):
            dc_s, dp_s = solve_schur_step(nb, lam)
            dc_d, dp_d = solve_dense_step(nb, lam)
            np.testing.assert_allclose(dc_s, dc_d, atol=1e-9)
            np.testing.assert_allclose(dp_s, dp_d, atol=1e-9)

    @pytest.mark.parametrize("mode", ["euclidean", "projective"])
    def test_slices_and_unusable_point_match_dense(self, rng, mode):
        """Points spanning three slices, the last one partial, including a
        point whose every observation has zero depth and so drops out of
        the normal blocks (its observations keep zero coupling blocks)."""
        scene, start = scene_with_unusable_point(rng, mode, 2 * SCHUR_SLICE + 37)
        nb = normal_blocks(scene, start)
        assert not nb.W[nb.pi == 0].any() and not nb.V[0].any() and not nb.gp[0].any()
        for lam in (1e-3, 1e-1, 10.0):
            dc_s, dp_s = solve_schur_step(nb, lam)
            dc_d, dp_d = solve_dense_step(nb, lam)
            np.testing.assert_allclose(dc_s, dc_d, atol=1e-9)
            np.testing.assert_allclose(dp_s, dp_d, atol=1e-9)

    @pytest.mark.parametrize("mode", ["euclidean", "projective"])
    def test_blocks_match_per_observation_oracle(self, rng, mode):
        """U, V, W, gc and gp against the per-observation block builder,
        to 1e-12 of each array's largest entry; the unusable point's
        observations carry zero coupling blocks."""
        scene, start = scene_with_unusable_point(rng, mode, 60)
        nb = normal_blocks(scene, start)
        U, V, W, gc, gp, usable = normal_blocks_oracle(scene, start, BaConfig().huber_threshold)
        assert not usable.all()
        np.testing.assert_array_equal(nb.vi, scene.view_idx)
        np.testing.assert_array_equal(nb.pi, scene.point_idx)
        for got, want in ((nb.U, U), (nb.V, V), (nb.W[usable], W), (nb.gc, gc), (nb.gp, gp)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert not nb.W[~usable].any()

    def test_gradient_blocks_match_fd(self, rng):
        """gc/gp are the gradient of the robust objective: check against
        central differences through the camera and point parameters."""
        scene, raw, _ = make_scene(num_views=3, num_points=10, seed=10)
        start = perturbed_gt(raw, rng, rot_deg=5.0, center_frac=0.05, point_sigma=0.05)
        cfg = BaConfig()
        nb = normal_blocks(scene, start, cfg)

        def objective(recon):
            r, _ = _residuals(scene, recon)
            return _robust_objective(r, cfg.huber_threshold)

        h = 1e-6
        no_points = np.zeros_like(start.points)
        # camera 0, all six local coordinates
        for k in range(6):
            delta = np.zeros((3, 6))
            delta[0, k] = h
            plus = _stepped(start, delta, no_points)
            minus = _stepped(start, -delta, no_points)
            fd = (objective(plus) - objective(minus)) / (2 * h)
            assert abs(fd - nb.gc[0, k]) <= 1e-4 * max(1.0, abs(fd))
        # point 0, three coordinates
        for k in range(3):
            delta = np.zeros_like(start.points)
            delta[0, k] = h
            plus = replace(start, points=start.points + delta)
            minus = replace(start, points=start.points - delta)
            fd = (objective(plus) - objective(minus)) / (2 * h)
            assert abs(fd - nb.gp[0, k]) <= 1e-4 * max(1.0, abs(fd))


class TestAlignment:
    def test_identity_when_equal(self):
        _, raw, _ = make_scene(num_views=5, num_points=20, seed=11)
        gt = gt_reconstruction(raw)
        T = align_similarity(gt, gt)
        assert abs(T.scale - 1.0) <= 1e-12
        np.testing.assert_allclose(quat_to_matrix(T.quat), np.eye(3), atol=1e-12)
        np.testing.assert_allclose(T.translation, 0.0, atol=1e-12)

    def test_recovers_known_similarity(self, rng):
        _, raw, _ = make_scene(num_views=6, num_points=20, seed=12)
        est = gt_reconstruction(raw)
        for _ in range(10):
            R = axis_angle_to_matrix(rng.normal(size=3), rng.uniform(0, np.pi))
            expected = SimilarityTransform(scale=float(rng.uniform(0.5, 2.0)),
                                           quat=matrix_to_quat(R),
                                           translation=rng.normal(size=3))
            gt = expected.apply_reconstruction(est)
            got = align_similarity(est, gt)
            assert abs(got.scale - expected.scale) <= 1e-10
            dR = quat_to_matrix(got.quat) @ quat_to_matrix(expected.quat).T
            dq = matrix_to_quat(dR)
            angle = 2.0 * np.arctan2(np.linalg.norm(dq[1:]), abs(dq[0]))
            assert angle <= 1e-8
            np.testing.assert_allclose(got.translation, expected.translation,
                                       atol=1e-9)

    def test_two_cameras_degenerate(self):
        q = np.array([[1.0, 0, 0, 0]] * 2)
        c = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        r = Reconstruction(mode="euclidean", quats=q, centers=c,
                           points=np.zeros((1, 3)))
        with pytest.raises(DegenerateConfigError):
            align_similarity(r, r)

    def test_collinear_centers_degenerate(self):
        q = np.array([[1.0, 0, 0, 0]] * 4)
        c = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        r = Reconstruction(mode="euclidean", quats=q, centers=c,
                           points=np.zeros((1, 3)))
        with pytest.raises(DegenerateConfigError):
            align_similarity(r, r)


class TestMetrics:
    def test_zero_at_ground_truth(self):
        scene, raw, record = make_scene(num_views=5, num_points=20, seed=13)
        gt = gt_reconstruction(raw)
        rep = metrics(scene, gt, gt, record)
        assert rep.mean_reprojection_px <= 1e-9
        assert rep.mean_rotation_deg <= 1e-9
        assert rep.mean_translation <= 1e-9

    def test_single_rotated_camera(self, rng):
        """Rotating one camera by 10 degrees shows up as that camera's
        rotation error, with the alignment pinned by the others."""
        scene, raw, record = make_scene(num_views=8, num_points=30, seed=14)
        gt = gt_reconstruction(raw)
        est = gt_reconstruction(raw)
        axis = rng.normal(size=3)
        dq = matrix_to_quat(axis_angle_to_matrix(axis, np.deg2rad(10.0)))
        quats = est.quats.copy()
        quats[2] = quat_multiply(dq, quats[2])
        est.quats = quats
        rep = metrics(scene, est, gt, record)
        assert abs(rep.mean_rotation_deg - 10.0 / 8) <= 1e-5

    def test_gauge_invariance(self, rng):
        """An arbitrary global similarity of the reconstruction leaves all
        three metrics at zero."""
        scene, raw, record = make_scene(num_views=6, num_points=25, seed=15)
        gt = gt_reconstruction(raw)
        for _ in range(5):
            T = SimilarityTransform(
                scale=float(rng.uniform(0.5, 2.0)),
                quat=matrix_to_quat(axis_angle_to_matrix(rng.normal(size=3),
                                                         rng.uniform(0, np.pi))),
                translation=rng.normal(size=3))
            moved = T.apply_reconstruction(gt)
            rep = metrics(scene, moved, gt, record)
            assert rep.mean_reprojection_px <= 1e-6
            assert rep.mean_rotation_deg <= 1e-6
            assert rep.mean_translation <= 1e-6

    def test_quaternion_double_cover(self):
        scene, raw, record = make_scene(num_views=5, num_points=20, seed=16)
        gt = gt_reconstruction(raw)
        est = gt_reconstruction(raw)
        flipped = gt_reconstruction(raw)
        flipped.quats = -flipped.quats
        a = metrics(scene, est, gt, record)
        b = metrics(scene, flipped, gt, record)
        assert a.mean_rotation_deg == b.mean_rotation_deg
        assert a.mean_translation == b.mean_translation
        assert a.mean_reprojection_px == b.mean_reprojection_px

    def test_pixel_units_recovered(self, rng):
        """With a focal-length calibration, reported reprojection errors
        are in pixels (focal times the normalized residual)."""
        from dataclasses import replace
        _, raw, _ = make_scene(num_views=4, num_points=15, seed=17)
        K = np.tile(np.eye(3), (4, 1, 1))
        K[:, 0, 0] = K[:, 1, 1] = 1000.0
        # rescale stored (normalized) observations into pixels
        pixel_scene = replace(raw, xy=raw.xy * 1000.0, intrinsics=K)
        from tracksfm.scene import normalize_euclidean
        scene_n, record = normalize_euclidean(pixel_scene)
        gt = gt_reconstruction(raw)
        est = gt_reconstruction(raw)
        pts = est.points.copy()
        pts += rng.normal(size=pts.shape) * 1e-4
        est.points = pts
        rep_px = metrics(scene_n, est, gt, record)
        errs_norm = reprojection_errors_px(scene_n, est, None)
        assert abs(rep_px.mean_reprojection_px - 1000.0 * errs_norm.mean()) < 1e-6

    def test_zero_depth_reads_inf(self):
        """An observation on a camera's principal plane reports an infinite
        pixel error without a floating-point warning; the others stay
        exact."""
        scene, raw, record = make_scene(num_views=4, num_points=15, seed=18)
        est = gt_reconstruction(raw)
        pts = est.points.copy()
        pts[scene.point_idx[0]] = est.centers[scene.view_idx[0]]
        est.points = pts
        with np.errstate(all="raise"):
            errs = reprojection_errors_px(scene, est, record)
        moved = scene.point_idx == scene.point_idx[0]
        assert np.isinf(errs[0])
        assert np.isfinite(errs[1:]).all()
        assert errs[~moved].max() <= 1e-9


class TestReconIo:
    def test_json_roundtrip_euclidean(self, tmp_path, rng):
        _, raw, _ = make_scene(num_views=4, num_points=10, seed=18)
        recon = gt_reconstruction(raw)
        path = tmp_path / "r.json"
        save_reconstruction(recon, path)
        back = load_reconstruction(path)
        np.testing.assert_array_equal(back.quats, recon.quats)
        np.testing.assert_array_equal(back.centers, recon.centers)
        np.testing.assert_array_equal(back.points, recon.points)

    def test_json_roundtrip_projective(self, tmp_path, rng):
        recon = Reconstruction(mode="projective",
                               matrices=rng.normal(size=(3, 3, 4)),
                               points=rng.normal(size=(7, 3)))
        path = tmp_path / "r.json"
        save_reconstruction(recon, path)
        back = load_reconstruction(path)
        np.testing.assert_array_equal(back.matrices, recon.matrices)

    def test_ply_export(self, tmp_path, rng):
        points = rng.normal(size=(9, 3))
        path = tmp_path / "p.ply"
        export_ply(points, path)
        blob = path.read_bytes()
        header, _, body = blob.partition(b"end_header\n")
        assert b"binary_little_endian" in header
        assert b"element vertex 9" in header
        np.testing.assert_array_equal(
            np.frombuffer(body, dtype="<f8").reshape(9, 3), points)
