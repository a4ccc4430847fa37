"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them live).

Paper-scale accuracy tables are out of scope by design (criterion 1): they
need the original multi-scene datasets and a ~145M-parameter multi-week
training run. The criteria below are the property-based substitutes, all
runnable on synthetic desk-scale scenes.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from tracksfm import autodiff as ad
from tracksfm.autodiff import grad_check
from tracksfm.geometry import (SimilarityTransform, align_similarity,
                               bundle_adjust, metrics, triangulate)
from tracksfm.network import (NetConfig, Reconstruction, forward, init_params,
                              parameter_count)
from tracksfm.objective import loss
from tracksfm.rotations import (axis_angle_to_matrix, matrix_to_quat,
                                quat_multiply, quat_to_matrix)
from tracksfm.scene import (SceneGenConfig, generate_synthetic,
                            normalize_euclidean)
from tracksfm.train import (TrainConfig, augment, inject_outliers,
                            load_checkpoint, lr_at, save_checkpoint,
                            train_loop)

from conftest import gt_reconstruction


def criterion(num, ok, detail):
    label = f"{num:02d}" if isinstance(num, int) else str(num)
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {label}] {status}: {detail}")
    assert ok, f"criterion {label}: {detail}"


def normalized_scene(cfg, seed):
    scene = generate_synthetic(cfg, seed=seed)
    return normalize_euclidean(scene)[0], scene


def test_criterion_01_paper_scale_out_of_scope():
    """Table-level numbers (0.85 px / 0.144 deg / 0.07 m after BA) are not
    reproducible at desk scale; the remaining criteria substitute for them."""
    criterion(1, True, "paper-scale table reproduction declared out of scope; "
                       "property-based substitutes follow")


def test_criterion_02_permutation_equivariance():
    """forward commutes with joint view/point permutations, 50 scenes."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    net = NetConfig(layers=2, d_p=8, d_v=16, d_s=8, d_g=16)
    params = init_params(net, seed=1)
    worst = 0.0
    for trial in range(50):
        m = int(rng.integers(3, 9))
        n = int(rng.integers(10, 41))
        cfg = SceneGenConfig(num_views=m, num_points=n, visibility=0.8)
        scene, _ = normalized_scene(cfg, seed=trial)
        base = forward(scene, params)
        pv = rng.permutation(scene.num_views)
        pp = rng.permutation(scene.num_points)
        permuted = replace(scene, view_idx=pv[scene.view_idx],
                           point_idx=pp[scene.point_idx],
                           gt_quats=None, gt_centers=None, gt_points=None)
        out = forward(permuted, params)
        worst = max(worst,
                    np.abs(out.quats.values[pv] - base.quats.values).max(),
                    np.abs(out.centers.values[pv] - base.centers.values).max(),
                    np.abs(out.points.values[pp] - base.points.values).max())
    elapsed = time.time() - t0
    criterion(2, worst <= 1e-9 and elapsed < 60,
              f"max deviation {worst:.2e} (tol 1e-9) over 50 scenes in {elapsed:.1f}s")


def test_criterion_03_gradient_fidelity():
    """Reverse-mode gradients of the full loss match central differences at
    relative 1e-4, on the tiny configuration, including one evaluation with
    an observation on the hinge branch. Every parameter tensor is checked
    at up to 40 seeded coordinates (the 2-minute budget rules out all 36k)."""
    t0 = time.time()
    net = NetConfig(layers=2, d_p=8, d_v=32, d_s=16, d_g=64)
    cfg = SceneGenConfig(num_views=3, num_points=10, visibility=1.0)
    scene, _ = normalized_scene(cfg, seed=5)

    params = init_params(net, seed=2)

    def objective():
        return loss(scene, forward(scene, params))[0]

    report = grad_check(objective, params.tensors, step=1e-5, tol=1e-4,
                        max_coords_per_param=40, seed=7, refine_step=2e-6)

    # hinge-branch configuration: pull the whole scene behind the cameras
    # by translating the regressed points; find an init whose predictions
    # put at least one observation below the depth threshold
    hinge_params = None
    for seed in range(200):
        cand = init_params(net, seed=seed)
        _, rep = loss(scene, forward(scene, cand))
        if rep.hinge_count >= 1:
            hinge_params = cand
            break
    assert hinge_params is not None, "no init with an active hinge found"

    def hinge_objective():
        return loss(scene, forward(scene, hinge_params))[0]

    _, rep = loss(scene, forward(scene, hinge_params))
    hinge_report = grad_check(hinge_objective, hinge_params.tensors, step=1e-5,
                              tol=1e-4, max_coords_per_param=10, seed=8,
                              refine_step=2e-6)
    elapsed = time.time() - t0
    ok = report.passed and hinge_report.passed and elapsed < 120
    criterion(3, ok,
              f"max rel dev {report.max_relative:.2e}, hinge branch "
              f"({rep.hinge_count} obs) {hinge_report.max_relative:.2e} "
              f"(tol 1e-4) in {elapsed:.1f}s")


OVERFIT_GEN = SceneGenConfig(num_views=6, num_points=40, visibility=1.0,
                             ring_radius=8.0, arc_degrees=60.0)
OVERFIT_NET = NetConfig(layers=2, d_p=16, d_v=64, d_s=32, d_g=128)
OVERFIT_SCENE_SEED = 11
OVERFIT_NET_SEED = 0


@pytest.fixture(scope="module")
def overfit_run():
    scene, _ = normalized_scene(OVERFIT_GEN, seed=OVERFIT_SCENE_SEED)
    cfg = TrainConfig(net=OVERFIT_NET, epochs=5000, validate_every=10**9,
                      seed=OVERFIT_NET_SEED)
    result = train_loop([scene], [], cfg)
    return scene, cfg, result


def test_criterion_04_overfit_convergence(overfit_run):
    """Tiny model on one noise-free scene (m=6, n=40) under the production
    schedule (warmup 2500, base 1e-4) overfits within 5000 iterations:
    mean reprojection first falls below 1e-2 within the budget, the median
    of the final 500-iteration window is below 1.5e-2, and that median is
    at most 0.6 of the first post-warmup window's.

    The gates read window statistics, not one iterate: after warmup the
    loss oscillates in a band (0.008-0.036 over the final window), and the
    BLAS kernel and thread count decide where in the band an iterate falls.
    Runs under different settings agree to 2e-10 through iteration 100 and
    then diverge. Records (2 cores, numpy 2.4.6, OpenBLAS 0.3.31, AVX512
    kernel unless set; "windows" are the medians of iterations 2500-2999,
    ..., 4500-4999; "final" is the last window):

      setting                      first<1e-2  final min  final median
      threads unset                4428        .0088      .0117
      OPENBLAS_NUM_THREADS=1       3700        .0079      .0111
      OPENBLAS_CORETYPE=Haswell    3932        .0081      .0106
      Haswell + 1 thread           4183        .0086      .0118

      setting                      windows                        ratio
      threads unset                .0265 .0230 .0166 .0133 .0117  0.440
      OPENBLAS_NUM_THREADS=1       .0275 .0189 .0142 .0129 .0111  0.403
      OPENBLAS_CORETYPE=Haswell    .0224 .0135 .0151 .0116 .0106  0.473
      Haswell + 1 thread           .0269 .0148 .0137 .0118 .0118  0.438

    Iterate 4999 alone reads .0117, .0115, .0105 and .0134, three of them
    above 1e-2. The level gate leaves at least 27% headroom on every record,
    and so does the progress gate. Window statistics need not fall
    monotonically (Haswell: medians .0135 -> .0151 with threads unset,
    means .0125 -> .0132 with one thread), so progress compares the last
    window with the first. Without global gradient normalization (threads
    unset or one thread alike) the run never crosses 1e-2, its windows are
    .0361 .0345 .0334 .0322 .0317 and its ratio 0.877: every gate rejects
    it."""
    scene, cfg, result = overfit_run
    hist = result.loss_history
    crossed = int(np.argmax(hist < 1e-2)) if (hist < 1e-2).any() else -1

    medians = [float(np.median(hist[2500 + 500 * k: 3000 + 500 * k]))
               for k in range(5)]
    ratio = medians[-1] / medians[0]
    ok = (len(hist) == 5000 and crossed >= 0 and medians[-1] < 1.5e-2
          and ratio <= 0.6)
    criterion(4, ok,
              f"{len(hist)} iterations (need 5000); first below 1e-2 at "
              f"{crossed} (need >= 0); final-window median {medians[-1]:.4f} "
              f"(need < 0.0150); final/first window median {ratio:.3f} "
              f"(need <= 0.600); post-warmup window medians "
              f"{[f'{m:.4f}' for m in medians]}")


def test_pipeline_inference_plus_ba(overfit_run, tmp_path):
    """Full pipeline on the overfit model, driven through the CLI:
    synth -> train (cached fixture) -> infer --triangulate -> ba brings the
    noise-free scene below 1e-6 normalized reprojection, with inference and
    BA timings recorded separately in the manifests."""
    import json

    from click.testing import CliRunner

    from tracksfm.cli import main as cli_main
    from tracksfm.geometry import load_reconstruction
    from tracksfm.scene import save_scene

    scene, cfg, result = overfit_run
    scene_path = tmp_path / "scene.json"
    save_scene(scene, scene_path)
    ckpt_path = tmp_path / "ckpt.bin"
    save_checkpoint(result.checkpoint, ckpt_path)

    runner = CliRunner()
    r1 = runner.invoke(cli_main, ["infer", "--checkpoint", str(ckpt_path),
                                  "--scene", str(scene_path), "--triangulate",
                                  "--out", str(tmp_path / "inf")])
    assert r1.exit_code == 0, r1.output
    r2 = runner.invoke(cli_main, ["ba", "--scene", str(scene_path),
                                  "--recon", str(tmp_path / "inf" / "reconstruction.json"),
                                  "--out", str(tmp_path / "ba")])
    assert r2.exit_code == 0, r2.output
    refined = load_reconstruction(tmp_path / "ba" / "reconstruction.json")
    err = loss(scene, refined)[1].mean_reprojection
    man_inf = json.loads((tmp_path / "inf" / "manifest.json").read_text())
    man_ba = json.loads((tmp_path / "ba" / "manifest.json").read_text())
    timings_split = ("inference" in man_inf["timings"]
                     and "triangulation" in man_inf["timings"]
                     and "bundle_adjustment" in man_ba["timings"])
    ok = err < 1e-6 and timings_split
    criterion("e2e", ok, f"end-to-end pipeline reprojection {err:.2e} (< 1e-6), "
                         f"stage timings recorded separately={timings_split}")


def test_criterion_05_bundle_adjustment():
    """From 2-degree rotation / 1%-diameter center perturbations of the
    ground truth, two-round Huber BA reaches mean reprojection < 1e-8 in at
    least 95/100 seeds; the LM objective decreases monotonically over
    accepted steps in 100/100."""
    t0 = time.time()
    cfg = SceneGenConfig(num_views=10, num_points=100, visibility=0.8)
    converged = 0
    monotone = 0
    for seed in range(100):
        scene_n, scene = normalized_scene(cfg, seed=seed)
        rng = np.random.default_rng(seed + 10_000)
        diam = np.linalg.norm(scene.gt_centers.max(0) - scene.gt_centers.min(0))
        quats = scene.gt_quats.copy()
        for i in range(len(quats)):
            axis = rng.normal(size=3)
            dq = matrix_to_quat(axis_angle_to_matrix(axis, np.deg2rad(2.0)))
            quats[i] = quat_multiply(dq, quats[i])
        start = Reconstruction(
            mode="euclidean", quats=quats,
            centers=scene.gt_centers + rng.normal(size=(10, 3)) * 0.01 * diam,
            points=scene.gt_points + rng.normal(size=(100, 3)) * 0.01,
        )
        refined, diag = bundle_adjust(scene_n, start)
        if loss(scene_n, refined)[1].mean_reprojection < 1e-8:
            converged += 1
        if all(all(b < a for a, b in zip(t, t[1:])) for t in diag.objectives):
            monotone += 1
    elapsed = time.time() - t0
    ok = converged >= 95 and monotone == 100 and elapsed < 300
    criterion(5, ok, f"{converged}/100 below 1e-8, {monotone}/100 monotone, "
                     f"in {elapsed:.1f}s")


def test_criterion_06_triangulation_oracle():
    """triangulate(project(gt)) recovers 1000 points seen by 2-5 views to
    1e-9."""
    t0 = time.time()
    worst = 0.0
    total_points = 0
    for seed in range(5):
        cfg = SceneGenConfig(num_views=5, num_points=200, visibility=0.55)
        scene_n, scene = normalized_scene(cfg, seed=seed + 300)
        recon = gt_reconstruction(scene)
        pts, degenerate = triangulate(scene_n, recon)
        assert not degenerate.any()
        worst = max(worst, np.abs(pts - scene.gt_points).max())
        total_points += scene.num_points
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and total_points == 1000 and elapsed < 10
    criterion(6, ok, f"max recovery error {worst:.2e} (tol 1e-9) over "
                     f"{total_points} points in {elapsed:.2f}s")


def test_criterion_07_alignment_oracle():
    """align_similarity recovers known random similarities (s in [0.5, 2])
    to tight tolerances over 100 trials; metrics are gauge-invariant."""
    rng = np.random.default_rng(77)
    cfg = SceneGenConfig(num_views=6, num_points=20, visibility=1.0)
    scene_n, scene = normalized_scene(cfg, seed=400)
    est = gt_reconstruction(scene)
    worst_s = worst_rot = worst_t = 0.0
    for _ in range(100):
        R = axis_angle_to_matrix(rng.normal(size=3), rng.uniform(0, np.pi))
        expected = SimilarityTransform(scale=float(rng.uniform(0.5, 2.0)),
                                       quat=matrix_to_quat(R),
                                       translation=rng.normal(size=3) * 2)
        gt = expected.apply_reconstruction(est)
        got = align_similarity(est, gt)
        dq = matrix_to_quat(quat_to_matrix(got.quat)
                            @ quat_to_matrix(expected.quat).T)
        worst_s = max(worst_s, abs(got.scale - expected.scale))
        worst_rot = max(worst_rot,
                        2.0 * np.arctan2(np.linalg.norm(dq[1:]), abs(dq[0])))
        worst_t = max(worst_t,
                      np.abs(got.translation - expected.translation).max())

    worst_metric = 0.0
    for _ in range(10):
        T = SimilarityTransform(scale=float(rng.uniform(0.5, 2.0)),
                                quat=matrix_to_quat(axis_angle_to_matrix(
                                    rng.normal(size=3), rng.uniform(0, np.pi))),
                                translation=rng.normal(size=3))
        moved = T.apply_reconstruction(est)
        rep = metrics(scene_n, moved, est)
        worst_metric = max(worst_metric, rep.mean_reprojection_px,
                           rep.mean_rotation_deg, rep.mean_translation)
    ok = worst_s <= 1e-10 and worst_rot <= 1e-8 and worst_t <= 1e-9 \
        and worst_metric <= 1e-6
    criterion(7, ok, f"scale {worst_s:.2e} (1e-10), rotation {worst_rot:.2e} rad "
                     f"(1e-8), translation {worst_t:.2e} (1e-9), "
                     f"gauge metrics {worst_metric:.2e} (1e-6)")


def test_criterion_08_outlier_injection_contract():
    """100 scenes at rate 0.10: corrupted count equals round(0.1 * N)
    exactly, coverage lower bounds hold, and the training loop's loss
    targets stay uncorrupted."""
    cfg = SceneGenConfig(num_views=10, num_points=200, visibility=0.6)
    count_ok = bounds_ok = True
    for seed in range(100):
        scene = generate_synthetic(cfg, seed=seed + 600)
        corrupted, mask = inject_outliers(scene, 0.10,
                                          np.random.default_rng(seed))
        if mask.sum() != round(0.10 * scene.num_observations):
            count_ok = False
        inl_pv = np.bincount(scene.view_idx[~mask], minlength=10)
        inl_vp = np.bincount(scene.point_idx[~mask], minlength=200)
        if inl_pv.min() < 8 or inl_vp.min() < 2:
            bounds_ok = False

    # the loop must compute the loss against the clean targets
    targets = []
    scene_n, _ = normalized_scene(SceneGenConfig(num_views=12, num_points=60,
                                                 visibility=1.0), seed=999)
    tcfg = TrainConfig(net=NetConfig(layers=1, d_p=8, d_v=16, d_s=8, d_g=16),
                       epochs=1, seed=0,
                       outliers=replace(TrainConfig().outliers, enabled=True))
    train_loop([scene_n], [], tcfg,
               iteration_callback=lambda **kw: targets.append(kw))
    cb = targets[0]
    corrupted_input = np.any(cb["net_input"].xy != cb["target"].xy)
    clean_target = loss(cb["target"],
                        gt_reconstruction(cb["target"]))[1].mean_reprojection <= 1e-10
    ok = count_ok and bounds_ok and corrupted_input and clean_target
    criterion(8, ok, f"exact counts={count_ok}, bounds={bounds_ok}, "
                     f"input corrupted={corrupted_input}, targets clean={clean_target}")


def test_criterion_09_augmentation_consistency():
    """100 augmented noise-free scenes: transformed ground truth reprojects
    to <= 1e-10; sampled angles stay inside [-15,15] / [-20,20] degrees."""
    cfg = SceneGenConfig(num_views=6, num_points=30, visibility=0.9)
    worst = 0.0
    alphas, gammas = [], []
    for seed in range(100):
        scene_n, _ = normalized_scene(cfg, seed=seed + 800)
        out, draws = augment(scene_n, np.random.default_rng(seed),
                             return_draws=True)
        _, rep = loss(out, gt_reconstruction(out))
        worst = max(worst, rep.mean_reprojection)
        alphas.extend(draws.alphas_deg)
        gammas.extend(draws.gammas_deg)
    alphas, gammas = np.asarray(alphas), np.asarray(gammas)
    in_range = (np.abs(alphas) <= 15.0).all() and (np.abs(gammas) <= 20.0).all()
    spread = alphas.max() > 10 and alphas.min() < -10 \
        and gammas.max() > 13 and gammas.min() < -13
    ok = worst <= 1e-10 and in_range and spread
    criterion(9, ok, f"worst transformed-gt loss {worst:.2e} (1e-10), "
                     f"alpha in [{alphas.min():.1f},{alphas.max():.1f}], "
                     f"gamma in [{gammas.min():.1f},{gammas.max():.1f}]")


def test_criterion_10_schedule_and_resume(tmp_path):
    """lr_at hits its three anchor values exactly; training resumes from a
    checkpoint file bit-exactly."""
    cfg = TrainConfig(net=NetConfig(layers=1, d_p=8, d_v=16, d_s=8, d_g=16),
                      epochs=6, validate_every=3, seed=0)
    exact = (lr_at(0, cfg) == 0.0 and lr_at(2500, cfg) == 1e-4
             and lr_at(252500, cfg) == 1e-5)

    scene_n, _ = normalized_scene(SceneGenConfig(num_views=5, num_points=20,
                                                 visibility=1.0), seed=55)
    full = train_loop([scene_n], [scene_n], cfg)
    half = train_loop([scene_n], [scene_n],
                      replace(cfg, epochs=3))
    path = tmp_path / "mid.bin"
    save_checkpoint(half.checkpoint, path)
    resumed = train_loop([scene_n], [scene_n], cfg,
                         resume_from=load_checkpoint(path))
    bit_exact = all(
        np.array_equal(getattr(full.checkpoint, buffer), getattr(resumed.checkpoint, buffer))
        for buffer in ("params", "adam_m", "adam_v"))
    ok = exact and bit_exact
    criterion(10, ok, f"lr checkpoints exact={exact}, resume bit-exact={bit_exact}")


def test_criterion_11_parameter_count():
    """The full-scale configuration's parameter count lands within 2% of
    the nominal 145M; the derived value 145,176,240 is locked."""
    cfg = NetConfig(layers=12, d_p=32, d_v=1024, d_s=64, d_g=2048)
    count = parameter_count(cfg)
    within = abs(count - 145e6) / 145e6 < 0.02
    locked = count == 145_176_240
    criterion(11, within and locked,
              f"count {count:,} ({(count - 145e6) / 145e6 * 100:+.2f}% of 145M), "
              f"locked value matched={locked}")
