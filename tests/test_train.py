import errno
import json
import struct
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from tracksfm import autodiff as ad
from tracksfm import cli, network
from tracksfm import train as train_mod
from tracksfm.autodiff import NumericError
from tracksfm.network import ModelParams, NetConfig, init_params, parameter_count
from tracksfm.objective import loss
from tracksfm.rotations import axis_angle_to_matrix, quat_to_matrix
from tracksfm.scene import Scene, SceneError, SceneGenConfig, generate_synthetic, save_scene
from tracksfm.train import (
    AdamState,
    AugmentConfig,
    Checkpoint,
    InfeasibleOutlierRateError,
    OutlierConfig,
    TrainConfig,
    adam_step,
    augment,
    inject_outliers,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train_loop,
)

from conftest import augment_draws, make_scene, gt_reconstruction

TINY_NET = NetConfig(layers=1, d_p=8, d_v=16, d_s=8, d_g=16)
SCALAR_NET = NetConfig(layers=1, d_p=4, d_v=4, d_s=4, d_g=4)


def scalar_params(value):
    """A small net's parameters, all at `value`: under one gradient value
    for every element, each element is the same scalar under Adam."""
    return ModelParams(SCALAR_NET, np.full(parameter_count(SCALAR_NET), value))


def step_theta(params, state, grad, lr):
    for p in params.tensors.values():
        p.grad = p.grad_buffer
        p.grad.fill(grad)
    adam_step(params, state, lr=lr)


def set_random_grads(params, rng):
    """One normal draw per tensor, written into its view of the gradient
    buffer."""
    for p in params.tensors.values():
        p.grad = p.grad_buffer
        p.grad[...] = rng.normal(size=p.shape)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        """From zero moments, the bias-corrected first update is
        -lr * g / (|g| + eps'), i.e. -lr * sign(g) up to epsilon."""
        params = scalar_params(1.0)
        step_theta(params, AdamState.zeros(params), 0.3, lr=0.01)
        np.testing.assert_allclose(params.flat, 1.0 - 0.01, atol=1e-8)
        params2 = scalar_params(1.0)
        step_theta(params2, AdamState.zeros(params2), -7.0, lr=0.01)
        np.testing.assert_allclose(params2.flat, 1.0 + 0.01, atol=1e-8)

    def test_quadratic_convergence(self):
        """f(theta) = theta^2 from 1.0 falls below 1e-6 within 2000 steps
        at lr 1e-2."""
        params = scalar_params(1.0)
        state = AdamState.zeros(params)
        for _ in range(2000):
            step_theta(params, state, 2.0 * params.flat[0], lr=1e-2)
        assert np.all(params.flat ** 2 < 1e-6)

    def test_zero_grad_keeps_params_decays_moments(self):
        """From zero moments a zero gradient is a no-op; from nonzero
        moments it decays them by the beta factors."""
        params = scalar_params(2.0)
        state = AdamState.zeros(params)
        step_theta(params, state, 0.0, lr=1e-3)
        np.testing.assert_allclose(params.flat, 2.0, atol=1e-15)
        step_theta(params, state, 4.0, lr=0.0)
        m_before = state.m.copy()
        v_before = state.v.copy()
        step_theta(params, state, 0.0, lr=0.0)
        np.testing.assert_allclose(state.m, 0.9 * m_before)
        np.testing.assert_allclose(state.v, 0.999 * v_before)

    def test_nonfinite_grad_rejected(self):
        params = scalar_params(1.0)
        with pytest.raises(NumericError):
            step_theta(params, AdamState.zeros(params), np.nan, lr=1e-3)

    def test_nonfinite_grad_changes_nothing(self, rng):
        """A NaN in a late tensor is found before any parameter, moment or
        the step count moves."""
        params = init_params(TINY_NET, 0)
        state = AdamState.zeros(params)
        set_random_grads(params, rng)
        adam_step(params, state, lr=1e-2)
        before = (params.flat.copy(), state.m.copy(), state.v.copy(), state.t)
        params["point_head.l2.w"].grad[1, 2] = np.nan
        with pytest.raises(NumericError):
            adam_step(params, state, lr=1e-2)
        np.testing.assert_array_equal(params.flat, before[0])
        np.testing.assert_array_equal(state.m, before[1])
        np.testing.assert_array_equal(state.v, before[2])
        assert state.t == before[3]

    @pytest.mark.parametrize("case", ["missing gradient", "foreign gradient", "state size"])
    def test_bad_input_changes_nothing(self, rng, case):
        """A parameter without a gradient, one whose gradient is an array
        other than its view of the gradient buffer, or a state laid out
        for another model, is rejected before any parameter, moment or the
        step count moves."""
        params = init_params(TINY_NET, 0)
        state = AdamState.zeros(params)
        set_random_grads(params, rng)
        if case == "missing gradient":
            params["point_head.l2.b"].grad = None
        elif case == "foreign gradient":
            params["point_head.l2.w"].grad = params["point_head.l2.w"].grad.copy()
        else:
            state = AdamState.zeros(scalar_params(1.0))
        before = (params.flat.copy(), state.m.copy(), state.v.copy(), state.t)
        with pytest.raises(ad.ShapeError):
            adam_step(params, state, lr=1e-2)
        np.testing.assert_array_equal(params.flat, before[0])
        np.testing.assert_array_equal(state.m, before[1])
        np.testing.assert_array_equal(state.v, before[2])
        assert state.t == before[3]

    @pytest.mark.parametrize("bucket", [train_mod.ADAM_BUCKET, 100])
    def test_bit_identical_to_per_tensor_update(self, rng, monkeypatch, bucket):
        """The chunked update over the flat buffers equals the textbook
        per-tensor update exactly, at the default chunk size and at one
        that splits the model into many chunks, crossing tensor
        boundaries."""
        monkeypatch.setattr(train_mod, "ADAM_BUCKET", bucket)
        params = init_params(TINY_NET, 0)
        state = AdamState.zeros(params)
        ref = {k: [p.values.copy(), np.zeros(p.shape), np.zeros(p.shape)]
               for k, p in params.tensors.items()}
        for t in range(1, 4):
            set_random_grads(params, rng)
            adam_step(params, state, lr=1e-2)
            bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for k, (p, m, v) in ref.items():
                g = params[k].grad
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                p -= 1e-2 * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
        for i, buffer in enumerate((params.flat, state.m, state.v)):
            np.testing.assert_array_equal(
                buffer, np.concatenate([r[i].reshape(-1) for r in ref.values()]))


class TestSchedule:
    CFG = TrainConfig(net=TINY_NET)

    def test_key_values_exact(self):
        assert lr_at(0, self.CFG) == 0.0
        assert lr_at(2500, self.CFG) == 1e-4
        assert lr_at(252500, self.CFG) == 1e-5

    def test_continuity_and_monotonicity(self):
        lrs = [lr_at(it, self.CFG) for it in range(0, 300000, 500)]
        after_warmup = [lr for it, lr in zip(range(0, 300000, 500), lrs) if it >= 2500]
        assert all(b <= a for a, b in zip(after_warmup, after_warmup[1:]))
        assert abs(lr_at(2500, self.CFG) - lr_at(2501, self.CFG)) < 1e-8

    def test_constant_mode(self):
        cfg = TrainConfig(net=TINY_NET, constant_lr=True)
        assert lr_at(0, cfg) == 1e-4
        assert lr_at(10**6, cfg) == 1e-4


class TestAugment:
    def test_zero_angles_identity(self):
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=0)
        out = augment(scene, np.random.default_rng(0),
                      alpha_range_deg=(0.0, 0.0), gamma_range_deg=(0.0, 0.0))
        np.testing.assert_allclose(out.xy, scene.xy, atol=1e-12)
        np.testing.assert_allclose(out.gt_quats, scene.gt_quats, atol=1e-12)

    def test_transformed_gt_has_zero_loss(self):
        """Observations are re-rendered from the rotated poses, so the
        transformed ground truth reprojects exactly."""
        for seed in range(5):
            scene, _, _ = make_scene(num_views=5, num_points=20, seed=seed)
            out = augment(scene, np.random.default_rng(seed))
            _, report = loss(out, gt_reconstruction(out))
            assert report.mean_reprojection <= 1e-10

    def test_principal_axis_rotation_spins_image(self):
        """gamma = 0 reduces to an in-plane rotation of each view's
        normalized points by alpha about the origin."""
        scene, _, _ = make_scene(num_views=4, num_points=15, seed=2)
        out = augment(scene, np.random.default_rng(3), gamma_range_deg=(0.0, 0.0))
        alphas, _, _ = augment_draws(3, scene.num_views, gamma_range_deg=(0.0, 0.0))
        for i in range(scene.num_views):
            a = np.deg2rad(alphas[i])
            rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            sel = scene.view_idx == i
            np.testing.assert_allclose(out.xy[sel], scene.xy[sel] @ rot.T, atol=1e-12)

    def test_angles_within_ranges(self):
        """The replayed angles are the ones augment applied (each pose
        turns by alpha about its viewing axis, then by gamma about the
        drawn in-plane axis), and they lie inside the default ranges."""
        scene, _, _ = make_scene(num_views=6, num_points=12, seed=3)
        out = augment(scene, np.random.default_rng(4))
        alphas, thetas, gammas = augment_draws(4, scene.num_views)
        R_old, R_new = quat_to_matrix(scene.gt_quats), quat_to_matrix(out.gt_quats)
        for i in range(scene.num_views):
            Rz = axis_angle_to_matrix([0.0, 0.0, 1.0], np.deg2rad(alphas[i]))
            Rg = axis_angle_to_matrix([np.cos(thetas[i]), np.sin(thetas[i]), 0.0],
                                      np.deg2rad(gammas[i]))
            np.testing.assert_allclose(R_new[i], Rg @ Rz @ R_old[i], atol=1e-12)
        assert (np.abs(alphas) <= 15.0).all()
        assert (np.abs(gammas) <= 20.0).all()

    def test_requires_ground_truth(self):
        scene, _, _ = make_scene(seed=1)
        from dataclasses import replace
        bare = replace(scene, gt_quats=None, gt_centers=None, gt_points=None)
        with pytest.raises(SceneError):
            augment(bare, np.random.default_rng(0))


class TestInjectOutliers:
    def test_zero_rate_identity(self):
        scene, _, _ = make_scene(num_views=6, num_points=30, seed=5)
        out, mask = inject_outliers(scene, 0.0, np.random.default_rng(0))
        assert not mask.any()
        np.testing.assert_array_equal(out.xy, scene.xy)

    def test_exact_count_and_bounds(self):
        """Corrupted count equals round(rate * N); per-view >= 8 and
        per-point >= 2 inlier lower bounds always hold."""
        cfg = SceneGenConfig(num_views=10, num_points=200, visibility=0.6)
        for seed in range(10):
            scene = generate_synthetic(cfg, seed=seed)
            out, mask = inject_outliers(scene, 0.10, np.random.default_rng(seed))
            assert mask.sum() == round(0.10 * scene.num_observations)
            inl_pv = np.bincount(scene.view_idx[~mask], minlength=10)
            inl_vp = np.bincount(scene.point_idx[~mask], minlength=200)
            assert inl_pv.min() >= 8
            assert inl_vp.min() >= 2
            changed = np.any(out.xy != scene.xy, axis=1)
            np.testing.assert_array_equal(changed, mask)

    def test_saturated_views_infeasible(self):
        """Views with exactly 8 visible points are fully protected, so a
        positive rate cannot be met."""
        scene = generate_synthetic(
            SceneGenConfig(num_views=6, num_points=8, visibility=1.0), seed=0)
        with pytest.raises(InfeasibleOutlierRateError):
            inject_outliers(scene, 0.10, np.random.default_rng(0))

    def test_deterministic(self):
        scene, _, _ = make_scene(num_views=8, num_points=60, seed=6)
        a_scene, a_mask = inject_outliers(scene, 0.1, np.random.default_rng(9))
        b_scene, b_mask = inject_outliers(scene, 0.1, np.random.default_rng(9))
        np.testing.assert_array_equal(a_mask, b_mask)
        np.testing.assert_array_equal(a_scene.xy, b_scene.xy)


def tiny_train_cfg(epochs, seed=0, **kw):
    return TrainConfig(net=TINY_NET, epochs=epochs, validate_every=5,
                       seed=seed, **kw)


class TestTrainLoop:
    def test_bit_reproducible(self):
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=7)
        runs = []
        for _ in range(2):
            res = train_loop([scene], [scene], tiny_train_cfg(epochs=4))
            runs.append(res)
        np.testing.assert_array_equal(runs[0].loss_history, runs[1].loss_history)
        np.testing.assert_array_equal(runs[0].checkpoint.params, runs[1].checkpoint.params)

    def test_resume_is_bit_exact(self, tmp_path):
        """Stopping at epoch 3, checkpointing to disk, reloading, and
        continuing to epoch 6 reproduces the uninterrupted run."""
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=8)
        cfg6 = tiny_train_cfg(epochs=6)
        full = train_loop([scene], [scene], cfg6)

        cfg3 = tiny_train_cfg(epochs=3)
        half = train_loop([scene], [scene], cfg3)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(half.checkpoint, path)
        restored = load_checkpoint(path)
        resumed = train_loop([scene], [scene], cfg6, resume_from=restored)

        np.testing.assert_array_equal(full.checkpoint.params, resumed.checkpoint.params)
        assert full.checkpoint.iteration == resumed.checkpoint.iteration

    def test_resume_with_augmentation_and_outliers_is_bit_exact(self):
        """With augmentation and outlier injection on, two epochs and a
        resume for two more give the buffers and losses of four epochs
        straight through."""
        scenes = [make_scene(num_views=6, num_points=20, visibility=0.9, seed=seed)[0]
                  for seed in (21, 22)]

        def run(epochs, resume_from=None):
            cfg = tiny_train_cfg(epochs, seed=5, warmup_iters=0, subseq_min=4, subseq_max=6,
                                 aug=AugmentConfig(enabled=True),
                                 outliers=OutlierConfig(enabled=True, rate=0.1))
            return train_loop(scenes, [], cfg, resume_from=resume_from)

        full = run(4)
        half = run(2)
        rest = run(4, resume_from=half.checkpoint)
        for buffer in ("params", "adam_m", "adam_v"):
            np.testing.assert_array_equal(getattr(full.checkpoint, buffer),
                                          getattr(rest.checkpoint, buffer))
        assert len(full.loss_history) == 8
        np.testing.assert_array_equal(full.loss_history,
                                      np.concatenate([half.loss_history, rest.loss_history]))

    def test_checkpoint_roundtrip(self, tmp_path):
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=9)
        res = train_loop([scene], [scene], tiny_train_cfg(epochs=2))
        path = tmp_path / "c.bin"
        save_checkpoint(res.checkpoint, path)
        back = load_checkpoint(path)
        assert back.iteration == res.checkpoint.iteration
        assert back.train_config == res.checkpoint.train_config
        for buffer in ("params", "adam_m", "adam_v"):
            np.testing.assert_array_equal(getattr(back, buffer), getattr(res.checkpoint, buffer))

    def test_restore_draws_no_init(self, monkeypatch, tmp_path):
        """Resume and `infer` run over the loaded buffers themselves: they
        draw no init and copy nothing."""
        scene, raw, _ = make_scene(num_views=4, num_points=12, seed=9)
        ckpt_path, scene_path = tmp_path / "c.bin", tmp_path / "scene.json"
        save_checkpoint(train_loop([scene], [], tiny_train_cfg(epochs=1)).checkpoint, ckpt_path)
        save_scene(raw, scene_path)

        def no_init(*args, **kwargs):
            raise AssertionError("init_params called on restore")
        for module in (train_mod, network):
            monkeypatch.setattr(module, "init_params", no_init)
        loaded = load_checkpoint(ckpt_path)
        res = train_loop([scene], [], tiny_train_cfg(epochs=2), resume_from=loaded)
        assert res.checkpoint.iteration == 2
        for buffer in ("params", "adam_m", "adam_v"):
            assert getattr(res.checkpoint, buffer) is getattr(loaded, buffer)

        loads, runs = [], []

        def spy_load(path):
            loads.append(load_checkpoint(path))
            return loads[-1]

        def spy_forward(scene, params):
            runs.append(params)
            return network.forward(scene, params)
        monkeypatch.setattr(cli, "load_checkpoint", spy_load)
        monkeypatch.setattr(cli, "forward", spy_forward)
        result = CliRunner().invoke(cli.main, [
            "infer", "--checkpoint", str(ckpt_path), "--scene", str(scene_path),
            "--out", str(tmp_path / "inf")], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        assert len(runs) == 1 and runs[0].flat is loads[0].params

    def test_validation_tracks_best(self):
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=10)
        bests = []
        res = train_loop([scene], [scene], tiny_train_cfg(epochs=10),
                         on_best=lambda ckpt: bests.append((ckpt.epoch, ckpt.best_val)))
        history = res.checkpoint.val_history
        assert len(history) == 2
        assert bests and bests[-1][1] == min(v for _, v in history)
        assert all(best in history for best in bests)

    @pytest.mark.parametrize("projective_val", [True, False], ids=["validation", "training"])
    def test_scene_modes_are_checked_before_training(self, projective_val):
        """A training or validation scene in another mode than the
        network is rejected before the first iteration, not at its first
        use."""
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=13)
        other, _, _ = make_scene(num_views=4, num_points=12, seed=13, mode="projective")
        scenes, vals = ([scene], [other]) if projective_val else ([other], [scene])
        iterations = []
        with pytest.raises(ValueError, match="scene mode 'projective' != model mode"):
            train_loop(scenes, vals, TrainConfig(net=TINY_NET, epochs=2, validate_every=1),
                       iteration_callback=lambda iteration, **_: iterations.append(iteration))
        assert not iterations

    def test_aborts_on_numeric_failure(self):
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=11)
        cfg = tiny_train_cfg(epochs=2)
        good = train_loop([scene], [], tiny_train_cfg(epochs=1))
        poisoned = good.checkpoint
        poisoned.params[0] = np.nan                      # embed.w[0, 0]
        res = train_loop([scene], [], cfg, resume_from=poisoned)
        assert res.abort_reason

    def test_resume_after_step_abort_is_bit_exact(self):
        """A run whose second scene overflows aborts at epoch 0, iteration
        1. Resumed with the clean scenes, it continues at that scene, so its
        buffers and losses are the straight run's bit for bit. A scene
        list too short for the checkpoint's iteration is rejected."""
        scenes = [make_scene(num_views=4, num_points=12, seed=seed)[0] for seed in (31, 32)]
        bad = [scenes[0], replace(scenes[1], xy=scenes[1].xy * 1e300)]
        cfg = tiny_train_cfg(epochs=2)
        straight = train_loop(scenes, [], cfg)
        with pytest.warns(RuntimeWarning):
            aborted = train_loop(bad, [], cfg)
        ckpt = aborted.checkpoint
        assert aborted.abort_reason and (ckpt.epoch, ckpt.iteration) == (0, 1)
        resumed = train_loop(scenes, [], cfg, resume_from=ckpt)
        assert resumed.checkpoint.iteration == straight.checkpoint.iteration == 4
        for buffer in ("params", "adam_m", "adam_v"):
            np.testing.assert_array_equal(getattr(straight.checkpoint, buffer),
                                          getattr(resumed.checkpoint, buffer))
        np.testing.assert_array_equal(
            straight.loss_history, np.concatenate([aborted.loss_history, resumed.loss_history]))
        with pytest.raises(ValueError, match="does not fall in its epoch"):
            train_loop(scenes[:1], [], cfg, resume_from=aborted.checkpoint)

    def test_aborts_on_numeric_failure_in_validation(self):
        """A validation that overflows aborts the run like a failed step:
        the loop returns the state after that epoch's steps, with the
        failed validation unrecorded."""
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=11)
        bad = replace(scene, xy=scene.xy * 1e300)
        cfg = TrainConfig(net=TINY_NET, epochs=4, validate_every=2)
        bests = []
        with pytest.warns(RuntimeWarning, match="overflow"):
            res = train_loop([scene], [bad], cfg, on_best=bests.append)
        ckpt = res.checkpoint
        assert res.abort_reason and not bests
        assert (ckpt.epoch, ckpt.iteration, ckpt.val_history, ckpt.best_val) == (2, 2, [], None)
        np.testing.assert_array_equal(res.loss_history, train_loop(
            [scene], [], replace(cfg, epochs=2)).loss_history)

    def test_resume_keeps_best(self, tmp_path):
        """Resuming from a checkpoint whose last validation is its best
        hands that checkpoint to on_best when no later validation beats
        it, with the bytes of the uninterrupted run's best."""
        a, b, val = (make_scene(num_views=12, num_points=60, visibility=0.8, seed=s)[0]
                     for s in (1, 2, 3))
        cfgs = [TrainConfig(net=TINY_NET, epochs=epochs, validate_every=2, base_lr=1e-3,
                            warmup_iters=0) for epochs in (6, 4)]
        best_epochs = {"full": [], "resumed": []}

        def save_best(name):
            def on_best(checkpoint):
                best_epochs[name].append(checkpoint.epoch)
                save_checkpoint(checkpoint, tmp_path / f"{name}.bin")
            return on_best

        full = train_loop([a, b], [val], cfgs[0], on_best=save_best("full"))
        assert best_epochs["full"][-1] == 4 < full.checkpoint.epoch
        save_checkpoint(train_loop([a, b], [val], cfgs[1]).checkpoint, tmp_path / "half.bin")
        train_loop([a, b], [val], cfgs[0], resume_from=load_checkpoint(tmp_path / "half.bin"),
                   on_best=save_best("resumed"))
        assert best_epochs["resumed"] == [4]
        assert (tmp_path / "full.bin").read_bytes() == (tmp_path / "resumed.bin").read_bytes()

    def test_peak_memory_of_one_epoch(self):
        """The final checkpoint holds the loop's own buffers, so one epoch
        on an 880,884-parameter net peaks below 6 parameter buffers
        (parameters, gradients, the two moments, plus activations)."""
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=12)
        cfg = TrainConfig(net=NetConfig(layers=1, d_p=16, d_v=256, d_s=64, d_g=512), epochs=1)
        size = parameter_count(cfg.net)
        assert size == 880_884
        tracemalloc.start()
        try:
            train_loop([scene], [], cfg)
            peak = tracemalloc.get_traced_memory()[1] / (8 * size)
        finally:
            tracemalloc.stop()
        assert peak < 6, peak

    def test_peak_memory_with_validation(self, tmp_path):
        """on_best gets the live buffers, not a copy: one validated epoch
        of the 880,884-parameter net above, saving its best, also peaks
        below 6 parameter buffers."""
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=12)
        cfg = TrainConfig(net=NetConfig(layers=1, d_p=16, d_v=256, d_s=64, d_g=512), epochs=1,
                          validate_every=1)
        size = parameter_count(cfg.net)
        path = tmp_path / "best.bin"
        tracemalloc.start()
        try:
            train_loop([scene], [scene], cfg, on_best=lambda ckpt: save_checkpoint(ckpt, path))
            peak = tracemalloc.get_traced_memory()[1] / (8 * size)
        finally:
            tracemalloc.stop()
        assert peak < 6, peak
        assert load_checkpoint(path).epoch == 1

    def test_peak_memory_of_load_and_resume(self, tmp_path):
        """Resume trains in the buffers load_checkpoint returns: loading a
        checkpoint of the 880,884-parameter net above and training one
        more epoch also peaks below 6 parameter buffers."""
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=12)
        cfg = TrainConfig(net=NetConfig(layers=1, d_p=16, d_v=256, d_s=64, d_g=512), epochs=1)
        size = parameter_count(cfg.net)
        path = tmp_path / "c.bin"
        save_checkpoint(train_loop([scene], [], cfg).checkpoint, path)
        tracemalloc.start()
        try:
            train_loop([scene], [], replace(cfg, epochs=2), resume_from=load_checkpoint(path))
            peak = tracemalloc.get_traced_memory()[1] / (8 * size)
        finally:
            tracemalloc.stop()
        assert peak < 6, peak

    def test_outlier_targets_are_uncorrupted(self):
        """With outlier injection on, the loss targets must be the clean
        (pre-corruption) measurements."""
        scene = generate_synthetic(
            SceneGenConfig(num_views=12, num_points=60, visibility=1.0), seed=12)
        from tracksfm.scene import normalize_euclidean
        scene_n, _ = normalize_euclidean(scene)
        seen = []

        def cb(iteration, net_input, target, report):
            seen.append((net_input, target))

        cfg = TrainConfig(net=TINY_NET, epochs=1, seed=3,
                          outliers=OutlierConfig(enabled=True, rate=0.1))
        train_loop([scene_n], [], cfg, iteration_callback=cb)
        assert seen
        net_input, target = seen[0]
        assert np.any(net_input.xy != target.xy)          # corruption happened
        # target observations all reproject exactly under the target's gt
        _, report = loss(target, gt_reconstruction(target))
        assert report.mean_reprojection <= 1e-10

    def test_subsequence_sampling_respects_range(self):
        scene = generate_synthetic(
            SceneGenConfig(num_views=30, num_points=80, visibility=0.9), seed=13)
        from tracksfm.scene import normalize_euclidean
        scene_n, _ = normalize_euclidean(scene)
        sizes = []

        def cb(iteration, net_input, target, report):
            sizes.append(net_input.num_views)

        cfg = TrainConfig(net=TINY_NET, epochs=8, seed=4)
        train_loop([scene_n], [], cfg, iteration_callback=cb)
        assert all(10 <= s <= 20 for s in sizes)
        assert len(set(sizes)) > 1


class TestCheckpointFile:
    """load_checkpoint rejects files that do not match the configured network."""

    @pytest.fixture
    def ckpt_bytes(self, tmp_path):
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=9)
        path = tmp_path / "c.bin"
        save_checkpoint(train_loop([scene], [], tiny_train_cfg(epochs=1)).checkpoint, path)
        return path.read_bytes()

    @staticmethod
    def load_bytes(tmp_path, data):
        path = tmp_path / "edited.bin"
        path.write_bytes(data)
        return load_checkpoint(path)

    @staticmethod
    def with_header(data, edit):
        (hlen,) = struct.unpack("<Q", data[8:16])
        header = json.loads(data[16:16 + hlen])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        return data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + hlen:]

    def test_unchanged_loads(self, tmp_path, ckpt_bytes):
        assert self.load_bytes(tmp_path, ckpt_bytes).iteration == 1

    def test_renamed_parameter(self, tmp_path, ckpt_bytes):
        def rename(header):
            header["params"][0][0] = "embed.w_renamed"
        with pytest.raises(ValueError, match="do not match"):
            self.load_bytes(tmp_path, self.with_header(ckpt_bytes, rename))

    def test_reshaped_parameter(self, tmp_path, ckpt_bytes):
        def reshape(header):
            header["params"][0][1] = [4]             # embed.w is (2, 2)
        with pytest.raises(ValueError, match="do not match"):
            self.load_bytes(tmp_path, self.with_header(ckpt_bytes, reshape))

    def test_config_disagrees_with_shapes(self, tmp_path, ckpt_bytes):
        def widen(header):
            header["train_config"]["net"]["d_v"] = 32
        with pytest.raises(ValueError, match="do not match"):
            self.load_bytes(tmp_path, self.with_header(ckpt_bytes, widen))

    @pytest.mark.parametrize("keep", [12, -8])        # inside the length field, the last buffer
    def test_truncated(self, tmp_path, ckpt_bytes, keep):
        with pytest.raises(ValueError, match="truncated"):
            self.load_bytes(tmp_path, ckpt_bytes[:keep])

    def test_failed_save_keeps_the_old_file(self, tmp_path, ckpt_bytes, monkeypatch):
        """A save that fails part way, as on a full disk, leaves the
        checkpoint already at its path byte for byte and no temporary file
        beside it."""
        path = tmp_path / "c.bin"
        ckpt = load_checkpoint(path)
        real_open = open

        class FullDisk:
            """A file that fails every write once it holds over 100 bytes."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                if self.f.tell() > 100:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.f.write(data)

        monkeypatch.setattr(train_mod, "open", lambda *args: FullDisk(real_open(*args)),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(ckpt, path)
        assert path.read_bytes() == ckpt_bytes
        assert [p.name for p in tmp_path.iterdir()] == ["c.bin"]

    def test_trailing_bytes(self, tmp_path, ckpt_bytes):
        with pytest.raises(ValueError, match="trailing"):
            self.load_bytes(tmp_path, ckpt_bytes + b"\0")

    @pytest.mark.parametrize("key, value", [
        ("adam_t", "x"), ("iteration", 1.5), ("epoch", "a"), ("val_history", [5]),
        ("iteration", -1), ("epoch", True), ("val_history", [[1, "a"]]),
        ("val_history", {"1": 0.5}), ("best_val", "x"), ("format_version", 2),
    ], ids=["adam_t string", "iteration float", "epoch string", "val_history entry number",
            "iteration negative", "epoch bool", "val_history value string",
            "val_history object", "best_val string", "format_version 2"])
    def test_bad_header_field(self, tmp_path, ckpt_bytes, key, value):
        def edit(header):
            header[key] = value
        with pytest.raises(ValueError, match=f"checkpoint header field '{key}'"):
            self.load_bytes(tmp_path, self.with_header(ckpt_bytes, edit))

    @pytest.mark.parametrize("edit", [
        lambda header: header.update(params=5),
        lambda header: header.update(params=[[name, 5] for name, _ in header["params"]]),
    ], ids=["number", "shapes numbers"])
    def test_params_of_wrong_type(self, tmp_path, ckpt_bytes, edit):
        with pytest.raises(ValueError, match="header field 'params'.*do not match"):
            self.load_bytes(tmp_path, self.with_header(ckpt_bytes, edit))

    def test_header_not_an_object(self, tmp_path, ckpt_bytes):
        blob = b"[1]"
        data = ckpt_bytes[:8] + struct.pack("<Q", len(blob)) + blob
        with pytest.raises(ValueError, match="header must be a JSON object"):
            self.load_bytes(tmp_path, data)

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(layers=st.integers(1, 2), dims=st.lists(st.integers(4, 9), min_size=4, max_size=4),
           mode=st.sampled_from(["euclidean", "projective"]),
           counts=st.lists(st.integers(0, 2**40), min_size=3, max_size=3),
           val_history=st.lists(st.tuples(st.integers(0, 10**6),
                                          st.floats(allow_nan=False)), max_size=4),
           best_val=st.none() | st.floats(allow_nan=False),
           seed=st.integers(0, 2**32 - 1), cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_roundtrip_property(self, layers, dims, mode, counts, val_history, best_val,
                                seed, cut):
        """Saving then loading returns the config, the header fields and the
        bits of all three buffers; the file cut anywhere past its magic is
        reported as truncated."""
        cfg = TrainConfig(net=NetConfig(layers, *dims, mode=mode), seed=seed)
        rng = np.random.default_rng(seed)
        size = parameter_count(cfg.net)
        buffers = [rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
                   for _ in range(3)]
        ckpt = Checkpoint(cfg, *buffers, *counts, val_history, best_val)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.bin"
            save_checkpoint(ckpt, path)
            back = load_checkpoint(path)
            data = path.read_bytes()
            path.write_bytes(data[:8 + int(cut * (len(data) - 8))])
            with pytest.raises(ValueError, match="truncated"):
                load_checkpoint(path)
        assert back.train_config == cfg
        assert (back.adam_t, back.iteration, back.epoch) == tuple(counts)
        assert back.val_history == val_history and back.best_val == best_val
        for name, buffer in zip(("params", "adam_m", "adam_v"), buffers):
            assert getattr(back, name).tobytes() == buffer.tobytes()

    def test_save_and_load_hold_no_second_copy(self, tmp_path):
        """On a 1.09M-parameter model, save_checkpoint allocates a small
        part of one buffer (its largest tensor is 0.96 of the model) and
        load_checkpoint little more than the three buffers it returns."""
        cfg = TrainConfig(net=NetConfig(layers=1, d_p=8, d_v=16, d_s=8, d_g=1024))
        size = parameter_count(cfg.net)
        assert size >= 10**6
        ckpt = Checkpoint(cfg, *(np.full(size, k + 0.5) for k in range(3)), 1, 1, 1, [], None)
        path = tmp_path / "big.bin"
        peaks = []
        for run in (lambda: save_checkpoint(ckpt, path), lambda: load_checkpoint(path)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] / (8 * size))
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.1 and peaks[1] < 3.1, peaks
