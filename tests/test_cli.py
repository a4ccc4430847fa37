import json
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from tracksfm.cli import main, prepare_scene
from tracksfm.geometry import load_reconstruction, save_reconstruction
from tracksfm.network import NetConfig, Reconstruction
from tracksfm.rotations import axis_angle_to_matrix, matrix_to_quat, quat_multiply
from tracksfm.scene import SceneGenConfig, generate_synthetic, load_scene, save_scene
from tracksfm.train import TrainConfig, load_checkpoint, save_checkpoint, train_loop

from conftest import gt_reconstruction


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def synth_scene(runner, tmp_path, seed=3, **overrides):
    cfg = {"num_views": 6, "num_points": 40, "visibility": 0.9,
           "arc_degrees": 120.0, **overrides}
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "scenes"
    run_ok(runner, ["synth", "--config", str(cfg_path), "--seed", str(seed),
                    "--out", str(out)])
    return out / "scene_000.json"


def tiny_train_config(tmp_path, epochs=3):
    cfg = TrainConfig(net=NetConfig(layers=1, d_p=8, d_v=16, d_s=8, d_g=16),
                      epochs=epochs, validate_every=2, seed=0)
    path = tmp_path / "train.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


class TestSynth:
    def test_writes_scene_and_manifest(self, runner, tmp_path):
        scene_path = synth_scene(runner, tmp_path)
        scene = load_scene(scene_path)
        assert scene.num_views == 6
        manifest = json.loads((scene_path.parent / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert str(scene_path) in manifest["outputs"]
        assert "generate" in manifest["timings"]

    def test_deterministic_outputs(self, runner, tmp_path):
        a = synth_scene(runner, tmp_path / "a")
        b = synth_scene(runner, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_flag_is_error(self, runner, tmp_path):
        result = runner.invoke(main, ["synth", "--nope", "--out", str(tmp_path)])
        assert result.exit_code == 2


class TestTrainCommand:
    def test_trains_and_checkpoints(self, runner, tmp_path):
        scene_path = synth_scene(runner, tmp_path)
        cfg_path = tiny_train_config(tmp_path)
        out = tmp_path / "run"
        result = run_ok(runner, ["train", "--config", str(cfg_path),
                                 "--scene", str(scene_path),
                                 "--val", str(scene_path), "--out", str(out)])
        assert "trained 3 iterations" in result.output
        ckpt = load_checkpoint(out / "checkpoint.bin")
        assert ckpt.iteration == 3
        assert (out / "best.bin").exists()
        assert (out / "manifest.json").exists()

    def test_resume_matches_straight_run(self, runner, tmp_path):
        scene_path = synth_scene(runner, tmp_path)
        out_a = tmp_path / "full"
        run_ok(runner, ["train", "--config", str(tiny_train_config(tmp_path, 4)),
                        "--scene", str(scene_path), "--out", str(out_a)])
        out_b = tmp_path / "half"
        run_ok(runner, ["train", "--config", str(tiny_train_config(tmp_path, 2)),
                        "--scene", str(scene_path), "--out", str(out_b)])
        out_c = tmp_path / "resumed"
        run_ok(runner, ["train", "--config", str(tiny_train_config(tmp_path, 4)),
                        "--scene", str(scene_path),
                        "--resume", str(out_b / "checkpoint.bin"),
                        "--out", str(out_c)])
        a = load_checkpoint(out_a / "checkpoint.bin")
        c = load_checkpoint(out_c / "checkpoint.bin")
        np.testing.assert_array_equal(a.params, c.params)

    def test_seed_option_overrides_config(self, runner, tmp_path):
        scene_path = synth_scene(runner, tmp_path)
        out = tmp_path / "run"
        run_ok(runner, ["train", "--config", str(tiny_train_config(tmp_path, 1)),
                        "--scene", str(scene_path), "--seed", "5", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5 and manifest["config"]["seed"] == 5
        assert load_checkpoint(out / "checkpoint.bin").train_config.seed == 5

    def test_resume_with_other_network_is_2(self, runner, tmp_path):
        """A resume whose config names another network than the checkpoint
        is rejected before training, not when the checkpoint is saved."""
        scene_path = synth_scene(runner, tmp_path)
        run_ok(runner, ["train", "--config", str(tiny_train_config(tmp_path, 2)),
                        "--scene", str(scene_path), "--out", str(tmp_path / "a")])
        cfg_path = tmp_path / "wider.json"
        cfg_path.write_text(json.dumps({"net": {"layers": 1, "d_p": 8, "d_v": 32, "d_s": 8,
                                                "d_g": 16}, "epochs": 4}))
        result = runner.invoke(main, ["train", "--config", str(cfg_path),
                                      "--scene", str(scene_path),
                                      "--resume", str(tmp_path / "a" / "checkpoint.bin"),
                                      "--out", str(tmp_path / "b")])
        assert result.exit_code == 2, result.output
        assert "network config differs" in result.output

    @pytest.mark.parametrize("done, epochs", [(2, 2), (4, 2), (0, 0)],
                             ids=["resume finished run", "resume past its epochs", "no epochs"])
    def test_zero_iterations_exit_0(self, runner, tmp_path, done, epochs):
        """A run with nothing left to train writes its checkpoint, keeping
        the epoch and iteration it had reached, and reports no final loss.
        With one scene, an epoch is one iteration."""
        scene_path = synth_scene(runner, tmp_path)
        args = ["train", "--scene", str(scene_path), "--out", str(tmp_path / "run")]
        if done:
            run_ok(runner, ["train", "--config", str(tiny_train_config(tmp_path, done)),
                            "--scene", str(scene_path), "--out", str(tmp_path / "done")])
            args += ["--resume", str(tmp_path / "done" / "checkpoint.bin")]
        result = run_ok(runner, args + ["--config", str(tiny_train_config(tmp_path, epochs))])
        assert f"trained {done} iterations" in result.output
        assert "final loss" not in result.output
        ckpt = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        assert (ckpt.iteration, ckpt.epoch) == (done, done)


class TestInferBaEval:
    @pytest.fixture
    def pipeline(self, runner, tmp_path):
        scene_path = synth_scene(runner, tmp_path)
        out = tmp_path / "run"
        run_ok(runner, ["train", "--config", str(tiny_train_config(tmp_path)),
                        "--scene", str(scene_path), "--out", str(out)])
        return scene_path, out / "checkpoint.bin"

    def test_infer_writes_recon_and_timings(self, runner, tmp_path, pipeline):
        scene_path, ckpt = pipeline
        out = tmp_path / "inf"
        run_ok(runner, ["infer", "--checkpoint", str(ckpt), "--scene",
                        str(scene_path), "--triangulate", "--out", str(out)])
        recon = load_reconstruction(out / "reconstruction.json")
        assert recon.num_views == 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert "inference" in manifest["timings"]
        assert "triangulation" in manifest["timings"]

    def test_infer_does_not_mutate_checkpoint(self, runner, tmp_path, pipeline):
        scene_path, ckpt = pipeline
        before = ckpt.read_bytes()
        run_ok(runner, ["infer", "--checkpoint", str(ckpt), "--scene",
                        str(scene_path), "--out", str(tmp_path / "i2")])
        assert ckpt.read_bytes() == before

    def test_ba_does_not_mutate_input(self, runner, tmp_path, pipeline):
        scene_path, ckpt = pipeline
        inf_out = tmp_path / "i3"
        run_ok(runner, ["infer", "--checkpoint", str(ckpt), "--scene",
                        str(scene_path), "--triangulate", "--out", str(inf_out)])
        recon_path = inf_out / "reconstruction.json"
        before = recon_path.read_bytes()
        run_ok(runner, ["ba", "--scene", str(scene_path), "--recon",
                        str(recon_path), "--out", str(tmp_path / "ba3")])
        assert recon_path.read_bytes() == before
        diag = json.loads((tmp_path / "ba3" / "manifest.json").read_text())["diagnostics"]
        assert diag["converged"] is True
        for key in ("objectives", "lambdas", "rejected", "stop_reasons", "behind_camera"):
            assert len(diag[key]) == 2               # one entry per round
        for trace, lambdas in zip(diag["objectives"], diag["lambdas"]):
            assert trace and all(b < a for a, b in zip(trace, trace[1:]))
            assert len(lambdas) == len(trace) - 1
        # a converged run names the rounds that stopped at the iteration cap
        # (this barely trained start runs round 1 into it)
        capped = [str(k + 1) for k, why in enumerate(diag["stop_reasons"])
                  if why == "iteration cap"]
        assert diag["message"] == (
            f"iteration cap (100) reached in round {', '.join(capped)}" if capped else "")

    def run_ba(self, runner, scene_path, recon_path, out):
        """`tracksfm ba` with its defaults; the exit code and the diagnostics."""
        result = runner.invoke(main, ["ba", "--scene", str(scene_path), "--recon",
                                      str(recon_path), "--out", str(out)])
        return result, json.loads((out / "manifest.json").read_text())["diagnostics"]

    def test_ba_converges_at_the_objective_floor(self, runner, tmp_path):
        """A clean 30x1000 scene from a 5-degree start (rotations about
        random axes, centers moved by 1% of the rig diameter, points by
        0.01). BA reaches the objective's floor, where every trial is
        rejected; a rejected step too small to change the objective ends
        the round as converged instead of raising the damping to its cap."""
        raw = generate_synthetic(SceneGenConfig(num_views=30, num_points=1000, visibility=0.5,
                                                noise_sigma=1e-3), seed=4)
        rng = np.random.default_rng(np.random.SeedSequence([4, 2]))
        diam = float(np.linalg.norm(raw.gt_centers.max(0) - raw.gt_centers.min(0)))
        quats = raw.gt_quats.copy()
        for i in range(raw.num_views):
            dq = matrix_to_quat(axis_angle_to_matrix(rng.normal(size=3), np.deg2rad(5.0)))
            quats[i] = quat_multiply(dq, quats[i])
        centers = raw.gt_centers + rng.normal(size=(raw.num_views, 3)) * 0.01 * diam
        points = raw.gt_points + rng.normal(size=(raw.num_points, 3)) * 0.01
        scene_path, recon_path = tmp_path / "scene.json", tmp_path / "start.json"
        save_scene(raw, scene_path)
        save_reconstruction(Reconstruction(mode="euclidean", quats=quats, centers=centers,
                                           points=points), recon_path)
        result, diag = self.run_ba(runner, scene_path, recon_path, tmp_path / "ba")
        assert result.exit_code == 0, (result.output, diag["stop_reasons"])
        assert diag["converged"] is True and "small step" in diag["stop_reasons"]

    def test_projective_ba_converges_at_zero_residual(self, runner, tmp_path):
        """A projective scene refined from a briefly trained network's
        start reaches residuals of about 1e-15, where no trial lowers the
        objective; BA still reports convergence."""
        scene_path = synth_scene(runner, tmp_path, visibility=1.0, ring_radius=8.0,
                                 arc_degrees=60.0, mode="projective")
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({"net": {"layers": 1, "d_p": 8, "d_v": 16, "d_s": 8,
                                                "d_g": 16, "mode": "projective"},
                                        "epochs": 3, "seed": 0, "warmup_iters": 0}))
        run_ok(runner, ["train", "--config", str(cfg_path), "--scene", str(scene_path),
                        "--out", str(tmp_path / "run")])
        run_ok(runner, ["infer", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
                        "--scene", str(scene_path), "--triangulate",
                        "--out", str(tmp_path / "inf")])
        result, diag = self.run_ba(runner, scene_path, tmp_path / "inf" / "reconstruction.json",
                                   tmp_path / "ba")
        assert result.exit_code == 0, (result.output, diag["stop_reasons"])
        assert diag["converged"] is True and "small step" in diag["stop_reasons"]
        assert diag["objectives"][-1][-1] < 1e-26

    def test_ba_reports_reprojection_and_depth_sign(self, runner, tmp_path):
        """Points and centers mirrored through the origin, rotations kept:
        every camera-frame coordinate changes sign, so each observation
        reprojects exactly but lies behind its camera. `ba` prints the
        zero reprojection error and counts all 320 observations at depth
        <= 0, where the depth-hinged loss would read about 4."""
        raw = generate_synthetic(SceneGenConfig(num_views=8, num_points=40), seed=0)
        scene_path, recon_path = tmp_path / "scene.json", tmp_path / "mirrored.json"
        save_scene(raw, scene_path)
        save_reconstruction(Reconstruction(mode="euclidean", quats=raw.gt_quats,
                                           centers=-raw.gt_centers, points=-raw.gt_points),
                            recon_path)
        result = run_ok(runner, ["ba", "--scene", str(scene_path), "--recon",
                                 str(recon_path), "--out", str(tmp_path / "ba")])
        line = result.output.splitlines()[-1]
        assert line.startswith("BA finished; mean reprojection (normalized) ")
        mean = float(line.split("(normalized) ")[1].split(";")[0])
        assert mean < 1e-9
        assert line.endswith("; 320 of 320 observations at depth <= 0")

    def test_eval_ground_truth_is_zero(self, runner, tmp_path):
        """Evaluating the ground truth against itself prints zeros."""
        scene_path = synth_scene(runner, tmp_path)
        raw = load_scene(scene_path)
        recon_path = tmp_path / "gt.json"
        save_reconstruction(gt_reconstruction(raw), recon_path)
        out = tmp_path / "eval"
        result = run_ok(runner, ["eval", "--scene", str(scene_path),
                                 "--recon", str(recon_path), "--out", str(out)])
        row = result.output.splitlines()[-1].split()
        assert float(row[0]) == 0.0 and float(row[1]) == 0.0 and float(row[2]) == 0.0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["reprojection_px"] <= 1e-9
        assert metrics["rotation_deg"] <= 1e-9
        assert metrics["translation"] <= 1e-9

    def test_export_ply(self, runner, tmp_path):
        scene_path = synth_scene(runner, tmp_path)
        raw = load_scene(scene_path)
        recon_path = tmp_path / "gt.json"
        save_reconstruction(gt_reconstruction(raw), recon_path)
        ply = tmp_path / "cloud.ply"
        run_ok(runner, ["export", "--recon", str(recon_path), "--out", str(ply)])
        assert ply.read_bytes().startswith(b"ply")


class TestExitCodes:
    def test_validation_error_is_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        result = runner.invoke(main, ["eval", "--scene", str(bad),
                                      "--recon", str(bad)])
        assert result.exit_code == 2

    def test_ba_nonfinite_observation_is_2(self, runner, tmp_path):
        """A NaN measurement is rejected when the scene is read, before BA."""
        scene_path = synth_scene(runner, tmp_path)
        recon_path = tmp_path / "gt.json"
        save_reconstruction(gt_reconstruction(load_scene(scene_path)), recon_path)
        doc = json.loads(scene_path.read_text())
        doc["observations"][5][3] = float("nan")
        bad = tmp_path / "nan_scene.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, ["ba", "--scene", str(bad), "--recon",
                                      str(recon_path), "--out", str(tmp_path / "ba")])
        assert result.exit_code == 2
        assert "finite" in result.output

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: doc.update(observations=[o for o in doc["observations"]
                                              if o[1] != 0 or o[0] == 0]),
         "point 0 observed in 1 view(s), need >= 2"),
        (lambda doc: doc["observations"][5].__setitem__(0, doc["num_views"]),
         "view index out of range"),
    ], ids=["point seen once", "view index"])
    def test_bad_scene_is_2(self, runner, tmp_path, corrupt, message):
        """A scene whose observations break an invariant is rejected by
        name when read, before BA."""
        scene_path = synth_scene(runner, tmp_path, visibility=1.0)
        recon_path = tmp_path / "gt.json"
        save_reconstruction(gt_reconstruction(load_scene(scene_path)), recon_path)
        doc = json.loads(scene_path.read_text())
        corrupt(doc)
        bad = tmp_path / "bad_scene.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, ["ba", "--scene", str(bad), "--recon",
                                      str(recon_path), "--out", str(tmp_path / "ba")])
        assert result.exit_code == 2, result.output
        assert message in result.output

    def test_eval_without_ground_truth_is_2(self, runner, tmp_path):
        scene_path = synth_scene(runner, tmp_path)
        recon_path = tmp_path / "gt.json"
        save_reconstruction(gt_reconstruction(load_scene(scene_path)), recon_path)
        doc = json.loads(scene_path.read_text())
        del doc["gt_poses"], doc["gt_points"]
        bare = tmp_path / "no_gt.json"
        bare.write_text(json.dumps(doc))
        result = runner.invoke(main, ["eval", "--scene", str(bare), "--recon",
                                      str(recon_path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "no ground truth" in result.output

    @pytest.mark.parametrize("command", ["ba", "eval"])
    def test_camera_count_mismatch_is_2(self, runner, tmp_path, command):
        """A reconstruction with 5 cameras for a 6-view scene."""
        scene_path = synth_scene(runner, tmp_path)
        recon = gt_reconstruction(load_scene(scene_path))
        recon.quats, recon.centers = recon.quats[:5], recon.centers[:5]
        recon_path = tmp_path / "five.json"
        save_reconstruction(recon, recon_path)
        result = runner.invoke(main, [command, "--scene", str(scene_path), "--recon",
                                      str(recon_path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "5 cameras" in result.output and "6 views" in result.output

    @pytest.mark.parametrize("command", ["ba", "eval"])
    @pytest.mark.parametrize("count", [30, 80])
    def test_point_count_mismatch_is_2(self, runner, tmp_path, command, count):
        """A reconstruction with too few or too many points for a 40-point
        scene."""
        scene_path = synth_scene(runner, tmp_path)
        recon = gt_reconstruction(load_scene(scene_path))
        recon.points = np.resize(recon.points, (count, 3))
        recon_path = tmp_path / "points.json"
        save_reconstruction(recon, recon_path)
        result = runner.invoke(main, [command, "--scene", str(scene_path), "--recon",
                                      str(recon_path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert f"{count} points" in result.output and "scene has 40" in result.output

    def test_eval_reads_quaternions_at_unit_norm(self, runner, tmp_path):
        """Doubling every quaternion of the ground truth changes nothing
        that eval prints or writes."""
        scene_path = synth_scene(runner, tmp_path)
        gt = gt_reconstruction(load_scene(scene_path))
        outputs = []
        for scale in (1.0, 2.0):
            recon_path = tmp_path / f"q{scale}.json"
            save_reconstruction(replace(gt, quats=scale * gt.quats), recon_path)
            out = tmp_path / f"o{scale}"
            result = run_ok(runner, ["eval", "--scene", str(scene_path), "--recon",
                                     str(recon_path), "--out", str(out)])
            outputs.append((result.output, (out / "metrics.json").read_text()))
        assert outputs[0] == outputs[1]

    def test_eval_nonfinite_ground_truth_is_2(self, runner, tmp_path):
        """A NaN ground-truth center is rejected by name when the scene is read."""
        scene_path = synth_scene(runner, tmp_path)
        recon_path = tmp_path / "gt.json"
        save_reconstruction(gt_reconstruction(load_scene(scene_path)), recon_path)
        doc = json.loads(scene_path.read_text())
        doc["gt_poses"][2]["c"][1] = float("nan")
        bad = tmp_path / "nan_gt.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, ["eval", "--scene", str(bad), "--recon",
                                      str(recon_path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "gt_centers must be finite" in result.output

    @pytest.mark.parametrize("command", ["ba", "eval", "export"])
    @pytest.mark.parametrize("field, corrupt", [
        ("points", lambda doc: doc.update(points=[p[:2] for p in doc["points"]])),
        ("points must be finite", lambda doc: doc["points"][3].__setitem__(1, float("nan"))),
        ("camera q must have nonzero norm",
         lambda doc: doc["cameras"][1].update(q=[0.0, 0.0, 0.0, 0.0])),
        ("camera q", lambda doc: doc["cameras"][1].update(q=[1.0, 0.0, 0.0])),
        ("camera c must be finite", lambda doc: doc["cameras"][0]["c"].__setitem__(2, float("inf"))),
        ("mode", lambda doc: doc.update(mode="affine")),
    ], ids=["2d points", "nan point", "zero quaternion", "3-entry quaternion", "inf center",
            "unknown mode"])
    def test_bad_reconstruction_is_2(self, runner, tmp_path, command, field, corrupt):
        """A malformed reconstruction file is rejected by field when read."""
        scene_path = synth_scene(runner, tmp_path)
        recon_path = tmp_path / "gt.json"
        save_reconstruction(gt_reconstruction(load_scene(scene_path)), recon_path)
        doc = json.loads(recon_path.read_text())
        corrupt(doc)
        recon_path.write_text(json.dumps(doc))
        args = {"ba": ["ba", "--scene", str(scene_path), "--out", str(tmp_path / "o")],
                "eval": ["eval", "--scene", str(scene_path), "--out", str(tmp_path / "o")],
                "export": ["export", "--out", str(tmp_path / "o.ply")]}[command]
        result = runner.invoke(main, args + ["--recon", str(recon_path)])
        assert result.exit_code == 2, result.output
        assert f"reconstruction {field}" in result.output
        assert not (tmp_path / "o.ply").exists()

    @pytest.mark.parametrize("command, config", [
        ("synth", {"num_views": 6, "bogus": 1}),
        ("train", {"epochs": 1, "bogus": 1}),
        ("train", {"net": {"layers": 1, "bogus": 1}}),
        ("train", {"aug": {"bogus": 1}}),
        ("train", {"outliers": {"bogus": 1}}),
    ], ids=["synth", "train", "train net", "train aug", "train outliers"])
    def test_unknown_config_field_is_2(self, runner, tmp_path, command, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        args = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        if command == "train":
            args += ["--scene", str(synth_scene(runner, tmp_path))]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "unknown" in result.output and "'bogus'" in result.output

    @pytest.mark.parametrize("field, value", [("box_size", 1.0), ("max_repair_rounds", 100)])
    def test_fixed_generator_setting_is_2(self, runner, tmp_path, field, value):
        """The box size and the repair pass are fixed, so a synth config
        naming them is rejected like any unknown field."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"num_views": 6, field: value}))
        result = runner.invoke(main, ["synth", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert f"unknown scene generator field '{field}'" in result.output

    @pytest.mark.parametrize("command, config, message", [
        ("train", {"epochs": "5"}, "train config field 'epochs' must be an integer"),
        ("train", {"aug": [1, 2]}, "aug must be a JSON object"),
        ("synth", [1, 2], "scene generator config must be a JSON object"),
        ("synth", {"num_views": "6"}, "scene generator field 'num_views' must be an integer"),
        ("synth", {"count": -1}, "scene generator field 'count' must be a positive integer"),
        ("synth", {"count": 0}, "scene generator field 'count' must be a positive integer"),
        ("synth", {"count": 1.5}, "scene generator field 'count' must be a positive integer"),
        ("train", {"net": {"layers": 0}}, "need at least one layer"),
        ("train", {"net": {"d_p": 2}}, "feature dimensions must be >= 4"),
        ("train", {"net": {"mode": "affine"}}, "unknown mode 'affine'"),
        ("train", {"outliers": {"rate": 1.5}}, "outlier rate must lie in [0, 1)"),
        ("train", {"subseq_min": 1}, "bad subsequence range"),
        ("train", {"subseq_min": 5, "subseq_max": 3}, "bad subsequence range"),
        ("train", {"aug": {"alpha_range_deg": [10, -10]}},
         "augmentation angle ranges must be ordered"),
    ], ids=["train epochs", "train aug", "synth list", "synth num_views", "synth count -1",
            "synth count 0", "synth count float", "train net layers 0", "train net d_p 2",
            "train net mode", "train outlier rate", "train subseq_min 1",
            "train subseq_min above max", "train aug range"])
    def test_config_value_of_wrong_type_is_2(self, runner, tmp_path, command, config,
                                             message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        args = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        if command == "train":
            args += ["--scene", str(synth_scene(runner, tmp_path))]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert message in result.output

    @pytest.mark.parametrize("config, field", [
        ({"validate_every": 0}, "validate_every"),
        ({"decay_every": 0, "warmup_iters": 0}, "decay_every"),
        ({"decay_factor": 0, "warmup_iters": 0}, "decay_factor"),
        ({"epochs": -1}, "epochs"),
    ], ids=["validate_every", "decay_every", "decay_factor", "epochs"])
    def test_schedule_value_out_of_range_is_2(self, runner, tmp_path, config, field):
        """Each value would end the run in a division by zero or an empty
        loss history; the config is rejected before training instead."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"net": {"layers": 1, "d_p": 8, "d_v": 16, "d_s": 8,
                                                "d_g": 16}, "epochs": 2, **config}))
        scene_path = str(synth_scene(runner, tmp_path))
        result = runner.invoke(main, ["train", "--config", str(cfg_path), "--scene", scene_path,
                                      "--val", scene_path, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert f"train config field {field!r}" in result.output

    @pytest.mark.parametrize("option, value, field", [
        ("--max-iters", "-5", "max_iters_per_round"), ("--max-iters", "0", "max_iters_per_round"),
        ("--rounds", "0", "rounds"), ("--huber", "nan", "huber_threshold"),
        ("--huber", "inf", "huber_threshold"), ("--huber", "0", "huber_threshold"),
    ], ids=["max-iters -5", "max-iters 0", "rounds 0", "huber nan", "huber inf", "huber 0"])
    def test_bad_ba_option_is_2(self, runner, tmp_path, option, value, field):
        """The BA settings are checked before the inputs are read or BA runs."""
        scene_path = synth_scene(runner, tmp_path)
        recon_path = tmp_path / "gt.json"
        save_reconstruction(gt_reconstruction(load_scene(scene_path)), recon_path)
        result = runner.invoke(main, ["ba", "--scene", str(scene_path), "--recon", str(recon_path),
                                      option, value, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert f"BA field {field!r}" in result.output
        assert not (tmp_path / "o").exists()

    def test_numeric_failure_is_3(self, runner, tmp_path):
        scene_path = synth_scene(runner, tmp_path)
        scene = load_scene(scene_path)
        cfg = TrainConfig(net=NetConfig(layers=1, d_p=8, d_v=16, d_s=8, d_g=16),
                          epochs=1, seed=0)
        res = train_loop([prepare_scene(scene)[0]], [], cfg)
        ckpt = res.checkpoint
        ckpt.params[0] = np.nan                          # embed.w[0, 0]
        path = tmp_path / "bad.bin"
        save_checkpoint(ckpt, path)
        result = runner.invoke(main, ["infer", "--checkpoint", str(path),
                                      "--scene", str(scene_path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 3

    def test_ba_nonconvergence_is_4(self, runner, tmp_path):
        """A reconstruction with a point sitting on a camera center makes
        the starting objective non-finite."""
        scene_path = synth_scene(runner, tmp_path)
        raw = load_scene(scene_path)
        recon = gt_reconstruction(raw)
        pts = recon.points.copy()
        pts[0] = recon.centers[0]
        recon.points = pts
        recon_path = tmp_path / "degenerate.json"
        save_reconstruction(recon, recon_path)
        result = runner.invoke(main, ["ba", "--scene", str(scene_path),
                                      "--recon", str(recon_path),
                                      "--out", str(tmp_path / "ba")])
        assert result.exit_code == 4
        diag = json.loads((tmp_path / "ba" / "manifest.json").read_text())["diagnostics"]
        assert diag["converged"] is False
        assert diag["message"] == "non-finite objective at round start"
        assert diag["objectives"][0] == [None]
        assert diag["stop_reasons"][0] == "non-finite start"
