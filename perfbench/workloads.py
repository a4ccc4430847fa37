"""The four workloads: inputs made from the run seed, one operation at a time,
and the output checks that decide whether an operation failed.

Calls the benchmark wants traced go through module attributes
(`network.forward`, `train.train_loop`, ...), so the tracer's wrappers see
them. Calls made only to check an output use names imported here
(`metrics`, `load_reconstruction`), which the tracer leaves alone, so
checking does not count as work of the program.
"""

from __future__ import annotations

import io
import shutil
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

from tracksfm import autodiff, cli, geometry, network, objective, train
from tracksfm import scene as scene_mod
from tracksfm.geometry import BaConfig, bundle_adjust, load_reconstruction, metrics
from tracksfm.network import NetConfig, Reconstruction
from tracksfm.rotations import axis_angle_to_matrix, matrix_to_quat, quat_multiply
from tracksfm.scene import SceneGenConfig
from tracksfm.train import AugmentConfig, OutlierConfig, TrainConfig

from spec import CONVERGED_REL_TOL, ORACLE_REL_TOL, REL_TOL

# Wrapped calls made directly by one operation, per workload kind; whatever
# an operation spends outside them is reported as unaccounted.
TOP_LEVEL = {
    "train": ("network.init_params", "train.sample", "train.augment",
              "train.outliers", "autodiff.zero_grads", "network.forward",
              "objective.loss", "autodiff.backward", "objective.normalize",
              "train.adam"),
    "fullscale": ("autodiff.zero_grads", "network.forward", "objective.loss",
                  "autodiff.backward", "objective.normalize"),
    "ba": ("scene.load", "scene.normalize", "geometry.load_recon",
           "geometry.bundle_adjust", "cli.save", "objective.loss"),
}


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return bool(abs(a - b) <= rel * max(abs(a), abs(b), 1e-300))


class Checks:
    """Operations attempted and failed, with a tally per check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.evaluated = Counter()
        self.failures = Counter()
        self.examples: list[str] = []

    def op(self, results) -> None:
        """Record one operation; results is a list of (check, ok, detail)."""
        self.attempted += 1
        bad = False
        for name, ok, detail in results:
            self.evaluated[name] += 1
            if not ok:
                bad = True
                self.failures[name] += 1
                if len(self.examples) < 20:
                    self.examples.append(f"{name}: {detail}")
        self.failed += bad

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failed_share": self.failed / max(self.attempted, 1),
                "evaluated": dict(self.evaluated), "failures": dict(self.failures),
                "examples": self.examples}


def mem_available_gb() -> float | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 2**20
    except OSError:
        pass
    return None


def _normalized_scene(gen: dict, seed: int):
    raw = scene_mod.generate_synthetic(SceneGenConfig(**gen), seed=seed)
    return scene_mod.normalize_euclidean(raw)[0]


def relabelling(seed: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Old -> new view and point labels for a run seed; seed 0 keeps them."""
    if seed == 0:
        return np.arange(m), np.arange(n)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    return rng.permutation(m), rng.permutation(n)


def _moved(rows, perm):
    if rows is None:
        return None
    out = np.empty_like(rows)
    out[perm] = rows
    return out


def relabel_scene(scene, pv, pp):
    return replace(scene, view_idx=pv[scene.view_idx], point_idx=pp[scene.point_idx],
                   intrinsics=_moved(scene.intrinsics, pv),
                   gt_quats=_moved(scene.gt_quats, pv),
                   gt_centers=_moved(scene.gt_centers, pv),
                   gt_points=_moved(scene.gt_points, pp))


def relabel_recon(recon: Reconstruction, pv, pp) -> Reconstruction:
    return Reconstruction(mode=recon.mode, quats=_moved(recon.quats, pv),
                          centers=_moved(recon.centers, pv), points=_moved(recon.points, pp))


class TrainWorkload:
    """One operation is one training step. Steps run in trials: a fixed-length
    `train_loop` from the same start, so every trial must reproduce the
    first one exactly and the loss metric does not depend on speed."""

    def __init__(self, params: dict, seed: int, oracle: float | None):
        self.p = params
        self.seed = seed
        self.oracle = oracle
        self.first: np.ndarray | None = None

    def _scenes(self) -> list:
        if "scene_seed" in self.p:   # one fixed scene, relabelled by the run seed
            scene = _normalized_scene(self.p["scene"], self.p["scene_seed"])
            return [relabel_scene(scene, *relabelling(self.seed, scene.num_views,
                                                      scene.num_points))]
        return [_normalized_scene(self.p["scene"], 16 * self.seed + k)
                for k in range(self.p["num_scenes"])]

    def _config(self, steps: int) -> TrainConfig:
        lo, hi = self.p.get("subseq", (10, 20))
        return TrainConfig(
            net=NetConfig(**self.p["net"]), seed=self.p["train_seed"],
            epochs=max(1, steps // len(self.scenes)), validate_every=10**9,
            subseq_min=lo, subseq_max=hi,
            aug=AugmentConfig(enabled=self.p["aug"]),
            outliers=OutlierConfig(enabled=self.p["outliers"]))

    def setup(self) -> None:
        self.scenes = self._scenes()
        self.cfg = self._config(self.p["trial_steps"])
        step0 = {}

        def keep_step0(iteration, net_input, target, report):
            if iteration == 0:
                step0.update(net_input=net_input, target=target)
        train.train_loop(self.scenes, [], self._config(self.p["warmup_steps"]),
                         iteration_callback=keep_step0)
        params = network.init_params(self.cfg.net, self.cfg.seed)
        out = network.forward(step0["net_input"], params)
        self.ref_step0 = objective.loss(step0["target"], out)[1].mean_reprojection

    def unit(self, checks: Checks, traced: bool):
        stamps = []
        t0 = time.perf_counter()
        result = train.train_loop(self.scenes, [], self.cfg, iteration_callback=lambda **_:
                                  stamps.append(time.perf_counter()))
        busy = time.perf_counter() - t0
        hist = np.asarray(result.loss_history, dtype=np.float64)
        steps = self.cfg.epochs * len(self.scenes)
        for i in range(steps):
            if i >= len(hist):
                checks.op([("step_completed", False, f"aborted: {result.abort_reason}")])
                continue
            v = float(hist[i])
            res = [("step_completed", True, ""),
                   ("loss_finite", bool(np.isfinite(v)), f"step {i}: {v}")]
            if i == 0:
                res.append(("step0_equals_plain_forward", close(v, self.ref_step0),
                            f"{v!r} vs {self.ref_step0!r}"))
                if self.oracle is not None:
                    res.append(("step0_oracle", close(v, self.oracle, ORACLE_REL_TOL),
                                f"{v!r} vs {self.oracle!r}"))
            if self.first is not None:
                res.append(("same_as_first_trial", close(v, float(self.first[i])),
                            f"step {i}: {v!r} vs {float(self.first[i])!r}"))
            checks.op(res)
        if self.first is None and len(hist) == steps and np.isfinite(hist).all():
            self.first = hist
        return list(np.diff(stamps) * 1e3), busy, steps

    def reproj_final(self) -> float | None:
        if self.first is None:
            return None
        return float(self.first[-self.p["loss_window"]:].mean())

    def close(self) -> None:
        pass


class FullscaleWorkload:
    """One operation is zero_grads -> forward -> loss -> backward ->
    normalize_param_grads at full scale. No Adam: its moments do not fit."""

    def __init__(self, params: dict, seed: int, oracle: dict | None):
        self.p = params
        self.seed = seed
        self.oracle = oracle
        self.params = None
        self.first: tuple[float, float] | None = None

    def setup(self) -> None:
        self.params = None   # free the previous set-up's 1.2 GB first
        self.scene = _normalized_scene(self.p["scene"], self.seed)
        warm = _normalized_scene(self.p["warmup_scene"], 0)
        self.params = network.init_params(NetConfig(**self.p["net"]), self.p["init_seed"])
        network.forward(warm, self.params)

    def unit(self, checks: Checks, traced: bool):
        tensors = self.params.tensors.values()
        need = self.p["op_memory_gb"]
        avail = mem_available_gb()
        # zero_grads frees the previous operation's gradients before anything grows
        held = sum(t.grad.nbytes for t in tensors if t.grad is not None) / 2**30
        if avail is not None and avail + held < need:
            checks.op([("memory_available", False,
                        f"MemAvailable {avail:.2f} GB + {held:.2f} GB of old "
                        f"gradients < {need} GB needed")])
            time.sleep(1.0)
            return [], 0.0, 0
        t0 = time.perf_counter()
        autodiff.zero_grads(tensors)
        out = network.forward(self.scene, self.params)
        total, report = objective.loss(self.scene, out)
        autodiff.backward(total, params=tensors)
        grad_norm = objective.normalize_param_grads(self.params)
        busy = time.perf_counter() - t0
        del out, total
        value = report.mean_reprojection
        res = [("memory_available", True, ""),
               ("loss_finite", bool(np.isfinite(value)), f"{value}"),
               ("grad_norm_finite", bool(np.isfinite(grad_norm)), f"{grad_norm}")]
        if self.first is None:
            self.first = (value, grad_norm)
        else:
            res.append(("same_as_first_op",
                        close(value, self.first[0]) and close(grad_norm, self.first[1]),
                        f"({value!r}, {grad_norm!r}) vs {self.first!r}"))
        if self.oracle is not None:
            res.append(("oracle", close(value, self.oracle["loss"], ORACLE_REL_TOL)
                        and close(grad_norm, self.oracle["grad_norm"], ORACLE_REL_TOL),
                        f"({value!r}, {grad_norm!r}) vs {self.oracle!r}"))
        checks.op(res)
        return [busy * 1e3], busy, 1

    def reproj_final(self) -> float | None:
        return None if self.first is None else float(self.first[0])

    def close(self) -> None:
        self.params = None


def _perturbed_start(raw, rng, perturb: dict) -> Reconstruction:
    """Ground truth with every camera rotated by a fixed angle about a random
    axis, centres moved by a share of the rig diameter, points jittered."""
    m, n = raw.num_views, raw.num_points
    diam = float(np.linalg.norm(raw.gt_centers.max(0) - raw.gt_centers.min(0)))
    quats = raw.gt_quats.copy()
    angle = np.deg2rad(perturb["rotation_deg"])
    for i in range(m):
        dq = matrix_to_quat(axis_angle_to_matrix(rng.normal(size=3), angle))
        quats[i] = quat_multiply(dq, quats[i])
    centers = raw.gt_centers + rng.normal(size=(m, 3)) * perturb["center_frac_of_diameter"] * diam
    points = raw.gt_points + rng.normal(size=(n, 3)) * perturb["point_sigma"]
    return Reconstruction(mode="euclidean", quats=quats, centers=centers, points=points)


def _gt(raw) -> Reconstruction:
    return Reconstruction(mode="euclidean", quats=raw.gt_quats.copy(),
                          centers=raw.gt_centers.copy(), points=raw.gt_points.copy())


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run a `tracksfm` command in-process; returns (exit code, stderr)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            cli.main.main(args=argv, prog_name="tracksfm", standalone_mode=False)
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    return code, err.getvalue()


class BaWorkload:
    """One operation is one `tracksfm ba` command through the click entry
    point, reading the scene and start reconstruction written at set-up."""

    def __init__(self, params: dict, seed: int, work: Path):
        self.p = params
        self.seed = seed
        self.work = work
        self.rot_errs: list[float] = []
        self.reproj: list[float] = []

    def _write_case(self, gen: dict, stem: str):
        case = self.p["case_seed"]
        raw = scene_mod.generate_synthetic(SceneGenConfig(**gen), seed=case)
        noisy, _ = train.inject_outliers(
            raw, self.p["outlier_rate"], np.random.default_rng(np.random.SeedSequence([case, 1])))
        start = _perturbed_start(raw, np.random.default_rng(np.random.SeedSequence([case, 2])),
                                 self.p["perturb"])
        labels = relabelling(self.seed, raw.num_views, raw.num_points)
        raw, noisy = relabel_scene(raw, *labels), relabel_scene(noisy, *labels)
        start = relabel_recon(start, *labels)
        scene_path, recon_path = self.work / f"{stem}_scene.json", self.work / f"{stem}_start.json"
        scene_mod.save_scene(noisy, scene_path)
        geometry.save_reconstruction(start, recon_path)
        ba = self.p["ba"]
        argv = ["ba", "--scene", str(scene_path), "--recon", str(recon_path),
                "--huber", str(ba["huber"]), "--rounds", str(ba["rounds"]),
                "--max-iters", str(ba["max_iters"]), "--out", str(self.work / f"{stem}_out")]
        return raw, noisy, argv

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        raw, noisy, self.argv = self._write_case(self.p["scene"], "case")
        self.gt = _gt(raw)
        self.scene = scene_mod.normalize_euclidean(noisy)[0]
        _, _, warm_argv = self._write_case(self.p["warmup_scene"], "warmup")
        code, err = run_cli(warm_argv)
        if code != 0:
            raise RuntimeError(f"warm-up `tracksfm ba` exited {code}: {err.strip()}")

    def unit(self, checks: Checks, traced: bool):
        """The convergence check runs only untraced: its own LM steps would
        count as work of the command."""
        diags = []
        inner = cli.bundle_adjust

        def capture(*args, **kwargs):
            refined, diag = inner(*args, **kwargs)
            diags.append(diag)
            return refined, diag
        cli.bundle_adjust = capture
        try:
            t0 = time.perf_counter()
            code, err = run_cli(self.argv)
            busy = time.perf_counter() - t0
        finally:
            cli.bundle_adjust = inner
        res = [("exit_code_0", code == 0, f"exit {code}: {err.strip()[:200]}")]
        if code == 0:
            monotone = bool(diags) and all(all(b < a for a, b in zip(t, t[1:]))
                                           for t in diags[0].objectives)
            res.append(("lm_objective_decreasing", monotone,
                        f"{diags[0].objectives if diags else None}"))
            refined = load_reconstruction(Path(self.argv[-1]) / "reconstruction.json")
            report = metrics(self.scene, refined, self.gt)
            rot = report.mean_rotation_deg
            bound = self.p["rot_err_bound_deg"]
            res.append(("rot_err_under_bound", bool(rot < bound), f"{rot} deg >= {bound}"))
            res.append(("reproj_finite", bool(np.isfinite(report.mean_reprojection_px)),
                        f"{report.mean_reprojection_px}"))
            if not traced:
                again = bundle_adjust(self.scene, refined, BaConfig(
                    huber_threshold=self.p["ba"]["huber"], rounds=1, max_iters_per_round=2))
                trace = again[1].objectives[0]
                gain = (trace[0] - trace[-1]) / trace[0]
                res.append(("converged", bool(gain < CONVERGED_REL_TOL),
                            f"two more LM steps lower the objective by {gain:.3e}"))
            self.rot_errs.append(rot)
            self.reproj.append(report.mean_reprojection_px)
        checks.op(res)
        return [busy * 1e3], busy, 1

    def reproj_final(self) -> float | None:
        return float(np.median(self.reproj)) if self.reproj else None

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:   # another run's files are still there
            pass


def make(wspec: dict, params: dict, seed: int, smoke: bool, work: Path):
    kind = wspec["kind"]
    if kind == "train":
        oracle = None if smoke else wspec.get("reference_step0_loss")
        return TrainWorkload(params, seed, oracle)
    if kind == "fullscale":
        oracle = None
        if not smoke and seed == wspec["reference_seed"]:
            oracle = {"loss": wspec["reference_loss"], "grad_norm": wspec["reference_grad_norm"]}
        return FullscaleWorkload(params, seed, oracle)
    return BaWorkload(params, seed, work)
