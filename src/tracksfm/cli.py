"""Command-line entry points wiring the library into reproducible runs.

Every command resolves its inputs, performs one pipeline stage, and writes
a run manifest (resolved config, seed, input hashes, artifact version,
output paths, per-stage wall-clock timings and, for `ba`, the LM
diagnostics) next to its outputs. Exit codes: 0 success, 2 validation
error, 3 numeric failure, 4 bundle adjustment did not converge.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import click
import numpy as np

from . import __version__
from .autodiff import NumericError
from .geometry import (BaConfig, bundle_adjust, camera_matrices, export_ply,
                       load_reconstruction, metrics, reprojection_errors_px,
                       save_reconstruction, triangulate)
from .network import Reconstruction, forward
from .scene import (EUCLIDEAN, NormalizationRecord, Scene, SceneError,
                    SceneGenConfig, _is_count, generate_synthetic, load_scene,
                    normalize_euclidean, normalize_hartley, project, save_scene)
from .train import TrainConfig, from_fields, load_checkpoint, save_checkpoint, train_loop

EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_NONCONVERGENCE = 4


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int | None
    input_hashes: dict
    artifact_version: str
    outputs: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def write(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
            json.dump(asdict(self), f, indent=2)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(command: str, config: dict, seed, inputs) -> RunManifest:
    return RunManifest(command=command, config=config, seed=seed,
                       input_hashes={str(p): _sha256(p) for p in inputs},
                       artifact_version=__version__)


def prepare_scene(scene: Scene) -> tuple[Scene, NormalizationRecord]:
    """Bring a scene into the coordinates the network and BA operate in.

    Euclidean scenes with intrinsics get K^{-1} normalization; euclidean
    scenes without are taken as already normalized. Projective scenes get
    Hartley normalization (idempotent up to floating point)."""
    if scene.mode == EUCLIDEAN:
        if scene.intrinsics is not None:
            return normalize_euclidean(scene)
        return scene, NormalizationRecord.identity(scene.num_views)
    return normalize_hartley(scene)


def _reprojection_line(scene: Scene, recon: Reconstruction) -> str:
    """The mean reprojection error in normalized units (inf when a
    projection falls under the depth guard) and the count of observations
    at depth <= 0, which the error alone does not show."""
    errors = reprojection_errors_px(scene, recon)
    _, z = project(camera_matrices(recon), recon.points, scene.view_idx, scene.point_idx)
    return (f"mean reprojection (normalized) {errors.mean():.6g}; "
            f"{int((z[:, 2] <= 0).sum())} of {len(errors)} observations at depth <= 0")


class _ExitCode(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _wrap(fn):
    """Map domain errors onto the documented exit codes."""
    def inner(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except _ExitCode as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(e.code)
        except NumericError as e:
            click.echo(f"numeric failure: {e}", err=True)
            sys.exit(EXIT_NUMERIC)
        except (SceneError, ValueError, OSError, KeyError) as e:
            click.echo(f"validation error: {e}", err=True)
            sys.exit(EXIT_VALIDATION)
    inner.__name__ = fn.__name__
    inner.__doc__ = fn.__doc__
    return inner


@click.group()
@click.version_option(__version__)
def main():
    """Structure-from-motion on point tracks: synthesize scenes, train the
    network, infer reconstructions, refine with bundle adjustment, and
    evaluate against ground truth."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True),
              help="JSON with SceneGenConfig fields plus optional 'count'.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_wrap
def synth(config_path, seed, out_dir):
    """Generate synthetic scenes with exact ground truth."""
    raw = {}
    if config_path:
        with open(config_path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError("scene generator config must be a JSON object")
    count = raw.pop("count", 1)
    if not _is_count(count) or count < 1:
        raise ValueError("scene generator field 'count' must be a positive integer")
    cfg = from_fields(SceneGenConfig, raw, "scene generator")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest("synth", {**raw, "count": count}, seed,
                         [config_path] if config_path else [])
    t0 = time.perf_counter()
    for k in range(count):
        scene = generate_synthetic(cfg, seed=seed + k)
        path = out / f"scene_{k:03d}.json"
        save_scene(scene, path)
        manifest.outputs.append(str(path))
    manifest.timings["generate"] = time.perf_counter() - t0
    manifest.write(out)
    click.echo(f"wrote {count} scene(s) to {out}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True),
              help="JSON mirroring TrainConfig.")
@click.option("--scene", "scene_paths", type=click.Path(exists=True),
              multiple=True, required=True)
@click.option("--val", "val_paths", type=click.Path(exists=True), multiple=True)
@click.option("--resume", "resume_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Overrides the config seed.")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_wrap
def train(config_path, scene_paths, val_paths, resume_path, seed, out_dir):
    """Run the training loop and save final/best checkpoints."""
    cfg_dict = {}
    if config_path:
        with open(config_path, "r", encoding="utf-8") as f:
            cfg_dict = json.load(f)
    cfg = TrainConfig.from_dict(cfg_dict) if config_path else TrainConfig()
    if seed is not None:
        cfg = TrainConfig.from_dict({**cfg.to_dict(), "seed": seed})
    scenes = [prepare_scene(load_scene(p))[0] for p in scene_paths]
    vals = [prepare_scene(load_scene(p))[0] for p in val_paths]
    resume = load_checkpoint(resume_path) if resume_path else None

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest("train", cfg.to_dict(), cfg.seed,
                         list(scene_paths) + list(val_paths) +
                         ([config_path] if config_path else []) +
                         ([resume_path] if resume_path else []))
    t0 = time.perf_counter()
    result = train_loop(scenes, vals, cfg, resume_from=resume)
    manifest.timings["train"] = time.perf_counter() - t0

    final_path = out / "checkpoint.bin"
    save_checkpoint(result.checkpoint, final_path)
    manifest.outputs.append(str(final_path))
    if result.best is not None:
        best_path = out / "best.bin"
        save_checkpoint(result.best, best_path)
        manifest.outputs.append(str(best_path))
    np.save(out / "loss_history.npy", result.loss_history)
    manifest.outputs.append(str(out / "loss_history.npy"))
    manifest.write(out)
    if result.aborted:
        click.echo(f"numeric failure at iteration {result.checkpoint.iteration}: "
                   f"{result.abort_reason}; last good state saved", err=True)
        sys.exit(EXIT_NUMERIC)
    final = f"; final loss {result.loss_history[-1]:.6g}" if len(result.loss_history) else ""
    click.echo(f"trained {result.checkpoint.iteration} iterations{final}")


@main.command()
@click.option("--checkpoint", "ckpt_path", type=click.Path(exists=True), required=True)
@click.option("--scene", "scene_path", type=click.Path(exists=True), required=True)
@click.option("--triangulate", "do_triangulate", is_flag=True,
              help="Replace regressed points by DLT triangulation.")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_wrap
def infer(ckpt_path, scene_path, do_triangulate, out_dir):
    """Network forward pass, optionally followed by cheap triangulation."""
    ckpt = load_checkpoint(ckpt_path)
    params = ckpt.restore_params()
    scene, _ = prepare_scene(load_scene(scene_path))
    out = Path(out_dir)
    manifest = _manifest("infer", {"triangulate": do_triangulate,
                                   "net": asdict(ckpt.train_config.net)},
                         None, [ckpt_path, scene_path])
    t0 = time.perf_counter()
    recon = forward(scene, params).reconstruction()
    manifest.timings["inference"] = time.perf_counter() - t0
    if do_triangulate:
        t1 = time.perf_counter()
        points, degenerate = triangulate(scene, recon)
        recon.points = points
        manifest.timings["triangulation"] = time.perf_counter() - t1
        if degenerate.any():
            click.echo(f"{int(degenerate.sum())} degenerate point(s) kept "
                       "network coordinates", err=True)
    out.mkdir(parents=True, exist_ok=True)
    recon_path = out / "reconstruction.json"
    save_reconstruction(recon, recon_path)
    manifest.outputs.append(str(recon_path))
    manifest.write(out)
    click.echo(f"inference done; {_reprojection_line(scene, recon)}")


@main.command()
@click.option("--scene", "scene_path", type=click.Path(exists=True), required=True)
@click.option("--recon", "recon_path", type=click.Path(exists=True), required=True)
@click.option("--huber", type=float, default=BaConfig.huber_threshold, show_default=True)
@click.option("--rounds", type=int, default=BaConfig.rounds, show_default=True)
@click.option("--max-iters", type=int, default=BaConfig.max_iters_per_round, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_wrap
def ba(scene_path, recon_path, huber, rounds, max_iters, out_dir):
    """Two-round Huber bundle adjustment interleaved with triangulation."""
    cfg = BaConfig(huber_threshold=huber, rounds=rounds, max_iters_per_round=max_iters)
    scene, _ = prepare_scene(load_scene(scene_path))
    recon = load_reconstruction(recon_path)
    out = Path(out_dir)
    manifest = _manifest("ba", {"huber": huber, "rounds": rounds,
                                "max_iters": max_iters}, None,
                         [scene_path, recon_path])
    t0 = time.perf_counter()
    refined, diag = bundle_adjust(scene, recon, cfg)
    manifest.timings["bundle_adjustment"] = time.perf_counter() - t0
    # strict JSON has no Infinity/NaN: a non-finite objective is written as null
    manifest.diagnostics = {**asdict(diag), "objectives": [
        [v if np.isfinite(v) else None for v in trace] for trace in diag.objectives]}
    out.mkdir(parents=True, exist_ok=True)
    refined_path = out / "reconstruction.json"
    save_reconstruction(refined, refined_path)
    manifest.outputs.append(str(refined_path))
    manifest.write(out)
    click.echo(f"BA finished; {_reprojection_line(scene, refined)}")
    if not diag.converged:
        raise _ExitCode(EXIT_NONCONVERGENCE, f"BA did not converge: {diag.message}")


@main.command("eval")
@click.option("--scene", "scene_path", type=click.Path(exists=True), required=True)
@click.option("--recon", "recon_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_dir", type=click.Path(), default=".", show_default=True)
@_wrap
def eval_cmd(scene_path, recon_path, out_dir):
    """Print the three metrics (reprojection px, rotation deg, translation)."""
    raw = load_scene(scene_path)
    if raw.gt_quats is None or raw.gt_points is None:
        raise _ExitCode(EXIT_VALIDATION, "scene has no ground truth to evaluate against")
    scene, record = prepare_scene(raw)
    recon = load_reconstruction(recon_path)
    gt = Reconstruction(mode=EUCLIDEAN, quats=raw.gt_quats.copy(),
                        centers=raw.gt_centers.copy(), points=raw.gt_points.copy())
    manifest = _manifest("eval", {}, None, [scene_path, recon_path])
    t0 = time.perf_counter()
    report = metrics(scene, recon, gt, record)
    manifest.timings["metrics"] = time.perf_counter() - t0
    header = f"{'Reprojection (px)':>18} {'Rotation (deg)':>15} {'Translation':>12}"
    row = (f"{report.mean_reprojection_px:>18.2f} "
           f"{report.mean_rotation_deg:>15.3f} {report.mean_translation:>12.2f}")
    click.echo(header)
    click.echo(row)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.json"
    with open(metrics_path, "w", encoding="utf-8") as f:
        json.dump(report.as_dict(), f, indent=2)
    manifest.outputs.append(str(metrics_path))
    manifest.write(out)


@main.command()
@click.option("--recon", "recon_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@_wrap
def export(recon_path, out_path):
    """Export reconstruction points as binary little-endian PLY."""
    recon = load_reconstruction(recon_path)
    out = Path(out_path)
    manifest = _manifest("export", {}, None, [recon_path])
    t0 = time.perf_counter()
    out.parent.mkdir(parents=True, exist_ok=True)
    export_ply(recon.points, out)
    manifest.timings["export"] = time.perf_counter() - t0
    manifest.outputs.append(str(out))
    manifest.write(out.parent)
    click.echo(f"wrote {len(recon.points)} points to {out}")


if __name__ == "__main__":
    main()
