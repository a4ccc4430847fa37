"""Set up, measure and report one workload in this process.

Untraced (`trace=False`): set up SETUP_REPEATS times, then run operations
until `seconds` have passed, and report the end-to-end metrics.

Traced (`trace=True`): set up with the tracer installed (per-set-up layer
times), run half of `seconds` untraced and half traced, and report the
per-layer metrics. The traced minus the untraced median operation time is
the tracing overhead.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from envinfo import environment
from spec import (END_TO_END, PER_LAYER, PRIMS, SETUP_REPEATS, STAGES, THREAD_ENV,
                  WORKLOAD_METRICS, WORKLOADS)
from tracer import STAGE_FNS, Tracer

# What a user's process imports before it can run any command.
IMPORTS = "numpy, click, tracksfm.cli, tracksfm.train"


@dataclass
class Phase:
    samples: list = field(default_factory=list)   # operation times, ms
    busy_s: float = 0.0                           # time inside operations
    ops: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0


def measure(wl, seconds: float, checks, traced: bool = False) -> Phase:
    """Run operations until `seconds` have passed (at least one unit)."""
    phase = Phase()
    cpu0, t0 = time.process_time(), time.perf_counter()
    while True:
        samples, busy, ops = wl.unit(checks, traced)
        phase.samples += samples
        phase.busy_s += busy
        phase.ops += ops
        if time.perf_counter() - t0 >= seconds:
            break
    phase.wall_s = time.perf_counter() - t0
    phase.cpu_s = time.process_time() - cpu0
    return phase


def tail(samples) -> tuple[float, float]:
    """(percentile, value): the highest of p99/p95/p90/p75/p50 with at least
    ten samples beyond it, else the maximum (p100)."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, float(np.percentile(samples, p))
    return 100, float(max(samples))


def _median(values) -> float | None:
    return float(np.median(values)) if len(values) else None


def import_times(root: Path) -> list:
    """Import time of the program in SETUP_REPEATS fresh interpreters (this
    process has imported it already)."""
    code = f"import time; t = time.perf_counter(); import {IMPORTS}; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return times


def end_to_end(wl, phase: Phase, imports: list, setups: list) -> tuple[dict, dict]:
    p50 = _median(phase.samples)
    pct, tail_ms = tail(phase.samples) if phase.samples else (None, None)
    values = {
        "setup_s": float(np.median(imports)) + float(np.median(setups)),
        "op_ms_p50": p50,
        "op_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reproj_final": wl.reproj_final(),
    }
    extra = {"samples": len(phase.samples), "tail_percentile": pct,
             "setup_repeats_s": setups, "import_s": imports}
    return values, extra


def _needs() -> dict:
    """Per-layer metric -> wrap targets it depends on (TIMED keys or
    module.attr); a metric is null when any of them is absent."""
    net = "tracksfm.network."
    stage_targets = {s: [net + f for f, ss in STAGE_FNS.items() if s in ss]
                     for s in STAGES}
    stage_targets["embed"] = ["network.forward"] + [net + f for f in STAGE_FNS]
    needs = {
        "scene.generate_s": ["scene.generate"], "scene.normalize_s": ["scene.normalize"],
        "scene.load_s": ["scene.load"], "scene.normalize_op_s": ["scene.normalize"],
        "scene.subsample_ms": ["scene.subsample"],
        "autodiff.tensors_per_step": ["tracksfm.autodiff.Tensor"],
        "autodiff.backward_ms": ["autodiff.backward"],
        "autodiff.zero_grads_ms": ["autodiff.zero_grads"],
        "network.init_params_s": ["network.init_params"],
        "network.forward_ms": ["network.forward"],
        "objective.loss_ms": ["objective.loss"], "objective.loss_bwd_ms": ["objective.loss"],
        "objective.normalize_ms": ["objective.normalize"],
        "objective.hinge_count": ["objective.loss"],
        "train.sample_ms": ["train.sample"], "train.augment_ms": ["train.augment"],
        "train.outliers_ms": ["train.outliers"], "train.adam_ms": ["train.adam"],
        "geometry.bundle_adjust_s": ["geometry.bundle_adjust"],
        "geometry.schur_step.ms": ["geometry.schur_step"],
        "geometry.schur_step.calls": ["geometry.schur_step"],
        "geometry.triangulate_ms": ["geometry.triangulate"],
        "geometry.triangulate.calls": ["geometry.triangulate"],
        "geometry.lm_other_s": ["geometry.bundle_adjust", "geometry.schur_step",
                                "geometry.triangulate"],
        "geometry.lm_accepted": ["geometry.bundle_adjust"],
        "geometry.lm_rejected": ["geometry.bundle_adjust", "geometry.schur_step"],
        "geometry.load_recon_s": ["geometry.load_recon"],
        "cli.overhead_s": list(workloads.TOP_LEVEL["ba"]),
        "cli.save_s": ["cli.save"],
    }
    for prim in PRIMS:
        if prim != "elementwise":   # measured while any of its members exists
            needs[f"autodiff.vjp.{prim}.ms"] = needs[f"autodiff.vjp.{prim}.calls"] = \
                ["tracksfm.autodiff." + prim]
    for s in STAGES:
        needs[f"network.stage.{s}.fwd_ms"] = needs[f"network.stage.{s}.bwd_ms"] = \
            stage_targets[s]
    return needs


def per_layer(tracer: Tracer, kind: str, setup: dict, reps: int,
              plain: Phase, traced: Phase) -> dict:
    T, C = tracer.totals, tracer.counts
    S = setup
    n = max(traced.ops, 1)

    def ms(key):
        return T[key] / n * 1e3

    v = {
        "scene.generate_s": S.get("scene.generate", 0.0) / reps,
        "scene.normalize_s": S.get("scene.normalize", 0.0) / reps,
        "network.init_params_s": S.get("network.init_params", 0.0) / reps,
        "scene.load_s": T["scene.load"] / n,
        "scene.normalize_op_s": T["scene.normalize"] / n,
        "scene.subsample_ms": ms("scene.subsample"),
        "autodiff.tensors_per_step": C["tensors"] / n,
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.zero_grads_ms": ms("autodiff.zero_grads"),
        "network.forward_ms": ms("network.forward"),
        "objective.loss_ms": ms("objective.loss"),
        "objective.loss_bwd_ms": ms("bwd.loss"),
        "objective.normalize_ms": ms("objective.normalize"),
        "objective.hinge_count": tracer.hinges / n,
        "train.sample_ms": ms("train.sample"),
        "train.augment_ms": ms("train.augment"),
        "train.outliers_ms": ms("train.outliers"),
        "train.adam_ms": ms("train.adam"),
        "geometry.bundle_adjust_s": T["geometry.bundle_adjust"] / n,
        "geometry.schur_step.ms": ms("geometry.schur_step"),
        "geometry.schur_step.calls": C["geometry.schur_step"] / n,
        "geometry.triangulate_ms": ms("geometry.triangulate"),
        "geometry.triangulate.calls": C["geometry.triangulate"] / n,
        "geometry.lm_other_s": (T["geometry.bundle_adjust"] - T["geometry.schur_step"]
                                - T["geometry.triangulate"]) / n,
        "geometry.lm_accepted": tracer.lm_accepted / n,
        "geometry.lm_rejected": (C["geometry.schur_step"] - tracer.lm_accepted) / n,
        "geometry.load_recon_s": T["geometry.load_recon"] / n,
        "cli.save_s": T["cli.save"] / n,
    }
    for prim in PRIMS:
        v[f"autodiff.vjp.{prim}.ms"] = ms(f"vjp.{prim}")
        v[f"autodiff.vjp.{prim}.calls"] = C[f"vjp.{prim}"] / n
    inner = sum(T[f"stage.{s}.fwd"] for s in STAGES if s != "embed")
    for s in STAGES:
        fwd = T["network.forward"] - inner if s == "embed" else T[f"stage.{s}.fwd"]
        v[f"network.stage.{s}.fwd_ms"] = fwd / n * 1e3
        v[f"network.stage.{s}.bwd_ms"] = ms(f"bwd.{s}")
    unaccounted = (traced.busy_s - sum(T[k] for k in workloads.TOP_LEVEL[kind])) / n
    v["cli.overhead_s"] = unaccounted if kind == "ba" else 0.0
    v["trace.unaccounted_ms"] = unaccounted * 1e3
    v["proc.cpu_per_wall"] = plain.cpu_s / plain.wall_s
    plain_p50, traced_p50 = _median(plain.samples), _median(traced.samples)
    v["trace.overhead_ms"] = (traced_p50 - plain_p50
                              if plain_p50 is not None and traced_p50 is not None else None)

    needs = _needs()
    needs["trace.unaccounted_ms"] = list(workloads.TOP_LEVEL[kind])
    for name, keys in needs.items():
        if tracer.missing(*keys):
            v[name] = None
    return v


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        root: Path) -> tuple[dict, dict]:
    """Returns (final result, report) for one workload."""
    wspec = WORKLOADS[name]
    params = {**wspec["params"], **(wspec["smoke"] if smoke else {})}
    work = root / ".perfbench_work" / f"{name}-{seed}-{time.time_ns()}"
    wl = workloads.make(wspec, params, seed, smoke, work)
    checks = workloads.Checks()
    tracer = Tracer() if trace else None
    report = {"workload": name, "kind": wspec["kind"], "seed": seed, "seconds": seconds,
              "trace": int(trace), "smoke": smoke, "params": params,
              "environment": environment(root, THREAD_ENV)}
    names = list(PER_LAYER if trace else END_TO_END)
    values: dict = {k: None for k in names}
    try:
        setups = []
        if tracer:
            tracer.install()
        try:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                wl.setup()
                setups.append(time.perf_counter() - t0)
        finally:
            if tracer:
                setup_totals = dict(tracer.totals)
                tracer.uninstall()
                tracer.reset()
        if not trace:
            phase = measure(wl, seconds, checks)
            values, extra = end_to_end(wl, phase, import_times(root), setups)
            report.update(extra)
            report["workload_metrics"] = _workload_metrics(wspec["kind"], values, wl,
                                                           checks, extra["tail_percentile"])
        else:
            plain = measure(wl, seconds / 2, checks)
            tracer.install()
            try:
                traced = measure(wl, seconds / 2, checks, traced=True)
            finally:
                tracer.uninstall()
            values = per_layer(tracer, wspec["kind"], setup_totals, len(setups), plain, traced)
            report["absent"] = tracer.absent
            report["phases"] = {"untraced": _phase_info(plain), "traced": _phase_info(traced)}
            if plain.samples:
                report["trace_overhead_share"] = (
                    (_median(traced.samples) - _median(plain.samples)) / _median(plain.samples))
    except Exception:   # report the failure as a failed operation, not a crash
        checks.op([("run_completed", False, traceback.format_exc(limit=5))])
    finally:
        wl.close()
    report["checks"] = checks.summary()
    units = {k: (PER_LAYER if trace else END_TO_END)[k]["unit"] for k in names}
    result = {
        "correct": checks.attempted > 0 and checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed if checks.attempted else 1,
        "metrics": {k: {"value": values.get(k), "unit": units[k]} for k in names},
    }
    return result, report


def _phase_info(phase: Phase) -> dict:
    return {"ops": phase.ops, "samples": len(phase.samples), "wall_s": phase.wall_s,
            "op_ms_p50": _median(phase.samples)}


def _workload_metrics(kind, values, wl, checks, pct) -> dict:
    """The end-to-end numbers under their workload-specific names (train_step_ms_p50, ba_s, ...)."""
    out = {}
    for name, (source, unit, scale) in WORKLOAD_METRICS[kind].items():
        value = values[source]
        out[name] = {"value": None if value is None else value * scale, "unit": unit}
    if kind == "train":
        out["train_step_ms_tail"]["percentile"] = pct
    if kind == "ba":
        out["ba_rot_err_deg"] = {"value": _median(wl.rot_errs), "unit": "deg"}
    out["setup_s"] = {"value": values["setup_s"], "unit": "s"}
    out["peak_rss_mb"] = {"value": values["peak_rss_mb"], "unit": "MB"}
    out["failed_share"] = {"value": checks.failed / max(checks.attempted, 1), "unit": "ratio"}
    return out
