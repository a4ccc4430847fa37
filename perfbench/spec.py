"""What the benchmark runs and what it reports.

This module is the benchmark's own documentation: every workload's generator
parameters, seed handling and reason, and every metric's unit, scope and the
end-to-end metric it is expected to move. `run.py --describe` prints it as
JSON. `BENCHMARK.json` repeats the names, units and reasons, because its key
set is fixed; `test_smoke.py` checks that the two agree.
"""

from __future__ import annotations

# Every workload process pins BLAS to one thread before numpy is imported.
# Training is single-threaded by design, and two OpenBLAS threads on
# train_overfit doubled CPU time without a speed-up.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

SETUP_REPEATS = 3

OVERFIT_NET = {"layers": 2, "d_p": 16, "d_v": 64, "d_s": 32, "d_g": 128}
SMOKE_NET = {"layers": 1, "d_p": 8, "d_v": 8, "d_s": 8, "d_g": 8}

WORKLOADS = {
    "train_overfit": {
        "kind": "train",
        "why": "criterion-04 overfit step (N=240, ~635 tape tensors): interpreter "
               "and tape overhead dominate, and the same scene repeats every step",
        "seed": "permutes the view and point labels of the criterion-04 scene "
                "(scene seed 11, net seed 0; run seed 0 keeps them). The network is "
                "permutation-equivariant, so the work and the oracle step-0 loss are "
                "the same for every seed up to rounding",
        "params": {
            "scene": {"num_views": 6, "num_points": 40, "visibility": 1.0,
                      "ring_radius": 8.0, "arc_degrees": 60.0},
            "scene_seed": 11,
            "net": OVERFIT_NET,
            "train_seed": 0,
            "aug": False,
            "outliers": False,
            "trial_steps": 200,
            "loss_window": 50,
            "warmup_steps": 3,
        },
        "smoke": {"net": SMOKE_NET, "trial_steps": 6, "loss_window": 3,
                  "warmup_steps": 1},
        "reference_step0_loss": 2.54106551522,
    },
    "train_mix": {
        "kind": "train",
        "why": "four 30x200 scenes, random 10-20 view windows, augmentation and "
               "10% outliers: a new graph every step, so gather/scatter and the "
               "train data path do the work",
        "seed": "scene k (k=0..3) is generate_synthetic(seed=16*seed+k); the "
                "train seed stays 0 so every run starts from the same network",
        "params": {
            "scene": {"num_views": 30, "num_points": 200, "visibility": 0.5},
            "num_scenes": 4,
            "net": OVERFIT_NET,
            "train_seed": 0,
            "aug": True,
            "outliers": True,
            "subseq": [10, 20],
            "trial_steps": 60,
            "loss_window": 20,
            "warmup_steps": 4,
        },
        "smoke": {"scene": {"num_views": 8, "num_points": 30, "visibility": 0.8},
                  "num_scenes": 2, "net": SMOKE_NET, "subseq": [4, 6],
                  "trial_steps": 4, "loss_window": 2, "warmup_steps": 2},
    },
    "fullscale_step": {
        "kind": "fullscale",
        "why": "145M-parameter zero_grads/forward/loss/backward/normalize on a "
               "20x300 scene: BLAS matmul, the N x 2048 global gather/scatter "
               "and peak memory",
        "seed": "the scene is generate_synthetic(seed=seed); init_params uses "
                "seed 0 in every run",
        "params": {
            "scene": {"num_views": 20, "num_points": 300, "visibility": 0.5},
            "net": {},  # NetConfig defaults: the full-scale network
            "init_seed": 0,
            "warmup_scene": {"num_views": 3, "num_points": 10, "visibility": 1.0},
            # measured: an operation raises RSS by ~3.5 GB above the parameters
            "op_memory_gb": 4.0,
        },
        "smoke": {"scene": {"num_views": 5, "num_points": 20, "visibility": 0.8},
                  "net": {"layers": 2, "d_p": 8, "d_v": 16, "d_s": 8, "d_g": 16},
                  "op_memory_gb": 0.1},
        "reference_seed": 0,
        "reference_loss": 0.1654249326,
        "reference_grad_norm": 83.34090663,
    },
    "ba_30x1000": {
        "kind": "ba",
        "why": "`tracksfm ba` in-process on a noisy 30x1000 scene with 5% outliers: "
               "geometry only (Schur steps, re-triangulation), plus scene ingest, "
               "reconstruction I/O and the manifest",
        "seed": "permutes the view and point labels of one fixed case (scene "
                "seed 0, outliers from SeedSequence([0, 1]), start from "
                "SeedSequence([0, 2]); run seed 0 keeps them). Other cases need 15 "
                "to 24 Schur steps, which would swamp the timing; relabelling keeps "
                "the 17 steps and changes only the order of the input",
        "params": {
            "case_seed": 0,
            "scene": {"num_views": 30, "num_points": 1000, "visibility": 0.5,
                      "noise_sigma": 1e-3},
            "outlier_rate": 0.05,
            "perturb": {"rotation_deg": 5.0, "center_frac_of_diameter": 0.01,
                        "point_sigma": 0.01},
            "ba": {"huber": 0.1, "rounds": 2, "max_iters": 100},
            "warmup_scene": {"num_views": 6, "num_points": 40, "visibility": 1.0,
                             "noise_sigma": 1e-3},
            "rot_err_bound_deg": 1.5,
        },
        "smoke": {"scene": {"num_views": 8, "num_points": 60, "visibility": 0.8,
                            "noise_sigma": 1e-3},
                  "rot_err_bound_deg": 5.0},
    },
}

# Output checks. A training step fails when it is missing (abort), its loss is
# not finite, or it differs from the same step of the first trial; a trial's
# step 0 must also equal a plain forward + loss at the initial parameters.
REL_TOL = 1e-9
# The oracle constants were printed to ten significant digits.
ORACLE_REL_TOL = 1e-8
# `tracksfm ba` has converged when two more LM steps from its output lower the
# robust objective by less than this share (a converged run gives ~1e-14, one
# stopped after 3 steps per round 4e-8). The rotation error cannot show an
# early stop: outliers bias it to ~0.85 deg after two steps already.
CONVERGED_REL_TOL = 1e-10

# End-to-end metrics: measured untraced, reported on every workload.
# "op" is the workload's operation: one training step, one full-scale
# forward+backward, or one `tracksfm ba` command.
END_TO_END = {
    "setup_s": {
        "unit": "s", "better": "lower", "bound": 0.25,
        "what": "imports plus the median of %d set-ups (inputs, init_params, "
                "warm-up)" % SETUP_REPEATS},
    "op_ms_p50": {
        "unit": "ms", "better": "lower", "bound": 0.25,
        "what": "median operation time; train_step_ms_p50 on the training "
                "workloads, fwd_bwd_s x 1000 on fullscale_step, ba_s x 1000 on "
                "ba_30x1000"},
    "op_ms_tail": {
        "unit": "ms", "better": "lower", "bound": 0.25,
        "what": "highest of p99/p95/p90/p75/p50 with at least 10 samples beyond "
                "it, else the maximum; train_step_ms_tail on the training "
                "workloads"},
    "peak_rss_mb": {
        "unit": "MB", "better": "lower", "bound": 0.1,
        "what": "ru_maxrss of the workload process"},
    "reproj_final": {
        "unit": "norm", "better": "lower", "bound": 0.2,
        "what": "mean reprojection (normalized units) of the output: "
                "train_loss_final (mean over the last loss_window steps of the "
                "first trial), the full-scale step's loss, or the refined "
                "reconstruction of `tracksfm ba`"},
}

# Workload-specific names, as the ROADMAP uses them, reported in the
# run's report line; each maps onto an end-to-end metric above.
WORKLOAD_METRICS = {
    "train": {"train_step_ms_p50": ("op_ms_p50", "ms", 1.0),
              "train_step_ms_tail": ("op_ms_tail", "ms", 1.0),
              "train_loss_final": ("reproj_final", "norm", 1.0)},
    "fullscale": {"fwd_bwd_s": ("op_ms_p50", "s", 1e-3)},
    "ba": {"ba_s": ("op_ms_p50", "s", 1e-3)},
}

STAGES = ("embed", "init", "proj", "view", "point", "global", "heads")
PRIMS = ("matmul", "gather", "segment_sum", "segment_softmax", "layer_norm",
         "concat", "narrow", "elementwise")


def _per_layer():
    m = {}

    def put(name, unit, scope, moves, better="lower"):
        m[name] = {"unit": unit, "better": better, "scope": scope, "moves": moves}

    train_both = "op_ms_p50 on train_overfit and train_mix"
    put("scene.generate_s", "s", "setup", "setup_s on all workloads")
    put("scene.normalize_s", "s", "setup", "setup_s on all workloads")
    put("scene.load_s", "s", "op", "op_ms_p50 (ba_s) on ba_30x1000")
    put("scene.normalize_op_s", "s", "op", "op_ms_p50 (ba_s) on ba_30x1000")
    put("scene.subsample_ms", "ms", "op",
        "op_ms_p50 on train_mix, barely on train_overfit")
    put("autodiff.tensors_per_step", "count", "op", "op_ms_p50 on train_overfit")
    put("autodiff.backward_ms", "ms", "op",
        train_both + "; op_ms_p50 (fwd_bwd_s) on fullscale_step")
    put("autodiff.zero_grads_ms", "ms", "op", "op_ms_p50 (fwd_bwd_s) on fullscale_step")
    for prim in PRIMS:
        moves = {"matmul": "op_ms_p50 (fwd_bwd_s) on fullscale_step",
                 "gather": "op_ms_p50 on fullscale_step and train_mix",
                 "segment_sum": "op_ms_p50 on fullscale_step and train_mix",
                 "segment_softmax": "op_ms_p50 on fullscale_step and train_mix"
                 }.get(prim, train_both)
        put(f"autodiff.vjp.{prim}.ms", "ms", "op", moves)
        put(f"autodiff.vjp.{prim}.calls", "count", "op", moves)
    put("network.init_params_s", "s", "setup", "setup_s on fullscale_step")
    put("network.forward_ms", "ms", "op",
        train_both + "; op_ms_p50 (fwd_bwd_s) on fullscale_step")
    for stage in STAGES:
        moves = "op_ms_p50 on train_overfit"
        if stage in ("proj", "global"):
            moves += "; op_ms_p50 (fwd_bwd_s) on fullscale_step"
        put(f"network.stage.{stage}.fwd_ms", "ms", "op", moves)
        put(f"network.stage.{stage}.bwd_ms", "ms", "op", moves)
    put("objective.loss_ms", "ms", "op", train_both)
    put("objective.loss_bwd_ms", "ms", "op", train_both)
    put("objective.normalize_ms", "ms", "op",
        "op_ms_p50 on fullscale_step and train_overfit")
    put("objective.hinge_count", "count", "op", "reproj_final on the training workloads")
    put("train.sample_ms", "ms", "op", "op_ms_p50 on train_mix (zero on train_overfit)")
    put("train.augment_ms", "ms", "op", "op_ms_p50 on train_mix (zero on train_overfit)")
    put("train.outliers_ms", "ms", "op", "op_ms_p50 on train_mix (zero on train_overfit)")
    put("train.adam_ms", "ms", "op", train_both)
    ba = "op_ms_p50 (ba_s) on ba_30x1000"
    put("geometry.bundle_adjust_s", "s", "op", ba)
    put("geometry.schur_step.ms", "ms", "op", ba)
    put("geometry.schur_step.calls", "count", "op", ba)
    put("geometry.triangulate_ms", "ms", "op", ba)
    put("geometry.triangulate.calls", "count", "op", ba)
    put("geometry.lm_other_s", "s", "op", ba)
    put("geometry.lm_accepted", "count", "op", ba)
    put("geometry.lm_rejected", "count", "op", ba)
    put("geometry.load_recon_s", "s", "op", ba)
    put("cli.overhead_s", "s", "op", ba)
    put("cli.save_s", "s", "op", ba)
    put("proc.cpu_per_wall", "ratio", "op", "every timing if BLAS threads change")
    put("trace.overhead_ms", "ms", "op", "nothing: traced minus untraced op_ms_p50")
    put("trace.unaccounted_ms", "ms", "op",
        "nothing: mean traced op time minus the wrapped calls directly under it")
    return m


PER_LAYER = _per_layer()
