"""Per-layer tracing from outside the program.

The tracer replaces module attributes of `tracksfm` with timing wrappers for
the duration of a traced phase and puts the originals back afterwards. A
function is replaced in every `tracksfm` module that binds it, so calls
through `from .x import f` are seen too. A target that no longer exists is
recorded as absent, and the metrics that depend on it are reported as null.

Three kinds of wrapper:

* timed calls (`forward`, `backward`, `solve_schur_step`, ...): wall time and
  call count per key;
* network stages (`update_proj_feats`, ...): inclusive forward time per
  stage, named from the parameter-view prefix the stage function receives
  (`init_*`, `layer<k>.<stage>`, `*_head`);
* autodiff primitives: each returned tensor's `_vjp` is wrapped, so backward
  time is split by primitive and by the stage active when it was recorded.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

from spec import STAGES

# key -> (module, attribute). Keys are the names used in metric definitions.
TIMED = {
    "scene.generate": ("tracksfm.scene", "generate_synthetic"),
    "scene.normalize": ("tracksfm.scene", "normalize_euclidean"),
    "scene.load": ("tracksfm.scene", "load_scene"),
    "scene.subsample": ("tracksfm.scene", "subsample_views"),
    "network.init_params": ("tracksfm.network", "init_params"),
    "network.forward": ("tracksfm.network", "forward"),
    "autodiff.backward": ("tracksfm.autodiff", "backward"),
    "autodiff.zero_grads": ("tracksfm.autodiff", "zero_grads"),
    "objective.loss": ("tracksfm.objective", "loss"),
    "objective.normalize": ("tracksfm.objective", "normalize_param_grads"),
    "train.sample": ("tracksfm.train", "sample_subsequence"),
    "train.augment": ("tracksfm.train", "augment"),
    "train.outliers": ("tracksfm.train", "inject_outliers"),
    "train.adam": ("tracksfm.train", "adam_step"),
    "geometry.bundle_adjust": ("tracksfm.geometry", "bundle_adjust"),
    "geometry.schur_step": ("tracksfm.geometry", "solve_schur_step"),
    "geometry.triangulate": ("tracksfm.geometry", "triangulate"),
    "geometry.load_recon": ("tracksfm.geometry", "load_reconstruction"),
    "cli.save": ("tracksfm.geometry", "save_reconstruction"),
}

# Calls that push a context, so primitives recorded inside them are charged
# to it in backward.
CONTEXT = {"network.forward": "embed", "objective.loss": "loss"}

# stage function -> stages it can produce
STAGE_FNS = {
    "update_proj_feats": ("proj",),
    "update_view_feats": ("init", "view"),
    "update_point_feats": ("init", "point"),
    "update_global_feat": ("init", "global"),
    "_head": ("heads",),
}

PRIM_FNS = {
    "matmul": "matmul", "gather": "gather", "segment_sum": "segment_sum",
    "segment_softmax": "segment_softmax", "layer_norm": "layer_norm",
    "concat": "concat", "narrow": "narrow",
    # the remaining primitives
    "add": "elementwise", "mul": "elementwise", "div": "elementwise",
    "leaky_relu": "elementwise", "relu": "elementwise", "sqrt": "elementwise",
    "where": "elementwise", "reshape": "elementwise", "tsum": "elementwise",
}


def stage_of(prefix: str, default: str) -> str:
    """Stage name from a parameter prefix such as 'layer3.view'."""
    if prefix.startswith("init"):
        return "init"
    if prefix.endswith("head"):
        return "heads"
    if prefix.startswith("layer") and "." in prefix:
        name = prefix.split(".", 1)[1]
        if name in STAGES:
            return name
    return default


def accepted_steps(objectives) -> int:
    """Accepted LM steps from BaDiagnostics.objectives (one trace per round,
    starting with the round's initial objective)."""
    return sum(len(trace) - 1 for trace in objectives)


def _field(result, name, convert) -> int:
    """convert(result[1].<name>), or 0 when the return value changed shape."""
    try:
        return convert(getattr(result[1], name))
    except (TypeError, IndexError, AttributeError):
        return 0


class _TimedVjp:
    __slots__ = ("fn", "vjp_key", "bwd_key", "tracer")

    def __init__(self, fn, vjp_key, bwd_key, tracer):
        self.fn = fn
        self.vjp_key = vjp_key
        self.bwd_key = bwd_key
        self.tracer = tracer

    def __call__(self, g):
        t0 = time.perf_counter()
        self.fn(g)
        dt = time.perf_counter() - t0
        tr = self.tracer
        tr.totals[self.vjp_key] += dt
        tr.counts[self.vjp_key] += 1
        tr.totals[self.bwd_key] += dt


class Tracer:
    """Timing wrappers around `tracksfm` functions; see the module doc."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.counts = defaultdict(int)
        self.hinges = 0
        self.lm_accepted = 0
        self.absent: dict[str, str] = {}
        self._stack: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.totals.clear()
        self.counts.clear()
        self.hinges = 0
        self.lm_accepted = 0

    # -- install / uninstall ------------------------------------------------
    def install(self) -> None:
        for key, (mod, attr) in TIMED.items():
            self._patch(mod, attr, lambda f, k=key: self._timed(k, f))
        for attr, stages in STAGE_FNS.items():
            self._patch("tracksfm.network", attr,
                        lambda f, d=stages[-1]: self._stage(d, f))
        for attr, cat in PRIM_FNS.items():
            self._patch("tracksfm.autodiff", attr, lambda f, c=cat: self._prim(c, f))
        ad = importlib.import_module("tracksfm.autodiff")
        tensor = getattr(ad, "Tensor", None)
        if tensor is None:
            self.absent["tracksfm.autodiff.Tensor"] = "no such attribute"
            return
        orig_init = tensor.__init__
        counts = self.counts

        def counting_init(obj, *args, **kwargs):
            counts["tensors"] += 1
            orig_init(obj, *args, **kwargs)
        tensor.__init__ = counting_init
        self._patches.append((tensor, "__init__", orig_init))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)
        self._stack.clear()

    def _patch(self, modname: str, attr: str, make) -> None:
        target = f"{modname}.{attr}"
        try:
            module = importlib.import_module(modname)
        except ImportError as e:
            self.absent[target] = f"module missing: {e}"
            return
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent[target] = "no such attribute"
            return
        wrapper = make(orig)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "tracksfm" or name.startswith("tracksfm.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, binding, wrapper)
                    self._patches.append((mod, binding, orig))

    # -- wrappers -------------------------------------------------------------
    def _timed(self, key, fn):
        totals, counts, stack = self.totals, self.counts, self._stack
        context = CONTEXT.get(key)

        def wrapper(*args, **kwargs):
            if context:
                stack.append(context)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                totals[key] += time.perf_counter() - t0
                counts[key] += 1
                if context:
                    stack.pop()
            if key == "objective.loss":
                self.hinges += _field(result, "hinge_count", int)
            elif key == "geometry.bundle_adjust":
                self.lm_accepted += _field(result, "objectives", accepted_steps)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _stage(self, default, fn):
        totals, stack = self.totals, self._stack

        def wrapper(*args, **kwargs):
            stage = default
            for a in list(args) + list(kwargs.values()):
                prefix = getattr(a, "_prefix", None)
                if isinstance(prefix, str):
                    stage = stage_of(prefix, default)
                    break
            stack.append(stage)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[f"stage.{stage}.fwd"] += time.perf_counter() - t0
                stack.pop()
        wrapper.__wrapped__ = fn
        return wrapper

    def _prim(self, cat, fn):
        stack = self._stack
        vjp_key = f"vjp.{cat}"

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            vjp = out._vjp
            if vjp is not None and type(vjp) is not _TimedVjp:
                stage = stack[-1] if stack else "other"
                out._vjp = _TimedVjp(vjp, vjp_key, f"bwd.{stage}", self)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------------
    def missing(self, *keys: str) -> str | None:
        """The first absent target among TIMED keys or module.attr names."""
        for key in keys:
            target = "%s.%s" % TIMED[key] if key in TIMED else key
            if target in self.absent:
                return target
        return None
