"""Per-layer tracing from outside the package.

The tracer swaps the module-level names that each ``pnpfusion`` caller looks
up at call time (``pnpfusion.pairdeblur.denoise_image_fixed``,
``pnpfusion.patches.patch_index_map``, ...) for timing wrappers, and restores
them on exit. Nothing inside ``src/`` is edited. Every wrapped call is a span:
its duration, call count and self time (duration minus the time covered by
spans it caused) are accumulated in memory and summarised per solve.

``run_admm`` is wrapped in both pipelines so that the problem's
``x_update``/``h_apply``/``v_update`` callbacks can be timed as child spans of
the ADMM loop.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span) — the names the pipeline code resolves at call
# time. One span may sit behind several names (one per caller).
PATCH_POINTS = (
    ("pnpfusion.patches", "patch_index_map", "patches.index_map"),
    ("pnpfusion.denoiser", "extract_patches", "patches.extract"),
    ("pnpfusion.pairdeblur", "extract_patches", "patches.extract"),
    ("pnpfusion.sharpen", "extract_patches", "patches.extract"),
    ("pnpfusion.denoiser", "assemble_patches", "patches.assemble"),
    ("pnpfusion.denoiser", "remove_means", "patches.means"),
    ("pnpfusion.denoiser", "restore_means", "patches.means"),
    ("pnpfusion.pairdeblur", "remove_means", "patches.means"),
    ("pnpfusion.sharpen", "remove_means", "patches.means"),
    ("pnpfusion.pairdeblur", "denoise_image_fixed", "denoiser.apply"),
    ("pnpfusion.sharpen", "denoise_image_fixed", "denoiser.apply"),
    ("pnpfusion.denoiser", "component_filters", "denoiser.filters"),
    ("pnpfusion.denoiser", "wiener_filter", "denoiser.wiener"),
    ("pnpfusion.pairdeblur", "train_em", "gmm.train"),
    ("pnpfusion.sharpen", "train_em", "gmm.train"),
    ("pnpfusion.gmm", "m_step", "gmm.m_step"),
    ("pnpfusion.gmm", "eigt", "gmm.eigt"),
    ("pnpfusion.pairdeblur", "solve_x_update_pair", "fftops.x_update"),
    ("pnpfusion.sharpen", "solve_x_update_hs", "fftops.x_update"),
    ("pnpfusion.pairdeblur", "apply_blur", "fftops.blur"),
    ("pnpfusion.sharpen", "blur_rows", "fftops.blur"),
    ("pnpfusion.admm", "residuals", "admm.residuals"),
    ("pnpfusion.sharpen", "pca_basis", "sharpen.pca"),
    ("pnpfusion.sharpen", "train_scene_denoiser", "sharpen.train"),
    ("pnpfusion.pairdeblur", "train_pair_denoiser", "pairdeblur.train"),
)

# run_admm is patched separately: its wrapper also wraps the problem object.
ADMM_CALLERS = ("pnpfusion.pairdeblur", "pnpfusion.sharpen")

N_BLOCKS = 3  # v-blocks reported; the pair problem has one, SALSA three


class Tracer:
    """In-memory span accumulator for one traced solve."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.values = {}
        self._children = []  # child-time accumulators of the open spans

    @contextmanager
    def span(self, name):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            child = self._children.pop()
            if self._children:
                self._children[-1] += duration
            self.total[name] += duration
            self.self_time[name] += duration - child
            self.calls[name] += 1

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_train_em(self, fn):
        def traced(*args, **kwargs):
            with self.span("gmm.train"):
                result = fn(*args, **kwargs)
            loglik_trace = result[2]
            self.values["gmm.em_iters"] = len(loglik_trace)
            self.values["gmm.loglik_final"] = loglik_trace[-1]
            return result

        return traced

    def wrap_run_admm(self, fn):
        def traced(problem, *args, **kwargs):
            with self.span("admm.loop"):
                x, report = fn(_TracedProblem(problem, self), *args, **kwargs)
            self.values["admm.iters"] = report.iterations_run
            return x, report

        return traced

    @contextmanager
    def installed(self):
        """Swap every patch point for its traced wrapper; always restore."""
        saved = []
        try:
            for module_name, attr, name in PATCH_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                if name == "gmm.train":
                    wrapper = self.wrap_train_em(original)
                else:
                    wrapper = self.wrap(name, original)
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
            for module_name in ADMM_CALLERS:
                module = importlib.import_module(module_name)
                original = module.run_admm
                saved.append((module, "run_admm", original))
                module.run_admm = self.wrap_run_admm(original)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the traced solve, keyed by metric name."""
        t, c, s = self.total, self.calls, self.self_time
        iters = self.values.get("admm.iters", 0)
        out = {
            "patches.index_map_calls": c["patches.index_map"],
            "patches.index_map_s": t["patches.index_map"],
            "patches.extract_s": t["patches.extract"],
            "patches.assemble_s": t["patches.assemble"],
            "patches.means_s": t["patches.means"],
            "denoiser.apply_calls": c["denoiser.apply"],
            "denoiser.apply_s": t["denoiser.apply"],
            "denoiser.apply_self_s": s["denoiser.apply"],
            "denoiser.filters_calls": c["denoiser.filters"],
            "denoiser.filters_s": t["denoiser.filters"],
            "denoiser.wiener_calls": c["denoiser.wiener"],
            "gmm.train_s": t["gmm.train"],
            "gmm.em_iters": self.values.get("gmm.em_iters", 0),
            "gmm.m_step_s": t["gmm.m_step"],
            # derived: everything in EM that is not the M-step
            "gmm.e_side_s": t["gmm.train"] - t["gmm.m_step"],
            "gmm.eigt_calls": c["gmm.eigt"],
            "gmm.loglik_final": self.values.get("gmm.loglik_final", 0.0),
            "fftops.x_update_calls": c["fftops.x_update"],
            "fftops.x_update_s": t["fftops.x_update"],
            "fftops.blur_calls": c["fftops.blur"],
            "fftops.blur_s": t["fftops.blur"],
            "admm.iters": iters,
            "admm.loop_s": t["admm.loop"],
            "admm.self_s": s["admm.loop"],
            "admm.x_update_s": t["admm.x_update"],
            "admm.h_apply_s": t["admm.h_apply"],
            "admm.residuals_s": t["admm.residuals"],
            "admm.ms_per_iter": 1e3 * t["admm.loop"] / iters if iters else 0.0,
            "sharpen.pca_s": t["sharpen.pca"],
            "sharpen.train_s": t["sharpen.train"],
            "pairdeblur.train_s": t["pairdeblur.train"],
        }
        for j in range(N_BLOCKS):
            out[f"admm.v_update_s.{j}"] = t[f"admm.v_update.{j}"]
        return out


class _TracedProblem:
    """ADMM problem whose callbacks are child spans of the loop span."""

    def __init__(self, problem, tracer: Tracer):
        self._problem = problem
        self._tracer = tracer

    def x_update(self, vs, us):
        with self._tracer.span("admm.x_update"):
            return self._problem.x_update(vs, us)

    def h_apply(self, x):
        with self._tracer.span("admm.h_apply"):
            return self._problem.h_apply(x)

    def v_update(self, j, target):
        with self._tracer.span(f"admm.v_update.{j}"):
            return self._problem.v_update(j, target)

    def objective(self, x):
        return self._problem.objective(x)
