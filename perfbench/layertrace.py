"""Per-layer tracing of binrisk, applied from outside the package.

``LayerTrace.install`` replaces every public function of each binrisk
module (and the ``build`` class methods of the two table classes) with a
wrapper that counts the call and records its span. The wrapper is bound
under every name that refers to the original function, including the
copies other modules made with ``from .x import y``, so calls between
layers are seen as well as calls from the benchmark.

Self time of a span is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans. Spans at depth 0 (a job)
and depth 1 (the calls a job makes into binrisk) are kept in memory and
written out when the pass ends; deeper spans, which run to millions per
pass, are folded into per-layer totals as they close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = (
    "incbeta",
    "binom",
    "estimators",
    "predictive",
    "risk",
    "dominance",
    "poisson",
    "cli",
)

_KERNEL = "incbeta.log_inc_beta_lower"
_BOUNDS = ("dominance.thm32_bound", "dominance.standardized_risk_difference")


class LayerTrace:
    """Counters and spans for one traced pass."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.active = True
        self.kernel_top = 0
        self.kernel_upper = 0
        self.bound_undefined = 0
        self.risk_terms = 0
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack: list[int] = []
        self._span_ids: list[int] = []
        self._kernel_depth = 0
        self._next_id = 0
        self._cache_before = None
        self._build_table = None
        self._undefined_error: type[BaseException] = ArithmeticError

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"binrisk.{name}") for name in LAYERS}
        package = importlib.import_module("binrisk")
        self._build_table = modules["estimators"]._build_table
        self._undefined_error = modules["dominance"].BoundUndefinedError
        self._cache_before = self._build_table.cache_info()

        replacements = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    replacements[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj)
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    setattr(module, name, replacements[id(obj)])
        for layer, cls in (
            ("estimators", modules["estimators"].EstimateTable),
            ("predictive", modules["predictive"].PredictiveTable),
        ):
            build = cls.build.__func__
            cls.build = classmethod(self._wrap(layer, f"{layer}.table_build", build))

    def _wrap(self, layer, name, fn):
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns
        hook = self._hook_for(name)
        is_kernel = name == _KERNEL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            if hook is not None:
                hook(args)
            record = len(stack) <= 1
            if record:
                self._open_span()
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except self._undefined_error:
                if name == "dominance.thm32_bound":
                    self.bound_undefined += 1
                raise
            finally:
                end = clock()
                duration = end - start
                self_ns[layer] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                if is_kernel:
                    self._kernel_depth -= 1
                if record:
                    self._close_span(name, start, end)

        return wrapper

    def _hook_for(self, name):
        if name == _KERNEL:
            return self._kernel_enter
        if name == "risk.point_risk":
            return self._point_risk_enter
        return None

    def _kernel_enter(self, args) -> None:
        # count and classify calls from outside the kernel only; the upper
        # branch re-enters the kernel on the complement
        if self._kernel_depth == 0:
            alpha, beta, x = args[:3]
            self.kernel_top += 1
            if 0.0 < x < 1.0 and x > alpha / (alpha + beta):
                self.kernel_upper += 1
        self._kernel_depth += 1

    def _point_risk_enter(self, args) -> None:
        self.risk_terms += args[0].setup.n + 1

    # -- spans --------------------------------------------------------

    def _open_span(self) -> None:
        self._next_id += 1
        self._span_ids.append(self._next_id)

    def _close_span(self, name: str, start: int, end: int) -> None:
        span_id = self._span_ids.pop()
        parent = self._span_ids[-1] if self._span_ids else 0
        self.spans.append((span_id, parent, name, start, end))

    def begin_job(self, kind: str) -> None:
        """Open the depth-0 span of one job; its self time is harness time."""
        self._job_kind = kind
        self._open_span()
        self._stack.append(0)
        self._job_start = time.perf_counter_ns()

    def end_job(self) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self._close_span(f"job.{self._job_kind}", self._job_start, end)

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                    "spans": self.spans,
                },
                handle,
            )

    # -- per-layer metrics ---------------------------------------------

    def metrics(self) -> dict[str, float]:
        calls = self.calls
        info = self._build_table.cache_info()
        hits = info.hits - self._cache_before.hits
        misses = info.misses - self._cache_before.misses
        out = {
            "incbeta.kernel_calls": self.kernel_top,
            "incbeta.kernel_upper_frac": _ratio(self.kernel_upper, self.kernel_top),
            "incbeta.eval_J_calls": calls["incbeta.eval_J"],
            "binom.pmf_calls": calls["binom.binom_pmf"],
            "binom.loss_calls": calls["binom.entropy_loss"],
            "risk.point_risk_calls": calls["risk.point_risk"],
            "risk.terms": self.risk_terms,
            "risk.kl_risk_calls": calls["risk.predictive_kl_risk"],
            "risk.connection_calls": calls["risk.connection_sum"],
            "estimators.table_builds": misses,
            "estimators.table_hit_ratio": _ratio(hits, hits + misses),
            "predictive.table_builds": calls["predictive.table_build"],
            "dominance.bound_calls": sum(calls[name] for name in _BOUNDS),
            "dominance.bound_undefined": self.bound_undefined,
            "poisson.report_calls": calls["poisson.limit_convergence_report"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
