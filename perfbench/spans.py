"""Per-layer tracing from the benchmark's side of the API.

``Tracer.install`` wraps the public functions of each tsvflab layer
module, plus ``CouplingEvolution.__init__`` and ``CouplingEvolution.apply``,
and patches every place a tsvflab module holds them by name (module
attributes and module-level dicts such as the CLI's metric table).  Each
wrapper appends a span ``[name, parent, request, start_ns, end_ns, extra]``
to an in-memory list; ``flush`` writes the list out once, after the run.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("scenario", "pointer", "qcore", "weakmeas", "limits", "interferometer", "cli")
NAME, PARENT, REQUEST, START, END, EXTRA = range(6)

def _generator_dim(bound, result):
    return result.dim


def _document_ok(bound, result):
    return result.ok


def _trace_work(bound, result):
    """(arm x g evaluations, amplitudes of the conditional environment)."""
    args = bound.arguments
    net = args["net"]
    if "g_values" in args:
        points = len(args["g_values"])
    elif "g" in args:
        points = 1
    else:  # classify_presence, which the CLI calls with arms and schedule
        points = len(list(args["arms"])) * len(args["g_schedule"])
    return points, net.n_modes * args["model"].dim * 2 ** (len(net.arm_labels) - 1)


# span name -> function of (bound arguments, result) giving the span's extra
_EXTRAS = {
    "pointer.translation_generator": _generator_dim,
    "scenario.parse": _document_ok,
    "scenario.validate_semantics": _document_ok,
    "interferometer.weak_trace": _trace_work,
    "interferometer.weak_trace_sweep": _trace_work,
    "interferometer.classify_presence": _trace_work,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1  # index of the scenario being run
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        extra = _EXTRAS.get(name)
        signature = inspect.signature(fn) if extra else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.request, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[EXTRA] = extra(bound, result)
            return result

        return wrapper

    def _set(self, container, key, value):
        if isinstance(container, dict):
            self._undo.append((container, key, container[key]))
            container[key] = value
        else:
            self._undo.append((container, key, getattr(container, key)))
            setattr(container, key, value)

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"tsvflab.{layer}")
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "tsvflab" or name.startswith("tsvflab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._set(module, attr, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers and wrappers[id(item)][0] is item:
                            self._set(value, key, wrappers[id(item)][1])
        evolution = importlib.import_module("tsvflab.qcore").CouplingEvolution
        for method in ("__init__", "apply"):
            original = vars(evolution)[method]
            self._set(evolution, method, self._wrap(f"qcore.CouplingEvolution.{method}", original))

    def uninstall(self):
        while self._undo:
            container, key, value = self._undo.pop()
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)

    def flush(self, path):
        """Write every span, one tab-separated line each, in a single pass."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tparent\trequest\tstart_ns\tend_ns\textra\n")
            fh.writelines("\t".join(map(str, span)) + "\n" for span in self.spans)


def self_times(spans) -> list[int]:
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_metrics(spans, scenarios: int) -> tuple[dict, dict]:
    """The per-layer metrics (values per scenario, except the peak and the
    ratio), and the self time of every layer per scenario in ms.

    A layer that a workload never calls reads 0 there, and the ratio
    ``qcore.applies_per_setup`` reads 0 when no setup ran.  The counts
    ``scenario.docs`` and ``scenario.rejected`` only echo the workload's
    mix; they are printed for information, not declared in BENCHMARK.json.
    """
    own = self_times(spans)
    ms = defaultdict(float)
    calls = defaultdict(int)
    layer_ms = {layer: 0.0 for layer in LAYERS}
    generator_bytes = trace_points = env_peak = rejected = docs = 0
    for span, self_ns in zip(spans, own):
        name, extra = span[NAME], span[EXTRA]
        ms[name] += self_ns / 1e6
        calls[name] += 1
        layer_ms[name.split(".")[0]] += self_ns / 1e6
        if extra is None:  # no extra recorded, or the call raised
            continue
        if name == "pointer.translation_generator":
            generator_bytes += 16 * extra * extra
        elif name.startswith("interferometer."):
            trace_points += extra[0]
            env_peak = max(env_peak, extra[1])
        elif name == "scenario.parse":
            rejected += not extra
        elif name == "scenario.validate_semantics":
            docs += extra
            rejected += not extra

    def total(prefix_or_names, table):
        if isinstance(prefix_or_names, str):
            return sum(v for k, v in table.items() if k.startswith(prefix_or_names))
        return sum(table[k] for k in prefix_or_names)

    metric_fns = [f"limits.{m}" for m in
                  ("continuity_metric", "derail_metric", "first_order_residual", "overlap_deficit")]
    setups = calls["qcore.CouplingEvolution.__init__"]
    applies = calls["qcore.CouplingEvolution.apply"]
    per = 1.0 / max(scenarios, 1)
    metrics = {
        "scenario.parse_validate_ms": total(["scenario.parse", "scenario.validate_semantics"], ms) * per,
        "scenario.docs": docs * per,
        "scenario.rejected": rejected * per,
        "pointer.generator_ms": ms["pointer.translation_generator"] * per,
        "pointer.generator_calls": calls["pointer.translation_generator"] * per,
        "pointer.generator_bytes": generator_bytes * per,
        "pointer.moments_ms": total(["pointer.moments", "pointer.variance"], ms) * per,
        "pointer.moments_calls": total(["pointer.moments", "pointer.variance"], calls) * per,
        "qcore.coupling_setup_ms": ms["qcore.CouplingEvolution.__init__"] * per,
        "qcore.coupling_setups": setups * per,
        "qcore.apply_ms": ms["qcore.CouplingEvolution.apply"] * per,
        "qcore.applies": applies * per,
        "qcore.applies_per_setup": applies / setups if setups else 0.0,
        "weakmeas.estimate_ms": total("weakmeas.", ms) * per,
        "weakmeas.estimates": calls["weakmeas.estimate_weak_value"] * per,
        "limits.metric_ms": total(metric_fns, ms) * per,
        "limits.metric_calls": total(metric_fns, calls) * per,
        "limits.fit_ms": total(["limits.fit_order", "limits.sweep_metric", "limits.classify_order"], ms) * per,
        "limits.compare_ms": ms["limits.compare_limits"] * per,
        "interferometer.trace_ms": total("interferometer.", ms) * per,
        "interferometer.trace_points": trace_points * per,
        "interferometer.env_amplitudes_peak": float(env_peak),
        "cli.self_ms": total("cli.", ms) * per,
    }
    return metrics, {layer: v * per for layer, v in layer_ms.items()}
