"""Layer spans recorded from the benchmark's side of permsep's public API.

The wrappers rebind each public function in every permsep module that holds
it, so calls made from inside permsep (``verify`` binds ``apply_criterion``
and ``trace_norm`` at import, ``load_state`` reaches ``density_matrix``
through module globals) are recorded too.  Spans stay in memory until the
pass ends.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# layer -> (module, public function) pairs, named after the ROADMAP layers
LAYERS = {
    "classify": [
        ("permsep.criteria", "enumerate_classes"),
        ("permsep.criteria", "canonicalize"),
        ("permsep.criteria", "class_of"),
    ],
    "validate": [
        ("permsep.states", "load_state"),
        ("permsep.states", "state_from_dict"),
        ("permsep.states", "density_matrix"),
    ],
    "permute": [("permsep.states", "apply_criterion")],
    "norm": [("permsep.states", "trace_norm")],
    "report": [("permsep.cli", "main")],
}
# counted, not timed: the classification scan calls it thousands of times
COUNTERS = [("permsep.perms", "dependent")]


class Tracer:
    def __init__(self):
        # span: [layer, function, start, end, parent index or -1, extra]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, layer: str, fn, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            record = [layer, fn.__name__, 0.0, 0.0, parent, None]
            self.spans.append(record)
            self._stack.append(index)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                record[5] = extra(args[0] if args else next(iter(kwargs.values())), result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def _norm_extra(matrix, result):
    matrix = np.asarray(matrix)
    return [matrix.shape[0], bool(np.isrealobj(matrix))]


def _permute_extra(matrix, result):
    # bytes read from the input plus bytes written to the image
    return [np.asarray(matrix).nbytes + result.nbytes]


EXTRAS = {"norm": _norm_extra, "permute": _permute_extra}


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "permsep" and not name.startswith("permsep."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer function and counter in all loaded permsep modules."""
    for layer, targets in LAYERS.items():
        for module_name, attr in targets:
            original = getattr(sys.modules[module_name], attr)
            _rebind(original, tracer.span(layer, original, EXTRAS.get(layer)))
    for module_name, attr in COUNTERS:
        original = getattr(sys.modules[module_name], attr)
        _rebind(original, tracer.counter(attr, original))


def svd_flops(n: int, real: bool) -> float:
    """Flops of a singular-values-only SVD of an n x n matrix: 8n^3/3 for
    Householder bidiagonalisation (Golub & Van Loan), a complex flop
    counted as four real ones.  Computed from n and dtype, not measured."""
    return 8 * n**3 / 3 * (1 if real else 4)


def summarize(spans: list[list], counts: dict[str, int], results: int) -> dict:
    """Per-layer metrics of one traced pass.

    A layer's self time is the time inside its spans not covered by child
    spans; its calls are entries from outside the layer, so load_state ->
    state_from_dict -> density_matrix is one validate call.
    """
    child_time = [0.0] * len(spans)
    for layer, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    norm_real = 0
    flops = 0.0
    permute_bytes = 0
    for i, (layer, _, start, end, parent, extra) in enumerate(spans):
        out[f"{layer}.self_s"] += end - start - child_time[i]
        if parent < 0 or spans[parent][0] != layer:
            out[f"{layer}.calls"] += 1
        if layer == "norm":
            n, real = extra
            norm_real += real
            flops += svd_flops(n, real)
        elif layer == "permute":
            permute_bytes += extra[0]
    norm_calls = out["norm.calls"]
    out["norm.ms_per_call"] = 1e3 * out["norm.self_s"] / norm_calls if norm_calls else 0.0
    out["norm.real_calls"] = norm_real
    out["norm.calls_per_result"] = norm_calls / results if results else 0.0
    out["norm.flops_computed"] = flops
    out["permute.bytes_computed"] = permute_bytes
    out["classify.dependent_calls"] = counts.get("dependent", 0)
    return out
