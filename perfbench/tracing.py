"""Span tracer that times calls into spdalign from outside the package.

The package imports its collaborators with ``from .x import y``, so each
function is wrapped at every binding a caller looks up (for example both
``spdalign.trainer.total_objective`` and ``spdalign.align.total_objective``),
not only at its home module. Wrappers exist only inside ``Tracer.installed()``;
untraced runs execute the package untouched.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span or -1. Spans stay in memory and are written out once, when the
run ends. Self time is a span's duration minus the time its direct children
cover; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict

from spdalign.errors import SpdAlignError


def _kind_suffix(args) -> str:
    return "." + args[0].value


def _bench_kind_suffix(args) -> str:
    return "." + args[2].value


# (module, attribute, span name, optional name suffix from the call arguments)
SPAN_BINDINGS = [
    ("spdalign.cli", "main", "cli.main", None),
    ("spdalign.cli", "load_run_config", "runconfig.load_run_config", None),
    ("spdalign.cli", "synth_domain_pair", "trainer.synth_domain_pair", None),
    ("spdalign.trainer", "synth_domain_pair", "trainer.synth_domain_pair", None),
    ("spdalign.cli", "train", "trainer.train", None),
    ("spdalign.trainer", "train", "trainer.train", None),
    ("spdalign.trainer", "train_single_stream", "trainer.train_single_stream", None),
    ("spdalign.trainer", "encoder_forward", "trainer.encoder_forward", None),
    ("spdalign.trainer", "encoder_backward", "trainer.encoder_backward", None),
    ("spdalign.cli", "evaluate", "trainer.evaluate", None),
    ("spdalign.trainer", "evaluate", "trainer.evaluate", None),
    ("spdalign.trainer", "total_objective", "align.total_objective", None),
    ("spdalign.align", "total_objective", "align.total_objective", None),
    ("spdalign.align", "softmax_ce", "align.softmax_ce", None),
    ("spdalign.align", "group_columns_by_class", "align.group_columns_by_class", None),
    ("spdalign.align", "alignment_loss", "align.alignment_loss", None),
    ("spdalign.align", "_feature_grad", "scatter.feature_grad", None),
    ("spdalign.align", "isometric_project", "nystrom.isometric_project", None),
    ("spdalign.bench", "isometric_project", "nystrom.isometric_project", None),
    ("spdalign.align", "backproject_grad", "nystrom.backproject_grad", None),
    ("spdalign.align", "dist_sq", "distances.dist_sq", _kind_suffix),
    ("spdalign.bench", "dist_sq", "distances.dist_sq", _kind_suffix),
    ("spdalign.align", "grad_dist_sq", "distances.grad_dist_sq", _kind_suffix),
    ("spdalign.cli", "load_cases", "metrics.load_cases", None),
    ("spdalign.cli", "top_k", "metrics.top_k", None),
    ("spdalign.cli", "top_k_n", "metrics.top_k_n", None),
    ("spdalign.metrics", "top_k_n", "metrics.top_k_n", None),
    ("spdalign.cli", "avg_top_kk", "metrics.avg_top_kk", None),
    ("spdalign.cli", "factor_breakdown", "metrics.factor_breakdown", None),
    ("spdalign.io", "write_model", "io.write_model", None),
    ("spdalign.io", "read_model", "io.read_model", None),
    ("spdalign.io", "write_feature_container", "io.write_feature_container", None),
    ("spdalign.io", "read_feature_container", "io.read_feature_container", None),
    ("spdalign.bench", "ambient_distance_eval", "bench.ambient_distance_eval", _bench_kind_suffix),
    ("spdalign.bench", "projected_distance_eval", "bench.projected_distance_eval", _bench_kind_suffix),
]

# (module, attribute, counter name): call counts only, no span.
COUNT_BINDINGS = [
    ("spdalign.spd", "symmetrize", "spd.symmetrize_calls"),
    ("spdalign.distances", "symmetrize", "spd.symmetrize_calls"),
    ("spdalign.align", "symmetrize", "spd.symmetrize_calls"),
    ("spdalign.nystrom", "symmetrize", "spd.symmetrize_calls"),
    ("spdalign.scatter", "symmetrize", "spd.symmetrize_calls"),
    ("spdalign.bench", "symmetrize", "spd.symmetrize_calls"),
    ("spdalign.align", "regularize", "spd.regularize_calls"),
    ("spdalign.bench", "regularize", "spd.regularize_calls"),
    ("spdalign.distances", "spd_fn", "spd.spd_fn_calls"),
    ("spdalign.spd", "eig_sym", "spd.eig_sym_calls"),
    ("spdalign.distances", "logdet", "spd.logdet_calls"),
    ("spdalign.spd.SymMatrix", "__post_init__", "spd.symmatrix_constructions"),
    ("numpy.linalg", "eigh", "linalg.eigh_calls"),
    ("numpy.linalg", "cholesky", "linalg.cholesky_calls"),
    ("numpy.linalg", "svd", "linalg.svd_calls"),
    ("spdalign.distances", "solve_triangular", "linalg.solve_triangular_calls"),
]


def _resolve(path: str):
    """Import ``a.b`` as a module, or ``a.b.Cls`` as an attribute of module ``a.b``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _nbytes(obj) -> int:
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if hasattr(obj, "projector"):
        return int(obj.projector.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(item) for item in obj)
    return 0


def _file_size(args) -> int:
    return os.path.getsize(args[0])


# Post-call hooks that add counters from the arguments and result of a span.
def _nystrom_bytes(tracer, args, result):
    tracer.counts["nystrom.bytes_computed"] += _nbytes(args) + _nbytes(result)


def _io_written(tracer, args, result):
    tracer.counts["io.bytes_written"] += _file_size(args)


def _io_read(tracer, args, result):
    tracer.counts["io.bytes_read"] += _file_size(args)


def _cases_loaded(tracer, args, result):
    tracer.counts["metrics.cases"] += len(result)


# Counters the hooks add, with their units.
HOOK_COUNTERS = {
    "nystrom.bytes_computed": "B",
    "io.bytes_written": "B",
    "io.bytes_read": "B",
    "metrics.cases": "count",
}

_HOOKS = {
    "nystrom.isometric_project": _nystrom_bytes,
    "nystrom.backproject_grad": _nystrom_bytes,
    "io.write_model": _io_written,
    "io.write_feature_container": _io_written,
    "io.read_model": _io_read,
    "io.read_feature_container": _io_read,
    "metrics.load_cases": _cases_loaded,
}


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it.

    Returns (percentile, value) or None when fewer than 20 samples exist.
    """
    n = len(samples)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10.0:
            ordered = sorted(samples)
            return pct, ordered[min(n - 1, int(round(pct / 100.0 * (n - 1))))]
    return None


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.failed: Counter = Counter()
        self._stack: list[int] = []

    def _span_wrapper(self, name, fn, suffix):
        spans, stack, failed, clock = self.spans, self._stack, self.failed, time.perf_counter
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            span_name = name + suffix(args) if suffix else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except SpdAlignError:
                failed[span_name] += 1
                raise
            finally:
                spans[index] = (span_name, start, clock(), parent)
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original bindings on exit."""
        saved = []
        try:
            for module, attr, name, suffix in SPAN_BINDINGS:
                owner = _resolve(module)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._span_wrapper(name, original, suffix))
            for module, attr, name in COUNT_BINDINGS:
                owner = _resolve(module)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._count_wrapper(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_table(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, median and high percentile."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        durations = defaultdict(list)
        self_s = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_s[name] += end - start - child[index]
        table = {}
        for name, samples in sorted(durations.items()):
            row = {
                "calls": len(samples),
                "total_s": sum(samples),
                "self_s": self_s[name],
                "median_s": statistics.median(samples),
                "failed": self.failed[name],
            }
            high = high_percentile(samples)
            if high is not None:
                row["high_pct"], row["high_s"] = high
            table[name] = row
        return table

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")
