"""The benchmark tracer's bindings all name attributes that exist.

``perfbench/tracing.py`` wraps functions at every module that binds them; a
binding whose import was dropped or renamed fails only when a traced run
installs it. This check catches that in the regular test suite, and a second
check keeps the ``metrics.load_cases`` span live: a binding that still
resolves but that the command no longer calls would read 0.
"""

import importlib.util
from pathlib import Path

from spdalign import cli, metrics

_REPO = Path(__file__).resolve().parents[1]
_TRACING = _REPO / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_binding_resolves():
    bindings = [(m, a) for m, a, *_ in tracing.SPAN_BINDINGS + tracing.COUNT_BINDINGS]
    missing = [
        f"{module}.{attr}" for module, attr in bindings
        if not callable(getattr(tracing._resolve(module), attr, None))
    ]
    assert not missing, f"tracer bindings that do not resolve: {missing}"


def test_metrics_command_loads_cases_through_the_traced_binding(monkeypatch, tmp_path):
    assert ("spdalign.cli", "load_cases") in [(m, a) for m, a, *_ in tracing.SPAN_BINDINGS]
    calls = []

    def counting(path):
        calls.append(path)
        return metrics.load_cases(path)

    monkeypatch.setattr(cli, "load_cases", counting)
    cases = str(_REPO / "data" / "micro_cases.txt")
    assert cli.main(["metrics", cases, "--kmax", "3", "--breakdown", "--out", str(tmp_path)]) == 0
    assert calls == [cases]
