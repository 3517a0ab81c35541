"""The benchmark tracer's bindings all name attributes that exist.

``perfbench/tracing.py`` wraps functions at every module that binds them; a
binding whose import was dropped or renamed fails only when a traced run
installs it. This check catches that in the regular test suite.
"""

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
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
