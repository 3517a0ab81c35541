"""The benchmark tracer's bindings all name attributes that exist.

``perfbench/tracing.py`` wraps functions at every module that binds them; a
binding whose import was dropped or renamed fails only when a traced run
installs it. This check catches that in the regular test suite. Two more
keep a span or count live: a binding that still resolves but that the code
no longer calls would read 0. The last check runs the other way: an import
kept only for the tracer (marked ``# noqa: F401``) must be one it binds.
"""

import ast
import importlib.util
from pathlib import Path

from spdalign import cli, distances, metrics
from spdalign.align import AlignConfig
from spdalign.distances import DistanceKind
from spdalign.trainer import SynthSpec, init_two_stream, synth_domain_pair, train

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


def test_jbld_training_solves_through_the_traced_binding(monkeypatch):
    assert ("spdalign.distances", "solve_triangular") in [(m, a) for m, a, _ in tracing.COUNT_BINDINGS]
    calls = []
    original = distances.solve_triangular

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(distances, "solve_triangular", counting)
    source, target, _ = synth_domain_pair(SynthSpec(class_count=3, input_dim=3, source_per_class=4))
    config = AlignConfig(sigma1=0.5, sigma2=1.0, eta=1.0, kind=DistanceKind.JBLD, class_count=3)
    train(init_two_stream(3, 4, 3, seed=0), (source, target), config, steps=2, lr=0.1, seed=0)
    assert calls


def test_every_tracer_only_import_is_bound():
    bound = {(m, a) for m, a, *_ in tracing.SPAN_BINDINGS + tracing.COUNT_BINDINGS}
    marked, unbound = [], []
    for path in sorted((_REPO / "src" / "spdalign").glob("*.py")):
        module = f"spdalign.{path.stem}"
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if not (isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])):
                continue
            marked.append(f"{path.name}:{node.lineno}")
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            unbound += [f"{module}.{name}" for name in names if (module, name) not in bound]
    assert marked, "no tracer-only import found; has the marker changed?"
    assert not unbound, f"imports kept for the tracer that it does not bind: {unbound}"
