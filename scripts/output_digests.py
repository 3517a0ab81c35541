"""Print one line per output that a change meant to keep results unchanged must keep.

Usage::

    PYTHONPATH=CHECKOUT/src python scripts/output_digests.py [--steps 400] > digests.txt

Run it once against each of two checkouts and ``diff`` the two files; any
differing line names the output that changed. The lines are:

- ``train/<kind>/tau=<tau>/<encoder>/<file> <sha256>`` for ``model.bin``,
  ``loss_history.csv`` and ``eval_report.csv`` of ``spdalign train`` on
  ``configs/synth_default.cfg`` with ``--steps`` steps, for every distance
  kind, ``tau`` of ``none`` and ``3.5`` and encoder ``tanh`` and ``linear``
  (12 runs);
- ``eval/<output> <sha256>`` for the stdout of ``spdalign eval`` and the
  ``eval_report.csv`` of ``spdalign eval --out``, on the ``model.bin`` of the
  ``jbld/tau=none/tanh`` run and a feature container of that run's target-test
  block that the script writes;
- ``roundtrip/<encoder>/model.bin <sha256>`` for the bytes that
  ``write_model`` writes of ``read_model`` of the ``model.bin`` of the
  ``jbld/tau=none/<encoder>`` run, for encoder ``tanh`` and ``linear``;
- ``metrics/<output> <sha256>`` for the stdout of ``spdalign metrics
  data/micro_cases.txt --kmax 3 --breakdown`` and the ``metrics.csv`` and
  ``breakdown.csv`` of the same command with ``--out``;
- ``metrics/<file>/stdout <sha256>`` for the stdout of ``spdalign metrics
  --kmax 5 --breakdown`` on three case files that the script generates from
  a fixed seed: ``written``, whose every line is in the form ``format_case``
  writes; ``reordered``, the same cases with the segments of a few lines in
  reverse order; and ``wide``, the same cases with every id of a few lines
  moved up by 2**64, outside int64 (each file keeps the equalities between
  ids that the measures count, so all three lines agree);
- ``bench/<kind>/<field> <text>`` for the first line of ``spdalign bench
  --d 256 --n 20 --nstar 3 --kind <kind>`` and the ``value=`` field of its
  ``naive`` and ``projected`` lines, for every distance kind; the timings are
  left out;
- ``adapter/<output> <sha256>`` for the float64 bytes of ``nystrom_map(x, x)``
  and of the source, target and projector outputs of ``isometric_project``,
  on one fixed draw of columns;
- ``synth/d=<d>/<split> <sha256>`` for the float64 columns followed by the
  int64 labels of each block that ``synth_domain_pair`` returns (``source``,
  ``target_train``, ``target_test``) on edge specs of one and two input
  dimensions without noise;
- ``objective/<kind>/value <sha256>`` and ``objective/<kind>/grads
  <sha256>`` for the float64 bytes of the value and of the six gradient
  arrays of ``total_objective`` on one fixed ragged draw, for every distance
  kind; one class of the draw has no target column and one no source
  column, so the lines cover the gradients of classes the alignment skips;
- ``gradcheck/<component> <repr of max_gap>`` from
  ``run_gradient_checks(all kinds, trials=4, seed=5)``;
- ``invariance/<component> <repr of max_gap>`` from
  ``run_invariance_checks(trials=20, seed=3, triples=200)``;
- ``shift/<method> <repr of mean>`` from
  ``run_adaptation_benchmark([3], steps=25).means()``.

Every command runs in-process through ``spdalign.cli.main`` in a temporary
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from spdalign.align import AlignConfig, Classifier, total_objective
from spdalign.checks import run_gradient_checks, run_invariance_checks
from spdalign.cli import main as spdalign_main
from spdalign.distances import DistanceKind
from spdalign.io import read_model, write_feature_container, write_model
from spdalign.nystrom import isometric_project, nystrom_map
from spdalign.runconfig import parse_run_config
from spdalign.scatter import FeatureBlock
from spdalign.trainer import (
    DomainShift, SynthSpec, init_two_stream, run_adaptation_benchmark, synth_domain_pair,
)

_ROOT = Path(__file__).resolve().parents[1]
_DEFAULT_CONFIG = _ROOT / "configs" / "synth_default.cfg"
_ARTIFACTS = ("model.bin", "loss_history.csv", "eval_report.csv")


def run_config(overrides: dict[str, str]) -> str:
    """The default config with ``overrides`` replacing (or adding) their keys."""
    kept = [line for line in _DEFAULT_CONFIG.read_text(encoding="utf-8").splitlines()
            if line.split("=")[0].strip() not in overrides]
    return "\n".join(kept + [f"{key} = {value}" for key, value in overrides.items()]) + "\n"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_stdout(argv: list[str]) -> str:
    """Stdout of ``spdalign argv``; exits the script unless the command exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = spdalign_main(argv)
    if code != 0:
        sys.exit(f"error: spdalign {' '.join(argv)} exited {code}")
    return out.getvalue()


def training_lines(steps: int, workdir: Path) -> list[str]:
    lines = []
    for kind, tau, encoder in itertools.product(DistanceKind, ("none", "3.5"), ("tanh", "linear")):
        name = f"{kind.value}/tau={tau}/{encoder}"
        run_dir = workdir / name.replace("/", "_")
        config = workdir / f"{run_dir.name}.cfg"
        config.write_text(run_config(
            {"kind": kind.value, "tau": tau, "encoder": encoder, "steps": str(steps)}
        ), encoding="utf-8")
        cli_stdout(["train", "--config", str(config), "--out", str(run_dir)])
        for artifact in _ARTIFACTS:
            lines.append(f"train/{name}/{artifact} {_sha256((run_dir / artifact).read_bytes())}")
    return lines


def eval_lines(workdir: Path) -> list[str]:
    """``spdalign eval`` on the jbld/tau=none/tanh model and its run's target-test block."""
    model = str(workdir / "jbld_tau=none_tanh" / "model.bin")
    synth = parse_run_config(_DEFAULT_CONFIG.read_text(encoding="utf-8")).synth
    features = workdir / "target_test.bin"
    write_feature_container(features, synth_domain_pair(synth)[2], synth.class_count)
    stdout = cli_stdout(["eval", model, str(features)])
    cli_stdout(["eval", model, str(features), "--out", str(workdir / "eval")])
    return [f"eval/stdout {_sha256(stdout.encode())}",
            f"eval/eval_report.csv {_sha256((workdir / 'eval' / 'eval_report.csv').read_bytes())}"]


def roundtrip_lines(workdir: Path) -> list[str]:
    """``write_model(read_model(...))`` of the jbld/tau=none model of each encoder kind."""
    lines = []
    for encoder in ("tanh", "linear"):
        path = workdir / f"roundtrip_{encoder}.bin"
        write_model(path, read_model(workdir / f"jbld_tau=none_{encoder}" / "model.bin"))
        lines.append(f"roundtrip/{encoder}/model.bin {_sha256(path.read_bytes())}")
    return lines


def metrics_lines(workdir: Path) -> list[str]:
    argv = ["metrics", str(_ROOT / "data" / "micro_cases.txt"), "--kmax", "3", "--breakdown"]
    lines = [f"metrics/stdout {_sha256(cli_stdout(argv).encode())}"]
    cli_stdout(argv + ["--out", str(workdir / "metrics")])
    for table in ("metrics.csv", "breakdown.csv"):
        lines.append(f"metrics/{table} {_sha256((workdir / 'metrics' / table).read_bytes())}")
    return lines


def generated_case_lines(seed: int = 20, count: int = 2000) -> list[str]:
    """Case lines in the written form: 5-8 predictions, 1-4 truth labels, 0-3 sorted tags."""
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        predicted = rng.sample(range(-20, 80), rng.randint(5, 8))
        truth = rng.sample(range(-20, 80), rng.randint(1, 4))
        tags = sorted(rng.sample(["blr", "clt", "lgt", "ocl", "scl"], rng.randint(0, 3)))
        line = f"pred:{','.join(map(str, predicted))}|truth:{','.join(map(str, truth))}"
        lines.append(line + (f"|factors:{','.join(tags)}" if tags else ""))
    return lines


def _beyond_int64(line: str) -> str:
    """``line`` with every id moved up by 2**64, outside int64; equal ids stay equal."""
    segments = line.split("|")
    for i in (0, 1):
        name, _, ids = segments[i].partition(":")
        segments[i] = f"{name}:" + ",".join(str(int(v) + 2**64) for v in ids.split(","))
    return "|".join(segments)


def generated_metrics_lines(workdir: Path) -> list[str]:
    """``spdalign metrics --kmax 5 --breakdown`` on the generated file, then with a few lines
    reordered, then with the ids of a few lines outside int64."""
    written = generated_case_lines()
    reordered = [
        "|".join(reversed(line.split("|"))) if i % 400 == 7 else line
        for i, line in enumerate(written)
    ]
    wide = [_beyond_int64(line) if i % 400 == 11 else line for i, line in enumerate(written)]
    lines = []
    for name, case_lines in (("written", written), ("reordered", reordered), ("wide", wide)):
        path = workdir / f"{name}_cases.txt"
        path.write_text("\n".join(case_lines) + "\n", encoding="utf-8")
        stdout = cli_stdout(["metrics", str(path), "--kmax", "5", "--breakdown"])
        lines.append(f"metrics/{name}/stdout {_sha256(stdout.encode())}")
    return lines


def bench_lines() -> list[str]:
    lines = []
    for kind in DistanceKind:
        first, naive, projected, _ = cli_stdout(
            ["bench", "--d", "256", "--n", "20", "--nstar", "3", "--kind", kind.value]
        ).splitlines()
        lines.append(f"bench/{kind.value}/args {first}")
        for path, line in (("naive", naive), ("projected", projected)):
            lines.append(f"bench/{kind.value}/{path} {line.split()[-1]}")
    return lines


def adapter_lines(seed: int = 7) -> list[str]:
    """The one-class reduction adapters on 64-dim columns: 9 source and 4 target."""
    rng = np.random.default_rng(seed)
    phi_s, phi_t = rng.normal(size=(64, 9)), rng.normal(size=(64, 4))
    reduced_s, reduced_t, projection = isometric_project(phi_s, phi_t)
    outputs = {"nystrom_map": nystrom_map(phi_s, phi_s), "isometric_project/source": reduced_s,
               "isometric_project/target": reduced_t,
               "isometric_project/projector": projection.projector}
    return [f"adapter/{name} {_sha256(np.ascontiguousarray(value).tobytes())}"
            for name, value in outputs.items()]


def synth_lines() -> list[str]:
    """``synth_domain_pair`` on specs of one and two input dimensions, without noise."""
    lines = []
    for dim in (1, 2):
        spec = SynthSpec(class_count=5, input_dim=dim, source_per_class=4, target_train_per_class=1,
                         target_test_per_class=3, seed=4,
                         shift=DomainShift(rotation_deg=30.0, translation=1.0, scale=1.5))
        for split, block in zip(("source", "target_train", "target_test"), synth_domain_pair(spec)):
            data = np.ascontiguousarray(block.columns).tobytes() + block.labels.tobytes()
            lines.append(f"synth/d={dim}/{split} {_sha256(data)}")
    return lines


def objective_lines(seed: int = 9) -> list[str]:
    """``total_objective`` at d = 12 on 6 classes of 1..5 source and 0..3 target columns."""
    rng = np.random.default_rng(seed)
    dim, classes = 12, 6
    n_source, n_target = [3, 1, 4, 2, 5, 0], [2, 3, 0, 1, 3, 2]
    batch_s, batch_t = (
        FeatureBlock(np.tanh(rng.normal(size=(dim, labels.size))), labels)
        for labels in (rng.permutation(np.repeat(np.arange(classes), counts))
                       for counts in (n_source, n_target))
    )
    model = dataclasses.replace(
        init_two_stream(1, dim, classes, seed),
        **{side: Classifier(rng.normal(scale=0.1, size=(dim, classes)), rng.normal(size=classes))
           for side in ("classifier_source", "classifier_target")},
    )
    lines = []
    for kind in DistanceKind:
        config = AlignConfig(sigma1=0.5, sigma2=1.0, eta=1.0, kind=kind, class_count=classes)
        result = total_objective(model, batch_s, batch_t, config)
        grads = result.grads
        arrays = (grads.weights_source, grads.bias_source, grads.weights_target, grads.bias_target,
                  grads.features_source, grads.features_target)
        lines.append(f"objective/{kind.value}/value {_sha256(np.float64(result.value).tobytes())}")
        data = b"".join(np.ascontiguousarray(array).tobytes() for array in arrays)
        lines.append(f"objective/{kind.value}/grads {_sha256(data)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=400, help="training steps per run (default 400)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        lines = (training_lines(args.steps, workdir) + eval_lines(workdir) + roundtrip_lines(workdir)
                 + metrics_lines(workdir) + generated_metrics_lines(workdir))
    lines += bench_lines() + adapter_lines() + synth_lines() + objective_lines()
    for suite, report in (
        ("gradcheck", run_gradient_checks(list(DistanceKind), trials=4, seed=5)),
        ("invariance", run_invariance_checks(trials=20, seed=3, triples=200)),
    ):
        lines.extend(f"{suite}/{c.component} {c.max_gap!r}" for c in report.components)
    means = run_adaptation_benchmark([3], steps=25).means()
    lines.extend(f"shift/{method} {value!r}" for method, value in means.items())
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
