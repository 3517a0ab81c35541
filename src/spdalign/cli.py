"""Command-line interface.

Subcommands: gradcheck, invariance, bench, train, eval, metrics. Exit codes:
0 success, 1 validation failure (bad arguments, config, file formats, missing or
unreadable files), 2 numerical failure (failed checks, singular matrices,
divergence).

All CSV output uses fixed 6-decimal formatting so byte-identical reruns are a
testable property. ``loss_history.csv`` numbers the objective parts that
``train`` returns for each step from 1, and writes their total before them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import io as containers
from .bench import run_bench
from .checks import run_gradient_checks, run_invariance_checks
from .distances import DistanceKind
from .errors import FormatError, NumericalError, SingularityError, SpdAlignError
from .metrics import factor_masks, hit_counts, load_cases, sweep_ranks

# perfbench/tracing.py wraps these bindings by name; the metrics command no longer calls them.
from .metrics import avg_top_kk, factor_breakdown, top_k, top_k_n  # noqa: F401
from .runconfig import load_run_config
from .trainer import evaluate, init_two_stream, synth_domain_pair, train

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

_NUMERICAL_ERRORS = (SingularityError, NumericalError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to the validation exit code."""

    def error(self, message):
        raise _UsageError(message)


def _seed(text: str) -> int:
    """argparse type of ``--seed``: numpy takes only nonnegative seeds."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"needs a nonnegative integer, got {text!r}")
    return int(text)


class _Once(argparse.Action):
    """Store the option's value; a second occurrence is a usage error, not an override."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} may be given only once")
        setattr(namespace, self.dest, values)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _print_report(command: str, gap_label: str, report) -> int:
    """One line per component, then the verdict; the exit code follows it."""
    for comp in report.components:
        status = "PASS" if comp.passed else "FAIL"
        print(f"{comp.component:22s} {gap_label}={comp.max_gap:.3e} tol={comp.tolerance:.0e} {status}")
    if report.passed:
        print(f"{command}: PASS")
        return EXIT_OK
    failed = ", ".join(c.component for c in report.components if not c.passed)
    print(f"{command}: FAIL ({failed})")
    return EXIT_NUMERICAL


def cmd_gradcheck(args) -> int:
    report = run_gradient_checks(kinds=args.kind or list(DistanceKind), trials=args.trials, seed=args.seed)
    return _print_report("gradcheck", "max_rel_err", report)


def cmd_invariance(args) -> int:
    report = run_invariance_checks(trials=args.trials, seed=args.seed, triples=args.triples)
    return _print_report("invariance", "max_dev", report)


def cmd_bench(args) -> int:
    kind = args.kind or DistanceKind.JBLD
    result = run_bench(d=args.d, n=args.n, nstar=args.nstar, reps=args.reps, kind=kind, seed=args.seed)
    print(f"kind={kind.value} d={args.d} n={args.n} nstar={args.nstar} reps={args.reps}")
    print(f"naive     mean={result.naive_mean:.6f}s std={result.naive_std:.6f}s value={result.naive_value:.6f}")
    print(f"projected mean={result.projected_mean:.6f}s std={result.projected_std:.6f}s value={result.projected_value:.6f}")
    print(f"speedup   {result.speedup:.2f}x")
    return EXIT_OK


def _loss_history_csv(history) -> str:
    """One row per step, numbered from 1: the objective's total, then its five parts."""
    lines = ["step,loss_total,loss_ce_s,loss_ce_t,loss_prox,loss_scatter,loss_mean"]
    for step, parts in enumerate(history, 1):
        lines.append(
            f"{step},{_fmt(parts.total)},{_fmt(parts.ce_source)},{_fmt(parts.ce_target)},"
            f"{_fmt(parts.proximity)},{_fmt(parts.scatter)},{_fmt(parts.mean)}"
        )
    return "\n".join(lines) + "\n"


def _eval_report_csv(report) -> str:
    lines = ["scope,top1,count"]
    total = sum(count for _, _, count in report.per_class)
    lines.append(f"overall,{_fmt(report.overall)},{total}")
    for class_id, accuracy, count in report.per_class:
        lines.append(f"{class_id},{_fmt(accuracy)},{count}")
    return "\n".join(lines) + "\n"


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    source, target_train, target_test = synth_domain_pair(run.synth)
    model = dataclasses.replace(
        init_two_stream(
            run.synth.input_dim, run.feature_dim, run.synth.class_count,
            run.synth.seed, run.nonlinear,
        ),
        feature_cap=run.tau,
    )
    model, history = train(
        model, (source, target_train), run.align,
        steps=run.steps, lr=run.learning_rate, seed=run.synth.seed,
    )
    report = evaluate(model, target_test)
    containers.write_model(out / "model.bin", model)
    (out / "loss_history.csv").write_text(_loss_history_csv(history), encoding="utf-8")
    (out / "eval_report.csv").write_text(_eval_report_csv(report), encoding="utf-8")
    print(f"final loss {_fmt(history[-1].total)} after {run.steps} steps")
    print(f"target top-1 {_fmt(report.overall)}")
    print(f"artifacts in {out}")
    return EXIT_OK


def _write_tables(out: str | None, label: str, tables: dict[str, str]) -> int:
    """Write each named table into directory ``out`` and print ``<label> in <out>``.

    Without ``out`` (``None`` or empty) the tables go to stdout, in order.
    """
    if out:
        directory = Path(out)
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in tables.items():
            (directory / name).write_text(text, encoding="utf-8")
        print(f"{label} in {directory}")
    else:
        sys.stdout.write("".join(tables.values()))
    return EXIT_OK


def cmd_eval(args) -> int:
    model = containers.read_model(args.model)
    block, class_count = containers.read_feature_container(args.features)
    if class_count != model.classifier_target.class_count:
        raise FormatError(
            f"container declares {class_count} classes, model has "
            f"{model.classifier_target.class_count}"
        )
    report = evaluate(model, block)
    return _write_tables(args.out, "report", {"eval_report.csv": _eval_report_csv(report)})


def _metrics_csv(ranks, k_max: int) -> str:
    rates = (hit_counts(ranks, k_max) / len(ranks)).tolist()  # rates[k - 1][n - 1]
    lines = ["measure,k,n,value"]
    for k in range(1, k_max + 1):
        lines.append(f"top_k,{k},,{_fmt(rates[k - 1][0])}")
    for k in range(1, k_max + 1):
        for n in range(1, k_max + 1):
            lines.append(f"top_k_n,{k},{n},{_fmt(rates[k - 1][n - 1])}")
    lines.append(f"avg_top_kk,,,{_fmt(sum(rates[k][k] for k in range(k_max)) / k_max)}")
    return "\n".join(lines) + "\n"


def _breakdown_csv(cases, ranks, k_max: int) -> str:
    # Column 0 counts a row's cases; column k its top-k-k hits, ranks[:, k - 1] <= k.
    hits = np.hstack([np.ones((len(ranks), 1)), ranks[:, :k_max] <= np.arange(1, k_max + 1)])
    lines = ["factor,count,top_1,avg_top_kk"]
    for tag, mask in factor_masks(cases, include_pairs=True):
        count, *diagonal = (mask @ hits).tolist()
        rates = [hit / count for hit in diagonal]
        lines.append(f"{tag},{int(count)},{_fmt(rates[0])},{_fmt(sum(rates) / k_max)}")
    return "\n".join(lines) + "\n"


def cmd_metrics(args) -> int:
    cases = load_cases(args.cases)
    ranks = sweep_ranks(cases, args.kmax)
    tables = {"metrics.csv": _metrics_csv(ranks, args.kmax)}
    if args.breakdown:
        tables["breakdown.csv"] = _breakdown_csv(cases, ranks, args.kmax)
    return _write_tables(args.out, "tables", tables)


def build_parser() -> _Parser:
    parser = _Parser(prog="spdalign", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=_seed, default=0)

    # DistanceKind.parse raises a ParameterError, which main reports with the validation exit code.
    p = sub.add_parser("gradcheck", help="analytic gradients vs finite differences")
    add_seed(p)
    p.add_argument("--kind", type=DistanceKind.parse, action="append",
                   help="frobenius|jbld|airm (repeatable; default all)")
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("invariance", help="rotation/affine/inversion/triangle checks")
    add_seed(p)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--triples", type=int, default=1000)
    p.set_defaults(fn=cmd_invariance)

    p = sub.add_parser("bench", help="naive ambient vs projected timing")
    add_seed(p)
    p.add_argument("--kind", type=DistanceKind.parse, action=_Once,
                   help="frobenius|jbld|airm (one kind; default jbld)")
    p.add_argument("--d", type=int, default=4096)
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--nstar", type=int, default=3)
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("train", help="train on synthetic shifted data from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model dump on a feature container")
    p.add_argument("model", help="model dump path")
    p.add_argument("features", help="feature container path")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("metrics", help="ranked-retrieval measures from a case file")
    p.add_argument("cases", help="case file path")
    p.add_argument("--kmax", type=int, default=5)
    p.add_argument("--breakdown", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_metrics)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser that ``main`` uses, built on its first call; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.fn(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (_UsageError, SpdAlignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
