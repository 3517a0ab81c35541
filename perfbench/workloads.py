"""The benchmark's workloads: inputs made from the workload seed, the ops a
single caller runs in a closed loop, and the checks on their outputs.

Each workload is prepared by ``prepare(seed, workdir)``; ``ops()`` gives one
round of calls, ``after(sample)`` inspects one result untimed, ``final_check()``
runs the untimed end-of-run checks, and ``problems()`` lists every failed
check. Only the generated inputs reach the package.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import math
import random
import statistics
from pathlib import Path

import numpy as np

from spdalign import align, bench, cli, io as containers, metrics, trainer
from spdalign.distances import DistanceKind
from spdalign.errors import SpdAlignError
from spdalign.runconfig import parse_run_config
from spdalign.scatter import FeatureBlock

from harness import Op, calibrated_rate, calibrated_seconds, run_cli

KINDS = [kind.value for kind in DistanceKind]

# Relative tolerance of the repository's isometry acceptance suite.
ISOMETRY_TOL = 1e-7

# Kinds whose projected scatter distance paper_scale checks against the
# ambient one in the traced run; AIRM is left out (17 s and about 1 GB at
# d = 4096).
AMBIENT_CHECK_KINDS = ("frobenius", "jbld")


# ---------------------------------------------------------------------------
# train_synth
# ---------------------------------------------------------------------------

# Each op trains for TRAIN_STEPS steps instead of the config's 400: every step
# has the same (10, 3) per-class shapes, so the work per step is unchanged,
# and a run holds many short trainings whose median is a steady figure.
TRAIN_STEPS = 20

# Over 65 seeds (0-59 and five large ones) the target top-1 after 20 steps was
# at least 0.86 / 0.72 / 0.17 for Frobenius / JBLD / AIRM (AIRM reaches 0.77
# on that seed after 400); chance is 0.05. The floors catch a broken trainer
# without tripping on slow-converging seeds.
TOP1_FLOOR = {"frobenius": 0.70, "jbld": 0.50, "airm": 0.10}


def override_config(text: str, values: dict[str, str]) -> str:
    """Replace (or append) ``key = value`` lines of a run configuration."""
    lines, seen = [], set()
    for line in text.splitlines():
        key = line.partition("=")[0].strip()
        if "=" in line and not line.lstrip().startswith("#") and key in values:
            lines.append(f"{key} = {values[key]}")
            seen.add(key)
        else:
            lines.append(line)
    lines += [f"{key} = {value}" for key, value in values.items() if key not in seen]
    return "\n".join(lines) + "\n"


class TrainSynth:
    """``spdalign train`` on the default config with the workload seed, once per kind per round."""

    name = "train_synth"

    def __init__(self, root: Path, steps: int = TRAIN_STEPS):
        self.root = root
        self.steps = steps

    def prepare(self, seed: int, workdir: Path):
        values = {"seed": str(seed), "steps": str(self.steps)}
        base = (self.root / "configs" / "synth_default.cfg").read_text(encoding="utf-8")
        workdir.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for kind in KINDS:
            text = override_config(base, {**values, "kind": kind})
            self.run = parse_run_config(text)
            self.configs[kind] = workdir / f"{kind}.cfg"
            self.configs[kind].write_text(text, encoding="utf-8")
            warm = workdir / f"warmup-{kind}.cfg"
            warm.write_text(override_config(text, {"steps": "2"}), encoding="utf-8")
            run_cli(["train", "--config", str(warm), "--out", str(workdir / "warmup")])
        self.workdir = workdir
        self.records = {kind: [] for kind in KINDS}
        return self

    def ops(self):
        steps = self.run.steps

        def train(kind):
            argv = ["train", "--config", str(self.configs[kind]),
                    "--out", str(self.workdir / kind)]
            return lambda: run_cli(argv)
        return [Op(kind, train(kind), units=steps, steps=steps) for kind in KINDS]

    def after(self, sample):
        if not sample.ok:
            return
        out = self.workdir / sample.label
        history = (out / "loss_history.csv").read_bytes()
        rows = history.decode("utf-8").splitlines()[1:]
        finite = all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:])
        report = (out / "eval_report.csv").read_text(encoding="utf-8").splitlines()
        top1 = float(report[1].split(",")[1])
        self.records[sample.label].append((hashlib.sha256(history).hexdigest(), finite, top1))

    def final_check(self, traced: bool = False):
        return []

    def problems(self):
        found = []
        for kind, records in self.records.items():
            if not records:
                found.append(f"{kind}: no training completed")
            if len({r[0] for r in records}) > 1:
                found.append(f"{kind}: loss_history.csv differs between identical trainings")
            if not all(r[1] for r in records):
                found.append(f"{kind}: non-finite loss in loss_history.csv")
            if any(r[2] < TOP1_FLOOR[kind] for r in records):
                found.append(f"{kind}: target top-1 below the floor {TOP1_FLOOR[kind]}")
        return found

    def inputs(self):
        synth = self.run.synth
        shape = (min(synth.source_per_class, trainer.SOURCE_BATCH_CAP),
                 min(synth.target_train_per_class, trainer.TARGET_BATCH_CAP))
        full = shape == (trainer.SOURCE_BATCH_CAP, trainer.TARGET_BATCH_CAP)
        return {
            "input_dim": synth.input_dim, "d": self.run.feature_dim, "C": synth.class_count,
            "columns_per_class": list(shape), "full_shape_share": 1.0 if full else 0.0,
            "steps": self.run.steps,
        }

    def named_metrics(self, samples):
        return [(f"train_steps_per_s.{kind}", calibrated_rate(samples, kind), "steps/s")
                for kind in KINDS]

    def digests(self):
        return {kind: sorted({r[0] for r in records}) for kind, records in self.records.items()}


# ---------------------------------------------------------------------------
# shift_seed
# ---------------------------------------------------------------------------

ALIGNED_OVER_SOURCE_ONLY = 0.10
ALIGNED_OVER_SOURCE_PLUS_TARGET = 0.02

# Each op runs the benchmark seed with SHIFT_STEPS steps per training instead
# of 2000: the split between the aligned training and the three baselines is
# the same at every step, and a run holds many short seeds whose median
# is a steady figure. After 25 steps the aligned model already beats both
# baselines by 0.70 or more on 65 seeds.
SHIFT_STEPS = 25


class ShiftSeed:
    """One seed of ``run_adaptation_benchmark`` with its defaults but the step count."""

    name = "shift_seed"

    def __init__(self, steps: int = SHIFT_STEPS):
        defaults = inspect.signature(trainer.run_adaptation_benchmark).parameters
        self.defaults = {k: p.default for k, p in defaults.items() if k != "seeds"}
        self.train_steps = steps

    def prepare(self, seed: int, workdir: Path):
        self.seed = seed
        trainer.run_adaptation_benchmark([seed], steps=2)
        self.records = []
        return self

    def ops(self):
        # One aligned training plus three single-stream baselines.
        return [Op("seed", lambda: trainer.run_adaptation_benchmark(
            [self.seed], steps=self.train_steps), units=1, steps=4 * self.train_steps)]

    def after(self, sample):
        if sample.ok:
            self.records.append(sample.result.means())

    def final_check(self, traced: bool = False):
        return []

    def problems(self):
        if not self.records:
            return ["no benchmark seed completed"]
        found = []
        if any(r != self.records[0] for r in self.records):
            found.append("benchmark accuracies differ between identical seeds")
        means = self.records[0]
        if means["aligned_jbld"] - means["source_only"] < ALIGNED_OVER_SOURCE_ONLY:
            found.append(f"aligned beats source-only by less than {ALIGNED_OVER_SOURCE_ONLY}")
        if means["aligned_jbld"] - means["source_plus_target"] < ALIGNED_OVER_SOURCE_PLUS_TARGET:
            found.append(
                f"aligned beats source+target by less than {ALIGNED_OVER_SOURCE_PLUS_TARGET}")
        return found

    def inputs(self):
        d = self.defaults
        return {
            "input_dim": d["input_dim"], "d": d["feature_dim"], "C": d["class_count"],
            # the benchmark draws 3 target training columns per class
            "columns_per_class": [min(d["source_per_class"], trainer.SOURCE_BATCH_CAP),
                                  min(3, trainer.TARGET_BATCH_CAP)],
            "full_shape_share": 1.0, "trainings": 4, "steps_per_training": self.train_steps,
        }

    def named_metrics(self, samples):
        aligned = self.records[0]["aligned_jbld"] if self.records else 0.0
        return [("shift_seed_s", calibrated_seconds(samples), "s"),
                ("shift_aligned_top1", aligned, "fraction")]

    def digests(self):
        return {"accuracies": self.records[0] if self.records else None}


# ---------------------------------------------------------------------------
# paper_scale
# ---------------------------------------------------------------------------

class PaperScale:
    """``total_objective`` on encoder-like features at d = 4096, C = 100, ragged classes."""

    name = "paper_scale"

    def __init__(self, d: int = 4096, classes: int = 100):
        self.d = d
        self.classes = classes

    def prepare(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, self.d, self.classes])
        # Every seed deals the same ragged column counts (1..10 source, 0..3
        # target, cycling) to the classes in its own order, so seeds differ in
        # which class is short, not in how much work a call is.
        caps = (trainer.SOURCE_BATCH_CAP, trainer.TARGET_BATCH_CAP)
        index = np.arange(self.classes)
        order = rng.permutation(self.classes)
        self.n_source = (1 + index % caps[0])[order]
        self.n_target = ((index // caps[0]) % (caps[1] + 1))[order]
        labels_s = np.repeat(np.arange(self.classes), self.n_source)
        labels_t = np.repeat(np.arange(self.classes), self.n_target)
        # tanh of Gaussians, like encoder outputs; deliberately not unit-normalised.
        self.batch_s = FeatureBlock(np.tanh(rng.normal(size=(self.d, labels_s.size))), labels_s)
        self.batch_t = FeatureBlock(np.tanh(rng.normal(size=(self.d, labels_t.size))), labels_t)
        self.model = trainer.init_two_stream(1, self.d, self.classes, seed)
        for attr in ("classifier_source", "classifier_target"):
            weights = rng.normal(scale=0.01, size=(self.d, self.classes))
            setattr(self.model, attr, align.Classifier(weights, np.zeros(self.classes)))
        self.configs = {
            kind: align.AlignConfig(sigma1=0.5, sigma2=1.0, eta=1.0,
                                    kind=DistanceKind(kind), class_count=self.classes)
            for kind in KINDS
        }
        for kind in KINDS:
            try:
                align.total_objective(self.model, self.batch_s, self.batch_t, self.configs[kind])
            except SpdAlignError:
                pass
        self.values = {}
        self.nonfinite = 0
        return self

    def ops(self):
        def call(kind):
            return lambda: align.total_objective(
                self.model, self.batch_s, self.batch_t, self.configs[kind])
        return [Op(kind, call(kind)) for kind in KINDS]

    def after(self, sample):
        if not sample.ok:
            return
        result = sample.result
        grads = result.grads
        arrays = (grads.weights_source, grads.bias_source, grads.weights_target,
                  grads.bias_target, grads.features_source, grads.features_target)
        if not (math.isfinite(result.value) and all(np.isfinite(a).all() for a in arrays)):
            self.nonfinite += 1
        self.values.setdefault(sample.label, set()).add(result.value)

    def _pair(self, c):
        return (self.batch_s.columns[:, self.batch_s.labels == c],
                self.batch_t.columns[:, self.batch_t.labels == c])

    def failing_classes(self, kind: str) -> list[int]:
        """Classes whose own alignment term raises, in the order the loss visits them."""
        single = dataclasses.replace(self.configs[kind], class_count=1)
        failing = []
        for c in range(self.classes):
            if self.n_target[c] == 0:
                continue
            try:
                align.alignment_loss([self._pair(c)], single)
            except SpdAlignError:
                failing.append(c)
        return failing

    def annotate(self, failures):
        """Attach the first failing class (the one the objective stopped at)."""
        located = {}
        for failure in failures:
            if failure.typed and failure.label in KINDS:
                if failure.label not in located:
                    located[failure.label] = self.failing_classes(failure.label)
                classes = located[failure.label]
                failure.context = {"class": classes[0] if classes else None,
                                   "failing_classes": len(classes)}

    def check_class(self) -> int:
        """The class with the most columns among those with target columns."""
        sizes = np.where(self.n_target > 0, self.n_source + self.n_target, -1)
        return int(np.argmax(sizes))

    def final_check(self, traced: bool = False):
        """Projected scatter distance equals the ambient one on one class.

        Frobenius always; every kind of ``AMBIENT_CHECK_KINDS`` in the traced
        run (JBLD takes 8 s and 0.7 GB at d = 4096).
        """
        found = []
        phi_s, phi_t = self._pair(self.check_class())
        eps = self.configs["jbld"].eps
        for kind in AMBIENT_CHECK_KINDS if traced else ("frobenius",):
            ambient = bench.ambient_distance_eval(phi_s, phi_t, DistanceKind(kind), eps)
            projected = bench.projected_distance_eval(phi_s, phi_t, DistanceKind(kind), eps)
            gap = abs(ambient - projected) / max(abs(ambient), abs(projected))
            if not gap < ISOMETRY_TOL:
                found.append(f"{kind}: projected distance off the ambient one by {gap:.2e}")
        return found

    def problems(self):
        found = []
        if self.nonfinite:
            found.append(f"{self.nonfinite} successful calls returned non-finite values")
        for kind, values in self.values.items():
            if len(values) > 1:
                found.append(f"{kind}: objective value differs between identical calls")
        if not self.values:
            found.append("no objective call succeeded")
        return found

    def inputs(self):
        both = int(np.sum(self.n_target > 0))
        full = int(np.sum((self.n_source == trainer.SOURCE_BATCH_CAP)
                          & (self.n_target == trainer.TARGET_BATCH_CAP)))
        return {
            "d": self.d, "C": self.classes,
            "source_columns": int(self.n_source.sum()), "target_columns": int(self.n_target.sum()),
            "classes_with_target": both, "full_shape_share": full / self.classes,
            "check_class": self.check_class(),
        }

    def named_metrics(self, samples):
        return [(f"paper_objective_per_s.{kind}", calibrated_rate(samples, kind), "calls/s")
                for kind in KINDS]

    def digests(self):
        return {kind: sorted(values) for kind, values in self.values.items()}


# ---------------------------------------------------------------------------
# eval_report
# ---------------------------------------------------------------------------

FACTOR_TAGS = ("blr", "clt", "lgt", "ocl", "scl")
K_MAX = 5


def make_cases(rng: random.Random, count: int, labels: int = 100):
    """Factor-tagged ranked cases as plain (predicted, truth, factors) tuples."""
    cases = []
    for _ in range(count):
        truth = rng.sample(range(labels), rng.randint(1, 3))
        pool = [t for t in truth if rng.random() < 0.6]
        predicted = pool + [p for p in rng.sample(range(labels), 8) if p not in pool]
        predicted = predicted[:K_MAX]
        rng.shuffle(predicted)
        factors = sorted(t for t in FACTOR_TAGS if rng.random() < 0.3)
        cases.append((tuple(predicted), tuple(truth), tuple(factors)))
    return cases


def recount_tables(cases, k_max: int = K_MAX):
    """Brute-force ranked-retrieval tables, independent of ``spdalign.metrics``.

    Returns ({(measure, k, n): value}, [(tag, count, top_1, avg_top_kk)]).
    """
    def rate(subset, k, n):
        return sum(1 for p, t, _ in subset if set(t[:n]) & set(p[:k])) / len(subset)

    def avg(subset):
        return sum(rate(subset, k, k) for k in range(1, k_max + 1)) / k_max

    table = {}
    for k in range(1, k_max + 1):
        table[("top_k", str(k), "")] = rate(cases, k, 1)
    for k in range(1, k_max + 1):
        for n in range(1, k_max + 1):
            table[("top_k_n", str(k), str(n))] = rate(cases, k, n)
    table[("avg_top_kk", "", "")] = avg(cases)

    groups = [("all", cases)]
    tags = sorted({tag for _, _, f in cases for tag in f})
    groups += [(tag, [c for c in cases if tag in c[2]]) for tag in tags]
    pairs = sorted({(a, b) for _, _, f in cases for a in f for b in f if a < b})
    groups += [(f"{a}+{b}", [c for c in cases if a in c[2] and b in c[2]]) for a, b in pairs]
    rows = [(tag, len(sub), rate(sub, 1, 1), avg(sub)) for tag, sub in groups]
    return table, rows


class EvalReport:
    """``spdalign eval`` and ``spdalign metrics --breakdown`` on files the benchmark writes."""

    name = "eval_report"

    def __init__(self, cases: int = 5000, columns_per_class: int = 250):
        self.case_count = cases
        self.columns_per_class = columns_per_class

    def prepare(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 0xE7A1])
        spec = trainer.SynthSpec(class_count=20, input_dim=16, source_per_class=1,
                                 target_test_per_class=self.columns_per_class, seed=seed)
        _, _, self.block = trainer.synth_domain_pair(spec)
        self.model = trainer.init_two_stream(16, 32, 20, seed)
        self.model.classifier_target = align.Classifier(
            rng.normal(size=(32, 20)), rng.normal(size=20))
        self.expected_eval = cli._eval_report_csv(trainer.evaluate(self.model, self.block))
        self.cases = make_cases(random.Random(seed), self.case_count)
        self.case_file = workdir / "cases.txt"
        lines = (metrics.format_case(metrics.RankedCase(*case)) for case in self.cases)
        self.case_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.model_file = workdir / "model.bin"
        self.feature_file = workdir / "features.bin"
        self.out = workdir / "report"
        self.records = []
        self._report()
        return self

    def _report(self):
        containers.write_model(self.model_file, self.model)
        containers.write_feature_container(self.feature_file, self.block, 20)
        run_cli(["eval", str(self.model_file), str(self.feature_file), "--out", str(self.out)])
        run_cli(["metrics", str(self.case_file), "--kmax", str(K_MAX), "--breakdown",
                 "--out", str(self.out)])

    def ops(self):
        return [Op("report", self._report)]

    def after(self, sample):
        if sample.ok:
            self.records.append(tuple(
                (self.out / name).read_text(encoding="utf-8")
                for name in ("eval_report.csv", "metrics.csv", "breakdown.csv")))

    def final_check(self, traced: bool = False):
        return []

    def problems(self):
        if not self.records:
            return ["no report completed"]
        found = []
        if any(r != self.records[0] for r in self.records):
            found.append("report tables differ between identical reports")
        eval_text, metrics_text, breakdown_text = self.records[0]
        if eval_text != self.expected_eval:
            found.append("eval report after the io round trip differs from in-memory evaluate")
        table, rows = recount_tables(self.cases)
        got = {}
        for line in metrics_text.splitlines()[1:]:
            measure, k, n, value = line.split(",")
            got[(measure, k, n)] = float(value)
        if got.keys() != table.keys() or any(abs(got[key] - table[key]) > 1e-6 for key in table):
            found.append("metrics.csv differs from the brute-force recount")
        parsed = [line.split(",") for line in breakdown_text.splitlines()[1:]]
        if len(parsed) != len(rows) or any(
            p[0] != r[0] or int(p[1]) != r[1] or abs(float(p[2]) - r[2]) > 1e-6
            or abs(float(p[3]) - r[3]) > 1e-6
            for p, r in zip(parsed, rows)
        ):
            found.append("breakdown.csv differs from the brute-force recount")
        return found

    def inputs(self):
        return {"cases": self.case_count, "factor_tags": list(FACTOR_TAGS),
                "feature_columns": self.block.count, "input_dim": self.block.dim, "C": 20,
                "d": 32}

    def named_metrics(self, samples):
        return [("eval_report_s", calibrated_seconds(samples), "s"),
                ("metrics.cases", self.case_count, "count")]

    def digests(self):
        return {"tables_sha256": sorted({hashlib.sha256("".join(r).encode()).hexdigest()
                                         for r in self.records})}


def build(name: str, root: Path):
    """The workload called ``name``."""
    if name == "train_synth":
        return TrainSynth(root)
    return {"shift_seed": ShiftSeed, "paper_scale": PaperScale, "eval_report": EvalReport}[name]()


WORKLOADS = ["train_synth", "shift_seed", "paper_scale", "eval_report"]
