"""Measurement machinery shared by the workloads: failure ledger, closed-loop
timing, repeated set-up, peak memory and the environment record."""

from __future__ import annotations

import contextlib
import io
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from spdalign.errors import SpdAlignError

from tracing import high_percentile


class CommandFailed(Exception):
    """An in-process ``spdalign`` command returned a non-zero exit code.

    The command maps every ``SpdAlignError`` to an exit code, so this is the
    typed failure of a CLI call.
    """

    def __init__(self, code: int, message: str):
        super().__init__(f"exit code {code}: {message.strip()}")
        self.code = code


def run_cli(argv: list[str]) -> str:
    """Run ``spdalign.cli.main`` in-process with captured output; return stdout."""
    from spdalign import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CommandFailed(code, err.getvalue())
    return out.getvalue()


@dataclass
class Failure:
    label: str
    typed: bool
    error_type: str
    message: str
    context: dict = field(default_factory=dict)


@dataclass
class Ledger:
    """Counts every attempted op and records each failure with its type.

    A typed ``SpdAlignError`` (or a CLI exit code, which stands for one) is a
    typed failure; any other exception is a failure too, but is kept apart,
    because a raw numpy error escaping the package is a bug in its own right.
    """

    attempted: int = 0
    failures: list[Failure] = field(default_factory=list)

    def attempt(self, label: str, fn):
        """Run one op; return (ok, result or exception)."""
        self.attempted += 1
        try:
            return True, fn()
        except (SpdAlignError, CommandFailed) as exc:
            self.failures.append(Failure(label, True, type(exc).__name__, str(exc)))
            return False, exc
        except Exception as exc:  # noqa: BLE001 - every other error is an untyped failure
            self.failures.append(Failure(label, False, type(exc).__name__, str(exc)))
            return False, exc

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_typed(self) -> int:
        return sum(1 for f in self.failures if f.typed)


@dataclass(frozen=True)
class Op:
    """One closed-loop call. ``units`` is the work it completes on success
    (training steps, objective calls, reports or seeds); ``steps`` is the
    denominator of the per-step call counts of the traced run."""

    label: str
    fn: object
    units: int = 1
    steps: int = 1


# The calibration loop's nominal CPU time. Calibrated times are CPU times
# scaled by REFERENCE_S / (the loop's CPU time measured next to them): they
# read as seconds on a machine where the loop takes exactly REFERENCE_S, about
# what it takes on a quiet 2-vCPU x86-64 VM.
REFERENCE_S = 0.04

# Bound here, before a tracer can wrap ``numpy.linalg.eigh``, so that the
# loop's calls stay out of the traced counts.
_eigh = np.linalg.eigh
_REF_RNG = np.random.default_rng(0)
_REF_SMALL = [np.cov(_REF_RNG.normal(size=(10, 30))) for _ in range(50)]
_REF_LARGE = _REF_RNG.normal(size=(384, 384))


def calibration_loop():
    """Fixed work outside the package, in the mix the workloads make: pure
    Python, small ``eigh`` calls and a BLAS matrix product."""
    sum(i * i for i in range(150000))
    for _ in range(10):
        for m in _REF_SMALL:
            w, v = _eigh(m)
            (v * w) @ v.T
    _REF_LARGE @ _REF_LARGE
    _REF_LARGE @ _REF_LARGE


def reference_seconds() -> float:
    """CPU seconds of one calibration loop.

    The host of a shared VM drifts in speed by 30 % or more over minutes, and
    CPU time drifts with it. The ratio of an op's time to a loop timed right
    before it drifts far less: over two minutes of 10 s windows on a 2-vCPU
    VM, 4 % for a ``run_adaptation_benchmark`` seed against 17 % for its CPU
    time, and 13 % against 24 % for a d = 4096 ``total_objective``.
    """
    start = time.process_time()
    calibration_loop()
    return time.process_time() - start


@dataclass
class Sample:
    round: int
    label: str
    seconds: float
    ok: bool
    units: int
    steps: int
    result: object
    ref_seconds: float

    @property
    def calibrated(self) -> float:
        return self.seconds * REFERENCE_S / self.ref_seconds


def measure(ops: list[Op], ledger: Ledger, after, seconds: float | None = None,
            rounds: int | None = None) -> tuple[list[Sample], int]:
    """Run rounds of ``ops`` back to back, one caller, no overlap.

    Runs whole rounds until ``seconds`` of wall time have passed (at least
    one round), or exactly ``rounds`` rounds. Each op is timed in CPU seconds
    of this process (``time.process_time``; the ops are single-threaded),
    right after a calibration loop. ``after(sample)`` runs untimed after each
    op, for output checks. Returns the samples and the round count.
    """
    samples = []
    done = 0
    start = time.perf_counter()
    while True:
        if rounds is not None and done >= rounds:
            break
        if rounds is None and done and time.perf_counter() - start >= seconds:
            break
        for op in ops:
            ref = reference_seconds()
            t0 = time.process_time()
            ok, result = ledger.attempt(op.label, op.fn)
            sample = Sample(done, op.label, time.process_time() - t0, ok, op.units, op.steps,
                            result, ref)
            after(sample)
            sample.result = None  # results can be large; checks keep what they need
            samples.append(sample)
        done += 1
    return samples, done


def round_rates(samples: list[Sample]) -> list[float]:
    """Units completed by successful ops per second of each round."""
    rounds = {}
    for s in samples:
        rounds.setdefault(s.round, []).append(s)
    return [sum(s.units for s in ops if s.ok) / sum(s.seconds for s in ops)
            for ops in rounds.values()]


def calibrated_seconds(samples: list[Sample], label: str | None = None) -> float:
    """Median calibrated time of the ops (called ``label``)."""
    return statistics.median(s.calibrated for s in samples if label is None or s.label == label)


def calibrated_rate(samples: list[Sample], label: str | None = None) -> float:
    """Units per calibrated second of a round made of the median op of each
    label (or of the ops called ``label``); failed ops add time, no units."""
    labels = [label] if label is not None else dict.fromkeys(s.label for s in samples)
    units = seconds = 0.0
    for name in labels:
        seconds += calibrated_seconds(samples, name)
        units += max((s.units for s in samples if s.label == name and s.ok), default=0)
    return units / seconds


def timing_summary(values: list[float]) -> str:
    """Median, plus the highest percentile with ten samples beyond it, with n."""
    text = f"median {statistics.median(values):.4f} s, n={len(values)}"
    high = high_percentile(values)
    if high is not None:
        text += f", p{high[0]:g} {high[1]:.4f} s"
    return text


IMPORT_PROBE = (
    "import time; t = time.process_time(); import spdalign.cli; "
    "print(time.process_time() - t)"
)


def import_seconds(root) -> float:
    """CPU seconds of ``import spdalign.cli`` (numpy and scipy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def timed_setup(prepare, root, repeats: int):
    """Run imports-in-a-fresh-interpreter plus ``prepare()`` ``repeats`` times.

    Each sample is in CPU seconds. Returns (all samples, state of the last
    ``prepare``).
    """
    samples = []
    for _ in range(repeats):
        state = None  # let the previous inputs go before building the next
        imports = import_seconds(root)
        start = time.process_time()
        state = prepare()
        samples.append(imports + time.process_time() - start)
    return samples, state


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS copy loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads[os.path.basename(path)] = int(getter())
                break
    return threads


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
