"""Ranked-retrieval measures for saliency-ordered multi-label ground truth.

A case pairs a classifier's predictions (descending score) with the labels a
scene actually contains (descending saliency). ``top_k`` is the usual single-
truth measure; ``top_k_n`` counts a case as correct when any of the first k
predictions appears among the first n truth labels; ``avg_top_kk`` averages
top-k-k over k = 1..k_max as a single area-under-curve style score.

Every measure is a count over one integer table, ``hit_ranks(cases, depth)``:
entry [i, n-1] is the 1-based position of case i's first prediction that is
among its first n truth labels, or depth + 1 if none is in its first depth
predictions. Then, over N cases,

    top_k_n(k, n) = count(ranks[:, n-1] <= k) / N
    top_k(k)      = top_k_n(k, 1)
    avg_top_kk    = (top_k_n(1, 1) + ... + top_k_n(k_max, k_max)) / k_max

summed in that k order. A factor breakdown indexes the same table with one
boolean row mask per tag and tag pair (``factor_masks``).

Case file format, one case per line::

    pred:5,2,9|truth:2,7|factors:blr,ocl

:func:`load_cases` reads it by these rules:

* ``pred`` and ``truth`` appear exactly once each, ``factors`` at most once,
  and no other segment is allowed;
* ids are ASCII decimal integers with an optional leading ``-`` (no spaces,
  ``+`` or ``_``), and neither list repeats an id;
* the truth list is not empty;
* factor tags are comma-separated, without whitespace or ``+`` (a breakdown
  names the row of a tag pair ``a+b``);
* blank lines are skipped.

A line that breaks a rule raises ``FormatError`` naming its 1-based line
number (``spdalign metrics`` exits 1). The rules are checked once, at the
reader: :func:`parse_case_line` builds each ``RankedCase`` from values it has
checked itself, without the conversion and checks that the public
constructor applies to API input. It reads a line in two branches. A line in
the form that :func:`format_case` writes (``pred``, ``truth``, then optional
``factors``) takes one pattern match, which accepts only what the rules
accept, and a duplicate check per id list. Every other line, including one
with a repeated id or an id past ``int()``'s digit limit, goes through the
segment-by-segment rules, which accept segments in any order and are the one
source of the reader's messages. Both branches give equal cases.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import FormatError, ParameterError, check_at_least, whole_numbers


# A factor tag that format_case writes back unchanged and factor_masks can pair:
# no separator, no pair mark ("+"), no whitespace.
_TAG = re.compile(r"[^\s,|+]+")


def _check_case(
    predicted: tuple[int, ...], truth: tuple[int, ...], factors: frozenset[str]
) -> None:
    """Raise ``ParameterError`` unless the fields make a case; both entries call this."""
    if not truth:
        raise ParameterError("a case needs at least one ground-truth label", name="truth")
    if len(set(predicted)) != len(predicted):
        raise ParameterError(f"duplicate predicted ids in {predicted}", name="predicted")
    if len(set(truth)) != len(truth):
        raise ParameterError(f"duplicate truth ids in {truth}", name="truth")
    for tag in factors:
        if not _TAG.fullmatch(tag):
            raise ParameterError(
                f"factor tag {tag!r} is empty or holds ',', '|', '+' or whitespace",
                name="factors",
            )


@dataclass(frozen=True, slots=True)
class RankedCase:
    """One evaluated item: predictions by score, truth labels by saliency.

    The constructor converts and checks API input: ids must be whole numbers
    (they may be negative). :func:`parse_case_line` checks file input itself
    and builds the case without a second pass.
    """

    predicted: tuple[int, ...]
    truth: tuple[int, ...]
    factors: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "predicted", whole_numbers("predicted", self.predicted))
        object.__setattr__(self, "truth", whole_numbers("truth", self.truth))
        object.__setattr__(self, "factors", frozenset(str(f) for f in self.factors))
        _check_case(self.predicted, self.truth, self.factors)


def _check_window(cases: Sequence[RankedCase], first: int, last: int) -> None:
    """Raise unless every k in first..last fits the shortest prediction list.

    The message names the first k that does not fit.
    """
    check_at_least(1, k=first)
    if not cases:
        raise ParameterError("no cases to evaluate", name="cases")
    short = min(len(c.predicted) for c in cases)
    if last > short:
        raise ParameterError(
            f"k={max(first, short + 1)} exceeds the shortest prediction list ({short})", name="k"
        )


def hit_ranks(cases: Sequence[RankedCase], depth: int) -> np.ndarray:
    """The (len(cases), depth) table of first-hit positions.

    Entry [i, n-1] is the 1-based position of case i's first prediction that is
    among its first n truth labels, or depth + 1 if none is in its first depth
    predictions. Rows never increase along n.
    """
    check_at_least(1, depth=depth)
    ranks = np.full((len(cases), depth), depth + 1, dtype=np.int64)
    for i, case in enumerate(cases):
        window = case.predicted[:depth]
        for j, label in enumerate(case.truth[:depth]):
            if label in window:
                ranks[i, j] = window.index(label) + 1
    return np.minimum.accumulate(ranks, axis=1, out=ranks)


def hit_rate(ranks: np.ndarray, k: int, n: int = 1) -> float:
    """top-k-n read from a :func:`hit_ranks` table with at least n columns."""
    return np.count_nonzero(ranks[:, n - 1] <= k) / len(ranks)


def mean_hit_rate_kk(ranks: np.ndarray, k_max: int) -> float:
    """avg-top-k-k read from a :func:`hit_ranks` table with at least k_max columns."""
    return sum(hit_rate(ranks, k, k) for k in range(1, k_max + 1)) / k_max


def sweep_ranks(cases: Sequence[RankedCase], k_max: int) -> np.ndarray:
    """The :func:`hit_ranks` table for every measure with k, n in 1..k_max.

    Raises ``ParameterError`` for k_max < 1, no cases, or a prediction list
    shorter than k_max.
    """
    check_at_least(1, k_max=k_max)
    _check_window(cases, 1, k_max)
    return hit_ranks(cases, k_max)


def top_k(cases: Sequence[RankedCase], k: int) -> float:
    """Fraction of cases whose most salient truth label is in the first k predictions."""
    return top_k_n(cases, k, 1)


def top_k_n(cases: Sequence[RankedCase], k: int, n: int) -> float:
    """Fraction of cases where the first k predictions meet the first n truth labels.

    Truth lists shorter than n are used whole.
    """
    check_at_least(1, n=n)
    _check_window(cases, k, k)
    n = min(n, max(len(c.truth) for c in cases))  # later columns repeat this one
    return hit_rate(hit_ranks(cases, max(k, n)), k, n)


def avg_top_kk(cases: Sequence[RankedCase], k_max: int = 5) -> float:
    """Mean of top-k-k over k = 1..k_max."""
    return mean_hit_rate_kk(sweep_ranks(cases, k_max), k_max)


@dataclass(frozen=True)
class BreakdownRow:
    tag: str
    value: float
    count: int


def factor_masks(
    cases: Sequence[RankedCase], include_pairs: bool = False
) -> Iterator[tuple[str, np.ndarray]]:
    """(tag, boolean case mask) rows: "all", each tag sorted, then each pair.

    With ``include_pairs`` every co-occurring unordered tag pair follows as
    "a+b", in sorted order. Only tags and pairs that actually occur get a row.
    """
    if not cases:
        raise ParameterError("no cases to evaluate", name="cases")
    yield "all", np.ones(len(cases), dtype=bool)
    rows: dict[str, list[int]] = {}
    for i, case in enumerate(cases):
        for tag in case.factors:
            rows.setdefault(tag, []).append(i)
    masks = {}
    for tag in sorted(rows):
        masks[tag] = mask = np.zeros(len(cases), dtype=bool)
        mask[rows[tag]] = True
    yield from masks.items()
    if include_pairs:
        for a, b in combinations(masks, 2):
            both = masks[a] & masks[b]
            if both.any():
                yield f"{a}+{b}", both


def factor_breakdown(
    cases: Sequence[RankedCase],
    metric: Callable[[Sequence[RankedCase]], float],
    include_pairs: bool = False,
) -> list[BreakdownRow]:
    """Evaluate a metric over each row of :func:`factor_masks`."""
    rows = []
    for tag, mask in factor_masks(cases, include_pairs):
        subset = [cases[i] for i in np.flatnonzero(mask)]
        rows.append(BreakdownRow(tag=tag, value=metric(subset), count=len(subset)))
    return rows


# ---------------------------------------------------------------------------
# Case file parsing
# ---------------------------------------------------------------------------

# ASCII decimal ids with an optional leading "-", comma-separated.
_IDS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")

# The line format_case writes. It matches only lines that the rules accept,
# except for a repeated id or an id past int()'s digit limit, which
# parse_case_line checks before it takes the match.
_CANONICAL = re.compile(
    rf"pred:({_IDS.pattern})\|truth:({_IDS.pattern})(?:\|factors:([^\s|+]*))?"
)


def _parse_ids(payload: str, what: str) -> tuple[int, ...]:
    if not payload:
        raise FormatError(f"empty {what} list")
    if not _IDS.fullmatch(payload):
        raise FormatError(f"non-decimal id in {what} list: {payload!r}")
    try:
        return tuple(map(int, payload.split(",")))
    except ValueError:  # beyond int()'s digit limit
        raise FormatError(f"id too long in {what} list") from None


def _new_case(
    predicted: tuple[int, ...], truth: tuple[int, ...], factors: frozenset[str]
) -> RankedCase:
    """A RankedCase from checked values, without the constructor's conversion and checks."""
    case = object.__new__(RankedCase)
    object.__setattr__(case, "predicted", predicted)
    object.__setattr__(case, "truth", truth)
    object.__setattr__(case, "factors", factors)
    return case


def _parse_segments(line: str) -> RankedCase:
    """Parse a case line segment by segment, checking every rule in turn.

    This is the only source of the reader's ``FormatError`` messages, and it
    accepts the segments in any order.
    """
    segments: dict[str, str] = {}
    for segment in line.strip().split("|"):
        name, sep, payload = segment.partition(":")
        if not sep:
            raise FormatError(f"segment {segment!r} is not name:payload")
        if name not in ("pred", "truth", "factors"):
            raise FormatError(f"unknown segment {name!r}")
        if name in segments:
            raise FormatError(f"repeated segment {name!r}")
        segments[name] = payload
    if "pred" not in segments or "truth" not in segments:
        raise FormatError("line must contain both pred and truth segments")
    predicted = _parse_ids(segments["pred"], "pred")
    truth = _parse_ids(segments["truth"], "truth")
    factors = frozenset(filter(None, segments.get("factors", "").split(",")))
    try:
        _check_case(predicted, truth, factors)
    except ParameterError as exc:
        raise FormatError(str(exc)) from None
    return _new_case(predicted, truth, factors)


def parse_case_line(line: str) -> RankedCase:
    """Parse one ``pred:...|truth:...[|factors:...]`` line into a RankedCase.

    A line in the form that :func:`format_case` writes takes one pattern
    match and a duplicate check per id list; every other line, and every
    error, goes through :func:`_parse_segments`. Both branches give equal
    cases. The line's values are checked here, once; the case is built from
    them without the constructor's conversion and checks.
    """
    match = _CANONICAL.fullmatch(line.strip())
    if match:
        pred_text, truth_text, tags = match.groups()
        try:
            predicted = tuple(map(int, pred_text.split(",")))
            truth = tuple(map(int, truth_text.split(",")))
        except ValueError:  # beyond int()'s digit limit: the rules name the list
            pass
        else:
            if len(set(predicted)) == len(predicted) and len(set(truth)) == len(truth):
                factors = frozenset(filter(None, tags.split(","))) if tags else frozenset()
                return _new_case(predicted, truth, factors)
    return _parse_segments(line)


def format_case(case: RankedCase) -> str:
    """Inverse of :func:`parse_case_line` (factors emitted sorted)."""
    parts = [
        "pred:" + ",".join(str(p) for p in case.predicted),
        "truth:" + ",".join(str(t) for t in case.truth),
    ]
    if case.factors:
        parts.append("factors:" + ",".join(sorted(case.factors)))
    return "|".join(parts)


def load_cases(path) -> list[RankedCase]:
    """Read a UTF-8 case file; malformed lines fail with their 1-based line number."""
    cases = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    cases.append(parse_case_line(line))
                except FormatError as exc:
                    raise FormatError(f"{path}, line {lineno}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return cases
