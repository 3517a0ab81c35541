"""Ranked-retrieval measures for saliency-ordered multi-label ground truth.

A case pairs a classifier's predictions (descending score) with the labels a
scene actually contains (descending saliency). ``top_k`` is the usual single-
truth measure; ``top_k_n`` counts a case as correct when any of the first k
predictions appears among the first n truth labels; ``avg_top_kk`` averages
top-k-k over k = 1..k_max as a single area-under-curve style score.

The measures work on a :class:`CaseTable`: every case's ids in two flat int64
arrays with per-case offsets, and one boolean column per factor tag.
:func:`load_cases` returns one; a sequence of ``RankedCase`` is converted
once, where it enters a measure (``CaseTable.from_cases``). Every measure is a
count over one integer table, ``hit_ranks(cases, depth)``: entry [i, n-1] is
the 1-based position of case i's first prediction that is among its first n
truth labels, or depth + 1 if none is in its first depth predictions. Then,
over N cases,

    top_k_n(k, n) = count(ranks[:, n-1] <= k) / N
    top_k(k)      = top_k_n(k, 1)
    avg_top_kk    = (top_k_n(1, 1) + ... + top_k_n(k_max, k_max)) / k_max

summed in that k order. A factor breakdown indexes the same table with one
boolean row mask per tag and tag pair (``factor_masks``).

Every rate is thus an integer count over the case count, and every count
comes from one table, :func:`hit_counts` (entry [k-1, n-1] is
``count(ranks[:, n-1] <= k)``): ``top_k_n`` and ``avg_top_kk`` read theirs
there, and so does ``spdalign metrics`` for all of ``metrics.csv``. Each
``breakdown.csv`` row takes its counts from one product of its mask with a
table of top-k-k hits. Each value is the same count over the same case
count, summed in the same k order, as in the formulas above, and is
returned as a Python float.

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
number (``spdalign metrics`` exits 1); text that is not UTF-8 raises
``FormatError`` too.

The reader opens the file once and takes the whole text. One pattern pass
splits it into lines, in order, and tells the lines in the form that
:func:`format_case` writes (``pred``, ``truth``, then optional ``factors``,
nothing around them, ids of at most 18 digits) from the others. Each other
nonblank line goes through :func:`parse_case_line`, the rule-by-rule parser,
and is written back in that form; if one of its ids lies outside int64
(the written form's ids never do), each of its ids is written as its rank
among the line's distinct ids, the coding that ``CaseTable.from_cases``
uses. Then all lines are converted together: one integer conversion per id
list and one sorted check for repeated ids. The error names the first line
that breaks a rule, whatever the rule: a line that fails to parse, or an
earlier line in the written form that repeats an id. Its message comes from
:func:`parse_case_line`, the one source of the reader's messages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from operator import attrgetter, itemgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import FormatError, ParameterError, check_at_least, whole_numbers


# A factor tag that format_case writes back unchanged and factor_masks can pair:
# no separator, no pair mark ("+"), no whitespace.
_TAG = re.compile(r"[^\s,|+]+")


@dataclass(frozen=True, slots=True)
class RankedCase:
    """One evaluated item: predictions by score, truth labels by saliency.

    The constructor converts and checks its fields: ids must be whole numbers
    (they may be negative), neither list repeats an id, the truth list is not
    empty, and each factor tag is one that :func:`format_case` can write back.
    :func:`parse_case_line` builds its cases through it, so a file line meets
    the same rules as an API call.
    """

    predicted: tuple[int, ...]
    truth: tuple[int, ...]
    factors: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "predicted", whole_numbers("predicted", self.predicted))
        object.__setattr__(self, "truth", whole_numbers("truth", self.truth))
        object.__setattr__(self, "factors", frozenset(str(f) for f in self.factors))
        if not self.truth:
            raise ParameterError("a case needs at least one ground-truth label", name="truth")
        for name, ids in (("predicted", self.predicted), ("truth", self.truth)):
            if len(set(ids)) != len(ids):
                raise ParameterError(f"duplicate {name} ids in {ids}", name=name)
        for tag in self.factors:
            if not _TAG.fullmatch(tag):
                raise ParameterError(
                    f"factor tag {tag!r} is empty or holds ',', '|', '+' or whitespace",
                    name="factors",
                )


def _entries(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(list index, position in its list) of every entry of lists of these lengths, in order."""
    case = np.repeat(np.arange(len(lengths)), lengths)
    return case, np.arange(len(case)) - (np.cumsum(lengths) - lengths)[case]


def _offsets(lengths) -> np.ndarray:
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _pair_keys(case: np.ndarray, ids: np.ndarray, cases: int) -> np.ndarray:
    """One int64 key per entry, equal exactly where two entries hold one case's same id.

    The key is case * span + (id - smallest id) when that fits int64, and
    otherwise codes each id by its rank among the distinct ids first.
    """
    if len(ids):
        low = int(ids.min())
        span = int(ids.max()) - low + 1
        if cases * span < 2**63:
            return case * span + (ids - low)
    values, codes = np.unique(ids, return_inverse=True)
    return case * len(values) + codes


def _first_repeat(ids: np.ndarray, offsets: np.ndarray) -> int:
    """The first list of the flat ``ids`` (split at ``offsets``) that holds an id twice.

    Returns the number of lists if none does. The keys grow with the list, so
    the sort moves entries only within their list.
    """
    case, _ = _entries(np.diff(offsets))
    keys = np.sort(_pair_keys(case, ids, len(offsets) - 1))
    repeated = case[1:][keys[1:] == keys[:-1]]
    return int(repeated[0]) if len(repeated) else len(offsets) - 1


def _case_ids(predicted: tuple[int, ...], truth: tuple[int, ...]) -> tuple[tuple, tuple]:
    """A case's two id lists, unchanged if every id fits int64.

    Otherwise each id is replaced by its rank among the case's own distinct
    ids. That keeps every equality the measures count, as they compare ids
    only within a case.
    """
    ids = predicted + truth
    if -(2**63) <= min(ids) and max(ids) < 2**63:
        return predicted, truth
    rank = {value: r for r, value in enumerate(sorted(set(ids)))}
    return tuple(map(rank.__getitem__, predicted)), tuple(map(rank.__getitem__, truth))


def _factor_columns(factor_sets: Sequence[frozenset[str]]) -> tuple[tuple[str, ...], np.ndarray]:
    """(sorted tags, (cases, tags) boolean table) of each case's tag set."""
    distinct = list(dict.fromkeys(factor_sets))
    tags = tuple(sorted(set().union(*distinct)))
    rows = np.array([[tag in tag_set for tag in tags] for tag_set in distinct], dtype=bool)
    code = {tag_set: row for row, tag_set in enumerate(distinct)}
    which = np.fromiter(map(code.__getitem__, factor_sets), np.intp, len(factor_sets))
    return tags, rows.reshape(len(distinct), len(tags))[which]


@dataclass(frozen=True, eq=False)
class CaseTable:
    """Ranked cases as columns, the form every measure computes on.

    Case i predicts ``predicted[predicted_offsets[i]:predicted_offsets[i + 1]]``
    in score order and holds ``truth[truth_offsets[i]:truth_offsets[i + 1]]``
    in saliency order; ``factors[i, j]`` says whether it carries ``tags[j]``,
    and ``tags`` are the sorted tags that some case carries. Ids are int64; in
    a case that holds an id outside int64, each of its ids is replaced by its
    rank among that case's distinct ids, which keeps the equalities that the
    measures count, and every other case keeps its ids. Build a table with
    :func:`load_cases` or :meth:`from_cases`, which check the cases' rules.
    """

    predicted: np.ndarray
    predicted_offsets: np.ndarray
    truth: np.ndarray
    truth_offsets: np.ndarray
    tags: tuple[str, ...]
    factors: np.ndarray

    def __len__(self) -> int:
        return len(self.predicted_offsets) - 1

    @classmethod
    def from_cases(cls, cases: Sequence[RankedCase]) -> CaseTable:
        """The table of ``cases``, in order."""
        lists = [list(map(attrgetter(field), cases)) for field in ("predicted", "truth")]
        try:
            columns = [np.array(list(chain.from_iterable(per_case)), dtype=np.int64)
                       for per_case in lists]
        except OverflowError:
            return cls.from_cases([RankedCase(*_case_ids(c.predicted, c.truth), c.factors)
                                   for c in cases])
        offsets = [_offsets(np.fromiter(map(len, per_case), np.int64, len(cases)))
                   for per_case in lists]
        tags, factors = _factor_columns(list(map(attrgetter("factors"), cases)))
        return cls(columns[0], offsets[0], columns[1], offsets[1], tags, factors)

    def take(self, rows) -> CaseTable:
        """The cases at ``rows`` (indices or a boolean mask), in that order."""
        rows = np.arange(len(self))[rows]
        lists = []
        for ids, offsets in ((self.predicted, self.predicted_offsets),
                             (self.truth, self.truth_offsets)):
            lengths = np.diff(offsets)[rows]
            case, position = _entries(lengths)
            lists += [ids[offsets[rows][case] + position], _offsets(lengths)]
        factors = self.factors[rows]
        carried = factors.any(axis=0)
        tags = tuple(tag for tag, kept in zip(self.tags, carried) if kept)
        return CaseTable(*lists, tags, factors[:, carried])


def _table(cases: CaseTable | Sequence[RankedCase]) -> CaseTable:
    return cases if isinstance(cases, CaseTable) else CaseTable.from_cases(cases)


def _check_window(table: CaseTable, first: int, last: int) -> None:
    """Raise unless every k in first..last fits the shortest prediction list.

    The message names the first k that does not fit.
    """
    check_at_least(1, k=first)
    if not len(table):
        raise ParameterError("no cases to evaluate", name="cases")
    short = int(np.diff(table.predicted_offsets).min())
    if last > short:
        raise ParameterError(
            f"k={max(first, short + 1)} exceeds the shortest prediction list ({short})", name="k"
        )


def hit_ranks(cases: CaseTable | Sequence[RankedCase], depth: int) -> np.ndarray:
    """The (len(cases), depth) table of first-hit positions.

    Entry [i, n-1] is the 1-based position of case i's first prediction that is
    among its first n truth labels, or depth + 1 if none is in its first depth
    predictions. Rows never increase along n. Memory grows with cases x depth:
    one stable sort by (case, id) over both lists' first depth entries, and
    one gather of the sorted keys, pair each truth label with the prediction
    that equals it (the two are neighbours in the sorted order). Column n-1
    then holds the position of the hit of truth label n alone, and a running
    minimum, one column at a time, turns it into the first hit among labels
    1..n.
    """
    check_at_least(1, depth=depth)
    table = _table(cases)
    ranks = np.full((len(table), depth), depth + 1, dtype=np.int64)
    windows = []
    for ids, offsets in ((table.predicted, table.predicted_offsets),
                         (table.truth, table.truth_offsets)):
        case, position = _entries(np.minimum(np.diff(offsets), depth))
        windows.append((case, position, ids[offsets[case] + position]))
    (pred_case, pred_position, pred_ids), (truth_case, truth_position, truth_ids) = windows
    case = np.concatenate([pred_case, truth_case])
    keys = _pair_keys(case, np.concatenate([pred_ids, truth_ids]), len(table))
    # Neither list repeats an id, so equal keys are one prediction and then,
    # as the sort is stable, one truth label.
    order = np.argsort(keys, kind="stable")
    hit = np.flatnonzero(np.diff(keys[order]) == 0)  # keys grow along the order: no overflow
    label = order[hit + 1] - len(pred_case)
    ranks[truth_case[label], truth_position[label]] = pred_position[order[hit]] + 1
    for n in range(1, depth):
        np.minimum(ranks[:, n], ranks[:, n - 1], out=ranks[:, n])
    return ranks


def hit_counts(ranks: np.ndarray, k_max: int) -> np.ndarray:
    """The (k_max, k_max) table whose entry [k-1, n-1] counts the cases with ``ranks[:, n-1] <= k``.

    ``ranks`` is a :func:`hit_ranks` table with at least k_max columns; each
    column is counted once, by rank, and the counts are summed up the ranks.
    """
    by_rank = [np.bincount(column, minlength=k_max + 1)[:k_max + 1] for column in ranks.T[:k_max]]
    return np.cumsum(by_rank, axis=1)[:, 1:].T


def sweep_ranks(cases: CaseTable | Sequence[RankedCase], k_max: int) -> np.ndarray:
    """The :func:`hit_ranks` table for every measure with k, n in 1..k_max.

    Raises ``ParameterError`` for k_max < 1, no cases, or a prediction list
    shorter than k_max.
    """
    check_at_least(1, k_max=k_max)
    table = _table(cases)
    _check_window(table, 1, k_max)
    return hit_ranks(table, k_max)


def top_k(cases: CaseTable | Sequence[RankedCase], k: int) -> float:
    """Fraction of cases whose most salient truth label is in the first k predictions."""
    return top_k_n(cases, k, 1)


def top_k_n(cases: CaseTable | Sequence[RankedCase], k: int, n: int) -> float:
    """Fraction of cases where the first k predictions meet the first n truth labels.

    Truth lists shorter than n are used whole.
    """
    check_at_least(1, n=n)
    table = _table(cases)
    _check_window(table, k, k)
    n = min(n, int(np.diff(table.truth_offsets).max()))  # later columns repeat this one
    depth = max(k, n)
    return int(hit_counts(hit_ranks(table, depth), depth)[k - 1, n - 1]) / len(table)


def avg_top_kk(cases: CaseTable | Sequence[RankedCase], k_max: int = 5) -> float:
    """Mean of top-k-k over k = 1..k_max."""
    ranks = sweep_ranks(cases, k_max)
    return sum(hits / len(ranks) for hits in hit_counts(ranks, k_max).diagonal().tolist()) / k_max


@dataclass(frozen=True)
class BreakdownRow:
    tag: str
    value: float
    count: int


def factor_masks(
    cases: CaseTable | Sequence[RankedCase], include_pairs: bool = False
) -> Iterator[tuple[str, np.ndarray]]:
    """(tag, boolean case mask) rows: "all", each tag sorted, then each pair.

    With ``include_pairs`` every co-occurring unordered tag pair follows as
    "a+b", in sorted order. Only tags and pairs that actually occur get a row.
    """
    table = _table(cases)
    if not len(table):
        raise ParameterError("no cases to evaluate", name="cases")
    yield "all", np.ones(len(table), dtype=bool)
    masks = dict(zip(table.tags, table.factors.T.copy()))
    yield from masks.items()
    if include_pairs:
        for a, b in combinations(masks, 2):
            both = masks[a] & masks[b]
            if both.any():
                yield f"{a}+{b}", both


def factor_breakdown(
    cases: CaseTable | Sequence[RankedCase],
    metric: Callable[[CaseTable], float],
    include_pairs: bool = False,
) -> list[BreakdownRow]:
    """Evaluate a metric over each row of :func:`factor_masks`; it gets each row's cases as a table."""
    table = _table(cases)
    rows = []
    for tag, mask in factor_masks(table, include_pairs):
        subset = table.take(mask)
        rows.append(BreakdownRow(tag=tag, value=metric(subset), count=len(subset)))
    return rows


# ---------------------------------------------------------------------------
# Case file parsing
# ---------------------------------------------------------------------------

# ASCII decimal ids with an optional leading "-", comma-separated.
_IDS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")

# A line of a case file: the form format_case writes, with ids of at most 18
# digits, which int64 holds and int() reads (groups 1-3), or any other text
# (group 4), which may be empty. A line of the first kind breaks no rule,
# unless a list repeats an id. The id and tag repeats are possessive (Python
# 3.11 and later), which saves the matcher its backtracking state and changes
# no match: what follows each repeat (",", "|" or the line end) is never a
# character the repeat could give back, so giving one back cannot help.
_ID = r"-?[0-9]{1,18}+"
_FILE_LINE = re.compile(
    rf"^(?:pred:({_ID}(?:,{_ID})*+)\|truth:({_ID}(?:,{_ID})*+)(?:\|factors:([^\s|+]*+))?|(.*))$",
    re.MULTILINE,
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


def _parse_tags(text: str | None) -> frozenset[str]:
    return frozenset(filter(None, text.split(","))) if text else frozenset()


def parse_case_line(line: str) -> RankedCase:
    """Parse one ``pred:...|truth:...[|factors:...]`` line into a RankedCase, rule by rule.

    The segments may come in any order, and whitespace around the line is
    ignored. A broken rule raises ``FormatError``; this is the one source of
    the case reader's messages.
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
    try:
        return RankedCase(predicted, truth, _parse_tags(segments.get("factors")))
    except ParameterError as exc:
        raise FormatError(str(exc)) from None


def format_case(case: RankedCase) -> str:
    """The line of ``case`` in the written form (factors sorted), which :func:`load_cases`
    converts in bulk and :func:`parse_case_line` reads back to an equal case."""
    parts = [
        "pred:" + ",".join(str(p) for p in case.predicted),
        "truth:" + ",".join(str(t) for t in case.truth),
    ]
    if case.factors:
        parts.append("factors:" + ",".join(sorted(case.factors)))
    return "|".join(parts)


def load_cases(path) -> CaseTable:
    """Read a UTF-8 case file into a :class:`CaseTable`, opening it once (see the module docstring).

    Raises ``FormatError`` if the text is not UTF-8, or else for the first
    line that breaks a rule, with its 1-based number.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    rows = _FILE_LINE.findall(text)  # row i is line i + 1
    end = len(rows)  # rows[:end] are blank or in the written form
    others = list(map(itemgetter(3), rows))
    if any(others):
        for at, line in enumerate(others):
            if line.strip():
                try:
                    case = parse_case_line(line)
                except FormatError:
                    end = at
                    break
                predicted, truth = _case_ids(case.predicted, case.truth)
                rows[at] = (",".join(map(str, predicted)), ",".join(map(str, truth)),
                            ",".join(case.factors), "")
    cases = [row for row in rows[:end] if row[0]]
    pred_lists, truth_lists, tag_lists, _ = list(zip(*cases)) or [()] * 4
    columns, offsets = [], []
    for texts in (pred_lists, truth_lists):
        commas = np.fromiter(map(str.count, texts, repeat(",")), np.int64, len(texts))
        offsets.append(_offsets(commas + 1))
        columns.append(np.fromstring(",".join(texts), dtype=np.int64, sep=","))
    first = min(map(_first_repeat, columns, offsets))
    if first < len(cases):
        end = [at for at, row in enumerate(rows) if row[0]][first]
    if end < len(rows):
        try:
            parse_case_line(text.split("\n")[end])
        except FormatError as exc:
            raise FormatError(f"{path}, line {end + 1}: {exc}") from None
    parsed = {tags: _parse_tags(tags) for tags in dict.fromkeys(tag_lists)}
    tags, factors = _factor_columns(list(map(parsed.__getitem__, tag_lists)))
    return CaseTable(columns[0], offsets[0], columns[1], offsets[1], tags, factors)
