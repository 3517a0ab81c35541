"""Ranked-retrieval measures against an exhaustive set-intersection oracle."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdalign import metrics
from spdalign.errors import FormatError, ParameterError
from spdalign.metrics import (
    RankedCase,
    _parse_segments,
    avg_top_kk,
    factor_breakdown,
    format_case,
    hit_ranks,
    load_cases,
    parse_case_line,
    top_k,
    top_k_n,
)

FACTOR_VOCAB = ["clp", "lgt", "blr", "glr", "bgr", "ocl", "rot",
                "zom", "vpc", "sml", "shd", "rfl", "ok"]


# -- independent oracle -------------------------------------------------------

def oracle_top_k(cases, k):
    """Most-salient truth label scanned against the first k predictions."""
    hits = 0
    for case in cases:
        found = False
        for p in list(case.predicted)[:k]:
            if p == case.truth[0]:
                found = True
        if found:
            hits += 1
    return hits / len(cases)


def oracle_top_k_n(cases, k, n):
    """Double loop over the two windows; no set machinery."""
    hits = 0
    for case in cases:
        found = False
        for p in list(case.predicted)[:k]:
            for t in list(case.truth)[:n]:
                if p == t:
                    found = True
        if found:
            hits += 1
    return hits / len(cases)


def oracle_avg_top_kk(cases, k_max):
    return sum(oracle_top_k_n(cases, k, k) for k in range(1, k_max + 1)) / k_max


def random_cases(rng, count, k_max=5, id_pool=40, with_factors=True):
    cases = []
    for _ in range(count):
        n_pred = int(rng.integers(k_max, k_max + 6))
        predicted = rng.choice(id_pool, size=n_pred, replace=False)
        n_truth = int(rng.integers(1, 7))
        truth = rng.choice(id_pool, size=n_truth, replace=False)
        factors = []
        if with_factors:
            factors = [f for f in FACTOR_VOCAB if rng.random() < 0.15]
        cases.append(RankedCase(tuple(predicted), tuple(truth), frozenset(factors)))
    return cases


class TestRankedCase:
    def test_rejects_empty_truth(self):
        with pytest.raises(ParameterError):
            RankedCase((1, 2), ())

    def test_rejects_duplicate_predictions(self):
        with pytest.raises(ParameterError):
            RankedCase((1, 1, 2), (3,))

    def test_rejects_duplicate_truth(self):
        with pytest.raises(ParameterError):
            RankedCase((1, 2), (3, 3))

    @pytest.mark.parametrize("predicted, truth, name", [
        ((1.5,), (1,), "predicted"),
        (("a",), (1,), "predicted"),
        (None, (1,), "predicted"),
        ((1,), (np.float64(2.0),), "truth"),
        ((1,), "12", "truth"),
    ], ids=["fraction", "string-id", "none", "numpy-float", "string"])
    def test_rejects_ids_that_are_not_whole_numbers(self, predicted, truth, name):
        with pytest.raises(ParameterError, match=f"^{name} must be a sequence of whole numbers, got ") as info:
            RankedCase(predicted, truth)
        assert info.value.name == name

    def test_whole_number_ids_become_ints(self):
        case = RankedCase(np.array([-3, 4]), [np.int64(-3)])
        assert case.predicted == (-3, 4) and case.truth == (-3,)
        assert all(type(i) is int for i in case.predicted + case.truth)

    @pytest.mark.parametrize("tag", ["", "a,b", "a|b", "a b", " a", "a\t", "a\n"])
    def test_rejects_factor_tags_format_case_cannot_write_back(self, tag):
        with pytest.raises(ParameterError, match="factor tag"):
            RankedCase((1,), (1,), frozenset({tag}))

    @pytest.mark.parametrize("tag", ["a+b", "+", "blr+"])
    def test_rejects_plus_in_factor_tag(self, tag):
        # "+" joins the two tags of a breakdown pair row, so a tag may not hold it.
        message = f"factor tag {tag!r} is empty or holds ',', '|', '+' or whitespace"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$") as info:
            RankedCase((1,), (1,), frozenset({"a", tag}))
        assert info.value.name == "factors"


class TestTopK:
    def test_miss_at_one_hit_at_two(self):
        case = RankedCase((5, 2, 9), (2, 7))
        assert top_k([case], 1) == 0.0
        assert top_k([case], 2) == 1.0

    def test_all_correct(self):
        cases = [RankedCase((i, i + 10), (i,)) for i in range(5)]
        assert top_k(cases, 1) == 1.0

    def test_k_too_large(self):
        with pytest.raises(ParameterError):
            top_k([RankedCase((1, 2), (1,))], 3)

    def test_empty_cases(self):
        with pytest.raises(ParameterError):
            top_k([], 1)


class TestTopKN:
    def test_worked_windows(self):
        case = RankedCase((5, 2, 9), (2, 7))
        assert top_k_n([case], 1, 2) == 0.0  # pred {5} vs truth {2, 7}
        assert top_k_n([case], 2, 1) == 1.0  # pred {5, 2} vs truth {2}
        assert top_k_n([case], 3, 2) == 1.0

    def test_n_one_reduces_to_top_k(self, rng):
        cases = random_cases(rng, 300)
        for k in range(1, 6):
            assert top_k_n(cases, k, 1) == top_k(cases, k)

    def test_truth_shorter_than_n(self):
        case = RankedCase((3, 1), (9,))
        assert top_k_n([case], 2, 5) == 0.0
        case2 = RankedCase((9, 1), (9,))
        assert top_k_n([case2], 1, 5) == 1.0


class TestAvgTopKK:
    def test_perfect_predictions(self):
        cases = [RankedCase(tuple(range(i, i + 6)), (i,)) for i in range(4)]
        assert avg_top_kk(cases, 5) == 1.0

    def test_single_case_hits_from_two(self):
        # hits exactly at k in {2..5}: mean of (0, 1, 1, 1, 1) = 0.8
        case = RankedCase((9, 1, 2, 3, 4), (1,))
        assert avg_top_kk([case], 5) == pytest.approx(0.8)

    def test_bounded_by_first_and_last(self, rng):
        cases = random_cases(rng, 200)
        lo = top_k_n(cases, 1, 1)
        hi = top_k_n(cases, 5, 5)
        avg = avg_top_kk(cases, 5)
        assert lo <= avg <= hi


class TestOracleAgreement:
    def test_fuzz_10000_cases_exact(self):
        rng = np.random.default_rng(987)
        cases = random_cases(rng, 10_000)
        for k in range(1, 6):
            assert top_k(cases, k) == oracle_top_k(cases, k)
            for n in range(1, 6):
                assert top_k_n(cases, k, n) == oracle_top_k_n(cases, k, n)
        assert avg_top_kk(cases, 5) == oracle_avg_top_kk(cases, 5)

    def test_monotonicity_in_k_and_n(self):
        rng = np.random.default_rng(321)
        cases = random_cases(rng, 2_000)
        values = {(k, n): top_k_n(cases, k, n) for k in range(1, 6) for n in range(1, 6)}
        for k in range(1, 6):
            for n in range(1, 6):
                if k < 5:
                    assert values[(k, n)] <= values[(k + 1, n)]
                if n < 5:
                    assert values[(k, n)] <= values[(k, n + 1)]

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_random_corpora(self, seed):
        rng = np.random.default_rng(seed)
        cases = random_cases(rng, 40)
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        assert top_k_n(cases, k, n) == oracle_top_k_n(cases, k, n)
        assert top_k(cases, k) == oracle_top_k(cases, k)


class TestHitRanks:
    def test_worked_rows(self):
        cases = [RankedCase((5, 2, 9), (2, 7)), RankedCase((3, 1), (9,))]
        # first hit of truth {2} at 2, {2, 7} still at 2; no hit anywhere gives depth + 1
        assert hit_ranks(cases, 3).tolist() == [[2, 2, 2], [4, 4, 4]]

    def test_rejects_depth_below_one(self):
        with pytest.raises(ParameterError):
            hit_ranks([RankedCase((1,), (1,))], 0)

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_every_window_matches_oracle(self, seed, depth):
        # depth may exceed the shortest prediction list (5) and the longest truth list (6)
        cases = random_cases(np.random.default_rng(seed), 30)
        ranks = hit_ranks(cases, depth)
        assert ranks.shape == (30, depth)
        for k in range(1, depth + 1):
            for n in range(1, depth + 1):
                hits = int(np.count_nonzero(ranks[:, n - 1] <= k))
                assert hits / len(cases) == oracle_top_k_n(cases, k, n)


class TestFactorBreakdown:
    def metric(self, subset):
        return top_k(subset, 1)

    def test_untagged_cases_only_all_row(self, rng):
        cases = random_cases(rng, 20, with_factors=False)
        rows = factor_breakdown(cases, self.metric)
        assert len(rows) == 1 and rows[0].tag == "all"
        assert rows[0].count == 20

    def test_single_tag_everywhere_matches_all(self, rng):
        base = random_cases(rng, 20, with_factors=False)
        cases = [RankedCase(c.predicted, c.truth, frozenset({"blr"})) for c in base]
        rows = factor_breakdown(cases, self.metric)
        by_tag = {r.tag: r for r in rows}
        assert by_tag["blr"].value == by_tag["all"].value
        assert by_tag["blr"].count == by_tag["all"].count

    def test_disjoint_tags_partition_counts(self, rng):
        base = random_cases(rng, 30, with_factors=False)
        cases = [
            RankedCase(c.predicted, c.truth, frozenset({"lgt" if i % 2 else "sml"}))
            for i, c in enumerate(base)
        ]
        rows = factor_breakdown(cases, self.metric)
        by_tag = {r.tag: r for r in rows}
        assert by_tag["lgt"].count + by_tag["sml"].count == by_tag["all"].count

    def test_pair_rows(self, rng):
        base = random_cases(rng, 10, with_factors=False)
        cases = [RankedCase(c.predicted, c.truth, frozenset({"blr", "ocl"})) for c in base]
        rows = factor_breakdown(cases, self.metric, include_pairs=True)
        tags = [r.tag for r in rows]
        assert "blr+ocl" in tags


class TestCaseFileFormat:
    def test_parse_worked_line(self):
        case = parse_case_line("pred:5,2,9|truth:2,7|factors:blr,ocl")
        assert case.predicted == (5, 2, 9)
        assert case.truth == (2, 7)
        assert case.factors == frozenset({"blr", "ocl"})

    def test_factors_optional(self):
        case = parse_case_line("pred:1,2|truth:1")
        assert case.factors == frozenset()

    def test_roundtrip(self, rng):
        # The parser builds cases without the constructor, so compare field
        # types and hashes as well as equality.
        for case in random_cases(rng, 200):
            parsed = parse_case_line(format_case(case))
            for got in (parsed, case):
                assert type(got.predicted) is tuple and type(got.truth) is tuple
                assert all(type(i) is int for i in got.predicted + got.truth)
                assert type(got.factors) is frozenset
                assert all(type(tag) is str for tag in got.factors)
            assert parsed == case and hash(parsed) == hash(case)

    @pytest.mark.parametrize("bad", [
        "pred:1,2",                     # missing truth
        "truth:1",                      # missing pred
        "pred:1,a|truth:1",             # non-integer id
        "pred:1,2|truth:1|extra:x",     # unknown segment
        "pred:1,1|truth:2",             # duplicate ids
        "nonsense",
        "pred:1_0,2|truth:10",          # digit separator
        "pred:\u0663,1|truth:3",        # non-ASCII digit
        "pred: 5,2|truth:5",            # space
        "pred:5,+2|truth:5",            # leading plus
        "pred:1,2|truth:1|factors:a b",  # whitespace inside a factor tag
        pytest.param("pred:" + "1" * 5000 + "|truth:1", id="beyond-int-digit-limit"),
    ])
    def test_malformed_lines(self, bad):
        with pytest.raises(FormatError):
            parse_case_line(bad)

    @pytest.mark.parametrize("line, message", [
        ("pred:1,1,2|truth:3", "duplicate predicted ids in (1, 1, 2)"),
        ("pred:1,2|truth:3,3", "duplicate truth ids in (3, 3)"),
        ("pred:1,2|truth:", "empty truth list"),
        ("pred:1_0,2|truth:10", "non-decimal id in pred list: '1_0,2'"),
    ])
    def test_load_cases_names_the_line_and_the_rule(self, tmp_path, line, message):
        path = tmp_path / "cases.txt"
        path.write_text(f"pred:1,2|truth:1\n\n{line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"line 3: {message}")):
            load_cases(path)

    @pytest.mark.parametrize("line", [
        "pred:1,2|truth:1|pred:7,8,9",
        "pred:1,2|truth:1|truth:2",
        "pred:1,2|truth:1|factors:blr|factors:ocl",
    ])
    def test_repeated_segment_is_named(self, line):
        name = line.rpartition("|")[2].partition(":")[0]
        with pytest.raises(FormatError, match=f"repeated segment '{name}'"):
            parse_case_line(line)

    def test_load_cases_rejects_plus_in_factor_tag(self, tmp_path):
        path = tmp_path / "cases.txt"
        path.write_text("pred:1,2|truth:1|factors:a,b\npred:1,2|truth:2|factors:a+b\n")
        message = "line 2: factor tag 'a+b' is empty or holds ',', '|', '+' or whitespace"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_cases(path)

    def test_load_cases_names_the_line_of_a_repeated_segment(self, tmp_path):
        path = tmp_path / "cases.txt"
        path.write_text("pred:1,2|truth:1\n\npred:1,2|truth:1|pred:7,8,9\n")
        with pytest.raises(FormatError, match="line 3: repeated segment 'pred'"):
            load_cases(path)


# -- the two parser branches --------------------------------------------------

def _parsed(parse, line):
    """("case", fields) or ("error", message); fields carry types and the hash."""
    try:
        case = parse(line)
    except FormatError as exc:
        return "error", str(exc)
    fields = (case.predicted, case.truth, case.factors)
    types = (type(case.predicted), type(case.truth), type(case.factors),
             {type(i) for i in case.predicted + case.truth}, {type(t) for t in case.factors})
    return "case", (fields, types, hash(case))


# Tag characters: ASCII and non-ASCII letters, the ":" and "_" a tag may hold.
_TAG_TEXT = st.text(alphabet="abcxyz:_\u00e9\u03bb0", min_size=1, max_size=4)
_IDS_LIST = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=5, unique=True)

# Text that a mutation inserts: into an id list, sign, digit and space forms
# that the rules reject or accept; into a factor tag, the pair mark and
# whitespace; anywhere, the separators.
_ID_INSERTS = ["+", "\u0663", "-0", "0", "_", " ", "-", ",", "\uff11", "\u00a0"]
_TAG_INSERTS = ["+", " ", "\x0c", "\u00a0", "\u2028", "\u3000", ",", ":", "_"]
_SEPARATORS = ["|", ":", ",", ",,", "-0,", "0,"]
# Text around a line: str.strip() removes all but the byte-order mark.
_ENDS = ["", " ", "\t", "\n", "\r\n", "\u00a0", "\u2003", "\u3000", "\x1c", "\x85", "\ufeff"]


def _segments(line):
    return line.split("|")


def _reorder(line, data):
    return "|".join(data.draw(st.permutations(_segments(line))))


def _repeat_segment(line, data):
    segments = _segments(line)
    return "|".join(segments + [data.draw(st.sampled_from(segments))])


def _drop_segment(line, data):
    segments = _segments(line)
    segments.pop(data.draw(st.integers(0, len(segments) - 1)))
    return "|".join(segments)


def _insert_in_payload(segments, i, text, data):
    """Insert into segment i's payload: anywhere, or where an id or tag starts or ends."""
    name, _, payload = segments[i].partition(":")
    edges = [0, len(payload)] + [j + d for j, c in enumerate(payload) if c == "," for d in (0, 1)]
    at = data.draw(st.one_of(st.sampled_from(edges), st.integers(0, len(payload))))
    segments[i] = f"{name}:{payload[:at]}{text}{payload[at:]}"
    return "|".join(segments)


def _id_segment(line, data):
    """(segments, index of a pred or truth segment), or None if there is none."""
    segments = _segments(line)
    ids = [i for i, s in enumerate(segments) if s.startswith(("pred:", "truth:"))]
    return (segments, data.draw(st.sampled_from(ids))) if ids else None


def _repeat_id(line, data):
    found = _id_segment(line, data)
    if found is None:
        return line
    segments, i = found
    first = segments[i].partition(":")[2].split(",")[0]
    segments[i] += "," + first
    return "|".join(segments)


def _long_id(line, data):
    found = _id_segment(line, data)
    if found is None:
        return line
    segments, i = found
    segments[i] += ",1" + "2" * 4400  # past int()'s default 4300-digit limit
    return "|".join(segments)


def _pad_factors(line, data):
    segments = [s for s in _segments(line) if not s.startswith("factors:")]
    tags = [s.partition(":")[2] for s in _segments(line) if s.startswith("factors:")]
    payload = data.draw(st.sampled_from(["", ",", ",{},", "{},,", ",,{}"]))
    return "|".join(segments + ["factors:" + payload.format(tags[0] if tags else "a")])


def _named(function, name):
    function.__name__ = name
    return function


def _insert(text):
    def mutate(line, data):
        at = data.draw(st.integers(0, len(line)))
        return line[:at] + text + line[at:]
    return _named(mutate, f"insert-{ascii(text)[1:-1]}")


def _insert_in_ids(text):
    def mutate(line, data):
        found = _id_segment(line, data)
        return line if found is None else _insert_in_payload(*found, text, data)
    return _named(mutate, f"ids-{ascii(text)[1:-1]}")


def _insert_in_tags(text):
    def mutate(line, data):
        segments = _segments(line)
        tags = [i for i, s in enumerate(segments) if s.startswith("factors:")]
        if not tags:
            segments.append("factors:a")
            tags = [len(segments) - 1]
        return _insert_in_payload(segments, tags[0], text, data)
    return _named(mutate, f"tags-{ascii(text)[1:-1]}")


def _wrap(line, data):
    return data.draw(st.sampled_from(_ENDS)) + line + data.draw(st.sampled_from(_ENDS))


_MUTATIONS = [
    _reorder, _repeat_segment, _drop_segment, _repeat_id, _long_id, _pad_factors, _wrap,
    *map(_insert, _SEPARATORS), *map(_insert_in_ids, _ID_INSERTS),
    *map(_insert_in_tags, _TAG_INSERTS),
]


class TestParserBranches:
    """``parse_case_line`` takes canonical lines by one pattern match; on every
    line it must agree with the segment-by-segment rules."""

    @pytest.mark.parametrize("mutate", _MUTATIONS, ids=lambda m: m.__name__.strip("_"))
    @given(predicted=_IDS_LIST, truth=_IDS_LIST,
           factors=st.frozensets(_TAG_TEXT, max_size=4),
           more=st.lists(st.sampled_from(_MUTATIONS), max_size=2), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_branches_agree(self, mutate, predicted, truth, factors, more, data):
        # Each mutation (each inserted text apart) leads its own run, so that
        # every one of them is tried often; up to two more follow at random.
        line = format_case(RankedCase(tuple(predicted), tuple(truth), factors))
        for step in [mutate, *more]:
            line = step(line, data)
        assert _parsed(parse_case_line, line) == _parsed(_parse_segments, line)

    @pytest.mark.parametrize("line", [
        "pred:1,2|truth:1|factors:",
        "pred:1,2|truth:1|factors:,a,,",
        "pred:1,2|truth:1|factors:a:b",
        "pred:-0,0|truth:1",
        "pred:01,1|truth:1",
        "\ufeffpred:1,2|truth:1",
        "pred:1,2|truth:1|factors:a\x0cb",
        "pred:1,2|truth:1|factors:a\u00a0b",
        "truth:1|pred:1,2|factors:a",
        "factors:a|truth:1|pred:1,2",
        "pred:1,2|truth:1|",
        "pred:1,2|truth:1|factors:a+b",
        "pred:" + "1" * 5000 + "|truth:1",
        "pred:\u0663,1|truth:3",
        "pred:1,1|truth:2",
        "  pred:1,2|truth:1\u3000\n",
        "pred:1,2|truth:-3,3|factors:b,a",
    ])
    def test_edge_lines_agree(self, line):
        assert _parsed(parse_case_line, line) == _parsed(_parse_segments, line)

    def test_canonical_lines_take_the_pattern(self, rng, monkeypatch):
        def rules(line):
            raise AssertionError(f"rule-by-rule parse of a canonical line: {line!r}")

        monkeypatch.setattr(metrics, "_parse_segments", rules)
        for case in random_cases(rng, 200):
            assert parse_case_line(format_case(case)) == case
