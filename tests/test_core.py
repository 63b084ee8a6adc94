import math
import random
from bisect import bisect_right

import pytest

from topicmodels.core import (MAX_PRIOR, MISSING, LogRisingMemo, SamplingError,
                              SeededRng, counts_from_assignments, draw_below, draw_each,
                              exp_normalize, fields, fold_sum, index_rows,
                              log_rising_factorial, log_unit_weights, record, require_at_least,
                              require_nonnegative, require_positive, run_chain,
                              sample_categorical, walk_sums)

from oracles import count_tables_two_passes


def test_seeded_rng_reproducible():
    a = SeededRng(99)
    b = SeededRng(99)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]
    assert a.seed_value == 99


def test_seeded_rng_rejects_a_negative_seed():
    # random.Random seeds from abs(seed): -7 would repeat the chain of 7
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SeededRng(-7)


def test_sample_categorical_singleton():
    rng = SeededRng(1)
    for _ in range(20):
        assert sample_categorical([1.0], rng) == 0


def test_sample_categorical_zero_weight_never_drawn():
    rng = SeededRng(2)
    for _ in range(200):
        assert sample_categorical([0.0, 5.0], rng) == 1
    for _ in range(200):
        assert sample_categorical([0.3, 0.0, 0.7], rng) != 1


def test_sample_categorical_rejects_bad_weights():
    rng = SeededRng(3)
    with pytest.raises(SamplingError):
        sample_categorical([0.0, 0.0], rng)
    with pytest.raises(SamplingError):
        sample_categorical([1.0, float("nan")], rng)
    with pytest.raises(SamplingError):
        sample_categorical([1.0, -0.5], rng)


def test_sample_categorical_frequencies():
    # binomial oracle: each frequency within 3 sigma of its expectation
    rng = SeededRng(12345)
    weights = [1.0, 1.0, 2.0]
    probs = [0.25, 0.25, 0.5]
    draws = 10 ** 6
    counts = [0, 0, 0]
    for _ in range(draws):
        counts[sample_categorical(weights, rng)] += 1
    for c, p in zip(counts, probs):
        sigma = math.sqrt(draws * p * (1 - p))
        assert abs(c - draws * p) < 3 * sigma


def test_walk_sums_bisects_inside_and_takes_the_last_weight_past_the_end():
    sums = [0.0, 0.5, 0.5, 2.0, 2.25]  # weights 0, 0.5, 0, 1.5, 0.25
    for u in (0.0, 0.25, 0.5, 1.0, 1.999, 2.0, 2.2):
        assert walk_sums(sums, u) == bisect_right(sums, u)
    assert [walk_sums(sums, u) for u in (0.0, 0.5, 2.0)] == [1, 3, 4]
    # round-off past the last sum: the last index with weight, here the last
    assert walk_sums(sums, 2.25) == walk_sums(sums, 3.0) == 4
    # trailing zero weights: their sums repeat the last one, so not them
    assert walk_sums([0.0, 1.0, 3.0, 3.0, 3.0], 3.0) == 2
    assert walk_sums([0.5, 0.5], 0.5) == 0


def test_log_rising_factorial_trivial():
    assert log_rising_factorial(2.3, 0) == 0.0
    assert log_rising_factorial(1.0, 3) == pytest.approx(math.log(6.0), rel=1e-12)


def test_log_rising_factorial_matches_lgamma():
    for x in (0.5, 0.01, 1.0, 7.3, 100.0):
        for n in (1, 2, 5, 17, 50):
            want = math.lgamma(x + n) - math.lgamma(x)
            assert log_rising_factorial(x, n) == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_log_rising_factorial_matches_direct_product():
    for x in (0.01, 0.5, 3.0, 100.0):
        for n in range(1, 51):
            direct = 1.0
            for j in range(n):
                direct *= x + j
            assert math.exp(log_rising_factorial(x, n)) == pytest.approx(direct, rel=1e-10)


def test_log_rising_factorial_domain():
    with pytest.raises(ValueError):
        log_rising_factorial(0.0, 3)
    with pytest.raises(ValueError):
        log_rising_factorial(-1.0, 3)


def test_log_rising_memo_equals_direct_sum_exactly():
    # the samplers' offsets: beta, alpha, V * beta and K * alpha
    for offset in (0.01, 0.1, 0.5, 1.0, 2.5, 452 * 0.01, 10 * 0.1, 1e-12):
        memo = LogRisingMemo(offset)
        for _ in range(2):  # the second pass reads the memo
            for n in range(60):
                for c in range(9):
                    assert memo[n, c] == log_rising_factorial(n + offset, c)
        assert len(memo) == 60 * 9
        for n in range(60):
            # the kernels evaluate multiplicity 1 as a bare log
            assert log_rising_factorial(n + offset, 1) == math.log(n + offset)


def test_log_rising_memo_keeps_the_domain_check():
    memo = LogRisingMemo(0.0)
    with pytest.raises(ValueError):
        memo[0, 2]
    assert len(memo) == 0


def test_log_unit_weights_equal_the_direct_formula_bit_for_bit():
    # rows mixing zero and nonzero counts, items seen once and more often,
    # a candidate with no prior mass, and an all-zero row such as a new
    # DPMM cluster's.  Each weight is the full log weight less
    # sum of log rising(b, c) over the items, the same for every candidate
    rng = SeededRng(12)
    V = 7
    for b, B in ((0.01, V * 0.01), (0.5, V * 0.5), (1e-12, 2.5)):
        item_logs, total_logs = LogRisingMemo(b), LogRisingMemo(B)
        for _ in range(20):
            rows = [[rng.choice((0, 0, 0, 1, 2, 5)) for _ in range(V)] for _ in range(4)]
            rows.append([0] * V)
            index = [{k: row[v] for k, row in enumerate(rows) if row[v]} for v in range(V)]
            totals = [sum(row) for row in rows]
            logs = [math.log(rng.random() + 0.1) for _ in rows[:-2]] + [-math.inf, 0.0]
            items = sorted({v: rng.choice((1, 1, 2, 3)) for v in rng.sample(range(V), 4)}.items())
            n = sum(c for _, c in items)
            want, full = [], []
            for lw, row, total in zip(logs, rows, totals):
                w = lw - log_rising_factorial(total + B, n)
                for v, c in items:
                    if row[v]:
                        w += log_rising_factorial(row[v] + b, c) - log_rising_factorial(b, c)
                    lw += log_rising_factorial(row[v] + b, c)
                want.append(w)
                full.append(lw - log_rising_factorial(total + B, n))
            got = log_unit_weights(logs, index, totals, items, n, item_logs, total_logs)
            assert got == want
            shift = fold_sum(log_rising_factorial(b, c) for _, c in items)
            for g, f in zip(got, full):
                assert g == f == -math.inf or g == pytest.approx(f - shift, rel=1e-12, abs=1e-9)


def test_require_positive_names_the_parameter():
    require_positive({"alpha": 0.1, "beta": 1e-12})
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="^beta must be positive$"):
            require_positive({"alpha": 0.1, "beta": bad})


def test_require_positive_rejects_infinity():
    with pytest.raises(ValueError, match="^alpha must be finite$"):
        require_positive({"alpha": math.inf, "beta": 1.0})
    with pytest.raises(ValueError, match="^alpha must be positive$"):
        require_positive({"alpha": -math.inf})


def test_require_positive_and_nonnegative_reject_a_prior_past_the_largest():
    for require in (require_positive, require_nonnegative):
        require({"alpha": MAX_PRIOR})
        with pytest.raises(ValueError, match=r"^alpha must be at most 1e\+100$"):
            require({"alpha": MAX_PRIOR * 1.5})


def test_require_nonnegative_names_the_parameter():
    require_nonnegative({"alpha": 0.0, "gamma": 2.5})
    for bad, message in ((-1e-12, ">= 0"), (float("nan"), ">= 0"), (-math.inf, ">= 0"),
                         (math.inf, "finite")):
        with pytest.raises(ValueError, match=f"^gamma must be {message}$"):
            require_nonnegative({"alpha": 0.0, "gamma": bad})


def test_require_at_least_names_the_count():
    require_at_least({"n_topics": 1, "iterations": 5})
    require_at_least({"window": 2}, 2)
    with pytest.raises(ValueError, match="^iterations must be >= 1$"):
        require_at_least({"n_topics": 3, "iterations": 0})
    with pytest.raises(ValueError, match="^window must be >= 2$"):
        require_at_least({"window": 1}, 2)


class _CountingSampler:
    def __init__(self):
        self.sweeps = 0

    def sweep(self):
        self.sweeps += 1

    def estimate(self):
        return ("estimate after", self.sweeps)


def test_run_chain_sweeps_then_estimates():
    seen = []
    sampler = _CountingSampler()
    result = run_chain(sampler, 3, lambda s, it: seen.append((s is sampler, it, s.sweeps)))
    assert result == ("estimate after", 3)
    assert seen == [(True, 0, 1), (True, 1, 2), (True, 2, 3)]
    assert run_chain(_CountingSampler(), 2) == ("estimate after", 2)


def test_run_chain_rejects_a_chain_without_sweeps():
    for iterations in (0, -3):
        sampler = _CountingSampler()
        with pytest.raises(ValueError, match="^iterations must be >= 1$"):
            run_chain(sampler, iterations)
        assert sampler.sweeps == 0


def test_fold_sum_adds_left_to_right():
    # each + 1.0 rounds back to 1e16; a compensated sum gives 1e16 + 2
    assert fold_sum([1e16, 1.0, 1.0]) == 1e16
    assert fold_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
    assert fold_sum([]) == 0.0


def test_exp_normalize_handles_large_logs():
    ws = exp_normalize([-1000.0, -1001.0])
    assert ws[0] == pytest.approx(1.0)
    assert ws[1] == pytest.approx(math.exp(-1.0))


def assert_closed(tables):
    """The closure of integer count tables: every row sums to its total, and
    the row totals and the topic totals add up to the same tokens."""
    assert list(map(sum, tables["doc_topic"])) == tables["doc_total"]
    assert sum(tables["doc_total"]) == sum(tables["topic_total"])


def test_counts_from_assignments_single_doc():
    tables = counts_from_assignments([[0, 1]], [[0, 0]], n_topics=2, n_words=2)
    index = tables["word_topics"]
    assert tables["doc_topic"][0][0] == 2
    assert tables["topic_total"] == [2, 0]
    assert index_rows(index, 2)[0] == [1, 1]
    assert index == [{0: 1}, {0: 1}]
    assert_closed(tables)


def test_counts_from_assignments_empty():
    tables = counts_from_assignments([], [], n_topics=3, n_words=4)
    assert tables["topic_total"] == [0, 0, 0]
    assert tables["word_topics"] == [{}, {}, {}, {}]
    assert_closed(tables)


def test_counts_from_assignments_recount_oracle():
    rng = SeededRng(7)
    K, V = 4, 6
    docword = [[rng.randrange(V) for _ in range(rng.randrange(1, 9))] for _ in range(5)]
    z = [[rng.randrange(K) for _ in doc] for doc in docword]
    tables = counts_from_assignments(docword, z, K, V)
    index = tables["word_topics"]
    # independent recount
    for m, doc in enumerate(docword):
        for k in range(K):
            assert tables["doc_topic"][m][k] == sum(1 for zz in z[m] if zz == k)
        assert tables["doc_total"][m] == len(doc)
    for k in range(K):
        for v in range(V):
            want = sum(1 for m, doc in enumerate(docword)
                       for n, vv in enumerate(doc) if vv == v and z[m][n] == k)
            assert index[v].get(k, 0) == want
    assert sum(tables["topic_total"]) == sum(len(d) for d in docword)
    assert_closed(tables)


def test_index_rows_equal_the_dense_counts():
    # word 3 is in no document (its dict is empty), topic 1 holds no token,
    # and n_rows runs past topic 2, the largest key of the index
    docword, z = [[0, 1, 0], [4, 0], [2]], [[0, 2, 0], [2, 2], [0]]
    tables = counts_from_assignments(docword, z, 4, 5)
    index = tables["word_topics"]
    want = count_tables_two_passes(docword, z, 4, 5)[0]["topic_word"]
    assert index[3] == {}
    assert index_rows(index, 4) == want and "topic_word" not in tables
    assert want == [[2, 0, 1, 0, 0], [0] * 5, [1, 1, 0, 0, 1], [0] * 5]
    # the rows of the same index over fewer words, and over none
    assert index_rows(index[:2], 4) == [row[:2] for row in want]
    assert index_rows([], 2) == [[], []]


def test_counts_from_assignments_rejects_out_of_range():
    with pytest.raises(ValueError):
        counts_from_assignments([[0]], [[5]], n_topics=2, n_words=1)


@pytest.mark.parametrize("z, rows, message", [
    ([[0, -1]], None, "topic out of range"),
    ([[0, 2]], None, "topic out of range"),
    ([[0]], None, "do not match"),
    ([[0, 1], []], None, "do not match"),
    ([[0, 1]], [[0, 3]], "row out of range"),
    ([[0, 1]], [[-1, 0]], "row out of range"),
    ([[0, 1]], [[0]], "do not match"),
])
def test_counts_from_assignments_rejects_bad_labels(z, rows, message):
    with pytest.raises(ValueError, match=message):
        counts_from_assignments([[0, 1]], z, 2, 2, rows=rows, n_rows=None if rows is None else 3)


@pytest.mark.parametrize("with_rows", [False, True])
def test_counts_from_assignments_matches_two_pass_oracle(with_rows):
    # random topics (and rows, as ATM's authors) over documents with
    # repeated words, empty documents and words no document uses
    rng = SeededRng(11)
    for _ in range(30):
        K, V, R = rng.randrange(1, 6), rng.randrange(1, 9), rng.randrange(1, 4)
        docword = [[rng.randrange(V) for _ in range(rng.randrange(0, 12))]
                   for _ in range(rng.randrange(1, 6))]
        z = [[rng.randrange(K) for _ in doc] for doc in docword]
        rows = [[rng.randrange(R) for _ in doc] for doc in docword] if with_rows else None
        tables = counts_from_assignments(docword, z, K, V, rows=rows,
                                         n_rows=R if with_rows else None)
        index = tables.pop("word_topics")
        want_tables, want_index = count_tables_two_passes(docword, z, K, V, rows, R)
        want_rows = want_tables.pop("topic_word")
        assert tables == want_tables and index_rows(index, K) == want_rows
        # the key order too: the SparseLDA walk follows it
        assert [list(d.items()) for d in index] == [list(d.items()) for d in want_index]
        assert_closed(tables)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 100, 1024, 1025])
def test_draw_below_equals_randrange_and_choice(n):
    for seed, count in ((1, 0), (2, 1), (3, 7), (4, 500)):
        want_rng, got_rng = random.Random(seed), SeededRng(seed)
        want = [want_rng.randrange(n) for _ in range(count)]
        assert draw_below(got_rng, n, count) == want
        assert got_rng.getstate() == want_rng.getstate()
        seq = [f"item{i}" for i in range(n)]
        assert seq[draw_below(got_rng, n, 1)[0]] == want_rng.choice(seq)
        assert got_rng.getstate() == want_rng.getstate()


def test_draw_each_equals_nested_randrange():
    groups = [[0] * 3, [], [0], [0] * 12]
    want_rng, got_rng = random.Random(5), random.Random(5)
    want = [[want_rng.randrange(20) for _ in g] for g in groups]
    assert draw_each(got_rng, 20, groups) == want
    assert got_rng.getstate() == want_rng.getstate()


def test_draw_below_rejects_an_empty_range():
    with pytest.raises(ValueError):
        draw_below(SeededRng(1), 0, 3)


@record(frozen=True)
class _Base:
    size: int
    rate: float = 0.5
    count: int = 1

    def __post_init__(self):
        require_at_least({"size": self.size})


@record(frozen=True)
class _Child(_Base):
    size: int = 3  # a default for an inherited field keeps the field's place


@record
class _Loose:
    items: list
    note: str | None = None


def test_record_fields_follow_the_mro_base_first():
    assert [(f.name, f.type, f.default) for f in fields(_Base)] == [
        ("size", int, MISSING), ("rate", float, 0.5), ("count", int, 1)]
    assert [(f.name, f.default) for f in fields(_Child)] == [
        ("size", 3), ("rate", 0.5), ("count", 1)]
    assert repr(MISSING) == "MISSING"


class _LazyAnnotations(type):
    """Keeps a class's annotations out of its __dict__ and serves them through
    the attribute only, as Python 3.14 (PEP 649) does until they are read."""

    def __new__(mcs, name, bases, namespace):
        lazy = namespace.pop("__annotations__", {})
        cls = super().__new__(mcs, name, bases, namespace)
        cls._lazy = lazy
        return cls

    @property
    def __annotations__(cls):
        return vars(cls).get("_lazy", {})


def test_record_reads_annotations_through_the_attribute():
    class Lazy(metaclass=_LazyAnnotations):
        size: int
        rate: float = 0.5

    assert "__annotations__" not in vars(Lazy)
    Lazy = record(Lazy)
    assert [(f.name, f.type, f.default) for f in fields(Lazy)] == [
        ("size", int, MISSING), ("rate", float, 0.5)]
    assert Lazy(2) == Lazy(2, 0.5) and repr(Lazy(3)).endswith(".Lazy(size=3, rate=0.5)")

    @record
    class Plain(_Base):  # annotates nothing itself, so adds no field
        pass

    assert fields(Plain) == fields(_Base)


def test_record_init_takes_fields_in_order_and_runs_post_init():
    assert (_Base(2).size, _Base(2).rate, _Base(2).count) == (2, 0.5, 1)
    b = _Base(4, 0.25, count=7)
    assert (b.size, b.rate, b.count) == (4, 0.25, 7)
    assert _Child().size == 3 and _Child(5, 1.0).rate == 1.0
    with pytest.raises(ValueError, match="size must be >= 1"):
        _Base(0)
    with pytest.raises(ValueError, match="size must be >= 1"):
        _Child(0)
    with pytest.raises(TypeError):
        _Base()
    with pytest.raises(TypeError):
        _Base(1, bogus=2)


def test_record_eq_repr_and_hash():
    assert _Base(2) == _Base(2, 0.5, 1) and _Base(2) != _Base(2, 0.25)
    assert _Child(2) != _Base(2)  # equal values, different classes
    assert repr(_Base(2)) == "_Base(size=2, rate=0.5, count=1)"
    assert hash(_Base(2)) == hash(_Base(2)) and len({_Base(2), _Base(2), _Base(3)}) == 2
    assert _Loose([1]) == _Loose([1]) and repr(_Loose([1])) == "_Loose(items=[1], note=None)"
    with pytest.raises(TypeError):
        hash(_Loose([1]))


def test_frozen_record_rejects_assignment():
    b = _Base(2)
    with pytest.raises(AttributeError, match="frozen"):
        b.size = 3
    with pytest.raises(AttributeError, match="frozen"):
        del b.rate
    loose = _Loose([])
    loose.note = "set"
    assert loose.note == "set"
