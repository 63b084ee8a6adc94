"""Shared numerical machinery for the samplers.

Everything here is deliberately plain Python: the collapsed samplers spend
their time on scalar count lookups, so count tables are lists of ints (or
floats for the expected-count twins used by the variational algorithms).
"""

import math
import random
import sys
from bisect import bisect_right
from itertools import accumulate, chain, pairwise, repeat
from operator import sub
from typing import NamedTuple, Sequence


class _Missing:
    def __repr__(self) -> str:
        return "MISSING"


MISSING = _Missing()  # the default of a record field that has none


class Field(NamedTuple):
    name: str
    type: object     # the annotation itself, e.g. int or float
    default: object  # MISSING if the field has none


def record(cls=None, *, frozen: bool = False):
    """Class decorator: a small stand-in for ``dataclasses.dataclass``.
    Importing that module (with ``inspect``) and running its decorator took
    most of the import time of ``topicmodels.cli``, which every CLI call pays.

    The fields are the class annotations over the MRO, base class first; a
    subclass that annotates a field again replaces its default but keeps its
    place.  The class gets an ``__init__`` taking the fields in order (then
    calling ``__post_init__`` if there is one), ``__eq__`` and ``__repr__``;
    a frozen class also rejects assignment and gets a ``__hash__``.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    found = {}
    for klass in reversed(cls.__mro__):
        # the attribute, not the class __dict__: since 3.10 it gives only the
        # class's own annotations, and from 3.14 (PEP 649) the __dict__ holds
        # __annotate__ instead of __annotations__ until the attribute is read
        for name, kind in getattr(klass, "__annotations__", {}).items():
            found[name] = Field(name, kind, vars(klass).get(name, MISSING))
    cls._record_fields = tuple(found.values())
    names = tuple(found)
    params = [n if f.default is MISSING else f"{n}=_default_{n}" for n, f in found.items()]
    assign = "_set(self, {0!r}, {0})" if frozen else "self.{0} = {0}"
    body = [assign.format(n) for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    scope = {f"_default_{n}": f.default for n, f in found.items()}
    scope["_set"] = object.__setattr__
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def values(self) -> tuple:
        return tuple(getattr(self, n) for n in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    cls.__eq__, cls.__repr__ = __eq__, __repr__
    cls.__hash__ = (lambda self: hash(values(self))) if frozen else None
    if frozen:
        cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


def fields(cls) -> tuple:
    """The ``Field``s of a ``record`` class, in ``__init__`` order."""
    return cls._record_fields


# the logging format warn() puts on the root logger (through logging.basicConfig,
# so not where logging is configured already); None leaves logging alone
warning_format: str | None = None


def warn(name: str, msg: str, *args) -> None:
    """``logging.getLogger(name).warning(msg, *args)``, importing ``logging``
    only when a warning is issued: most runs issue none, and the import (with
    ``traceback``) costs a CLI call about as much as importing the package."""
    import logging
    if warning_format is not None:
        logging.basicConfig(stream=sys.stderr, format=warning_format)
    logging.getLogger(name).warning(msg, *args)


class SamplingError(ValueError):
    """Raised when a categorical draw is requested from an invalid weight vector."""


class SeededRng(random.Random):
    """Mersenne Twister seeded with a fixed 64-bit value.

    Identical seeds give identical draw sequences on every platform; the
    underlying generator is CPython's documented ``random.Random``.  A
    negative seed raises ValueError: ``random.Random`` seeds from its
    absolute value, so it would repeat the chain of its positive twin.
    """

    def __init__(self, seed: int):
        self.seed_value = int(seed)
        if self.seed_value < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed_value}")
        super().__init__(self.seed_value)


def draw_below(rng: random.Random, n: int, count: int) -> list[int]:
    """``[rng.randrange(n) for _ in range(count)]``, the same ints and rng
    state after: the loop of CPython's ``Random._randbelow_with_getrandbits``
    (draw n.bit_length() bits until they fall below n) at C speed, in
    batches no larger than the draws still missing, so none overshoots.
    ``rng.choice(seq)`` is ``seq[draw_below(rng, len(seq), 1)[0]]``."""
    if n < 1:
        raise ValueError(f"cannot draw below {n}")
    bits, getrandbits = n.bit_length(), rng.getrandbits
    out = []
    while len(out) < count:
        out += filter(n.__gt__, map(getrandbits, repeat(bits, count - len(out))))
    return out


def draw_each(rng: random.Random, n: int, groups: Sequence[Sequence]) -> list[list[int]]:
    """``[[rng.randrange(n) for _ in g] for g in groups]``, in one ``draw_below``."""
    flat = draw_below(rng, n, sum(map(len, groups)))
    return [flat[a:b] for a, b in pairwise(accumulate(map(len, groups), initial=0))]


# The largest prior parameter accepted.  Long before it a count vanishes in
# n + a (from a > 2^53 n on), and from about 1.8e308 / K a sum K a overflows
# to inf, which turns an estimate into zeros or a division by zero.
MAX_PRIOR = 1e100


def _require_at_most_max_prior(name: str, value: float) -> None:
    if value == math.inf:
        raise ValueError(f"{name} must be finite")
    if value > MAX_PRIOR:
        raise ValueError(f"{name} must be at most {MAX_PRIOR:g}")


def require_positive(values: dict) -> None:
    """Raise ValueError naming the first value that is not a number in
    (0, MAX_PRIOR].

    Written as ``not value > 0`` so that NaN, which fails every comparison,
    is rejected too.
    """
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive")
        _require_at_most_max_prior(name, value)


def require_nonnegative(values: dict) -> None:
    """Raise ValueError naming the first value that is not a number in
    [0, MAX_PRIOR]."""
    for name, value in values.items():
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0")
        _require_at_most_max_prior(name, value)


def require_at_least(values: dict, low: int = 1) -> None:
    """Raise ValueError naming the first count below ``low``."""
    for name, value in values.items():
        if not value >= low:
            raise ValueError(f"{name} must be >= {low}")


def run_chain(sampler, iterations: int, sweep_callback=None):
    """Sweep ``sampler`` ``iterations`` times and return ``sampler.estimate()``.

    Every sampler in the package runs through this loop.  The callback, if
    given, fires after each sweep as ``sweep_callback(sampler, index)`` (used
    by diagnostics and progress display).  ``iterations`` below 1 raises
    ValueError before any sweep.
    """
    require_at_least({"iterations": iterations})
    for it in range(iterations):
        sampler.sweep()
        if sweep_callback is not None:
            sweep_callback(sampler, it)
    return sampler.estimate()


def fold_sum(values) -> float:
    """Add float ``values`` one by one, left to right, as the builtin ``sum()``
    did before Python 3.12.  From 3.12 ``sum()`` compensates float round-off,
    so every float sum that reaches an output or a draw goes through here to
    give the same bytes on every supported Python."""
    acc = 0.0
    for x in values:
        acc += x
    return acc


def sample_categorical(weights: Sequence[float], rng: random.Random) -> int:
    """Draw an index with probability weights[i] / sum(weights).

    Cumulative-sum inversion of a single uniform draw, found by bisect over
    the running sums.  Weights must be nonnegative, free of NaN, and not all
    zero.
    """
    cumulative = list(accumulate(weights))
    # a NaN weight makes the final sum NaN, which fails the first test
    if not (cumulative and cumulative[-1] > 0.0) or min(weights) < 0.0:
        raise SamplingError("categorical weights must be nonnegative numbers, not all zero")
    i = bisect_right(cumulative, rng.random() * cumulative[-1])
    if i < len(cumulative):
        return i
    # float round-off can leave the draw microscopically past the final sum;
    # fall back to the last index carrying mass
    for i in range(len(cumulative) - 1, -1, -1):
        if weights[i] > 0.0:
            return i
    raise SamplingError("unreachable: no positive weight found")


def log_rising_factorial(x: float, n: int) -> float:
    """log of x(x+1)...(x+n-1), i.e. sum_{j=0}^{n-1} log(x+j).

    Equals lgamma(x+n) - lgamma(x).  Computed as the direct sum of logs,
    which is exact enough for the short products the samplers need and
    never overflows.
    """
    if x <= 0.0:
        raise ValueError(f"log_rising_factorial requires x > 0, got {x}")
    if n < 0:
        raise ValueError(f"log_rising_factorial requires n >= 0, got {n}")
    acc = 0.0
    for j in range(n):
        acc += math.log(x + j)
    return acc


class LogRisingMemo(dict):
    """log_rising_factorial(n + offset, c), memoised by the integer pair (n, c).

    Every sampler that needs rising factorials evaluates them at an integer
    count plus a constant offset (a smoothing prior), so a lookup returns
    the very float the direct sum gives.  The memo never outgrows the corpus:
    n is a count of tokens (at most the corpus total N) and c a multiplicity
    within one document or sentence (at most its length L), so it holds at
    most (N + 1) * (L + 1) entries however long the chain runs.
    """

    __slots__ = ("offset",)

    def __init__(self, offset: float):
        super().__init__()
        self.offset = offset

    def __missing__(self, key):
        n, c = key
        value = self[key] = log_rising_factorial(n + self.offset, c)
        return value


def log_unit_weights(logs: Sequence[float], index: Sequence[dict], totals: Sequence[int],
                     items: Sequence[tuple], n: int, item_logs: LogRisingMemo,
                     total_logs: LogRisingMemo) -> list[float]:
    """Per candidate k, logs[k] - log rising(totals[k] + B, n), plus
    log rising(x + b, c) - log rising(b, c) for each (v, c) in ``items``
    whose word index ``index[v]`` (candidate -> count) holds k at count x.

    The log weight, up to a constant, of giving one label to a whole unit
    of n tokens with multiset ``items``: a document to a DMM or DPMM
    cluster, a sentence to a Sentence-LDA topic, a document's topic counts
    to a PTM pseudo document.  b and B are the offsets of ``item_logs`` and
    ``total_logs``.  It is the full log weight
      logs[k] + sum over (v, c) of log rising(n_kv + b, c) - log rising(totals[k] + B, n)
    minus sum over (v, c) of log rising(b, c), which is the same for every
    candidate and cancels when the weights are normalised: a candidate that
    holds none of the unit's words takes only its first two terms, computed
    at C speed, and the index adds the rest for the candidates it names.
    A word seen once adds log(x + b) - log(b), the floats the memo holds.
    A caller passes logs[k] = -inf for a candidate with no prior mass, so
    no log of 0 is taken here.
    """
    out = list(map(sub, logs, map(total_logs.__getitem__, zip(totals, repeat(n)))))
    b = item_logs.offset
    log_b = item_logs[0, 1]
    log = math.log
    for v, c in items:
        if c == 1:
            for k, x in index[v].items():
                out[k] += log(x + b) - log_b
        else:
            base = item_logs[0, c]
            for k, x in index[v].items():
                out[k] += item_logs[x, c] - base
    return out


def exp_normalize(log_weights: Sequence[float]) -> list[float]:
    """Turn log weights into weights, subtracting the max first so nothing overflows."""
    return list(map(math.exp, map(sub, log_weights, repeat(max(log_weights)))))


class CountTables:
    """Sufficient statistics of a token-level topic assignment.

    doc_topic[m][k]   n_m^k   tokens of document m assigned to topic k
    topic_word[k][v]  n_k^v   tokens of word v assigned to topic k
    topic_total[k]    n_k^*   tokens assigned to topic k
    doc_total[m]      n_m^*   tokens of document m

    The same layout doubles as the real-valued expected-count tables of the
    CVB0 algorithms; pass ``real=True`` to start from float zeros, and
    ``n_words=None`` for no ``topic_word`` (n_kv kept in a word index).
    """

    def __init__(self, n_docs: int, n_topics: int, n_words: int | None, real: bool = False):
        zero = 0.0 if real else 0
        self.doc_topic = [[zero] * n_topics for _ in range(n_docs)]
        if n_words is not None:
            self.topic_word = [[zero] * n_words for _ in range(n_topics)]
        self.topic_total = [zero] * n_topics
        self.doc_total = [zero] * n_docs

    def __eq__(self, other) -> bool:
        return isinstance(other, CountTables) and vars(self) == vars(other)

    @property
    def n_topics(self) -> int:
        return len(self.topic_total)

    def check(self, tolerance: float = 0.0) -> None:
        """Assert the closure invariants; raises ValueError on violation."""
        for m, row in enumerate(self.doc_topic):
            if abs(sum(row) - self.doc_total[m]) > tolerance:
                raise ValueError(f"doc {m}: topic counts do not sum to doc total")
            if any(c < -tolerance for c in row):
                raise ValueError(f"doc {m}: negative count")
        for k, row in enumerate(getattr(self, "topic_word", ())):
            if abs(sum(row) - self.topic_total[k]) > tolerance:
                raise ValueError(f"topic {k}: word counts do not sum to topic total")
            if any(c < -tolerance for c in row):
                raise ValueError(f"topic {k}: negative count")
        if abs(sum(self.doc_total) - sum(self.topic_total)) > tolerance:
            raise ValueError("doc totals and topic totals disagree")


def index_rows(index: Sequence[dict], n_rows: int) -> list[list[int]]:
    """Dense rows of a word index (for every word v, a dict from each row k
    holding it to its count): rows[k][v] = index[v].get(k, 0), over
    ``len(index)`` words."""
    rows = [[0] * len(index) for _ in range(n_rows)]
    for v, counts in enumerate(index):
        for k, c in counts.items():
            rows[k][v] = c
    return rows


def counts_from_assignments(docword: Sequence[Sequence[int]], z: Sequence[Sequence[int]],
                            n_topics: int, n_words: int,
                            rows: Sequence[Sequence[int]] | None = None,
                            n_rows: int | None = None) -> tuple[CountTables, list[dict]]:
    """Fresh count tables of per-token topic assignments, and their word
    index: for every word v, a dict from each topic k holding it to n_kv,
    keys in order of first use (the order the SparseLDA walk follows).

    Row m of ``doc_topic`` and ``doc_total`` counts document m, unless
    ``rows[m][n]`` in [0, n_rows) names a row for each token (in ATM its
    author).  One pass over the tokens counts the rows and the index, the
    only home of n_kv (HDP and ATM build dense rows with ``index_rows``);
    ``topic_total`` sums the rows.
    """
    if rows is None:
        n_rows = len(docword)
    lengths = list(map(len, docword))
    if lengths != list(map(len, z)) or rows is not None and lengths != list(map(len, rows)):
        raise ValueError("topics or rows do not match the documents' tokens")
    for name, labels, high in (("topic", z, n_topics), ("row", rows, n_rows)):
        used = set(chain.from_iterable(labels or ()))
        if used and not (0 <= min(used) and max(used) < high):
            raise ValueError(f"a {name} out of range [0, {high})")
    tables = CountTables(n_rows, n_topics, None)
    doc_topic = tables.doc_topic
    index = [{} for _ in range(n_words)]
    of_word = index.__getitem__
    if rows is None:
        for doc, zm, row in zip(docword, z, doc_topic):
            for wt, k in zip(map(of_word, doc), zm):
                row[k] += 1
                wt[k] = wt.get(k, 0) + 1
    else:
        for doc, zm, rm in zip(docword, z, rows):
            for wt, k, r in zip(map(of_word, doc), zm, rm):
                doc_topic[r][k] += 1
                wt[k] = wt.get(k, 0) + 1
    # the column sums of doc_topic, from the zero row: K zeros when there is no row
    tables.topic_total = list(map(sum, zip(tables.topic_total, *doc_topic)))
    tables.doc_total = lengths if rows is None else list(map(sum, doc_topic))
    return tables, index


def expected_counts(docword: Sequence[Sequence[int]], gamma: Sequence[Sequence[Sequence[float]]],
                    n_topics: int, n_words: int) -> CountTables:
    """Real-valued count tables of per-token responsibilities gamma[m][n][k].

    Every cell adds the responsibilities in token order, then topic order,
    so float round-off is the same wherever the tables are built.  Raises
    ValueError naming the first document whose responsibilities are not one
    row of n_topics values per token.
    """
    if len(gamma) != len(docword):
        raise ValueError(f"responsibilities for {len(gamma)} documents, "
                         f"the corpus has {len(docword)}")
    tables = CountTables(len(docword), n_topics, n_words, real=True)
    topic_word, topic_total, doc_total = tables.topic_word, tables.topic_total, tables.doc_total
    for m, doc in enumerate(docword):
        gm = gamma[m]
        if len(gm) != len(doc) or any(len(g) != n_topics for g in gm):
            raise ValueError(f"doc {m}: responsibilities are not {len(doc)} rows "
                             f"of {n_topics} topics")
        row = tables.doc_topic[m]
        total = 0.0
        for v, g in zip(doc, gm):
            for k, gk in enumerate(g):
                row[k] += gk
                topic_word[k][v] += gk
                topic_total[k] += gk
                total += gk
        doc_total[m] = total
    return tables


def _within(got, want, tolerance: float) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_within(g, w, tolerance) for g, w in zip(got, want)))
    return abs(got - want) <= tolerance


def require_recount(owner, recount: dict, source: str, tolerance: float = 0.0,
                    prefix: str = "") -> None:
    """Raise ValueError naming the first table of ``owner`` that differs from
    its recount in ``recount`` (attribute name -> table).  A CountTables is
    compared table by table (the message names, say, ``tables.topic_word``);
    float cells may differ by ``tolerance``.
    """
    for name, want in recount.items():
        got = getattr(owner, name)
        if got == want:
            continue
        if isinstance(want, CountTables):
            require_recount(got, vars(want), source, tolerance, f"{prefix}{name}.")
        elif not (tolerance and _within(got, want, tolerance)):
            raise ValueError(f"{prefix}{name} disagrees with a recount of {source}")
