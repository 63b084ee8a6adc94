"""Shared numerical machinery for the samplers.

Everything here is deliberately plain Python: the collapsed samplers spend
their time on scalar count lookups, so count tables are lists of ints (or
floats for the expected-count twins used by the variational algorithms).
"""

import math
import random
import sys
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
    underlying generator is CPython's documented ``random.Random``.
    """

    def __init__(self, seed: int):
        self.seed_value = int(seed)
        super().__init__(self.seed_value)


def require_positive(values: dict) -> None:
    """Raise ValueError naming the first value that is not a finite number > 0.

    Written as ``not value > 0`` so that NaN, which fails every comparison,
    is rejected too.
    """
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive")
        if value == math.inf:
            raise ValueError(f"{name} must be finite")


def require_nonnegative(values: dict) -> None:
    """Raise ValueError naming the first value that is not a finite number >= 0."""
    for name, value in values.items():
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0")
        if value == math.inf:
            raise ValueError(f"{name} must be finite")


def require_at_least(values: dict, low: int = 1) -> None:
    """Raise ValueError naming the first count below ``low``."""
    for name, value in values.items():
        if not value >= low:
            raise ValueError(f"{name} must be >= {low}")


def run_chain(sampler, iterations: int, sweep_callback=None):
    """Sweep ``sampler`` ``iterations`` times and return ``sampler.estimate()``.

    Every sampler in the package runs through this loop.  The callback, if
    given, fires after each sweep as ``sweep_callback(sampler, index)`` (used
    by diagnostics and progress display).
    """
    for it in range(iterations):
        sampler.sweep()
        if sweep_callback is not None:
            sweep_callback(sampler, it)
    return sampler.estimate()


def sample_categorical(weights: Sequence[float], rng: random.Random) -> int:
    """Draw an index with probability weights[i] / sum(weights).

    Cumulative-sum inversion of a single uniform draw.  Weights must be
    nonnegative, free of NaN, and not all zero.
    """
    total = 0.0
    for w in weights:
        if w < 0.0 or w != w:
            raise SamplingError(f"invalid weight {w!r} in categorical draw")
        total += w
    if total <= 0.0:
        raise SamplingError("all categorical weights are zero")
    r = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    # float round-off can leave r microscopically past the final cumsum;
    # fall back to the last index carrying mass
    for i in range(len(weights) - 1, -1, -1):
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


def exp_normalize(log_weights: Sequence[float]) -> list[float]:
    """Turn log weights into weights, subtracting the max first so nothing overflows."""
    m = max(log_weights)
    return [math.exp(lw - m) for lw in log_weights]


class CountTables:
    """Sufficient statistics of a token-level topic assignment.

    doc_topic[m][k]   n_m^k   tokens of document m assigned to topic k
    topic_word[k][v]  n_k^v   tokens of word v assigned to topic k
    topic_total[k]    n_k^*   tokens assigned to topic k
    doc_total[m]      n_m^*   tokens of document m

    The same layout doubles as the real-valued expected-count tables of the
    CVB0 algorithms; pass ``real=True`` to start from float zeros.
    """

    def __init__(self, n_docs: int, n_topics: int, n_words: int, real: bool = False):
        zero = 0.0 if real else 0
        self.doc_topic = [[zero] * n_topics for _ in range(n_docs)]
        self.topic_word = [[zero] * n_words for _ in range(n_topics)]
        self.topic_total = [zero] * n_topics
        self.doc_total = [zero] * n_docs

    def __eq__(self, other) -> bool:
        return isinstance(other, CountTables) and vars(self) == vars(other)

    @property
    def n_topics(self) -> int:
        return len(self.topic_total)

    @property
    def n_words(self) -> int:
        return len(self.topic_word[0]) if self.topic_word else 0

    def increment(self, m: int, k: int, v: int, amount=1) -> None:
        self.doc_topic[m][k] += amount
        self.topic_word[k][v] += amount
        self.topic_total[k] += amount
        self.doc_total[m] += amount

    def decrement(self, m: int, k: int, v: int, amount=1) -> None:
        self.increment(m, k, v, -amount)

    def grand_total(self):
        return sum(self.topic_total)

    def check(self, tolerance: float = 0.0) -> None:
        """Assert the closure invariants; raises ValueError on violation."""
        for m, row in enumerate(self.doc_topic):
            if abs(sum(row) - self.doc_total[m]) > tolerance:
                raise ValueError(f"doc {m}: topic counts do not sum to doc total")
            if any(c < -tolerance for c in row):
                raise ValueError(f"doc {m}: negative count")
        for k, row in enumerate(self.topic_word):
            if abs(sum(row) - self.topic_total[k]) > tolerance:
                raise ValueError(f"topic {k}: word counts do not sum to topic total")
            if any(c < -tolerance for c in row):
                raise ValueError(f"topic {k}: negative count")
        if abs(sum(self.doc_total) - sum(self.topic_total)) > tolerance:
            raise ValueError("doc totals and topic totals disagree")


def counts_from_assignments(docword: Sequence[Sequence[int]], z: Sequence[Sequence[int]],
                            n_topics: int, n_words: int,
                            rows: Sequence[Sequence[int]] | None = None,
                            n_rows: int | None = None) -> CountTables:
    """Build fresh count tables from per-token topic assignments.

    Row m of ``doc_topic`` and ``doc_total`` counts document m, unless
    ``rows[m][n]`` in [0, n_rows) names a row for each token (in ATM its
    author, in PTM its document's pseudo document).
    """
    if rows is None:
        n_rows = len(docword)
    tables = CountTables(n_rows, n_topics, n_words)
    doc_topic, topic_word = tables.doc_topic, tables.topic_word
    topic_total, doc_total = tables.topic_total, tables.doc_total
    for m, doc in enumerate(docword):
        zm = z[m]
        rm = [m] if rows is None else rows[m]
        if len(zm) != len(doc) or rows is not None and len(rm) != len(doc):
            raise ValueError(f"doc {m}: topics or rows do not match its {len(doc)} tokens")
        if doc and not (0 <= min(zm) and max(zm) < n_topics and 0 <= min(rm)
                        and max(rm) < n_rows):
            raise ValueError(f"doc {m}: a topic or row out of range "
                             f"[0, {n_topics}) x [0, {n_rows})")
        if rows is None:
            row = doc_topic[m]
            for v, k in zip(doc, zm):
                row[k] += 1
                topic_word[k][v] += 1
                topic_total[k] += 1
            doc_total[m] = len(doc)
            continue
        for v, k, r in zip(doc, zm, rm):
            doc_topic[r][k] += 1
            topic_word[k][v] += 1
            topic_total[k] += 1
            doc_total[r] += 1
    return tables


def expected_counts(docword: Sequence[Sequence[int]], gamma: Sequence[Sequence[Sequence[float]]],
                    n_topics: int, n_words: int) -> CountTables:
    """Real-valued count tables of per-token responsibilities gamma[m][n][k].

    Every cell adds the responsibilities in token order, then topic order,
    so float round-off is the same wherever the tables are built.
    """
    tables = CountTables(len(docword), n_topics, n_words, real=True)
    topic_word, topic_total, doc_total = tables.topic_word, tables.topic_total, tables.doc_total
    for m, doc in enumerate(docword):
        row = tables.doc_topic[m]
        total = 0.0
        for v, g in zip(doc, gamma[m]):
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
