"""Topic-quality evaluation via the document co-occurrence coherence score.

For a topic's top words v_1..v_N (most probable first):

    C = sum_{n=2}^{N} sum_{l=1}^{n-1} log (D(v_n, v_l) + 1) / D(v_l)

where D counts documents, not tokens: D(v) is the number of documents
containing v and D(v_n, v_l) the number containing both.  The conditioning
word of each pair, v_l, is the earlier-ranked one, exactly as the score is
defined.

Document sets are int bitsets (bit m set when document m contains the
word), so D is ``bit_count()`` and a pair's D is one ``&``; both are exact
integer counts.
"""

import heapq
import math
from itertools import chain, filterfalse, islice
from typing import Iterable, Sequence

from .core import fold_sum


def document_sets(docword: Sequence[Sequence[int]], words: Iterable[int]) -> dict:
    """Map each listed word to the bitset of the documents containing it."""
    wanted = set(words)
    rows = {v: bytearray((len(docword) + 7) // 8) for v in wanted}
    for m, doc in enumerate(docword):
        byte, bit = m >> 3, 1 << (m & 7)
        for v in wanted.intersection(doc):
            rows[v][byte] |= bit
    return {v: int.from_bytes(row, "little") for v, row in rows.items()}


def running_coherence(docword: Sequence[Sequence[int]], top_words: Sequence[int],
                      sets: dict | None = None) -> list:
    """Coherence of every prefix of one ordered top-word list: item j is
    the score of the first j words, 0.0 for j < 2.

    The pairs of a prefix are the first pairs of the whole list, in the same
    order, so item j is the float that ``topic_coherence`` gives the first j
    words.  ``sets`` may be ``document_sets`` over any superset of
    ``top_words``, so several topics can share one corpus scan; by default
    it is built here.
    """
    if sets is None:
        sets = document_sets(docword, top_words)
    for v in top_words:
        if not sets[v]:
            raise ValueError(f"word id {v} occurs in no document")
    bits = [sets[v] for v in top_words]
    counts = [b.bit_count() for b in bits]
    score = 0.0
    scores = [score, score][:len(bits) + 1]  # no pair among fewer than two words
    for n in range(1, len(bits)):
        b_n = bits[n]
        for l in range(n):
            co = (b_n & bits[l]).bit_count()
            score += math.log((co + 1) / counts[l])
        scores.append(score)
    return scores


def topic_coherence(docword: Sequence[Sequence[int]], top_words: Sequence[int],
                    sets: dict | None = None) -> float:
    """Coherence of one ordered top-word list; 0.0 for fewer than two words.

    ``sets`` is as in ``running_coherence``.
    """
    return running_coherence(docword, top_words, sets)[-1]


def top_word_ids(phi_row: Sequence[float], n: int) -> list:
    """Indices of the n largest probabilities, ties broken by vocabulary index.

    ``heapq.nlargest`` equals ``sorted(..., reverse=True)[:n]``, and that
    sort is stable, so equal entries keep index order and the top n are a
    prefix of the top n + 1.

    A ``lda.SparseRow`` is ranked over its support, the cells of nonzero
    count, in O(nnz + n log n): every other cell holds the row's floor, so
    the top n are the support by value, then the lowest-index cells off it.
    That holds while the last support cell chosen exceeds the floor; at a
    prior so large that a count no longer moves its cell, the row is
    scanned whole.  Any other row is ranked as a list: a list hands back
    its stored floats, where an ``array('d')`` key would box a new float
    for every comparison.
    """
    support = getattr(phi_row, "support", None)
    if support is not None:
        top = heapq.nlargest(n, support, key=phi_row.__getitem__)
        off = filterfalse(set(support).__contains__, range(len(phi_row)))
        first = next(off)  # the support holds at most half the row
        if not top or phi_row[top[-1]] > phi_row[first]:
            return top + list(islice(chain((first,), off), max(n - len(top), 0)))
    values = list(phi_row)
    return heapq.nlargest(n, range(len(values)), key=values.__getitem__)


def average_coherence(docword: Sequence[Sequence[int]], phi: Sequence[Sequence[float]],
                      top_n: int | Sequence[int]) -> float | list:
    """Mean topic coherence over all topics, each using its top_n words.

    ``top_n`` may also be a sequence of N values; the result is then the
    list of means, one per N.  Every topic is ranked and scored once, at the
    largest N, and the corpus is scanned once, for the union of those words;
    each N reads the running score after the topic's first N words, so every
    mean is the float that a call for that N alone gives.
    """
    top_ns = [top_n] if isinstance(top_n, int) else list(top_n)
    if not top_ns or min(top_ns) < 1:
        raise ValueError("top_n must be >= 1")
    tops = [top_word_ids(row, max(top_ns)) for row in phi]
    sets = document_sets(docword, (v for top in tops for v in top))
    running = [running_coherence(docword, top, sets) for top in tops]
    means = [fold_sum(scores[min(n, len(scores) - 1)] for scores in running) / len(tops)
             for n in top_ns]
    return means[0] if isinstance(top_n, int) else means
