import math

import pytest

from topicmodels import lda
from topicmodels.core import SeededRng
from topicmodels.evaluation import (average_coherence, document_sets, running_coherence,
                                    topic_coherence, top_word_ids)


def test_coherence_hand_count_equal_docs():
    # D(A)=2, D(A,B)=1: C = log((1+1)/2) = 0
    docword = [[0, 1], [0], [2]]
    assert topic_coherence(docword, [0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_coherence_hand_count_log_half():
    # D(A)=4, D(A,B)=1: C = log((1+1)/4) = log 0.5
    docword = [[0], [0], [0], [0, 1]]
    assert topic_coherence(docword, [0, 1]) == pytest.approx(math.log(0.5), rel=1e-12)


def test_coherence_three_words_hand_count():
    # docs: {0,1,2}, {0,1}, {0}, {2}
    docword = [[0, 1, 2], [0, 1], [0], [2]]
    # ordered top words [0, 1, 2]:
    #   n=1 (v=1): pair with 0 -> log((2+1)/3)
    #   n=2 (v=2): pairs with 0 -> log((1+1)/3); with 1 -> log((1+1)/2)
    want = math.log(3 / 3) + math.log(2 / 3) + math.log(2 / 2)
    assert topic_coherence(docword, [0, 1, 2]) == pytest.approx(want, rel=1e-12)


def test_coherence_order_matters_in_denominator():
    # the conditioning word is the earlier-ranked one
    docword = [[0, 1], [0], [0], [1, 0], [1]]
    c_01 = topic_coherence(docword, [0, 1])  # D(1,0)+1 over D(0)=4
    c_10 = topic_coherence(docword, [1, 0])  # over D(1)=3
    assert c_01 == pytest.approx(math.log(3 / 4), rel=1e-12)
    assert c_10 == pytest.approx(math.log(3 / 3), rel=1e-12)
    assert c_01 != c_10


def test_coherence_single_word_is_zero():
    assert topic_coherence([[0], [0, 1]], [0]) == 0.0


def test_coherence_counts_documents_not_tokens():
    docword = [[0, 0, 0, 1, 1]]  # repeated tokens, one document
    assert topic_coherence(docword, [0, 1]) == pytest.approx(math.log(2 / 1), rel=1e-12)


def test_coherence_unseen_word_error_names_word():
    with pytest.raises(ValueError, match="7"):
        topic_coherence([[0, 1]], [0, 7])


def test_coherence_permutation_invariant_in_documents():
    rng = SeededRng(2)
    docword = [[rng.randrange(6) for _ in range(rng.randrange(1, 6))] for _ in range(12)]
    docword = [d for d in docword]
    top = [0, 1, 2, 3]
    for d in docword:
        d.extend(top)  # ensure every listed word occurs
    base = topic_coherence(docword, top)
    shuffled = list(docword)
    rng.shuffle(shuffled)
    assert topic_coherence(shuffled, top) == pytest.approx(base, rel=1e-12)


def test_top_word_ids_tie_break_by_index():
    assert top_word_ids([0.2, 0.5, 0.2, 0.1], 3) == [1, 0, 2]


def test_top_word_ids_stable_tie_break():
    assert top_word_ids([0.1, 0.4, 0.4, 0.2], 3) == [1, 2, 3]
    assert top_word_ids([1.0], 5) == [0]


def test_top_word_ids_equals_full_sort():
    rng = SeededRng(11)
    for _ in range(200):
        size = rng.randrange(1, 30)
        # three probability levels, so most rows are full of ties
        row = [rng.choice((0.0, 0.25, 0.5)) for _ in range(size)]
        want_order = sorted(range(size), key=lambda v: (-row[v], v))
        for n in range(1, size + 5):
            assert top_word_ids(row, n) == want_order[:n]


@pytest.mark.parametrize("smooth", [0.01, 1.0, 1e100])
def test_top_word_ids_of_a_sparse_row_equal_the_full_sort(smooth):
    # smoothed rows of random sparse counts: few count levels, so nonzero
    # cells tie; rows with fewer nonzero cells than n; n past V.  At 1e100 a
    # count no longer moves its cell, so the nonzero cells tie with the floor
    rng = SeededRng(17)
    counts = [[], [0] * 9, [3] * 6, [0, 4, 0, 4, 0, 0]]  # empty, all zero, no zero
    for _ in range(300):
        size = rng.randrange(1, 40)
        row = [0] * size
        for v in rng.sample(range(size), rng.randrange(size + 1)):
            row[v] = rng.choice((1, 2, 2, 5))
        counts.append(row)
    rows = lda.smoothed_rows(counts, [sum(row) for row in counts], smooth, ranked=True)
    assert sum(isinstance(row, lda.SparseRow) for row in rows) > 100
    for row in rows:
        want = sorted(range(len(row)), key=row.__getitem__, reverse=True)
        for n in range(len(row) + 3):
            assert top_word_ids(row, n) == want[:n]


def test_document_sets_are_bitsets_of_documents():
    docword = [[0, 1], [1], [2, 2], [1, 0]]
    assert document_sets(docword, [1, 2, 5, 1]) == {1: 0b1011, 2: 0b0100, 5: 0}
    assert document_sets([], [3]) == {3: 0}


def _reference_coherence(docword, top):
    """The score restated with Python sets of document ids."""
    docs = {v: {m for m, doc in enumerate(docword) if v in doc} for v in top}
    score = 0.0
    for n in range(1, len(top)):
        for l in range(n):
            score += math.log((len(docs[top[n]] & docs[top[l]]) + 1) / len(docs[top[l]]))
    return score


@pytest.mark.parametrize("seed", range(5))
def test_average_coherence_equals_mean_of_single_topic_scores(seed):
    rng = SeededRng(seed)
    n_words = 14
    docword = [[rng.randrange(n_words) for _ in range(rng.randrange(1, 9))]
               for _ in range(70)]
    docword.append(list(range(n_words)))  # every word occurs somewhere
    # few distinct levels: rows tie, top lists overlap, one topic repeats
    phi = [[rng.choice((0.05, 0.1, 0.2)) for _ in range(n_words)] for _ in range(6)]
    phi.append(list(phi[2]))
    top_ns = (1, 2, 5, 9, n_words, n_words + 3)
    for n in top_ns:
        single = [topic_coherence(docword, top_word_ids(row, n)) for row in phi]
        assert average_coherence(docword, phi, n) == sum(single) / len(single)
        tops = [sorted(range(n_words), key=lambda v: (-row[v], v))[:n] for row in phi]
        assert single == [_reference_coherence(docword, top) for top in tops]
    # all N from one ranking: the same floats as one call per N, in the order asked
    mixed = [5, n_words + 3, 1, 9, 5]
    assert average_coherence(docword, phi, mixed) == [average_coherence(docword, phi, n)
                                                      for n in mixed]


def test_running_coherence_scores_every_prefix():
    rng = SeededRng(6)
    docword = [[rng.randrange(9) for _ in range(5)] for _ in range(30)] + [list(range(9))]
    top = [4, 0, 7, 2, 8, 1]
    assert running_coherence(docword, top) == [_reference_coherence(docword, top[:j])
                                               for j in range(len(top) + 1)]
    assert running_coherence(docword, []) == [0.0]


def test_topic_coherence_accepts_sets_of_a_superset():
    rng = SeededRng(4)
    docword = [[rng.randrange(9) for _ in range(5)] for _ in range(30)] + [list(range(9))]
    shared = document_sets(docword, range(9))
    for top in ([3, 1, 4], [8, 0, 2, 7, 5], [6]):
        assert topic_coherence(docword, top, shared) == topic_coherence(docword, top)


def test_average_coherence_unseen_top_word_names_it():
    with pytest.raises(ValueError, match="word id 2"):
        average_coherence([[0, 1], [1]], [[0.3, 0.2, 0.5]], 2)


def test_average_coherence_k1_and_identical_topics():
    docword = [[0, 1], [0], [2, 1]]
    phi_row = [0.5, 0.3, 0.2]
    single = average_coherence(docword, [phi_row], 2)
    assert single == pytest.approx(topic_coherence(docword, [0, 1]), rel=1e-12)
    assert average_coherence(docword, [phi_row, phi_row], 2) == pytest.approx(single)


def test_average_coherence_rejects_bad_top_n():
    for top_n in (0, [2, 0], []):
        with pytest.raises(ValueError, match="top_n must be >= 1"):
            average_coherence([[0]], [[1.0]], top_n)
