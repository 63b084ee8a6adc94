import itertools
import math
import tracemalloc
from array import array

import pytest

from topicmodels import lda
from topicmodels.core import SeededRng, counts_from_assignments, index_rows, run_chain
from topicmodels.corpus import parse_plain
from topicmodels.evaluation import top_word_ids
from topicmodels.lda import LdaCvb0, LdaGibbsSampler, LdaHyper
from topicmodels.short_text import PtmHyper, PtmSampler

from first_draw import (assert_shares_match, lda_token_shares, put_lda_token_first, rerun_sweep,
                        sweep_draw_shares, uniform_for, with_state, without_token)
from oracles import assert_close_distribution, lda_token_oracle, lda_joint_log, tv_distance


def first_token_shares(docs, z, K, alpha, beta):
    """``lda_token_shares`` of a sampler over ``docs`` with assignments ``z``."""
    sampler = LdaGibbsSampler(parse_plain(docs), LdaHyper(K, alpha, beta), SeededRng(0))
    sampler.z = z
    return lda_token_shares(sampler)


def test_full_conditional_worked_example():
    # K=2, V=2, alpha=beta=1, excluded counts: n_m=[1,0]; topic 0 holds one
    # token of word 0, topic 1 one token of word 1 -> normalized [0.8, 0.2]
    shares = first_token_shares(["w0 w0", "w1"], [[1, 0], [1]], 2, 1.0, 1.0)
    assert shares == pytest.approx({0: 0.8, 1: 0.2}, rel=1e-12)


def test_full_conditional_k1():
    assert first_token_shares(["w1 w0 w0 w1"], [[0] * 4], 1, 0.5, 0.5) == {0: 1.0}


def test_full_conditional_all_zero_counts_uniform():
    # a one-token corpus: with the token excluded every count is zero
    for K in (2, 5):
        shares = first_token_shares(["w0"], [[K - 1]], K, 0.3, 0.7)
        assert shares == pytest.approx({k: 1.0 / K for k in range(K)})


def test_full_conditional_matches_scalar_oracle():
    rng = SeededRng(11)
    for _ in range(8):
        K, V = rng.randrange(2, 5), rng.randrange(2, 6)
        docword = [[rng.randrange(V) for _ in range(rng.randrange(1, 7))] for _ in range(3)]
        corpus = parse_plain([" ".join(f"w{v}" for v in doc) for doc in docword])
        sampler = LdaGibbsSampler(corpus, LdaHyper(K, 0.3, 0.05), rng)
        tables = put_lda_token_first(sampler, 1, 0)
        v = corpus.docword[0][0]
        want = lda_token_oracle(tables["doc_topic"][0], tables["doc_total"][0],
                       [tables["topic_word"][kk][v] for kk in range(K)],
                       tables["topic_total"], 0.3, 0.05, corpus.n_words)
        assert_shares_match(lda_token_shares(sampler), want)


# The SparseLDA walk at K = 20.  The first document holds topics 3, 7 and 12;
# its first token is topic 3's only one there, and its second and third
# tokens are words seen once, so q is 0 for them once they are taken out and
# every draw of theirs falls in the document's listed topics or the rest.
WALK_TEXTS = ["apple once lone date date cherry",
              "apple cherry date fig", "fig grape apple date", "grape fig cherry"]
WALK_Z = [[3, 7, 12, 7, 12, 12], [15, 3, 0, 19], [5, 5, 9, 7], [1, 5, 12]]
WALK_K, WALK_ALPHA, WALK_BETA = 20, 0.5, 0.1
# a strict subset of the topics for the first document, as Labeled LDA
# passes its labels: its own topics, topic 15 and three it does not hold
WALK_ALLOWED = [[0, 3, 7, 9, 12, 15, 18]] + [list(range(WALK_K))] * 3


def scripted_walk_shares(allowed, moves: dict) -> tuple:
    """The shares of the first document's token ``len(moves)`` after a
    script moves each token n in ``moves`` to topic ``moves[n]``, and its
    ``lda_token_oracle`` weights, 0.0 outside the document's topics."""
    corpus = parse_plain(WALK_TEXTS)
    sampler = LdaGibbsSampler(corpus, LdaHyper(WALK_K, WALK_ALPHA, WALK_BETA), SeededRng(0),
                              allowed=allowed)
    sampler.z = [list(zm) for zm in WALK_Z]
    n = len(moves)
    run, prefix = rerun_sweep(sampler), ()
    for i, k in moves.items():
        prefix += (uniform_for(run, lambda: sampler.z[0][i], k, prefix),)
    shares = sweep_draw_shares(sampler, prefix, lambda: sampler.z[0][n], run=run)
    assert sampler.z[0][:n] == list(moves.values())
    v = corpus.docword[0][n]
    tables = without_token(sampler, n)
    column = [row[v] for row in tables["topic_word"]]
    assert not any(column)  # q = 0: no other token holds the word
    want = lda_token_oracle(tables["doc_topic"][0], tables["doc_total"][0], column,
                            tables["topic_total"], WALK_ALPHA, WALK_BETA, corpus.n_words)
    topics = sampler.allowed[0] if allowed else range(WALK_K)
    return shares, [w if k in topics else 0.0 for k, w in enumerate(want)]


@pytest.mark.parametrize("allowed", [None, WALK_ALLOWED], ids=["unrestricted", "allowed"])
def test_sparse_walk_after_a_topic_re_enters_the_document(allowed):
    # the script moves the first token to topic 15, new to the document, so
    # topic 3 drops to 0, then the second token back into topic 3: the
    # third token's draw walks 3, 7, 12 and 15, each listed once, then the
    # rest; a second entry for topic 3 would weigh it twice
    shares, want = scripted_walk_shares(allowed, {0: 15, 1: 3})
    assert_shares_match(shares, want)


def test_sparse_walk_second_draw_after_a_move_to_a_new_topic():
    # the script moves the first token to topic 15, new to the document, so
    # the second token's draw walks 3 (now at 0), 7, 12 and the appended 15,
    # then the rest without 15
    shares, want = scripted_walk_shares(None, {0: 15})
    assert_shares_match(shares, want)


@pytest.mark.parametrize("texts, z", [
    # three more tokens of apple, all in topic 3: q = x0 (n_3,apple - 1) > 0,
    # and a draw below it keeps topic 3 without taking the token out
    (["apple b apple c", "c apple d", "b d apple"], [[3, 7, 3, 12], [12, 3, 7], [0, 7, 3]]),
    # apple once: with the token out its value is 0, so q = 0 and every draw
    # walks s + r
    (["apple b c", "c b d", "b d c"], [[3, 7, 12], [12, 3, 7], [0, 7, 3]]),
], ids=["kept-q", "only-token"])
def test_sparse_draw_of_a_word_its_own_topic_holds_alone(texts, z):
    # the one-topic path of the SparseLDA draw, at K = 20: the first token's
    # word index holds its own topic, 3, and no other
    K, alpha, beta = 20, 0.5, 0.1
    corpus = parse_plain(texts)
    sampler = LdaGibbsSampler(corpus, LdaHyper(K, alpha, beta), SeededRng(0))
    sampler.z = z
    v = corpus.docword[0][0]
    assert list(sampler._counts()["word_topics"][v]) == [3]
    tables = without_token(sampler, 0)
    want = lda_token_oracle(tables["doc_topic"][0], tables["doc_total"][0],
                            [row[v] for row in tables["topic_word"]], tables["topic_total"],
                            alpha, beta, corpus.n_words)
    assert_shares_match(lda_token_shares(sampler), want)


def test_fit_gibbs_one_token_theta():
    corpus = parse_plain(["solo"])
    hyper = LdaHyper(n_topics=3, alpha=0.1, beta=0.01)
    fitted = run_chain(LdaGibbsSampler(corpus, hyper, SeededRng(0)), 5)
    row = sorted(fitted.theta[0], reverse=True)
    assert row[0] == pytest.approx((1 + 0.1) / (1 + 0.3))
    assert row[1] == pytest.approx(0.1 / 1.3)
    assert row[2] == pytest.approx(0.1 / 1.3)
    assert sum(fitted.theta[0]) == pytest.approx(1.0, abs=1e-9)


def test_fit_rejects_empty_corpus():
    corpus = parse_plain(["a"])
    corpus.docword = []
    with pytest.raises(ValueError):
        LdaGibbsSampler(corpus, LdaHyper(2), SeededRng(0))
    with pytest.raises(ValueError):
        LdaCvb0(corpus, LdaHyper(2), SeededRng(0))


def test_estimates_are_row_stochastic_and_positive():
    corpus = parse_plain(["a b c a", "c d", "a d d"])
    fitted = run_chain(LdaGibbsSampler(corpus, LdaHyper(4, 0.2, 0.3), SeededRng(5)), 20)
    for row in fitted.theta + fitted.phi:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)
        assert all(p > 0 for p in row)


def test_gibbs_counts_stay_consistent():
    corpus = parse_plain(["a b c a", "c d", "a d d b"])
    for K in (11, 12):
        sampler = LdaGibbsSampler(corpus, LdaHyper(K, 0.1, 0.1), SeededRng(3))
        for _ in range(10):
            sampler.sweep()
            sampler.check()
            assert sum(sampler.topic_total) == corpus.n_tokens


def test_gibbs_check_catches_stale_sparse_index():
    corpus = parse_plain(["a b c a", "c d", "a d d b"])
    sampler = LdaGibbsSampler(corpus, LdaHyper(12, 0.1, 0.1), SeededRng(3))
    sampler.sweep()
    sampler.check()
    v = corpus.docword[0][0]
    k = sampler.z[0][0]
    sampler.word_topics[v][k] += 1
    with pytest.raises(ValueError, match="word_topics"):
        sampler.check()
    sampler.word_topics[v][k] -= 1
    sampler.topic_total[k] += 1
    with pytest.raises(ValueError, match="topic_total"):
        sampler.check()


def test_gibbs_all_topics_allowed_is_the_unrestricted_chain():
    # a document allowed every topic walks all of the kernel's cached
    # coefficients, as an unrestricted one does: both draw the same chain
    corpus = parse_plain(["a b c a e f", "c d e", "a d d b f f"])
    K = 6
    free = LdaGibbsSampler(corpus, LdaHyper(K, 0.1, 0.1), SeededRng(8))
    every = LdaGibbsSampler(corpus, LdaHyper(K, 0.1, 0.1), SeededRng(8),
                            allowed=[list(range(K))] * corpus.n_docs)
    for _ in range(20):
        assert every.z == free.z
        assert every.word_topics == free.word_topics
        free.sweep()
        every.sweep()
    every.check()


def enumerated_posterior_tv(texts, K, alpha, beta, seed, sweeps, allowed=None):
    """TV distance between a Gibbs chain's visits and the brute-force
    posterior, each document's tokens within ``allowed[m]`` (every topic
    where ``allowed`` is None)."""
    corpus = parse_plain(texts)
    V = corpus.n_words
    sizes = [len(d) for d in corpus.docword]
    supports = [allowed[m] if allowed else range(K) for m, s in enumerate(sizes) for _ in range(s)]
    log_post = {}
    for flat in itertools.product(*supports):
        z, i = [], 0
        for size in sizes:
            z.append(list(flat[i:i + size]))
            i += size
        log_post[flat] = lda_joint_log(corpus.docword, z, K, V, alpha, beta)
    mx = max(log_post.values())
    exact = {k: math.exp(v - mx) for k, v in log_post.items()}
    total = sum(exact.values())
    exact = {k: v / total for k, v in exact.items()}

    sampler = LdaGibbsSampler(corpus, LdaHyper(K, alpha, beta), SeededRng(seed), allowed=allowed)
    for _ in range(500):
        sampler.sweep()
    counts = {}
    for _ in range(sweeps):
        sampler.sweep()
        key = tuple(k for zm in sampler.z for k in zm)
        counts[key] = counts.get(key, 0) + 1
    empirical = {k: c / sweeps for k, c in counts.items()}
    return sampler, tv_distance(empirical, exact)


def test_gibbs_matches_enumerated_posterior_mini():
    # 2 docs, 4 tokens, K=2: empirical assignment distribution vs brute force
    sampler, tv = enumerated_posterior_tv(["a b", "b a"], 2, 1.0, 1.0, 42, 30000)
    sampler.check()
    assert tv < 0.05


def test_gibbs_matches_enumerated_posterior_mini_sparse():
    # "sparse" allowed-topic rows: the mini corpus on K=3 with two allowed
    # topics per document, so the kernel walks a strict subset of the topics
    sampler, tv = enumerated_posterior_tv(["a b", "b a"], 3, 1.0, 1.0, 42, 30000,
                                          allowed=[[0, 2], [1, 2]])
    sampler.check()
    assert tv < 0.05


# "dense": every topic allowed; "sparse": the first document restricted to
# two of the three topics while the second keeps all three
@pytest.mark.parametrize("allowed", [None, [[0, 2], [0, 1, 2]]], ids=["dense", "sparse"])
def test_gibbs_matches_enumerated_posterior_k3(allowed):
    # K=3 with unequal alpha and beta, so every bucket of the kernel
    # carries a different share of the mass
    sampler, tv = enumerated_posterior_tv(["a b a", "c"], 3, 0.3, 0.5, 9, 30000, allowed)
    sampler.check()
    assert tv < 0.05


def test_cvb0_update_uniform_and_k1():
    # a one-token corpus: with the token's own mass excluded every expected
    # count is zero, so one sweep sets its row to the uniform one
    corpus = parse_plain(["w0"])
    solver = with_state(LdaCvb0(corpus, LdaHyper(4, 0.1, 0.1), SeededRng(0)),
                        gamma=[[[0.1, 0.2, 0.3, 0.4]]])
    solver.sweep()
    assert solver.gamma[0][0] == pytest.approx([0.25] * 4)
    solver1 = with_state(LdaCvb0(corpus, LdaHyper(1, 0.1, 0.1), SeededRng(0)), gamma=[[[1.0]]])
    solver1.sweep()
    assert solver1.gamma[0][0] == [1.0]


def test_cvb0_first_update_matches_scalar_oracle():
    # the first token's new row after one sweep is the token conditional over
    # the expected counts with that token's own responsibilities taken out
    rng = SeededRng(13)
    for _ in range(8):
        K = rng.randrange(2, 5)
        corpus = parse_plain([" ".join(f"w{rng.randrange(5)}" for _ in range(rng.randrange(1, 7)))
                              for _ in range(3)])
        solver = LdaCvb0(corpus, LdaHyper(K, 0.3, 0.05), rng)
        g, v = solver.gamma[0][0], corpus.docword[0][0]
        want = lda_token_oracle([solver.doc_topic[0][k] - g[k] for k in range(K)],
                                solver.doc_total[0] - 1,
                                [solver.topic_word[k][v] - g[k] for k in range(K)],
                                [solver.topic_total[k] - g[k] for k in range(K)],
                                0.3, 0.05, corpus.n_words)
        solver.sweep()
        assert_close_distribution(solver.gamma[0][0], want)
        assert sum(solver.gamma[0][0]) == pytest.approx(1.0, abs=1e-12)


def test_cvb0_one_sweep_matches_hand_iteration():
    # two tokens, K=2: replay the responsibility update arithmetic by hand
    corpus = parse_plain(["a b"])
    alpha, beta = 0.4, 0.2
    K, V = 2, 2
    init = [[[0.3, 0.7], [0.6, 0.4]]]
    solver = with_state(LdaCvb0(corpus, LdaHyper(K, alpha, beta), SeededRng(0)),
                        gamma=[[list(g) for g in init[0]]])
    solver.sweep()

    # hand iteration
    g = [list(r) for r in init[0]]
    n_mk = [g[0][k] + g[1][k] for k in range(K)]
    n_kv = [[g[0][k], g[1][k]] for k in range(K)]  # token 0 is word 0, token 1 word 1
    n_k = [n_mk[k] for k in range(K)]
    for n, v in ((0, 0), (1, 1)):
        ws = []
        for k in range(K):
            ex = g[n][k]
            ws.append((n_mk[k] - ex + alpha)
                      * (n_kv[k][v] - ex + beta) / (n_k[k] - ex + V * beta))
        t = sum(ws)
        new = [w / t for w in ws]
        for k in range(K):
            delta = new[k] - g[n][k]
            n_mk[k] += delta
            n_kv[k][v] += delta
            n_k[k] += delta
        g[n] = new

    for n in range(2):
        assert solver.gamma[0][n] == pytest.approx(g[n], rel=1e-12)


def test_cvb0_deterministic():
    corpus = parse_plain(["a b c", "b c d", "a d"])
    hyper = LdaHyper(3, 0.1, 0.01)
    a = run_chain(LdaCvb0(corpus, hyper, SeededRng(8)), 15)
    b = run_chain(LdaCvb0(corpus, hyper, SeededRng(8)), 15)
    assert a.theta == b.theta
    assert a.phi == b.phi


def test_cvb0_k1_phi_is_smoothed_frequency():
    corpus = parse_plain(["a a b", "b c"])
    beta = 0.5
    fitted = run_chain(LdaCvb0(corpus, LdaHyper(1, 0.1, beta), SeededRng(1)), 3)
    assert [row.tolist() for row in fitted.theta] == [[1.0], [1.0]]
    N, V = corpus.n_tokens, corpus.n_words
    freqs = [2, 2, 1]
    want = [(f + beta) / (N + V * beta) for f in freqs]
    assert fitted.phi[0] == pytest.approx(want, rel=1e-12)


def test_cvb0_conserves_totals_each_sweep():
    rng = SeededRng(21)
    docs = [" ".join(f"w{rng.randrange(8)}" for _ in range(rng.randrange(2, 9)))
            for _ in range(10)]
    corpus = parse_plain(docs)
    seen = []

    def callback(solver, it):
        for doc_gamma in solver.gamma:
            for g in doc_gamma:
                assert sum(g) == pytest.approx(1.0, abs=1e-9)
        total = sum(solver.topic_total)
        assert total == pytest.approx(corpus.n_tokens, abs=1e-6)
        seen.append(it)

    run_chain(LdaCvb0(corpus, LdaHyper(3, 0.1, 0.05), SeededRng(2)), 10, callback)
    assert len(seen) == 10


def test_top_word_ranking_scale_invariant():
    # ranking by probability is unchanged under scaling: argsort equality
    row = [0.4, 0.1, 0.3, 0.2]
    scaled = [10 * p for p in row]
    order = sorted(range(4), key=lambda v: (-row[v], v))
    order2 = sorted(range(4), key=lambda v: (-scaled[v], v))
    assert order == order2


def _traced_peak(build):
    """The rows ``build()`` returns, and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        rows = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return rows, peak


def _word_index(counts) -> list:
    """The word index (word v -> {topic k: n_kv > 0}) of dense count rows."""
    return [{k: row[v] for k, row in enumerate(counts) if row[v]} for v in range(len(counts[0]))]


def test_phi_estimate_allocates_eight_bytes_a_cell():
    # rows are array('d'), not lists of float objects (about 40 bytes a cell):
    # a Gibbs phi from its word index, and CVB0's from float counts
    K, V = 50, 2000
    counts = [[(k * v) % 7 for v in range(V)] for k in range(K)]
    index, totals = _word_index(counts), [sum(row) for row in counts]
    expected = [[c + 0.5 for c in row] for row in counts]
    expected_totals = [sum(row) for row in expected]
    for build in (lambda: lda.index_phi(index, totals, 0.01),
                  lambda: lda.smoothed_rows(expected, expected_totals, 0.01)):
        phi, peak = _traced_peak(build)
        assert len(phi) == K and all(len(row) == V for row in phi)
        assert peak < 12 * K * V, peak / (K * V)


def test_sparse_phi_estimate_stays_under_nine_bytes_a_cell():
    # rows with nonzero counts in 1% of their cells keep their support, 4
    # bytes a nonzero cell on top of the 8 of every cell
    K, V = 50, 2000
    counts = [[3 if (k + v) % 100 == 0 else 0 for v in range(V)] for k in range(K)]
    index, totals = _word_index(counts), [sum(row) for row in counts]
    phi, peak = _traced_peak(lambda: lda.index_phi(index, totals, 0.01))
    assert all(isinstance(row, lda.SparseRow) and len(row.support) == V // 100 for row in phi)
    assert peak < 9 * K * V, peak / (K * V)


def _assert_index_phi_is_the_formula(index, K, smooth) -> list:
    """``index_phi``'s rows, checked against the dense counts: the floats of
    ``smoothed_rows``, and a ``SparseRow`` that keeps the ascending ids of
    its nonzero counts exactly when the row has cells and at most half of
    them hold a nonzero count (else a plain ``array``)."""
    counts = index_rows(index, K)
    totals = [sum(row) for row in counts]
    got = lda.index_phi(index, totals, smooth)
    assert [row.tolist() for row in got] == [
        row.tolist() for row in lda.smoothed_rows(counts, totals, smooth)]
    for row, want in zip(got, counts):
        support = [v for v, c in enumerate(want) if c]
        if want and 2 * len(support) <= len(want):
            assert type(row) is lda.SparseRow and row.support == array("I", support)
        else:
            assert type(row) is array
    return got


def test_only_ranked_rows_of_few_nonzero_counts_keep_their_support():
    counts = [[0, 2, 0, 0], [0, 2, 1, 0], [0, 2, 1, 1], [1, 1, 1, 1], [0, 0, 0, 0]]
    ranked = _assert_index_phi_is_the_formula(_word_index(counts), len(counts), 0.1)
    assert [getattr(row, "support", None) for row in ranked] == [
        array("I", [1]), array("I", [1, 2]), None, None, array("I")]
    # theta rows are not ranked, so they carry no support
    assert all(type(row) is array
               for row in lda.smoothed_rows(counts, [sum(row) for row in counts], 0.1))


def test_smoothed_rows_equal_the_formula_bit_for_bit():
    # integer and float counts, zeros of both signs, an all-zero row and an
    # empty one (a link vocabulary of none)
    counts = [[0, 3, 0, 1], [0.0, -0.0, 2.5, 1e-17], [0, 0, 0], []]
    totals = [4, 2.5 + 1e-17, 0, 0]
    for smooth in (0.01, 0.5, 1e-12):
        want = [[(c + smooth) / (t + len(row) * smooth) for c in row]
                for row, t in zip(counts, totals)]
        assert [row.tolist() for row in lda.smoothed_rows(counts, totals, smooth)] == want


def _kinds(rows) -> list:
    return [(type(row), row.tolist(), getattr(row, "support", None)) for row in rows]


@pytest.mark.parametrize("smooth", [0.01, 0.5, 1e100])
def test_index_phi_equals_the_dense_rows(smooth):
    # over six words, topic 0 holds every word (no zero cell: a plain
    # array), topic 1 no token, topic 2 half the words (a SparseRow) and
    # topic 3 one more (an array); then the word indices of random
    # assignments, keys in order of first use, PTM's pseudo-document index
    # (topic -> {pseudo document: N_l^k}) after five sweeps, with four pseudo
    # documents for three short ones, and V = 0 (Link LDA without links)
    first = [{0: 1, 2: 3, 3: 1}, {3: 2, 0: 4}, {0: 1, 2: 1, 3: 1}, {0: 2}, {2: 1, 0: 5},
             {3: 1, 0: 1}]
    cases = [(first, 4)]
    rng = SeededRng(29)
    for _ in range(40):
        K, V = rng.randrange(1, 6), rng.randrange(1, 12)
        docword = [[rng.randrange(V) for _ in range(rng.randrange(12))] for _ in range(4)]
        z = [[rng.randrange(K) for _ in doc] for doc in docword]
        cases.append((counts_from_assignments(docword, z, K, V)["word_topics"], K))
    ptm = PtmSampler(parse_plain(["a b a c", "c d", "b d d a"]), PtmHyper(4, 3), SeededRng(5))
    for _ in range(5):
        ptm.sweep()
    tables = ptm.tables
    assert 0 in tables.cluster_total
    assert list(map(sum, index_rows(tables.word_clusters, 4))) == tables.cluster_total
    cases.append((tables.word_clusters, 4))
    cases.append(([], 3))
    for index, K in cases:
        got = _assert_index_phi_is_the_formula(index, K, smooth)
        if index is first:
            assert [type(row) for row in got] == [array, lda.SparseRow, lda.SparseRow, array]
    # over no words every row is an empty plain array: a SparseRow of no
    # cells would make top_word_ids raise StopIteration
    assert _kinds(got) == [(array, [], None)] * 3
    assert [top_word_ids(row, 5) for row in got] == [[]] * 3


@pytest.mark.parametrize("gamma, doc", [
    ([[[0.5, 0.5]], [[0.5, 0.5]] * 2], 0),          # one row for three tokens
    ([[[0.5, 0.5]] * 3, [[0.5, 0.5], [1.0]]], 1),   # a row of one topic
])
def test_cvb0_rejects_mis_shaped_responsibilities(gamma, doc):
    with pytest.raises(ValueError, match=f"doc {doc}: responsibilities"):
        with_state(LdaCvb0(parse_plain(["a b c", "b c"]), LdaHyper(2), SeededRng(0)), gamma=gamma)


def test_cvb0_check_rejects_a_stale_expected_count():
    corpus = parse_plain(["a b c a", "c d", "a d d b"])
    hyper = LdaHyper(3, 0.1, 0.1)
    solver = LdaCvb0(corpus, hyper, SeededRng(2))
    for _ in range(20):
        solver.sweep()
        solver.check()
    solver.topic_total[1] += 1.0
    with pytest.raises(ValueError, match="topic_total"):
        solver.check()
    solver.topic_total[1] -= 1.0
    solver.check()
    solver.gamma[0][0][0] += 0.5  # a responsibility the tables are not told of
    with pytest.raises(ValueError, match="doc_topic"):
        solver.check()


CLOSURE_TEXTS = ["a b c a", "c d", "a d d b"]


@pytest.mark.parametrize("first, second, message", [
    ([1.5, -0.5, 0.0], [1.0, 0.0, 0.0], "doc 0: negative count"),
    ([1.5, -0.5, 0.0], [0.0, 1.0, 0.0], "topic 1: negative count"),
], ids=["doc", "topic"])
def test_cvb0_check_rejects_a_negative_expected_count(first, second, message):
    # a negative responsibility for the first token (word a): the tables are
    # their exact recount and every row sums to its total, but topic 1's
    # only mass is -0.5, in document 0's row or, with the second token in
    # topic 1, in word a's cell alone
    corpus = parse_plain(CLOSURE_TEXTS)
    gamma = [[[1.0, 0.0, 0.0] for _ in doc] for doc in corpus.docword]
    gamma[0][:2] = [first, second]
    solver = with_state(LdaCvb0(corpus, LdaHyper(3), SeededRng(2)), gamma=gamma)
    with pytest.raises(ValueError, match=f"^{message}$"):
        solver.check()


@pytest.mark.parametrize("drift, message", [
    ({("doc_topic", 0, 0): 0.6, ("doc_topic", 0, 1): 0.6},
     "doc 0: topic counts do not sum to doc total"),
    ({("topic_word", 2, 0): 0.6, ("topic_word", 2, 1): 0.6},
     "topic 2: word counts do not sum to topic total"),
    ({("doc_topic", 0, 0): 0.6, ("doc_total", 0): 0.6, ("doc_topic", 1, 0): 0.6,
      ("doc_total", 1): 0.6}, "doc totals and topic totals disagree"),
], ids=["doc-row", "topic-row", "totals"])
def test_cvb0_check_rejects_counts_that_drift_apart(drift, message):
    # each cell moves by 0.6 of the tolerance, so it agrees with the
    # recount, but two of them put a row sum, or the sum of the totals,
    # 1.2 tolerances off
    corpus = parse_plain(CLOSURE_TEXTS)
    solver = LdaCvb0(corpus, LdaHyper(3), SeededRng(2))
    solver.sweep()
    tolerance = lda.EXPECTED_TOLERANCE * corpus.n_tokens
    for (name, *at), share in drift.items():
        cells = getattr(solver, name)
        for i in at[:-1]:
            cells = cells[i]
        cells[at[-1]] += share * tolerance
    with pytest.raises(ValueError, match=f"^{message}$"):
        solver.check()
