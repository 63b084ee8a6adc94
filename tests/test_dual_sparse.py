import math

import pytest

from topicmodels.core import SeededRng, run_chain
from topicmodels.corpus import parse_plain
from topicmodels.dual_sparse import DualSparseCvb0, SparseHyper
from topicmodels.lda import LdaCvb0, LdaHyper, random_responsibilities

from oracles import assert_close_distribution


def linear_alpha_oracle(h, K, a_ex, n_mk, n_m):
    """Direct linear-space evaluation of the topic-selector update."""
    def B(a, b):
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    on = ((h.s + a_ex) * math.gamma(n_mk + h.pi + h.pi_bar)
          * B(h.pi + K * h.pi_bar + h.pi * a_ex,
              n_m + h.pi * a_ex + K * h.pi_bar))
    off = ((h.t + K - 1 - a_ex) * math.gamma(h.pi + h.pi_bar)
           * B(K * h.pi_bar + h.pi * a_ex,
               n_m + h.pi + h.pi * a_ex + K * h.pi_bar))
    return on / (on + off)


def linear_beta_oracle(h, V, b_ex, n_kv, n_k):
    def B(a, b):
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    g, gbar = h.word_gamma, h.word_gamma_bar
    on = ((h.x + b_ex) * math.gamma(n_kv + g + gbar)
          * B(g + V * gbar + g * b_ex, n_k + g * b_ex + V * gbar))
    off = ((h.y + V - 1 - b_ex) * math.gamma(g + gbar)
           * B(V * gbar + g * b_ex, n_k + g + g * b_ex + V * gbar))
    return on / (on + off)


def dual_sparse_solver(corpus, hyper, rng):
    """The solver as the CLI builds it: random responsibilities drawn from rng."""
    return DualSparseCvb0(corpus, hyper, random_responsibilities(corpus, hyper.n_topics, rng))


def small_solver(hyper, kappa=None):
    corpus = parse_plain(["w0 w1 w2", "w1 w2", "w0 w0"])
    if kappa is None:
        kappa = random_responsibilities(corpus, hyper.n_topics, SeededRng(1))
    return corpus, DualSparseCvb0(corpus, hyper, kappa)


def test_alpha_selector_matches_linear_oracle():
    hyper = SparseHyper(3, s=1.5, t=2.0, pi=0.4, pi_bar=0.01,
                        word_gamma=0.3, word_gamma_bar=0.005)
    corpus, solver = small_solver(hyper)
    for m in range(corpus.n_docs):
        for k in range(hyper.n_topics):
            a_ex = solver.A_hat[m] - solver.alpha_hat[m][k]
            want = linear_alpha_oracle(hyper, 3, a_ex,
                                       solver.expected.doc_topic[m][k],
                                       solver.expected.doc_total[m])
            got = solver.update_alpha_selector(m, k)
            assert got == pytest.approx(want, rel=1e-10)
            assert 0.0 < got < 1.0


def test_beta_selector_matches_linear_oracle():
    hyper = SparseHyper(2, x=1.2, y=0.8, pi=0.4, pi_bar=0.01,
                        word_gamma=0.6, word_gamma_bar=0.02)
    corpus, solver = small_solver(hyper)
    V = corpus.n_words
    for k in range(2):
        for v in range(V):
            b_ex = solver.B_hat[k] - solver.beta_hat[k][v]
            want = linear_beta_oracle(hyper, V, b_ex,
                                      solver.expected.topic_word[k][v],
                                      solver.expected.topic_total[k])
            got = solver.update_beta_selector(k, v)
            assert got == pytest.approx(want, rel=1e-10)
            assert 0.0 < got < 1.0


def test_alpha_selector_monotone_in_expected_count():
    # the gamma function dips below Gamma(pi) on (0, 1), so the selector is
    # only monotone once the expected count clears that well; sweep the tail
    hyper = SparseHyper(4, pi=0.3, pi_bar=1e-6)
    corpus, solver = small_solver(hyper)
    rest = 2.0
    values = []
    for n_mk in (1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0):
        solver.expected.doc_topic[0][0] = n_mk
        solver.expected.doc_total[0] = n_mk + rest
        solver.alpha_hat[0] = [0.5] * 4
        solver.A_hat[0] = 2.0
        values.append(solver.update_alpha_selector(0, 0))
    assert values == sorted(values)
    assert values[-1] > 0.999


def test_beta_selector_monotone_in_expected_count():
    hyper = SparseHyper(2, word_gamma=0.3, word_gamma_bar=1e-6)
    corpus, solver = small_solver(hyper)
    V = corpus.n_words
    values = []
    for n_kv in (1.0, 4.0, 16.0, 128.0):
        solver.expected.topic_word[0][0] = n_kv
        solver.expected.topic_total[0] = n_kv + 3.0
        solver.beta_hat[0] = [0.5] * V
        solver.B_hat[0] = 0.5 * V
        values.append(solver.update_beta_selector(0, 0))
    assert values == sorted(values)
    assert values[-1] > 0.99


def test_kappa_weights_match_scalar_oracle():
    hyper = SparseHyper(3, pi=0.4, pi_bar=0.01, word_gamma=0.3,
                        word_gamma_bar=0.005)
    corpus, solver = small_solver(hyper)
    m, n = 0, 1
    v = corpus.docword[m][n]
    g = solver.kappa[m][n]
    for k in range(3):
        gk = g[k]
        solver.expected.doc_topic[m][k] -= gk
        solver.expected.topic_word[k][v] -= gk
        solver.expected.topic_total[k] -= gk
    got = solver.kappa_weights(m, v)
    want = []
    for k in range(3):
        want.append(
            (solver.expected.doc_topic[m][k] + 0.4 * solver.alpha_hat[m][k] + 0.01)
            * (solver.expected.topic_word[k][v]
               + 0.3 * solver.beta_hat[k][v] + 0.005)
            / (solver.expected.topic_total[k]
               + 0.3 * solver.B_hat[k] + corpus.n_words * 0.005))
    assert_close_distribution(got, want)


def test_kappa_k1_certain():
    hyper = SparseHyper(1)
    corpus, solver = small_solver(hyper)
    ws = solver.kappa_weights(0, 0)
    assert len(ws) == 1 and ws[0] > 0


def test_pinned_selectors_reduce_to_plain_cvb0():
    # alpha_hat = beta_hat = 1, weak priors zero: kappa update equals the
    # plain CVB0 update with alpha := pi, beta := word_gamma
    corpus = parse_plain(["w0 w1 w2 w0", "w1 w3", "w2 w0 w3"])
    pi, g = 0.25, 0.15
    hyper = SparseHyper(3, pi=pi, pi_bar=0.0, word_gamma=g, word_gamma_bar=0.0)
    init = random_responsibilities(corpus, 3, SeededRng(7))
    copy = [[list(r) for r in doc] for doc in init]
    solver = DualSparseCvb0(corpus, hyper, init,
                            alpha_hat=[[1.0] * 3 for _ in range(corpus.n_docs)],
                            beta_hat=[[1.0] * corpus.n_words for _ in range(3)])
    plain = LdaCvb0(corpus, LdaHyper(3, alpha=pi, beta=g), copy)
    for _ in range(5):
        solver.kappa_pass()
        plain.sweep()
    for m in range(corpus.n_docs):
        for n in range(len(corpus.docword[m])):
            assert solver.kappa[m][n] == pytest.approx(plain.gamma[m][n], abs=1e-12)


def test_fit_sparsity_outputs():
    corpus = parse_plain(["w0 w0 w1", "w2 w3", "w0 w3 w3"])
    hyper = SparseHyper(4)
    fitted = run_chain(dual_sparse_solver(corpus, hyper, SeededRng(3)), 10)
    assert len(fitted.sparsity_doc) == 3
    assert len(fitted.sparsity_topic) == 4
    for s in fitted.sparsity_doc + fitted.sparsity_topic:
        assert 0.0 <= s <= 1.0
    assert fitted.avg_sparsity_doc == pytest.approx(
        sum(fitted.sparsity_doc) / 3, rel=1e-12)
    assert fitted.avg_sparsity_topic == pytest.approx(
        sum(fitted.sparsity_topic) / 4, rel=1e-12)
    for row in fitted.theta + fitted.phi:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)


def test_fit_conserves_kappa_mass():
    corpus = parse_plain(["w0 w1", "w2 w0 w1"])
    seen = []

    def callback(solver, it):
        for doc in solver.kappa:
            for g in doc:
                assert sum(g) == pytest.approx(1.0, abs=1e-9)
        assert sum(solver.expected.topic_total) == pytest.approx(
            corpus.n_tokens, abs=1e-6)
        seen.append(it)

    hyper = SparseHyper(2)
    run_chain(dual_sparse_solver(corpus, hyper, SeededRng(4)), 8, callback)
    assert len(seen) == 8


def test_selectors_stay_in_open_interval_during_fit():
    corpus = parse_plain(["w0 w0 w0 w0 w0", "w1 w1 w1", "w2"])

    def callback(solver, it):
        for row in solver.alpha_hat:
            assert all(0.0 < a < 1.0 for a in row)
        for row in solver.beta_hat:
            assert all(0.0 < b < 1.0 for b in row)

    hyper = SparseHyper(3)
    run_chain(dual_sparse_solver(corpus, hyper, SeededRng(5)), 10, callback)


def test_hyper_validation():
    with pytest.raises(ValueError):
        SparseHyper(2, pi=0.1, pi_bar=0.2)  # weak prior above strong
    with pytest.raises(ValueError):
        SparseHyper(2, s=0.0)
    SparseHyper(2, pi_bar=0.0, word_gamma_bar=0.0)  # zero weak priors allowed


@pytest.mark.parametrize("kappa, doc", [
    ([[[0.5, 0.5]] * 3, [[0.5, 0.5]], [[0.5, 0.5]] * 2], 1),  # one row for two tokens
    ([[[0.5, 0.5]] * 3, [[0.5, 0.5]] * 2, [[0.5, 0.5], [0.5]]], 2),  # a row of one topic
])
def test_rejects_mis_shaped_responsibilities(kappa, doc):
    with pytest.raises(ValueError, match=f"doc {doc}: responsibilities"):
        small_solver(SparseHyper(2), kappa)


def test_check_rejects_a_stale_count_or_selector_sum():
    corpus, solver = small_solver(SparseHyper(3))
    for _ in range(10):
        solver.sweep()
        solver.check()
    solver.expected.doc_topic[1][2] += 1.0
    with pytest.raises(ValueError, match="expected.doc_topic"):
        solver.check()
    solver.expected.doc_topic[1][2] -= 1.0
    solver.check()
    for table in ("A_hat", "B_hat"):
        getattr(solver, table)[0] += 0.25
        with pytest.raises(ValueError, match=table):
            solver.check()
        getattr(solver, table)[0] -= 0.25
    solver.check()
