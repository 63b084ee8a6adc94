import math

import pytest

from topicmodels.core import SeededRng, run_chain
from topicmodels.corpus import parse_plain
from topicmodels.dual_sparse import DualSparseCvb0, SparseHyper, selector_mean
from topicmodels.lda import LdaCvb0, LdaHyper

from first_draw import with_state
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


def small_solver(hyper):
    corpus = parse_plain(["w0 w1 w2", "w1 w2", "w0 w0"])
    return corpus, DualSparseCvb0(corpus, hyper, SeededRng(1))


def test_alpha_selector_matches_linear_oracle():
    hyper = SparseHyper(3, s=1.5, t=2.0, pi=0.4, pi_bar=0.01,
                        word_gamma=0.3, word_gamma_bar=0.005)
    corpus, solver = small_solver(hyper)
    for m in range(corpus.n_docs):
        for k in range(hyper.n_topics):
            a_ex = solver.A_hat[m] - solver.alpha_hat[m][k]
            want = linear_alpha_oracle(hyper, 3, a_ex,
                                       solver.doc_topic[m][k],
                                       solver.doc_total[m])
            got = selector_mean(hyper.s, hyper.t, hyper.pi, hyper.pi_bar, 3,
                                solver.doc_topic[m][k],
                                solver.doc_total[m], a_ex)
            assert got == pytest.approx(want, rel=1e-10)
            assert 0.0 < got < 1.0
            solver.alpha_hat[m][k] = got
            solver.A_hat[m] = a_ex + got


def test_beta_selector_matches_linear_oracle():
    hyper = SparseHyper(2, x=1.2, y=0.8, pi=0.4, pi_bar=0.01,
                        word_gamma=0.6, word_gamma_bar=0.02)
    corpus, solver = small_solver(hyper)
    V = corpus.n_words
    for k in range(2):
        for v in range(V):
            b_ex = solver.B_hat[k] - solver.beta_hat[k][v]
            want = linear_beta_oracle(hyper, V, b_ex,
                                      solver.topic_word[k][v],
                                      solver.topic_total[k])
            got = selector_mean(hyper.x, hyper.y, hyper.word_gamma, hyper.word_gamma_bar, V,
                                solver.topic_word[k][v],
                                solver.topic_total[k], b_ex)
            assert got == pytest.approx(want, rel=1e-10)
            assert 0.0 < got < 1.0
            solver.beta_hat[k][v] = got
            solver.B_hat[k] = b_ex + got


def test_alpha_selector_monotone_in_expected_count():
    # the gamma function dips below Gamma(pi) on (0, 1), so the selector is
    # only monotone once the expected count clears that well; sweep the tail
    hyper = SparseHyper(4, pi=0.3, pi_bar=1e-6)
    rest = 2.0
    a_ex = 2.0 - 0.5  # three other topics at selector mean 0.5
    values = [selector_mean(hyper.s, hyper.t, hyper.pi, hyper.pi_bar, 4, n_mk, n_mk + rest, a_ex)
              for n_mk in (1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0)]
    assert values == sorted(values)
    assert values[-1] > 0.999


def test_beta_selector_monotone_in_expected_count():
    hyper = SparseHyper(2, word_gamma=0.3, word_gamma_bar=1e-6)
    V = 3
    b_ex = 0.5 * V - 0.5  # the other words at selector mean 0.5
    values = [selector_mean(hyper.x, hyper.y, hyper.word_gamma, hyper.word_gamma_bar, V,
                            n_kv, n_kv + 3.0, b_ex)
              for n_kv in (1.0, 4.0, 16.0, 128.0)]
    assert values == sorted(values)
    assert values[-1] > 0.99


def test_sweep_updates_selectors_as_the_linear_oracles():
    # every prior differs from the others, so hyperparameters wired to the
    # wrong slot of a selector pass change the first cell of its family
    hyper = SparseHyper(3, s=1.5, t=2.0, x=1.2, y=0.8, pi=0.4, pi_bar=0.01,
                        word_gamma=0.6, word_gamma_bar=0.02)
    corpus, solver = small_solver(hyper)
    want_alpha = linear_alpha_oracle(hyper, 3, solver.A_hat[0] - solver.alpha_hat[0][0],
                                     solver.doc_topic[0][0], solver.doc_total[0])
    want_beta = linear_beta_oracle(hyper, corpus.n_words, solver.B_hat[0] - solver.beta_hat[0][0],
                                   solver.topic_word[0][0], solver.topic_total[0])
    solver.sweep()
    assert solver.alpha_hat[0][0] == pytest.approx(want_alpha, rel=1e-10)
    assert solver.beta_hat[0][0] == pytest.approx(want_beta, rel=1e-10)


@pytest.mark.parametrize("table, cell", [("doc_total", "doc 1, topic 0"),
                                         ("topic_total", "topic 1, word 0")])
def test_selector_pass_names_the_cell_with_non_finite_odds(table, cell):
    corpus, solver = small_solver(SparseHyper(3))
    getattr(solver, table)[1] = math.nan
    with pytest.raises(ArithmeticError, match=f"non-finite selector odds at {cell}$"):
        solver.sweep()


@pytest.mark.parametrize("n_topics", [1, 3])
def test_kappa_pass_matches_scalar_oracle(n_topics):
    # pi != word_gamma, pi_bar != word_gamma_bar and selectors that differ by
    # cell, so a prior row wired to the wrong slot of the pass changes the row
    pi, pi_bar, g, g_bar = 0.4, 0.01, 0.3, 0.005
    hyper = SparseHyper(n_topics, pi=pi, pi_bar=pi_bar, word_gamma=g, word_gamma_bar=g_bar)
    corpus, solver = small_solver(hyper)
    m, n = 0, 0
    v = corpus.docword[m][n]
    old = list(solver.gamma[m][n])
    n_mk = [c - gk for c, gk in zip(solver.doc_topic[m], old)]
    n_kv = [row[v] - gk for row, gk in zip(solver.topic_word, old)]
    n_k = [c - gk for c, gk in zip(solver.topic_total, old)]
    solver.sweep()  # the selectors move first, then the first token's gamma
    alpha_hat, beta_hat, B_hat = solver.alpha_hat[m], solver.beta_hat, solver.B_hat
    if n_topics > 1:
        assert len(set(alpha_hat)) == n_topics and len({row[v] for row in beta_hat}) == n_topics
    want = [(n_mk[k] + pi * alpha_hat[k] + pi_bar)
            * (n_kv[k] + g * beta_hat[k][v] + g_bar)
            / (n_k[k] + g * B_hat[k] + corpus.n_words * g_bar)
            for k in range(n_topics)]
    assert_close_distribution(solver.gamma[m][n], want)


def test_pinned_selectors_reduce_to_plain_cvb0():
    # alpha_hat = beta_hat = 1, weak priors zero: the priors are pi, word_gamma
    # and V word_gamma exactly, so gamma is the plain CVB0 gamma bit for bit
    corpus = parse_plain(["w0 w1 w2 w0", "w1 w3", "w2 w0 w3"])
    pi, g = 0.25, 0.15
    hyper = SparseHyper(3, pi=pi, pi_bar=0.0, word_gamma=g, word_gamma_bar=0.0)
    solver = with_state(DualSparseCvb0(corpus, hyper, SeededRng(7)),
                        alpha_hat=[[1.0] * 3 for _ in range(corpus.n_docs)],
                        beta_hat=[[1.0] * corpus.n_words for _ in range(3)])
    plain = LdaCvb0(corpus, LdaHyper(3, alpha=pi, beta=g), SeededRng(7))
    for _ in range(5):
        LdaCvb0.sweep(solver)
        plain.sweep()
    assert solver.gamma == plain.gamma


def test_open_selectors_give_the_lda_cvb0_priors():
    # alpha_hat = beta_hat = 1 and zero weak priors: the gated rows are
    # LdaCvb0's alpha, beta and V beta, cell for cell
    corpus = parse_plain(["w0 w1 w2 w0", "w1 w3", "w2 w0 w3"])
    pi, g = 0.25, 0.15
    hyper = SparseHyper(3, pi=pi, pi_bar=0.0, word_gamma=g, word_gamma_bar=0.0)
    solver = with_state(DualSparseCvb0(corpus, hyper, SeededRng(7)),
                        alpha_hat=[[1.0] * 3 for _ in range(corpus.n_docs)],
                        beta_hat=[[1.0] * corpus.n_words for _ in range(3)])
    assert solver.priors() == LdaCvb0(corpus, LdaHyper(3, pi, g), SeededRng(7)).priors()


def test_fit_sparsity_outputs():
    corpus = parse_plain(["w0 w0 w1", "w2 w3", "w0 w3 w3"])
    hyper = SparseHyper(4)
    fitted = run_chain(DualSparseCvb0(corpus, hyper, SeededRng(3)), 10)
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
        for doc in solver.gamma:
            for g in doc:
                assert sum(g) == pytest.approx(1.0, abs=1e-9)
        assert sum(solver.topic_total) == pytest.approx(
            corpus.n_tokens, abs=1e-6)
        seen.append(it)

    hyper = SparseHyper(2)
    run_chain(DualSparseCvb0(corpus, hyper, SeededRng(4)), 8, callback)
    assert len(seen) == 8


def test_selectors_stay_in_open_interval_during_fit():
    corpus = parse_plain(["w0 w0 w0 w0 w0", "w1 w1 w1", "w2"])

    def callback(solver, it):
        for row in solver.alpha_hat:
            assert all(0.0 < a < 1.0 for a in row)
        for row in solver.beta_hat:
            assert all(0.0 < b < 1.0 for b in row)

    hyper = SparseHyper(3)
    run_chain(DualSparseCvb0(corpus, hyper, SeededRng(5)), 10, callback)


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
        with_state(small_solver(SparseHyper(2))[1], gamma=kappa)


def test_check_rejects_a_stale_count_or_selector_sum():
    corpus, solver = small_solver(SparseHyper(3))
    for _ in range(10):
        solver.sweep()
        solver.check()
    solver.doc_topic[1][2] += 1.0
    with pytest.raises(ValueError, match="doc_topic"):
        solver.check()
    solver.doc_topic[1][2] -= 1.0
    solver.check()
    for table in ("A_hat", "B_hat"):
        getattr(solver, table)[0] += 0.25
        with pytest.raises(ValueError, match=table):
            solver.check()
        getattr(solver, table)[0] -= 0.25
    solver.check()
