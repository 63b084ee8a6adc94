import itertools
import math

import pytest

from topicmodels.core import SeededRng, run_chain
from topicmodels.corpus import parse_tagged
from topicmodels.lda import LdaHyper
from topicmodels.linked import AtmSampler, LinkLdaHyper, LinkLdaSampler

from oracles import (assert_close_distribution, atm_joint_log, atm_joint_oracle,
                     linklda_word_oracle, linklda_link_oracle, normalize, tv_distance)
from first_draw import (assert_shares_match, first_draw_shares, linklda_draw, linklda_shares,
                        with_state)


def author_corpus(lines):
    return parse_tagged(lines, kind="authors")


def link_corpus(lines):
    return parse_tagged(lines, kind="links")


def remove_token(sampler, m, n):
    a, k = sampler.x[m][n], sampler.z[m][n]
    v = sampler.corpus.docword[m][n]
    sampler.tables.doc_topic[a][k] -= 1
    sampler.tables.doc_total[a] -= 1
    sampler.tables.topic_word[k][v] -= 1
    sampler.tables.topic_total[k] -= 1
    return v


# ---------------------------------------------------------------- ATM

def test_atm_single_author_k1_certain():
    corpus = author_corpus(["A\tx y"])
    sampler = AtmSampler(corpus, LdaHyper(1), SeededRng(0))
    remove_token(sampler, 0, 0)
    weights, authors = sampler.full_conditional(0, 0)
    assert authors == [0]
    assert normalize(weights) == [1.0]


def test_atm_author_marginal_uniform_for_identical_counts():
    corpus = author_corpus(["A,B\tx y x y"])
    sampler = AtmSampler(corpus, LdaHyper(2, 0.3, 0.2), SeededRng(1))
    # overwrite the (already excluded) state with identical author rows
    sampler.tables.doc_topic = [[1, 2], [1, 2]]
    sampler.tables.doc_total = [3, 3]
    weights, authors = sampler.full_conditional(0, 0)
    K = 2
    marginals = [sum(weights[i * K:(i + 1) * K]) for i in range(len(authors))]
    assert marginals[0] == pytest.approx(marginals[1], rel=1e-12)


def test_atm_matches_scalar_oracle():
    rng = SeededRng(19)
    lines = ["A,B\tw0 w1 w2", "B,C\tw1 w3", "A\tw2 w2 w0"]
    for _ in range(6):
        corpus = author_corpus(lines)
        K = rng.randrange(2, 4)
        hyper = LdaHyper(K, 0.4, 0.15)
        sampler = AtmSampler(corpus, hyper, rng)
        m = rng.randrange(corpus.n_docs)
        n = rng.randrange(len(corpus.docword[m]))
        v = remove_token(sampler, m, n)
        got, authors = sampler.full_conditional(m, v)
        want_rows = atm_joint_oracle(sampler.tables.doc_topic, sampler.tables.doc_total,
                             [sampler.tables.topic_word[k][v] for k in range(K)],
                             sampler.tables.topic_total, authors, 0.4, 0.15,
                             K, corpus.n_words)
        want = [w for row in want_rows for w in row]
        assert_close_distribution(got, want)


def test_atm_requires_authors():
    corpus = author_corpus(["A\tx"])
    corpus.authors = None
    with pytest.raises(Exception):
        AtmSampler(corpus, LdaHyper(2), SeededRng(0))


def test_atm_single_author_theta_is_corpus_mixture():
    corpus = author_corpus(["A\ta b", "A\tb c c"])
    hyper = LdaHyper(2, 0.3, 0.2)
    sampler = AtmSampler(corpus, hyper, SeededRng(2))
    for _ in range(5):
        sampler.sweep()
    fit = sampler.estimate()
    n_total = corpus.n_tokens
    for k in range(2):
        n_k = sampler.tables.doc_topic[0][k]
        assert fit.theta[0][k] == pytest.approx((n_k + 0.3) / (n_total + 0.6))


def test_atm_unseen_author_row_uniform():
    corpus = author_corpus(["A,B\tx y"])
    sampler = AtmSampler(corpus, LdaHyper(4, 0.1, 0.1), SeededRng(3))
    # push every token onto author 0
    for n in range(2):
        a, k = sampler.x[0][n], sampler.z[0][n]
        v = corpus.docword[0][n]
        if a != 0:
            sampler.tables.doc_topic[a][k] -= 1
            sampler.tables.doc_total[a] -= 1
            sampler.tables.doc_topic[0][k] += 1
            sampler.tables.doc_total[0] += 1
            sampler.x[0][n] = 0
    fit = sampler.estimate()
    assert fit.theta[1] == pytest.approx([0.25] * 4)


def test_atm_chain_matches_enumerated_posterior():
    # three tokens, two authors, K = 2: every (author, topic) of each token
    # against the collapsed joint, 4 x 4 x 2 states.  A sweep that draws
    # before it takes the token out of the counts settles at TV 0.025-0.027
    # here (three seeds), this chain at 0.007-0.010.
    corpus = author_corpus(["A,B\tw0 w1", "B\tw1"])
    K, alpha, beta = 2, 0.3, 0.2
    supports = [[(a, k) for a in corpus.authors[m] for k in range(K)]
                for m, doc in enumerate(corpus.docword) for _ in doc]
    log_post = {}
    for cells in itertools.product(*supports):
        x = [[a for a, _ in cells[:2]], [cells[2][0]]]
        z = [[k for _, k in cells[:2]], [cells[2][1]]]
        log_post[cells] = atm_joint_log(corpus.docword, x, z, 2, K, corpus.n_words,
                                        alpha, beta)
    mx = max(log_post.values())
    exact = {cells: math.exp(lp - mx) for cells, lp in log_post.items()}
    total = sum(exact.values())
    exact = {cells: p / total for cells, p in exact.items()}

    sampler = AtmSampler(corpus, LdaHyper(K, alpha, beta), SeededRng(23))
    for _ in range(500):
        sampler.sweep()
    sweeps, counts = 80000, {}
    for _ in range(sweeps):
        sampler.sweep()
        key = tuple(zip((a for xm in sampler.x for a in xm), (k for zm in sampler.z for k in zm)))
        counts[key] = counts.get(key, 0) + 1
    sampler.check()
    empirical = {key: c / sweeps for key, c in counts.items()}
    assert set(empirical) <= set(exact)
    assert tv_distance(empirical, exact) < 0.02


def test_atm_recount_each_sweep():
    corpus = author_corpus(["A,B\tw0 w1", "C\tw2 w0 w1", "B,C\tw2"])
    sampler = AtmSampler(corpus, LdaHyper(3), SeededRng(5))
    for _ in range(10):
        sampler.sweep()
        author_topic = [[0] * 3 for _ in range(3)]
        topic_word = [[0] * corpus.n_words for _ in range(3)]
        for m, doc in enumerate(corpus.docword):
            for n, v in enumerate(doc):
                assert sampler.x[m][n] in corpus.authors[m]
                author_topic[sampler.x[m][n]][sampler.z[m][n]] += 1
                topic_word[sampler.z[m][n]][v] += 1
        assert author_topic == sampler.tables.doc_topic
        assert topic_word == sampler.tables.topic_word


# ---------------------------------------------------------------- Link LDA

def check_linklda_draws(seed, links):
    """The first word (or link) draw of sweep() itself, for a random item
    of a random state, against the oracle.  The link step comes after every
    word has been drawn, so those draws are scripted."""
    rng = SeededRng(seed)
    lines = ["100--200\tw0 w1 w2", "200\tw1 w3", "300--100\tw2 w0"]
    for _ in range(6):
        corpus = link_corpus(lines)
        K = rng.randrange(2, 4)
        sampler = LinkLdaSampler(corpus, LinkLdaHyper(K, 0.3, 0.2, 0.4), rng)
        m = rng.randrange(3)
        i = rng.randrange(len((corpus.links if links else corpus.docword)[m]))
        prefix = [rng.random() for _ in range(corpus.n_tokens)] if links else []
        shares, excluded = linklda_shares(sampler, m, i, links, prefix)
        if links:
            want = linklda_link_oracle(*excluded, 0.3, 0.4, K, len(corpus.meta_vocabulary))
        else:
            want = linklda_word_oracle(*excluded, 0.3, 0.2, K, corpus.n_words)
        assert_shares_match(shares, want)


def test_linklda_word_conditional_oracle():
    check_linklda_draws(29, links=False)


def test_linklda_link_conditional_oracle():
    check_linklda_draws(37, links=True)


def test_linklda_zero_counts_uniform():
    # the tables hold only the item drawn, so with it excluded every count
    # the draw reads is zero
    corpus = link_corpus(["100\tw0 w1"])
    sampler = LinkLdaSampler(corpus, LinkLdaHyper(3), SeededRng(0))
    K = 3
    for links in (False, True):
        k = (sampler.x if links else sampler.z)[0][0]
        only = [int(j == k) for j in range(K)]
        sampler.doc_topic = [list(only)]
        if links:
            sampler.link_total = list(only)
            sampler.link_topics = [{k: 1}]
        else:
            sampler.word_total = list(only)
            sampler.word_topics = [{k: 1}, {}]
        shares = first_draw_shares(*linklda_draw(sampler, 0, 0, links))
        assert shares == pytest.approx({j: 1 / 3 for j in range(K)})


def test_linklda_single_link_vocabulary_factor_constant():
    corpus = link_corpus(["100\tw0 w1", "100\tw1"])
    sampler = LinkLdaSampler(corpus, LinkLdaHyper(2, 0.3, 0.2, 0.4), SeededRng(1))
    row = list(sampler.doc_topic[0])
    row[sampler.x[0][0]] -= 1
    got = first_draw_shares(*linklda_draw(sampler, 0, 0, links=True))
    # with L=1 the link factor is (c_k + g)/(c_k + g) = 1 for every topic
    want = normalize([c + 0.3 for c in row])
    assert [got.get(k, 0.0) for k in range(2)] == pytest.approx(want, rel=1e-12)


def test_linklda_doc_without_links_theta_is_lda_form():
    corpus = link_corpus([" \tw0 w1 w0", "100--200\tw1 w2"])
    assert corpus.links[0] == []
    hyper = LinkLdaHyper(2, 0.3, 0.2, 0.4)
    sampler = LinkLdaSampler(corpus, hyper, SeededRng(4))
    for _ in range(5):
        sampler.sweep()
    fit = sampler.estimate()
    n_mk = [sampler.z[0].count(k) for k in range(2)]
    assert sampler.doc_topic[0] == n_mk
    want = [(n_mk[k] + 0.3) / (3 + 2 * 0.3) for k in range(2)]
    assert fit.theta[0] == pytest.approx(want, rel=1e-12)


def test_linklda_tables_never_cross_contaminate():
    corpus = link_corpus(["100--200\tw0 w1", "200\tw2"])
    sampler = LinkLdaSampler(corpus, LinkLdaHyper(2), SeededRng(6))
    n_words_total = corpus.n_tokens
    n_links_total = sum(len(ls) for ls in corpus.links)
    for _ in range(10):
        sampler.sweep()
        assert sum(sampler.word_total) == n_words_total
        assert sum(sampler.link_total) == n_links_total
        for m in range(corpus.n_docs):
            assert sum(sampler.doc_topic[m]) == len(corpus.docword[m]) + len(corpus.links[m])
            assert sampler.doc_topic[m] == [sampler.z[m].count(k) + sampler.x[m].count(k)
                                            for k in range(2)]


def test_linklda_fit_rows_stochastic():
    corpus = link_corpus(["100--200\tw0 w1", "200\tw2 w0"])
    hyper = LinkLdaHyper(2)
    fit = run_chain(LinkLdaSampler(corpus, hyper, SeededRng(7)), 10)
    for row in fit.theta + fit.phi + fit.link_phi:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)
        assert all(p > 0 for p in row)


def test_atm_fit_runs():
    corpus = author_corpus(["A,B\tw0 w1 w2", "B\tw1 w3"])
    hyper = LdaHyper(2)
    fit = run_chain(AtmSampler(corpus, hyper, SeededRng(8)), 10)
    for row in fit.theta + fit.phi:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)


def test_atm_check_rejects_a_stale_count_or_a_stranger_author():
    corpus = author_corpus(["A\tw0 w1", "B,C\tw1 w2", "A,C\tw0 w2"])
    sampler = AtmSampler(corpus, LdaHyper(2), SeededRng(5))
    sampler.sweep()
    sampler.check()
    a, k = sampler.x[0][0], sampler.z[0][0]
    sampler.tables.doc_topic[a][k] += 1
    with pytest.raises(ValueError, match="tables.doc_topic"):
        sampler.check()
    sampler.tables.doc_topic[a][k] -= 1
    # author B (id 1) did not write document 0; the tables follow the move
    sampler.x[0][0] = 1
    with_state(sampler)
    with pytest.raises(ValueError, match="not its authors"):
        sampler.check()


def test_linklda_check_rejects_a_stale_count():
    corpus = link_corpus(["100--200\tw0 w1", "200\tw2 w0"])
    sampler = LinkLdaSampler(corpus, LinkLdaHyper(2), SeededRng(6))
    sampler.sweep()
    sampler.check()
    k = sampler.x[0][0]
    sampler.link_total[k] += 1
    with pytest.raises(ValueError, match="link_total"):
        sampler.check()
    sampler.link_total[k] -= 1
    sampler.doc_topic[1][sampler.z[1][0]] -= 1
    with pytest.raises(ValueError, match="doc_topic"):
        sampler.check()
    sampler.doc_topic[1][sampler.z[1][0]] += 1
    sampler.link_topics[corpus.links[0][0]][k] += 1
    with pytest.raises(ValueError, match="link_topics"):
        sampler.check()
