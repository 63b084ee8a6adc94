import pytest

from topicmodels.core import SeededRng, run_chain
from topicmodels.corpus import parse_plain
from topicmodels.hdp import HdpHyper, HdpSampler

from oracles import normalize


def toy_corpus(rng, n_docs=6, v=5, max_len=5):
    docs = [" ".join(f"w{rng.randrange(v)}" for _ in range(rng.randrange(1, max_len)))
            for _ in range(n_docs)]
    return parse_plain(docs)


def remove_token(sampler, m, n):
    """Replay the removal phase of a token update."""
    v = sampler.corpus.docword[m][n]
    t = sampler.token_table[m][n]
    k = sampler.table_topic[m][t]
    sampler.n_kv[k][v] -= 1
    sampler.n_k[k] -= 1
    sampler.table_count[m][t] -= 1
    if sampler.table_count[m][t] == 0:
        sampler._delete_table(m, t)
    return v


def check_franchise_invariants(sampler):
    corpus = sampler.corpus
    K = sampler.n_topics
    assert sum(sampler.m_k) == sampler.m_total
    assert all(mk > 0 for mk in sampler.m_k)
    n_kv = [[0] * corpus.n_words for _ in range(K)]
    m_k = [0] * K
    for m, doc in enumerate(corpus.docword):
        assert sum(sampler.table_count[m]) == len(doc)
        assert all(c > 0 for c in sampler.table_count[m])
        counts = [0] * len(sampler.table_topic[m])
        for n, v in enumerate(doc):
            t = sampler.token_table[m][n]
            counts[t] += 1
            n_kv[sampler.table_topic[m][t]][v] += 1
        assert counts == sampler.table_count[m]
        for k in sampler.table_topic[m]:
            assert 0 <= k < K
            m_k[k] += 1
    assert m_k == sampler.m_k
    assert n_kv == sampler.n_kv
    assert [sum(row) for row in n_kv] == sampler.n_k
    assert sum(sampler.n_k) == corpus.n_tokens


def test_cond_density_new_topic_is_uniform():
    corpus = parse_plain(["a b c d e"])
    sampler = HdpSampler(corpus, HdpHyper(2), SeededRng(0))
    assert sampler.cond_density(None, 3) == pytest.approx(1 / 5)


def test_cond_density_zero_count_topic_matches_new():
    corpus = parse_plain(["a b c d e"])
    sampler = HdpSampler(corpus, HdpHyper(2), SeededRng(0))
    sampler.n_kv.append([0] * 5)
    sampler.n_k.append(0)
    sampler.m_k.append(1)
    assert sampler.cond_density(sampler.n_topics - 1, 2) == pytest.approx(1 / 5)


def test_cond_density_direct_arithmetic():
    corpus = parse_plain(["a b c d e"])
    sampler = HdpSampler(corpus, HdpHyper(1, beta=0.1), SeededRng(0))
    sampler.n_kv[0] = [3, 1, 1, 1, 1]
    sampler.n_k[0] = 7
    assert sampler.cond_density(0, 0) == pytest.approx(3.1 / 7.5, rel=1e-12)


def test_table_weights_single_table_alpha_zero():
    corpus = parse_plain(["a a a", "b b"])
    hyper = HdpHyper(1, alpha0=0.0, beta=0.1, gamma=0.5)
    sampler = HdpSampler(corpus, hyper, SeededRng(1))
    v = remove_token(sampler, 0, 0)
    ws = sampler.table_weights(0, v)
    assert len(ws) == len(sampler.table_topic[0]) + 1
    assert ws[-1] == 0.0
    assert sum(w > 0 for w in ws) >= 1


def test_table_weights_no_tables_forces_new():
    corpus = parse_plain(["a", "b c"])
    sampler = HdpSampler(corpus, HdpHyper(2), SeededRng(2))
    v = remove_token(sampler, 0, 0)  # doc 0's only token: its table dies
    assert sampler.table_topic[0] == []
    ws = sampler.table_weights(0, v)
    assert len(ws) == 1 and ws[0] > 0


def test_table_and_topic_weights_match_hand_evaluation():
    rng = SeededRng(71)
    for _ in range(6):
        corpus = toy_corpus(rng)
        hyper = HdpHyper(3, alpha0=0.7, beta=0.2, gamma=0.9)
        sampler = HdpSampler(corpus, hyper, rng)
        for _ in range(3):
            sampler.sweep()
        m = rng.randrange(corpus.n_docs)
        n = rng.randrange(len(corpus.docword[m]))
        v = remove_token(sampler, m, n)
        K = sampler.n_topics
        V = corpus.n_words

        def f(k):
            return (sampler.n_kv[k][v] + 0.2) / (sampler.n_k[k] + V * 0.2)

        want_tables = [sampler.table_count[m][t] * f(sampler.table_topic[m][t])
                       for t in range(len(sampler.table_topic[m]))]
        mix = sum(sampler.m_k[k] / (sampler.m_total + 0.9) * f(k) for k in range(K))
        mix += 0.9 / (sampler.m_total + 0.9) / V
        want_tables.append(0.7 * mix)
        got = sampler.table_weights(m, v)
        assert got == pytest.approx(want_tables, rel=1e-12)

        want_topics = [sampler.m_k[k] * f(k) for k in range(K)] + [0.9 / V]
        assert sampler.topic_weights_for_new_table(v) == pytest.approx(
            want_topics, rel=1e-12)


def test_topic_weights_no_live_topics_forces_new():
    corpus = parse_plain(["a"])
    sampler = HdpSampler(corpus, HdpHyper(1), SeededRng(3))
    remove_token(sampler, 0, 0)
    assert sampler.n_topics == 0
    ws = sampler.topic_weights_for_new_table(0)
    assert len(ws) == 1 and ws[0] > 0


def test_gamma_zero_never_spawns_topics():
    rng = SeededRng(5)
    corpus = toy_corpus(rng, n_docs=8)
    hyper = HdpHyper(2, alpha0=0.5, beta=0.1, gamma=0.0)
    sampler = HdpSampler(corpus, hyper, rng)
    start = sampler.n_topics
    for _ in range(15):
        sampler.sweep()
        assert sampler.n_topics <= start
        ws = sampler.topic_weights_for_new_table(0)
        assert ws[-1] == 0.0


def test_gamma_zero_k1_phi_is_smoothed_frequency():
    corpus = parse_plain(["a a b", "b c"])
    hyper = HdpHyper(1, alpha0=0.5, beta=0.5, gamma=0.0)
    fitted = run_chain(HdpSampler(corpus, hyper, SeededRng(6)), 10)
    assert len(fitted.phi) == 1
    N, V = corpus.n_tokens, corpus.n_words
    freqs = [2, 2, 1]
    assert fitted.phi[0] == pytest.approx([(f + 0.5) / (N + V * 0.5) for f in freqs])


def test_franchise_invariants_every_sweep():
    rng = SeededRng(77)
    for trial in range(3):
        corpus = toy_corpus(rng, n_docs=7)
        sampler = HdpSampler(corpus, HdpHyper(3, 0.8, 0.1, 0.6), rng)
        check_franchise_invariants(sampler)
        sampler.check()
        for _ in range(12):
            sampler.sweep()
            check_franchise_invariants(sampler)
            sampler.check()


def test_check_catches_a_stale_seating_plan():
    corpus = toy_corpus(SeededRng(78), n_docs=5)
    sampler = HdpSampler(corpus, HdpHyper(3, 0.8, 0.1, 0.6), SeededRng(1))
    sampler.sweep()
    sampler.check()
    sampler.table_count[0][0] += 1
    with pytest.raises(ValueError, match="table_count"):
        sampler.check()
    sampler.table_count[0][0] -= 1
    sampler.m_total += 1
    with pytest.raises(ValueError, match="m_total"):
        sampler.check()


def test_fit_reports_surviving_topic_count():
    rng = SeededRng(9)
    corpus = toy_corpus(rng, n_docs=10)
    hyper = HdpHyper(3)
    sampler = HdpSampler(corpus, hyper, SeededRng(10))
    fitted = run_chain(sampler, 15)
    assert sampler.n_topics >= 1
    assert len(fitted.phi) == sampler.n_topics
    for row in fitted.theta + fitted.phi:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)
