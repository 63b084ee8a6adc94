import itertools
import math
import pickle

import pytest

from topicmodels.core import SeededRng, run_chain
from topicmodels.corpus import parse_plain
from topicmodels.hdp import HdpHyper, HdpSampler

from first_draw import assert_shares_match, first_draw_shares, move_to_front
from oracles import hdp_joint_log, restricted_growth, tv_distance


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


def first_token_shares(sampler):
    """The shares of the first two draws of a sweep, for token 0 of document 0:
    its table (the document's tables once it has left them, then a new table)
    and, where a new table has a share, that table's dish (the live topics,
    then a new topic), else None.  The sampler is left as it was."""
    # the draws are read as sweep() writes them, the table as the token is
    # seated and the dish as its new table opens, not off the seating plan
    # afterwards: the next token's removal can renumber the document's
    # tables and the topics
    drawn = {}

    class Seats(list):
        def __setitem__(self, n, t):
            if n == 0:
                drawn.setdefault("table", t)
            super().__setitem__(n, t)

    class Served(list):
        def append(self, k):
            drawn.setdefault("dish", k)
            super().append(k)

    counts = sampler._counts(sampler.n_topics)
    vars(sampler).update(counts)
    state = pickle.dumps({"token_table": sampler.token_table,
                          "table_topic": sampler.table_topic, **counts})
    rng = sampler.rng

    def restore():
        vars(sampler).update(pickle.loads(state))

    def run(script):
        restore()
        drawn.clear()
        sampler.token_table[0] = Seats(sampler.token_table[0])
        sampler.table_topic[0] = Served(sampler.table_topic[0])
        sampler.rng = script
        sampler.sweep()

    seats = sampler.token_table[0]
    new_table = len(sampler.table_topic[0]) - (seats.count(seats[0]) == 1)
    # a uniform for the dish draw that follows a new table
    tables = first_draw_shares(run, lambda: drawn["table"], suffix=(0.5,))
    dishes = None
    if tables.get(new_table, 0.0) > 0.0:
        # the first uniform lands in the new table's interval, the last one
        dishes = first_draw_shares(run, lambda: drawn.get("dish"),
                                   prefix=(1.0 - tables[new_table] / 2,))
    restore()
    sampler.rng = rng
    return tables, dishes


def put_token_first(sampler, m, n):
    for seq in (sampler.corpus.docword, sampler.token_table, sampler.table_topic):
        move_to_front(seq, m)
    for seq in (sampler.corpus.docword[0], sampler.token_table[0]):
        move_to_front(seq, n)


def test_table_weights_single_table_alpha_zero():
    # at alpha0 = 0 the new table (index 1, after the one open table) gets no share
    corpus = parse_plain(["a a a", "b b"])
    hyper = HdpHyper(1, alpha0=0.0, beta=0.1, gamma=0.5)
    sampler = HdpSampler(corpus, hyper, SeededRng(1))
    assert sampler.table_count[0] == [3]
    tables, dishes = first_token_shares(sampler)
    assert tables == {0: 1.0} and dishes is None


def test_table_weights_no_tables_forces_new():
    # doc 0's only token: its table dies, so the new table (index 0) gets all
    corpus = parse_plain(["a", "b c"])
    sampler = HdpSampler(corpus, HdpHyper(2), SeededRng(2))
    tables, _ = first_token_shares(sampler)
    remove_token(sampler, 0, 0)
    assert sampler.table_topic[0] == []
    assert tables == {0: 1.0}


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
        put_token_first(sampler, m, n)
        tables, dishes = first_token_shares(sampler)
        v = remove_token(sampler, 0, 0)
        K = sampler.n_topics
        V = corpus.n_words

        def f(k):
            return (sampler.n_kv[k][v] + 0.2) / (sampler.n_k[k] + V * 0.2)

        want_tables = [sampler.table_count[0][t] * f(sampler.table_topic[0][t])
                       for t in range(len(sampler.table_topic[0]))]
        mix = sum(sampler.m_k[k] / (sampler.m_total + 0.9) * f(k) for k in range(K))
        mix += 0.9 / (sampler.m_total + 0.9) / V
        want_tables.append(0.7 * mix)
        assert_shares_match(tables, want_tables, rel=1e-12)

        want_topics = [sampler.m_k[k] * f(k) for k in range(K)] + [0.9 / V]
        assert_shares_match(dishes, want_topics, rel=1e-12)


def test_topic_weights_no_live_topics_forces_new():
    # the corpus's only token: its topic dies, so the new topic (index 0) gets all
    corpus = parse_plain(["a"])
    sampler = HdpSampler(corpus, HdpHyper(1), SeededRng(3))
    tables, dishes = first_token_shares(sampler)
    remove_token(sampler, 0, 0)
    assert sampler.n_topics == 0
    assert tables == {0: 1.0} and dishes == {0: 1.0}


def test_gamma_zero_never_spawns_topics():
    # at gamma = 0 a new table's dish is never a new topic
    rng = SeededRng(5)
    corpus = toy_corpus(rng, n_docs=8)
    hyper = HdpHyper(2, alpha0=0.5, beta=0.1, gamma=0.0)
    sampler = HdpSampler(corpus, hyper, rng)
    start = sampler.n_topics
    for sweep in range(15):
        sampler.sweep()
        assert sampler.n_topics <= start
        if sweep % 5 == 4:
            _, dishes = first_token_shares(sampler)
            # the new topic's index: the live topics once the token has left
            seats, served = sampler.token_table[0], sampler.table_topic[0]
            alone = seats.count(seats[0]) == 1 and sampler.m_k[served[seats[0]]] == 1
            assert dishes.get(sampler.n_topics - alone, 0.0) == 0.0
            assert sum(dishes.values()) == pytest.approx(1.0, abs=1e-15)


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


def seating_key(token_table, table_topic):
    """A seating with its table and topic labels taken out: each document's
    tables relabelled in order of first use by its tokens, then the topics
    relabelled in order of first use by the tables, documents in order."""
    seats, dishes = [], []
    for tt, served in zip(token_table, table_topic):
        first = {}
        seats.append(tuple(first.setdefault(t, len(first)) for t in tt))
        dishes.extend(served[t] for t in first)
    first = {}
    return tuple(seats), tuple(first.setdefault(k, len(first)) for k in dishes)


def test_chain_matches_enumerated_posterior():
    # four tokens in two documents: every label-free seating (each
    # document's table partition, then a dish partition of all the tables,
    # 27 in all) against the franchise's collapsed joint.  A new-table weight
    # without its alpha0 settles at TV 0.058-0.060 here (two seeds), this
    # chain at 0.008-0.012 (eight seeds)
    corpus = parse_plain(["a b", "a c"])
    alpha0, beta, gamma = 0.8, 0.5, 0.6
    exact = {}
    for seats in itertools.product(*(restricted_growth(len(doc)) for doc in corpus.docword)):
        n_tables = [max(s) + 1 for s in seats]
        for dishes in restricted_growth(sum(n_tables)):
            served = [list(dishes[:n_tables[0]]), list(dishes[n_tables[0]:])]
            key = seating_key(seats, served)
            assert key == (seats, dishes)
            exact[key] = math.exp(hdp_joint_log(corpus.docword, seats, served, corpus.n_words,
                                                alpha0, beta, gamma))
    assert len(exact) == 27
    total = sum(exact.values())
    exact = {key: p / total for key, p in exact.items()}

    sampler = HdpSampler(corpus, HdpHyper(2, alpha0, beta, gamma), SeededRng(31))
    for _ in range(200):
        sampler.sweep()
    sweeps, counts = 40000, {}
    for _ in range(sweeps):
        sampler.sweep()
        key = seating_key(sampler.token_table, sampler.table_topic)
        counts[key] = counts.get(key, 0) + 1
    sampler.check()
    empirical = {key: c / sweeps for key, c in counts.items()}
    assert set(empirical) <= set(exact)
    assert tv_distance(empirical, exact) < 0.02
