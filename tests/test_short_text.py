from collections import Counter

import pytest

from topicmodels.core import SeededRng, exp_normalize, index_rows, run_chain
from topicmodels.corpus import Corpus, Vocabulary, parse_plain, parse_sentences
from topicmodels.lda import LdaGibbsSampler, LdaHyper
from topicmodels.mixture import DmmSampler, DpmmSampler, MixtureHyper
from topicmodels.sentence_lda import SentenceLdaSampler
from topicmodels.short_text import (BtmHyper, BtmSampler, PtmHyper, PtmSampler,
                                    extract_biterms)

from first_draw import (assert_shares_match, biterm_shares, ptm_pseudo_doc_shares, ptm_token_shares,
                        put_biterm_first)
from oracles import assert_close_distribution, ptm_pseudo_doc_oracle, ptm_token_oracle, btm_biterm_oracle, normalize


def make_corpus(rng, n_docs=5, v=6, max_len=6):
    docs = [" ".join(f"w{rng.randrange(v)}" for _ in range(rng.randrange(2, max_len)))
            for _ in range(n_docs)]
    return parse_plain(docs)


# ---------------------------------------------------------------- PTM

def test_ptm_single_pseudo_doc_certain():
    corpus = parse_plain(["a b", "c"])
    sampler = PtmSampler(corpus, PtmHyper(1, 2), SeededRng(0))
    sampler.tables.remove_doc(0, sampler.l[0])
    logs = sampler.tables.prior_logs(sampler.hyper.doc_lambda)
    assert normalize(exp_normalize(sampler.tables.weights(0, logs))) == [1.0]


def test_ptm_pseudo_doc_conditional_matches_oracle():
    rng = SeededRng(41)
    for _ in range(6):
        corpus = make_corpus(rng)
        P, K = rng.randrange(2, 4), rng.randrange(2, 4)
        hyper = PtmHyper(P, K, alpha=0.4, beta=0.2, doc_lambda=0.3)
        sampler = PtmSampler(corpus, hyper, rng)
        m = rng.randrange(corpus.n_docs)
        tables = sampler.tables
        tables.remove_doc(m, sampler.l[m])
        got = exp_normalize(tables.weights(m, tables.prior_logs(0.3)))
        doc_counts = Counter(sampler.z[m])
        want = ptm_pseudo_doc_oracle(tables.n_docs_in, index_rows(tables.word_clusters, P),
                        tables.cluster_total, doc_counts, len(corpus.docword[m]), corpus.n_docs,
                        P, K, 0.3, 0.4)
        assert_close_distribution(got, want)


def test_ptm_pseudo_doc_draw_is_the_dmm_draw():
    # PTM's pseudo-document draw is DMM's document draw with pseudo
    # documents as clusters, topics as words and (lambda, alpha, K) as
    # (alpha, beta, V): a DMM chain over documents that are PTM's token
    # topics, in PTM's pseudo documents, weighs every document the same,
    # to the bit
    rng = SeededRng(53)
    for _ in range(4):
        corpus = make_corpus(rng, n_docs=6)
        P, K = rng.randrange(2, 4), rng.randrange(2, 5)
        lam, alpha = 0.3, 0.4
        ptm = PtmSampler(corpus, PtmHyper(P, K, alpha=alpha, beta=0.2, doc_lambda=lam), rng)
        for _ in range(2):
            ptm.sweep()
        vocabulary = Vocabulary()
        for k in range(K):
            vocabulary.add(f"t{k}")
        topics = Corpus(docword=[list(zm) for zm in ptm.z], vocabulary=vocabulary)
        dmm = DmmSampler(topics, MixtureHyper(P, lam, alpha), rng)
        dmm.z[:] = ptm.l
        vars(dmm.tables).update(dmm.tables.counts(dmm.z, P))
        for m in range(corpus.n_docs):
            ptm.tables.remove_doc(m, ptm.l[m])
            dmm.tables.remove_doc(m, dmm.z[m])
            logs = ptm.tables.prior_logs(lam)
            assert (exp_normalize(ptm.tables.weights(m, logs))
                    == exp_normalize(dmm.tables.weights(m, dmm.tables.prior_logs(lam))))
            ptm.tables.add_doc(m, ptm.l[m])
            dmm.tables.add_doc(m, dmm.z[m])


def test_ptm_pseudo_doc_sweep_draw_matches_oracle():
    # the first draw of sweep() itself: document 0's pseudo document
    rng = SeededRng(47)
    for _ in range(4):
        corpus = make_corpus(rng)
        P, K = rng.randrange(2, 4), rng.randrange(2, 4)
        sampler = PtmSampler(corpus, PtmHyper(P, K, alpha=0.4, beta=0.2, doc_lambda=0.3), rng)
        shares, excluded = ptm_pseudo_doc_shares(sampler)
        doc_counts = Counter(sampler.z[0])
        want = ptm_pseudo_doc_oracle(*excluded, doc_counts, len(corpus.docword[0]),
                                     corpus.n_docs, P, K, 0.3, 0.4)
        assert_shares_match(shares, want)


def test_ptm_topic_conditional_matches_oracle():
    # the first draw of sweep()'s token step, after its scripted
    # pseudo-document draws
    rng = SeededRng(43)
    for _ in range(6):
        corpus = make_corpus(rng)
        P, K = 2, 3
        hyper = PtmHyper(P, K, alpha=0.4, beta=0.2)
        sampler = PtmSampler(corpus, hyper, rng)
        m = rng.randrange(corpus.n_docs)
        n = rng.randrange(len(corpus.docword[m]))
        prefix = [rng.random() for _ in range(corpus.n_docs)]
        shares, excluded = ptm_token_shares(sampler, m, n, prefix)
        assert_shares_match(shares, ptm_token_oracle(*excluded, 0.4, 0.2, K, corpus.n_words))


def test_ptm_doc_counts_conserved():
    rng = SeededRng(5)
    corpus = make_corpus(rng, n_docs=8)
    sampler = PtmSampler(corpus, PtmHyper(3, 2), SeededRng(1))
    for _ in range(10):
        sampler.sweep()
        tables = sampler.tables
        rows = index_rows(tables.word_clusters, 3)
        assert sum(tables.n_docs_in) == corpus.n_docs
        assert sum(tables.cluster_total) == corpus.n_tokens
        # recount every table from the latent state
        for l in range(3):
            members = [m for m in range(corpus.n_docs) if sampler.l[m] == l]
            assert tables.n_docs_in[l] == len(members)
            for k in range(2):
                want = sum(1 for m in members for z in sampler.z[m] if z == k)
                assert rows[l][k] == want
        for m in range(corpus.n_docs):
            for k in range(2):
                got = dict(tables.unit_items[m]).get(k, 0)
                assert got == sum(1 for z in sampler.z[m] if z == k)


def test_ptm_check_recounts_every_table():
    corpus = make_corpus(SeededRng(6), n_docs=8)
    sampler = PtmSampler(corpus, PtmHyper(3, 2), SeededRng(2))
    for _ in range(5):
        sampler.sweep()
        sampler.check()
    l = sampler.l[0]
    sampler.tables.word_clusters[sampler.z[0][0]][l] += 1
    with pytest.raises(ValueError, match="word_clusters"):
        sampler.check()
    sampler.tables.word_clusters[sampler.z[0][0]][l] -= 1
    # each document's (topic, count) list, rebuilt after the token step
    k, c = sampler.tables.unit_items[0][0]
    sampler.tables.unit_items[0][0] = (k, c + 1)
    with pytest.raises(ValueError, match="unit_items"):
        sampler.check()


def test_ptm_check_recounts_pseudo_doc_index():
    # the topic -> {pseudo document: N_lk} index is rebuilt after each
    # token step; check() recounts it with the rest of the tables
    corpus = make_corpus(SeededRng(6), n_docs=8)
    sampler = PtmSampler(corpus, PtmHyper(3, 2), SeededRng(2))
    for _ in range(5):
        sampler.sweep()
        sampler.check()
    held = sampler.tables.word_clusters[sampler.z[0][0]]
    held[sampler.l[0]] += 1
    with pytest.raises(ValueError, match="word_clusters"):
        sampler.check()
    held[sampler.l[0]] -= 1
    sampler.check()


def test_ptm_fit_outputs_are_stochastic():
    corpus = parse_plain(["a b a", "c d", "b d d"])
    hyper = PtmHyper(2, 3)
    fit = run_chain(PtmSampler(corpus, hyper, SeededRng(3)), 10)
    for row in fit.theta + fit.pseudo_theta + fit.phi:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)
    assert len(fit.doc_pseudo) == 3


# ---------------------------------------------------------------- biterms

def test_extract_biterms_three_word_document():
    corpus = parse_plain(["w1 w2 w3"])
    for window in (3, 5):
        bits = extract_biterms(corpus, window)
        pairs = {(b.w1, b.w2) for b in bits}
        assert pairs == {(0, 1), (1, 2), (0, 2)}
        assert sum(b.count for b in bits) == 3


def test_extract_biterms_single_word_doc():
    corpus = parse_plain(["solo", "a b"])
    bits = extract_biterms(corpus, 5)
    assert all(b.doc == 1 for b in bits)


def test_extract_biterms_complete_graph_count():
    for n in (2, 4, 7):
        words = " ".join(f"w{i}" for i in range(n))
        corpus = parse_plain([words])
        bits = extract_biterms(corpus, n)
        assert sum(b.count for b in bits) == n * (n - 1) // 2


def test_extract_biterms_window_semantics_and_monotone():
    corpus = parse_plain(["a b c d"])
    w2 = {(b.w1, b.w2): b.count for b in extract_biterms(corpus, 2)}
    assert w2 == {(0, 1): 1, (1, 2): 1, (2, 3): 1}  # only adjacent pairs
    prev = w2
    for window in (3, 4, 5):
        cur = {(b.w1, b.w2): b.count for b in extract_biterms(corpus, window)}
        for pair, count in prev.items():
            assert cur.get(pair, 0) >= count
        prev = cur


def test_extract_biterms_duplicates_accumulate():
    corpus = parse_plain(["a b a"])
    bits = {(b.w1, b.w2): b.count for b in extract_biterms(corpus, 3)}
    assert bits == {(0, 1): 2, (0, 0): 1}


def test_extract_biterms_rejects_small_window():
    corpus = parse_plain(["a b"])
    with pytest.raises(ValueError):
        extract_biterms(corpus, 1)


# ---------------------------------------------------------------- BTM

def test_btm_conditional_uniform_and_k1():
    # one biterm: with it excluded every count is zero
    sampler = BtmSampler(parse_plain(["a b"]), BtmHyper(3, window=2), SeededRng(0))
    assert biterm_shares(sampler) == pytest.approx({k: 1 / 3 for k in range(3)})
    corpus = parse_plain(["a b", "c d"])
    single = BtmSampler(corpus, BtmHyper(1, window=2), SeededRng(0))
    assert biterm_shares(single) == {0: 1.0}


def check_biterm_against_oracle(sampler, i):
    """The kernel's shares for biterm instance i, drawn first, against the oracle."""
    K, V = sampler.hyper.n_topics, sampler.corpus.n_words
    counts = put_biterm_first(sampler, i)
    w1, w2 = sampler.instances[0]
    want = btm_biterm_oracle(counts["n_b"],
                    [counts["word_topics"][w1].get(kk, 0) for kk in range(K)],
                    [counts["word_topics"][w2].get(kk, 0) for kk in range(K)],
                    counts["topic_total"], sampler.n_biterms, 0.3, 0.15, K, V, w1 == w2)
    assert_shares_match(biterm_shares(sampler), want)


def test_btm_conditional_matches_oracle():
    # each state checks a random biterm and, where there is one, a biterm of
    # one word twice, whose two slots read the same word-index dict
    rng = SeededRng(47)
    repeated = 0
    for _ in range(6):
        corpus = make_corpus(rng)
        K = rng.randrange(2, 4)
        sampler = BtmSampler(corpus, BtmHyper(K, alpha=0.3, beta=0.15, window=3), rng)
        check_biterm_against_oracle(sampler, rng.randrange(len(sampler.instances)))
        same = [i for i, (w1, w2) in enumerate(sampler.instances) if w1 == w2]
        if same:
            check_biterm_against_oracle(sampler, same[0])
            repeated += 1
    assert repeated == 5


@pytest.mark.parametrize("lines, pair", [
    # a and b, with unequal counts, sit in the probed topic alone
    (["a b c", "a b", "c d e", "d e c", "b c a", "a d"], (0, 1)),
    # a biterm of a word twice: both slots read a's one-topic dict, whose
    # value with the biterm out is n_ka - 2
    (["a a b", "a a", "c d a", "c d", "b c d"], (0, 0)),
], ids=["two-words", "one-word-twice"])
def test_btm_draw_of_words_their_own_topic_holds_alone(lines, pair):
    # the one-topic path of the BTM draw: every biterm that holds a word of
    # the probed biterm is in topic 1, so both words' index dicts hold topic
    # 1 alone; the other biterms spread over K = 3
    corpus = parse_plain(lines)
    sampler = BtmSampler(corpus, BtmHyper(3, alpha=0.3, beta=0.15, window=3), SeededRng(0))
    sampler.z = [1 if set(pair) & set(b) else i % 3 for i, b in enumerate(sampler.instances)]
    index = sampler._counts()["word_topics"]
    assert [list(index[w]) for w in pair] == [[1], [1]]
    assert sum(index[pair[0]].values()) != sum(index[pair[1]].values()) or pair[0] == pair[1]
    check_biterm_against_oracle(sampler, sampler.instances.index(pair))


def test_btm_word_slots_invariant():
    rng = SeededRng(8)
    corpus = make_corpus(rng, n_docs=6)
    sampler = BtmSampler(corpus, BtmHyper(3, window=4), rng)
    for _ in range(10):
        sampler.sweep()
        rows = index_rows(sampler.word_topics, 3)
        for k in range(3):
            assert sum(rows[k]) == 2 * sampler.n_b[k]
            assert sampler.topic_total[k] == 2 * sampler.n_b[k]
        assert sum(sampler.n_b) == sampler.n_biterms


def test_btm_check_recounts_every_table():
    corpus = make_corpus(SeededRng(9), n_docs=6)
    sampler = BtmSampler(corpus, BtmHyper(3, window=4), SeededRng(4))
    for _ in range(5):
        sampler.sweep()
        sampler.check()
    w1, _ = sampler.instances[0]
    sampler.word_topics[w1][sampler.z[0]] += 1
    with pytest.raises(ValueError, match="word_topics"):
        sampler.check()


def test_btm_theta_sums_to_one():
    corpus = parse_plain(["a b c", "b c d"])
    hyper = BtmHyper(4, window=3)
    fit = run_chain(BtmSampler(corpus, hyper, SeededRng(2)), 10)
    assert sum(fit.theta) == pytest.approx(1.0, abs=1e-9)


def test_btm_doc_topic_matches_independent_evaluation():
    corpus = parse_plain(["a b c", "b d", "a d d a"])
    hyper = BtmHyper(3, alpha=0.2, beta=0.1, window=3)
    rng = SeededRng(11)
    sampler = BtmSampler(corpus, hyper, rng)
    for _ in range(10):
        sampler.sweep()
    fit = sampler.estimate()
    biterms = extract_biterms(corpus, 3)
    for m in range(corpus.n_docs):
        mine = [b for b in biterms if b.doc == m]
        n_m = sum(b.count for b in mine)
        want = [0.0] * 3
        for b in mine:
            joint = [fit.theta[k] * fit.phi[k][b.w1] * fit.phi[k][b.w2] for k in range(3)]
            tot = sum(joint)
            for k in range(3):
                want[k] += joint[k] / tot * b.count / n_m
        assert fit.doc_topic[m] == pytest.approx(want, rel=1e-12)
        assert sum(fit.doc_topic[m]) == pytest.approx(1.0, abs=1e-9)


def test_btm_k1_doc_rows_are_one():
    corpus = parse_plain(["a b", "c d e"])
    hyper = BtmHyper(1, window=3)
    fit = run_chain(BtmSampler(corpus, hyper, SeededRng(0)), 3)
    assert [row.tolist() for row in fit.doc_topic] == [[1.0], [1.0]]


def test_btm_biterm_free_doc_gets_uniform_row(caplog):
    import logging
    corpus = parse_plain(["a b c", "solo"])
    hyper = BtmHyper(2, window=3)
    with caplog.at_level(logging.WARNING):
        fit = run_chain(BtmSampler(corpus, hyper, SeededRng(0)), 3)
    assert fit.doc_topic[1].tolist() == [0.5, 0.5]
    assert any("no biterms" in r.message for r in caplog.records)


def test_btm_rejects_corpus_without_biterms():
    corpus = parse_plain(["a", "b"])
    with pytest.raises(ValueError):
        hyper = BtmHyper(2, window=5)
        run_chain(BtmSampler(corpus, hyper, SeededRng(0)), 1)


# ------------------------------------------- bucketed kernels: edge cases

def sweep_checked(sampler, sweeps=10):
    sampler.check()
    for _ in range(sweeps):
        sampler.sweep()
        sampler.check()


def test_btm_buckets_biterm_of_one_word_twice():
    corpus = parse_plain(["a a b", "a a", "b c a a"])
    sampler = BtmSampler(corpus, BtmHyper(3, window=3), SeededRng(12))
    assert (0, 0) in sampler.instances  # "a a"
    sweep_checked(sampler, 30)


# every sampler that keeps a word index, how to build it on a corpus, and
# where its index is
INDEXED = {
    "btm": (lambda corpus: BtmSampler(corpus, BtmHyper(3, window=2), SeededRng(13)),
            lambda sampler: sampler.word_topics),
    "ptm": (lambda corpus: PtmSampler(corpus, PtmHyper(2, 3), SeededRng(13)),
            lambda sampler: sampler.word_topics),
    "lda-gibbs": (lambda corpus: LdaGibbsSampler(corpus, LdaHyper(3), SeededRng(13)),
                  lambda sampler: sampler.word_topics),
    "sentence-lda": (lambda corpus: SentenceLdaSampler(corpus, LdaHyper(3), SeededRng(13)),
                     lambda sampler: sampler.word_topics),
    "dmm": (lambda corpus: DmmSampler(corpus, MixtureHyper(3, 0.5, 0.5), SeededRng(13)),
            lambda sampler: sampler.tables.word_clusters),
    "dpmm": (lambda corpus: DpmmSampler(corpus, MixtureHyper(3, 0.5, 0.5), SeededRng(13)),
             lambda sampler: sampler.tables.word_clusters),
}


@pytest.mark.parametrize("model", sorted(INDEXED))
def test_buckets_word_whose_topic_dict_empties(model):
    # "solo" occurs once, so its word index holds one topic (or cluster)
    # with count 1, which each draw takes to 0: the draw weighs that topic
    # with the count at 0, and the count comes back in the same topic or
    # another.  check() recounts every index after every sweep, and the
    # chain both keeps and moves solo's topic
    lines = ["solo a b", "a b c", "b c a"]
    corpus = parse_sentences(lines) if model == "sentence-lda" else parse_plain(lines)
    solo = corpus.vocabulary.word_to_id["solo"]
    build, index = INDEXED[model]
    sampler = build(corpus)
    held = []
    sampler.check()
    for _ in range(30):
        assert list(index(sampler)[solo].values()) == [1]
        held.extend(index(sampler)[solo])
        sampler.sweep()
        sampler.check()
    assert list(index(sampler)[solo].values()) == [1]
    moves = sum(a != b for a, b in zip(held, held[1:]))
    assert 0 < moves < len(held) - 1, held


def test_btm_buckets_empty_topics_at_unit_v_beta():
    # V beta = 1 exactly, and more topics than the chain fills: A_k with one
    # biterm taken out, cached per topic, would divide by
    # (n_k* - 2 + V beta + 1) = 0 for an empty topic
    corpus = parse_plain(["a b c d", "a b", "c d"])
    sampler = BtmSampler(corpus, BtmHyper(6, beta=0.25), SeededRng(1))
    sweep_checked(sampler, 50)
    assert 0 in sampler.n_b


def test_btm_buckets_k1():
    corpus = parse_plain(["a b c", "b b d", "d a"])
    sampler = BtmSampler(corpus, BtmHyper(1, window=3), SeededRng(14))
    sweep_checked(sampler)
    assert sampler.z == [0] * sampler.n_biterms
    assert sampler.n_b == [sampler.n_biterms]


def test_ptm_k1():
    corpus = parse_plain(["a b c", "b b d", "d a"])
    sampler = PtmSampler(corpus, PtmHyper(2, 1), SeededRng(15))
    sweep_checked(sampler)
    assert sampler.z == [[0] * len(doc) for doc in corpus.docword]
    assert sampler.tables.unit_items == [[(0, len(doc))] for doc in corpus.docword]


def planted_corpus(rng, n_docs=40, n_topics=4, words=8, length=10, noise=0.2):
    """Documents of one planted topic each, over the topic's own words,
    with a share ``noise`` of tokens from a pool all topics share."""
    return parse_plain([" ".join(f"w{rng.randrange(30)}" if rng.random() < noise
                                 else f"t{k}w{rng.randrange(words)}" for _ in range(length))
                        for k in (rng.randrange(n_topics) for _ in range(n_docs))])


@pytest.mark.parametrize("model", ["lda-gibbs", "btm"])
def test_settled_chain_keeps_its_tables(model):
    # a chain that settles: by the last sweep, over a third of the draws
    # find their word (BTM: both words) held by their own topic alone, the
    # one-topic path that keeps the topic without writing, or takes the
    # item out and walks on.  check() recounts every table after every sweep
    corpus = planted_corpus(SeededRng(21))
    if model == "btm":
        sampler = BtmSampler(corpus, BtmHyper(4, beta=0.1, window=3), SeededRng(22))
        items = sampler.instances
    else:
        sampler = LdaGibbsSampler(corpus, LdaHyper(20), SeededRng(22))
        items = [(v,) for doc in corpus.docword for v in doc]
    sweep_checked(sampler, 30)
    one_topic = sum(all(len(sampler.word_topics[w]) == 1 for w in item) for item in items)
    assert one_topic > len(items) / 3
