import itertools
import math

import pytest

from topicmodels.core import SeededRng, index_rows, run_chain
from topicmodels.corpus import Corpus, CorpusError, Vocabulary, parse_plain, parse_sentences
from topicmodels.lda import LdaHyper
from topicmodels.sentence_lda import SentenceLdaSampler

from first_draw import add_sentence, assert_shares_match, remove_sentence, sentence_shares
from oracles import (assert_close_distribution, lda_joint_log, lda_token_oracle, normalize,
                     sentence_topic_oracle, tv_distance)


def test_requires_sentence_structure():
    corpus = parse_plain(["a b", "c"])
    with pytest.raises(CorpusError):
        hyper = LdaHyper(2)
        run_chain(SentenceLdaSampler(corpus, hyper, SeededRng(0)), 1)


@pytest.mark.parametrize("docword, sentences, message", [
    ([[0, 1]], [[1]], "doc 0: sentence ends"),        # the last sentence stops short
    ([[0, 1]], [[1, 3]], "doc 0: sentence ends"),     # or runs past the document
    ([[0, 1]], [[0, 2]], "doc 0: sentence ends"),     # an empty first sentence
    ([[0, 1]], [[1, 1, 2]], "doc 0: sentence ends"),  # an empty sentence inside
    ([[0, 1]], [[2, 1, 2]], "doc 0: sentence ends"),  # ends out of order
    ([[0, 1], [1]], [[2], [2]], "doc 1: sentence ends"),
    ([[0, 1], [1]], [[2]], "one list of sentence ends per document"),
    ([[0, 1]], [[2], [1]], "one list of sentence ends per document"),
], ids=["short", "long", "empty-first", "empty-inside", "unordered", "second-doc", "too-few",
        "too-many"])
def test_rejects_sentence_ends_that_do_not_split_the_documents(docword, sentences, message):
    corpus = Corpus(docword, Vocabulary({"a": 0, "b": 1}), sentences)
    rng = SeededRng(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=message):
        SentenceLdaSampler(corpus, LdaHyper(2), rng)
    assert rng.getstate() == state


def test_one_word_sentences_reduce_to_lda_conditional():
    # every sentence has one token: the rising factorials collapse and the
    # sentence conditional must match the plain token conditional
    corpus = parse_sentences(["a--b", "b--c--a"])
    hyper = LdaHyper(3, alpha=0.4, beta=0.2)
    sampler = SentenceLdaSampler(corpus, hyper, SeededRng(4))
    m, s = 1, 2
    k_old = remove_sentence(sampler, m, s)
    got = sampler.full_conditional(m, s)
    v = corpus.docword[m][2]
    want = lda_token_oracle(sampler.doc_topic[m], sampler.doc_total[m],
                            [sampler.word_topics[v].get(k, 0) for k in range(hyper.n_topics)],
                            sampler.clusters.cluster_total, hyper.alpha, hyper.beta,
                            corpus.n_words)
    assert_close_distribution(got, want)
    add_sentence(sampler, m, s, k_old)


def test_k1_is_certain():
    corpus = parse_sentences(["a b--c"])
    sampler = SentenceLdaSampler(corpus, LdaHyper(1), SeededRng(0))
    remove_sentence(sampler, 0, 0)
    assert normalize(sampler.full_conditional(0, 0)) == [1.0]


def test_full_conditional_matches_direct_product_oracle():
    rng = SeededRng(9)
    for _ in range(6):
        lines = []
        for _ in range(3):
            n_sent = rng.randrange(1, 4)
            sents = [" ".join(f"w{rng.randrange(5)}" for _ in range(rng.randrange(1, 5)))
                     for _ in range(n_sent)]
            lines.append("--".join(sents))
        corpus = parse_sentences(lines)
        hyper = LdaHyper(3, alpha=0.7, beta=0.15)
        sampler = SentenceLdaSampler(corpus, hyper, rng)
        m = rng.randrange(corpus.n_docs)
        s = rng.randrange(len(corpus.sentences[m]))
        remove_sentence(sampler, m, s)
        got = sampler.full_conditional(m, s)
        sentence = list(corpus.doc_sentences(m))[s]
        want = sentence_topic_oracle(sampler.doc_topic[m], sampler.doc_total[m],
                             index_rows(sampler.word_topics, hyper.n_topics),
                             sampler.clusters.cluster_total,
                             sentence, hyper.alpha, hyper.beta, corpus.n_words)
        assert_close_distribution(got, want)


def test_sweep_draw_matches_direct_product_oracle():
    # the first draw of sweep() itself: sentence 0 of document 0
    rng = SeededRng(19)
    for _ in range(4):
        lines = []
        for _ in range(3):
            sents = [" ".join(f"w{rng.randrange(5)}" for _ in range(rng.randrange(1, 5)))
                     for _ in range(rng.randrange(1, 4))]
            lines.append("--".join(sents))
        corpus = parse_sentences(lines)
        hyper = LdaHyper(3, alpha=0.7, beta=0.15)
        sampler = SentenceLdaSampler(corpus, hyper, rng)
        shares, t = sentence_shares(sampler)
        want = sentence_topic_oracle(t.doc_topic[0], t.doc_total[0], t.topic_word, t.topic_total,
                                     next(corpus.doc_sentences(0)), hyper.alpha, hyper.beta,
                                     corpus.n_words)
        assert_shares_match(shares, want)


def test_theta_numerator_counts_tokens_not_sentences():
    corpus = parse_sentences(["a b c--d e"])  # two sentences, five tokens
    hyper = LdaHyper(2, alpha=0.1, beta=0.1)
    sampler = SentenceLdaSampler(corpus, hyper, SeededRng(1))
    for _ in range(3):
        sampler.sweep()
    assert sum(sampler.doc_topic[0]) == 5
    theta = sampler.estimate().theta[0]
    n0 = sampler.doc_topic[0][0]
    assert theta[0] == pytest.approx((n0 + 0.1) / (5 + 0.2))


def test_token_totals_conserved_each_sweep():
    corpus = parse_sentences(["a b--c", "d--e f g", "a--a"])
    sampler = SentenceLdaSampler(corpus, LdaHyper(3), SeededRng(2))
    for _ in range(10):
        sampler.sweep()
        sampler.check()
        assert list(map(sum, sampler.doc_topic)) == sampler.doc_total
        assert sum(sampler.clusters.cluster_total) == corpus.n_tokens


def test_chain_matches_enumerated_posterior():
    # 4 sentences across 2 docs, K=2: enumerate all 16 sentence labelings
    corpus = parse_sentences(["a b--c", "a--b"])
    K, V = 2, corpus.n_words
    alpha = beta = 1.0
    sentence_slices = [list(corpus.doc_sentences(m)) for m in range(corpus.n_docs)]
    shape = [len(s) for s in sentence_slices]
    log_post = {}
    for flat in itertools.product(range(K), repeat=sum(shape)):
        z_tok, i = [], 0
        for m, n_sent in enumerate(shape):
            doc_z = []
            for s in range(n_sent):
                doc_z.extend([flat[i]] * len(sentence_slices[m][s]))
                i += 1
            z_tok.append(doc_z)
        log_post[flat] = lda_joint_log(corpus.docword, z_tok, K, V, alpha, beta)
    mx = max(log_post.values())
    exact = {k: math.exp(v - mx) for k, v in log_post.items()}
    tot = sum(exact.values())
    exact = {k: v / tot for k, v in exact.items()}

    sampler = SentenceLdaSampler(corpus, LdaHyper(K, alpha, beta), SeededRng(17))
    for _ in range(500):
        sampler.sweep()
    counts = {}
    sweeps = 30000
    for _ in range(sweeps):
        sampler.sweep()
        key = tuple(sampler.z[0]) + tuple(sampler.z[1])
        counts[key] = counts.get(key, 0) + 1
    empirical = {k: c / sweeps for k, c in counts.items()}
    assert tv_distance(empirical, exact) < 0.05


def test_check_rejects_a_stale_count():
    corpus = parse_sentences(["a b--c a", "b c--c"])
    sampler = SentenceLdaSampler(corpus, LdaHyper(2), SeededRng(4))
    sampler.sweep()
    sampler.check()
    k = sampler.z[0][1]
    sampler.word_topics[corpus.docword[0][2]][k] -= 1
    with pytest.raises(ValueError, match="word_topics"):
        sampler.check()


def test_check_recounts_the_word_index_and_the_cluster_tables():
    corpus = parse_sentences(["a b--c a", "b c--c"])
    sampler = SentenceLdaSampler(corpus, LdaHyper(2), SeededRng(4))
    sampler.sweep()
    sampler.check()
    k = sampler.z[0][1]
    sampler.word_topics[corpus.docword[0][2]][k] += 1
    with pytest.raises(ValueError, match="word_topics"):
        sampler.check()
    sampler.word_topics[corpus.docword[0][2]][k] -= 1
    sampler.clusters.n_docs_in[k] += 1
    with pytest.raises(ValueError, match="n_docs_in"):
        sampler.check()
