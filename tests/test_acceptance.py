"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every tolerance is pinned inside the assertions; the
timed criteria also assert their runtime budgets.
"""

import itertools
import math
import time
from collections import Counter

import pytest

from topicmodels.cli import main as cli_main
from topicmodels.core import SeededRng, exp_normalize, run_chain
from topicmodels.corpus import parse_plain, parse_sentences, parse_tagged, preprocess
from topicmodels.dual_sparse import DualSparseCvb0, SparseHyper
from topicmodels.evaluation import average_coherence, topic_coherence
from topicmodels.hdp import HdpHyper, HdpSampler
from topicmodels.lda import LdaCvb0, LdaGibbsSampler, LdaHyper
from topicmodels.linked import AtmSampler, LinkLdaHyper, LinkLdaSampler
from topicmodels.mixture import DmmSampler, DpmmSampler, MixtureHyper
from topicmodels.reports import (parse_doc_topic_file, parse_topic_word_file,
                                 parse_value_lines, write_doc_topic_file,
                                 write_value_lines)
from topicmodels.sentence_lda import SentenceLdaSampler
from topicmodels.short_text import BtmHyper, BtmSampler, PtmHyper, PtmSampler, extract_biterms
from topicmodels.supervised import LabeledLdaHyper, LabeledLdaSampler, PldaHyper, PldaSampler

from oracles import (assert_close_distribution, cosine, lda_token_oracle, sentence_topic_oracle,
                     dmm_doc_oracle, dpmm_doc_oracle, ptm_pseudo_doc_oracle, ptm_token_oracle, btm_biterm_oracle,
                     atm_joint_oracle, linklda_word_oracle, linklda_link_oracle,
                     labeled_token_oracle, plda_token_oracle, lda_joint_log, ptm_joint_log,
                     btm_joint_log, linklda_joint_log, tv_distance)
from first_draw import (assert_shares_match, biterm_shares, lda_token_shares, linklda_shares,
                        ptm_token_shares, put_biterm_first, put_lda_token_first,
                        remove_sentence, with_state)


def ok(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def random_docs(rng, n_docs, v, lo=2, hi=6):
    return [" ".join(f"w{rng.randrange(v)}" for _ in range(rng.randrange(lo, hi)))
            for _ in range(n_docs)]


# ---------------------------------------------------------------------------
# 1. exact-posterior oracle for the LDA collapsed Gibbs chain
# ---------------------------------------------------------------------------

def _normalized(log_post):
    """The distribution with these unnormalised log probabilities."""
    mx = max(log_post.values())
    exact = {k: math.exp(v - mx) for k, v in log_post.items()}
    total = sum(exact.values())
    return {k: v / total for k, v in exact.items()}


def _chain_tv(sampler, state, exact):
    """Total-variation distance between ``exact`` and the frequencies of
    ``state(sampler)`` after each of 200,000 sweeps past a 2,000-sweep burn-in."""
    for _ in range(2000):
        sampler.sweep()
    sweeps = 200000
    counts = {}
    for _ in range(sweeps):
        sampler.sweep()
        key = state(sampler)
        counts[key] = counts.get(key, 0) + 1
    return tv_distance({k: c / sweeps for k, c in counts.items()}, exact)


def _criterion_1(K, allowed, label):
    """Run criterion 1 on K topics, each document's tokens within
    ``allowed[m]`` (every topic where ``allowed`` is None)."""
    start = time.perf_counter()
    corpus = parse_plain(["w0 w1 w2", "w1 w2 w3", "w0 w3"])
    V = corpus.n_words
    assert corpus.n_tokens == 8 and V == 4 and corpus.n_docs == 3
    alpha = beta = 1.0
    sizes = [len(d) for d in corpus.docword]
    supports = [allowed[m] if allowed else range(K) for m, s in enumerate(sizes) for _ in range(s)]

    log_post = {}
    for flat in itertools.product(*supports):
        z, i = [], 0
        for s in sizes:
            z.append(list(flat[i:i + s]))
            i += s
        log_post[flat] = lda_joint_log(corpus.docword, z, K, V, alpha, beta)
    assert len(log_post) == 2 ** 8
    exact = _normalized(log_post)

    sampler = LdaGibbsSampler(corpus, LdaHyper(K, alpha, beta), SeededRng(20240601),
                              allowed=allowed)
    tv = _chain_tv(sampler, lambda s: (*s.z[0], *s.z[1], *s.z[2]), exact)
    sampler.check()
    elapsed = time.perf_counter() - start
    assert tv < 0.02, f"total-variation distance {tv:.4f}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    ok(1, f"lda-gibbs, {label}: TV distance {tv:.4f} < 0.02 over 2^8 assignments "
          f"({elapsed:.1f}s)")


def test_criterion_1_exact_posterior_lda_gibbs():
    _criterion_1(2, None, "every topic allowed")


def test_criterion_1_exact_posterior_lda_gibbs_sparse():
    # K=3 with two allowed topics per document ("sparse" allowed-topic
    # rows): the chain must keep to the restricted posterior
    _criterion_1(3, [[0, 1], [1, 2], [0, 2]], "sparse allowed-topic rows")


def test_criterion_1_exact_posterior_ptm():
    """PTM's chain over (pseudo document of each document, topic of each
    token), P = K = 2: 2^3 x 2^5 states against the collapsed joint."""
    start = time.perf_counter()
    corpus = parse_plain(["w0 w1", "w1 w2", "w2"])
    P, K, V = 2, 2, corpus.n_words
    lam, alpha, beta = 0.8, 0.7, 0.6
    log_post = {}
    for ls in itertools.product(range(P), repeat=3):
        for zs in itertools.product(range(K), repeat=5):
            z = [list(zs[0:2]), list(zs[2:4]), list(zs[4:5])]
            log_post[(*ls, *zs)] = ptm_joint_log(corpus.docword, ls, z, P, K, V,
                                                 lam, alpha, beta)
    exact = _normalized(log_post)
    sampler = PtmSampler(corpus, PtmHyper(P, K, alpha, beta, lam), SeededRng(20240602))
    tv = _chain_tv(sampler, lambda s: (*s.l, *s.z[0], *s.z[1], *s.z[2]), exact)
    elapsed = time.perf_counter() - start
    assert tv < 0.02, f"total-variation distance {tv:.4f}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    ok(1, f"ptm: TV distance {tv:.4f} < 0.02 over 2^3 x 2^5 assignments ({elapsed:.1f}s)")


def _btm_criterion_1(lines, window, alpha, beta, n_biterms, seed):
    """BTM's chain over the topics of the biterms of ``lines``, K = 2,
    against the collapsed joint."""
    start = time.perf_counter()
    corpus = parse_plain(lines)
    K, V = 2, corpus.n_words
    biterms = [(b.w1, b.w2) for b in extract_biterms(corpus, window) for _ in range(b.count)]
    assert len(biterms) == n_biterms
    exact = _normalized({zs: btm_joint_log(biterms, zs, K, V, alpha, beta)
                         for zs in itertools.product(range(K), repeat=n_biterms)})
    sampler = BtmSampler(corpus, BtmHyper(K, alpha, beta, window), SeededRng(seed))
    assert sampler.instances == biterms
    tv = _chain_tv(sampler, lambda s: tuple(s.z), exact)
    elapsed = time.perf_counter() - start
    assert tv < 0.02, f"total-variation distance {tv:.4f}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    return biterms, tv, elapsed


def test_criterion_1_exact_posterior_btm():
    """No biterm here is one word twice."""
    biterms, tv, elapsed = _btm_criterion_1(["w0 w1 w2", "w1 w3", "w2 w3 w0", "w1 w2"],
                                            3, 0.9, 0.5, 8, 20240603)
    assert all(w1 != w2 for w1, w2 in biterms)
    ok(1, f"btm: TV distance {tv:.4f} < 0.02 over 2^8 assignments ({elapsed:.1f}s)")


def test_criterion_1_exact_posterior_btm_repeated_words():
    """Two of the four biterms are one word twice, whose second slot sees
    the first: (c + b)(c + b + 1) in the conditional, not (c + b)^2."""
    biterms, tv, elapsed = _btm_criterion_1(["a a", "a b", "b b a"], 2, 1.0, 0.5, 4, 20240605)
    assert sum(w1 == w2 for w1, w2 in biterms) == 2
    ok(1, f"btm, repeated words: TV distance {tv:.4f} < 0.02 over 2^4 assignments "
          f"({elapsed:.1f}s)")


def test_criterion_1_exact_posterior_link_lda():
    """Link LDA's chain over the topics of five words and three links, K = 2:
    2^8 states against the collapsed joint.  The last document has no link."""
    start = time.perf_counter()
    corpus = parse_tagged(["100--200\tw0 w1", "200\tw1 w2", " \tw0"], kind="links")
    K, V, L = 2, corpus.n_words, len(corpus.meta_vocabulary)
    alpha, beta, gamma = 0.9, 0.7, 0.6
    sizes = [len(d) for d in corpus.docword] + [len(ls) for ls in corpus.links]
    assert sizes == [2, 2, 1, 2, 1, 0]
    log_post = {}
    for flat in itertools.product(range(K), repeat=8):
        z = [list(flat[0:2]), list(flat[2:4]), list(flat[4:5])]
        x = [list(flat[5:7]), list(flat[7:8]), []]
        log_post[flat] = linklda_joint_log(corpus.docword, corpus.links, z, x, K, V, L,
                                           alpha, beta, gamma)
    exact = _normalized(log_post)
    sampler = LinkLdaSampler(corpus, LinkLdaHyper(K, alpha, beta, gamma), SeededRng(20240604))
    tv = _chain_tv(sampler, lambda s: (*s.z[0], *s.z[1], *s.z[2], *s.x[0], *s.x[1]), exact)
    elapsed = time.perf_counter() - start
    assert tv < 0.02, f"total-variation distance {tv:.4f}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    ok(1, f"link-lda: TV distance {tv:.4f} < 0.02 over 2^8 assignments ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. direct-arithmetic scalar oracles for every full conditional
# ---------------------------------------------------------------------------

def _states(seed, builder, n_states=5):
    rng = SeededRng(seed)
    for _ in range(n_states):
        builder(rng)


def test_criterion_2_full_conditional_scalar_oracles():
    checked = []

    def lda_case(rng):
        corpus = parse_plain(random_docs(rng, 4, 5))
        K = rng.randrange(2, 5)
        sampler = LdaGibbsSampler(corpus, LdaHyper(K, 0.37, 0.08), rng)
        m = rng.randrange(corpus.n_docs)
        n = rng.randrange(len(corpus.docword[m]))
        tables = put_lda_token_first(sampler, m, n)
        v = corpus.docword[0][0]
        want = lda_token_oracle(tables.doc_topic[0], tables.doc_total[0],
                       [tables.topic_word[k][v] for k in range(K)],
                       tables.topic_total, 0.37, 0.08, corpus.n_words)
        assert_shares_match(lda_token_shares(sampler), want)

    def sentence_case(rng):
        lines = ["--".join(" ".join(f"w{rng.randrange(5)}"
                                    for _ in range(rng.randrange(1, 4)))
                           for _ in range(rng.randrange(1, 4)))
                 for _ in range(3)]
        corpus = parse_sentences(lines)
        sampler = SentenceLdaSampler(corpus, LdaHyper(3, 0.7, 0.15), rng)
        m = rng.randrange(corpus.n_docs)
        s = rng.randrange(len(corpus.sentences[m]))
        remove_sentence(sampler, m, s)
        sentence = list(corpus.doc_sentences(m))[s]
        want = sentence_topic_oracle(sampler.tables.doc_topic[m], sampler.tables.doc_total[m],
                             sampler.tables.topic_word, sampler.tables.topic_total,
                             sentence, 0.7, 0.15, corpus.n_words)
        assert_close_distribution(sampler.full_conditional(m, s), want)

    def dmm_case(rng):
        corpus = parse_plain(random_docs(rng, 5, 5))
        K = rng.randrange(2, 5)
        sampler = DmmSampler(corpus, MixtureHyper(K, 0.45, 0.12), rng)
        m = rng.randrange(corpus.n_docs)
        sampler.tables.remove_doc(m, sampler.z[m])
        want = dmm_doc_oracle(sampler.tables.n_docs_in, sampler.tables.cluster_word,
                        sampler.tables.cluster_total, corpus.docword[m],
                        corpus.n_docs, 0.45, 0.12, corpus.n_words)
        assert_close_distribution(sampler.full_conditional(m), want)

    def dpmm_case(rng):
        corpus = parse_plain(random_docs(rng, 6, 5))
        sampler = DpmmSampler(corpus, MixtureHyper(3, 0.85, 0.2), rng)
        m = rng.randrange(corpus.n_docs)
        old = sampler.z[m]
        sampler.tables.remove_doc(m, old)
        sampler.z[m] = -1
        if sampler.tables.n_docs_in[old] == 0:
            sampler.tables.delete_cluster(old, sampler.z)
        want = dpmm_doc_oracle(sampler.tables.n_docs_in, sampler.tables.cluster_word,
                         sampler.tables.cluster_total, corpus.docword[m],
                         corpus.n_docs, 0.85, 0.2, corpus.n_words)
        assert_close_distribution(sampler.full_conditional(m), want)

    def ptm_pseudo_case(rng):
        corpus = parse_plain(random_docs(rng, 5, 5))
        P, K = rng.randrange(2, 4), rng.randrange(2, 4)
        sampler = PtmSampler(corpus, PtmHyper(P, K, 0.4, 0.2, 0.3), rng)
        m = rng.randrange(corpus.n_docs)
        n_m = len(corpus.docword[m])
        tables = sampler.tables
        tables.remove_doc(m, sampler.l[m])
        doc_counts = Counter(sampler.z[m])
        want = ptm_pseudo_doc_oracle(tables.n_docs_in, tables.cluster_word, tables.cluster_total,
                        doc_counts, n_m, corpus.n_docs, P, K, 0.3, 0.4)
        assert_close_distribution(exp_normalize(tables.weights(m, tables.prior_logs(0.3))), want)

    def ptm_topic_case(rng):
        # the first draw of sweep()'s token step, after its scripted
        # pseudo-document draws
        corpus = parse_plain(random_docs(rng, 5, 5))
        K = 3
        sampler = PtmSampler(corpus, PtmHyper(2, K, 0.4, 0.2, 0.3), rng)
        m = rng.randrange(corpus.n_docs)
        n = rng.randrange(len(corpus.docword[m]))
        prefix = [rng.random() for _ in range(corpus.n_docs)]
        shares, excluded = ptm_token_shares(sampler, m, n, prefix)
        assert_shares_match(shares, ptm_token_oracle(*excluded, 0.4, 0.2, K, corpus.n_words))

    def btm_case(rng):
        corpus = parse_plain(random_docs(rng, 5, 5))
        K = rng.randrange(2, 4)
        sampler = BtmSampler(corpus, BtmHyper(K, 0.3, 0.15, 3), rng)
        i = rng.randrange(len(sampler.instances))
        counts = put_biterm_first(sampler, i)
        w1, w2 = sampler.instances[0]
        want = btm_biterm_oracle(counts["n_b"],
                        [counts["topic_word"][kk][w1] for kk in range(K)],
                        [counts["topic_word"][kk][w2] for kk in range(K)],
                        counts["topic_total"], sampler.n_biterms, 0.3, 0.15,
                        K, corpus.n_words, w1 == w2)
        assert_shares_match(biterm_shares(sampler), want)

    def atm_case(rng):
        lines = [f"A{rng.randrange(3)},A{rng.randrange(3, 5)}\t" + doc
                 for doc in random_docs(rng, 4, 5)]
        corpus = parse_tagged(lines, kind="authors")
        K = rng.randrange(2, 4)
        sampler = AtmSampler(corpus, LdaHyper(K, 0.4, 0.15), rng)
        m = rng.randrange(corpus.n_docs)
        n = rng.randrange(len(corpus.docword[m]))
        a, k = sampler.x[m][n], sampler.z[m][n]
        v = corpus.docword[m][n]
        sampler.tables.doc_topic[a][k] -= 1
        sampler.tables.doc_total[a] -= 1
        sampler.tables.topic_word[k][v] -= 1
        sampler.tables.topic_total[k] -= 1
        got, authors = sampler.full_conditional(m, v)
        rows = atm_joint_oracle(sampler.tables.doc_topic, sampler.tables.doc_total,
                        [sampler.tables.topic_word[kk][v] for kk in range(K)],
                        sampler.tables.topic_total, authors, 0.4, 0.15, K, corpus.n_words)
        assert_close_distribution(got, [w for row in rows for w in row])

    def link_case(rng, links):
        # the first word (or link) draw of sweep() itself; the link step
        # comes after every word has been drawn, so those draws are scripted
        lines = [f"{rng.randrange(100, 104)}--{rng.randrange(104, 108)}\t" + doc
                 for doc in random_docs(rng, 4, 5)]
        corpus = parse_tagged(lines, kind="links")
        K = rng.randrange(2, 4)
        sampler = LinkLdaSampler(corpus, LinkLdaHyper(K, 0.3, 0.2, 0.4), rng)
        m = rng.randrange(corpus.n_docs)
        i = rng.randrange(len((corpus.links if links else corpus.docword)[m]))
        prefix = [rng.random() for _ in range(corpus.n_tokens)] if links else []
        shares, excluded = linklda_shares(sampler, m, i, links, prefix)
        if links:
            want = linklda_link_oracle(*excluded, 0.3, 0.4, K, len(corpus.meta_vocabulary))
        else:
            want = linklda_word_oracle(*excluded, 0.3, 0.2, K, corpus.n_words)
        assert_shares_match(shares, want)

    def labeled_case(rng):
        labels = ["A", "B", "C"]
        lines = [",".join(sorted(set(rng.choices(labels, k=rng.randrange(1, 3)))))
                 + "\t" + doc for doc in random_docs(rng, 4, 5)]
        corpus = parse_tagged(lines, kind="labels")
        sampler = LabeledLdaSampler(corpus, LabeledLdaHyper(0.4, 0.15), rng)
        K = sampler.tables.n_topics
        m = rng.randrange(corpus.n_docs)
        n = rng.randrange(len(corpus.docword[m]))
        tables = put_lda_token_first(sampler, m, n)
        v = corpus.docword[0][0]
        want = labeled_token_oracle([tables.topic_word[kk][v] for kk in range(K)],
                            tables.topic_total, tables.doc_topic[0],
                            set(sampler.allowed[0]), 0.4, 0.15, K, corpus.n_words)
        assert_shares_match(lda_token_shares(sampler), want)

    def plda_case(rng):
        labels = ["A", "B"]
        lines = [",".join(sorted(set(rng.choices(labels, k=rng.randrange(1, 3)))))
                 + "\t" + doc for doc in random_docs(rng, 4, 5)]
        corpus = parse_tagged(lines, kind="labels")
        sampler = PldaSampler(corpus, PldaHyper(2, 0.4, 0.15), rng)
        K = sampler.tables.n_topics
        m = rng.randrange(corpus.n_docs)
        n = rng.randrange(len(corpus.docword[m]))
        tables = put_lda_token_first(sampler, m, n)
        v = corpus.docword[0][0]
        want = plda_token_oracle(tables.doc_topic[0],
                         [tables.topic_word[tt][v] for tt in range(K)],
                         tables.topic_total, set(sampler.allowed[0]),
                         0.4, 0.15, K, corpus.n_words)
        assert_shares_match(lda_token_shares(sampler), want)

    cases = [("LDA token", 101, lda_case),
             ("Sentence-LDA sentence", 103, sentence_case),
             ("DMM document", 105, dmm_case),
             ("DPMM document", 107, dpmm_case),
             ("PTM pseudo-doc", 109, ptm_pseudo_case),
             ("PTM token", 111, ptm_topic_case),
             ("BTM biterm", 113, btm_case),
             ("ATM author-topic", 115, atm_case),
             ("Link LDA word", 117, lambda rng: link_case(rng, False)),
             ("Link LDA link", 119, lambda rng: link_case(rng, True)),
             ("Labeled LDA token", 121, labeled_case),
             ("PLDA token", 123, plda_case)]
    for name, seed, builder in cases:
        _states(seed, builder, n_states=5)
        checked.append(name)
    ok(2, f"{len(checked)} conditionals x 5 random states each, rel err < 1e-10")


# ---------------------------------------------------------------------------
# 3. CVB0 conservation on a 50-document corpus
# ---------------------------------------------------------------------------

def test_criterion_3_cvb0_conservation():
    rng = SeededRng(314)
    corpus = parse_plain(random_docs(rng, 50, 12, lo=3, hi=12))
    sweeps_seen = []

    def check(solver, it):
        for doc in solver.gamma:
            for g in doc:
                assert abs(sum(g) - 1.0) <= 1e-9
        assert abs(sum(solver.expected.topic_total) - corpus.n_tokens) <= 1e-6
        sweeps_seen.append(it)

    run_chain(LdaCvb0(corpus, LdaHyper(5, 0.1, 0.01), SeededRng(271)), 20, check)
    assert len(sweeps_seen) == 20
    ok(3, "responsibilities sum to 1 (1e-9) and expected counts to "
          f"{corpus.n_tokens} tokens (1e-6) after each of 20 sweeps")


# ---------------------------------------------------------------------------
# 4. dual-sparse reduction to plain CVB0
# ---------------------------------------------------------------------------

def test_criterion_4_dual_sparse_reduction():
    start = time.perf_counter()
    rng = SeededRng(99)
    corpus = parse_plain(random_docs(rng, 12, 8, lo=2, hi=9))
    K = 4
    pi, word_gamma = 0.23, 0.11
    sparse = with_state(DualSparseCvb0(
        corpus, SparseHyper(K, pi=pi, pi_bar=0.0, word_gamma=word_gamma,
                            word_gamma_bar=0.0), SeededRng(55)),
        alpha_hat=[[1.0] * K for _ in range(corpus.n_docs)],
        beta_hat=[[1.0] * corpus.n_words for _ in range(K)])
    plain = LdaCvb0(corpus, LdaHyper(K, alpha=pi, beta=word_gamma), SeededRng(55))
    for sweep in range(20):
        LdaCvb0.sweep(sparse)  # selectors pinned: only the gamma family moves
        plain.sweep()
        assert sparse.gamma == plain.gamma, f"sweep {sweep}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    ok(4, f"gamma equals CVB0 gamma bit for bit across 20 sweeps ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. HDP / DPMM bookkeeping and no-growth limits
# ---------------------------------------------------------------------------

def test_criterion_5_hdp_dpmm_bookkeeping():
    start = time.perf_counter()
    rng = SeededRng(500)
    for trial in range(3):
        corpus = parse_plain(random_docs(rng, rng.randrange(6, 21), 7))
        hdp_sampler = HdpSampler(corpus, HdpHyper(3, 0.8, 0.1, 0.7), rng)
        hdp_sampler.check()
        for _ in range(10):
            hdp_sampler.sweep()
            hdp_sampler.check()
        dpmm_sampler = DpmmSampler(corpus, MixtureHyper(3, 0.7, 0.15), rng)
        dpmm_sampler.check()
        for _ in range(10):
            dpmm_sampler.sweep()
            dpmm_sampler.check()

    # gamma = 0 (HDP) and alpha = 0 (DPMM) must never grow the component count
    corpus = parse_plain(random_docs(rng, 15, 7))
    frozen_hdp = HdpSampler(corpus, HdpHyper(3, 0.8, 0.1, 0.0), rng)
    k0 = frozen_hdp.n_topics
    frozen_dpmm = DpmmSampler(corpus, MixtureHyper(3, 0.0, 0.15), rng)
    c0 = frozen_dpmm.n_clusters
    for _ in range(10):
        frozen_hdp.sweep()
        assert frozen_hdp.n_topics <= k0
        frozen_dpmm.sweep()
        assert frozen_dpmm.n_clusters <= c0
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"runtime {elapsed:.1f}s"
    ok(5, f"franchise/cluster invariants hold each sweep; no growth at zero "
          f"concentration ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 6. biterm count law
# ---------------------------------------------------------------------------

def test_criterion_6_biterm_count_law():
    for n in (2, 3, 5, 8, 12):
        corpus = parse_plain([" ".join(f"w{i}" for i in range(n))])
        for window in (n, n + 3):
            bits = extract_biterms(corpus, window)
            assert sum(b.count for b in bits) == n * (n - 1) // 2
    corpus = parse_plain(["w1 w2 w3"])
    pairs = {(b.w1, b.w2) for b in extract_biterms(corpus, 3)}
    assert pairs == {(0, 1), (1, 2), (0, 2)}
    ok(6, "biterm counts follow n(n-1)/2 and the 3-word document yields "
          "exactly its 3 pairs")


# ---------------------------------------------------------------------------
# 7. synthetic topic recovery
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def synthetic_recovery():
    start = time.perf_counter()
    rng = SeededRng(777)
    K, V, block = 3, 30, 10
    truth = []
    for k in range(K):
        row = [0.0] * V
        for v in range(k * block, (k + 1) * block):
            row[v] = 1.0 / block
        truth.append(row)
    lines = []
    for _ in range(500):
        weights = [rng.gammavariate(0.25, 1.0) + 1e-12 for _ in range(K)]
        total = sum(weights)
        theta = [w / total for w in weights]
        tokens = []
        for _ in range(16):
            k = rng.random()
            acc, choice = 0.0, K - 1
            for kk in range(K):
                acc += theta[kk]
                if k < acc:
                    choice = kk
                    break
            v = choice * block + rng.randrange(block)
            tokens.append(f"w{v:02d}")
        lines.append(" ".join(tokens))
    corpus = parse_plain(lines)
    assert corpus.n_words == V
    # map vocabulary ids back to the generator's word ids
    remap = [int(w[1:]) for w in corpus.vocabulary.id_to_word]
    fitted = run_chain(LdaGibbsSampler(corpus, LdaHyper(K, 0.1, 0.01), SeededRng(888)), 1000)
    phi = []
    for row in fitted.phi:
        out = [0.0] * V
        for vid, p in enumerate(row):
            out[remap[vid]] = p
        phi.append(out)
    elapsed = time.perf_counter() - start
    return corpus, truth, phi, elapsed


def test_criterion_7_synthetic_recovery(synthetic_recovery):
    _, truth, phi, elapsed = synthetic_recovery
    best = None
    for perm in itertools.permutations(range(3)):
        sims = [cosine(phi[perm[k]], truth[k]) for k in range(3)]
        if best is None or min(sims) > min(best):
            best = sims
    assert min(best) >= 0.9, f"cosine similarities {best}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    ok(7, f"recovered topics match truth with cosines {[round(s, 3) for s in best]} "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 8. coherence: hand counts and the top-N ordering
# ---------------------------------------------------------------------------

def test_criterion_8_coherence(synthetic_recovery):
    docword = [[0, 1], [0], [2]]
    assert abs(topic_coherence(docword, [0, 1]) - 0.0) <= 1e-12
    docword = [[0], [0], [0], [0, 1]]
    assert abs(topic_coherence(docword, [0, 1]) - math.log(0.5)) <= 1e-12

    corpus, _, phi, _ = synthetic_recovery
    c5 = average_coherence(corpus.docword, phi, 5)
    c10 = average_coherence(corpus.docword, phi, 10)
    c20 = average_coherence(corpus.docword, phi, 20)
    assert c5 >= c10 >= c20
    ok(8, f"hand counts exact to 1e-12; ordering C(5)={c5:.2f} >= "
          f"C(10)={c10:.2f} >= C(20)={c20:.2f}")


# ---------------------------------------------------------------------------
# 9. output-format fidelity and byte-identical reruns
# ---------------------------------------------------------------------------

def test_criterion_9_format_fidelity(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("apple banana cherry\nbanana cherry date\napple date date\n"
                     "cherry apple banana date\n")
    sent = tmp_path / "sent.txt"
    sent.write_text("love lotion--light clean smell\nsmell wonderful--feel hand\n"
                    "good shoe\n")
    authors = tmp_path / "authors.txt"
    authors.write_text("Ann Lee,Bo Chen\tapple banana cherry\nBo Chen\tbanana date\n")
    links = tmp_path / "links.txt"
    links.write_text("100--200\tapple banana cherry\n200\tbanana date date\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("Fruit,Sweet\tapple banana cherry\nSweet\tbanana date\n"
                      "Fruit\tapple apple\n")

    runs = [
        ("lda-gibbs", plain, ["-k", "3"]),
        ("lda-cvb0", plain, ["-k", "3"]),
        ("sentence-lda", sent, ["-k", "2"]),
        ("hdp", plain, []),
        ("dmm", plain, ["-k", "2"]),
        ("dpmm", plain, []),
        ("ptm", plain, ["-k", "2", "--pseudo-docs", "2"]),
        ("btm", plain, ["-k", "2", "--window", "3"]),
        ("atm", authors, ["-k", "2"]),
        ("link-lda", links, ["-k", "2"]),
        ("labeled-lda", labels, []),
        ("plda", labels, ["--label-topics", "2"]),
        ("dual-sparse", plain, ["-k", "2"]),
    ]
    n_files = 0
    for model, source, extra in runs:
        dirs = []
        for attempt in ("first", "second"):
            outdir = tmp_path / f"{model}-{attempt}"
            rc = cli_main(["fit", "--model", model, "--input", str(source),
                           "--output-dir", str(outdir), "--iterations", "8",
                           "--top-words", "2", "--seed", "11", *extra])
            assert rc == 0, model
            dirs.append(outdir)
        first = sorted(p.name for p in dirs[0].iterdir())
        second = sorted(p.name for p in dirs[1].iterdir())
        assert first == second and first, model
        for fname in first:
            a = (dirs[0] / fname).read_bytes()
            b = (dirs[1] / fname).read_bytes()
            assert a == b, f"{model}/{fname} differs between identical runs"
            # round-trip the grammar of every file
            if "topic_word" in fname or "cluster_word" in fname or \
                    "topic_link" in fname or "topic_author" in fname:
                blocks = parse_topic_word_file(dirs[0] / fname)
                assert blocks
            elif "doc_topic" in fname or "pseudo_topic" in fname:
                rows = parse_doc_topic_file(dirs[0] / fname)
                for row in rows:
                    assert abs(sum(row) - 1.0) <= 1e-9
                # the parse must reserialize to the identical bytes
                write_doc_topic_file(tmp_path / "rt.txt", rows)
                assert (tmp_path / "rt.txt").read_bytes() == a
            elif "theta" in fname:
                values = parse_value_lines(dirs[0] / fname)
                assert abs(sum(values) - 1.0) <= 1e-9
                write_value_lines(tmp_path / "rt.txt", values)
                assert (tmp_path / "rt.txt").read_bytes() == a
            elif "doc_cluster" in fname:
                values = parse_value_lines(dirs[0] / fname)
                assert all(v == int(v) for v in values)
                write_value_lines(tmp_path / "rt.txt", [int(v) for v in values])
                assert (tmp_path / "rt.txt").read_bytes() == a
            elif "sparseRatio" in fname:
                lines = (dirs[0] / fname).read_text().splitlines()
                assert lines[-1].startswith("average saprse ratio of ")
                for line in lines[:-1]:
                    assert 0.0 <= float(line) <= 1.0
            n_files += 1
    ok(9, f"{n_files} output files across 13 models: grammar round-trips and "
          "identical seeds give identical bytes")


# ---------------------------------------------------------------------------
# 10. preprocessing fidelity
# ---------------------------------------------------------------------------

def test_criterion_10_preprocessing_fidelity():
    line = ("http://t.cn/RAPgR4n Artificial intelligence is a known phenomenons "
            "in the world today. Its root started to build years")
    want = "artificial intelligence phenomenon world today root start build year"
    got = preprocess(line)
    assert got == want
    ok(10, "reference preprocessing example reproduced exactly")
