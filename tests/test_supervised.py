import itertools
import math

import pytest

from topicmodels.core import SeededRng, run_chain
from topicmodels.corpus import Corpus, Vocabulary, parse_plain, parse_tagged
from topicmodels.lda import LdaGibbsSampler, LdaHyper
from topicmodels.supervised import (BACKGROUND_LABEL, LabeledLdaHyper,
                                    LabeledLdaSampler, PldaHyper,
                                    PldaLabelSpace, PldaSampler,
                                    admissible_topics_labeled)

from oracles import assert_close_distribution, labeled_token_oracle, plda_token_oracle, normalize


def label_corpus(lines):
    return parse_tagged(lines, kind="labels", item_sep=",")


def remove_token(sampler, m, n):
    k = sampler.z[m][n]
    v = sampler.corpus.docword[m][n]
    sampler.doc_topic[m][k] -= 1
    sampler.topic_word[k][v] -= 1
    sampler.topic_total[k] -= 1
    return v


# ---------------------------------------------------------------- admissible sets

def test_labeled_admissible_is_label_set():
    assert admissible_topics_labeled([3]) == [3]
    assert admissible_topics_labeled([0, 2]) == [0, 2]
    with pytest.raises(ValueError):
        admissible_topics_labeled([])


def test_plda_admissible_blocks():
    space = PldaLabelSpace(["Security", "Cloud"], topics_per_label=2)
    assert space.n_topics == 6
    assert list(space.block(0)) == [0, 1]
    # one label -> its 2 topics plus 2 background topics
    assert space.admissible([0]) == [0, 1, 4, 5]
    # all labels -> every topic
    assert space.admissible([0, 1]) == [0, 1, 2, 3, 4, 5]
    # background-only document
    assert space.admissible([]) == [4, 5]
    assert space.label_names[space.background_label] == BACKGROUND_LABEL


def test_plda_reference_sizing():
    # 81 labels plus background at 2 topics per label: 164 topics
    space = PldaLabelSpace([f"L{i}" for i in range(81)], topics_per_label=2)
    assert space.n_labels == 82
    assert space.n_topics == 164


# ---------------------------------------------------------------- Labeled LDA

def test_labeled_single_label_document_certain():
    corpus = label_corpus(["Security\tw0 w1", "Cloud\tw1"])
    sampler = LabeledLdaSampler(corpus, LabeledLdaHyper(iterations=1), SeededRng(0))
    v = remove_token(sampler, 0, 0)
    ws = sampler.full_conditional(0, v)
    assert [i for i, w in enumerate(ws) if w > 0] == [corpus.labels[0][0]]


def test_labeled_all_labels_zero_counts_uniform():
    corpus = label_corpus(["A,B,C\tw0"])
    sampler = LabeledLdaSampler(corpus, LabeledLdaHyper(0.2, 0.3, 1), SeededRng(0))
    remove_token(sampler, 0, 0)
    assert normalize(sampler.full_conditional(0, 0)) == pytest.approx([1 / 3] * 3)


def test_labeled_conditional_matches_oracle():
    rng = SeededRng(53)
    lines = ["A,B\tw0 w1 w2", "B,C\tw1 w3", "A,C\tw2 w0 w0"]
    for _ in range(6):
        corpus = label_corpus(lines)
        hyper = LabeledLdaHyper(0.4, 0.15, 1)
        sampler = LabeledLdaSampler(corpus, hyper, rng)
        K = sampler.n_topics
        m = rng.randrange(3)
        n = rng.randrange(len(corpus.docword[m]))
        v = remove_token(sampler, m, n)
        got = sampler.full_conditional(m, v)
        want = labeled_token_oracle([sampler.topic_word[k][v] for k in range(K)],
                            sampler.topic_total, sampler.doc_topic[m],
                            set(sampler.admissible[m]), 0.4, 0.15, K, corpus.n_words)
        assert_close_distribution(got, want)


def test_labeled_vacuous_constraint_equals_lda_conditional():
    # every doc carries every label: conditionals must match plain LDA's values
    corpus = label_corpus(["A,B\tw0 w1", "A,B\tw1 w2"])
    hyper = LabeledLdaHyper(0.3, 0.2, 1)
    sampler = LabeledLdaSampler(corpus, hyper, SeededRng(3))
    plain = parse_plain(["w0 w1", "w1 w2"])
    lda_sampler = LdaGibbsSampler(plain, LdaHyper(2, 0.3, 0.2, 1), SeededRng(9))
    # align the LDA sampler's state with the labeled one
    lda_sampler.z = [list(r) for r in sampler.z]
    from topicmodels.core import counts_from_assignments
    lda_sampler.tables = counts_from_assignments(plain.docword, lda_sampler.z, 2,
                                                 plain.n_words)
    m, n = 1, 0
    v = remove_token(sampler, m, n)
    lda_sampler.tables.decrement(m, sampler.z[m][n], v)
    assert_close_distribution(sampler.full_conditional(m, v),
                              lda_sampler.full_conditional(m, v))


def test_labeled_theta_single_label_forced_mass():
    corpus = label_corpus(["Security\tw0 w1 w0"])
    hyper = LabeledLdaHyper(0.1, 0.1, 3)
    fit = run_chain(LabeledLdaSampler(corpus, hyper, SeededRng(1)), hyper.iterations)
    K = len(fit.topic_labels)
    assert K == 1
    assert fit.theta[0][0] == pytest.approx((3 + 0.1) / (3 + K * 0.1))


def test_labeled_theta_forced_mass_two_topics():
    corpus = label_corpus(["Security\tw0 w1 w0", "Cloud\tw2"])
    hyper = LabeledLdaHyper(0.1, 0.1, 3)
    fit = run_chain(LabeledLdaSampler(corpus, hyper, SeededRng(1)), hyper.iterations)
    sec = corpus.meta_vocabulary.id("Security")
    assert fit.theta[0][sec] == pytest.approx((3 + 0.1) / (3 + 2 * 0.1))
    assert fit.topic_labels == ["Security", "Cloud"]


def test_labeled_rejects_unlabeled_document():
    corpus = label_corpus([" \tw0 w1", "A\tw2"])
    with pytest.raises(ValueError):
        hyper = LabeledLdaHyper(iterations=1)
        run_chain(LabeledLdaSampler(corpus, hyper, SeededRng(0)), hyper.iterations)


def test_labeled_chain_matches_enumerated_constrained_posterior():
    from oracles import lda_joint_log, tv_distance
    corpus = label_corpus(["A,B\tw0 w1", "B\tw1 w2", "A,B\tw0"])
    sampler = LabeledLdaSampler(corpus, LabeledLdaHyper(1.0, 0.5, 1), SeededRng(61))
    K, V = sampler.n_topics, corpus.n_words
    sizes = [len(d) for d in corpus.docword]
    supports = []
    for m, n_tokens in enumerate(sizes):
        supports.extend([sampler.admissible[m]] * n_tokens)
    log_post = {}
    for flat in itertools.product(*supports):
        z, i = [], 0
        for s in sizes:
            z.append(list(flat[i:i + s]))
            i += s
        log_post[flat] = lda_joint_log(corpus.docword, z, K, V, 1.0, 0.5)
    mx = max(log_post.values())
    exact = {k: math.exp(v - mx) for k, v in log_post.items()}
    total = sum(exact.values())
    exact = {k: v / total for k, v in exact.items()}

    for _ in range(500):
        sampler.sweep()
    sweeps = 30000
    counts = {}
    for _ in range(sweeps):
        sampler.sweep()
        key = tuple(z for doc in sampler.z for z in doc)
        counts[key] = counts.get(key, 0) + 1
    empirical = {k: c / sweeps for k, c in counts.items()}
    assert set(empirical) <= set(exact)  # never an inadmissible assignment
    assert tv_distance(empirical, exact) < 0.05


def test_labeled_never_assigns_inadmissible():
    corpus = label_corpus(["A\tw0 w1", "B\tw1 w2", "A,B\tw0 w2"])
    sampler = LabeledLdaSampler(corpus, LabeledLdaHyper(iterations=1), SeededRng(5))
    for _ in range(20):
        sampler.sweep()
        for m in range(corpus.n_docs):
            admissible = set(sampler.admissible[m])
            assert all(z in admissible for z in sampler.z[m])


# ---------------------------------------------------------------- PLDA

def test_plda_single_admissible_cell_certain():
    corpus = label_corpus(["A\tw0 w1"])
    sampler = PldaSampler(corpus, PldaHyper(1, iterations=1), SeededRng(0))
    # probe the op contract directly: one admissible (label, topic) cell
    sampler.admissible[0] = [0]
    sampler.z[0] = [0, 0]
    sampler.doc_topic[0] = [2, 0]
    sampler.topic_word = [[1, 1], [0, 0]]
    sampler.topic_total = [2, 0]
    v = remove_token(sampler, 0, 0)
    ws = sampler.full_conditional(0, v)
    assert [i for i, w in enumerate(ws) if w > 0] == [0]


def test_plda_zero_counts_uniform_over_admissible():
    corpus = label_corpus(["A\tw0"])
    sampler = PldaSampler(corpus, PldaHyper(2, 0.2, 0.3, 1), SeededRng(0))
    remove_token(sampler, 0, 0)
    ws = normalize(sampler.full_conditional(0, 0))
    admissible = sampler.admissible[0]
    assert len(admissible) == 4
    for t in admissible:
        assert ws[t] == pytest.approx(0.25)
    assert sum(ws) == pytest.approx(1.0)


def test_plda_conditional_matches_oracle():
    rng = SeededRng(59)
    lines = ["A,B\tw0 w1 w2", "B\tw1 w3", "A\tw2 w0 w0"]
    for _ in range(6):
        corpus = label_corpus(lines)
        hyper = PldaHyper(2, 0.4, 0.15, 1)
        sampler = PldaSampler(corpus, hyper, rng)
        K = sampler.n_topics
        m = rng.randrange(3)
        n = rng.randrange(len(corpus.docword[m]))
        v = remove_token(sampler, m, n)
        got = sampler.full_conditional(m, v)
        want = plda_token_oracle(sampler.doc_topic[m],
                         [sampler.topic_word[t][v] for t in range(K)],
                         sampler.topic_total, set(sampler.admissible[m]),
                         0.4, 0.15, K, corpus.n_words)
        assert_close_distribution(got, want)


def test_plda_background_only_document_uses_background_block():
    corpus = label_corpus([" \tw0 w1", "A\tw2"])
    sampler = PldaSampler(corpus, PldaHyper(2, iterations=1), SeededRng(2))
    background = sampler.label_space.block(sampler.label_space.background_label)
    assert sampler.admissible[0] == list(background)
    for _ in range(5):
        sampler.sweep()
        assert all(z in background for z in sampler.z[0])


def test_plda_topic_labels_include_background_last():
    corpus = label_corpus(["A\tw0", "B\tw1"])
    hyper = PldaHyper(2, iterations=2)
    fit = run_chain(PldaSampler(corpus, hyper, SeededRng(3)), hyper.iterations)
    assert fit.topic_labels == ["A", "A", "B", "B",
                                BACKGROUND_LABEL, BACKGROUND_LABEL]


def test_plda_block_bookkeeping_recount():
    corpus = label_corpus(["A,B\tw0 w1 w2", "B\tw1 w3"])
    sampler = PldaSampler(corpus, PldaHyper(2, iterations=1), SeededRng(4))
    for _ in range(10):
        sampler.sweep()
        for m, doc in enumerate(corpus.docword):
            assert sum(sampler.doc_topic[m]) == len(doc)
            admissible = set(sampler.admissible[m])
            assert all(z in admissible for z in sampler.z[m])
        recount = [[0] * corpus.n_words for _ in range(sampler.n_topics)]
        for m, doc in enumerate(corpus.docword):
            for n, v in enumerate(doc):
                recount[sampler.z[m][n]][v] += 1
        assert recount == sampler.topic_word


def test_plda_theta_phi_stochastic():
    corpus = label_corpus(["A\tw0 w1", "B\tw2"])
    hyper = PldaHyper(2, iterations=5)
    fit = run_chain(PldaSampler(corpus, hyper, SeededRng(5)), hyper.iterations)
    for row in fit.theta + fit.phi:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)
