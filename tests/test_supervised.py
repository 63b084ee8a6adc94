import itertools
import math
import random

import pytest

from topicmodels import cli
from topicmodels.core import SeededRng, counts_from_assignments, index_rows, run_chain
from topicmodels.corpus import parse_plain, parse_tagged
from topicmodels.lda import LdaGibbsSampler, LdaHyper
from topicmodels.supervised import (BACKGROUND_LABEL, LabeledLdaHyper, LabeledLdaSampler,
                                    PldaHyper, PldaSampler)

from first_draw import (ScriptEnd, ScriptedRng, assert_shares_match, lda_token_shares,
                        put_lda_token_first, rerun_sweep, without_token)
from oracles import labeled_token_oracle, lda_joint_log, plda_token_oracle, tv_distance


def label_corpus(lines):
    return parse_tagged(lines, kind="labels")


def enumerated_posterior(corpus, supports, K, alpha, beta):
    """Exact p(z | w) of the LDA chain over the product of per-token supports,
    keyed by the flattened assignment."""
    sizes = [len(d) for d in corpus.docword]
    log_post = {}
    for flat in itertools.product(*supports):
        z, i = [], 0
        for s in sizes:
            z.append(list(flat[i:i + s]))
            i += s
        log_post[flat] = lda_joint_log(corpus.docword, z, K, corpus.n_words, alpha, beta)
    mx = max(log_post.values())
    exact = {k: math.exp(v - mx) for k, v in log_post.items()}
    total = sum(exact.values())
    return {k: v / total for k, v in exact.items()}


def chain_frequencies(sampler, burn_in, sweeps):
    for _ in range(burn_in):
        sampler.sweep()
    counts = {}
    for _ in range(sweeps):
        sampler.sweep()
        key = tuple(z for doc in sampler.z for z in doc)
        counts[key] = counts.get(key, 0) + 1
    return {k: c / sweeps for k, c in counts.items()}


# ---------------------------------------------------------------- allowed sets

def test_labeled_admissible_is_label_set():
    corpus = label_corpus(["D\tw0", "A,C\tw1", "C,B\tw2", "B,D\tw3"])  # D A C B -> 0 1 2 3
    sampler = LabeledLdaSampler(corpus, LabeledLdaHyper(), SeededRng(0))
    assert sampler.allowed == [[0], [1, 2], [2, 3], [0, 3]]
    assert sampler.tables.n_topics == 4
    with pytest.raises(ValueError):
        LabeledLdaSampler(label_corpus(["A\tw0", " \tw1"]), LabeledLdaHyper(),
                          SeededRng(0))


def test_plda_admissible_blocks():
    corpus = label_corpus(["Security\tw0", "Security,Cloud\tw1", " \tw2"])
    sampler = PldaSampler(corpus, PldaHyper(2), SeededRng(0))
    assert sampler.tables.n_topics == 6
    # one label -> its 2 topics plus 2 background topics
    assert sampler.allowed[0] == [0, 1, 4, 5]
    # all labels -> every topic
    assert sampler.allowed[1] == [0, 1, 2, 3, 4, 5]
    # background-only document
    assert sampler.allowed[2] == [4, 5]
    assert sampler.topic_labels == ["Security", "Security", "Cloud", "Cloud",
                                    BACKGROUND_LABEL, BACKGROUND_LABEL]


def test_plda_reference_sizing():
    # 81 labels plus background at 2 topics per label: 164 topics
    corpus = label_corpus([f"L{i}\tw0" for i in range(81)])
    sampler = PldaSampler(corpus, PldaHyper(2), SeededRng(0))
    assert len(set(sampler.topic_labels)) == 82
    assert sampler.tables.n_topics == 164


# ---------------------------------------------------------------- Labeled LDA

def test_labeled_single_label_document_certain():
    corpus = label_corpus(["Security\tw0 w1", "Cloud\tw1"])
    sampler = LabeledLdaSampler(corpus, LabeledLdaHyper(), SeededRng(0))
    # a document with one allowed topic is never drawn: its share is 1
    assert lda_token_shares(sampler) == {corpus.labels[0][0]: 1.0}


def test_labeled_all_labels_zero_counts_uniform():
    corpus = label_corpus(["A,B,C\tw0"])
    sampler = LabeledLdaSampler(corpus, LabeledLdaHyper(0.2, 0.3), SeededRng(0))
    assert lda_token_shares(sampler) == pytest.approx({k: 1 / 3 for k in range(3)})


def test_labeled_conditional_matches_oracle():
    rng = SeededRng(53)
    lines = ["A,B\tw0 w1 w2", "B,C\tw1 w3", "A,C\tw2 w0 w0"]
    for _ in range(6):
        corpus = label_corpus(lines)
        hyper = LabeledLdaHyper(0.4, 0.15)
        sampler = LabeledLdaSampler(corpus, hyper, rng)
        K = sampler.tables.n_topics
        m = rng.randrange(3)
        n = rng.randrange(len(corpus.docword[m]))
        tables = put_lda_token_first(sampler, m, n)
        v = corpus.docword[0][0]
        want = labeled_token_oracle([tables.topic_word[k][v] for k in range(K)],
                            tables.topic_total, tables.doc_topic[0],
                            set(sampler.allowed[0]), 0.4, 0.15, K, corpus.n_words)
        assert_shares_match(lda_token_shares(sampler), want)


def test_labeled_draw_of_a_word_its_own_topic_holds_alone():
    # w0 sits in topic 2 (label C) alone, four tokens of it: the first
    # token's draw takes the one-topic path, within labels A, B and C of K = 4
    lines = ["A,B,C\tw0 w1 w0", "B,C\tw1 w0 w2", "A,C\tw2 w1 w0", "D\tw3 w1"]
    corpus = label_corpus(lines)
    sampler = LabeledLdaSampler(corpus, LabeledLdaHyper(0.4, 0.15), SeededRng(0))
    sampler.z = [[2, 0, 2], [1, 2, 2], [0, 2, 2], [3, 3]]
    K, v = sampler.tables.n_topics, corpus.docword[0][0]
    assert K == 4 and sampler.allowed[0] == [0, 1, 2]
    assert list(sampler._counts()["word_topics"][v]) == [2]
    tables = without_token(sampler, 0)
    want = labeled_token_oracle([tables.topic_word[k][v] for k in range(K)],
                                tables.topic_total, tables.doc_topic[0],
                                set(sampler.allowed[0]), 0.4, 0.15, K, corpus.n_words)
    assert_shares_match(lda_token_shares(sampler), want)


def test_labeled_vacuous_constraint_equals_lda_conditional():
    # every doc carries every label: the restricted draw's shares must match
    # those of plain LDA's unrestricted draw
    corpus = label_corpus(["A,B\tw0 w1", "A,B\tw1 w2"])
    hyper = LabeledLdaHyper(0.3, 0.2)
    sampler = LabeledLdaSampler(corpus, hyper, SeededRng(3))
    plain = parse_plain(["w0 w1", "w1 w2"])
    lda_sampler = LdaGibbsSampler(plain, LdaHyper(2, 0.3, 0.2), SeededRng(9))
    # align the LDA sampler's state with the labeled one
    lda_sampler.z = [list(r) for r in sampler.z]
    m, n = 1, 0
    put_lda_token_first(sampler, m, n)
    put_lda_token_first(lda_sampler, m, n)
    restricted = lda_token_shares(sampler)
    unrestricted = lda_token_shares(lda_sampler)
    assert_shares_match(restricted, [unrestricted[k] for k in range(2)])


@pytest.mark.parametrize("lines, z, alpha, beta", [
    # beta is so small that q + s + r rounds to q, so u scales to the largest
    # float below q; q (3.4000000000000004) lies above the exact sum of its
    # terms, and the walk runs past topic 1 into w0's last indexed topic, 2
    # (label C), where the draw must not stop
    (["A,B\tw0 w0 w0 w0", "C\tw0", "D\tw1"], [[0, 0, 1, 1], [2], [3]], 0.2, 1e-20),
    # w2 leaves topic 0, and its index keeps topic 2 only, so q = 0; the
    # running s + r total ends above the fresh cumulative sum over the
    # document's topics, and bisect runs past the sum's end, where the
    # draw must not take topic K - 1 = 3 (label D)
    (["A,B\tw2 w0 w0 w0", "C\tw2", "D\tw1"], [[0, 0, 0, 1], [2], [3]], 0.3, 1.0),
], ids=["q-walk-end", "smoothing-walk-end"])
def test_labeled_round_off_at_a_walk_end_draws_an_allowed_topic(lines, z, alpha, beta):
    # document 0 may use topics 0 and 1 (labels A, B): neither K - 1 nor its
    # word's last indexed topic.  Where round-off runs a walk past its end,
    # the draw must take the walk's last topic with weight, which is 1 here.
    sampler = LabeledLdaSampler(label_corpus(lines), LabeledLdaHyper(alpha, beta), SeededRng(0))
    sampler.z = z
    run = rerun_sweep(sampler)
    assert sampler.allowed[0] == [0, 1] and sampler.tables.n_topics == 4
    assert list(sampler.word_topics[sampler.corpus.docword[0][0]])[-1] == 2
    with pytest.raises(ScriptEnd):
        run(ScriptedRng([math.nextafter(1.0, 0.0)]))
    assert sampler.z[0][0] == 1


def test_labeled_theta_single_label_forced_mass():
    corpus = label_corpus(["Security\tw0 w1 w0"])
    hyper = LabeledLdaHyper(0.1, 0.1)
    fit = run_chain(LabeledLdaSampler(corpus, hyper, SeededRng(1)), 3)
    K = len(fit.topic_labels)
    assert K == 1
    assert fit.theta[0][0] == pytest.approx((3 + 0.1) / (3 + K * 0.1))


def test_labeled_theta_forced_mass_two_topics():
    corpus = label_corpus(["Security\tw0 w1 w0", "Cloud\tw2"])
    hyper = LabeledLdaHyper(0.1, 0.1)
    fit = run_chain(LabeledLdaSampler(corpus, hyper, SeededRng(1)), 3)
    sec = corpus.meta_vocabulary.id("Security")
    assert fit.theta[0][sec] == pytest.approx((3 + 0.1) / (3 + 2 * 0.1))
    assert fit.topic_labels == ["Security", "Cloud"]


def test_labeled_rejects_unlabeled_document():
    corpus = label_corpus([" \tw0 w1", "A\tw2"])
    with pytest.raises(ValueError):
        hyper = LabeledLdaHyper()
        run_chain(LabeledLdaSampler(corpus, hyper, SeededRng(0)), 1)


def test_labeled_chain_matches_enumerated_constrained_posterior():
    corpus = label_corpus(["A,B\tw0 w1", "B\tw1 w2", "A,B\tw0"])
    sampler = LabeledLdaSampler(corpus, LabeledLdaHyper(1.0, 0.5), SeededRng(61))
    supports = [topics for topics, doc in zip(sampler.allowed, corpus.docword) for _ in doc]
    exact = enumerated_posterior(corpus, supports, sampler.tables.n_topics, 1.0, 0.5)
    empirical = chain_frequencies(sampler, 500, 30000)
    assert set(empirical) <= set(exact)  # never an inadmissible assignment
    assert tv_distance(empirical, exact) < 0.05


def test_labeled_never_assigns_inadmissible():
    corpus = label_corpus(["A\tw0 w1", "B\tw1 w2", "A,B\tw0 w2"])
    sampler = LabeledLdaSampler(corpus, LabeledLdaHyper(), SeededRng(5))
    for _ in range(20):
        sampler.sweep()
        sampler.check()
        for m in range(corpus.n_docs):
            admissible = set(sampler.allowed[m])
            assert all(z in admissible for z in sampler.z[m])


# ---------------------------------------------------------------- PLDA

def test_plda_single_admissible_cell_certain():
    corpus = label_corpus(["A\tw0 w1"])
    sampler = PldaSampler(corpus, PldaHyper(1), SeededRng(0))
    # probe the op contract directly: one admissible (label, topic) cell
    sampler.allowed[0] = [0]
    sampler.z[0] = [0, 0]
    sampler.tables, sampler.word_topics = counts_from_assignments(corpus.docword, sampler.z, 2,
                                                                  corpus.n_words)
    assert index_rows(sampler.word_topics, 2) == [[1, 1], [0, 0]]
    assert lda_token_shares(sampler) == {0: 1.0}


def test_plda_zero_counts_uniform_over_admissible():
    corpus = label_corpus(["A\tw0"])
    sampler = PldaSampler(corpus, PldaHyper(2, 0.2, 0.3), SeededRng(0))
    admissible = sampler.allowed[0]
    assert len(admissible) == 4
    assert lda_token_shares(sampler) == pytest.approx({t: 0.25 for t in admissible})


def test_plda_conditional_matches_oracle():
    rng = SeededRng(59)
    lines = ["A,B\tw0 w1 w2", "B\tw1 w3", "A\tw2 w0 w0"]
    for _ in range(6):
        corpus = label_corpus(lines)
        hyper = PldaHyper(2, 0.4, 0.15)
        sampler = PldaSampler(corpus, hyper, rng)
        K = sampler.tables.n_topics
        m = rng.randrange(3)
        n = rng.randrange(len(corpus.docword[m]))
        tables = put_lda_token_first(sampler, m, n)
        v = corpus.docword[0][0]
        want = plda_token_oracle(tables.doc_topic[0],
                         [tables.topic_word[t][v] for t in range(K)],
                         tables.topic_total, set(sampler.allowed[0]),
                         0.4, 0.15, K, corpus.n_words)
        assert_shares_match(lda_token_shares(sampler), want)


def test_plda_background_only_document_uses_background_block():
    corpus = label_corpus([" \tw0 w1", "A\tw2"])
    sampler = PldaSampler(corpus, PldaHyper(2), SeededRng(2))
    background = range(sampler.tables.n_topics - 2, sampler.tables.n_topics)
    assert sampler.allowed[0] == list(background)
    assert {sampler.topic_labels[t] for t in background} == {BACKGROUND_LABEL}
    for _ in range(5):
        sampler.sweep()
        assert all(z in background for z in sampler.z[0])


def test_plda_topic_labels_include_background_last():
    corpus = label_corpus(["A\tw0", "B\tw1"])
    hyper = PldaHyper(2)
    fit = run_chain(PldaSampler(corpus, hyper, SeededRng(3)), 2)
    assert fit.topic_labels == ["A", "A", "B", "B",
                                BACKGROUND_LABEL, BACKGROUND_LABEL]


def test_plda_block_bookkeeping_recount():
    corpus = label_corpus(["A,B\tw0 w1 w2", "B\tw1 w3"])
    sampler = PldaSampler(corpus, PldaHyper(2), SeededRng(4))
    for _ in range(10):
        sampler.sweep()
        for m, doc in enumerate(corpus.docword):
            assert sum(sampler.tables.doc_topic[m]) == len(doc)
            admissible = set(sampler.allowed[m])
            assert all(z in admissible for z in sampler.z[m])
        recount = [[0] * corpus.n_words for _ in range(sampler.tables.n_topics)]
        for m, doc in enumerate(corpus.docword):
            for n, v in enumerate(doc):
                recount[sampler.z[m][n]][v] += 1
        assert recount == index_rows(sampler.word_topics, sampler.tables.n_topics)


def test_plda_theta_phi_stochastic():
    corpus = label_corpus(["A\tw0 w1", "B\tw2"])
    hyper = PldaHyper(2)
    fit = run_chain(PldaSampler(corpus, hyper, SeededRng(5)), 5)
    for row in fit.theta + fit.phi:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)


def test_plda_chain_matches_enumerated_posterior():
    # one topic per label: A -> 0, B -> 1, background -> 2.  The second
    # document lists its labels out of id order; the third is background
    # only, so its tokens have a single allowed topic and are never drawn.
    corpus = label_corpus(["A\tw0 w1", "B,A\tw1 w2", " \tw0 w2"])
    sampler = PldaSampler(corpus, PldaHyper(1, 1.0, 0.5), SeededRng(67))
    assert corpus.labels[1] == [1, 0]
    assert sampler.allowed == [[0, 2], [0, 1, 2], [2]]
    supports = [topics for topics, doc in zip(sampler.allowed, corpus.docword) for _ in doc]
    exact = enumerated_posterior(corpus, supports, sampler.tables.n_topics, 1.0, 0.5)
    empirical = chain_frequencies(sampler, 500, 30000)
    assert set(empirical) <= set(exact)  # never an inadmissible assignment
    assert tv_distance(empirical, exact) < 0.05


def tiny_corpus(layout):
    """Ten seeded documents over 12 words, each with one or two of four tags,
    rendered in ``layout``: tags as labels, authors or links; two sentences
    per document; or plain text (the words are the same in every layout)."""
    rng = random.Random(71)
    lines = []
    for _ in range(10):
        tags = rng.sample(["A", "B", "C", "D"], rng.randrange(1, 3))
        words = [f"w{rng.randrange(12)}" for _ in range(rng.randrange(2, 8))]
        half = len(words) // 2
        text = (" ".join(words[:half]) + "--" + " ".join(words[half:])
                if layout == "sentences" else " ".join(words))
        if layout not in ("plain", "sentences"):
            text = ("--" if layout == "links" else ",").join(tags) + "\t" + text
        lines.append(text)
    return cli._parse(layout, lines)


REGISTRY_CASES = [("lda-gibbs", {"n_topics": 3}), ("lda-gibbs", {"n_topics": 20}),
                  ("labeled-lda", {}), ("plda", {"topics_per_label": 2}),
                  ("lda-cvb0", {"n_topics": 3}), ("sentence-lda", {"n_topics": 3}),
                  ("hdp", {}), ("dmm", {"n_clusters": 3}), ("dpmm", {}),
                  ("ptm", {"n_pseudo_docs": 3, "n_topics": 3}), ("btm", {"n_topics": 3}),
                  ("atm", {"n_topics": 3}), ("link-lda", {"n_topics": 3}),
                  ("dual-sparse", {"n_topics": 3})]


def test_registry_cases_cover_every_model():
    assert {name for name, _ in REGISTRY_CASES} == set(cli.MODELS)


@pytest.mark.parametrize("name, flags", REGISTRY_CASES,
                         ids=["lda-gibbs-k3", "lda-gibbs-k20", "labeled-lda", "plda"]
                         + [name for name, _ in REGISTRY_CASES[4:]])
def test_registry_samplers_pass_check_after_every_sweep(name, flags):
    spec = cli.MODELS[name]
    corpus = tiny_corpus(spec.layout)
    sampler = spec.sampler(corpus, spec.hyper(**flags), SeededRng(5))
    # the LDA chains (the label models too), ptm, btm, link-lda and hdp run a
    # bucketed draw at any K, with its word index; sentence-lda's unit draw
    # reads a word index too
    assert ((getattr(sampler, "word_topics", None) is not None)
            == (name in ("lda-gibbs", "labeled-lda", "plda", "ptm", "btm", "link-lda", "hdp",
                         "sentence-lda")))
    sampler.check()
    for _ in range(8):
        sampler.sweep()
        sampler.check()


def test_check_rejects_a_disallowed_or_uncounted_topic():
    corpus = label_corpus(["A\tw0 w1", "B\tw1 w2", "A,B\tw0 w2"])
    sampler = LabeledLdaSampler(corpus, LabeledLdaHyper(), SeededRng(5))
    sampler.check()
    sampler.z[0][0] = 1  # label B, which document 0 does not carry
    vars(sampler).update(sampler._counts())  # the tables and word index are told
    with pytest.raises(ValueError, match="not allowed"):
        sampler.check()
    # an allowed topic, but the tables are not told
    sampler.z[0][0] = 0
    with pytest.raises(ValueError, match="recount"):
        sampler.check()


class CountingRng(SeededRng):
    def __init__(self, seed):
        super().__init__(seed)
        self.uniforms = 0

    def random(self):
        self.uniforms += 1
        return super().random()


@pytest.mark.parametrize("second, make", [
    ("B", lambda corpus, rng: LabeledLdaSampler(corpus, LabeledLdaHyper(), rng)),
    (" ", lambda corpus, rng: PldaSampler(corpus, PldaHyper(1), rng))],
    ids=["labeled-lda-one-label", "plda-background-only"])
def test_single_topic_documents_make_no_draw(second, make):
    corpus = label_corpus(["A,B\tw0 w1 w2", second + "\tw1 w2 w3 w3"])
    rng = CountingRng(3)
    sampler = make(corpus, rng)
    assert len(sampler.allowed[1]) == 1
    rng.uniforms = 0
    sampler.sweep()
    assert rng.uniforms == len(corpus.docword[0])  # one uniform per token of document 0


def test_allowed_needs_a_nonempty_list_per_document():
    corpus = parse_plain(["w0 w1", "w1 w2"])
    for allowed in ([[0]], [[0], []], [[0], [1], [0]]):
        with pytest.raises(ValueError, match="allowed"):
            LdaGibbsSampler(corpus, LdaHyper(2), SeededRng(0), allowed=allowed)
