import itertools
import math

import pytest

from topicmodels.core import SeededRng, exp_normalize, index_rows, run_chain
from topicmodels.corpus import parse_plain
from topicmodels.mixture import ClusterTables, DmmSampler, DpmmSampler, MixtureHyper

from first_draw import assert_shares_match, cluster_doc_shares
from oracles import (assert_close_distribution, dmm_doc_oracle, dpmm_doc_oracle, dpmm_joint_log,
                     normalize, restricted_growth, rising, tv_distance)


def dmm_draw(sampler, m):
    """The weights of DMM's draw for document m, its counts already
    removed: what ``ClusterTables.resample`` draws from."""
    tables = sampler.tables
    return exp_normalize(tables.weights(m, tables.prior_logs(sampler.hyper.alpha)))


def cluster_rows(tables):
    """The dense n_kv rows of a ``ClusterTables``, read from its index."""
    return index_rows(tables.word_clusters, tables.n_clusters)


def dmm_joint_log(docword, z, K, V, alpha, beta):
    M = len(docword)
    n_k = [0] * K
    n_kv = [[0] * V for _ in range(K)]
    n_ktot = [0] * K
    for m, doc in enumerate(docword):
        n_k[z[m]] += 1
        for v in doc:
            n_kv[z[m]][v] += 1
            n_ktot[z[m]] += 1
    ll = -math.lgamma(M + K * alpha)
    for k in range(K):
        ll += math.lgamma(n_k[k] + alpha)
        ll -= math.lgamma(n_ktot[k] + V * beta)
        for v in range(V):
            ll += math.lgamma(n_kv[k][v] + beta)
    return ll


def test_dmm_single_document_prior_only_uniform():
    corpus = parse_plain(["a b a"])
    sampler = DmmSampler(corpus, MixtureHyper(3, 0.5, 0.5), SeededRng(0))
    sampler.tables.remove_doc(0, sampler.z[0])
    ws = normalize(dmm_draw(sampler, 0))
    assert ws == pytest.approx([1 / 3] * 3)


def test_dmm_k1_certain():
    corpus = parse_plain(["a b", "c"])
    sampler = DmmSampler(corpus, MixtureHyper(1, 0.5, 0.5), SeededRng(0))
    sampler.tables.remove_doc(0, sampler.z[0])
    assert normalize(dmm_draw(sampler, 0)) == [1.0]


def test_dmm_matches_direct_product_oracle():
    rng = SeededRng(3)
    for _ in range(6):
        K, V = rng.randrange(2, 5), 5
        docs = [" ".join(f"w{rng.randrange(V)}" for _ in range(rng.randrange(1, 6)))
                for _ in range(4)]
        corpus = parse_plain(docs)
        sampler = DmmSampler(corpus, MixtureHyper(K, 0.3, 0.2), rng)
        m = rng.randrange(4)
        sampler.tables.remove_doc(m, sampler.z[m])
        got = dmm_draw(sampler, m)
        want = dmm_doc_oracle(sampler.tables.n_docs_in, cluster_rows(sampler.tables),
                        sampler.tables.cluster_total, corpus.docword[m],
                        corpus.n_docs, 0.3, 0.2, corpus.n_words)
        assert_close_distribution(got, want)
        sampler.tables.add_doc(m, sampler.z[m])


def test_dmm_sweep_draw_matches_direct_product_oracle():
    # the first draw of sweep() itself, after a few sweeps of the chain
    rng = SeededRng(17)
    for _ in range(4):
        K, V = rng.randrange(2, 5), 5
        docs = [" ".join(f"w{rng.randrange(V)}" for _ in range(rng.randrange(1, 6)))
                for _ in range(5)]
        corpus = parse_plain(docs)
        sampler = DmmSampler(corpus, MixtureHyper(K, 0.3, 0.2), rng)
        for _ in range(3):
            sampler.sweep()
        shares, excluded = cluster_doc_shares(sampler)
        assert_shares_match(shares, dmm_doc_oracle(*excluded, corpus.docword[0], corpus.n_docs,
                                                   0.3, 0.2, corpus.n_words))


def test_dmm_alpha_zero_never_fills_an_empty_cluster():
    # more clusters than documents: every draw meets an empty cluster,
    # whose prior n_k + alpha is 0 and whose weight must be 0
    corpus = parse_plain(["a b", "b c c", "a", "c d"])
    sampler = DmmSampler(corpus, MixtureHyper(5, 0.0, 0.5), SeededRng(11))
    tables = sampler.tables
    add_doc, moves = tables.add_doc, []

    def add_checked(m, k):
        assert tables.n_docs_in[k] > 0, f"document {m} moved into empty cluster {k}"
        moves.append(k)
        add_doc(m, k)
    tables.add_doc = add_checked
    for _ in range(30):
        sampler.sweep()
        sampler.check()
    assert len(moves) == 30 * corpus.n_docs


def test_dmm_label_permutation_symmetry():
    corpus = parse_plain(["a b", "b c", "a c c"])
    sampler = DmmSampler(corpus, MixtureHyper(2, 0.4, 0.3), SeededRng(5))
    m = 0
    sampler.tables.remove_doc(m, sampler.z[m])
    before = normalize(dmm_draw(sampler, m))
    # swap the two clusters in every table
    t = sampler.tables
    t.n_docs_in[0], t.n_docs_in[1] = t.n_docs_in[1], t.n_docs_in[0]
    t.cluster_total[0], t.cluster_total[1] = t.cluster_total[1], t.cluster_total[0]
    t.word_clusters = [{1 - k: c for k, c in clusters.items()} for clusters in t.word_clusters]
    after = normalize(dmm_draw(sampler, m))
    assert after == pytest.approx(list(reversed(before)), rel=1e-12)


def test_dmm_theta_sums_to_one():
    corpus = parse_plain(["a b", "c d", "a d"])
    hyper = MixtureHyper(4, 0.2, 0.1)
    fit = run_chain(DmmSampler(corpus, hyper, SeededRng(1)), 10)
    assert sum(fit.theta) == pytest.approx(1.0, abs=1e-9)
    for row in fit.phi:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)
    assert len(fit.doc_cluster) == 3


def test_dmm_chain_matches_enumerated_posterior():
    corpus = parse_plain(["a b", "a", "c", "b c"])
    K, V = 2, corpus.n_words
    alpha, beta = 1.0, 0.5
    log_post = {}
    for flat in itertools.product(range(K), repeat=4):
        log_post[flat] = dmm_joint_log(corpus.docword, list(flat), K, V, alpha, beta)
    mx = max(log_post.values())
    exact = {k: math.exp(v - mx) for k, v in log_post.items()}
    tot = sum(exact.values())
    exact = {k: v / tot for k, v in exact.items()}

    sampler = DmmSampler(corpus, MixtureHyper(K, alpha, beta), SeededRng(23))
    for _ in range(500):
        sampler.sweep()
    sweeps = 30000
    counts = {}
    for _ in range(sweeps):
        sampler.sweep()
        key = tuple(sampler.z)
        counts[key] = counts.get(key, 0) + 1
    empirical = {k: c / sweeps for k, c in counts.items()}
    assert tv_distance(empirical, exact) < 0.05


def test_dpmm_chain_matches_enumerated_posterior():
    # four documents, one repeating a word: every set partition (Bell number
    # 15) against the Chinese restaurant process prior times each cluster's
    # Dirichlet-multinomial marginal.  Cluster labels are taken out by
    # relabelling z in order of first use.  A live-cluster weight of n_k + a
    # settles at TV 0.116-0.122 here, a new-cluster weight without its a at
    # 0.077-0.078 (two seeds each), this chain at 0.007-0.012 (four seeds)
    corpus = parse_plain(["a b", "a a", "c", "b c"])
    alpha, beta = 0.8, 0.5
    exact = {labels: math.exp(dpmm_joint_log(corpus.docword, labels, corpus.n_words, alpha, beta))
             for labels in restricted_growth(corpus.n_docs)}
    assert len(exact) == 15
    total = sum(exact.values())
    exact = {key: p / total for key, p in exact.items()}

    sampler = DpmmSampler(corpus, MixtureHyper(2, alpha, beta), SeededRng(41))
    for _ in range(200):
        sampler.sweep()
    sweeps, counts = 30000, {}
    for _ in range(sweeps):
        sampler.sweep()
        first = {}
        key = tuple(first.setdefault(k, len(first)) for k in sampler.z)
        counts[key] = counts.get(key, 0) + 1
    sampler.check()
    empirical = {key: c / sweeps for key, c in counts.items()}
    assert set(empirical) <= set(exact)
    assert tv_distance(empirical, exact) < 0.02


def test_dpmm_first_document_always_births():
    corpus = parse_plain(["a b"])
    sampler = DpmmSampler(corpus, MixtureHyper(1, 0.5, 0.5), SeededRng(0))
    sampler.sweep()
    assert sampler.n_clusters == 1
    assert sampler.z == [0]


def test_dpmm_alpha_zero_never_grows():
    corpus = parse_plain(["a b", "c d", "a c", "b d", "a a"])
    sampler = DpmmSampler(corpus, MixtureHyper(2, 0.0, 0.5), SeededRng(7))
    start = sampler.n_clusters
    for _ in range(20):
        sampler.sweep()
        assert sampler.n_clusters <= start


def test_dpmm_matches_combined_rule_oracle():
    rng = SeededRng(31)
    for _ in range(6):
        V = 5
        docs = [" ".join(f"w{rng.randrange(V)}" for _ in range(rng.randrange(1, 6)))
                for _ in range(5)]
        corpus = parse_plain(docs)
        sampler = DpmmSampler(corpus, MixtureHyper(3, 0.8, 0.25), rng)
        m = rng.randrange(5)
        old = sampler.z[m]
        sampler.tables.remove_doc(m, old)
        sampler.z[m] = -1
        if sampler.tables.n_docs_in[old] == 0:
            sampler.tables.delete_cluster(old, sampler.z)
        got = sampler.full_conditional(m)
        want = dpmm_doc_oracle(sampler.tables.n_docs_in, cluster_rows(sampler.tables),
                         sampler.tables.cluster_total, corpus.docword[m],
                         corpus.n_docs, 0.8, 0.25, corpus.n_words)
        assert_close_distribution(got, want)


def test_dpmm_sweep_draw_matches_combined_rule_oracle():
    # the first draw of sweep() itself, the new-cluster outcome included
    rng = SeededRng(37)
    for _ in range(4):
        V = 5
        docs = [" ".join(f"w{rng.randrange(V)}" for _ in range(rng.randrange(1, 6)))
                for _ in range(5)]
        corpus = parse_plain(docs)
        sampler = DpmmSampler(corpus, MixtureHyper(3, 0.8, 0.25), rng)
        for _ in range(3):
            sampler.sweep()
        shares, excluded = cluster_doc_shares(sampler)
        want = dpmm_doc_oracle(*excluded, corpus.docword[0], corpus.n_docs, 0.8, 0.25,
                               corpus.n_words)
        assert_shares_match(shares, want)  # the new cluster's share included


def test_dpmm_new_cluster_weight_is_zero_count_limit():
    # the live-cluster formula evaluated with zero word counts and prior
    # mass alpha coincides with the new-cluster branch
    alpha, beta, V, M = 0.7, 0.3, 4, 6
    doc = [0, 2, 2]
    live_with_zero_counts = (alpha / (M - 1 + alpha)
                             * rising(beta, 1) * rising(beta, 2)
                             / rising(V * beta, 3))
    new_branch = dpmm_doc_oracle([], [], [], doc, M, alpha, beta, V)[-1]
    assert new_branch == pytest.approx(live_with_zero_counts, rel=1e-12)


def test_dpmm_bookkeeping_recount_every_sweep():
    rng = SeededRng(13)
    docs = [" ".join(f"w{rng.randrange(6)}" for _ in range(rng.randrange(1, 5)))
            for _ in range(8)]
    corpus = parse_plain(docs)
    sampler = DpmmSampler(corpus, MixtureHyper(3, 0.6, 0.2), rng)
    for _ in range(15):
        sampler.sweep()
        K = sampler.n_clusters
        rows = cluster_rows(sampler.tables)
        assert sum(sampler.tables.n_docs_in) == corpus.n_docs
        assert all(n > 0 for n in sampler.tables.n_docs_in)
        assert all(0 <= z < K for z in sampler.z)
        for k in range(K):
            members = [m for m, z in enumerate(sampler.z) if z == k]
            assert sampler.tables.n_docs_in[k] == len(members)
            want_total = sum(len(corpus.docword[m]) for m in members)
            assert sampler.tables.cluster_total[k] == want_total
            for v in range(corpus.n_words):
                want = sum(corpus.docword[m].count(v) for m in members)
                assert rows[k][v] == want


@pytest.mark.parametrize("sampler_cls", [DmmSampler, DpmmSampler])
def test_check_recounts_the_cluster_tables(sampler_cls):
    corpus = parse_plain(["a b a", "b c", "c c a", "a", "d b"])
    sampler = sampler_cls(corpus, MixtureHyper(2, 0.5, 0.2), SeededRng(3))
    sampler.check()
    for _ in range(5):
        sampler.sweep()
        sampler.check()
    k = sampler.z[0]
    sampler.tables.word_clusters[corpus.docword[0][0]][k] -= 1
    with pytest.raises(ValueError, match="word_clusters"):
        sampler.check()
    sampler.tables.word_clusters[corpus.docword[0][0]][k] += 1
    sampler.tables.n_docs_in[k] += 1
    with pytest.raises(ValueError, match="n_docs_in"):
        sampler.check()
    sampler.tables.n_docs_in[k] -= 1
    sampler.tables.word_clusters[corpus.docword[0][0]][k] += 1
    with pytest.raises(ValueError, match="word_clusters"):
        sampler.check()
    sampler.tables.word_clusters[corpus.docword[0][0]][k] -= 1
    v, c = sampler.tables.unit_items[0][0]
    sampler.tables.unit_items[0][0] = (v, c + 1)
    with pytest.raises(ValueError, match="unit_items"):
        sampler.check()


def test_dpmm_item_index_survives_deleting_a_cluster_before_the_last():
    # deleting cluster k < last moves the last cluster's counts, item index
    # entries and labels to index k; check() recounts them after every sweep
    corpus = parse_plain(["a b a", "b c", "c c a", "a", "d b", "d d e", "e a"])
    sampler = DpmmSampler(corpus, MixtureHyper(3, 0.5, 0.2), SeededRng(7))
    tables = sampler.tables
    deleted, delete = [], tables.delete_cluster

    def recording_delete(k, z):
        deleted.append((k, tables.n_clusters - 1))
        delete(k, z)
    tables.delete_cluster = recording_delete
    for _ in range(20):
        sampler.sweep()
        sampler.check()
    assert any(k != last for k, last in deleted), deleted
    tables.word_clusters[corpus.docword[0][0]][sampler.z[0]] += 1
    with pytest.raises(ValueError, match="word_clusters"):
        sampler.check()


def test_dpmm_relabels_with_many_live_clusters():
    # ten to eighteen live clusters, born and dying every sweep: each death before
    # the last relabels the last cluster's documents, counts and item index
    # entries, found through its documents' items; check() recounts them
    # all after every sweep
    rng = SeededRng(23)
    docs = [" ".join(f"w{rng.randrange(15)}" for _ in range(rng.randrange(1, 6)))
            for _ in range(36)]
    corpus = parse_plain(docs)
    sampler = DpmmSampler(corpus, MixtureHyper(24, 6.0, 0.3), rng)
    tables = sampler.tables
    deaths, delete = [], tables.delete_cluster
    births, new_cluster = [], tables.new_cluster

    def recording_delete(k, z):
        deaths.append((k, tables.n_clusters - 1))
        delete(k, z)

    def recording_new():
        births.append(new_cluster())
        return births[-1]
    tables.delete_cluster, tables.new_cluster = recording_delete, recording_new
    live = [sampler.n_clusters]
    sampler.check()
    for _ in range(12):
        sampler.sweep()
        sampler.check()
        live.append(sampler.n_clusters)
    assert min(live) >= 10, live
    assert len(births) >= 20, births
    assert sum(k != last for k, last in deaths) >= 20, deaths


def test_counts_after_swapping_a_units_items_matches_fresh_tables():
    # new words for one unit in place, then one counts() call: the tables
    # equal fresh ones, weigh every unit the same to the bit, and still move
    corpus = parse_plain(["a b a", "b c", "c c a", "a", "d b", "d d e"])
    hyper = MixtureHyper(3, 0.5, 0.2)
    sampler = DmmSampler(corpus, hyper, SeededRng(11))
    for _ in range(3):
        sampler.sweep()
    tables, z = sampler.tables, sampler.z
    corpus.docword[2][:] = [4, 4, 0, 1]
    vars(tables).update(tables.counts(z, 3))
    fresh = ClusterTables(corpus.docword, corpus.n_words, hyper.beta, list(z), 3)
    for name in fresh.counts(z, 3):
        assert getattr(tables, name) == getattr(fresh, name), name
    logs = tables.prior_logs(hyper.alpha)
    for m in range(corpus.n_docs):
        assert tables.weights(m, logs) == fresh.weights(m, logs)
    for _ in range(3):
        sampler.sweep()
        sampler.check()


def test_a_label_out_of_range_raises():
    units = [[0, 1], [1]]
    for z in ([0, 2], [-1, 0]):
        with pytest.raises(ValueError, match="out of range"):
            ClusterTables(units, 2, 0.5, z, 2)
    corpus = parse_plain(["a b a", "b c", "c c a"])
    sampler = DmmSampler(corpus, MixtureHyper(2, 0.5, 0.2), SeededRng(3))
    for label in (2, -1):
        sampler.z[0] = label
        with pytest.raises(ValueError, match="out of range"):
            sampler.check()


def test_dpmm_check_rejects_a_dead_cluster():
    corpus = parse_plain(["a b", "b c"])
    sampler = DpmmSampler(corpus, MixtureHyper(2, 0.5, 0.2), SeededRng(3))
    sampler.tables.new_cluster()
    with pytest.raises(ValueError, match="not live"):
        sampler.check()


def test_dpmm_fit_reports_final_cluster_count():
    corpus = parse_plain(["a a", "b b", "a b", "c c c"])
    hyper = MixtureHyper(2, 0.5, 0.2)
    sampler = DpmmSampler(corpus, hyper, SeededRng(2))
    fit = run_chain(sampler, 20)
    assert sampler.n_clusters == len(fit.phi) == len(fit.theta)
    assert sum(fit.theta) == pytest.approx(1.0, abs=1e-9)
