"""One-cluster-per-document models: Dirichlet multinomial mixture (fixed K)
and its Dirichlet-process extension (K grows and shrinks).

Cluster bookkeeping:
  n_docs_in[k]      documents currently assigned to cluster k
  cluster_word[k][v] tokens of word v in cluster k
  cluster_total[k]  tokens in cluster k
Document word multisets are cached as sorted (word, count) item lists.
"""

import math
import random
from collections import Counter

from .core import (LogRisingMemo, counts_from_assignments, exp_normalize, record, require_at_least,
                   require_nonnegative, require_positive, require_recount, sample_categorical)
from .corpus import Corpus
from .lda import smoothed_rows


@record(frozen=True)
class MixtureHyper:
    n_clusters: int  # fixed K for DMM, initial K for DPMM
    alpha: float = 0.1
    beta: float = 0.01
    iterations: int = 1000

    def __post_init__(self):
        require_at_least({"n_clusters": self.n_clusters, "iterations": self.iterations})
        require_nonnegative({"alpha": self.alpha})
        require_positive({"beta": self.beta})


@record(frozen=True)
class DpmmHyper(MixtureHyper):
    n_clusters: int = 3  # initial K; clusters are born and die during the chain


@record
class MixtureFit:
    theta: list        # K cluster weights, sums to 1
    phi: list          # K x V
    doc_cluster: list  # final assignment per document


class _ClusterTables:
    """The cluster counts of document labels z over K clusters."""

    def __init__(self, corpus: Corpus, beta: float, z: list, n_clusters: int):
        self.doc_items = [sorted(Counter(doc).items()) for doc in corpus.docword]
        self.doc_len = [len(doc) for doc in corpus.docword]
        self.docword = corpus.docword
        self.n_words = corpus.n_words
        vars(self).update(self.counts(z, n_clusters))
        # rising factorials of n_kw + beta and of n_k + V beta
        self.word_logs = LogRisingMemo(beta)
        self.total_logs = LogRisingMemo(corpus.n_words * beta)

    @property
    def n_clusters(self) -> int:
        return len(self.n_docs_in)

    def new_cluster(self) -> int:
        self.n_docs_in.append(0)
        self.cluster_word.append([0] * self.n_words)
        self.cluster_total.append(0)
        return self.n_clusters - 1

    def add_doc(self, m: int, k: int) -> None:
        self.n_docs_in[k] += 1
        row = self.cluster_word[k]
        for v, c in self.doc_items[m]:
            row[v] += c
        self.cluster_total[k] += self.doc_len[m]

    def remove_doc(self, m: int, k: int) -> None:
        self.n_docs_in[k] -= 1
        row = self.cluster_word[k]
        for v, c in self.doc_items[m]:
            row[v] -= c
        self.cluster_total[k] -= self.doc_len[m]

    def log_word_term(self, k: int, m: int) -> float:
        """log of prod_w rising(n_kw + beta, N_m^w) / rising(n_k + V beta, N_m)."""
        row = self.cluster_word[k]
        word_logs = self.word_logs
        beta = word_logs.offset
        lw = 0.0
        for v, c in self.doc_items[m]:
            lw += math.log(row[v] + beta) if c == 1 else word_logs[row[v], c]
        return lw - self.total_logs[self.cluster_total[k], self.doc_len[m]]

    def counts(self, z: list, n_clusters: int) -> dict:
        """The counts of the labels z over ``n_clusters`` clusters, by
        attribute name: every token takes its document's cluster."""
        tokens = counts_from_assignments(self.docword, [[k] * n for k, n in zip(z, self.doc_len)],
                                         n_clusters, self.n_words)
        return {"n_docs_in": [z.count(k) for k in range(n_clusters)],
                "cluster_word": tokens.topic_word, "cluster_total": tokens.topic_total}

    def fit(self, z: list, alpha: float, beta: float) -> MixtureFit:
        """The estimate from these counts and the labels z."""
        denom = len(z) + self.n_clusters * alpha
        return MixtureFit(theta=[(n + alpha) / denom for n in self.n_docs_in],
                          phi=smoothed_rows(self.cluster_word, self.cluster_total, beta),
                          doc_cluster=list(z))


class DmmSampler:
    """Collapsed Gibbs chain over per-document cluster labels, K fixed."""

    def __init__(self, corpus: Corpus, hyper: MixtureHyper, rng: random.Random):
        if corpus.n_docs == 0 or corpus.n_tokens == 0:
            raise ValueError("corpus is empty")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        self.z = [rng.randrange(hyper.n_clusters) for _ in range(corpus.n_docs)]
        self.tables = _ClusterTables(corpus, hyper.beta, self.z, hyper.n_clusters)

    def check(self) -> None:
        """Recount the cluster tables from z; raises ValueError on a mismatch."""
        require_recount(self.tables, self.tables.counts(self.z, self.tables.n_clusters), "z")

    def full_conditional(self, m: int) -> list:
        """Cluster weights for document m, its counts already removed.

        weight_k = (n_k + a)/(M - 1 + K a) * word term, in log space.
        """
        hyper = self.hyper
        K = hyper.n_clusters
        M = self.corpus.n_docs
        log_prior_denom = math.log(M - 1 + K * hyper.alpha)
        logs = []
        for k in range(K):
            prior = self.tables.n_docs_in[k] + hyper.alpha
            if prior <= 0.0:
                logs.append(float("-inf"))
                continue
            lw = math.log(prior) - log_prior_denom
            lw += self.tables.log_word_term(k, m)
            logs.append(lw)
        return exp_normalize(logs)

    def sweep(self) -> None:
        for m in range(self.corpus.n_docs):
            self.tables.remove_doc(m, self.z[m])
            k = sample_categorical(self.full_conditional(m), self.rng)
            self.z[m] = k
            self.tables.add_doc(m, k)

    def estimate(self) -> MixtureFit:
        return self.tables.fit(self.z, self.hyper.alpha, self.hyper.beta)


class DpmmSampler:
    """Nonparametric variant: clusters are born with new documents and die
    when their last document leaves; live indices stay contiguous."""

    def __init__(self, corpus: Corpus, hyper: MixtureHyper, rng: random.Random):
        if corpus.n_docs == 0 or corpus.n_tokens == 0:
            raise ValueError("corpus is empty")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        self.z = [rng.randrange(hyper.n_clusters) for _ in range(corpus.n_docs)]
        self.tables = _ClusterTables(corpus, hyper.beta, self.z, hyper.n_clusters)
        # initial clusters that attracted no document are not live
        for k in range(self.tables.n_clusters - 1, -1, -1):
            if self.tables.n_docs_in[k] == 0:
                self._delete_cluster(k)
        # the new-cluster term depends on the document alone
        self._new_cluster_log = [self._new_cluster_term(m) for m in range(corpus.n_docs)]

    @property
    def n_clusters(self) -> int:
        return self.tables.n_clusters

    def _delete_cluster(self, k: int) -> None:
        last = self.tables.n_clusters - 1
        if k != last:
            self.tables.n_docs_in[k] = self.tables.n_docs_in[last]
            self.tables.cluster_word[k] = self.tables.cluster_word[last]
            self.tables.cluster_total[k] = self.tables.cluster_total[last]
            for m, zm in enumerate(self.z):
                if zm == last:
                    self.z[m] = k
        self.tables.n_docs_in.pop()
        self.tables.cluster_word.pop()
        self.tables.cluster_total.pop()

    def check(self) -> None:
        """Recount the cluster tables from z and require every cluster live;
        raises ValueError on a mismatch."""
        require_recount(self.tables, self.tables.counts(self.z, self.tables.n_clusters), "z")
        for k, n in enumerate(self.tables.n_docs_in):
            if n <= 0:
                raise ValueError(f"cluster {k} is not live ({n} documents)")

    def _log_denom(self) -> float:
        return math.log(self.corpus.n_docs - 1 + self.hyper.alpha)

    def _new_cluster_term(self, m: int) -> float:
        """log of a/(M - 1 + a) * word term with zero counts."""
        alpha = self.hyper.alpha
        if not alpha > 0:
            return float("-inf")
        tables = self.tables
        lw = math.log(alpha) - self._log_denom()
        for _, c in tables.doc_items[m]:
            lw += tables.word_logs[0, c]
        return lw - tables.total_logs[0, tables.doc_len[m]]

    def full_conditional(self, m: int) -> list:
        """K live-cluster weights plus one new-cluster weight (last entry).

        live k: n_k/(M - 1 + a) * word term with cluster counts
        new:    a/(M - 1 + a) * word term with zero counts
        """
        log_denom = self._log_denom()
        logs = []
        for k in range(self.tables.n_clusters):
            lw = math.log(self.tables.n_docs_in[k]) - log_denom
            lw += self.tables.log_word_term(k, m)
            logs.append(lw)
        logs.append(self._new_cluster_log[m])
        return exp_normalize(logs)

    def sweep(self) -> None:
        for m in range(self.corpus.n_docs):
            old = self.z[m]
            self.tables.remove_doc(m, old)
            self.z[m] = -1
            if self.tables.n_docs_in[old] == 0:
                self._delete_cluster(old)
            weights = self.full_conditional(m)
            k = sample_categorical(weights, self.rng)
            if k == self.tables.n_clusters:
                k = self.tables.new_cluster()
            self.z[m] = k
            self.tables.add_doc(m, k)

    def estimate(self) -> MixtureFit:
        return self.tables.fit(self.z, self.hyper.alpha, self.hyper.beta)
