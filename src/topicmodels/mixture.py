"""One-cluster-per-document models: Dirichlet multinomial mixture (fixed K)
and its Dirichlet-process extension (K grows and shrinks).

Cluster bookkeeping, ``ClusterTables``, for units that are lists of item
ids (a document's words here; Sentence-LDA's sentences, with topics as the
clusters; PTM's short documents, whose items are their tokens' topics, with
pseudo documents as the clusters):
  n_docs_in[k]       units currently assigned to cluster k
  cluster_word[k][v] items v in cluster k
  cluster_total[k]   items in cluster k
  word_clusters[v]   the item index: cluster k -> n_kv for the clusters holding v
Unit item multisets are cached as sorted (item, count) lists.  ``counts``
builds all of these from units and labels; each move keeps them current.
A unit's log weight in cluster k is the caller's prior log for k (log(n_k
+ alpha) in DMM, log n_k in DPMM, log(n_mk + alpha) in Sentence-LDA) plus
the item term of ``core.log_unit_weights``,
prod_v rising(n_kv + b, N_m^v) / rising(n_k + V b, N_m), up to a
factor the same for every cluster (b = beta, V words in DMM and DPMM).
"""

import math
import random
from collections import Counter
from itertools import compress, repeat
from operator import add

from .core import (LogRisingMemo, draw_below, exp_normalize, log_unit_weights, record,
                   require_at_least, require_nonnegative, require_positive, require_recount,
                   sample_categorical)
from .corpus import Corpus
from .lda import smoothed_rows


@record(frozen=True)
class MixtureHyper:
    n_clusters: int  # fixed K for DMM, initial K for DPMM
    alpha: float = 0.1
    beta: float = 0.01

    def __post_init__(self):
        require_at_least({"n_clusters": self.n_clusters})
        require_nonnegative({"alpha": self.alpha})
        require_positive({"beta": self.beta})


@record(frozen=True)
class DpmmHyper(MixtureHyper):
    n_clusters: int = 3  # initial K; clusters are born and die during the chain


@record
class MixtureFit:
    theta: list        # K cluster weights, sums to 1
    phi: list          # K rows of array('d') over V words
    doc_cluster: list  # final assignment per document


class ClusterTables:
    """The cluster counts of labels z over K clusters, for ``units`` (lists
    of item ids in [0, n_items)) under a symmetric item prior b."""

    def __init__(self, units: list, n_items: int, b: float, z: list, n_clusters: int):
        self.units = units
        self.n_items = n_items
        vars(self).update(self.counts(z, n_clusters))
        # rising factorials of n_kv + b and of n_k + V b
        self.item_logs = LogRisingMemo(b)
        self.total_logs = LogRisingMemo(n_items * b)

    @property
    def n_clusters(self) -> int:
        return len(self.n_docs_in)

    def new_cluster(self) -> int:
        self.n_docs_in.append(0)
        self.cluster_word.append([0] * self.n_items)
        self.cluster_total.append(0)
        return self.n_clusters - 1

    def delete_cluster(self, k: int, z: list) -> None:
        """Drop cluster k, which holds no unit: the last cluster takes its
        index in the counts, the item index and the labels z."""
        last = self.n_clusters - 1
        if k != last:
            self.n_docs_in[k] = self.n_docs_in[last]
            row = self.cluster_word[k] = self.cluster_word[last]
            self.cluster_total[k] = self.cluster_total[last]
            index = self.word_clusters
            for v in compress(range(len(row)), row):
                index[v][k] = index[v].pop(last)
            for m, zm in enumerate(z):
                if zm == last:
                    z[m] = k
        self.n_docs_in.pop()
        self.cluster_word.pop()
        self.cluster_total.pop()

    def add_doc(self, m: int, k: int) -> None:
        self._move_doc(m, k, 1)

    def remove_doc(self, m: int, k: int) -> None:
        self._move_doc(m, k, -1)

    def _move_doc(self, m: int, k: int, sign: int) -> None:
        """Add (sign 1) or remove (sign -1) unit m to or from cluster k
        in the counts and the item index, where a key whose count reaches 0
        leaves its dict."""
        self.n_docs_in[k] += sign
        self.cluster_total[k] += sign * self.unit_len[m]
        row, index = self.cluster_word[k], self.word_clusters
        for v, c in self.unit_items[m]:
            c *= sign
            row[v] += c
            counts = index[v]
            left = counts.get(k, 0) + c
            if left:
                counts[k] = left
            else:
                del counts[k]

    def counts(self, z: list, n_clusters: int) -> dict:
        """Everything the tables hold of the units and their labels z over
        ``n_clusters`` clusters, by attribute name, counted from the units in
        one pass: every item takes its unit's cluster.  A label outside
        [0, n_clusters) raises ValueError."""
        if z and not (0 <= min(z) and max(z) < n_clusters):
            raise ValueError(f"a label out of range [0, {n_clusters})")
        unit_items = [sorted(Counter(unit).items()) for unit in self.units]
        unit_len = list(map(len, self.units))
        n_docs_in, totals = [0] * n_clusters, [0] * n_clusters
        rows = [[0] * self.n_items for _ in range(n_clusters)]
        index = [{} for _ in range(self.n_items)]
        for k, n, items in zip(z, unit_len, unit_items, strict=True):
            n_docs_in[k] += 1
            totals[k] += n
            row = rows[k]
            for v, c in items:
                row[v] += c
                index[v][k] = index[v].get(k, 0) + c
        return {"unit_items": unit_items, "unit_len": unit_len, "n_docs_in": n_docs_in,
                "cluster_word": rows, "cluster_total": totals, "word_clusters": index}

    def check(self, z: list, source: str) -> None:
        """Recount the tables and item lists from the units and the labels
        z; raises ValueError naming the first that differs."""
        require_recount(self, self.counts(z, self.n_clusters), source)

    def prior_logs(self, prior: float) -> list:
        """log(n_k + prior) for every cluster k; an empty cluster at prior 0
        weighs -inf."""
        if prior > 0:
            return list(map(math.log, map(add, self.n_docs_in, repeat(prior))))
        return [math.log(n) if n else -math.inf for n in self.n_docs_in]

    def weights(self, m: int, logs: list) -> list:
        """Log weights, up to a constant, of giving unit m (its counts
        already removed) to each cluster k: the prior log ``logs[k]`` plus
        the item term."""
        return log_unit_weights(logs, self.word_clusters, self.cluster_total,
                                self.unit_items[m], self.unit_len[m], self.item_logs,
                                self.total_logs)

    def resample(self, z: list, prior: float, rng: random.Random) -> None:
        """Draw every unit's cluster z[m] once, in index order, with the
        unit taken out of its cluster and prior logs ``prior_logs(prior)``."""
        for m in range(len(z)):
            self.remove_doc(m, z[m])
            k = sample_categorical(exp_normalize(self.weights(m, self.prior_logs(prior))), rng)
            z[m] = k
            self.add_doc(m, k)

    def fit(self, z: list, alpha: float, beta: float) -> MixtureFit:
        """The estimate from these counts and the labels z."""
        denom = len(z) + self.n_clusters * alpha
        return MixtureFit(theta=[(n + alpha) / denom for n in self.n_docs_in],
                          phi=smoothed_rows(self.cluster_word, self.cluster_total, beta,
                                            ranked=True),
                          doc_cluster=list(z))


class DmmSampler:
    """Collapsed Gibbs chain over per-document cluster labels, K fixed."""

    def __init__(self, corpus: Corpus, hyper: MixtureHyper, rng: random.Random):
        corpus.require()
        # at alpha = 0 one document's draw would find every cluster without mass
        if corpus.n_docs == 1 and not hyper.alpha > 0:
            raise ValueError("alpha must be > 0 when the corpus has one document")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        self.z = draw_below(rng, hyper.n_clusters, corpus.n_docs)
        self.tables = ClusterTables(corpus.docword, corpus.n_words, hyper.beta, self.z,
                                    hyper.n_clusters)

    def check(self) -> None:
        """Recount the cluster tables from z; raises ValueError on a mismatch."""
        self.tables.check(self.z, "z")

    def full_conditional(self, m: int) -> list:
        """Cluster weights for document m, its counts already removed,
        proportional to (n_k + a) * word term; an empty cluster at a = 0
        weighs 0."""
        return exp_normalize(self.tables.weights(m, self.tables.prior_logs(self.hyper.alpha)))

    def sweep(self) -> None:
        self.tables.resample(self.z, self.hyper.alpha, self.rng)

    def estimate(self) -> MixtureFit:
        return self.tables.fit(self.z, self.hyper.alpha, self.hyper.beta)


class DpmmSampler(DmmSampler):
    """DMM whose clusters are born with new documents and die when their
    last document leaves; live indices stay contiguous."""

    def __init__(self, corpus: Corpus, hyper: MixtureHyper, rng: random.Random):
        super().__init__(corpus, hyper, rng)
        # initial clusters that attracted no document are not live
        for k in range(self.tables.n_clusters - 1, -1, -1):
            if self.tables.n_docs_in[k] == 0:
                self.tables.delete_cluster(k, self.z)
        # the new-cluster term depends on the document alone: an empty
        # cluster holds none of its words, so it is log a - log rising(V beta, N_m)
        prior = math.log(hyper.alpha) if hyper.alpha > 0 else -math.inf
        total_logs = self.tables.total_logs
        self._new_cluster_log = [prior - total_logs[0, n] for n in self.tables.unit_len]

    @property
    def n_clusters(self) -> int:
        return self.tables.n_clusters

    def check(self) -> None:
        """Recount the cluster tables from z and require every cluster live;
        raises ValueError on a mismatch."""
        super().check()
        for k, n in enumerate(self.tables.n_docs_in):
            if n <= 0:
                raise ValueError(f"cluster {k} is not live ({n} documents)")

    def full_conditional(self, m: int) -> list:
        """K live-cluster weights plus one new-cluster weight (last entry),
        proportional to n_k * word term with cluster counts and to a * word
        term with zero counts."""
        logs = self.tables.weights(m, list(map(math.log, self.tables.n_docs_in)))
        logs.append(self._new_cluster_log[m])
        return exp_normalize(logs)

    def sweep(self) -> None:
        for m in range(self.corpus.n_docs):
            old = self.z[m]
            self.tables.remove_doc(m, old)
            self.z[m] = -1
            if self.tables.n_docs_in[old] == 0:
                self.tables.delete_cluster(old, self.z)
            weights = self.full_conditional(m)
            k = sample_categorical(weights, self.rng)
            if k == self.tables.n_clusters:
                k = self.tables.new_cluster()
            self.z[m] = k
            self.tables.add_doc(m, k)
