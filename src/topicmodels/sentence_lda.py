"""Sentence-LDA: every word of a sentence shares one topic.

A sentence's topic is drawn as a DMM document's cluster is, on the same
``mixture.ClusterTables``: the sentences are the units, their words the
items and the topics the clusters.  The draw's prior logs are the
sentence's document row, log(n_mk + alpha), in place of DMM's cluster
sizes.  The weights are built in log space and exponentiated against the
per-sentence maximum.
"""

import math
import random
from itertools import accumulate, chain, repeat
from operator import add, lt

from .core import draw_each, exp_normalize, require_recount, sample_categorical
from .corpus import Corpus
from .lda import FittedLda, LdaHyper, index_phi, smoothed_rows
from .mixture import ClusterTables


class SentenceLdaSampler:
    """Collapsed Gibbs chain over per-sentence topic assignments z_ms.

    ``clusters`` is a ``mixture.ClusterTables`` over the corpus's sentences
    in order, sentence s of document m being unit first_sentence[m] + s:
    its cluster_total counts word tokens (not sentences) by topic, and its
    word index word_clusters, which the LDA samplers' name ``word_topics``
    also reads, holds n_kv.  Beside them are the document rows doc_topic
    (tokens of document m in topic k) and doc_total.  A sweep moves a
    sentence out of and back into its own document, so doc_total never
    changes.
    """

    def __init__(self, corpus: Corpus, hyper: LdaHyper, rng: random.Random):
        corpus.require("sentences")
        for m, (doc, ends) in enumerate(zip(corpus.docword, corpus.sentences)):
            bounds = [0, *ends]  # each sentence ends after the one before, the last with doc
            if bounds[-1] != len(doc) or not all(map(lt, bounds, ends)):
                raise ValueError(f"doc {m}: sentence ends {ends} do not split its tokens")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        self.sentences = [s for m in range(corpus.n_docs) for s in corpus.doc_sentences(m)]
        self.first_sentence = list(accumulate(map(len, corpus.sentences), initial=0))
        self.z = draw_each(rng, hyper.n_topics, corpus.sentences)
        vars(self).update(self._counts())

    def _counts(self) -> dict:
        """The cluster tables of z, their word index and the document rows,
        by attribute name: every token takes its sentence's topic."""
        corpus, K = self.corpus, self.hyper.n_topics
        clusters = ClusterTables(self.sentences, corpus.n_words, self.hyper.beta,
                                 list(chain.from_iterable(self.z)), K)
        doc_topic = [[0] * K for _ in range(corpus.n_docs)]
        lengths = iter(clusters.unit_len)
        for zm, row in zip(self.z, doc_topic):
            for k, n in zip(zm, lengths):  # zm first: zip stops before taking a length
                row[k] += n
        return {"clusters": clusters, "word_topics": clusters.word_clusters,
                "doc_topic": doc_topic, "doc_total": list(map(len, corpus.docword))}

    def check(self) -> None:
        """Check the document rows, the word index and the cluster tables
        against a recount of z; raises ValueError."""
        recount = self._counts()
        del recount["clusters"]
        require_recount(self, recount, "z")
        self.clusters.check(list(chain.from_iterable(self.z)), "z")

    def full_conditional(self, m: int, s: int) -> list:
        """Weights for sentence s of document m, its counts already removed,
        proportional to

        (n_mk + a) * prod_w rising(n_kw + b, N_ms^w) / rising(n_k + V b, N_ms)
        """
        logs = list(map(math.log, map(add, self.doc_topic[m], repeat(self.hyper.alpha))))
        return exp_normalize(self.clusters.weights(self.first_sentence[m] + s, logs))

    def sweep(self) -> None:
        clusters, unit_len = self.clusters, self.clusters.unit_len
        u = 0
        for m, (zm, row) in enumerate(zip(self.z, self.doc_topic)):
            for s, k in enumerate(zm):
                n = unit_len[u]
                clusters.remove_doc(u, k)
                row[k] -= n
                k = zm[s] = sample_categorical(self.full_conditional(m, s), self.rng)
                clusters.add_doc(u, k)
                row[k] += n
                u += 1

    def estimate(self) -> FittedLda:
        clusters = self.clusters
        return FittedLda(theta=smoothed_rows(self.doc_topic, self.doc_total, self.hyper.alpha),
                         phi=index_phi(clusters.word_clusters, clusters.cluster_total,
                                       self.hyper.beta))
