"""Metadata-coupled models.

The author-topic model draws an (author, topic) pair jointly for every
token, so its conditional is a flattened |authors| x K categorical.  Link
LDA keeps separate word and link count tables that meet only in the shared
per-document topic factor.
"""

import random

from .core import (counts_from_assignments, record, require_at_least, require_positive,
                   require_recount, sample_categorical)
from .corpus import Corpus
from .lda import LdaHyper, estimate_phi, estimate_theta, smoothed_rows


@record
class AtmFit:
    theta: list  # A x K, one topic mixture per author
    phi: list    # K x V


class AtmSampler:
    """Joint (author, topic) collapsed Gibbs chain.

    x[m][n] is the author responsible for token n of document m, always a
    member of the document's author list.  ``tables`` has one row per
    author: doc_topic[a][k] is n_a^k and doc_total[a] is n_a^*.
    """

    def __init__(self, corpus: Corpus, hyper: LdaHyper, rng: random.Random):
        corpus.require("authors")
        if corpus.n_docs == 0 or corpus.n_tokens == 0:
            raise ValueError("corpus is empty")
        if any(not a for a in corpus.authors):
            raise ValueError("every document needs at least one author")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        K = hyper.n_topics
        self.x = [[rng.choice(corpus.authors[m]) for _ in doc]
                  for m, doc in enumerate(corpus.docword)]
        self.z = [[rng.randrange(K) for _ in doc] for doc in corpus.docword]
        vars(self).update(self._counts())

    def _counts(self) -> dict:
        """The count tables of x and z, by attribute name."""
        return {"tables": counts_from_assignments(self.corpus.docword, self.z,
                                                  self.hyper.n_topics, self.corpus.n_words,
                                                  rows=self.x,
                                                  n_rows=len(self.corpus.meta_vocabulary))}

    def check(self) -> None:
        """Check every token's author against its document's author list and
        the tables against a recount of x and z; raises ValueError."""
        for m, (authors, xm) in enumerate(zip(self.corpus.authors, self.x)):
            strangers = set(xm).difference(authors)
            if strangers:
                raise ValueError(f"doc {m}: authors {sorted(strangers)} are not its authors")
        require_recount(self, self._counts(), "x and z")

    def full_conditional(self, m: int, v: int) -> tuple[list, list]:
        """(flat weights, author list) for the joint draw, token excluded.

        weight_{a,k} = (n_ak + a)/(n_a + K a) * (n_kv + b)/(n_k + V b),
        flattened author-major.
        """
        hyper = self.hyper
        tables = self.tables
        K, V = hyper.n_topics, self.corpus.n_words
        v_beta = V * hyper.beta
        word_factor = [(tables.topic_word[k][v] + hyper.beta)
                       / (tables.topic_total[k] + v_beta) for k in range(K)]
        authors = self.corpus.authors[m]
        weights = []
        for a in authors:
            row = tables.doc_topic[a]
            denom = tables.doc_total[a] + K * hyper.alpha
            for k in range(K):
                weights.append((row[k] + hyper.alpha) / denom * word_factor[k])
        return weights, authors

    def sweep(self) -> None:
        K = self.hyper.n_topics
        nak, na = self.tables.doc_topic, self.tables.doc_total
        nkv, nk = self.tables.topic_word, self.tables.topic_total
        for m, doc in enumerate(self.corpus.docword):
            xm, zm = self.x[m], self.z[m]
            for n, v in enumerate(doc):
                a, k = xm[n], zm[n]
                nak[a][k] -= 1
                na[a] -= 1
                nkv[k][v] -= 1
                nk[k] -= 1
                weights, authors = self.full_conditional(m, v)
                cell = sample_categorical(weights, self.rng)
                a, k = authors[cell // K], cell % K
                xm[n] = a
                zm[n] = k
                nak[a][k] += 1
                na[a] += 1
                nkv[k][v] += 1
                nk[k] += 1

    def estimate(self) -> AtmFit:
        return AtmFit(theta=estimate_theta(self.tables, self.hyper.alpha),
                      phi=estimate_phi(self.tables, self.hyper.beta))


@record(frozen=True)
class LinkLdaHyper:
    n_topics: int
    alpha: float = 0.1
    beta: float = 0.01
    gamma: float = 0.01  # topic-link smoothing
    iterations: int = 1000

    def __post_init__(self):
        require_at_least({"n_topics": self.n_topics, "iterations": self.iterations})
        require_positive({"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma})


@record
class LinkLdaFit:
    theta: list     # M x K, words and links pooled
    phi: list       # K x V
    link_phi: list  # K x L


class LinkLdaSampler:
    """Words and links resampled against a shared per-document topic mixture.

    ``words`` counts the word topics z (n_m^k, n_k^v, n_k) and ``links`` the
    link topics x (c_m^k, c_k^l, c_k), each a CountTables over the documents.
    """

    def __init__(self, corpus: Corpus, hyper: LinkLdaHyper, rng: random.Random):
        corpus.require("links")
        if corpus.n_docs == 0 or corpus.n_tokens == 0:
            raise ValueError("corpus is empty")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        K = hyper.n_topics
        self.n_links = len(corpus.meta_vocabulary)
        self.z = [[rng.randrange(K) for _ in doc] for doc in corpus.docword]
        self.x = [[rng.randrange(K) for _ in links] for links in corpus.links]
        vars(self).update(self._counts())

    def _counts(self) -> dict:
        """The word tables of z and the link tables of x, by attribute name."""
        K = self.hyper.n_topics
        return {"words": counts_from_assignments(self.corpus.docword, self.z, K,
                                                 self.corpus.n_words),
                "links": counts_from_assignments(self.corpus.links, self.x, K, self.n_links)}

    def check(self) -> None:
        """Check both tables against a recount of z and x; raises ValueError."""
        require_recount(self, self._counts(), "z and x")

    def _conditional(self, own, other, m: int, v: int, smooth: float) -> list:
        """weight_k = (own_kv + s)/(own_k + |own vocabulary| s) * (own_mk + other_mk + a)."""
        vocab_smooth = own.n_words * smooth
        own_mk, other_mk = own.doc_topic[m], other.doc_topic[m]
        alpha = self.hyper.alpha
        return [(row[v] + smooth) / (total + vocab_smooth) * (own_mk[k] + other_mk[k] + alpha)
                for k, (row, total) in enumerate(zip(own.topic_word, own.topic_total))]

    def word_conditional(self, m: int, v: int) -> list:
        """weight_k = (n_kv + b)/(n_k + V b) * (n_mk + c_mk + a), token excluded."""
        return self._conditional(self.words, self.links, m, v, self.hyper.beta)

    def link_conditional(self, m: int, l: int) -> list:
        """weight_k = (c_kl + g)/(c_k + L g) * (c_mk + n_mk + a), link excluded."""
        return self._conditional(self.links, self.words, m, l, self.hyper.gamma)

    def _resample(self, tables, m: int, items: list, topics: list, conditional) -> None:
        """Redraw the topic of every word or link of document m in turn."""
        row, counts, totals = tables.doc_topic[m], tables.topic_word, tables.topic_total
        for n, v in enumerate(items):
            k = topics[n]
            row[k] -= 1
            counts[k][v] -= 1
            totals[k] -= 1
            k = sample_categorical(conditional(m, v), self.rng)
            topics[n] = k
            row[k] += 1
            counts[k][v] += 1
            totals[k] += 1

    def sweep(self) -> None:
        for m, doc in enumerate(self.corpus.docword):
            self._resample(self.words, m, doc, self.z[m], self.word_conditional)
            self._resample(self.links, m, self.corpus.links[m], self.x[m], self.link_conditional)

    def estimate(self) -> LinkLdaFit:
        """theta pools each document's word and link topic counts."""
        hyper = self.hyper
        pooled = [[n + c for n, c in zip(n_mk, c_mk)]
                  for n_mk, c_mk in zip(self.words.doc_topic, self.links.doc_topic)]
        return LinkLdaFit(theta=smoothed_rows(pooled, [sum(row) for row in pooled], hyper.alpha),
                          phi=estimate_phi(self.words, hyper.beta),
                          link_phi=estimate_phi(self.links, hyper.gamma))
