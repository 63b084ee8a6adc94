"""Metadata-coupled models.

The author-topic model draws an (author, topic) pair jointly for every
token, so its conditional is a flattened |authors| x K categorical.  Link
LDA keeps separate word and link topic counts that meet only in the shared
per-document row, so both its draws are the SparseLDA token draw of
``lda.sweep_sparse_tokens``.
"""

import random

from .core import (counts_from_assignments, draw_below, draw_each, index_rows, record,
                   require_positive, require_recount, sample_categorical)
from .corpus import Corpus
from .lda import (FittedLda, LdaHyper, estimate_phi, estimate_theta, index_phi, smoothed_rows,
                  sweep_sparse_tokens)


class AtmSampler:
    """Joint (author, topic) collapsed Gibbs chain.

    x[m][n] is the author responsible for token n of document m, always a
    member of the document's author list.  ``tables`` has one row per
    author: doc_topic[a][k] is n_a^k and doc_total[a] is n_a^*, and
    ``tables.topic_word`` is n_kv, dense for the joint draw.
    """

    def __init__(self, corpus: Corpus, hyper: LdaHyper, rng: random.Random):
        corpus.require("authors")
        if any(not a for a in corpus.authors):
            raise ValueError("every document needs at least one author")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        # rng.choice(authors) for each token, then a topic for each
        self.x = [list(map(authors.__getitem__, draw_below(rng, len(authors), len(doc))))
                  for authors, doc in zip(corpus.authors, corpus.docword)]
        self.z = draw_each(rng, hyper.n_topics, corpus.docword)
        vars(self).update(self._counts())

    def _counts(self) -> dict:
        """The count tables of x and z, by attribute name."""
        K = self.hyper.n_topics
        tables, index = counts_from_assignments(self.corpus.docword, self.z, K,
                                                self.corpus.n_words, rows=self.x,
                                                n_rows=len(self.corpus.meta_vocabulary))
        tables.topic_word = index_rows(index, K)
        return {"tables": tables}

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

    def estimate(self) -> FittedLda:
        """theta has one row per author."""
        return FittedLda(theta=estimate_theta(self.tables, self.hyper.alpha),
                         phi=estimate_phi(self.tables, self.hyper.beta))


@record(frozen=True)
class LinkLdaHyper(LdaHyper):
    gamma: float = 0.01  # topic-link smoothing

    def __post_init__(self):
        super().__post_init__()
        require_positive({"gamma": self.gamma})


@record
class LinkLdaFit:
    theta: list     # M rows of array('d') over K, words and links pooled
    phi: list       # K rows of array('d') over V words
    link_phi: list  # K rows of array('d') over L links


class LinkLdaSampler:
    """Words and links resampled against a shared per-document topic mixture.

    ``doc_topic[m][k]`` pools document m's words and links in topic k
    (n_mk + c_mk), the row both draws read.  The words' topic counts are
    the word index ``word_topics`` (v -> {k: n_kv}) and ``word_total``
    (n_k), the links' ``link_topics`` (l -> {k: c_kl}) and ``link_total``
    (c_k): the SparseLDA draws move them, and the estimate reads them.
    """

    def __init__(self, corpus: Corpus, hyper: LinkLdaHyper, rng: random.Random):
        corpus.require("links")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        self.z = draw_each(rng, hyper.n_topics, corpus.docword)
        self.x = draw_each(rng, hyper.n_topics, corpus.links)
        vars(self).update(self._counts())

    def _counts(self) -> dict:
        """The pooled rows and the word and link counts of z and x, in their
        word indices and topic totals, by attribute name."""
        K, corpus = self.hyper.n_topics, self.corpus
        n_links = len(corpus.meta_vocabulary)
        words, word_topics = counts_from_assignments(corpus.docword, self.z, K, corpus.n_words)
        links, link_topics = counts_from_assignments(corpus.links, self.x, K, n_links)
        return {"doc_topic": [[n + c for n, c in zip(n_mk, c_mk)]
                              for n_mk, c_mk in zip(words.doc_topic, links.doc_topic)],
                "word_total": words.topic_total, "link_total": links.topic_total,
                "word_topics": word_topics, "link_topics": link_topics}

    def check(self) -> None:
        """Check every table against a recount of z and x; raises ValueError."""
        require_recount(self, self._counts(), "z and x")

    def sweep(self) -> None:
        """Resample every word, then every link, with the SparseLDA draw
        against the pooled rows: a word from
        (n_mk + c_mk + a)(n_kv + b)/(n_k + V b), a link from
        (n_mk + c_mk + a)(c_kl + g)/(c_k + L g).  A corpus without links
        (L = 0) has no link draw."""
        hyper = self.hyper
        every = [range(hyper.n_topics)] * len(self.z)
        sweep_sparse_tokens(self.corpus.docword, self.z, self.doc_topic, every, self.word_total,
                            self.word_topics, hyper.alpha, hyper.beta, self.rng)
        if self.link_topics:
            sweep_sparse_tokens(self.corpus.links, self.x, self.doc_topic, every, self.link_total,
                                self.link_topics, hyper.alpha, hyper.gamma, self.rng)

    def estimate(self) -> LinkLdaFit:
        """theta pools each document's word and link topic counts."""
        hyper = self.hyper
        rows = self.doc_topic
        return LinkLdaFit(theta=smoothed_rows(rows, [sum(row) for row in rows], hyper.alpha),
                          phi=index_phi(self.word_topics, self.word_total, hyper.beta),
                          link_phi=index_phi(self.link_topics, self.link_total, hyper.gamma))
