"""Metadata-coupled models.

The author-topic model draws an (author, topic) pair jointly for every
token, so its conditional is a flattened |authors| x K categorical.  Link
LDA keeps separate word and link topic counts that meet only in the shared
per-document row, so both its draws are the SparseLDA token draw of
``lda.sweep_sparse_tokens``.
"""

import random

from .core import (counts_from_assignments, draw_below, draw_each, record, require_positive,
                   require_recount, sample_categorical)
from .corpus import Corpus
from .lda import FittedLda, LdaHyper, index_phi, smoothed_rows, sweep_sparse_tokens


class AtmSampler:
    """Joint (author, topic) collapsed Gibbs chain.

    x[m][n] is the author responsible for token n of document m, always a
    member of the document's author list.  The counts have one row per
    author: author_topic[a][k] is n_a^k and author_total[a] is n_a^*;
    topic_total[k] is n_k, and n_kv lives in the word index ``word_topics``
    (v -> {k: n_kv}) alone.
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
        """The count tables of x and z and their word index, by attribute name."""
        counts = counts_from_assignments(self.corpus.docword, self.z, self.hyper.n_topics,
                                         self.corpus.n_words, rows=self.x,
                                         n_rows=len(self.corpus.meta_vocabulary))
        return {"author_topic": counts.pop("doc_topic"), "author_total": counts.pop("doc_total"),
                **counts}

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
        flattened author-major, with n_kv = 0 for a topic v's dict lacks.
        """
        hyper = self.hyper
        K, alpha, beta, totals = hyper.n_topics, hyper.alpha, hyper.beta, self.topic_total
        v_beta = self.corpus.n_words * beta
        word_factor = [beta / (n + v_beta) for n in totals]
        for k, c in self.word_topics[v].items():
            word_factor[k] = (c + beta) / (totals[k] + v_beta)
        authors = self.corpus.authors[m]
        weights = []
        for a in authors:
            row = self.author_topic[a]
            denom = self.author_total[a] + K * alpha
            for k in range(K):
                weights.append((row[k] + alpha) / denom * word_factor[k])
        return weights, authors

    def sweep(self) -> None:
        """Redraw every token's (author, topic) pair.  A count of 0 stays in
        its word's dict during the draw, and goes if the token leaves the topic."""
        K = self.hyper.n_topics
        nak, na = self.author_topic, self.author_total
        word_topics, nk = self.word_topics, self.topic_total
        for m, doc in enumerate(self.corpus.docword):
            xm, zm = self.x[m], self.z[m]
            for n, v in enumerate(doc):
                a, k, wt = xm[n], zm[n], word_topics[v]
                nak[a][k] -= 1
                na[a] -= 1
                wt[k] -= 1
                nk[k] -= 1
                weights, authors = self.full_conditional(m, v)
                cell = sample_categorical(weights, self.rng)
                a, new = authors[cell // K], cell % K
                if new != k and not wt[k]:
                    del wt[k]
                xm[n], zm[n] = a, new
                nak[a][new] += 1
                na[a] += 1
                wt[new] = wt.get(new, 0) + 1
                nk[new] += 1

    def estimate(self) -> FittedLda:
        """theta has one row per author."""
        h = self.hyper
        return FittedLda(theta=smoothed_rows(self.author_topic, self.author_total, h.alpha),
                         phi=index_phi(self.word_topics, self.topic_total, h.beta))


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
        words = counts_from_assignments(corpus.docword, self.z, K, corpus.n_words)
        links = counts_from_assignments(corpus.links, self.x, K, n_links)
        return {"doc_topic": [[n + c for n, c in zip(n_mk, c_mk)]
                              for n_mk, c_mk in zip(words["doc_topic"], links["doc_topic"])],
                "word_total": words["topic_total"], "link_total": links["topic_total"],
                "word_topics": words["word_topics"], "link_topics": links["word_topics"]}

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
