"""Metadata-coupled models.

The author-topic model draws an (author, topic) pair jointly for every
token, so its conditional is a flattened |authors| x K categorical.  Link
LDA keeps separate word and link count tables that meet only in the shared
per-document topic factor.
"""

import random
from dataclasses import dataclass

from .core import require_at_least, require_positive, sample_categorical
from .corpus import Corpus
from .lda import LdaHyper, smoothed_rows


@dataclass
class AtmFit:
    theta: list  # A x K, one topic mixture per author
    phi: list    # K x V


class AtmSampler:
    """Joint (author, topic) collapsed Gibbs chain.

    x[m][n] is the author responsible for token n of document m, always a
    member of the document's author list.
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
        K, V = hyper.n_topics, corpus.n_words
        self.n_authors = len(corpus.meta_vocabulary)
        self.x = [[rng.choice(corpus.authors[m]) for _ in doc]
                  for m, doc in enumerate(corpus.docword)]
        self.z = [[rng.randrange(K) for _ in doc] for doc in corpus.docword]
        self.author_topic = [[0] * K for _ in range(self.n_authors)]  # n_a^k
        self.author_total = [0] * self.n_authors                      # n_a^*
        self.topic_word = [[0] * V for _ in range(K)]
        self.topic_total = [0] * K
        for m, doc in enumerate(corpus.docword):
            for n, v in enumerate(doc):
                a, k = self.x[m][n], self.z[m][n]
                self.author_topic[a][k] += 1
                self.author_total[a] += 1
                self.topic_word[k][v] += 1
                self.topic_total[k] += 1

    def full_conditional(self, m: int, v: int) -> tuple[list, list]:
        """(flat weights, author list) for the joint draw, token excluded.

        weight_{a,k} = (n_ak + a)/(n_a + K a) * (n_kv + b)/(n_k + V b),
        flattened author-major.
        """
        hyper = self.hyper
        K, V = hyper.n_topics, self.corpus.n_words
        v_beta = V * hyper.beta
        word_factor = [(self.topic_word[k][v] + hyper.beta)
                       / (self.topic_total[k] + v_beta) for k in range(K)]
        authors = self.corpus.authors[m]
        weights = []
        for a in authors:
            row = self.author_topic[a]
            denom = self.author_total[a] + K * hyper.alpha
            for k in range(K):
                weights.append((row[k] + hyper.alpha) / denom * word_factor[k])
        return weights, authors

    def sweep(self) -> None:
        K = self.hyper.n_topics
        for m, doc in enumerate(self.corpus.docword):
            for n, v in enumerate(doc):
                a, k = self.x[m][n], self.z[m][n]
                self.author_topic[a][k] -= 1
                self.author_total[a] -= 1
                self.topic_word[k][v] -= 1
                self.topic_total[k] -= 1
                weights, authors = self.full_conditional(m, v)
                cell = sample_categorical(weights, self.rng)
                a, k = authors[cell // K], cell % K
                self.x[m][n] = a
                self.z[m][n] = k
                self.author_topic[a][k] += 1
                self.author_total[a] += 1
                self.topic_word[k][v] += 1
                self.topic_total[k] += 1

    def estimate(self) -> AtmFit:
        return AtmFit(theta=smoothed_rows(self.author_topic, self.author_total,
                                          self.hyper.alpha),
                      phi=smoothed_rows(self.topic_word, self.topic_total,
                                        self.hyper.beta))


@dataclass(frozen=True)
class LinkLdaHyper:
    n_topics: int
    alpha: float = 0.1
    beta: float = 0.01
    gamma: float = 0.01  # topic-link smoothing
    iterations: int = 1000

    def __post_init__(self):
        require_at_least({"n_topics": self.n_topics, "iterations": self.iterations})
        require_positive({"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma})


@dataclass
class LinkLdaFit:
    theta: list     # M x K, words and links pooled
    phi: list       # K x V
    link_phi: list  # K x L


class LinkLdaSampler:
    """Words and links resampled against a shared per-document topic mixture."""

    def __init__(self, corpus: Corpus, hyper: LinkLdaHyper, rng: random.Random):
        corpus.require("links")
        if corpus.n_docs == 0 or corpus.n_tokens == 0:
            raise ValueError("corpus is empty")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        K, V = hyper.n_topics, corpus.n_words
        self.n_links = len(corpus.meta_vocabulary)
        self.z = [[rng.randrange(K) for _ in doc] for doc in corpus.docword]
        self.x = [[rng.randrange(K) for _ in links] for links in corpus.links]
        M = corpus.n_docs
        self.word_doc_topic = [[0] * K for _ in range(M)]   # n_m^k
        self.link_doc_topic = [[0] * K for _ in range(M)]   # c_m^k
        self.topic_word = [[0] * V for _ in range(K)]
        self.topic_total = [0] * K
        self.topic_link = [[0] * self.n_links for _ in range(K)]  # c_k^l
        self.link_total = [0] * K                                 # c_k^*
        for m, doc in enumerate(corpus.docword):
            for n, v in enumerate(doc):
                k = self.z[m][n]
                self.word_doc_topic[m][k] += 1
                self.topic_word[k][v] += 1
                self.topic_total[k] += 1
            for e, l in enumerate(corpus.links[m]):
                k = self.x[m][e]
                self.link_doc_topic[m][k] += 1
                self.topic_link[k][l] += 1
                self.link_total[k] += 1

    def word_conditional(self, m: int, v: int) -> list:
        """weight_k = (n_kv + b)/(n_k + V b) * (n_mk + c_mk + a), token excluded."""
        hyper = self.hyper
        K, V = hyper.n_topics, self.corpus.n_words
        v_beta = V * hyper.beta
        n_mk = self.word_doc_topic[m]
        c_mk = self.link_doc_topic[m]
        return [(self.topic_word[k][v] + hyper.beta) / (self.topic_total[k] + v_beta)
                * (n_mk[k] + c_mk[k] + hyper.alpha)
                for k in range(K)]

    def link_conditional(self, m: int, l: int) -> list:
        """weight_k = (c_kl + g)/(c_k + L g) * (c_mk + n_mk + a), link excluded."""
        hyper = self.hyper
        K = hyper.n_topics
        l_gamma = self.n_links * hyper.gamma
        n_mk = self.word_doc_topic[m]
        c_mk = self.link_doc_topic[m]
        return [(self.topic_link[k][l] + hyper.gamma) / (self.link_total[k] + l_gamma)
                * (c_mk[k] + n_mk[k] + hyper.alpha)
                for k in range(K)]

    def sweep(self) -> None:
        for m, doc in enumerate(self.corpus.docword):
            n_mk = self.word_doc_topic[m]
            c_mk = self.link_doc_topic[m]
            for n, v in enumerate(doc):
                k = self.z[m][n]
                n_mk[k] -= 1
                self.topic_word[k][v] -= 1
                self.topic_total[k] -= 1
                k = sample_categorical(self.word_conditional(m, v), self.rng)
                self.z[m][n] = k
                n_mk[k] += 1
                self.topic_word[k][v] += 1
                self.topic_total[k] += 1
            for e, l in enumerate(self.corpus.links[m]):
                k = self.x[m][e]
                c_mk[k] -= 1
                self.topic_link[k][l] -= 1
                self.link_total[k] -= 1
                k = sample_categorical(self.link_conditional(m, l), self.rng)
                self.x[m][e] = k
                c_mk[k] += 1
                self.topic_link[k][l] += 1
                self.link_total[k] += 1

    def estimate(self) -> LinkLdaFit:
        hyper = self.hyper
        K = hyper.n_topics
        theta = []
        for m in range(self.corpus.n_docs):
            pooled = [self.word_doc_topic[m][k] + self.link_doc_topic[m][k]
                      for k in range(K)]
            denom = sum(pooled) + K * hyper.alpha
            theta.append([(c + hyper.alpha) / denom for c in pooled])
        phi = smoothed_rows(self.topic_word, self.topic_total, hyper.beta)
        link_phi = smoothed_rows(self.topic_link, self.link_total, hyper.gamma)
        return LinkLdaFit(theta=theta, phi=phi, link_phi=link_phi)
