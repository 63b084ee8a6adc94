"""Short-text models.

PTM aggregates short documents into latent pseudo documents; the sweep
first re-assigns every short document to a pseudo document, then resamples
every token's topic against its pseudo document's counts.

BTM works on biterms: unordered word pairs co-occurring inside a sliding
window.  Each biterm carries two word slots, so the topic-word tables obey
sum_v n_kv = 2 n_k at all times.
"""

import logging
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .core import exp_normalize, log_rising_factorial, sample_categorical
from .corpus import Corpus
from .lda import smoothed_rows

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PtmHyper:
    n_pseudo_docs: int
    n_topics: int
    alpha: float = 0.1
    beta: float = 0.1
    doc_lambda: float = 0.01  # pseudo-document assignment smoothing
    iterations: int = 1000
    top_words: int = 10

    def __post_init__(self):
        if self.n_pseudo_docs < 1 or self.n_topics < 1:
            raise ValueError("n_pseudo_docs and n_topics must be >= 1")


@dataclass
class PtmFit:
    theta: list         # per short document, from its own token-topic counts
    pseudo_theta: list  # per pseudo document
    phi: list
    doc_pseudo: list    # final pseudo-document assignment per short document


class PtmSampler:
    """Collapsed Gibbs chain over (document -> pseudo document, token -> topic)."""

    def __init__(self, corpus: Corpus, hyper: PtmHyper, rng: random.Random):
        if corpus.n_docs == 0 or corpus.n_tokens == 0:
            raise ValueError("corpus is empty")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        P, K, V = hyper.n_pseudo_docs, hyper.n_topics, corpus.n_words
        self.l = [rng.randrange(P) for _ in range(corpus.n_docs)]
        self.z = [[rng.randrange(K) for _ in doc] for doc in corpus.docword]
        self.n_l = [0] * P             # short docs per pseudo doc
        self.pseudo_topic = [[0] * K for _ in range(P)]   # N_l^k
        self.pseudo_total = [0] * P    # N_l^*
        self.doc_topic = [[0] * K for _ in range(corpus.n_docs)]  # n_m^k
        self.topic_word = [[0] * V for _ in range(K)]
        self.topic_total = [0] * K
        for m, doc in enumerate(corpus.docword):
            l = self.l[m]
            self.n_l[l] += 1
            for n, v in enumerate(doc):
                k = self.z[m][n]
                self.pseudo_topic[l][k] += 1
                self.pseudo_total[l] += 1
                self.doc_topic[m][k] += 1
                self.topic_word[k][v] += 1
                self.topic_total[k] += 1

    def pseudo_doc_conditional(self, m: int) -> list:
        """Pseudo-document weights for document m, its contribution removed.

        weight_l = (n_l + lambda)/(M - 1 + P lambda)
                   * prod_k rising(N_lk + a, n_mk) / rising(N_l + K a, N_m)
        """
        hyper = self.hyper
        P, K = hyper.n_pseudo_docs, hyper.n_topics
        M = self.corpus.n_docs
        n_m = len(self.corpus.docword[m])
        doc_counts = [(k, c) for k, c in enumerate(self.doc_topic[m]) if c]
        log_denom = math.log(M - 1 + P * hyper.doc_lambda)
        k_alpha = K * hyper.alpha
        logs = []
        for l in range(P):
            lw = math.log(self.n_l[l] + hyper.doc_lambda) - log_denom
            row = self.pseudo_topic[l]
            for k, c in doc_counts:
                lw += log_rising_factorial(row[k] + hyper.alpha, c)
            lw -= log_rising_factorial(self.pseudo_total[l] + k_alpha, n_m)
            logs.append(lw)
        return exp_normalize(logs)

    def topic_conditional(self, m: int, v: int) -> list:
        """Topic weights for one token, excluded from its pseudo doc and word tables.

        weight_k = (N_lk + a)/(N_l + K a) * (n_kv + b)/(n_k + V b)
        """
        hyper = self.hyper
        K, V = hyper.n_topics, self.corpus.n_words
        l = self.l[m]
        row = self.pseudo_topic[l]
        denom = self.pseudo_total[l] + K * hyper.alpha
        v_beta = V * hyper.beta
        return [(row[k] + hyper.alpha) / denom
                * (self.topic_word[k][v] + hyper.beta) / (self.topic_total[k] + v_beta)
                for k in range(K)]

    def _move_doc(self, m: int, l_new: int) -> None:
        l_old = self.l[m]
        if l_new == l_old:
            return
        n_m = len(self.corpus.docword[m])
        for k, c in enumerate(self.doc_topic[m]):
            if c:
                self.pseudo_topic[l_old][k] -= c
                self.pseudo_topic[l_new][k] += c
        self.pseudo_total[l_old] -= n_m
        self.pseudo_total[l_new] += n_m
        self.n_l[l_old] -= 1
        self.n_l[l_new] += 1
        self.l[m] = l_new

    def sweep(self) -> None:
        hyper = self.hyper
        # phase 1: pseudo-document assignments
        for m in range(self.corpus.n_docs):
            l_old = self.l[m]
            n_m = len(self.corpus.docword[m])
            self.n_l[l_old] -= 1
            self.pseudo_total[l_old] -= n_m
            for k, c in enumerate(self.doc_topic[m]):
                if c:
                    self.pseudo_topic[l_old][k] -= c
            l_new = sample_categorical(self.pseudo_doc_conditional(m), self.rng)
            self.n_l[l_new] += 1
            self.pseudo_total[l_new] += n_m
            for k, c in enumerate(self.doc_topic[m]):
                if c:
                    self.pseudo_topic[l_new][k] += c
            self.l[m] = l_new
        # phase 2: token topics
        for m, doc in enumerate(self.corpus.docword):
            l = self.l[m]
            p_row = self.pseudo_topic[l]
            d_row = self.doc_topic[m]
            for n, v in enumerate(doc):
                k = self.z[m][n]
                p_row[k] -= 1
                self.pseudo_total[l] -= 1
                d_row[k] -= 1
                self.topic_word[k][v] -= 1
                self.topic_total[k] -= 1
                k = sample_categorical(self.topic_conditional(m, v), self.rng)
                self.z[m][n] = k
                p_row[k] += 1
                self.pseudo_total[l] += 1
                d_row[k] += 1
                self.topic_word[k][v] += 1
                self.topic_total[k] += 1

    def estimate(self) -> PtmFit:
        alpha, beta = self.hyper.alpha, self.hyper.beta
        doc_totals = [len(d) for d in self.corpus.docword]
        theta = smoothed_rows(self.doc_topic, doc_totals, alpha)
        pseudo_theta = smoothed_rows(self.pseudo_topic, self.pseudo_total, alpha)
        phi = smoothed_rows(self.topic_word, self.topic_total, beta)
        return PtmFit(theta=theta, pseudo_theta=pseudo_theta, phi=phi,
                      doc_pseudo=list(self.l))


def ptm_fit(corpus: Corpus, hyper: PtmHyper, rng: random.Random,
            sweep_callback: Callable[[PtmSampler, int], None] | None = None) -> PtmFit:
    sampler = PtmSampler(corpus, hyper, rng)
    for it in range(hyper.iterations):
        sampler.sweep()
        if sweep_callback is not None:
            sweep_callback(sampler, it)
    return sampler.estimate()


@dataclass(frozen=True)
class Biterm:
    """Unordered word pair from one document; w1 <= w2 after canonicalization."""
    w1: int
    w2: int
    doc: int
    count: int


def extract_biterms(corpus: Corpus, window: int) -> list:
    """All in-window unordered token pairs, aggregated per document.

    Positions i < j pair up when j - i < window; duplicate pairs within a
    document accumulate into one Biterm's count.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    biterms = []
    for m, doc in enumerate(corpus.docword):
        counts = {}
        for i in range(len(doc)):
            for j in range(i + 1, min(i + window, len(doc))):
                a, b = doc[i], doc[j]
                if a > b:
                    a, b = b, a
                key = (a, b)
                counts[key] = counts.get(key, 0) + 1
        for (a, b), c in counts.items():
            biterms.append(Biterm(a, b, m, c))
    return biterms


@dataclass(frozen=True)
class BtmHyper:
    n_topics: int
    alpha: float = 0.1
    beta: float = 0.01
    window: int = 5
    iterations: int = 1000
    top_words: int = 10

    def __post_init__(self):
        if self.n_topics < 1:
            raise ValueError("n_topics must be >= 1")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass
class BtmFit:
    theta: list      # global topic weights, sums to 1
    phi: list        # K x V
    doc_topic: list  # per-document p(k|m) rows


class BtmSampler:
    """Collapsed Gibbs chain over per-biterm topic assignments."""

    def __init__(self, corpus: Corpus, hyper: BtmHyper, rng: random.Random):
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        self.biterms = extract_biterms(corpus, hyper.window)
        # one chain item per biterm occurrence
        self.instances = [(b.w1, b.w2) for b in self.biterms for _ in range(b.count)]
        if not self.instances:
            raise ValueError("no document contains two words within the window")
        K, V = hyper.n_topics, corpus.n_words
        self.z = [rng.randrange(K) for _ in self.instances]
        self.n_b = [0] * K  # biterms per topic
        self.topic_word = [[0] * V for _ in range(K)]
        self.topic_total = [0] * K
        for (w1, w2), k in zip(self.instances, self.z):
            self.n_b[k] += 1
            self.topic_word[k][w1] += 1
            self.topic_word[k][w2] += 1
            self.topic_total[k] += 2

    @property
    def n_biterms(self) -> int:
        return len(self.instances)

    def full_conditional(self, w1: int, w2: int) -> list:
        """Topic weights for one biterm, its counts already removed.

        weight_k = (n_k + a)/(N_B - 1 + K a)
                   * (n_kw1 + b)(n_kw2 + b) / ((n_k* + V b + 1)(n_k* + V b))
        """
        hyper = self.hyper
        K, V = hyper.n_topics, self.corpus.n_words
        denom = self.n_biterms - 1 + K * hyper.alpha
        v_beta = V * hyper.beta
        out = []
        for k in range(K):
            tot = self.topic_total[k] + v_beta
            out.append((self.n_b[k] + hyper.alpha) / denom
                       * (self.topic_word[k][w1] + hyper.beta)
                       * (self.topic_word[k][w2] + hyper.beta)
                       / ((tot + 1) * tot))
        return out

    def sweep(self) -> None:
        for i, (w1, w2) in enumerate(self.instances):
            k = self.z[i]
            self.n_b[k] -= 1
            self.topic_word[k][w1] -= 1
            self.topic_word[k][w2] -= 1
            self.topic_total[k] -= 2
            k = sample_categorical(self.full_conditional(w1, w2), self.rng)
            self.z[i] = k
            self.n_b[k] += 1
            self.topic_word[k][w1] += 1
            self.topic_word[k][w2] += 1
            self.topic_total[k] += 2

    def estimate(self) -> BtmFit:
        hyper = self.hyper
        K = hyper.n_topics
        denom = self.n_biterms + K * hyper.alpha
        theta = [(n + hyper.alpha) / denom for n in self.n_b]
        phi = smoothed_rows(self.topic_word, self.topic_total, hyper.beta)
        by_doc = [[] for _ in range(self.corpus.n_docs)]
        for b in self.biterms:
            by_doc[b.doc].append(b)
        doc_topic = [self._doc_distribution(m, by_doc[m], theta, phi)
                     for m in range(self.corpus.n_docs)]
        return BtmFit(theta=theta, phi=phi, doc_topic=doc_topic)

    def _doc_distribution(self, m: int, doc_biterms: list, theta: list, phi: list) -> list:
        """p(k|m): biterm-posterior mixture over the document's biterms."""
        K = self.hyper.n_topics
        if not doc_biterms:
            log.warning("document %d has no biterms; emitting a uniform topic row", m)
            return [1.0 / K] * K
        n_m = sum(b.count for b in doc_biterms)
        out = [0.0] * K
        for b in doc_biterms:
            joint = [theta[k] * phi[k][b.w1] * phi[k][b.w2] for k in range(K)]
            total = sum(joint)
            for k in range(K):
                out[k] += joint[k] / total * b.count / n_m
        return out


def btm_fit(corpus: Corpus, hyper: BtmHyper, rng: random.Random,
            sweep_callback: Callable[[BtmSampler, int], None] | None = None) -> BtmFit:
    sampler = BtmSampler(corpus, hyper, rng)
    for it in range(hyper.iterations):
        sampler.sweep()
        if sweep_callback is not None:
            sweep_callback(sampler, it)
    return sampler.estimate()
