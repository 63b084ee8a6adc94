"""Short-text models.

PTM aggregates short documents into latent pseudo documents; the sweep
first re-assigns every short document to a pseudo document, then resamples
every token's topic against its pseudo document's counts.

BTM works on biterms: unordered word pairs co-occurring inside a sliding
window.  Each biterm carries two word slots, so the topic-word tables obey
sum_v n_kv = 2 n_k at all times.
"""

import math
import random
from array import array
from bisect import bisect_right
from itertools import accumulate

from .core import (LogRisingMemo, counts_from_assignments, exp_normalize, fold_sum, record,
                   require_at_least, require_positive, require_recount, sample_categorical, warn)
from .corpus import Corpus
from .lda import estimate_phi, estimate_theta, smoothed_rows


@record(frozen=True)
class PtmHyper:
    n_pseudo_docs: int
    n_topics: int
    alpha: float = 0.1
    beta: float = 0.1
    doc_lambda: float = 0.01  # pseudo-document assignment smoothing

    def __post_init__(self):
        require_at_least({"n_pseudo_docs": self.n_pseudo_docs, "n_topics": self.n_topics})
        require_positive({"alpha": self.alpha, "beta": self.beta, "lambda": self.doc_lambda})


@record
class PtmFit:
    theta: list         # per short document, an array('d') row from its own topic counts
    pseudo_theta: list  # per pseudo document, an array('d') row
    phi: list           # K rows of array('d') over V words
    doc_pseudo: list    # final pseudo-document assignment per short document


class PtmSampler:
    """Collapsed Gibbs chain over (document -> pseudo document, token -> topic).

    ``pseudo`` counts tokens by pseudo document: doc_topic[l][k] is N_l^k,
    doc_total[l] is N_l^*, and topic_word and topic_total are n_k^v and n_k.
    ``n_l`` counts short documents per pseudo document and ``doc_topic[m][k]``
    the tokens of short document m in topic k.
    """

    def __init__(self, corpus: Corpus, hyper: PtmHyper, rng: random.Random):
        if corpus.n_docs == 0 or corpus.n_tokens == 0:
            raise ValueError("corpus is empty")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        P, K = hyper.n_pseudo_docs, hyper.n_topics
        self.l = [rng.randrange(P) for _ in range(corpus.n_docs)]
        self.z = [[rng.randrange(K) for _ in doc] for doc in corpus.docword]
        vars(self).update(self._counts())
        # rising factorials of N_lk + a and of N_l + K a
        self._topic_logs = LogRisingMemo(hyper.alpha)
        self._total_logs = LogRisingMemo(K * hyper.alpha)

    def _counts(self) -> dict:
        """The count tables of l and z, by attribute name."""
        P, K = self.hyper.n_pseudo_docs, self.hyper.n_topics
        docword = self.corpus.docword
        rows = [[l] * len(doc) for l, doc in zip(self.l, docword)]
        return {"n_l": [self.l.count(l) for l in range(P)],
                "pseudo": counts_from_assignments(docword, self.z, K, self.corpus.n_words,
                                                  rows=rows, n_rows=P),
                "doc_topic": [[zm.count(k) for k in range(K)] for zm in self.z]}

    def check(self) -> None:
        """Check every table against a recount of l and z; raises ValueError."""
        require_recount(self, self._counts(), "l and z")

    def pseudo_doc_conditional(self, m: int) -> list:
        """Pseudo-document weights for document m, its contribution removed.

        weight_l = (n_l + lambda)/(M - 1 + P lambda)
                   * prod_k rising(N_lk + a, n_mk) / rising(N_l + K a, N_m)
        """
        hyper = self.hyper
        P = hyper.n_pseudo_docs
        M = self.corpus.n_docs
        n_m = len(self.corpus.docword[m])
        doc_counts = [(k, c) for k, c in enumerate(self.doc_topic[m]) if c]
        log_denom = math.log(M - 1 + P * hyper.doc_lambda)
        alpha = hyper.alpha
        log = math.log
        topic_logs = self._topic_logs
        total_logs = self._total_logs
        pseudo_topic = self.pseudo.doc_topic
        # one pass over the P pseudo documents per factor, each adding its
        # term in the order of the formula
        logs = [log(n + hyper.doc_lambda) - log_denom for n in self.n_l]
        for k, c in doc_counts:
            if c == 1:
                logs = [lw + log(row[k] + alpha) for lw, row in zip(logs, pseudo_topic)]
            else:
                logs = [lw + topic_logs[row[k], c] for lw, row in zip(logs, pseudo_topic)]
        return exp_normalize([lw - total_logs[t, n_m]
                              for lw, t in zip(logs, self.pseudo.doc_total)])

    def topic_conditional(self, m: int, v: int) -> list:
        """Topic weights for one token, excluded from its pseudo doc and word tables.

        weight_k = (N_lk + a)/(N_l + K a) * (n_kv + b)/(n_k + V b)
        """
        hyper = self.hyper
        pseudo = self.pseudo
        K, V = hyper.n_topics, self.corpus.n_words
        l = self.l[m]
        row = pseudo.doc_topic[l]
        denom = pseudo.doc_total[l] + K * hyper.alpha
        v_beta = V * hyper.beta
        return [(row[k] + hyper.alpha) / denom
                * (pseudo.topic_word[k][v] + hyper.beta) / (pseudo.topic_total[k] + v_beta)
                for k in range(K)]

    def sweep(self) -> None:
        hyper = self.hyper
        pseudo_topic = self.pseudo.doc_topic
        pseudo_total = self.pseudo.doc_total
        # phase 1: pseudo-document assignments
        for m in range(self.corpus.n_docs):
            l_old = self.l[m]
            n_m = len(self.corpus.docword[m])
            self.n_l[l_old] -= 1
            pseudo_total[l_old] -= n_m
            for k, c in enumerate(self.doc_topic[m]):
                if c:
                    pseudo_topic[l_old][k] -= c
            l_new = sample_categorical(self.pseudo_doc_conditional(m), self.rng)
            self.n_l[l_new] += 1
            pseudo_total[l_new] += n_m
            for k, c in enumerate(self.doc_topic[m]):
                if c:
                    pseudo_topic[l_new][k] += c
            self.l[m] = l_new
        # phase 2: token topics, drawing from topic_conditional inline
        K = hyper.n_topics
        alpha, beta = hyper.alpha, hyper.beta
        k_alpha = K * alpha
        v_beta = self.corpus.n_words * beta
        topic_word = self.pseudo.topic_word
        topic_total = self.pseudo.topic_total
        rng_random = self.rng.random
        for m, doc in enumerate(self.corpus.docword):
            l = self.l[m]
            p_row = pseudo_topic[l]
            d_row = self.doc_topic[m]
            zm = self.z[m]
            # N_l with the current token excluded is the same for every token
            denom = pseudo_total[l] - 1 + k_alpha
            for n, v in enumerate(doc):
                k = zm[n]
                p_row[k] -= 1
                d_row[k] -= 1
                topic_word[k][v] -= 1
                topic_total[k] -= 1
                # the weights are positive, so a draw past the last running
                # sum (round-off) takes K - 1, as sample_categorical would
                cumulative = list(accumulate(
                    [(p + alpha) / denom * (row[v] + beta) / (t + v_beta)
                     for p, row, t in zip(p_row, topic_word, topic_total)]))
                k = bisect_right(cumulative, rng_random() * cumulative[-1])
                if k == K:
                    k = K - 1
                zm[n] = k
                p_row[k] += 1
                d_row[k] += 1
                topic_word[k][v] += 1
                topic_total[k] += 1

    def estimate(self) -> PtmFit:
        alpha, beta = self.hyper.alpha, self.hyper.beta
        doc_totals = [len(d) for d in self.corpus.docword]
        return PtmFit(theta=smoothed_rows(self.doc_topic, doc_totals, alpha),
                      pseudo_theta=estimate_theta(self.pseudo, alpha),
                      phi=estimate_phi(self.pseudo, beta), doc_pseudo=list(self.l))


@record(frozen=True)
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


@record(frozen=True)
class BtmHyper:
    n_topics: int
    alpha: float = 0.1
    beta: float = 0.01
    window: int = 5

    def __post_init__(self):
        require_at_least({"n_topics": self.n_topics})
        require_positive({"alpha": self.alpha, "beta": self.beta})
        require_at_least({"window": self.window}, 2)


@record
class BtmFit:
    theta: list      # global topic weights, sums to 1
    phi: list        # K rows of array('d') over V words
    doc_topic: list  # per document, an array('d') row of p(k|m)


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
        self.z = [rng.randrange(hyper.n_topics) for _ in self.instances]
        vars(self).update(self._counts())

    @property
    def n_biterms(self) -> int:
        return len(self.instances)

    def _counts(self) -> dict:
        """The count tables of the biterm topics z, by attribute name: n_b[k]
        biterms per topic, and both word slots of every biterm in topic_word
        and topic_total (counted as one document of all the slots)."""
        K = self.hyper.n_topics
        slots = counts_from_assignments([[w for pair in self.instances for w in pair]],
                                        [[k for k in self.z for _ in range(2)]],
                                        K, self.corpus.n_words)
        return {"n_b": [self.z.count(k) for k in range(K)], "topic_word": slots.topic_word,
                "topic_total": slots.topic_total}

    def check(self) -> None:
        """Check the tables against a recount of z; raises ValueError."""
        require_recount(self, self._counts(), "z")

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
        """Resample every biterm's topic, drawing from full_conditional inline.

        The two biterm-independent factors of each weight are kept per topic,
        in the order full_conditional multiplies them, and only the topics a
        draw touches are refreshed:
          prior[k] = (n_k + a)/(N_B - 1 + K a)
          norms[k] = (n_k* + V b + 1)(n_k* + V b)
        """
        hyper = self.hyper
        K = hyper.n_topics
        alpha, beta = hyper.alpha, hyper.beta
        denom = self.n_biterms - 1 + K * alpha
        v_beta = self.corpus.n_words * beta
        n_b = self.n_b
        topic_word = self.topic_word
        topic_total = self.topic_total
        z = self.z
        rng_random = self.rng.random
        prior = [(n + alpha) / denom for n in n_b]
        norms = [(t + v_beta + 1) * (t + v_beta) for t in topic_total]
        for i, (w1, w2) in enumerate(self.instances):
            k = z[i]
            row = topic_word[k]
            row[w1] -= 1
            row[w2] -= 1
            n = n_b[k] - 1
            n_b[k] = n
            prior[k] = (n + alpha) / denom
            t = topic_total[k] - 2
            topic_total[k] = t
            tot = t + v_beta
            norms[k] = (tot + 1) * tot
            # the weights are positive, so a draw past the last running sum
            # (round-off) takes K - 1, as sample_categorical would
            cumulative = list(accumulate(
                [a * (row[w1] + beta) * (row[w2] + beta) / d
                 for a, row, d in zip(prior, topic_word, norms)]))
            k = bisect_right(cumulative, rng_random() * cumulative[-1])
            if k == K:
                k = K - 1
            z[i] = k
            row = topic_word[k]
            row[w1] += 1
            row[w2] += 1
            n = n_b[k] + 1
            n_b[k] = n
            prior[k] = (n + alpha) / denom
            t = topic_total[k] + 2
            topic_total[k] = t
            tot = t + v_beta
            norms[k] = (tot + 1) * tot

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

    def _doc_distribution(self, m: int, doc_biterms: list, theta: list, phi: list) -> array:
        """p(k|m): biterm-posterior mixture over the document's biterms."""
        K = self.hyper.n_topics
        if not doc_biterms:
            warn(__name__, "document %d has no biterms; emitting a uniform topic row", m)
            return array("d", [1.0 / K]) * K
        n_m = sum(b.count for b in doc_biterms)
        out = [0.0] * K
        for b in doc_biterms:
            joint = [theta[k] * phi[k][b.w1] * phi[k][b.w2] for k in range(K)]
            total = fold_sum(joint)
            for k in range(K):
                out[k] += joint[k] / total * b.count / n_m
        return array("d", out)
