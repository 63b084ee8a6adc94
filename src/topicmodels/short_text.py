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

from .core import (LogRisingMemo, counts_from_assignments, exp_normalize, fold_sum,
                   log_unit_weights, record, require_at_least, require_positive, require_recount,
                   sample_categorical, warn)
from .corpus import Corpus
from .lda import estimate_phi, estimate_theta, smoothed_rows, sweep_sparse_tokens, word_topic_index


def _topic_counts(z: list, n_topics: int) -> list:
    """Per document, its tokens in each topic."""
    return [[zm.count(k) for k in range(n_topics)] for zm in z]


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
    the tokens of short document m in topic k.  The token step is the
    SparseLDA draw of ``lda.sweep_sparse_tokens`` against each document's
    pseudo-document row, with its word index ``word_topics``.
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
                "doc_topic": _topic_counts(self.z, K),
                "word_topics": word_topic_index(docword, self.z, self.corpus.n_words)}

    def check(self) -> None:
        """Check every table against a recount of l and z; raises ValueError."""
        require_recount(self, self._counts(), "l and z")

    def pseudo_doc_conditional(self, m: int) -> list:
        """Pseudo-document weights for document m, its contribution removed,
        proportional to

        (n_l + lambda) * prod_k rising(N_lk + a, n_mk) / rising(N_l + K a, N_m)
        """
        lam = self.hyper.doc_lambda
        items = [(k, c) for k, c in enumerate(self.doc_topic[m]) if c]
        return exp_normalize(log_unit_weights(
            [math.log(n + lam) for n in self.n_l], self.pseudo.doc_topic, self.pseudo.doc_total,
            items, len(self.corpus.docword[m]), self._topic_logs, self._total_logs))

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
        # phase 2: token topics, each drawn against its pseudo document's row
        sweep_sparse_tokens(self.corpus.docword, self.z, [pseudo_topic[l] for l in self.l],
                            [range(hyper.n_topics)] * len(self.l), self.pseudo.topic_word,
                            self.pseudo.topic_total, self.word_topics, hyper.alpha, hyper.beta,
                            self.rng)
        self.doc_topic = _topic_counts(self.z, hyper.n_topics)

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
        and topic_total (counted as one document of all the slots) and in
        their word index, word_topics."""
        K = self.hyper.n_topics
        words = [[w for pair in self.instances for w in pair]]
        topics = [[k for k in self.z for _ in range(2)]]
        slots = counts_from_assignments(words, topics, K, self.corpus.n_words)
        return {"n_b": [self.z.count(k) for k in range(K)], "topic_word": slots.topic_word,
                "topic_total": slots.topic_total,
                "word_topics": word_topic_index(words, topics, self.corpus.n_words)}

    def check(self) -> None:
        """Check the tables against a recount of z; raises ValueError."""
        require_recount(self, self._counts(), "z")

    def sweep(self) -> None:
        """Resample every biterm's topic once, in index order, drawing from
        its full conditional split into two buckets.

        With the biterm (w1, w2) removed, the weight of topic k is
        A_k (c1 + b)(c2 + b + s), with c1 and c2 = n_kw1 and n_kw2, s = 1 if
        w1 = w2 (the second slot sees the first) and s = 0 otherwise, and
          A_k = (n_k + a)/(N_B - 1 + K a) / ((n_k* + V b + 1)(n_k* + V b))
        (n_k biterms and n_k* word slots in topic k) does not depend on the
        biterm.  It is split as
          smoothing  A_k b (b + s)                    every topic
          word       A_k (c1 (c2 + s) + b (c1 + c2))  the topics holding w1 or w2
        The word bucket is walked first, over the word index: the topics of
        w1, then those of w2 that w1 lacks (a biterm of one word twice reads
        one dict, so c1 = c2).  The smoothing bucket is b (b + s) times a
        running total of A, summed afresh at the start of each sweep, and a
        draw landing there is found by bisect over the running sums of A.
        """
        hyper = self.hyper
        K = hyper.n_topics
        alpha, beta = hyper.alpha, hyper.beta
        denom = self.n_biterms - 1 + K * alpha
        v_beta = self.corpus.n_words * beta
        n_b = self.n_b
        topic_word = self.topic_word
        topic_total = self.topic_total
        word_topics = self.word_topics
        z = self.z
        rng_random = self.rng.random
        A = [(n + alpha) / denom / ((t + v_beta + 1) * (t + v_beta))
             for n, t in zip(n_b, topic_total)]
        a_sum = fold_sum(A)
        for i, (w1, w2) in enumerate(self.instances):
            k = z[i]
            row = topic_word[k]
            row[w1] -= 1
            row[w2] -= 1
            wt1 = word_topics[w1]
            wt2 = word_topics[w2]
            left = wt1[k] - 1
            if left:
                wt1[k] = left
            else:
                del wt1[k]
            left = wt2[k] - 1
            if left:
                wt2[k] = left
            else:
                del wt2[k]
            n = n_b[k] - 1
            n_b[k] = n
            t = topic_total[k] - 2
            topic_total[k] = t
            tot = t + v_beta
            x = (n + alpha) / denom / ((tot + 1) * tot)
            a_sum += x - A[k]
            A[k] = x

            s = 1 if w1 == w2 else 0
            smooth = beta * (beta + s)
            q = 0.0
            for k, c in wt1.items():
                c2 = wt2.get(k, 0)
                q += A[k] * (c * (c2 + s) + beta * (c + c2))
            for k, c in wt2.items():
                if k not in wt1:
                    q += A[k] * beta * c
            u = rng_random() * (q + smooth * a_sum)
            if u < q:
                # the same walk; round-off past its end leaves k at a topic
                # holding w2 (or w1)
                for k, c in wt1.items():
                    c2 = wt2.get(k, 0)
                    u -= A[k] * (c * (c2 + s) + beta * (c + c2))
                    if u < 0.0:
                        break
                else:
                    for k, c in wt2.items():
                        if k not in wt1:
                            u -= A[k] * beta * c
                            if u < 0.0:
                                break
            else:
                k = min(bisect_right(list(accumulate(A)), (u - q) / smooth), K - 1)

            z[i] = k
            row = topic_word[k]
            row[w1] += 1
            row[w2] += 1
            wt1[k] = wt1.get(k, 0) + 1
            wt2[k] = wt2.get(k, 0) + 1
            n = n_b[k] + 1
            n_b[k] = n
            t = topic_total[k] + 2
            topic_total[k] = t
            tot = t + v_beta
            x = (n + alpha) / denom / ((tot + 1) * tot)
            a_sum += x - A[k]
            A[k] = x

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
