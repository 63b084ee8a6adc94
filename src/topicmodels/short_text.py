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
from itertools import accumulate, compress, repeat
from operator import add, mul

from .core import (LogRisingMemo, counts_from_assignments, exp_normalize, fold_sum,
                   log_unit_weights, record, require_at_least, require_positive, require_recount,
                   sample_categorical, shift_counts, warn)
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

    def topic_pseudo_index(self) -> list:
        """For every topic k, a dict from each pseudo document l holding it
        to N_lk: the index of the pseudo-document draw."""
        index = [{} for _ in range(self.hyper.n_topics)]
        for l, row in enumerate(self.pseudo.doc_topic):
            for k in compress(range(len(row)), row):
                index[k][l] = row[k]
        return index

    def pseudo_doc_conditional(self, m: int, index: list | None = None) -> list:
        """Pseudo-document weights for document m, its contribution removed,
        proportional to

        (n_l + lambda) * prod_k rising(N_lk + a, n_mk) / rising(N_l + K a, N_m)

        ``index`` is ``topic_pseudo_index()`` of the counts as they are now,
        built afresh if not given.
        """
        lam = self.hyper.doc_lambda
        items = [(k, c) for k, c in enumerate(self.doc_topic[m]) if c]
        return exp_normalize(log_unit_weights(
            list(map(math.log, map(add, self.n_l, repeat(lam)))),
            self.topic_pseudo_index() if index is None else index,
            self.pseudo.doc_total, items, len(self.corpus.docword[m]), self._topic_logs,
            self._total_logs))

    def sweep(self) -> None:
        hyper = self.hyper
        pseudo_topic = self.pseudo.doc_topic
        pseudo_total = self.pseudo.doc_total
        # phase 1: pseudo-document assignments, against an index of the rows
        # that phase 2 of the last sweep left
        index = self.topic_pseudo_index()
        for m in range(self.corpus.n_docs):
            l_old = self.l[m]
            n_m = len(self.corpus.docword[m])
            items = [(k, c) for k, c in enumerate(self.doc_topic[m]) if c]
            self.n_l[l_old] -= 1
            pseudo_total[l_old] -= n_m
            shift_counts(pseudo_topic[l_old], index, items, l_old, -1)
            l_new = sample_categorical(self.pseudo_doc_conditional(m, index), self.rng)
            self.n_l[l_new] += 1
            pseudo_total[l_new] += n_m
            shift_counts(pseudo_topic[l_new], index, items, l_new, 1)
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
        its full conditional split into three buckets.

        With the biterm (w1, w2) taken out, the weight of topic k is
        A_k (c1 + b)(c2 + b + s), with c1 and c2 = n_kw1 and n_kw2, s = 1 if
        w1 = w2 (the second slot sees the first) and s = 0 otherwise, and
          A_k = (n_k + a)/(N_B - 1 + K a) / ((n_k* + V b + 1)(n_k* + V b))
        (n_k biterms and n_k* word slots in topic k) does not depend on the
        biterm.  It is split as
          first word   A_k c1 (c2 + s + b)  the topics holding w1
          second word  b A_k c2             the topics holding w2
          smoothing    b (b + s) A_k        every topic
        and the buckets are walked in that order, the first two over the
        word index (a biterm of one word twice reads one dict twice).  The
        smoothing bucket is a running total of A, summed afresh at the start
        of each sweep, and a draw landing there is found by bisect over the
        running sums of A.

        The biterm's own topic is weighed with the biterm taken out, in
        place: A_k and both index values (a value of 0 stays in the dict and
        weighs 0).  The tables move only when the draw picks another topic,
        and A_k with one biterm taken out is cached for every topic.
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
        # A_k with one biterm of topic k taken out; 0.0 where n_k = 0
        A_out = [(n - 1 + alpha) / denom / ((t - 2 + v_beta + 1) * (t - 2 + v_beta)) if n else 0.0
                 for n, t in zip(n_b, topic_total)]
        a_sum = fold_sum(A)
        for i, (w1, w2) in enumerate(self.instances):
            k0 = z[i]
            wt1 = word_topics[w1]
            wt2 = word_topics[w2]
            old = A[k0]
            x0 = A[k0] = A_out[k0]
            wt1[k0] -= 1
            wt2[k0] -= 1

            s = w1 == w2
            sb = s + beta
            q1 = 0.0
            for k, c in wt1.items():
                q1 += A[k] * c * (wt2.get(k, 0) + sb)
            q2 = 0.0
            for k, c in wt2.items():
                q2 += A[k] * c
            u = rng_random() * (q1 + beta * (q2 + sb * (a_sum + (x0 - old))))
            if u < q1:
                for k, c in wt1.items():
                    u -= A[k] * c * (wt2.get(k, 0) + sb)
                    if u < 0.0:
                        break
                else:  # round-off past the end: the last topic with weight
                    k = [j for j, c in wt1.items() if c][-1]
            else:
                u = (u - q1) / beta
                if u < q2:
                    for k, c in wt2.items():
                        u -= A[k] * c
                        if u < 0.0:
                            break
                    else:
                        k = [j for j, c in wt2.items() if c][-1]
                else:
                    k = min(bisect_right(list(accumulate(A)), (u - q2) / sb), K - 1)

            if k == k0:
                A[k0] = old
                wt1[k0] += 1
                wt2[k0] += 1
                continue
            # the topic moves: take the biterm out of k0's tables, into k's
            a_sum += x0 - old
            row = topic_word[k0]
            row[w1] -= 1
            row[w2] -= 1
            n = n_b[k0] = n_b[k0] - 1
            t = topic_total[k0] = topic_total[k0] - 2
            tot = t - 2 + v_beta
            A_out[k0] = (n - 1 + alpha) / denom / ((tot + 1) * tot) if n else 0.0
            if not wt1[k0]:
                del wt1[k0]
            if wt2.get(k0) == 0:
                del wt2[k0]

            z[i] = k
            row = topic_word[k]
            row[w1] += 1
            row[w2] += 1
            wt1[k] = wt1.get(k, 0) + 1
            wt2[k] = wt2.get(k, 0) + 1
            n = n_b[k] = n_b[k] + 1
            t = topic_total[k] = topic_total[k] + 2
            tot = t + v_beta
            x = (n + alpha) / denom / ((tot + 1) * tot)
            a_sum += x - A[k]
            A_out[k] = A[k]
            A[k] = x

    def estimate(self) -> BtmFit:
        """theta, phi and each document's p(k|m), the mixture of p(k | b)
        over its biterms weighted by their counts."""
        hyper = self.hyper
        K = hyper.n_topics
        denom = self.n_biterms + K * hyper.alpha
        theta = [(n + hyper.alpha) / denom for n in self.n_b]
        phi = smoothed_rows(self.topic_word, self.topic_total, hyper.beta)
        by_doc = [[] for _ in range(self.corpus.n_docs)]
        for b in self.biterms:
            by_doc[b.doc].append(b)
        # phi read by word: p(k | b) of a biterm takes two columns, not a
        # cell from each of K rows
        columns = [array("d", column) for column in zip(*phi)]
        doc_topic = []
        for m, doc_biterms in enumerate(by_doc):
            if not doc_biterms:
                warn(__name__, "document %d has no biterms; emitting a uniform topic row", m)
                doc_topic.append(array("d", [1.0 / K]) * K)
                continue
            n_m = sum(b.count for b in doc_biterms)
            out = [0.0] * K
            for b in doc_biterms:
                joint = list(map(mul, map(mul, theta, columns[b.w1]), columns[b.w2]))
                total = fold_sum(joint)
                c = b.count
                out = [o + x / total * c / n_m for o, x in zip(out, joint)]
            doc_topic.append(array("d", out))
        return BtmFit(theta=theta, phi=phi, doc_topic=doc_topic)
