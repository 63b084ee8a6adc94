"""Short-text models.

PTM aggregates short documents into latent pseudo documents; the sweep
first re-assigns every short document to a pseudo document, then resamples
every token's topic against its pseudo document's counts.  The first step is
the DMM document draw (``mixture.ClusterTables``) with pseudo documents as
the clusters and each document's token topics as its words.

BTM works on biterms: unordered word pairs co-occurring inside a sliding
window.  Each biterm carries two word slots, so the topic-word counts obey
sum_v n_kv = 2 n_k at all times.
"""

import random
from array import array
from bisect import bisect_right
from itertools import accumulate
from operator import mul

from .core import (counts_from_assignments, draw_below, draw_each, fold_sum, index_rows,
                   record, require_at_least, require_positive, require_recount, warn)
from .corpus import Corpus
from .lda import LdaHyper, index_phi, smoothed_rows, sweep_sparse_tokens
from .mixture import ClusterTables


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

    The pseudo-document step is the DMM document draw with pseudo documents
    as the clusters and topics as the words: ``tables`` is a
    ``mixture.ClusterTables`` over the documents' token topics z (K items,
    b = alpha, prior lambda), so tables.n_docs_in[l] counts short documents,
    cluster_total[l] is N_l^* and word_clusters the topic -> {pseudo
    document: N_l^k} index.  topic_total is n_k, and the word index
    ``word_topics`` (v -> {k: n_kv}) alone holds n_kv.  The token step is
    the SparseLDA draw of ``lda.sweep_sparse_tokens`` against each
    document's pseudo-document row; the rows N_l^k are built from the
    cluster index once a sweep, for that step, and once for ``pseudo_theta``.
    """

    def __init__(self, corpus: Corpus, hyper: PtmHyper, rng: random.Random):
        corpus.require()
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        self.l = draw_below(rng, hyper.n_pseudo_docs, corpus.n_docs)
        self.z = draw_each(rng, hyper.n_topics, corpus.docword)
        vars(self).update(self._counts())

    def _counts(self) -> dict:
        """The count tables of l and z, by attribute name.  ``tables`` holds
        z itself, so whatever rebinds z rebinds the tables with it."""
        h = self.hyper
        return {"tables": ClusterTables(self.z, h.n_topics, h.alpha, self.l, h.n_pseudo_docs),
                **self._token_counts()}

    def _token_counts(self) -> dict:
        """The topic totals of z and their word index, by attribute name."""
        tokens, index = counts_from_assignments(self.corpus.docword, self.z, self.hyper.n_topics,
                                                self.corpus.n_words)
        return {"topic_total": tokens.topic_total, "word_topics": index}

    def check(self) -> None:
        """Check every table against a recount of l and z; raises ValueError."""
        self.tables.check(self.l, "l and z")
        require_recount(self, self._token_counts(), "z")

    def sweep(self) -> None:
        hyper, tables = self.hyper, self.tables
        # phase 1: pseudo-document assignments, the DMM document draw
        tables.resample(self.l, hyper.doc_lambda, self.rng)
        # phase 2: token topics, each drawn against its pseudo document's row
        pseudo = index_rows(tables.word_clusters, tables.n_clusters)
        sweep_sparse_tokens(self.corpus.docword, self.z, [pseudo[l] for l in self.l],
                            [range(hyper.n_topics)] * len(self.l), self.topic_total,
                            self.word_topics, hyper.alpha, hyper.beta, self.rng)
        # the token step moved the topics in the units: recount the tables
        vars(tables).update(tables.counts(self.l, hyper.n_pseudo_docs))

    def estimate(self) -> PtmFit:
        alpha, beta = self.hyper.alpha, self.hyper.beta
        tables = self.tables
        doc_counts = [[zm.count(k) for k in range(self.hyper.n_topics)] for zm in self.z]
        return PtmFit(theta=smoothed_rows(doc_counts, tables.unit_len, alpha),
                      pseudo_theta=smoothed_rows(index_rows(tables.word_clusters,
                                                            tables.n_clusters),
                                                 tables.cluster_total, alpha),
                      phi=index_phi(self.word_topics, self.topic_total, beta),
                      doc_pseudo=list(self.l))


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
class BtmHyper(LdaHyper):
    window: int = 5

    def __post_init__(self):
        super().__post_init__()
        require_at_least({"window": self.window}, 2)


@record
class BtmFit:
    theta: list      # global topic weights, sums to 1
    phi: list        # K rows of array('d') over V words
    doc_topic: list  # per document, an array('d') row of p(k|m)


class BtmSampler:
    """Collapsed Gibbs chain over per-biterm topic assignments."""

    def __init__(self, corpus: Corpus, hyper: BtmHyper, rng: random.Random):
        corpus.require()
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        self.biterms = extract_biterms(corpus, hyper.window)
        # one chain item per biterm occurrence
        self.instances = [(b.w1, b.w2) for b in self.biterms for _ in range(b.count)]
        if not self.instances:
            raise ValueError("no document contains two words within the window")
        self.z = draw_below(rng, hyper.n_topics, len(self.instances))
        vars(self).update(self._counts())

    @property
    def n_biterms(self) -> int:
        return len(self.instances)

    def _counts(self) -> dict:
        """The count tables of the biterm topics z, by attribute name: n_b[k]
        biterms per topic, and both word slots of every biterm in
        topic_total and in the word index word_topics (topic -> n_kv for the
        topics holding word v), counted as one document of all the slots."""
        K = self.hyper.n_topics
        words = [[w for pair in self.instances for w in pair]]
        topics = [[k for k in self.z for _ in range(2)]]
        slots, index = counts_from_assignments(words, topics, K, self.corpus.n_words)
        return {"n_b": [self.z.count(k) for k in range(K)], "topic_total": slots.topic_total,
                "word_topics": index}

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

        Where both words' index dicts hold the biterm's own topic k0 alone,
        the two word buckets are one product each, from c2 = n_k0w2 - 1 - s
        and c1 = c2 if s else n_k0w1 - 1, and a draw that lands in either
        keeps k0 before anything is taken out: it walks no dict and writes
        nothing.  A draw past them takes the biterm out in place and bisects
        the smoothing bucket with the same u.  Every float is the one the
        general walk computes, so the draws are the same.
        """
        hyper = self.hyper
        K = hyper.n_topics
        alpha, beta = hyper.alpha, hyper.beta
        denom = self.n_biterms - 1 + K * alpha
        v_beta = self.corpus.n_words * beta
        n_b = self.n_b
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
            x0 = A_out[k0]
            s = w1 == w2
            sb = s + beta
            if len(wt1) == 1 == len(wt2):  # both words hold k0 alone
                c2 = wt2[k0] - 1 - s
                c1 = c2 if s else wt1[k0] - 1
                q1 = x0 * c1 * (c2 + sb)
                q2 = x0 * c2
                u = rng_random() * (q1 + beta * (q2 + sb * (a_sum + (x0 - old))))
                if u < q1 or (u - q1) / beta < q2:  # kept, and nothing was taken out
                    continue
                A[k0] = x0
                wt1[k0] = c1
                wt2[k0] = c2
            else:
                A[k0] = x0
                wt1[k0] -= 1
                wt2[k0] -= 1
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
            n = n_b[k0] = n_b[k0] - 1
            t = topic_total[k0] = topic_total[k0] - 2
            tot = t - 2 + v_beta
            A_out[k0] = (n - 1 + alpha) / denom / ((tot + 1) * tot) if n else 0.0
            if not wt1[k0]:
                del wt1[k0]
            if wt2.get(k0) == 0:
                del wt2[k0]

            z[i] = k
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
        phi = index_phi(self.word_topics, self.topic_total, hyper.beta)
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
