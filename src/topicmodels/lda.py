"""Latent Dirichlet allocation, fitted by collapsed Gibbs sampling or by
zero-order collapsed variational Bayes (CVB0).

The Gibbs sampler also runs LDA with a set of allowed topics per document:
Labeled LDA and PLDA are that chain, with the sets built from the labels
(see ``supervised``).

Count-table notation (mirrored across the whole package):
  n_mk  tokens of document m assigned to topic k
  n_kv  tokens of word v assigned to topic k
  n_k   tokens assigned to topic k
  n_m   tokens of document m
CVB0 replaces the integer counts with their variational expectations and the
hard assignment z with a per-token responsibility vector.
"""

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Callable

from .core import (CountTables, SamplingError, counts_from_assignments, expected_counts, record,
                   require_at_least, require_positive, require_recount, run_chain)
from .corpus import Corpus

# Topic count from which the Gibbs sampler uses the SparseLDA bucketed token
# kernel instead of the dense O(K) loop.  Below it the dense loop is faster
# in pure Python; the measured crossover is in CHANGES.md.
SPARSE_MIN_TOPICS = 12

# The CVB0 sweeps move expected counts by differences, so the tables drift
# from a recount of the responsibilities by round-off; check() allows this
# much per token of the corpus.
EXPECTED_TOLERANCE = 1e-9


@record(frozen=True)
class LdaHyper:
    n_topics: int
    alpha: float = 0.1
    beta: float = 0.01
    iterations: int = 1000

    def __post_init__(self):
        require_at_least({"n_topics": self.n_topics, "iterations": self.iterations})
        require_positive({"alpha": self.alpha, "beta": self.beta})


@record
class FittedLda:
    theta: list  # M x K, rows sum to 1
    phi: list    # K x V, rows sum to 1
    topic_labels: list | None = None  # a name per topic, where topics stand for labels


def smoothed_rows(counts, totals, smooth: float) -> list:
    """Rows of (count + smooth) / (total + dim * smooth); each row is stochastic."""
    out = []
    for row, total in zip(counts, totals):
        denom = total + len(row) * smooth
        out.append([(c + smooth) / denom for c in row])
    return out


def estimate_theta(tables: CountTables, alpha: float) -> list:
    return smoothed_rows(tables.doc_topic, tables.doc_total, alpha)


def estimate_phi(tables: CountTables, beta: float) -> list:
    return smoothed_rows(tables.topic_word, tables.topic_total, beta)


def gibbs_full_conditional(tables: CountTables, m: int, v: int,
                           alpha: float, beta: float) -> list:
    """Unnormalized topic weights for one token, counts already excluded.

    weight_k = (n_mk + alpha)/(n_m + K alpha) * (n_kv + beta)/(n_k + V beta)
    """
    K = tables.n_topics
    V = tables.n_words
    n_m = tables.doc_total[m]
    doc_denom = n_m + K * alpha
    n_mk = tables.doc_topic[m]
    vbeta = V * beta
    return [(n_mk[k] + alpha) / doc_denom
            * (tables.topic_word[k][v] + beta) / (tables.topic_total[k] + vbeta)
            for k in range(K)]


class LdaGibbsSampler:
    """Owns the assignment vector z and its count tables for one chain.

    ``allowed[m]``, if given, lists the topic ids document m may use: its
    tokens start on a uniform draw from that list and are only resampled
    within it, and a document with a single allowed topic is never
    resampled.  ``None`` lets every document use all K topics.
    ``topic_labels`` names the topics in the estimate.

    An unrestricted chain with at least ``SPARSE_MIN_TOPICS`` topics runs the
    SparseLDA kernel, which also keeps ``word_topics``: for every word, a
    dict from each topic holding it to n_kv.  ``tables`` stays the source of
    truth.
    """

    def __init__(self, corpus: Corpus, hyper: LdaHyper, rng: random.Random,
                 allowed: list | None = None, topic_labels: list | None = None):
        if corpus.n_docs == 0 or corpus.n_tokens == 0:
            raise ValueError("corpus is empty")
        if allowed is not None and (len(allowed) != corpus.n_docs or not all(allowed)):
            raise ValueError("allowed needs a nonempty topic list for every document")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        self.topic_labels = topic_labels
        K = hyper.n_topics
        if allowed is None:
            self.z = [[rng.randrange(K) for _ in doc] for doc in corpus.docword]
        else:
            self.z = [[rng.choice(topics) for _ in doc]
                      for topics, doc in zip(allowed, corpus.docword)]
        # the sweep walks each document's topics in id order
        self.allowed = None if allowed is None else [sorted(set(ks)) for ks in allowed]
        vars(self).update(self._counts(allowed is None and K >= SPARSE_MIN_TOPICS))

    def full_conditional(self, m: int, v: int) -> list:
        """Length-K weights, zero outside the document's allowed topics."""
        weights = gibbs_full_conditional(self.tables, m, v, self.hyper.alpha, self.hyper.beta)
        if self.allowed is None:
            return weights
        allowed = set(self.allowed[m])
        return [w if k in allowed else 0.0 for k, w in enumerate(weights)]

    def _counts(self, sparse: bool) -> dict:
        """The count tables of z, and for the sparse kernel its word index,
        by attribute name: set by __init__ and compared by check()."""
        docword = self.corpus.docword
        word_topics = None
        if sparse:
            # keys in order of first use, which the sparse walk follows
            word_topics = [{} for _ in range(self.corpus.n_words)]
            for doc, zm in zip(docword, self.z):
                for v, k in zip(doc, zm):
                    wt = word_topics[v]
                    wt[k] = wt.get(k, 0) + 1
        return {"tables": counts_from_assignments(docword, self.z, self.hyper.n_topics,
                                                  self.corpus.n_words),
                "word_topics": word_topics}

    def check(self) -> None:
        """Check the count tables and the sparse word index against a recount
        of z, and z against the allowed topics; raises ValueError."""
        require_recount(self, self._counts(self.word_topics is not None), "z")
        for m, (topics, zm) in enumerate(zip(self.allowed or (), self.z)):
            outside = set(zm).difference(topics)
            if outside:
                raise ValueError(f"doc {m}: topics {sorted(outside)} are not allowed")

    def sweep(self) -> None:
        """Resample every token once, documents then positions in index order."""
        if self.word_topics is None:
            self._sweep_dense()
        else:
            self._sweep_sparse()

    def _sweep_dense(self) -> None:
        K = self.hyper.n_topics
        alpha = self.hyper.alpha
        beta = self.hyper.beta
        vbeta = self.corpus.n_words * beta
        ndk = self.tables.doc_topic
        nkv = self.tables.topic_word
        nk = self.tables.topic_total
        rng_random = self.rng.random
        weights = [0.0] * K
        all_topics = range(K)
        allowed = self.allowed
        for m, doc in enumerate(self.corpus.docword):
            topics = all_topics if allowed is None else allowed[m]
            if len(topics) == 1:
                continue  # nothing to draw
            last = topics[-1]
            zm = self.z[m]
            nm = ndk[m]
            for n, v in enumerate(doc):
                k = zm[n]
                nm[k] -= 1
                nkv[k][v] -= 1
                nk[k] -= 1
                # the per-document denominator is constant in k, so the
                # proportional form of the full conditional is enough here
                total = 0.0
                for kk in topics:
                    w = (nm[kk] + alpha) * (nkv[kk][v] + beta) / (nk[kk] + vbeta)
                    weights[kk] = w
                    total += w
                r = rng_random() * total
                acc = 0.0
                k_new = last
                for kk in topics:
                    acc += weights[kk]
                    if r < acc:
                        k_new = kk
                        break
                zm[n] = k_new
                nm[k_new] += 1
                nkv[k_new][v] += 1
                nk[k_new] += 1

    def _sweep_sparse(self) -> None:
        """SparseLDA (Yao, Mimno & McCallum, KDD 2009).

        The dense loop's weight (alpha + n_mk)(beta + n_kv)/(n_k + V beta)
        is split as
          s_k = alpha beta / (n_k + V beta)            every topic
          r_k = n_mk beta / (n_k + V beta)             the document's topics
          q_k = (alpha + n_mk) n_kv / (n_k + V beta)   the word's topics
        With coef_k = (alpha + n_mk)/(n_k + V beta), cached per topic,
        q_k = coef_k n_kv and s_k + r_k = beta coef_k.  q is summed over the
        word's index only; s + r is a running total, recomputed at the start
        of each document so round-off cannot build up.  s and r share one
        walk over all K topics: a cumulative sum at C speed costs less here
        than keeping each document's topic list, and few draws land there.
        """
        K = self.hyper.n_topics
        alpha = self.hyper.alpha
        beta = self.hyper.beta
        vbeta = self.corpus.n_words * beta
        ndk = self.tables.doc_topic
        nkv = self.tables.topic_word
        nk = self.tables.topic_total
        word_topics = self.word_topics
        rng_random = self.rng.random
        inv = [1.0 / (n + vbeta) for n in nk]  # 1/(n_k + V beta)
        for m, doc in enumerate(self.corpus.docword):
            zm = self.z[m]
            nm = ndk[m]
            coef = [(alpha + c) * i for c, i in zip(nm, inv)]
            s_r = beta * sum(coef)
            for n, v in enumerate(doc):
                k = zm[n]
                wt = word_topics[v]
                c = nm[k] - 1
                nm[k] = c
                nkv[k][v] -= 1
                t = nk[k] - 1
                nk[k] = t
                left = wt[k] - 1
                if left:
                    wt[k] = left
                else:
                    del wt[k]
                i = 1.0 / (t + vbeta)
                inv[k] = i
                x = (alpha + c) * i
                s_r += beta * (x - coef[k])
                coef[k] = x

                q = 0.0
                for k, c in wt.items():
                    q += coef[k] * c
                u = rng_random() * (q + s_r)
                if u < q:
                    # round-off past the end leaves k at the bucket's last topic
                    for k, c in wt.items():
                        u -= coef[k] * c
                        if u < 0.0:
                            break
                else:
                    k = min(bisect_right(list(accumulate(coef)), (u - q) / beta), K - 1)

                zm[n] = k
                c = nm[k] + 1
                nm[k] = c
                nkv[k][v] += 1
                t = nk[k] + 1
                nk[k] = t
                if k in wt:
                    wt[k] += 1
                else:
                    wt[k] = 1
                i = 1.0 / (t + vbeta)
                inv[k] = i
                x = (alpha + c) * i
                s_r += beta * (x - coef[k])
                coef[k] = x

    def estimate(self) -> FittedLda:
        return FittedLda(theta=estimate_theta(self.tables, self.hyper.alpha),
                         phi=estimate_phi(self.tables, self.hyper.beta),
                         topic_labels=self.topic_labels)


def fit_gibbs(corpus: Corpus, hyper: LdaHyper, rng: random.Random,
              sweep_callback: Callable[[LdaGibbsSampler, int], None] | None = None) -> FittedLda:
    """Run the collapsed Gibbs chain and estimate theta/phi from the final state.

    The callback fires after each sweep (see ``core.run_chain``).
    """
    return run_chain(LdaGibbsSampler(corpus, hyper, rng), hyper.iterations, sweep_callback)


def cvb0_update(expected: CountTables, m: int, v: int,
                alpha: float, beta: float) -> list:
    """New responsibility vector for one token whose own mass is excluded.

    gamma_k proportional to (nhat_mk + alpha) * (nhat_kv + beta)/(nhat_k + V beta),
    returned normalized to sum one.
    """
    K = expected.n_topics
    vbeta = expected.n_words * beta
    n_mk = expected.doc_topic[m]
    weights = [(n_mk[k] + alpha)
               * (expected.topic_word[k][v] + beta) / (expected.topic_total[k] + vbeta)
               for k in range(K)]
    total = sum(weights)
    if total <= 0.0:
        raise SamplingError("CVB0 update produced no positive weight")
    return [w / total for w in weights]


def random_responsibilities(corpus: Corpus, n_topics: int, rng: random.Random) -> list:
    """Per-token responsibility vectors: normalized uniform random positives."""
    gamma = []
    for doc in corpus.docword:
        rows = []
        for _ in doc:
            u = [rng.random() + 1e-12 for _ in range(n_topics)]
            s = sum(u)
            rows.append([x / s for x in u])
        gamma.append(rows)
    return gamma


class LdaCvb0:
    """Deterministic CVB0 fixed-point iteration over token responsibilities."""

    def __init__(self, corpus: Corpus, hyper: LdaHyper, gamma: list):
        if corpus.n_docs == 0 or corpus.n_tokens == 0:
            raise ValueError("corpus is empty")
        self.corpus = corpus
        self.hyper = hyper
        self.gamma = gamma
        vars(self).update(self._counts())

    def _counts(self) -> dict:
        """The expected counts of gamma, by attribute name."""
        return {"expected": expected_counts(self.corpus.docword, self.gamma,
                                            self.hyper.n_topics, self.corpus.n_words)}

    def check(self) -> None:
        """Check the expected counts against a recount of gamma and their
        closure, both within ``EXPECTED_TOLERANCE``; raises ValueError."""
        tolerance = EXPECTED_TOLERANCE * self.corpus.n_tokens
        require_recount(self, self._counts(), "gamma", tolerance)
        self.expected.check(tolerance)

    def sweep(self) -> None:
        K = self.hyper.n_topics
        alpha = self.hyper.alpha
        beta = self.hyper.beta
        vbeta = self.corpus.n_words * beta
        ndk = self.expected.doc_topic
        nkv = self.expected.topic_word
        nk = self.expected.topic_total
        for m, doc in enumerate(self.corpus.docword):
            gm = self.gamma[m]
            nm = ndk[m]
            for n, v in enumerate(doc):
                g = gm[n]
                total = 0.0
                new = [0.0] * K
                for k in range(K):
                    gk = g[k]
                    w = (nm[k] - gk + alpha) \
                        * (nkv[k][v] - gk + beta) / (nk[k] - gk + vbeta)
                    new[k] = w
                    total += w
                for k in range(K):
                    gk_new = new[k] / total
                    delta = gk_new - g[k]
                    nm[k] += delta
                    nkv[k][v] += delta
                    nk[k] += delta
                    g[k] = gk_new

    def estimate(self) -> FittedLda:
        return FittedLda(theta=estimate_theta(self.expected, self.hyper.alpha),
                         phi=estimate_phi(self.expected, self.hyper.beta))


def fit_cvb0(corpus: Corpus, hyper: LdaHyper, rng: random.Random | None = None,
             init_gamma: list | None = None,
             sweep_callback: Callable[[LdaCvb0, int], None] | None = None) -> FittedLda:
    """Run CVB0; deterministic given the initial responsibilities.

    Either pass ``init_gamma`` explicitly or an rng to draw the random
    initialization from.
    """
    if init_gamma is None:
        if rng is None:
            raise ValueError("fit_cvb0 needs an rng or an explicit init_gamma")
        init_gamma = random_responsibilities(corpus, hyper.n_topics, rng)
    return run_chain(LdaCvb0(corpus, hyper, init_gamma), hyper.iterations, sweep_callback)
