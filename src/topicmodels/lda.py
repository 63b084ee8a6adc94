"""Latent Dirichlet allocation, fitted by collapsed Gibbs sampling or by
zero-order collapsed variational Bayes (CVB0).

The Gibbs sampler draws every token with the SparseLDA kernel,
``sweep_sparse_tokens``, at every K.  It also runs LDA with a set of
allowed topics per document: Labeled LDA and PLDA are that chain, with the
sets built from the labels (see ``supervised``).  A draw walks the
token's weight in three parts: q over the topics holding its word, then
smoothing and row (s + r) over the topics its document's row holds, then
smoothing alone over the document's other topics, which only a draw that
runs past the first two reaches.

Count-table notation (mirrored across the whole package):
  n_mk  tokens of document m assigned to topic k
  n_kv  tokens of word v assigned to topic k
  n_k   tokens assigned to topic k
  n_m   tokens of document m
CVB0 replaces the integer counts with their variational expectations and the
hard assignment z with a per-token responsibility vector.
"""

import random
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress
from math import fsum

from .core import (CountTables, counts_from_assignments, draw_below, draw_each, expected_counts,
                   fold_sum, record, require_at_least, require_positive, require_recount)
from .corpus import Corpus

# The CVB0 sweeps move expected counts by differences, so the tables drift
# from a recount of the responsibilities by round-off; check() allows this
# much per token of the corpus.
EXPECTED_TOLERANCE = 1e-9


@record(frozen=True)
class LdaHyper:
    n_topics: int
    alpha: float = 0.1
    beta: float = 0.01

    def __post_init__(self):
        require_at_least({"n_topics": self.n_topics})
        require_positive({"alpha": self.alpha, "beta": self.beta})


@record
class FittedLda:
    theta: list  # M rows of array('d') over K topics, each summing to 1
    phi: list    # K rows of array('d') over V words, each summing to 1
    topic_labels: list | None = None  # a name per topic, where topics stand for labels


class SparseRow(array):
    """An ``array('d')`` estimate row that also lists its ``support``: the
    ascending indices (an ``array('I')``) of its nonzero counts.  Every
    other cell holds the row's floor, smooth / denom, so
    ``evaluation.top_word_ids`` ranks the support alone."""

    __slots__ = ("support",)


def smoothed_rows(counts, totals, smooth: float, ranked: bool = False) -> list:
    """Rows of (count + smooth) / (total + dim * smooth); each row is stochastic.

    Each row is an ``array('d')``: the same doubles at 8 bytes a cell, not
    the 40 of a list slot and its float object.  A row of integer counts
    with a zero (a Gibbs row, mostly zeros) starts as smooth / denom in
    every cell, and only its nonzero counts are computed: 0 + smooth is
    smooth, so every cell is the double the formula gives.  Every other row
    is computed cell by cell: a count row with no zero, and the expected
    counts of CVB0 (a float total), which have none and are not scanned for
    one.  An empty row (a link vocabulary of none) has no cell to fill.

    ``ranked`` marks rows whose top words are listed (phi, not theta): such
    a row with nonzero counts in at most half its cells is a ``SparseRow``,
    whose support costs at most 2 bytes a cell.
    """
    out = []
    for row, total in zip(counts, totals):
        denom = total + len(row) * smooth
        if isinstance(total, int) and 0 in row:
            support = compress(range(len(row)), row)
            kind = array
            if ranked:
                support = array("I", support)
                if 2 * len(support) <= len(row):
                    kind = SparseRow
            cells = kind("d", [smooth / denom])
            cells *= len(row)  # in place, so the row keeps its kind
            for i in support:
                cells[i] = (row[i] + smooth) / denom
            if kind is SparseRow:
                cells.support = support
        else:
            cells = array("d", [(c + smooth) / denom for c in row])
        out.append(cells)
    return out


def estimate_theta(tables: CountTables, alpha: float) -> list:
    return smoothed_rows(tables.doc_topic, tables.doc_total, alpha)


def estimate_phi(tables: CountTables, beta: float) -> list:
    return smoothed_rows(tables.topic_word, tables.topic_total, beta, ranked=True)


def sweep_sparse_tokens(docword, z, rows, topics, topic_word: list, topic_total: list,
                        word_topics: list, alpha: float, beta: float, rng: random.Random) -> None:
    """Resample every token once, documents then positions in index order,
    with the SparseLDA draw (Yao, Mimno & McCallum, KDD 2009).

    Token n of document m, with topic z[m][n], is drawn from
      (alpha + row_k)(beta + n_kv)/(n_k + V beta)
    over the topics k in ``topics[m]``, in increasing order, where
    ``row = rows[m]`` is the count row the draw uses: the document's own
    n_mk in LDA, its pseudo document's N_lk in PTM, its pooled words and
    links n_mk + c_mk in Link LDA.  A document restricted to some topics
    (Labeled LDA, PLDA) lists them; the unrestricted callers pass one
    ``range(K)`` for every document.  z[m] holds the document's topics
    only.  V is ``len(word_topics)``.  The row, ``topic_word`` (n_kv),
    ``topic_total`` (n_k) and ``word_topics`` (the word index that
    ``core.counts_from_assignments`` builds) move with every topic change.

    With coef_k = (alpha + row_k)/(n_k + V beta) over the document's
    topics and 0.0 for every other topic, a draw walks the weight in three
    parts, in this order:
      q_k = coef_k n_kv           the word's topics, in the word index's order
      s_k + r_k = beta coef_k     the document's list: smoothing and row,
                                  in list order
      s_k = beta alpha/(n_k + V beta)   the rest of the document's topics:
                                  smoothing only, in id order
    q is summed over the word index only; s + r is a running total over all
    the document's topics, recomputed at the start of each document so
    round-off cannot build up.  The list holds the topics with row_k > 0 at
    the start of the document, in ``topics[m]`` order; a move that gives a
    topic its first token there appends it, once, and a topic that drops to
    0 stays on it.  Only a draw that runs past the list walks the rest, as
    a cumulative sum at C speed with the listed topics zeroed: mostly the
    draws of a word seen once (q = 0) that land on a topic the row does not
    hold.  Where round-off runs a walk past its end, the draw takes the last
    topic with weight.

    The coefficients outlive a document: the topics off its list keep
    alpha/(n_k + V beta), so only the listed topics are set at its start
    and put back at its end.  They are built afresh, 0.0 off the document's
    topics, whenever ``topics[m]`` is not the object the document before
    passed.

    The token's own topic is weighed with the token taken out, in place:
    its coefficient, from the cached 1/(n_k - 1 + V beta), and its
    word-index value.  The tables and the running total move only when the
    draw picks another topic; a kept topic puts the two values back, so most
    draws of a chain that has settled write nothing else.
    """
    nkv, nk = topic_word, topic_total
    K = len(nk)
    vbeta = len(word_topics) * beta
    rng_random = rng.random
    inv = [1.0 / (n + vbeta) for n in nk]  # 1/(n_k + V beta)
    # 1/(n_k - 1 + V beta), the own topic's with the token out; 0.0, never
    # read, for an empty topic
    dec = [1.0 / (n - 1 + vbeta) if n else 0.0 for n in nk]
    coef = ks_before = None
    for doc, zm, nm, ks in zip(docword, z, rows, topics):
        if ks is not ks_before:  # smoothing alone, 0.0 off the document's topics
            coef = [0.0] * K
            for k in ks:
                coef[k] = alpha * inv[k]
            ks_before = ks
        listed = list(compress(ks, map(nm.__getitem__, ks)))  # the topics the row holds
        for k in listed:
            coef[k] = (alpha + nm[k]) * inv[k]
        s_r = beta * fsum(coef)
        for n, v in enumerate(doc):
            k0 = zm[n]
            wt = word_topics[v]
            # weigh the token's own topic with the token taken out, in place:
            # its coefficient and its word-index value (kept at 0 rather than
            # deleted, which adds exactly 0.0 to q and to the walk)
            c0 = nm[k0] - 1
            x0 = (alpha + c0) * dec[k0]
            old = coef[k0]
            coef[k0] = x0
            s_r0 = s_r + beta * (x0 - old)
            left = wt[k0] - 1
            wt[k0] = left

            q = 0.0
            for k, c in wt.items():
                q += coef[k] * c
            u = rng_random() * (q + s_r0)
            if u < q:
                for k, c in wt.items():
                    u -= coef[k] * c
                    if u < 0.0:
                        break
                else:
                    k = [j for j, c in wt.items() if coef[j] * c][-1]
            else:
                u = (u - q) / beta
                for k in listed:
                    u -= coef[k]
                    if u < 0.0:
                        break
                else:  # the topics off the list: smoothing only
                    rest = coef.copy()
                    for k in listed:
                        rest[k] = 0.0
                    walk = list(accumulate(map(rest.__getitem__, ks)))
                    j = bisect_right(walk, u)
                    if j < len(walk):
                        k = ks[j]
                    else:  # round-off ran past the end: the last topic with weight
                        k = ks[bisect_left(walk, walk[-1])] if walk[-1] else listed[-1]

            if k == k0:  # the topic is kept: put the token back in place
                coef[k0] = old
                wt[k0] = left + 1
                continue
            # the topic moves: take the token out of k0's tables, into k's
            nm[k0] = c0
            nkv[k0][v] -= 1
            t0 = nk[k0] - 1
            nk[k0] = t0
            inv[k0] = dec[k0]
            dec[k0] = 1.0 / (t0 - 1 + vbeta) if t0 else 0.0
            if not left:
                del wt[k0]
            zm[n] = k
            c = nm[k] + 1
            nm[k] = c
            if c == 1 and k not in listed:
                listed.append(k)
            nkv[k][v] += 1
            t = nk[k] + 1
            nk[k] = t
            wt[k] = wt.get(k, 0) + 1
            dec[k] = inv[k]
            i = 1.0 / (t + vbeta)
            inv[k] = i
            x = (alpha + c) * i
            s_r = s_r0 + beta * (x - coef[k])
            coef[k] = x
        for k in listed:  # back to smoothing alone for the next document
            coef[k] = alpha * inv[k]


class LdaGibbsSampler:
    """Owns the assignment vector z and its count tables for one chain.

    ``allowed[m]``, if given, lists the topic ids document m may use: its
    tokens start on a uniform draw from that list and are only resampled
    within it, and a document with a single allowed topic is never
    resampled.  ``None`` lets every document use all K topics.
    ``topic_labels`` names the topics in the estimate.

    Every sweep runs the SparseLDA kernel (``sweep_sparse_tokens``), so the
    sampler also keeps ``word_topics``: for every word, a dict from each
    topic holding it to n_kv.  ``tables`` stays the source of truth.
    """

    def __init__(self, corpus: Corpus, hyper: LdaHyper, rng: random.Random,
                 allowed: list | None = None, topic_labels: list | None = None):
        corpus.require()
        if allowed is not None and (len(allowed) != corpus.n_docs or not all(allowed)):
            raise ValueError("allowed needs a nonempty topic list for every document")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        self.topic_labels = topic_labels
        if allowed is None:
            self.z = draw_each(rng, hyper.n_topics, corpus.docword)
        else:  # rng.choice(topics) for each token
            self.z = [list(map(topics.__getitem__, draw_below(rng, len(topics), len(doc))))
                      for topics, doc in zip(allowed, corpus.docword)]
        # the kernel walks each document's topics in id order
        self.allowed = None if allowed is None else [sorted(set(ks)) for ks in allowed]
        vars(self).update(self._counts())

    def _counts(self) -> dict:
        """The count tables of z and its word index, by attribute name: set
        by __init__ and compared by check()."""
        tables, index = counts_from_assignments(self.corpus.docword, self.z, self.hyper.n_topics,
                                                self.corpus.n_words)
        return {"tables": tables, "word_topics": index}

    def check(self) -> None:
        """Check the count tables and the word index against a recount of z,
        and z against the allowed topics; raises ValueError."""
        require_recount(self, self._counts(), "z")
        for m, (topics, zm) in enumerate(zip(self.allowed or (), self.z)):
            outside = set(zm).difference(topics)
            if outside:
                raise ValueError(f"doc {m}: topics {sorted(outside)} are not allowed")

    def sweep(self) -> None:
        """Resample every token once, documents then positions in index
        order, each within its document's allowed topics; the documents
        with one allowed topic are left out of the kernel."""
        K, tables = self.hyper.n_topics, self.tables
        docs = (self.corpus.docword, self.z, tables.doc_topic)
        if self.allowed is None:
            topics = [range(K)] * len(self.z)
        else:
            kept = [m for m, ks in enumerate(self.allowed) if len(ks) > 1]
            docs = [[seq[m] for m in kept] for seq in docs]
            topics = [self.allowed[m] for m in kept]
        sweep_sparse_tokens(*docs, topics, tables.topic_word, tables.topic_total,
                            self.word_topics, self.hyper.alpha, self.hyper.beta, self.rng)

    def estimate(self) -> FittedLda:
        return FittedLda(theta=estimate_theta(self.tables, self.hyper.alpha),
                         phi=estimate_phi(self.tables, self.hyper.beta),
                         topic_labels=self.topic_labels)


def random_responsibilities(corpus: Corpus, n_topics: int, rng: random.Random) -> list:
    """Per-token responsibility vectors: normalized uniform random positives."""
    gamma = []
    for doc in corpus.docword:
        rows = []
        for _ in doc:
            u = [rng.random() + 1e-12 for _ in range(n_topics)]
            s = fold_sum(u)
            rows.append([x / s for x in u])
        gamma.append(rows)
    return gamma


def cvb0_pass(docword, gamma, tables: CountTables, doc_prior: list, word_prior: list,
              topic_prior: list) -> None:
    """Update every token's responsibility once, documents then positions in
    index order (Teh, Newman & Welling, NIPS 2007, zero order).

    Token n of document m, with word v and responsibilities g = gamma[m][n],
    takes
      g_k ~ (n_mk - g_k + a_k)(n_kv - g_k + b_k)/(n_k - g_k + c_k)
    with ``a = doc_prior[m]``, ``b = word_prior[v]`` and ``c = topic_prior``,
    each a row over the K topics.  The expected counts in ``tables`` move by
    the difference of the new and old g; n_m does not change.
    """
    c, K = topic_prior, len(topic_prior)
    ndk, nkv, nk = tables.doc_topic, tables.topic_word, tables.topic_total
    for doc, gm, nm, a in zip(docword, gamma, ndk, doc_prior):
        for v, g in zip(doc, gm):
            b = word_prior[v]
            total = 0.0
            new = [0.0] * K
            for k in range(K):
                gk = g[k]
                w = (nm[k] - gk + a[k]) * (nkv[k][v] - gk + b[k]) / (nk[k] - gk + c[k])
                new[k] = w
                total += w
            for k in range(K):
                gk_new = new[k] / total
                delta = gk_new - g[k]
                nm[k] += delta
                nkv[k][v] += delta
                nk[k] += delta
                g[k] = gk_new


class LdaCvb0:
    """CVB0 fixed-point iteration over token responsibilities, from a random start."""

    def __init__(self, corpus: Corpus, hyper: LdaHyper, rng: random.Random):
        corpus.require()
        self.corpus = corpus
        self.hyper = hyper
        self.gamma = random_responsibilities(corpus, hyper.n_topics, rng)
        vars(self).update(self._counts())

    def _counts(self) -> dict:
        """The expected counts of gamma, by attribute name."""
        return {"expected": expected_counts(self.corpus.docword, self.gamma,
                                            self.hyper.n_topics, self.corpus.n_words)}

    def check(self) -> None:
        """Check the tables of ``_counts()`` against a recount and the expected
        counts' closure, within ``EXPECTED_TOLERANCE``; raises ValueError."""
        tolerance = EXPECTED_TOLERANCE * self.corpus.n_tokens
        require_recount(self, self._counts(), "the solver's state", tolerance)
        self.expected.check(tolerance)

    def priors(self) -> tuple:
        """The (document, word, topic) prior rows of ``cvb0_pass``, each over
        the K topics: the constants alpha, beta and V beta."""
        h, M, V = self.hyper, self.corpus.n_docs, self.corpus.n_words
        K = h.n_topics
        return [[h.alpha] * K] * M, [[h.beta] * K] * V, [V * h.beta] * K

    def sweep(self) -> None:
        """One CVB0 pass with the priors of ``priors()``."""
        cvb0_pass(self.corpus.docword, self.gamma, self.expected, *self.priors())

    def estimate(self) -> FittedLda:
        return FittedLda(theta=estimate_theta(self.expected, self.hyper.alpha),
                         phi=estimate_phi(self.expected, self.hyper.beta))
