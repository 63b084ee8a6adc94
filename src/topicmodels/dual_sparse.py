"""Dual-sparse topic model fitted by CVB0.

Bernoulli selector means gate the Dirichlet smoothing: alpha_hat[m][k] says
how strongly document m focuses on topic k, beta_hat[k][v] how strongly
topic k focuses on word v.  Both are ratios of Gamma/Beta-function products
that underflow in linear space, so the updates run entirely on log-gamma
differences and come back through a sigmoid of the log odds.

The solver is ``lda.LdaCvb0`` with the selector-gated smoothing as the
priors of its CVB0 pass.  Sweep order per iteration: every alpha_hat, then
every beta_hat, then every token responsibility gamma.
"""

import math
import random
from array import array

from .core import fold_sum, record, require_at_least, require_nonnegative, require_positive
from .corpus import Corpus
from .lda import LdaCvb0, cvb0_pass

# selector means are kept strictly inside (0, 1) so the excluded sums
# A_hat - alpha_hat stay positive even when the sigmoid saturates
SELECTOR_FLOOR = 1e-12
SELECTOR_CEIL = 1.0 - 1e-12


@record(frozen=True)
class SparseHyper:
    n_topics: int
    s: float = 1.0          # Beta prior on the document selector rate
    t: float = 1.0
    x: float = 1.0          # Beta prior on the topic selector rate
    y: float = 1.0
    pi: float = 0.1         # strong topic smoothing
    pi_bar: float = 1e-12   # weak topic smoothing
    word_gamma: float = 0.1       # strong word smoothing
    word_gamma_bar: float = 1e-12  # weak word smoothing

    def __post_init__(self):
        require_at_least({"n_topics": self.n_topics})
        require_positive({"s": self.s, "t": self.t, "x": self.x, "y": self.y, "pi": self.pi,
                          "word_gamma": self.word_gamma})
        # the weak priors may be zero (the model then degenerates towards
        # plain CVB0 LDA when the selectors are pinned open)
        require_nonnegative({"pi_bar": self.pi_bar, "word_gamma_bar": self.word_gamma_bar})
        if not self.pi_bar < self.pi:
            raise ValueError("pi_bar must be < pi")
        if not self.word_gamma_bar < self.word_gamma:
            raise ValueError("word_gamma_bar must be < word_gamma")


@record
class SparseFit:
    theta: list  # M rows of array('d') over K topics
    phi: list    # K rows of array('d') over V words
    sparsity_doc: list    # per document: 1 - A_hat/K
    sparsity_topic: list  # per topic:    1 - B_hat/V
    avg_sparsity_doc: float
    avg_sparsity_topic: float


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _clamp(p: float) -> float:
    return min(max(p, SELECTOR_FLOOR), SELECTOR_CEIL)


def _sigmoid(odds: float) -> float:
    if odds >= 0:
        return 1.0 / (1.0 + math.exp(-odds))
    e = math.exp(odds) if odds > -700 else 0.0
    return e / (1.0 + e)


def selector_mean(on: float, off: float, strong: float, weak: float, dim: int,
                  count: float, total: float, excluded: float) -> float:
    """New mean of one Bernoulli selector, clamped into the open unit interval;
    NaN when its log odds are not a number.

    The selector gates ``strong`` smoothing on one cell of a row of ``dim``
    cells, each of which gets ``weak`` smoothing regardless.  ``count`` is the
    cell's expected count, ``total`` its row's, ``excluded`` the sum of the
    row's other selector means, and the selector rate has a Beta(on, off)
    prior.  For a topic selector these are (s, t, pi, pi_bar, K, n_mk, n_m,
    A_hat_m - alpha_hat_mk); for a word selector (x, y, word_gamma,
    word_gamma_bar, V, n_kv, n_k, B_hat_k - beta_hat_kv).
    """
    d_weak = dim * weak
    se = strong * excluded
    log_on = (math.log(on + excluded)
              + math.lgamma(count + strong + weak)
              + _log_beta(strong + d_weak + se, total + se + d_weak))
    log_off = (math.log(off + dim - 1 - excluded)
               + math.lgamma(strong + weak)
               + _log_beta(d_weak + se, total + strong + se + d_weak))
    odds = log_on - log_off
    return odds if odds != odds else _clamp(_sigmoid(odds))


def selector_pass(means: list, sums: list, counts: list, totals: list, on: float, off: float,
                  strong: float, weak: float, names: tuple) -> None:
    """Update every selector mean once, rows then cells in index order, with
    ``selector_mean``; ``sums`` holds the row sums and moves with them.
    ``names`` names a row and a cell for the error on non-finite odds."""
    for r, (row, n_row, total) in enumerate(zip(means, counts, totals)):
        dim = len(row)
        row_sum = sums[r]
        for j, (mean, count) in enumerate(zip(row, n_row)):
            excluded = row_sum - mean
            new = selector_mean(on, off, strong, weak, dim, count, total, excluded)
            if new != new:
                raise ArithmeticError(
                    f"non-finite selector odds at {names[0]} {r}, {names[1]} {j}")
            row[j] = new
            row_sum = excluded + new
        sums[r] = row_sum


class DualSparseCvb0(LdaCvb0):
    """CVB0 LDA whose smoothing the selector means gate."""

    def __init__(self, corpus: Corpus, hyper: SparseHyper, rng: random.Random):
        # the selectors draw nothing, so the start is LdaCvb0's
        self.alpha_hat = [[0.5] * hyper.n_topics for _ in range(corpus.n_docs)]
        self.beta_hat = [[0.5] * corpus.n_words for _ in range(hyper.n_topics)]
        super().__init__(corpus, hyper, rng)

    def _counts(self) -> dict:
        """LdaCvb0's expected counts, and the selector row sums A_hat and
        B_hat, by attribute name."""
        return {**super()._counts(), "A_hat": [fold_sum(row) for row in self.alpha_hat],
                "B_hat": [fold_sum(row) for row in self.beta_hat]}

    def priors(self) -> tuple:
        """The smoothing the selectors give the expected counts, as rows over
        the K topics: per document a_mk = pi alpha_hat_mk + pi_bar, per word
        b_vk = g beta_hat_kv + g_bar, per topic c_k = g B_hat_k + V g_bar
        (g is word_gamma)."""
        h = self.hyper
        V = self.corpus.n_words
        g, g_bar = h.word_gamma, h.word_gamma_bar
        doc = [[h.pi * a + h.pi_bar for a in row] for row in self.alpha_hat]
        word = [[g * b + g_bar for b in column] for column in zip(*self.beta_hat)]
        topic = [g * b_sum + V * g_bar for b_sum in self.B_hat]
        return doc, word, topic

    def sweep(self) -> None:
        """Every alpha_hat, then every beta_hat, then every gamma; the CVB0
        pass is called here, not through ``LdaCvb0.sweep``, so that a tracer
        wrapping both sweeps (perfbench/spans.py) records one span."""
        h, ex = self.hyper, self.expected
        selector_pass(self.alpha_hat, self.A_hat, ex.doc_topic, ex.doc_total,
                      h.s, h.t, h.pi, h.pi_bar, ("doc", "topic"))
        selector_pass(self.beta_hat, self.B_hat, ex.topic_word, ex.topic_total,
                      h.x, h.y, h.word_gamma, h.word_gamma_bar, ("topic", "word"))
        cvb0_pass(self.corpus.docword, self.gamma, self.expected, *self.priors())

    def estimate(self) -> SparseFit:
        """theta and phi are the expected counts plus the priors of the
        CVB0 pass, normalized."""
        K, V, M = self.hyper.n_topics, self.corpus.n_words, self.corpus.n_docs
        ex = self.expected
        doc_prior, word_prior, topic_prior = self.priors()
        theta = []
        for counts, n_m, a in zip(ex.doc_topic, ex.doc_total, doc_prior):
            denom = n_m + fold_sum(a)
            theta.append(array("d", [(n + a_k) / denom for n, a_k in zip(counts, a)]))
        phi = []
        for k, (counts, n_k, c_k) in enumerate(zip(ex.topic_word, ex.topic_total, topic_prior)):
            denom = n_k + c_k
            phi.append(array("d", [(n + b[k]) / denom for n, b in zip(counts, word_prior)]))
        sparsity_doc = [1.0 - a_sum / K for a_sum in self.A_hat]
        sparsity_topic = [1.0 - b_sum / V for b_sum in self.B_hat]
        return SparseFit(
            theta=theta, phi=phi,
            sparsity_doc=sparsity_doc, sparsity_topic=sparsity_topic,
            avg_sparsity_doc=fold_sum(sparsity_doc) / M,
            avg_sparsity_topic=fold_sum(sparsity_topic) / K)
