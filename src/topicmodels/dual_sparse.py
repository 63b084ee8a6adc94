"""Dual-sparse topic model fitted by CVB0.

Bernoulli selector means gate the Dirichlet smoothing: alpha_hat[m][k] says
how strongly document m focuses on topic k, beta_hat[k][v] how strongly
topic k focuses on word v.  Both are ratios of Gamma/Beta-function products
that underflow in linear space, so the updates run entirely on log-gamma
differences and come back through a sigmoid of the log odds.

Sweep order per iteration: every alpha_hat, then every beta_hat, then every
token responsibility kappa.
"""

import math

from .core import (expected_counts, record, require_at_least, require_nonnegative,
                   require_positive, require_recount)
from .corpus import Corpus
from .lda import EXPECTED_TOLERANCE

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
    iterations: int = 1000

    def __post_init__(self):
        require_at_least({"n_topics": self.n_topics, "iterations": self.iterations})
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
    theta: list
    phi: list
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


class DualSparseCvb0:
    def __init__(self, corpus: Corpus, hyper: SparseHyper, kappa: list,
                 alpha_hat: list | None = None, beta_hat: list | None = None):
        if corpus.n_docs == 0 or corpus.n_tokens == 0:
            raise ValueError("corpus is empty")
        self.corpus = corpus
        self.hyper = hyper
        self.kappa = kappa
        K, V, M = hyper.n_topics, corpus.n_words, corpus.n_docs
        self.alpha_hat = alpha_hat if alpha_hat is not None \
            else [[0.5] * K for _ in range(M)]
        self.beta_hat = beta_hat if beta_hat is not None \
            else [[0.5] * V for _ in range(K)]
        vars(self).update(self._counts())

    def _counts(self) -> dict:
        """The expected counts of kappa and the selector row sums A_hat and
        B_hat, by attribute name."""
        return {"expected": expected_counts(self.corpus.docword, self.kappa,
                                            self.hyper.n_topics, self.corpus.n_words),
                "A_hat": [sum(row) for row in self.alpha_hat],
                "B_hat": [sum(row) for row in self.beta_hat]}

    def check(self) -> None:
        """Check the expected counts, A_hat and B_hat against a recount, and the
        expected counts' closure, within ``lda.EXPECTED_TOLERANCE``; raises ValueError."""
        tolerance = EXPECTED_TOLERANCE * self.corpus.n_tokens
        require_recount(self, self._counts(), "kappa and the selector means", tolerance)
        self.expected.check(tolerance)

    # -- selector updates -----------------------------------------------------

    def update_alpha_selector(self, m: int, k: int) -> float:
        """New alpha_hat[m][k]; A_hat[m] is refreshed in place."""
        h = self.hyper
        K = h.n_topics
        a_ex = self.A_hat[m] - self.alpha_hat[m][k]
        n_mk = self.expected.doc_topic[m][k]
        n_m = self.expected.doc_total[m]
        k_pbar = K * h.pi_bar
        pa = h.pi * a_ex
        log_on = (math.log(h.s + a_ex)
                  + math.lgamma(n_mk + h.pi + h.pi_bar)
                  + _log_beta(h.pi + k_pbar + pa, n_m + pa + k_pbar))
        log_off = (math.log(h.t + K - 1 - a_ex)
                   + math.lgamma(h.pi + h.pi_bar)
                   + _log_beta(k_pbar + pa, n_m + h.pi + pa + k_pbar))
        odds = log_on - log_off
        if odds != odds:
            raise ArithmeticError(
                f"non-finite topic-selector odds at doc {m}, topic {k}")
        new = _clamp(_sigmoid(odds))
        self.alpha_hat[m][k] = new
        self.A_hat[m] = a_ex + new
        return new

    def update_beta_selector(self, k: int, v: int) -> float:
        """New beta_hat[k][v]; B_hat[k] is refreshed in place."""
        h = self.hyper
        V = self.corpus.n_words
        b_ex = self.B_hat[k] - self.beta_hat[k][v]
        n_kv = self.expected.topic_word[k][v]
        n_k = self.expected.topic_total[k]
        v_gbar = V * h.word_gamma_bar
        gb = h.word_gamma * b_ex
        log_on = (math.log(h.x + b_ex)
                  + math.lgamma(n_kv + h.word_gamma + h.word_gamma_bar)
                  + _log_beta(h.word_gamma + v_gbar + gb, n_k + gb + v_gbar))
        log_off = (math.log(h.y + V - 1 - b_ex)
                   + math.lgamma(h.word_gamma + h.word_gamma_bar)
                   + _log_beta(v_gbar + gb, n_k + h.word_gamma + gb + v_gbar))
        odds = log_on - log_off
        if odds != odds:
            raise ArithmeticError(
                f"non-finite word-selector odds at topic {k}, word {v}")
        new = _clamp(_sigmoid(odds))
        self.beta_hat[k][v] = new
        self.B_hat[k] = b_ex + new
        return new

    def kappa_weights(self, m: int, v: int) -> list:
        """Unnormalized responsibility weights with the token's mass excluded.

        kappa_k ~ (n_mk + pi a_mk + pi_bar)
                  * (n_kv + g b_kv + g_bar) / (n_k + g B_k + V g_bar)
        """
        h = self.hyper
        K, V = h.n_topics, self.corpus.n_words
        n_mk = self.expected.doc_topic[m]
        out = [0.0] * K
        for k in range(K):
            out[k] = ((n_mk[k] + h.pi * self.alpha_hat[m][k] + h.pi_bar)
                      * (self.expected.topic_word[k][v]
                         + h.word_gamma * self.beta_hat[k][v] + h.word_gamma_bar)
                      / (self.expected.topic_total[k]
                         + h.word_gamma * self.B_hat[k] + V * h.word_gamma_bar))
        return out

    # -- sweep passes -----------------------------------------------------------

    def alpha_pass(self) -> None:
        for m in range(self.corpus.n_docs):
            for k in range(self.hyper.n_topics):
                self.update_alpha_selector(m, k)

    def beta_pass(self) -> None:
        for k in range(self.hyper.n_topics):
            for v in range(self.corpus.n_words):
                self.update_beta_selector(k, v)

    def kappa_pass(self) -> None:
        K = self.hyper.n_topics
        ndk = self.expected.doc_topic
        nkv = self.expected.topic_word
        nk = self.expected.topic_total
        for m, doc in enumerate(self.corpus.docword):
            km = self.kappa[m]
            nm = ndk[m]
            for n, v in enumerate(doc):
                g = km[n]
                for k in range(K):
                    gk = g[k]
                    nm[k] -= gk
                    nkv[k][v] -= gk
                    nk[k] -= gk
                weights = self.kappa_weights(m, v)
                total = sum(weights)
                for k in range(K):
                    gk = weights[k] / total
                    g[k] = gk
                    nm[k] += gk
                    nkv[k][v] += gk
                    nk[k] += gk

    def sweep(self) -> None:
        self.alpha_pass()
        self.beta_pass()
        self.kappa_pass()

    # -- estimates ---------------------------------------------------------------

    def estimate(self) -> SparseFit:
        h = self.hyper
        K, V, M = h.n_topics, self.corpus.n_words, self.corpus.n_docs
        theta = []
        for m in range(M):
            denom = (self.expected.doc_total[m] + h.pi * self.A_hat[m] + K * h.pi_bar)
            theta.append([(self.expected.doc_topic[m][k]
                           + h.pi * self.alpha_hat[m][k] + h.pi_bar) / denom
                          for k in range(K)])
        phi = []
        for k in range(K):
            denom = (self.expected.topic_total[k]
                     + h.word_gamma * self.B_hat[k] + V * h.word_gamma_bar)
            phi.append([(self.expected.topic_word[k][v]
                         + h.word_gamma * self.beta_hat[k][v] + h.word_gamma_bar) / denom
                        for v in range(V)])
        sparsity_doc = [1.0 - self.A_hat[m] / K for m in range(M)]
        sparsity_topic = [1.0 - self.B_hat[k] / V for k in range(K)]
        return SparseFit(
            theta=theta, phi=phi,
            sparsity_doc=sparsity_doc, sparsity_topic=sparsity_topic,
            avg_sparsity_doc=sum(sparsity_doc) / M,
            avg_sparsity_topic=sum(sparsity_topic) / K)
