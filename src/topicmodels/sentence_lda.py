"""Sentence-LDA: every word of a sentence shares one topic.

The sentence conditional multiplies rising factorials over the sentence's
word multiset, so all weights are built in log space and exponentiated
against the per-sentence maximum.
"""

import math
import random
from collections import Counter

from .core import (LogRisingMemo, counts_from_assignments, exp_normalize, require_recount,
                   sample_categorical)
from .corpus import Corpus
from .lda import FittedLda, LdaHyper, estimate_phi, estimate_theta


class SentenceLdaSampler:
    """Collapsed Gibbs chain over per-sentence topic assignments z_ms.

    Count tables track word tokens (not sentences): removing a sentence
    removes every one of its tokens from its topic.
    """

    def __init__(self, corpus: Corpus, hyper: LdaHyper, rng: random.Random):
        corpus.require("sentences")
        if corpus.n_docs == 0 or corpus.n_tokens == 0:
            raise ValueError("corpus is empty")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        K = hyper.n_topics
        # per-(doc, sentence) word multisets, as (word, count) item lists
        self.sentence_words = []
        for m in range(corpus.n_docs):
            self.sentence_words.append(
                [sorted(Counter(s).items()) for s in corpus.doc_sentences(m)])
        self.z = [[rng.randrange(K) for _ in doc_sents]
                  for doc_sents in self.sentence_words]
        vars(self).update(self._counts())
        # rising factorials of n_kw + b and of n_k + V b
        self._word_logs = LogRisingMemo(hyper.beta)
        self._total_logs = LogRisingMemo(corpus.n_words * hyper.beta)

    def _counts(self) -> dict:
        """The count tables of z, by attribute name: every token takes its
        sentence's topic."""
        corpus = self.corpus
        token_z = [[k for k, sentence in zip(zm, corpus.doc_sentences(m)) for _ in sentence]
                   for m, zm in enumerate(self.z)]
        return {"tables": counts_from_assignments(corpus.docword, token_z,
                                                  self.hyper.n_topics, corpus.n_words)}

    def check(self) -> None:
        """Check the count tables against a recount of z; raises ValueError."""
        require_recount(self, self._counts(), "z")

    def _remove_sentence(self, m: int, s: int) -> int:
        k = self.z[m][s]
        for v, c in self.sentence_words[m][s]:
            self.tables.decrement(m, k, v, c)
        return k

    def _add_sentence(self, m: int, s: int, k: int) -> None:
        self.z[m][s] = k
        for v, c in self.sentence_words[m][s]:
            self.tables.increment(m, k, v, c)

    def full_conditional(self, m: int, s: int) -> list:
        """Weights for sentence s of document m, its counts already removed.

        weight_k = (n_mk + a)/(n_m + K a)
                   * prod_w rising(n_kw + b, N_ms^w) / rising(n_k + V b, N_ms)
        evaluated in log space and exponentiated against the maximum.
        """
        hyper = self.hyper
        K = hyper.n_topics
        beta = hyper.beta
        word_logs = self._word_logs
        items = self.sentence_words[m][s]
        n_s = sum(c for _, c in items)
        n_mk = self.tables.doc_topic[m]
        doc_log_denom = math.log(self.tables.doc_total[m] + K * hyper.alpha)
        logs = []
        for k in range(K):
            lw = math.log(n_mk[k] + hyper.alpha) - doc_log_denom
            row = self.tables.topic_word[k]
            for v, c in items:
                lw += math.log(row[v] + beta) if c == 1 else word_logs[row[v], c]
            lw -= self._total_logs[self.tables.topic_total[k], n_s]
            logs.append(lw)
        return exp_normalize(logs)

    def sweep(self) -> None:
        for m, doc_sents in enumerate(self.sentence_words):
            for s in range(len(doc_sents)):
                self._remove_sentence(m, s)
                k = sample_categorical(self.full_conditional(m, s), self.rng)
                self._add_sentence(m, s, k)

    def estimate(self) -> FittedLda:
        return FittedLda(theta=estimate_theta(self.tables, self.hyper.alpha),
                         phi=estimate_phi(self.tables, self.hyper.beta))
