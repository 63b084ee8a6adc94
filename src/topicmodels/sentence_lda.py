"""Sentence-LDA: every word of a sentence shares one topic.

The sentence conditional multiplies rising factorials over the sentence's
word multiset, so all weights are built in log space and exponentiated
against the per-sentence maximum.
"""

import math
import random
from collections import Counter
from itertools import repeat
from operator import add

from .core import (LogRisingMemo, counts_from_assignments, exp_normalize, log_unit_weights,
                   require_recount, sample_categorical, shift_counts)
from .corpus import Corpus
from .lda import FittedLda, LdaHyper, estimate_phi, estimate_theta, word_topic_index


class SentenceLdaSampler:
    """Collapsed Gibbs chain over per-sentence topic assignments z_ms.

    Count tables track word tokens (not sentences): removing a sentence
    removes every one of its tokens from its topic.  ``word_topics`` is
    their word index: for every word, a dict from each topic holding it to
    n_kv.
    """

    def __init__(self, corpus: Corpus, hyper: LdaHyper, rng: random.Random):
        corpus.require("sentences")
        if corpus.n_docs == 0 or corpus.n_tokens == 0:
            raise ValueError("corpus is empty")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        K = hyper.n_topics
        # per-(doc, sentence) word multisets, as (word, count) lists, and lengths
        self.sentence_words, self.sentence_len = [], []
        for m in range(corpus.n_docs):
            sentences = list(corpus.doc_sentences(m))
            self.sentence_words.append([sorted(Counter(s).items()) for s in sentences])
            self.sentence_len.append([len(s) for s in sentences])
        self.z = [[rng.randrange(K) for _ in doc_sents]
                  for doc_sents in self.sentence_words]
        vars(self).update(self._counts())
        # rising factorials of n_kw + b and of n_k + V b
        self._word_logs = LogRisingMemo(hyper.beta)
        self._total_logs = LogRisingMemo(corpus.n_words * hyper.beta)

    def _counts(self) -> dict:
        """The count tables of z and their word index, by attribute name:
        every token takes its sentence's topic."""
        corpus = self.corpus
        token_z = [[k for k, sentence in zip(zm, corpus.doc_sentences(m)) for _ in sentence]
                   for m, zm in enumerate(self.z)]
        return {"tables": counts_from_assignments(corpus.docword, token_z,
                                                  self.hyper.n_topics, corpus.n_words),
                "word_topics": word_topic_index(corpus.docword, token_z, corpus.n_words)}

    def check(self) -> None:
        """Check the count tables and the word index against a recount of z;
        raises ValueError."""
        require_recount(self, self._counts(), "z")

    def _move_sentence(self, m: int, s: int, k: int, sign: int) -> None:
        """Add (sign 1) or remove (sign -1) the tokens of sentence s of
        document m to or from topic k in the count tables and the word index."""
        tables = self.tables
        n = sign * self.sentence_len[m][s]
        tables.doc_topic[m][k] += n
        tables.topic_total[k] += n
        tables.doc_total[m] += n
        shift_counts(tables.topic_word[k], self.word_topics, self.sentence_words[m][s], k, sign)

    def _remove_sentence(self, m: int, s: int) -> int:
        k = self.z[m][s]
        self._move_sentence(m, s, k, -1)
        return k

    def _add_sentence(self, m: int, s: int, k: int) -> None:
        self.z[m][s] = k
        self._move_sentence(m, s, k, 1)

    def full_conditional(self, m: int, s: int) -> list:
        """Weights for sentence s of document m, its counts already removed,
        proportional to

        (n_mk + a) * prod_w rising(n_kw + b, N_ms^w) / rising(n_k + V b, N_ms)
        """
        tables = self.tables
        logs = list(map(math.log, map(add, tables.doc_topic[m], repeat(self.hyper.alpha))))
        return exp_normalize(log_unit_weights(
            logs, self.word_topics, tables.topic_total, self.sentence_words[m][s],
            self.sentence_len[m][s], self._word_logs, self._total_logs))

    def sweep(self) -> None:
        for m, doc_sents in enumerate(self.sentence_words):
            for s in range(len(doc_sents)):
                self._remove_sentence(m, s)
                k = sample_categorical(self.full_conditional(m, s), self.rng)
                self._add_sentence(m, s, k)

    def estimate(self) -> FittedLda:
        return FittedLda(theta=estimate_theta(self.tables, self.hyper.alpha),
                         phi=estimate_phi(self.tables, self.hyper.beta))
