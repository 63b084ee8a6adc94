"""Hierarchical Dirichlet process via the Chinese restaurant franchise.

Tokens sit at tables inside their document; each table serves one topic
shared across documents.  Tables and topics are born when sampled and are
compacted away the moment they empty, so live indices stay contiguous:

  token_table[m][n]  table of token n in document m (index into that doc's lists)
  table_topic[m][t]  topic served at table t of document m
  table_count[m][t]  tokens currently seated at that table
  n_kv / n_k         topic-word and topic-total token counts
  m_k / m_total      tables serving topic k, and all tables
"""

import random
from collections import Counter

from .core import (counts_from_assignments, record, require_at_least, require_nonnegative,
                   require_positive, require_recount, sample_categorical)
from .corpus import Corpus
from .lda import FittedLda, estimate_theta, smoothed_rows


@record(frozen=True)
class HdpHyper:
    n_topics_init: int = 3
    alpha0: float = 0.1   # table-level concentration
    beta: float = 0.01    # topic-word smoothing
    gamma: float = 0.1    # franchise-level concentration
    iterations: int = 1000

    def __post_init__(self):
        require_at_least({"n_topics_init": self.n_topics_init, "iterations": self.iterations})
        require_nonnegative({"alpha0": self.alpha0, "gamma": self.gamma})
        require_positive({"beta": self.beta})


class HdpSampler:
    def __init__(self, corpus: Corpus, hyper: HdpHyper, rng: random.Random):
        if corpus.n_docs == 0 or corpus.n_tokens == 0:
            raise ValueError("corpus is empty")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        self.n_words = corpus.n_words
        K0 = hyper.n_topics_init
        # uniform topic per token, one table per (doc, topic) in use
        self.token_table = []
        self.table_topic = []
        for doc in corpus.docword:
            table_of = {}  # topic -> its table, in order of first use
            self.token_table.append([table_of.setdefault(rng.randrange(K0), len(table_of))
                                     for _ in doc])
            self.table_topic.append(list(table_of))
        vars(self).update(self._counts(K0))
        for k in range(self.n_topics - 1, -1, -1):
            if self.m_k[k] == 0:
                self._delete_topic(k)

    @property
    def n_topics(self) -> int:
        return len(self.n_k)

    def _token_topics(self) -> list:
        """The topic of every token: the topic its table serves."""
        return [[tt[t] for t in seats] for tt, seats in zip(self.table_topic, self.token_table)]

    def _counts(self, n_topics: int) -> dict:
        """The counts of the seating plan over ``n_topics`` topics, by attribute name."""
        for m, (tt, seats) in enumerate(zip(self.table_topic, self.token_table)):
            if not all(0 <= t < len(tt) for t in seats):
                raise ValueError(f"doc {m}: a token sits at a table that does not exist")
        tokens = counts_from_assignments(self.corpus.docword, self._token_topics(), n_topics,
                                         self.n_words)
        served = Counter(k for tt in self.table_topic for k in tt)
        return {"table_count": [[seats.count(t) for t in range(len(tt))]
                                for tt, seats in zip(self.table_topic, self.token_table)],
                "n_kv": tokens.topic_word, "n_k": tokens.topic_total,
                "m_k": [served[k] for k in range(n_topics)],
                "m_total": sum(map(len, self.table_topic))}

    def check(self) -> None:
        """Check the counts against a recount of the seating plan, and that
        every table and topic is live; raises ValueError."""
        require_recount(self, self._counts(self.n_topics), "the seating plan")
        if 0 in self.m_k:
            raise ValueError(f"a topic serves no table: m_k = {self.m_k}")
        for m, counts in enumerate(self.table_count):
            if 0 in counts:
                raise ValueError(f"doc {m}: an empty table is still open")

    # -- structural edits ---------------------------------------------------

    def _delete_topic(self, k: int) -> None:
        last = self.n_topics - 1
        if k != last:
            self.n_kv[k] = self.n_kv[last]
            self.n_k[k] = self.n_k[last]
            self.m_k[k] = self.m_k[last]
            for tt in self.table_topic:
                for t, topic in enumerate(tt):
                    if topic == last:
                        tt[t] = k
        self.n_kv.pop()
        self.n_k.pop()
        self.m_k.pop()

    def _delete_table(self, m: int, t: int) -> None:
        k = self.table_topic[m][t]
        self.m_k[k] -= 1
        self.m_total -= 1
        last = len(self.table_topic[m]) - 1
        if t != last:
            self.table_topic[m][t] = self.table_topic[m][last]
            self.table_count[m][t] = self.table_count[m][last]
            for n, tn in enumerate(self.token_table[m]):
                if tn == last:
                    self.token_table[m][n] = t
        self.table_topic[m].pop()
        self.table_count[m].pop()
        if self.m_k[k] == 0:
            self._delete_topic(k)

    def _new_topic(self) -> int:
        self.n_kv.append([0] * self.n_words)
        self.n_k.append(0)
        self.m_k.append(0)
        return self.n_topics - 1

    def _new_table(self, m: int, k: int) -> int:
        self.table_topic[m].append(k)
        self.table_count[m].append(0)
        self.m_k[k] += 1
        self.m_total += 1
        return len(self.table_topic[m]) - 1

    # -- conditional pieces ---------------------------------------------------

    def cond_density(self, k: int | None, v: int) -> float:
        """Predictive word density f_k(v) with the current token excluded.

        (n_kv + beta)/(n_k + V beta) for a live topic; 1/V for a new one.
        """
        V = self.n_words
        if k is None:
            return 1.0 / V
        return (self.n_kv[k][v] + self.hyper.beta) / (self.n_k[k] + V * self.hyper.beta)

    # The three weight builders below evaluate cond_density inline, with the
    # same operations in the same order.

    def new_table_likelihood(self, v: int) -> float:
        """Mixture over topics a fresh table could serve.

        sum_k m_k/(m_total + g) f_k(v) + g/(m_total + g) * 1/V
        """
        gamma, beta = self.hyper.gamma, self.hyper.beta
        V = self.n_words
        v_beta = V * beta
        denom = self.m_total + gamma
        acc = gamma / denom * (1.0 / V)
        for mk, row, nk in zip(self.m_k, self.n_kv, self.n_k):
            acc += mk / denom * ((row[v] + beta) / (nk + v_beta))
        return acc

    def table_weights(self, m: int, v: int) -> list:
        """Seating weights for the doc's live tables plus one new-table entry.

        existing t: n_mt * f_{k_mt}(v);  new: alpha0 * new_table_likelihood(v)
        """
        beta = self.hyper.beta
        v_beta = self.n_words * beta
        n_kv, n_k = self.n_kv, self.n_k
        weights = [c * ((n_kv[k][v] + beta) / (n_k[k] + v_beta))
                   for c, k in zip(self.table_count[m], self.table_topic[m])]
        weights.append(self.hyper.alpha0 * self.new_table_likelihood(v))
        return weights

    def topic_weights_for_new_table(self, v: int) -> list:
        """Dish weights for a fresh table: live topics then one new-topic entry.

        existing k: m_k * f_k(v);  new: gamma / V
        """
        beta = self.hyper.beta
        V = self.n_words
        v_beta = V * beta
        out = [mk * ((row[v] + beta) / (nk + v_beta))
               for mk, row, nk in zip(self.m_k, self.n_kv, self.n_k)]
        out.append(self.hyper.gamma * (1.0 / V))
        return out

    # -- chain ----------------------------------------------------------------

    def _resample_token(self, m: int, n: int, v: int) -> None:
        t = self.token_table[m][n]
        k = self.table_topic[m][t]
        self.n_kv[k][v] -= 1
        self.n_k[k] -= 1
        self.table_count[m][t] -= 1
        if self.table_count[m][t] == 0:
            self._delete_table(m, t)

        choice = sample_categorical(self.table_weights(m, v), self.rng)
        if choice == len(self.table_topic[m]):
            topic_choice = sample_categorical(self.topic_weights_for_new_table(v), self.rng)
            if topic_choice == self.n_topics:
                topic_choice = self._new_topic()
            choice = self._new_table(m, topic_choice)
        k = self.table_topic[m][choice]
        self.token_table[m][n] = choice
        self.table_count[m][choice] += 1
        self.n_kv[k][v] += 1
        self.n_k[k] += 1

    def sweep(self) -> None:
        for m, doc in enumerate(self.corpus.docword):
            for n, v in enumerate(doc):
                self._resample_token(m, n, v)

    def estimate(self) -> FittedLda:
        tokens = counts_from_assignments(self.corpus.docword, self._token_topics(),
                                         self.n_topics, self.n_words)
        return FittedLda(theta=estimate_theta(tokens, self.hyper.alpha0),
                         phi=smoothed_rows(self.n_kv, self.n_k, self.hyper.beta))
