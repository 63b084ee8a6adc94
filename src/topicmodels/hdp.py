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
from dataclasses import dataclass

from .core import require_at_least, require_nonnegative, require_positive, sample_categorical
from .corpus import Corpus
from .lda import FittedLda, smoothed_rows


@dataclass(frozen=True)
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
        self.n_words = V = corpus.n_words
        K0 = hyper.n_topics_init
        self.n_kv = [[0] * V for _ in range(K0)]
        self.n_k = [0] * K0
        self.m_k = [0] * K0
        self.m_total = 0
        self.token_table = []
        self.table_topic = []
        self.table_count = []
        # uniform topic per token, one table per (doc, topic) in use
        for m, doc in enumerate(corpus.docword):
            topics = [rng.randrange(K0) for _ in doc]
            topic_to_table = {}
            tt, tc, assignment = [], [], []
            for n, v in enumerate(doc):
                k = topics[n]
                t = topic_to_table.get(k)
                if t is None:
                    t = len(tt)
                    topic_to_table[k] = t
                    tt.append(k)
                    tc.append(0)
                    self.m_k[k] += 1
                    self.m_total += 1
                tc[t] += 1
                assignment.append(t)
                self.n_kv[k][v] += 1
                self.n_k[k] += 1
            self.token_table.append(assignment)
            self.table_topic.append(tt)
            self.table_count.append(tc)
        for k in range(self.n_topics - 1, -1, -1):
            if self.m_k[k] == 0:
                self._delete_topic(k)

    @property
    def n_topics(self) -> int:
        return len(self.n_k)

    def check(self) -> None:
        """Recount the franchise from the seating plan; raises ValueError.

        Every table and topic must be live, each table's count must match
        the tokens seated there, and m_k, m_total, n_kv and n_k must match
        the recount.
        """
        K = self.n_topics
        if any(mk <= 0 for mk in self.m_k):
            raise ValueError(f"a topic serves no table: m_k = {self.m_k}")
        if sum(self.m_k) != self.m_total:
            raise ValueError(f"m_total {self.m_total} != sum of m_k {sum(self.m_k)}")
        n_kv = [[0] * self.n_words for _ in range(K)]
        m_k = [0] * K
        for m, doc in enumerate(self.corpus.docword):
            tt = self.table_topic[m]
            counts = [0] * len(tt)
            for n, v in enumerate(doc):
                t = self.token_table[m][n]
                if not 0 <= t < len(tt):
                    raise ValueError(f"doc {m} token {n}: table {t} does not exist")
                counts[t] += 1
                n_kv[tt[t]][v] += 1
            if counts != self.table_count[m]:
                raise ValueError(f"doc {m}: table counts {self.table_count[m]} "
                                 f"!= seated tokens {counts}")
            if 0 in counts:
                raise ValueError(f"doc {m}: an empty table is still open")
            for k in tt:
                if not 0 <= k < K:
                    raise ValueError(f"doc {m}: table serves topic {k} out of range")
                m_k[k] += 1
        if m_k != self.m_k:
            raise ValueError(f"m_k {self.m_k} != recount {m_k}")
        if n_kv != self.n_kv:
            raise ValueError("n_kv disagrees with the recount from the seating plan")
        if [sum(r) for r in n_kv] != self.n_k:
            raise ValueError(f"n_k {self.n_k} != recount {[sum(r) for r in n_kv]}")

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

    def doc_topic_counts(self) -> list:
        """n_m^k recovered from the seating plan."""
        counts = [[0] * self.n_topics for _ in range(self.corpus.n_docs)]
        for m, assignment in enumerate(self.token_table):
            tt = self.table_topic[m]
            for t in assignment:
                counts[m][tt[t]] += 1
        return counts

    def estimate(self) -> FittedLda:
        doc_topic = self.doc_topic_counts()
        doc_totals = [len(d) for d in self.corpus.docword]
        return FittedLda(
            theta=smoothed_rows(doc_topic, doc_totals, self.hyper.alpha0),
            phi=smoothed_rows(self.n_kv, self.n_k, self.hyper.beta))
