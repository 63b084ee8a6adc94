"""Hierarchical Dirichlet process via the Chinese restaurant franchise.

Tokens sit at tables inside their document; each table serves one topic
shared across documents.  Tables and topics are born when sampled and are
compacted away the moment they empty, so live indices stay contiguous:

  token_table[m][n]  table of token n in document m (index into that doc's lists)
  table_topic[m][t]  topic served at table t of document m
  table_count[m][t]  tokens currently seated at that table
  n_k                tokens of topic k
  m_k / m_total      tables serving topic k, and all tables
  word_topics[v]     topic -> n_kv for each topic holding word v (the word index)
  inv_norm[k]        1/(n_k + V beta), cached per topic
"""

import random
from collections import Counter
from itertools import accumulate
from operator import mul

from .core import (counts_from_assignments, draw_each, fold_sum, record, require_at_least,
                   require_nonnegative, require_positive, require_recount, walk_sums)
from .corpus import Corpus
from .lda import FittedLda, index_phi, smoothed_rows


@record(frozen=True)
class HdpHyper:
    n_topics_init: int = 3
    alpha0: float = 0.1   # table-level concentration
    beta: float = 0.01    # topic-word smoothing
    gamma: float = 0.1    # franchise-level concentration

    def __post_init__(self):
        require_at_least({"n_topics_init": self.n_topics_init})
        require_nonnegative({"alpha0": self.alpha0, "gamma": self.gamma})
        require_positive({"beta": self.beta})


class HdpSampler:
    def __init__(self, corpus: Corpus, hyper: HdpHyper, rng: random.Random):
        corpus.require()
        # at alpha0 = 0 a token alone in its document has no table to sit at,
        # and at gamma = 0 the only token of a corpus has no topic to take
        if not hyper.alpha0 > 0 and any(len(doc) == 1 for doc in corpus.docword):
            raise ValueError("alpha0 must be > 0 when a document has one token")
        if not hyper.gamma > 0 and corpus.n_tokens == 1:
            raise ValueError("gamma must be > 0 when the corpus has one token")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        self.n_words = corpus.n_words
        K0 = hyper.n_topics_init
        # uniform topic per token, one table per (doc, topic) in use
        self.token_table = []
        self.table_topic = []
        for topics in draw_each(rng, K0, corpus.docword):
            table_of = {}  # topic -> its table, in order of first use
            self.token_table.append([table_of.setdefault(k, len(table_of)) for k in topics])
            self.table_topic.append(list(table_of))
        vars(self).update(self._counts(K0))
        for k in range(self.n_topics - 1, -1, -1):
            if self.m_k[k] == 0:
                self._delete_topic(k)

    @property
    def n_topics(self) -> int:
        return len(self.n_k)

    def _counts(self, n_topics: int) -> dict:
        """The counts of the seating plan over ``n_topics`` topics, with its
        word index and the 1/(n_k + V beta) cache, by attribute name."""
        for m, (tt, seats) in enumerate(zip(self.table_topic, self.token_table)):
            if not all(0 <= t < len(tt) for t in seats):
                raise ValueError(f"doc {m}: a token sits at a table that does not exist")
        topics = [[tt[t] for t in seats] for tt, seats in zip(self.table_topic, self.token_table)]
        tokens = counts_from_assignments(self.corpus.docword, topics, n_topics, self.n_words)
        table_count = [[0] * len(tt) for tt in self.table_topic]
        for counts, seats in zip(table_count, self.token_table):
            for t in seats:
                counts[t] += 1
        served = Counter(k for tt in self.table_topic for k in tt)
        v_beta = self.n_words * self.hyper.beta
        return {"table_count": table_count, "n_k": tokens["topic_total"],
                "m_k": [served[k] for k in range(n_topics)],
                "m_total": sum(map(len, self.table_topic)), "word_topics": tokens["word_topics"],
                "inv_norm": [1.0 / (n + v_beta) for n in tokens["topic_total"]]}

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
            for table in (self.n_k, self.m_k, self.inv_norm):
                table[k] = table[last]
            for tt in self.table_topic:
                for t, topic in enumerate(tt):
                    if topic == last:
                        tt[t] = k
            for wt in self.word_topics:
                if last in wt:  # k is in none: topic k holds no token
                    wt[k] = wt.pop(last)
        for table in (self.n_k, self.m_k, self.inv_norm):
            table.pop()

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
        self.n_k.append(0)
        self.m_k.append(0)
        self.inv_norm.append(1.0 / (self.n_words * self.hyper.beta))
        return self.n_topics - 1

    def _new_table(self, m: int, k: int) -> int:
        self.table_topic[m].append(k)
        self.table_count[m].append(0)
        self.m_k[k] += 1
        self.m_total += 1
        return len(self.table_topic[m]) - 1

    # -- chain ----------------------------------------------------------------

    def sweep(self) -> None:
        """Reseat every token once, documents then positions in index order.

        With the token removed, f_k(v) = (n_kv + beta)/(n_k + V beta) for a
        live topic and 1/V for a new one.  The token sits at table t of its
        document with weight n_mt f_{k_mt}(v), or at a new table with weight
          alpha0 (sum_k m_k f_k(v) + gamma/V) / (m_total + gamma)
        and a new table serves topic k with weight m_k f_k(v), or a new topic
        with weight gamma/V.

        The draws are bucketed as in SparseLDA (Yao, Mimno & McCallum, KDD
        2009).  With S = sum_k m_k/(n_k + V beta) over every live topic,
          sum_k m_k f_k(v) = beta S + sum_{k in word_topics[v]} m_k n_kv/(n_k + V beta),
        so a draw walks only the document's tables and the word's topics.  S
        is a running total, summed afresh at the start of each document so
        that round-off cannot build up.  A new table's dish comes from the
        word bucket first, then the smoothing bucket beta m_k/(n_k + V beta)
        by a bisect over its running sums, then the new topic.  Where
        round-off runs a walk past its end, the draw takes the walk's last
        outcome with weight (``core.walk_sums``).  The structural edits
        swap the last table or topic into a freed slot, in place, so the
        lists held here stay the sampler's own.
        """
        n_k, m_k = self.n_k, self.m_k
        word_topics, inv_norm = self.word_topics, self.inv_norm
        beta, gamma, alpha0 = self.hyper.beta, self.hyper.gamma, self.hyper.alpha0
        v_beta = self.n_words * beta
        new_topic = gamma / self.n_words
        rng_random = self.rng.random
        for m, doc in enumerate(self.corpus.docword):
            seats = self.token_table[m]
            table_topic = self.table_topic[m]
            table_count = self.table_count[m]
            smooth = fold_sum(map(mul, m_k, inv_norm))  # S
            for n, v in enumerate(doc):
                t = seats[n]
                k = table_topic[t]
                wt = word_topics[v]
                left = wt[k] - 1
                if left:
                    wt[k] = left
                else:
                    del wt[k]
                total = n_k[k] - 1
                n_k[k] = total
                inv = 1.0 / (total + v_beta)
                smooth += m_k[k] * (inv - inv_norm[k])
                inv_norm[k] = inv
                table_count[t] -= 1
                if table_count[t] == 0:
                    smooth -= inv
                    self._delete_table(m, t)

                word = 0.0
                for k, c in wt.items():
                    word += m_k[k] * c * inv_norm[k]
                mass = word + beta * smooth + new_topic
                weights = [c * (wt.get(k, 0) + beta) * inv_norm[k]
                           for c, k in zip(table_count, table_topic)]
                weights.append(alpha0 * mass / (self.m_total + gamma))
                cumulative = list(accumulate(weights))
                choice = walk_sums(cumulative, rng_random() * cumulative[-1])
                if choice == len(table_topic):
                    u = rng_random() * mass
                    if u < word:
                        for k, c in wt.items():
                            u -= m_k[k] * c * inv_norm[k]
                            if u < 0.0:
                                break
                    else:
                        u = (u - word) / beta
                        if m_k and (u < smooth or not gamma):
                            k = walk_sums(list(accumulate(map(mul, m_k, inv_norm))), u)
                        else:
                            k = self._new_topic()
                    choice = self._new_table(m, k)
                    smooth += inv_norm[k]
                k = table_topic[choice]
                seats[n] = choice
                table_count[choice] += 1
                wt[k] = wt.get(k, 0) + 1
                total = n_k[k] + 1
                n_k[k] = total
                inv = 1.0 / (total + v_beta)
                smooth += m_k[k] * (inv - inv_norm[k])
                inv_norm[k] = inv

    def estimate(self) -> FittedLda:
        """theta's row m adds up document m's table counts by the topic served."""
        rows = [[0] * self.n_topics for _ in self.table_topic]
        for row, tt, counts in zip(rows, self.table_topic, self.table_count):
            for k, c in zip(tt, counts):
                row[k] += c
        h = self.hyper
        return FittedLda(theta=smoothed_rows(rows, map(len, self.corpus.docword), h.alpha0),
                         phi=index_phi(self.word_topics, self.n_k, h.beta))
