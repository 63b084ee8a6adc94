"""Label-constrained models.

Labeled LDA pins one topic to each unique label and restricts every
document's tokens to its own label set.  PLDA gives each label a block of
topics and appends a background label (with its own block) to every
document, so the admissible set is the union of the document's label
blocks plus the background block.
"""

import random
from dataclasses import dataclass

from .core import require_at_least, require_positive, sample_categorical
from .corpus import Corpus
from .lda import smoothed_rows

BACKGROUND_LABEL = "global label"


@dataclass(frozen=True)
class LabeledLdaHyper:
    alpha: float = 0.1
    beta: float = 0.01
    iterations: int = 1000

    def __post_init__(self):
        require_at_least({"iterations": self.iterations})
        require_positive({"alpha": self.alpha, "beta": self.beta})


@dataclass
class LabeledLdaFit:
    theta: list
    phi: list
    topic_labels: list  # label string per topic


def admissible_topics_labeled(doc_labels: list) -> list:
    """Labeled LDA: the admissible topics are exactly the document's label ids."""
    if not doc_labels:
        raise ValueError("document has no label")
    return list(doc_labels)


class LabeledLdaSampler:
    """LDA chain whose topic support per document is its label set."""

    def __init__(self, corpus: Corpus, hyper: LabeledLdaHyper, rng: random.Random):
        corpus.require("labels")
        if corpus.n_docs == 0 or corpus.n_tokens == 0:
            raise ValueError("corpus is empty")
        if any(not ls for ls in corpus.labels):
            raise ValueError("every document needs at least one label")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        self.n_topics = len(corpus.meta_vocabulary)  # one topic per unique label
        self.admissible = [admissible_topics_labeled(ls) for ls in corpus.labels]
        K, V = self.n_topics, corpus.n_words
        self.z = [[rng.choice(self.admissible[m]) for _ in doc]
                  for m, doc in enumerate(corpus.docword)]
        self.doc_topic = [[0] * K for _ in range(corpus.n_docs)]
        self.topic_word = [[0] * V for _ in range(K)]
        self.topic_total = [0] * K
        for m, doc in enumerate(corpus.docword):
            for n, v in enumerate(doc):
                k = self.z[m][n]
                self.doc_topic[m][k] += 1
                self.topic_word[k][v] += 1
                self.topic_total[k] += 1

    def full_conditional(self, m: int, v: int) -> list:
        """Length-K weights, zero outside the document's admissible set.

        weight_k = (n_kv + b)/(n_k + V b) * (n_mk + a)/sum_k'(n_mk' + a)
        """
        hyper = self.hyper
        K, V = self.n_topics, self.corpus.n_words
        v_beta = V * hyper.beta
        n_mk = self.doc_topic[m]
        denom = sum(n_mk) + K * hyper.alpha
        out = [0.0] * K
        for k in self.admissible[m]:
            out[k] = ((self.topic_word[k][v] + hyper.beta)
                      / (self.topic_total[k] + v_beta)
                      * (n_mk[k] + hyper.alpha) / denom)
        return out

    def sweep(self) -> None:
        for m, doc in enumerate(self.corpus.docword):
            n_mk = self.doc_topic[m]
            admissible = self.admissible[m]
            for n, v in enumerate(doc):
                k = self.z[m][n]
                n_mk[k] -= 1
                self.topic_word[k][v] -= 1
                self.topic_total[k] -= 1
                if len(admissible) == 1:
                    k = admissible[0]
                else:
                    weights = self.full_conditional(m, v)
                    k = sample_categorical(weights, self.rng)
                self.z[m][n] = k
                n_mk[k] += 1
                self.topic_word[k][v] += 1
                self.topic_total[k] += 1

    def estimate(self) -> LabeledLdaFit:
        doc_totals = [len(d) for d in self.corpus.docword]
        return LabeledLdaFit(
            theta=smoothed_rows(self.doc_topic, doc_totals, self.hyper.alpha),
            phi=smoothed_rows(self.topic_word, self.topic_total, self.hyper.beta),
            topic_labels=list(self.corpus.meta_vocabulary.id_to_word))


@dataclass(frozen=True)
class PldaHyper:
    topics_per_label: int = 2
    alpha: float = 0.1
    beta: float = 0.01
    iterations: int = 1000

    def __post_init__(self):
        require_at_least({"topics_per_label": self.topics_per_label,
                          "iterations": self.iterations})
        require_positive({"alpha": self.alpha, "beta": self.beta})


class PldaLabelSpace:
    """Disjoint per-label topic blocks; the background label comes last."""

    def __init__(self, label_names: list, topics_per_label: int):
        self.label_names = list(label_names) + [BACKGROUND_LABEL]
        self.topics_per_label = topics_per_label

    @property
    def n_labels(self) -> int:
        return len(self.label_names)

    @property
    def background_label(self) -> int:
        return self.n_labels - 1

    @property
    def n_topics(self) -> int:
        return self.n_labels * self.topics_per_label

    def block(self, label: int) -> range:
        start = label * self.topics_per_label
        return range(start, start + self.topics_per_label)

    def label_of_topic(self, topic: int) -> int:
        return topic // self.topics_per_label

    def admissible(self, doc_labels: list) -> list:
        """Union of the document's label blocks plus the background block."""
        topics = []
        for l in doc_labels:
            topics.extend(self.block(l))
        topics.extend(self.block(self.background_label))
        return topics


@dataclass
class PldaFit:
    theta: list
    phi: list
    topic_labels: list  # label string per topic, "global label" for background


class PldaSampler:
    """Collapsed chain over global topic ids; the topic id fixes the label."""

    def __init__(self, corpus: Corpus, hyper: PldaHyper, rng: random.Random):
        corpus.require("labels")
        if corpus.n_docs == 0 or corpus.n_tokens == 0:
            raise ValueError("corpus is empty")
        self.corpus = corpus
        self.hyper = hyper
        self.rng = rng
        self.label_space = PldaLabelSpace(corpus.meta_vocabulary.id_to_word,
                                          hyper.topics_per_label)
        self.admissible = [self.label_space.admissible(ls) for ls in corpus.labels]
        K, V = self.label_space.n_topics, corpus.n_words
        self.z = [[rng.choice(self.admissible[m]) for _ in doc]
                  for m, doc in enumerate(corpus.docword)]
        self.doc_topic = [[0] * K for _ in range(corpus.n_docs)]
        self.topic_word = [[0] * V for _ in range(K)]
        self.topic_total = [0] * K
        for m, doc in enumerate(corpus.docword):
            for n, v in enumerate(doc):
                k = self.z[m][n]
                self.doc_topic[m][k] += 1
                self.topic_word[k][v] += 1
                self.topic_total[k] += 1

    @property
    def n_topics(self) -> int:
        return self.label_space.n_topics

    def full_conditional(self, m: int, v: int) -> list:
        """Length-K weights over global topic ids, zero outside admissible blocks.

        weight_t = (n_mt + a) * (n_tv + b)/(n_t + V b)
        """
        hyper = self.hyper
        V = self.corpus.n_words
        v_beta = V * hyper.beta
        n_mt = self.doc_topic[m]
        out = [0.0] * self.n_topics
        for t in self.admissible[m]:
            out[t] = ((n_mt[t] + hyper.alpha)
                      * (self.topic_word[t][v] + hyper.beta)
                      / (self.topic_total[t] + v_beta))
        return out

    def sweep(self) -> None:
        for m, doc in enumerate(self.corpus.docword):
            n_mt = self.doc_topic[m]
            for n, v in enumerate(doc):
                t = self.z[m][n]
                n_mt[t] -= 1
                self.topic_word[t][v] -= 1
                self.topic_total[t] -= 1
                t = sample_categorical(self.full_conditional(m, v), self.rng)
                self.z[m][n] = t
                n_mt[t] += 1
                self.topic_word[t][v] += 1
                self.topic_total[t] += 1

    def estimate(self) -> PldaFit:
        doc_totals = [len(d) for d in self.corpus.docword]
        names = [self.label_space.label_names[self.label_space.label_of_topic(t)]
                 for t in range(self.n_topics)]
        return PldaFit(
            theta=smoothed_rows(self.doc_topic, doc_totals, self.hyper.alpha),
            phi=smoothed_rows(self.topic_word, self.topic_total, self.hyper.beta),
            topic_labels=names)
