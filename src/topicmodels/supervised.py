"""Label-constrained models: LDA chains with a set of allowed topics per
document, run by ``lda.LdaGibbsSampler``.

Labeled LDA (Ramage et al., EMNLP 2009) pins one topic to each unique label
and restricts every document's tokens to its own label set.  PLDA (Ramage,
Manning & Dumais, KDD 2011) gives each label a block of topics and appends a
background label (with its own block) to every document, so the allowed set
is the union of the document's label blocks plus the background block.  The
two samplers here are ``LdaGibbsSampler`` subclasses whose constructors only
build those sets and the topic names.
"""

import random

from .core import record, require_at_least, require_positive
from .corpus import Corpus
from .lda import LdaGibbsSampler, LdaHyper

BACKGROUND_LABEL = "global label"


@record(frozen=True)
class LabeledLdaHyper:
    alpha: float = 0.1
    beta: float = 0.01

    def __post_init__(self):
        require_positive({"alpha": self.alpha, "beta": self.beta})


@record(frozen=True)
class PldaHyper:
    topics_per_label: int = 2
    alpha: float = 0.1
    beta: float = 0.01

    def __post_init__(self):
        require_at_least({"topics_per_label": self.topics_per_label})
        require_positive({"alpha": self.alpha, "beta": self.beta})


class LabeledLdaSampler(LdaGibbsSampler):
    """Labeled LDA: topic k is label k, and a document may use its labels only."""

    def __init__(self, corpus: Corpus, hyper: LabeledLdaHyper, rng: random.Random):
        corpus.require("labels")
        if any(not ls for ls in corpus.labels):
            raise ValueError("every document needs at least one label")
        names = list(corpus.meta_vocabulary.id_to_word)
        super().__init__(corpus, LdaHyper(len(names), hyper.alpha, hyper.beta), rng,
                         allowed=corpus.labels, topic_labels=names)


class PldaSampler(LdaGibbsSampler):
    """PLDA: label l owns topics [l T, (l + 1) T) for T topics per label; the
    background label comes last, and every document may use its block."""

    def __init__(self, corpus: Corpus, hyper: PldaHyper, rng: random.Random):
        corpus.require("labels")
        T = hyper.topics_per_label
        names = list(corpus.meta_vocabulary.id_to_word) + [BACKGROUND_LABEL]
        K = len(names) * T
        background = list(range(K - T, K))
        allowed = [[t for l in ls for t in range(l * T, (l + 1) * T)] + background
                   for ls in corpus.labels]
        super().__init__(corpus, LdaHyper(K, hyper.alpha, hyper.beta), rng, allowed=allowed,
                         topic_labels=[name for name in names for _ in range(T)])
