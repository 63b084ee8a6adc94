"""Topic-modeling toolkit: thirteen collapsed Gibbs / CVB0 inference
algorithms behind one corpus model, with preprocessing, the standard
input/output file layouts, and coherence-based evaluation."""

from .core import SeededRng, sample_categorical, log_rising_factorial, CountTables, run_chain
from .corpus import (Corpus, CorpusError, ParseError, StopList, Vocabulary,
                     lemmatize, parse_plain, parse_sentences, parse_tagged,
                     preprocess)
from .lda import FittedLda, LdaCvb0, LdaGibbsSampler, LdaHyper
from .evaluation import average_coherence, topic_coherence

__version__ = "0.1.0"

__all__ = [
    "SeededRng", "sample_categorical", "log_rising_factorial", "CountTables", "run_chain",
    "Corpus", "CorpusError", "ParseError", "StopList", "Vocabulary",
    "lemmatize", "parse_plain", "parse_sentences", "parse_tagged", "preprocess",
    "FittedLda", "LdaCvb0", "LdaGibbsSampler", "LdaHyper",
    "average_coherence", "topic_coherence",
]
