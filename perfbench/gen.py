"""Seeded synthetic corpora with planted topics, in every input layout.

Every word belongs to exactly one planted topic, so a fitted topic's top
words can be scored against the truth (topic purity).  Words are built as
``q`` + consonant-vowel syllables + a final consonant: no English word or
stopword has that shape, and the lemmatizer leaves it unchanged, so the
noisy "raw" rendering of a corpus cleans back to the plain rendering
exactly.

The same (spec, seed) gives the same bytes in any process: the generator
draws only from its own string-seeded ``random.Random`` and never iterates
over a set.
"""

import bisect
import hashlib
import random
from dataclasses import dataclass

_ONSETS = "bfgklmnprtvz"
_VOWELS = "aeio"
_FINALS = "bklmnprt"
_SYLLABLES = [c + v for c in _ONSETS for v in _VOWELS]

# Noise that preprocessing must remove: every word here is on any English
# stop list, and the other tokens are URLs, numbers and bare punctuation.
_STOPWORDS = ("the", "and", "of", "to", "in", "a", "is", "it", "for", "with",
              "on", "that", "this", "was", "are", "as", "by", "from", "at", "or")
_JUNK = ("http://t.co/x7Ab2", "https://example.org/a/b?c=1", "www.site.net/p",
         "2024", "3.14", "100%", "--", "...", "&", "(12)", "#1")


def word(i: int) -> str:
    """The i-th vocabulary word: distinct for distinct i, never English."""
    syl = []
    n = i
    while True:
        n, r = divmod(n, len(_SYLLABLES))
        syl.append(_SYLLABLES[r])
        if n == 0:
            break
    return "q" + _VOWELS[i % len(_VOWELS)] + "".join(syl) + _FINALS[i % len(_FINALS)]


@dataclass(frozen=True)
class Spec:
    """Shape of one synthetic corpus."""
    docs: int
    topics: int
    words_per_topic: int
    sentences: int          # per document; each sentence draws from one topic
    sentence_len: int
    topics_per_doc: int     # a document mixes 1..topics_per_doc planted topics
    zipf: float = 1.0       # within-topic word weights fall as 1/(rank+1)^zipf


class Corpus:
    """One generated corpus: token lists plus per-document metadata."""

    def __init__(self, spec: Spec, seed: int):
        self._key = f"perfbench:{seed}:{spec}"
        rng = random.Random(self._key)
        self.spec = spec
        block = spec.words_per_topic
        weights = [1.0 / (r + 1) ** spec.zipf for r in range(block)]
        cum = []
        acc = 0.0
        for w in weights:
            acc += w
            cum.append(acc)
        self.topic_of = {}
        for t in range(spec.topics):
            for r in range(block):
                self.topic_of[word(t * block + r)] = t
        self.docs = []      # list of sentences, each a list of words
        self.doc_topics = []
        for _ in range(spec.docs):
            n_topics = rng.randint(1, spec.topics_per_doc)
            topics = rng.sample(range(spec.topics), n_topics)
            sentences = []
            for _ in range(spec.sentences):
                t = topics[rng.randrange(n_topics)]
                sentences.append([
                    word(t * block + bisect.bisect_left(cum, rng.random() * acc))
                    for _ in range(spec.sentence_len)])
            self.docs.append(sentences)
            self.doc_topics.append(sorted(topics))

    # -- layouts -------------------------------------------------------------

    def plain(self) -> str:
        return "".join(" ".join(w for s in d for w in s) + "\n" for d in self.docs)

    def sentences(self) -> str:
        return "".join(" -- ".join(" ".join(s) for s in d) + "\n" for d in self.docs)

    def _tagged(self, items, sep: str) -> str:
        return "".join(sep.join(meta) + "\t" + " ".join(w for s in d for w in s) + "\n"
                       for meta, d in zip(items, self.docs))

    def authors(self) -> str:
        """Two authors per planted topic; a document is written by one per topic."""
        items = [[f"au{2 * t + (m + t) % 2}" for t in ts]
                 for m, ts in enumerate(self.doc_topics)]
        return self._tagged(items, ",")

    def links(self) -> str:
        """Each planted topic cites its own three link targets."""
        items = [[f"lk{3 * t + (m + i) % 3}" for i, t in enumerate(ts)]
                 for m, ts in enumerate(self.doc_topics)]
        return self._tagged(items, "--")

    def labels(self) -> str:
        """A document is labelled with its planted topics."""
        return self._tagged([[f"lb{t}" for t in ts] for ts in self.doc_topics], ",")

    def raw(self) -> str:
        """The plain layout with noise that ``preprocess`` must strip.

        Words are capitalised, pluralised with "s" and wrapped in punctuation;
        stopwords, URLs, numbers and bare punctuation are scattered between
        them.  Cleaning this text must give back ``plain()`` byte for byte.
        """
        rng = random.Random(self._key + ":raw")
        lines = []
        for d in self.docs:
            out = []
            for w in (w for s in d for w in s):
                r = rng.random()
                if r < 0.15:
                    w = w.capitalize()
                elif r < 0.30:
                    w = w + "s"
                elif r < 0.40:
                    w = rng.choice(("(", '"', "'")) + w + rng.choice((",", ".", ")", '"', "!", ";"))
                out.append(w)
                r = rng.random()
                if r < 0.5:
                    out.append(rng.choice(_STOPWORDS))
                elif r < 0.6:
                    out.append(rng.choice(_JUNK))
            lines.append(" ".join(out) + "\n")
        return "".join(lines)


def stats(text: str, layout: str) -> dict:
    """Document, token and vocabulary counts of one rendered input, plus its
    word set and its metadata items (authors, links or labels)."""
    docs = tokens = 0
    words = set()
    items = set()
    for line in text.splitlines():
        if layout == "tagged":
            meta, line = line.split("\t", 1)
            items.update(i for i in meta.replace("--", ",").split(",") if i)
        body = [w for w in line.split() if not (layout == "sentences" and w == "--")]
        docs += 1
        tokens += len(body)
        words.update(body)
    return {"docs": docs, "tokens": tokens, "vocab": len(words), "words": words, "items": items}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
