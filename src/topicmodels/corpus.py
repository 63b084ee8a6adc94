"""Text preprocessing and input-file parsing.

The cleaning pipeline, per line: tokenize on whitespace, lowercase, drop
URL/punctuation/number noise, lemmatize with deterministic English rules,
then drop stopwords.  Model input files are expected to be *already*
cleaned (whitespace-separated tokens); the parsers here only index them.

Input layouts:
  - plain:      one document per line
  - sentences:  one document per line, sentences separated by "--"
  - tagged:     metadata TAB body, metadata items separated by "," or "--"
                (author lists, citation links, label lists)
"""

import functools
import re
from typing import Iterable, Sequence

from .core import record, warn

VOWELS = "aeiou"

# Forms the suffix rules would mangle, plus common irregular nouns/verbs.
# Values are the lemmas; identity entries protect words from the rules.
IRREGULAR_LEMMAS = {
    "am": "be", "is": "be", "are": "be", "was": "be", "were": "be",
    "been": "be", "being": "be",
    "has": "have", "had": "have", "having": "have",
    "does": "do", "did": "do", "done": "do", "doing": "do",
    "goes": "go", "went": "go", "gone": "go", "going": "go",
    "said": "say", "says": "say",
    "made": "make", "came": "come", "gave": "give", "given": "give",
    "took": "take", "taken": "take", "got": "get", "gotten": "get",
    "saw": "see", "seen": "see", "found": "find", "left": "leave",
    "men": "man", "women": "woman", "children": "child", "people": "people",
    "feet": "foot", "teeth": "tooth", "mice": "mouse", "geese": "goose",
    "lives": "life", "wives": "wife", "knives": "knife", "leaves": "leaf",
    "shelves": "shelf", "halves": "half", "thieves": "thief", "loaves": "loaf",
    "data": "datum", "criteria": "criterion", "phenomena": "phenomenon",
    "media": "medium", "analyses": "analysis", "theses": "thesis",
    "hypotheses": "hypothesis", "indices": "index", "matrices": "matrix",
    "vertices": "vertex", "appendices": "appendix", "crises": "crisis",
    "axes": "axis", "movies": "movie", "cookies": "cookie",
    "news": "news", "species": "species", "series": "series",
    "morning": "morning", "evening": "evening", "ceiling": "ceiling",
    "hundred": "hundred", "sacred": "sacred", "wicked": "wicked",
}

_URL_RE = re.compile(r"^(https?://|ftp://|www\.)", re.IGNORECASE)
_EDGE_PUNCT_RE = re.compile(r"^[^0-9a-z]+|[^0-9a-z]+$")
_LETTER_RE = re.compile(r"[a-z]")


class CorpusError(ValueError):
    """Raised when an input file cannot be turned into a corpus."""


class ParseError(CorpusError):
    """Raised for a malformed input line; the message names the line number."""


@record(frozen=True)
class StopList:
    """A set of lowercase stopword tokens."""

    words: frozenset

    def __contains__(self, token: str) -> bool:
        return token in self.words

    def __len__(self) -> int:
        return len(self.words)

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "StopList":
        cleaned = set()
        for w in words:
            w = w.strip().lower()
            if w:
                cleaned.add(w)
        return cls(frozenset(cleaned))

    @classmethod
    def load(cls, path, encoding: str = "utf-8") -> "StopList":
        with open(path, encoding=encoding) as f:
            return cls.from_words(f)

    @classmethod
    @functools.cache
    def default(cls) -> "StopList":
        """The bundled English list; read once, then shared (it is frozen)."""
        # reached from the package itself, so it reads from a zip install too,
        # where the data directory cannot be imported as a namespace package;
        # imported here, as only preprocess needs it
        from importlib import resources
        path = resources.files("topicmodels") / "data" / "default_stopwords.txt"
        text = path.read_text("utf-8")
        return cls.from_words(text.split())


def _measure(stem: str) -> int:
    """Count vowel-consonant transitions, Porter style."""
    m = 0
    prev_vowel = False
    for ch in stem:
        vowel = ch in VOWELS
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _ends_cvc(stem: str) -> bool:
    if len(stem) < 2:
        return False
    tail = stem[-3:]
    if len(tail) == 2:
        # a bare VC such as "us" counts as CVC with an implicit onset
        c2, c3 = tail
        c1 = "b"
    else:
        c1, c2, c3 = tail
    return (c1 not in VOWELS and c2 in VOWELS
            and c3 not in VOWELS and c3 not in "wxy")


def _has_vowel(stem: str) -> bool:
    return any(ch in VOWELS for ch in stem)


def _strip_verb_suffix(word: str, suffix: str) -> str:
    base = word[: -len(suffix)]
    if not _has_vowel(base):
        return word
    if len(base) >= 2 and base[-1] == base[-2] and base[-1] not in "lsz":
        return base[:-1]  # stopped -> stop
    if _measure(base) == 1 and _ends_cvc(base):
        return base + "e"  # liked -> like, using -> use
    return base


def lemmatize(token: str) -> str:
    """Deterministic rule-based English lemmatizer.

    Handles an irregular-form table plus -s/-es/-ies, -ed and -ing suffix
    rules; it is intentionally approximate outside those patterns.
    """
    if token in IRREGULAR_LEMMAS:
        return IRREGULAR_LEMMAS[token]
    if token.endswith("ies") and len(token) > 4:
        return token[:-3] + "y"  # studies -> study
    if (len(token) > 4 and token[-4:] in ("sses", "ches", "shes")) or \
            (len(token) > 3 and token[-3:] in ("xes", "zes")):
        return token[:-2]  # classes -> class, boxes -> box
    if token.endswith("s") and len(token) >= 4 and \
            not token.endswith(("ss", "us", "is")):
        return token[:-1]  # phenomenons -> phenomenon, years -> year
    if token.endswith("ied") and len(token) > 4:
        return token[:-3] + "y"  # studied -> study
    if token.endswith("eed"):
        return token  # need, agreed: left alone
    if token.endswith("ed") and len(token) >= 4:
        return _strip_verb_suffix(token, "ed")
    if token.endswith("ing") and len(token) >= 5:
        return _strip_verb_suffix(token, "ing")
    return token


# Distinct raw tokens whose cleaning is remembered.  Cleaning is a pure
# function of the token, and a corpus repeats its tokens many times over.
CLEAN_CACHE_SIZE = 1 << 16


@functools.lru_cache(maxsize=CLEAN_CACHE_SIZE)
def _clean_token(raw: str) -> tuple[str, str] | None:
    """(surface, lemma) of one raw token; None for URL, punctuation or number noise."""
    raw = raw.lower()
    if _URL_RE.match(raw):
        return None
    token = _EDGE_PUNCT_RE.sub("", raw)
    if not token or not _LETTER_RE.search(token):
        return None  # pure punctuation or pure digits
    return token, lemmatize(token)


def clean_tokens(line: str) -> list[tuple[str, str]]:
    """(surface, lemma) pairs after lowercasing and noise removal.  No stopwording."""
    return [pair for pair in map(_clean_token, line.split()) if pair is not None]


def preprocess(line: str, stoplist: StopList | None = None) -> str:
    """Clean one raw document line into space-joined tokens.

    A token is removed when either its surface form or its lemma is a
    stopword, so inflected stopwords ("novels", "wishing") vanish even
    though the suffix rules run first.
    """
    stop = (StopList.default() if stoplist is None else stoplist).words
    kept = [lemma for token, lemma in clean_tokens(line)
            if token not in stop and lemma not in stop]
    return " ".join(kept)


class Vocabulary:
    """Bijective token <-> index map, indices assigned in first-occurrence order."""

    def __init__(self):
        self.word_to_id: dict[str, int] = {}
        self.id_to_word: list[str] = []

    def add(self, word: str) -> int:
        wid = self.word_to_id.get(word)
        if wid is None:
            wid = len(self.id_to_word)
            self.word_to_id[word] = wid
            self.id_to_word.append(word)
        return wid

    def __len__(self) -> int:
        return len(self.id_to_word)

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_id

    def word(self, wid: int) -> str:
        return self.id_to_word[wid]

    def id(self, word: str) -> int:
        return self.word_to_id[word]


@record
class Corpus:
    """Indexed documents plus optional per-document structure.

    docword[m][n] is the vocabulary id of token n of document m.  When
    present, sentences[m] holds cumulative sentence end offsets into
    docword[m] (the last offset equals the document length); authors,
    links and labels hold deduplicated metadata ids drawn from
    meta_vocabulary.
    """

    docword: list | None = None          # None: a new empty list
    vocabulary: Vocabulary | None = None  # None: a new empty Vocabulary
    sentences: list | None = None
    authors: list | None = None
    links: list | None = None
    labels: list | None = None
    meta_vocabulary: Vocabulary | None = None

    def __post_init__(self):
        if self.docword is None:
            self.docword = []
        if self.vocabulary is None:
            self.vocabulary = Vocabulary()

    @property
    def n_docs(self) -> int:
        return len(self.docword)

    @property
    def n_words(self) -> int:
        return len(self.vocabulary)

    @property
    def n_tokens(self) -> int:
        return sum(len(d) for d in self.docword)

    def doc_sentences(self, m: int):
        """Yield the token-id slices of document m's sentences."""
        start = 0
        for end in self.sentences[m]:
            yield self.docword[m][start:end]
            start = end

    def require(self, attribute: str) -> None:
        if getattr(self, attribute) is None:
            raise CorpusError(f"corpus has no {attribute}; parse the matching input layout first")


def parse_plain(lines: Iterable[str]) -> Corpus:
    """Index one preprocessed document per line."""
    corpus = Corpus()
    dropped = 0
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            dropped += 1
            warn(__name__, "line %d: empty document dropped", lineno)
            continue
        corpus.docword.append([corpus.vocabulary.add(t) for t in tokens])
    if not corpus.docword:
        raise CorpusError("corpus is empty: no line contained any token")
    if dropped:
        warn(__name__, "dropped %d empty document(s)", dropped)
    return corpus


def parse_sentences(lines: Iterable[str], sep: str = "--") -> Corpus:
    """Index documents whose sentences are separated by ``sep``."""
    if not sep:
        raise ValueError("sentence separator must be non-empty")
    corpus = Corpus()
    corpus.sentences = []
    for lineno, line in enumerate(lines, start=1):
        token_ids = []
        offsets = []
        for chunk in line.split(sep):
            tokens = chunk.split()
            if not tokens:
                continue  # empty sentence (e.g. trailing separator)
            token_ids.extend(corpus.vocabulary.add(t) for t in tokens)
            offsets.append(len(token_ids))
        if not offsets:
            warn(__name__, "line %d: document with no non-empty sentence dropped", lineno)
            continue
        corpus.docword.append(token_ids)
        corpus.sentences.append(offsets)
    if not corpus.docword:
        raise CorpusError("corpus is empty: no line contained any sentence")
    return corpus


_TAGGED_FIELDS = ("authors", "links", "labels")


def parse_tagged(lines: Iterable[str], kind: str, item_sep: str,
                 field_sep: str = "\t") -> Corpus:
    """Index documents of the form ``metadata<TAB>body``.

    ``kind`` selects which corpus field ("authors", "links" or "labels")
    receives the metadata ids; items are deduplicated per document, with
    first occurrence deciding both order and vocabulary ids.  An empty
    metadata field is a parse error for authors (the author-topic model
    cannot place such a document) but allowed for links and labels, where
    the models give unannotated documents a sensible meaning.
    """
    if kind not in _TAGGED_FIELDS:
        raise ValueError(f"kind must be one of {_TAGGED_FIELDS}, got {kind!r}")
    corpus = Corpus()
    corpus.meta_vocabulary = Vocabulary()
    meta_lists = []
    dropped = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            dropped += 1
            warn(__name__, "line %d: empty document dropped", lineno)
            continue
        if line.count(field_sep) != 1:
            raise ParseError(
                f"line {lineno}: expected exactly one {field_sep!r} between "
                f"{kind} and text, found {line.count(field_sep)}")
        left, right = line.split(field_sep)
        items = []
        for item in left.split(item_sep):
            item = item.strip()
            if item and item not in items:
                items.append(item)
        if not items and kind == "authors":
            raise ParseError(f"line {lineno}: document has no {kind}")
        tokens = right.split()
        if not tokens:
            dropped += 1
            warn(__name__, "line %d: empty document dropped", lineno)
            continue
        corpus.docword.append([corpus.vocabulary.add(t) for t in tokens])
        meta_lists.append([corpus.meta_vocabulary.add(i) for i in items])
    if not corpus.docword:
        raise CorpusError("corpus is empty: no line contained any token")
    if dropped:
        warn(__name__, "dropped %d empty document(s)", dropped)
    setattr(corpus, kind, meta_lists)
    return corpus


def read_lines(path, encoding: str = "utf-8") -> list[str]:
    with open(path, encoding=encoding) as f:
        return [line.rstrip("\n") for line in f]
