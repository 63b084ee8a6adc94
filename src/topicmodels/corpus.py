"""Text preprocessing and input-file parsing.

The cleaning pipeline, per line: tokenize on whitespace, lowercase, drop
URL/punctuation/number noise, lemmatize with deterministic English rules,
then drop stopwords.  Model input files are expected to be *already*
cleaned (whitespace-separated tokens); the parsers here only index them.

Input layouts:
  - plain:      one document per line
  - sentences:  one document per line, sentences separated by "--"
  - tagged:     metadata TAB body; the items of an author or label list are
                separated by ",", citation links by "--"
"""

import functools
import re
from typing import Iterable

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
    """A set of lowercase stopword tokens.  Each list keeps its own token
    cache for ``preprocess``; equality and hash see the words alone."""

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

    @functools.cached_property
    def token_cache(self) -> "_TokenCache":
        """The cache ``preprocess`` cleans with under this list, made on first use."""
        return _TokenCache(self.words)


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


# Entries in each level of a stop list's token cache.  Cleaning is a pure
# function of the token, and a corpus repeats its tokens many times over.
CLEAN_CACHE_SIZE = 1 << 16

_ALNUM = frozenset("0123456789abcdefghijklmnopqrstuvwxyz")


def _clean_token(raw: str) -> str | None:
    """Surface form of one raw token; None for URL, punctuation or number noise."""
    raw = raw.lower()
    if _URL_RE.match(raw):
        return None
    # the edge regex removes nothing from a token that ends and starts in
    # [0-9a-z]; the end is tested first, as it more often holds punctuation
    token = raw if raw[-1] in _ALNUM and raw[0] in _ALNUM else _EDGE_PUNCT_RE.sub("", raw)
    if not token or not _LETTER_RE.search(token):
        return None  # pure punctuation or pure digits
    return token


class _TokenCache(dict):
    """raw token -> the text it leaves in a cleaned line: its lemma, or ""
    when cleaning or the stop list drops it.

    A miss looks in ``previous``, then in ``surface``, keyed by the cleaned
    surface form, so that the raw variants of one word ("Word", "word,",
    "(word)") share one lemmatize call and one stop test.  Each level holds
    at most CLEAN_CACHE_SIZE entries.  A full cache hands its entries to
    ``previous`` and refills, so a token used since the last hand-over stays
    cached, as in an LRU cache but with no bookkeeping on a hit; a full
    ``surface`` empties itself.
    """

    def __init__(self, stop: frozenset):
        super().__init__()
        self.stop = stop
        self.previous: dict[str, str] = {}
        self.surface: dict[str, str] = {}

    def __missing__(self, raw: str) -> str:
        text = self.previous.get(raw)
        if text is None:
            token = _clean_token(raw)
            if token is None:
                text = ""
            else:
                surface = self.surface
                text = surface.get(token)
                if text is None:
                    lemma = lemmatize(token)
                    stop = self.stop
                    text = "" if token in stop or lemma in stop else lemma
                    if len(surface) >= CLEAN_CACHE_SIZE:
                        surface.clear()
                    surface[token] = text
        if len(self) >= CLEAN_CACHE_SIZE:
            self.previous = self.copy()
            self.clear()
        self[raw] = text
        return text


def preprocess(line: str, stoplist: StopList | None = None) -> str:
    """Clean one raw document line into space-joined tokens.

    A token is removed when either its surface form or its lemma is a
    stopword, so inflected stopwords ("novels", "wishing") vanish even
    though the suffix rules run first.
    """
    cache = (StopList.default() if stoplist is None else stoplist).token_cache
    # a lemma is never empty, so filter(None, ...) drops exactly the dropped tokens
    return " ".join(filter(None, map(cache.__getitem__, line.split())))


class Vocabulary:
    """Bijective token <-> index map, indices assigned in first-occurrence order."""

    def __init__(self, ids: dict[str, int] | None = None):
        """Empty, or the words of ``ids``, whose values are 0, 1, ... in order."""
        self.word_to_id: dict[str, int] = dict(ids or {})
        self.id_to_word: list[str] = list(self.word_to_id)

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


class _Ids(dict):
    """word -> id, a missing word taking the next id: ids in first-occurrence order."""

    def __missing__(self, word: str) -> int:
        wid = self[word] = len(self)
        return wid


# what a row of each per-document field lists, for the error messages
_ROW_ITEMS = {"sentences": "sentence ends", "authors": "authors", "links": "links",
              "labels": "labels"}


@record
class Corpus:
    """Indexed documents plus optional per-document structure.

    docword[m][n] is the vocabulary id of token n of document m.  When
    present, sentences[m] holds cumulative sentence end offsets into
    docword[m] (the last offset equals the document length); authors,
    links and labels hold deduplicated metadata ids drawn from
    meta_vocabulary.
    """

    docword: list
    vocabulary: Vocabulary
    sentences: list | None = None
    authors: list | None = None
    links: list | None = None
    labels: list | None = None
    meta_vocabulary: Vocabulary | None = None

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

    def require(self, *attributes: str) -> None:
        """CorpusError for a missing field, ValueError for a field without one
        row per document, then ValueError if no document has a token."""
        for name in attributes:
            rows = getattr(self, name)
            if rows is None:
                raise CorpusError(f"corpus has no {name}; parse the matching input layout first")
            if len(rows) != self.n_docs:
                raise ValueError(f"corpus needs one list of {_ROW_ITEMS[name]} per document, "
                                 f"but {name} has {len(rows)} for {self.n_docs} documents")
        if not any(self.docword):
            raise ValueError("corpus is empty")


def parse_plain(lines: Iterable[str]) -> Corpus:
    """Index one preprocessed document per line."""
    docword, ids = [], _Ids()
    dropped = 0
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            dropped += 1
            warn(__name__, "line %d: empty document dropped", lineno)
            continue
        docword.append(list(map(ids.__getitem__, tokens)))
    if not docword:
        raise CorpusError("corpus is empty: no line contained any token")
    if dropped:
        warn(__name__, "dropped %d empty document(s)", dropped)
    return Corpus(docword, Vocabulary(ids))


def parse_sentences(lines: Iterable[str]) -> Corpus:
    """Index documents whose sentences are separated by "--"."""
    docword, sentences, ids = [], [], _Ids()
    for lineno, line in enumerate(lines, start=1):
        token_ids = []
        offsets = []
        for chunk in line.split("--"):
            tokens = chunk.split()
            if not tokens:
                continue  # empty sentence (e.g. trailing separator)
            token_ids += map(ids.__getitem__, tokens)
            offsets.append(len(token_ids))
        if not offsets:
            warn(__name__, "line %d: document with no non-empty sentence dropped", lineno)
            continue
        docword.append(token_ids)
        sentences.append(offsets)
    if not docword:
        raise CorpusError("corpus is empty: no line contained any sentence")
    return Corpus(docword, Vocabulary(ids), sentences)


_TAGGED_FIELDS = ("authors", "links", "labels")


def parse_tagged(lines: Iterable[str], kind: str) -> Corpus:
    """Index documents of the form ``metadata<TAB>body``.

    ``kind`` selects which corpus field ("authors", "links" or "labels")
    receives the metadata ids.  Links are separated by "--", authors and
    labels by ","; items are deduplicated per document, with first
    occurrence deciding both order and vocabulary ids.  An empty metadata
    field is a parse error for authors (the author-topic model cannot place
    such a document) but allowed for links and labels, where the models give
    unannotated documents a sensible meaning.
    """
    if kind not in _TAGGED_FIELDS:
        raise ValueError(f"kind must be one of {_TAGGED_FIELDS}, got {kind!r}")
    item_sep = "--" if kind == "links" else ","
    docword, ids, meta_lists, meta_ids = [], _Ids(), [], _Ids()
    dropped = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            dropped += 1
            warn(__name__, "line %d: empty document dropped", lineno)
            continue
        tabs = line.count("\t")
        if tabs != 1:
            raise ParseError(
                f"line {lineno}: expected exactly one '\\t' between {kind} and text, found {tabs}")
        left, right = line.split("\t")
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
        docword.append(list(map(ids.__getitem__, tokens)))
        meta_lists.append(list(map(meta_ids.__getitem__, items)))
    if not docword:
        raise CorpusError("corpus is empty: no line contained any token")
    if dropped:
        warn(__name__, "dropped %d empty document(s)", dropped)
    return Corpus(docword, Vocabulary(ids), meta_vocabulary=Vocabulary(meta_ids),
                  **{kind: meta_lists})


def read_lines(path, encoding: str = "utf-8") -> list[str]:
    with open(path, encoding=encoding) as f:
        return [line.rstrip("\n") for line in f]
