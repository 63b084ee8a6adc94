import logging
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

from topicmodels import corpus as corpus_mod
from topicmodels.corpus import (CorpusError, ParseError, StopList, Vocabulary,
                                lemmatize, parse_plain, parse_sentences,
                                parse_tagged, preprocess)

RAW_EXAMPLE = ("http://t.cn/RAPgR4n Artificial intelligence is a known phenomenons "
               "in the world today. Its root started to build years")
CLEAN_EXAMPLE = "artificial intelligence phenomenon world today root start build year"


def test_preprocess_reference_example():
    assert preprocess(RAW_EXAMPLE) == CLEAN_EXAMPLE


def test_preprocess_empty_line():
    assert preprocess("") == ""


def test_preprocess_all_stopwords():
    assert preprocess("The the THE") == ""


def test_preprocess_custom_stoplist_overrides_default():
    custom = StopList.from_words(["year", "today"])
    out = preprocess(RAW_EXAMPLE, custom).split()
    assert "year" not in out
    assert "today" not in out
    # default-only stopwords come back because the custom list replaces it
    assert "the" in out


def test_preprocess_drops_numbers_and_punctuation():
    assert preprocess("2023 ... !!! 42 covid-19 x86", StopList.from_words([])) == "covid-19 x86"


NOISY = ("Visit https://Example.com/Path or www.Foo.org NOW!!! The 3 quick-brown "
         "Foxes were RUNNING, 42 times... and it's 2023's best: Studies stopped; "
         "(the) THE-END 1,000 -- novels wishing Analyses")


def _uncached_preprocess(line, stop):
    kept = []
    for raw in line.split():
        token = corpus_mod._clean_token(raw)
        if token is not None:
            lemma = lemmatize(token)
            if token not in stop and lemma not in stop:
                kept.append(lemma)
    return " ".join(kept)


def test_cached_preprocess_equals_uncached_pipeline(monkeypatch):
    bundled = StopList.load(Path(corpus_mod.__file__).parent / "data" / "default_stopwords.txt")
    assert bundled == StopList.default()
    first = preprocess(NOISY)

    def miss(cache, raw):
        raise AssertionError(f"{raw!r} missed the cache")

    # every token of the second call comes from the cache
    with monkeypatch.context() as patch:
        patch.setattr(corpus_mod._TokenCache, "__missing__", miss)
        second = preprocess(NOISY)
    want = _uncached_preprocess(NOISY, bundled.words)
    assert first == second == want
    assert want.split()[:3] == ["visit", "quick-brown", "fox"]
    # an empty stop list keeps stopwords: it is not replaced by the default
    assert preprocess(NOISY, StopList.from_words([])) == _uncached_preprocess(NOISY, set())
    assert "the" in preprocess(NOISY, StopList.from_words([])).split()


EQUIVALENCE_LINES = [
    "ThE aPPle APPLES apple, (apple apple) 'quoted Quoted' \"both\" ...",
    "\u00abCaf\u00e9\u00bb caf\u00e9 na\u00efve Na\u00efve, \u0130stanbul \u0130STANBUL. "
    "stra\u00dfe",
    "HTTP://Example.com hTTps://x.org/Path WWW.Foo.org www.bar ftp://host "
    "http\u017f://x.org wwwthing http",
    "2023 1,000 42... (7) covid-19 COVID-19, x86 3d -- !!! \u2014",
    "novels Novels, wishing WISHING studies stopped stopping analyses was",
    "apple APPLES the banana Bananas, novels wishing covid-19 2023 \u00abCaf\u00e9\u00bb",
]


@pytest.mark.parametrize("stop", [None, ["apple", "wish", "studies", "covid-19", "caf"], []],
                         ids=["default", "custom", "empty"])
def test_cached_preprocess_matches_the_reference_pipeline(stop):
    stoplist = None if stop is None else StopList.from_words(stop)
    words = (StopList.default() if stop is None else stoplist).words
    # each line twice, so that repeated tokens are served from the cache
    for line in EQUIVALENCE_LINES * 2:
        assert preprocess(line, stoplist) == _uncached_preprocess(line, words)


def test_interleaved_stop_lists_keep_their_own_caches():
    no_fruit, no_bread = StopList.from_words(["apple"]), StopList.from_words(["bread"])
    for line in EQUIVALENCE_LINES + ["Apples, bread (apple) BREAD"] * 2:
        for stoplist in (no_fruit, no_bread):
            assert preprocess(line, stoplist) == _uncached_preprocess(line, stoplist.words)
    assert no_fruit.token_cache["Apples,"] == "" and no_bread.token_cache["Apples,"] == "apple"
    assert no_fruit.token_cache["bread"] == "bread" and no_bread.token_cache["bread"] == ""


def test_edge_punctuation_skip_is_exact():
    for raw in " ".join(EQUIVALENCE_LINES + [NOISY, RAW_EXAMPLE]).split():
        lowered = raw.lower()
        if lowered[-1] in corpus_mod._ALNUM and lowered[0] in corpus_mod._ALNUM:
            assert corpus_mod._EDGE_PUNCT_RE.sub("", lowered) == lowered


def test_token_cache_stays_bounded_and_keeps_serving(monkeypatch):
    monkeypatch.setattr(corpus_mod, "CLEAN_CACHE_SIZE", 8)
    stoplist = StopList.from_words(["the", "w3"])
    cache = stoplist.token_cache
    # 30 words in three raw forms each, then again: with "the", 91 distinct raw tokens
    lines = [f"W{i} w{i}s (w{i}) the" for i in range(30)] * 2
    for line in lines:
        assert preprocess(line, stoplist) == _uncached_preprocess(line, stoplist.words)
        assert max(len(cache), len(cache.previous), len(cache.surface)) <= 8
        # the tokens just cleaned were cached, however full the cache was
        assert all(raw in cache or raw in cache.previous for raw in line.split())
    assert cache.previous  # the cache filled up and refilled


def test_default_stoplist_is_read_once():
    assert StopList.default() is StopList.default()


def test_default_stoplist_reads_from_a_zipped_package(tmp_path):
    # inside a zip the data directory cannot be imported as a namespace package
    package = Path(corpus_mod.__file__).parent
    archive = tmp_path / "topicmodels.zip"
    with zipfile.ZipFile(archive, "w") as z:
        for path in package.rglob("*"):
            if path.suffix in (".py", ".txt"):
                z.write(path, path.relative_to(package.parent))
    code = ("from topicmodels import corpus; "
            f"print(corpus.__file__.startswith({str(archive)!r}), len(corpus.StopList.default()))")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(archive)})
    assert done.stderr == ""
    assert done.stdout == "True 524\n"


def test_default_stoplist_size_and_members():
    stop = StopList.default()
    assert len(stop) == 524
    for w in ("a", "the", "is", "its", "to", "in", "known"):
        assert w in stop
    for w in ("world", "today", "year", "build"):
        assert w not in stop


@pytest.mark.parametrize("word,lemma", [
    ("phenomenons", "phenomenon"),
    ("started", "start"),
    ("years", "year"),
    ("studies", "study"),
    ("businesses", "business"),
    ("boxes", "box"),
    ("shoes", "shoe"),
    ("running", "run"),
    ("making", "make"),
    ("used", "use"),
    ("building", "build"),
    ("data", "datum"),
    ("criteria", "criterion"),
    ("feet", "foot"),
    ("is", "be"),
    ("news", "news"),
    ("thing", "thing"),
    ("string", "string"),
    ("comfortable", "comfortable"),
])
def test_lemmatizer_rules(word, lemma):
    assert lemmatize(word) == lemma


def test_parse_plain_first_occurrence_indexing():
    corpus = parse_plain(["a b", "b c"])
    assert corpus.n_docs == 2
    assert corpus.n_words == 3
    assert corpus.docword == [[0, 1], [1, 2]]


def test_parse_plain_repeated_token():
    corpus = parse_plain(["a a a"])
    assert len(corpus.docword[0]) == 3
    assert corpus.n_words == 1


def test_parse_plain_drops_blank_line_with_warning(caplog):
    with caplog.at_level(logging.WARNING):
        corpus = parse_plain(["a b", ""])
    assert corpus.n_docs == 1
    assert any("empty document" in r.message for r in caplog.records)


def test_parse_plain_empty_corpus():
    with pytest.raises(CorpusError):
        parse_plain(["", "   "])


def test_parse_sentences_reference_line():
    corpus = parse_sentences(["love lotion--light clean smell"])
    assert corpus.sentences[0] == [2, 5]
    sentences = list(corpus.doc_sentences(0))
    assert [len(s) for s in sentences] == [2, 3]


def test_parse_sentences_no_separator():
    corpus = parse_sentences(["a b"])
    assert corpus.sentences[0] == [2]


def test_parse_sentences_trailing_separator():
    corpus = parse_sentences(["a--"])
    assert corpus.sentences[0] == [1]


def test_parse_sentences_only_separators_dropped(caplog):
    with caplog.at_level(logging.WARNING):
        corpus = parse_sentences(["a b", "----"])
    assert corpus.n_docs == 1
    assert any("no non-empty sentence" in r.message for r in caplog.records)


def test_parse_sentences_offsets_partition_documents():
    corpus = parse_sentences(["a b--c", "d--e f--g"])
    for m in range(corpus.n_docs):
        assert corpus.sentences[m][-1] == len(corpus.docword[m])
        assert corpus.sentences[m] == sorted(set(corpus.sentences[m]))


def test_parse_sentences_concatenation_matches_plain():
    lines = ["love lotion--light clean smell", "good shoe", "a--b--c"]
    with_sent = parse_sentences(lines)
    plain = parse_plain([line.replace("--", " ") for line in lines])
    assert with_sent.docword == plain.docword
    assert with_sent.vocabulary.id_to_word == plain.vocabulary.id_to_word


def test_parse_tagged_authors():
    corpus = parse_tagged(["A,B\tx y"], kind="authors")
    assert corpus.authors == [[0, 1]]
    assert corpus.docword == [[0, 1]]
    assert corpus.meta_vocabulary.id_to_word == ["A", "B"]


def test_parse_tagged_links_shape():
    corpus = parse_tagged(["457720--578743\tgraph cluster"], kind="links")
    assert corpus.links == [[0, 1]]
    assert corpus.meta_vocabulary.id_to_word == ["457720", "578743"]


@pytest.mark.parametrize("kind, items", [("links", ["a,b", "c"]), ("authors", ["a", "b--c"]),
                                         ("labels", ["a", "b--c"])])
def test_parse_tagged_separator_follows_the_kind(kind, items):
    corpus = parse_tagged(["a,b--c\tx"], kind=kind)
    assert getattr(corpus, kind) == [[0, 1]]
    assert corpus.meta_vocabulary.id_to_word == items


def test_parse_tagged_deduplicates():
    corpus = parse_tagged(["A,A\tx"], kind="authors")
    assert corpus.authors == [[0]]


def test_parse_tagged_missing_separator_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_tagged(["A\tx", "B x"], kind="authors")


def test_parse_tagged_empty_authors_rejected():
    with pytest.raises(ParseError):
        parse_tagged([" \tx y"], kind="authors")


def test_parse_tagged_empty_labels_and_links_allowed():
    # unlabeled documents are meaningful for PLDA (background block) and
    # link-less documents for link LDA (theta collapses to the LDA form)
    for kind in ("labels", "links"):
        corpus = parse_tagged([" \tx y", "A\tz"], kind=kind)
        assert getattr(corpus, kind) == [[], [0]]


def test_vocabulary_bijection_and_round_trip():
    lines = ["love lotion light", "clean smell love", "lotion lotion clean"]
    corpus = parse_plain(lines)
    vocab = corpus.vocabulary
    for i, w in enumerate(vocab.id_to_word):
        assert vocab.word_to_id[w] == i
    for line, doc in zip(lines, corpus.docword):
        assert [vocab.word(i) for i in doc] == line.split()


def _indexed_by_add(token_lists):
    """docword and vocabulary of token lists, one ``Vocabulary.add`` per token."""
    vocabulary = Vocabulary()
    return [[vocabulary.add(t) for t in tokens] for tokens in token_lists], vocabulary


def _same_indexing(got: Vocabulary, want: Vocabulary) -> bool:
    return (type(got.word_to_id) is dict and got.word_to_id == want.word_to_id
            and list(got.word_to_id) == list(want.word_to_id)
            and got.id_to_word == want.id_to_word)


def test_parsers_index_as_vocabulary_add_does(caplog):
    # repeated words within and across lines, and lines each parser drops
    plain = ["b a b", "", "c a  d b", "   ", "d d e a"]
    sentences = ["b a -- b c", "", "--", "a -- -- e e b", "d--"]
    tagged = ["A,B\tb a b", "", "B,A,B\tc a", "C\t  ", "A , C\td d e a"]
    with caplog.at_level(logging.WARNING):
        parsed = [parse_plain(plain), parse_sentences(sentences),
                  parse_tagged(tagged, kind="authors")]
    assert [r.getMessage() for r in caplog.records] == [
        "line 2: empty document dropped", "line 4: empty document dropped",
        "dropped 2 empty document(s)",
        "line 2: document with no non-empty sentence dropped",
        "line 3: document with no non-empty sentence dropped",
        "line 2: empty document dropped", "line 4: empty document dropped",
        "dropped 2 empty document(s)"]
    bodies = [[line.split() for line in plain],
              [line.replace("--", " ").split() for line in sentences],
              [line.split("\t")[1].split() for line in tagged if line]]
    for corpus, tokens in zip(parsed, bodies):
        docword, vocabulary = _indexed_by_add(filter(None, tokens))
        assert corpus.docword == docword
        assert _same_indexing(corpus.vocabulary, vocabulary)
    assert parsed[1].sentences == [[2, 4], [1, 4], [1]]
    authors, meta = _indexed_by_add([["A", "B"], ["B", "A"], ["A", "C"]])
    assert parsed[2].authors == authors
    assert _same_indexing(parsed[2].meta_vocabulary, meta)


def test_token_totals_match_input():
    lines = ["a b c", "a a", "d"]
    corpus = parse_plain(lines)
    assert corpus.n_tokens == sum(len(l.split()) for l in lines)
