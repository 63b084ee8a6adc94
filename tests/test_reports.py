import math
import random
import tracemalloc
from array import array

import pytest

from topicmodels import cli
from topicmodels.core import MISSING, SeededRng, fields, run_chain
from topicmodels.evaluation import top_word_ids
from topicmodels.reports import (REPR_CACHE_SIZE, _Reprs, parse_doc_topic_file,
                                 parse_topic_word_file, parse_value_lines, write_author_topic_file,
                                 write_doc_topic_file, write_sparse_ratio_file,
                                 write_topic_author_file, write_topic_word_file,
                                 write_value_lines)

from readers import parse_author_topic_file, parse_sparse_ratio_file


def test_topic_word_round_trip(tmp_path):
    path = tmp_path / "tw.txt"
    phi = [[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]]
    words = ["alpha", "beta", "gamma"]
    write_topic_word_file(path, phi, words, top_n=2)
    text = path.read_text()
    assert text.startswith("Topic:1\n")
    assert "\n\nTopic:2\n" in text
    blocks = parse_topic_word_file(path)
    assert blocks == [(None, [("alpha", 0.5), ("beta", 0.3)]),
                      (None, [("gamma", 0.7), ("beta", 0.2)])]


def test_topic_word_block_grammar(tmp_path):
    path = tmp_path / "tw.txt"
    write_topic_word_file(path, [[0.9, 0.1]], ["w0", "w1"], top_n=2)
    lines = path.read_text().splitlines()
    assert lines[0] == "Topic:1"
    assert lines[1] == f"w0 :{0.9!r}"
    assert lines[2] == f"w1 :{0.1!r}"
    assert lines[3] == ""


def test_topic_word_paren_labels(tmp_path):
    path = tmp_path / "tw.txt"
    write_topic_word_file(path, [[1.0]], ["w"], 1, paren_labels=["Security"])
    assert path.read_text().splitlines()[0] == "Topic:1(Security)"
    assert parse_topic_word_file(path)[0][0] == "Security"


def test_topic_word_related_labels(tmp_path):
    path = tmp_path / "tw.txt"
    write_topic_word_file(path, [[1.0], [1.0]], ["w"], 1,
                          related_labels=["Cloud", "global label"])
    lines = path.read_text().splitlines()
    assert lines[0] == "Topic:1\tRelated label:Cloud"
    blocks = parse_topic_word_file(path)
    assert [b[0] for b in blocks] == ["Cloud", "global label"]


def test_topic_word_words_with_spaces_round_trip(tmp_path):
    # author names flow through the same writer: " :" splits from the right
    path = tmp_path / "tw.txt"
    write_topic_word_file(path, [[0.7, 0.3]], ["Jane Q. Doe", "Wei Li"], 2)
    blocks = parse_topic_word_file(path)
    assert blocks[0][1][0] == ("Jane Q. Doe", 0.7)


def test_doc_topic_round_trip_and_header(tmp_path):
    path = tmp_path / "dt.txt"
    theta = [[0.25, 0.75], [0.6, 0.4]]
    write_doc_topic_file(path, theta)
    lines = path.read_text().splitlines()
    assert lines[0] == "Topic1 Topic2"
    assert parse_doc_topic_file(path) == theta


def test_doc_topic_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("TopicA TopicB\n0.5 0.5\n")
    with pytest.raises(ValueError):
        parse_doc_topic_file(path)


def test_value_lines_round_trip(tmp_path):
    path = tmp_path / "theta.txt"
    values = [0.25, 0.5, 0.25]
    write_value_lines(path, values)
    assert parse_value_lines(path) == values
    ints = tmp_path / "clusters.txt"
    write_value_lines(ints, [3, 0, 2])
    assert ints.read_text() == "3\n0\n2\n"


def test_author_topic_file_uses_tab(tmp_path):
    path = tmp_path / "at.txt"
    write_author_topic_file(path, ["Jane Q. Doe", "Wei Li"],
                            [[0.9, 0.1], [0.5, 0.5]])
    lines = path.read_text().splitlines()
    name, row = lines[0].split("\t")
    assert name == "Jane Q. Doe"
    assert [float(x) for x in row.split()] == [0.9, 0.1]


def test_topic_author_file_ties_keep_author_order(tmp_path):
    path = tmp_path / "ta.txt"
    theta = [[0.25, 0.75], [0.5, 0.5], [0.25, 0.75], [0.5, 0.5]]
    write_topic_author_file(path, theta, ["A", "B", "C", "D"], 2, 3)
    assert path.read_text() == ("Topic:1\nB :0.4\nD :0.4\nA :0.2\n\n"
                                "Topic:2\nA :0.375\nC :0.375\nB :0.25\n\n")


def test_sparse_ratio_file_grammar(tmp_path):
    path = tmp_path / "ratio.txt"
    write_sparse_ratio_file(path, [0.9, 0.8], 0.85, "topic_word")
    lines = path.read_text().splitlines()
    assert lines[-1] == f"average saprse ratio of topic_word:{0.85!r}"
    assert [float(x) for x in lines[:-1]] == [0.9, 0.8]


def test_float_repr_round_trips_exactly(tmp_path):
    path = tmp_path / "dt.txt"
    theta = [[0.03822039986269391, 0.9617796001373061]]
    write_doc_topic_file(path, theta)
    assert parse_doc_topic_file(path) == theta


def test_doc_topic_writer_formats_every_value_as_its_repr(tmp_path):
    # the writers format through a bounded cache of reprs; these rows hold
    # what a cache could confuse: signed zeros (one key, two texts), NaN
    # (equal to no key), an int (written as its float), and more distinct
    # values than the cache holds, then values it stored early on
    distinct = [1 / (i + 3) for i in range(REPR_CACHE_SIZE + 50)]
    rows = [[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [math.nan, math.inf], [-math.inf, math.nan],
            [1, 1.0], [1.0, 1], [0, -0.0],
            *zip(distinct[::2], distinct[1::2]), distinct[:2], distinct[2:4], [0.5, 0.5]]
    path = tmp_path / "dt.txt"
    write_doc_topic_file(path, rows)
    written = [line.split() for line in path.read_text().splitlines()[1:]]
    assert written == [[repr(float(p)) for p in row] for row in rows]
    assert [[repr(p) for p in row] for row in parse_doc_topic_file(path)] == written


def test_repr_cache_keeps_no_zero_nor_nan_and_stops_at_its_size():
    reprs = _Reprs()
    texts = [reprs[p] for p in (0.0, -0.0, 0, math.nan, -0.0)]
    assert texts == ["0.0", "-0.0", "0.0", "nan", "-0.0"]
    assert not reprs
    for i in range(2 * REPR_CACHE_SIZE):
        assert reprs[i / 7] == repr(i / 7)
    assert len(reprs) == REPR_CACHE_SIZE


def test_author_topic_round_trip(tmp_path):
    path = tmp_path / "at.txt"
    write_author_topic_file(path, ["Ann Lee", "Bo"], [[0.25, 0.75], [0.5, 0.5]])
    assert parse_author_topic_file(path) == [("Ann Lee", [0.25, 0.75]), ("Bo", [0.5, 0.5])]


def test_sparse_ratio_round_trip(tmp_path):
    path = tmp_path / "ratio.txt"
    write_sparse_ratio_file(path, [0.9, 0.8], 0.85, "doc_topic")
    assert parse_sparse_ratio_file(path) == ([0.9, 0.8], "doc_topic", 0.85)
    path.write_text("0.5\naverage sparse ratio of doc_topic:0.5\n")
    with pytest.raises(ValueError, match="summary"):
        parse_sparse_ratio_file(path)


# -- every model's files, written and parsed back ----------------------------------

WORDS = ["apple", "banana", "cherry", "date", "fig", "grape", "kiwi", "lime", "mango"]
NAMES = ["Ann Lee", "Bo Chen", "Cy", "Dee", "Eve"]


def random_lines(layout: str, rng: random.Random) -> list:
    """A tiny corpus in ``layout``: 3-6 documents of 2-7 tokens."""
    lines = []
    for _ in range(rng.randint(3, 6)):
        tokens = [rng.choice(WORDS) for _ in range(rng.randint(2, 7))]
        if layout == "sentences":
            cut = rng.randint(1, len(tokens) - 1)
            body = " ".join(tokens[:cut]) + "--" + " ".join(tokens[cut:])
        else:
            body = " ".join(tokens)
        if layout in ("authors", "links", "labels"):
            items = rng.sample(NAMES, rng.randint(1, 2))
            body = ("--" if layout == "links" else ",").join(items) + "\t" + body
        lines.append(body)
    return lines


def top_blocks(phi, words, top, labels=None):
    return [(None if labels is None else labels[k],
             [(words[v], row[v]) for v in top_word_ids(row, top)])
            for k, row in enumerate(phi)]


def topic_author_blocks(theta, run):
    blocks = []
    for k in range(run.k):
        column = [row[k] for row in theta]
        top = top_word_ids(column, run.top_words)
        total = sum(column[a] for a in top)
        blocks.append((None, [(run.names[a], column[a] / total) for a in top]))
    return blocks


# writer -> (parse the file, the values the file was written from)
ROUND_TRIPS = {
    "topic_word": (parse_topic_word_file,
                   lambda phi, run: top_blocks(phi, run.words, run.top_words)),
    "topic_link": (parse_topic_word_file,
                   lambda phi, run: top_blocks(phi, run.names, run.top_words)),
    "labeled_topic_word": (parse_topic_word_file, lambda phi, run: top_blocks(
        phi, run.words, run.top_words, run.fitted.topic_labels)),
    "related_topic_word": (parse_topic_word_file, lambda phi, run: top_blocks(
        phi, run.words, run.top_words, run.fitted.topic_labels)),
    "doc_topic": (parse_doc_topic_file, lambda rows, run: [row.tolist() for row in rows]),
    "values": (parse_value_lines, lambda values, run: [float(v) for v in values]),
    "author_topic": (parse_author_topic_file,
                     lambda theta, run: [(name, row.tolist())
                                         for name, row in zip(run.names, theta)]),
    "topic_author": (parse_topic_word_file, topic_author_blocks),
    "topic_sparsity": (parse_sparse_ratio_file, lambda ratios, run: (
        ratios, "topic_word", run.fitted.avg_sparsity_topic)),
    "doc_sparsity": (parse_sparse_ratio_file, lambda ratios, run: (
        ratios, "doc_topic", run.fitted.avg_sparsity_doc)),
}


def test_round_trips_cover_every_writer():
    assert set(ROUND_TRIPS) == set(cli._WRITERS)


# the writers whose value is a matrix, one row per topic, document or author
MATRIX_WRITERS = {"topic_word", "topic_link", "labeled_topic_word", "related_topic_word",
                  "doc_topic", "author_topic", "topic_author"}


def test_doc_topic_writer_streams(tmp_path):
    # the file is written a line at a time, never held whole in memory
    rng = random.Random(5)
    theta = [array("d", [rng.random() for _ in range(20)]) for _ in range(5000)]
    path = tmp_path / "dt.txt"
    tracemalloc.start()
    try:
        write_doc_topic_file(path, theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = path.stat().st_size
    assert written > 1_000_000
    assert peak < written / 4, (peak, written)


@pytest.mark.parametrize("model", sorted(cli.MODELS))
def test_every_output_file_parses_back_to_the_written_values(tmp_path, model):
    spec = cli.MODELS[model]
    for seed in range(3):
        rng = random.Random(seed)
        required = {"n_pseudo_docs": 2}
        options = {f.name: required.get(f.name, rng.randint(2, 3))
                   for f in fields(spec.hyper) if f.default is MISSING}
        hyper = spec.hyper(**options)
        corpus = cli._parse(spec.layout, random_lines(spec.layout, rng))
        fitted = run_chain(spec.sampler(corpus, hyper, SeededRng(seed)), 3)
        meta = corpus.meta_vocabulary
        run = cli._Run(fitted, corpus.vocabulary.id_to_word,
                       None if meta is None else meta.id_to_word, 3,
                       spec.count(hyper, fitted) if spec.count else len(fitted.phi))
        outdir = tmp_path / str(seed)
        cli._write_outputs(spec, outdir, run)
        assert len(list(outdir.iterdir())) == len(spec.outputs)
        for out in spec.outputs:
            parse, written = ROUND_TRIPS[out.writer]
            path = outdir / out.template.format(k=run.k)
            value = getattr(fitted, out.field)
            assert parse(path) == written(value, run), (seed, path.name)
            if out.writer in MATRIX_WRITERS:  # estimate rows are arrays of doubles
                assert all(isinstance(row, array) and row.typecode == "d"
                           for row in value), out.field
