"""Writers and parsers for the model output files.

Topic-word files are blocks of

    Topic:<i>                      (1-based; optionally "(label)" appended,
    word :probability               or "<TAB>Related label:<name>")
    ...
    <blank line>

Doc-topic files carry a "Topic1 Topic2 ... TopicK" header and one
space-separated probability row per document.  Probabilities are written
with ``repr`` so identical fits serialize byte-identically and parse back
exactly.  A Gibbs estimate holds few distinct values (a theta row is
(n_mk + alpha)/(n_m + K alpha)), so each writer formats through a fresh
``_Reprs`` cache, which computes the text of each distinct value once.  The
writers stream a file line by line, so no file is ever held whole in
memory.
"""

from pathlib import Path
from typing import Iterable, Sequence

from .core import fold_sum
from .evaluation import top_word_ids


# The most values one _Reprs stores.  A file whose values are all different
# (CVB0 or dual-sparse rows) fills it and then formats each value afresh, so
# the cache stays far below the size of the file it serves.
REPR_CACHE_SIZE = 1024


class _Reprs(dict):
    """``reprs[p]`` is ``repr(float(p))``, stored the first time it is asked for.

    Zeros and NaN are formatted but never stored: 0.0 and -0.0 are one
    key with two texts, and NaN equals no key.  Make one per file, so
    nothing outlives a writer call.
    """

    def __missing__(self, p) -> str:
        text = repr(float(p))
        if p and p == p and len(self) < REPR_CACHE_SIZE:
            self[p] = text
        return text


def _write_lines(path, lines: Iterable[str]) -> None:
    """Write each line with its newline, one line at a time."""
    with open(path, "w", encoding="utf-8") as out:
        for line in lines:
            out.write(line + "\n")


def write_topic_word_file(path, phi: Sequence[Sequence[float]], words: Sequence[str],
                          top_n: int, paren_labels: Sequence[str] | None = None,
                          related_labels: Sequence[str] | None = None) -> None:
    """One block per topic with its top_n words.

    paren_labels annotate headers as "Topic:1(label)"; related_labels as
    "Topic:1<TAB>Related label:label".
    """
    reprs = _Reprs()

    def lines():
        for k, row in enumerate(phi):
            header = f"Topic:{k + 1}"
            if paren_labels is not None:
                header += f"({paren_labels[k]})"
            elif related_labels is not None:
                header += f"\tRelated label:{related_labels[k]}"
            yield header
            for v in top_word_ids(row, top_n):
                yield f"{words[v]} :{reprs[row[v]]}"
            yield ""
    _write_lines(path, lines())


def write_doc_topic_file(path, theta: Sequence[Sequence[float]]) -> None:
    reprs = _Reprs()

    def lines():
        yield " ".join(f"Topic{k + 1}" for k in range(len(theta[0])))
        for row in theta:
            yield " ".join(map(reprs.__getitem__, row))
    _write_lines(path, lines())


def write_value_lines(path, values: Sequence) -> None:
    """One value per line (cluster weights, cluster ids, ...)."""
    reprs = _Reprs()
    _write_lines(path, (reprs[v] if isinstance(v, float) else str(v) for v in values))


def write_author_topic_file(path, names: Sequence[str],
                            theta: Sequence[Sequence[float]]) -> None:
    """Author name, TAB, space-separated topic mixture."""
    reprs = _Reprs()
    _write_lines(path, (f"{name}\t" + " ".join(map(reprs.__getitem__, row))
                        for name, row in zip(names, theta)))


def write_topic_author_file(path, author_theta: Sequence[Sequence[float]],
                            names: Sequence[str], n_topics: int, top_n: int) -> None:
    """Per topic, the top authors by their affinity theta[a][k], renormalized
    over the listed authors."""
    reprs = _Reprs()

    def lines():
        for k in range(n_topics):
            column = [author_theta[a][k] for a in range(len(names))]
            top = top_word_ids(column, top_n)
            total = fold_sum(column[a] for a in top)
            yield f"Topic:{k + 1}"
            for a in top:
                yield f"{names[a]} :{reprs[column[a] / total]}"
            yield ""
    _write_lines(path, lines())


def write_sparse_ratio_file(path, ratios: Sequence[float], average: float,
                            kind: str) -> None:
    """Per-item sparsity ratios, then the summary line.

    ``kind`` is "topic_word" or "doc_topic"; the summary line reproduces the
    reference output spelling ("saprse") verbatim.
    """
    reprs = _Reprs()

    def lines():
        yield from map(reprs.__getitem__, ratios)
        yield f"average saprse ratio of {kind}:{reprs[average]}"
    _write_lines(path, lines())


# -- parsers (round-trip checks and downstream tooling) -------------------------


def parse_topic_word_file(path) -> list:
    """Blocks back as (header_annotation, [(word, prob), ...]) tuples.

    header_annotation is None, a paren label, or a "Related label" name.
    """
    blocks = []
    current = None
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            if current is not None:
                blocks.append(current)
                current = None
            continue
        if line.startswith("Topic:"):
            if current is not None:
                raise ValueError(f"line {lineno}: topic header inside an open block")
            rest = line[len("Topic:"):]
            annotation = None
            if "\t" in rest:
                index_str, related = rest.split("\t", 1)
                if not related.startswith("Related label:"):
                    raise ValueError(f"line {lineno}: malformed related-label header")
                annotation = related[len("Related label:"):]
            elif rest.endswith(")") and "(" in rest:
                index_str, annotation = rest[:-1].split("(", 1)
            else:
                index_str = rest
            if int(index_str) != len(blocks) + 1:
                raise ValueError(f"line {lineno}: expected topic {len(blocks) + 1}")
            current = (annotation, [])
        else:
            if current is None:
                raise ValueError(f"line {lineno}: word line outside a topic block")
            word, prob = line.rsplit(" :", 1)
            current[1].append((word, float(prob)))
    if current is not None:
        blocks.append(current)
    return blocks


def parse_doc_topic_file(path) -> list:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split()
    if header != [f"Topic{k + 1}" for k in range(len(header))]:
        raise ValueError("malformed doc-topic header")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        row = [float(x) for x in line.split()]
        if len(row) != len(header):
            raise ValueError(f"line {lineno}: {len(row)} values for {len(header)} topics")
        rows.append(row)
    return rows


def parse_value_lines(path) -> list:
    return [float(line) for line in
            Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]
