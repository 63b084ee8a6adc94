"""Writers and parsers for the model output files.

Topic-word files are blocks of

    Topic:<i>                      (1-based; optionally "(label)" appended,
    word :probability               or "<TAB>Related label:<name>")
    ...
    <blank line>

Doc-topic files carry a "Topic1 Topic2 ... TopicK" header and one
space-separated probability row per document.  Probabilities are written
with ``repr`` so identical fits serialize byte-identically and parse back
exactly.
"""

from pathlib import Path
from typing import Sequence

from .evaluation import top_word_ids


def _fmt(p: float) -> str:
    return repr(float(p))


def write_topic_word_file(path, phi: Sequence[Sequence[float]], words: Sequence[str],
                          top_n: int, paren_labels: Sequence[str] | None = None,
                          related_labels: Sequence[str] | None = None) -> None:
    """One block per topic with its top_n words.

    paren_labels annotate headers as "Topic:1(label)"; related_labels as
    "Topic:1<TAB>Related label:label".
    """
    lines = []
    for k, row in enumerate(phi):
        header = f"Topic:{k + 1}"
        if paren_labels is not None:
            header += f"({paren_labels[k]})"
        elif related_labels is not None:
            header += f"\tRelated label:{related_labels[k]}"
        lines.append(header)
        for v in top_word_ids(row, top_n):
            lines.append(f"{words[v]} :{_fmt(row[v])}")
        lines.append("")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_doc_topic_file(path, theta: Sequence[Sequence[float]]) -> None:
    n_topics = len(theta[0])
    lines = [" ".join(f"Topic{k + 1}" for k in range(n_topics))]
    for row in theta:
        lines.append(" ".join(_fmt(p) for p in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_value_lines(path, values: Sequence) -> None:
    """One value per line (cluster weights, cluster ids, ...)."""
    Path(path).write_text(
        "\n".join(_fmt(v) if isinstance(v, float) else str(v) for v in values) + "\n",
        encoding="utf-8")


def write_author_topic_file(path, names: Sequence[str],
                            theta: Sequence[Sequence[float]]) -> None:
    """Author name, TAB, space-separated topic mixture."""
    lines = [f"{name}\t" + " ".join(_fmt(p) for p in row)
             for name, row in zip(names, theta)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_topic_author_file(path, author_theta: Sequence[Sequence[float]],
                            names: Sequence[str], n_topics: int, top_n: int) -> None:
    """Per topic, the top authors by their affinity theta[a][k], renormalized
    over the listed authors."""
    lines = []
    for k in range(n_topics):
        column = [author_theta[a][k] for a in range(len(names))]
        top = top_word_ids(column, top_n)
        total = sum(column[a] for a in top)
        lines.append(f"Topic:{k + 1}")
        for a in top:
            lines.append(f"{names[a]} :{_fmt(column[a] / total)}")
        lines.append("")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sparse_ratio_file(path, ratios: Sequence[float], average: float,
                            kind: str) -> None:
    """Per-item sparsity ratios, then the summary line.

    ``kind`` is "topic_word" or "doc_topic"; the summary line reproduces the
    reference output spelling ("saprse") verbatim.
    """
    lines = [_fmt(r) for r in ratios]
    lines.append(f"average saprse ratio of {kind}:{_fmt(average)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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


def parse_author_topic_file(path) -> list:
    """(author, topic mixture) pairs, one per line."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        name, _, body = line.partition("\t")
        rows.append((name, [float(x) for x in body.split()]))
    return rows


def parse_sparse_ratio_file(path) -> tuple:
    """(ratios, kind, average) of a sparsity-ratio file."""
    *lines, summary = Path(path).read_text(encoding="utf-8").splitlines()
    head, _, average = summary.rpartition(":")
    prefix = "average saprse ratio of "
    if not head.startswith(prefix):
        raise ValueError("malformed sparsity summary line")
    return [float(x) for x in lines], head[len(prefix):], float(average)
