"""Readers of the output files that only the tests parse back: the author
mixtures of ATM and the sparsity ratios of dual-sparse.  The readers that
the benchmark's checks also use stay in ``topicmodels.reports``."""

from pathlib import Path


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
