"""Checks on the output of every CLI call, and the topic-purity score.

A check returns a list of problems; an empty list means the call is
correct.  The parsers of ``topicmodels.reports`` read the files, so a
file they reject is a failure too.
"""

import math
import re
from pathlib import Path

TOL = 1e-9

# Output files per model.  "{n}" is the count in the file name; ``count``
# says what it must equal: the -k flag ("k"), the label count ("labels"),
# labels plus background ("labels+1"), or the fitted count ("final").
# Kinds: words (topic-word over the vocabulary), links (topic-word over link
# targets), doc_topic, theta (one weight per topic), clusters (one cluster
# id per document), author_topic, topic_author, sparse_topic, sparse_doc.
OUTPUTS = {
    "lda-gibbs": ("k", [("LDAGibbs_topic_word_{n}.txt", "words"),
                        ("LDAGibbs_doc_topic{n}.txt", "doc_topic")]),
    "lda-cvb0": ("k", [("CVBLDA_topic_word_{n}.txt", "words"),
                       ("CVBLDA_doc_topic{n}.txt", "doc_topic")]),
    "sentence-lda": ("k", [("SentenceLDA_topic_word{n}.txt", "words"),
                           ("SentenceLDA_doc_topic_{n}.txt", "doc_topic")]),
    "hdp": ("final", [("HDP_topic_word_{n}.txt", "words"),
                      ("HDP_doc_topic{n}.txt", "doc_topic")]),
    "dmm": ("k", [("DMM_cluster_word_{n}.txt", "words"),
                  ("DMM_doc_cluster{n}.txt", "clusters"),
                  ("DMM_theta_{n}.txt", "theta")]),
    "dpmm": ("final", [("DPMM_cluster_word_{n}.txt", "words"),
                       ("DPMM_doc_cluster{n}.txt", "clusters"),
                       ("DPMM_theta_{n}.txt", "theta")]),
    "ptm": ("k", [("PseudoDTM_topic_word_{n}.txt", "words"),
                  ("PseudoDTM_pseudo_topic{n}.txt", "pseudo_topic"),
                  ("PseudoDTM_doc_topic{n}.txt", "doc_topic")]),
    "btm": ("k", [("BTM_topic_word_{n}.txt", "words"),
                  ("BTM_topic_theta_{n}.txt", "theta"),
                  ("BTM_doc_topic_{n}.txt", "doc_topic")]),
    "atm": ("k", [("authorTM_topic_word{n}.txt", "words"),
                  ("authorTM_author_topic_{n}.txt", "author_topic"),
                  ("authorTM_topic_author_{n}.txt", "topic_author")]),
    "link-lda": ("k", [("LinkLDA_topic_word_{n}.txt", "words"),
                       ("LinkLDA_topic_link_{n}.txt", "links"),
                       ("LinkLDA_doc_topic_{n}.txt", "doc_topic")]),
    "labeled-lda": ("labels", [("LabeledLDA_topic_word_{n}.txt", "words"),
                               ("LabeledLDA_doc_topic{n}.txt", "doc_topic")]),
    "plda": ("labels+1", [("PLDA_topic_word_{n}.txt", "words"),
                          ("PLDA_doc_topic{n}.txt", "doc_topic")]),
    "dual-sparse": ("k", [("dualSLDA_topic_word_{n}.txt", "words"),
                          ("dualSLDA_doc_topic_{n}.txt", "doc_topic"),
                          ("dualSLDA_sparseRatio_TV{n}.txt", "sparse_topic"),
                          ("dualSLDA_sparseRatio_DT{n}.txt", "sparse_doc")]),
}


def flag(flags, name, default=None):
    """Value of ``name`` in a flag tuple such as ("-k", "5")."""
    return flags[flags.index(name) + 1] if name in flags else default


def _file_count(outdir: Path, template: str) -> int | None:
    pattern = re.compile(re.escape(template).replace(r"\{n\}", r"(\d+)") + "$")
    found = [int(m.group(1)) for p in outdir.iterdir() if (m := pattern.match(p.name))]
    return found[0] if len(found) == 1 else None


def _sums_to_one(rows, what: str, problems: list) -> None:
    for i, row in enumerate(rows):
        total = math.fsum(row)
        if not abs(total - 1.0) <= TOL or not all(0.0 <= p <= 1.0 for p in row):
            problems.append(f"{what} row {i + 1} sums to {total!r}")
            return


def _topic_blocks(path, n_topics, top, vocab, problems, what) -> list:
    from topicmodels import reports
    blocks = reports.parse_topic_word_file(path)
    if len(blocks) != n_topics:
        problems.append(f"{what}: {len(blocks)} topics, expected {n_topics}")
    want = min(top, len(vocab))
    for i, (_, entries) in enumerate(blocks):
        probs = [p for _, p in entries]
        if len(entries) != want:
            problem = f"{len(entries)} words, expected {want}"
        elif any(w not in vocab for w, _ in entries):
            problem = "word not in the input"
        elif not all(0.0 < p <= 1.0 for p in probs) or probs != sorted(probs, reverse=True):
            problem = "probabilities out of order or range"
        else:
            continue
        problems.append(f"{what} topic {i + 1}: {problem}")
        break
    return blocks


def _sparse(path, n_items, problems, what) -> None:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    values = [float(x) for x in lines[:-1]]
    label, _, avg = lines[-1].rpartition(":")
    if len(values) != n_items or not label.startswith("average saprse ratio of"):
        problems.append(f"{what}: {len(values)} ratios, expected {n_items} and a summary")
    elif not all(0.0 <= r <= 1.0 for r in values) \
            or abs(float(avg) - math.fsum(values) / n_items) > TOL:
        problems.append(f"{what}: ratios out of range or summary mismatch")


def check_fit(call, outdir: Path, meta: dict) -> tuple[list, dict]:
    """Problems with one ``fit`` call's files, plus facts read from them.

    ``meta`` holds the input's document count ``docs``, its word set
    ``words``, its metadata item set ``items``, ``topic_of`` (word -> planted
    topic) and ``top``, the number of top words asked for.  The facts are the
    fitted count ``n`` and the purity of every topic-word block.
    """
    from topicmodels import reports
    count, files = OUTPUTS[call.model]
    problems: list = []
    facts = {"n": None, "purity": []}
    n = _file_count(outdir, files[0][0])
    if n is None:
        return [f"{files[0][0]}: missing, or more than one"], facts
    labels = len(meta["items"])
    expected = {"k": int(flag(call.flags, "-k", 0)), "labels": labels,
                "labels+1": labels + 1, "final": n}[count]
    if n != expected:
        problems.append(f"{files[0][0]}: count {n}, expected {expected}")
    facts["n"] = n
    # PLDA fits --label-topics topics (CLI default 2) per label and background
    n_topics = n * int(flag(call.flags, "--label-topics", 2)) if count == "labels+1" else n
    docs = meta["docs"]
    for template, kind in files:
        path = outdir / template.format(n=n)
        what = path.name
        if not path.is_file():
            problems.append(f"{what}: missing")
            continue
        try:
            if kind == "words":
                blocks = _topic_blocks(path, n_topics, meta["top"], meta["words"],
                                       problems, what)
                for _, entries in blocks:
                    planted = [meta["topic_of"].get(w) for w, _ in entries]
                    if planted:
                        facts["purity"].append(
                            max(planted.count(t) for t in set(planted)) / len(planted))
            elif kind == "links":
                _topic_blocks(path, n_topics, meta["top"], meta["items"], problems, what)
            elif kind == "topic_author":
                blocks = _topic_blocks(path, n_topics, meta["top"], meta["items"],
                                       problems, what)
                _sums_to_one([[p for _, p in e] for _, e in blocks], what, problems)
            elif kind in ("doc_topic", "pseudo_topic"):
                rows = reports.parse_doc_topic_file(path)
                want = int(flag(call.flags, "--pseudo-docs")) if kind == "pseudo_topic" else docs
                if len(rows) != want or any(len(r) != n_topics for r in rows):
                    problems.append(f"{what}: shape is not {want} x {n_topics}")
                _sums_to_one(rows, what, problems)
            elif kind == "theta":
                values = reports.parse_value_lines(path)
                if len(values) != n_topics:
                    problems.append(f"{what}: {len(values)} weights, expected {n_topics}")
                _sums_to_one([values], what, problems)
            elif kind == "clusters":
                values = reports.parse_value_lines(path)
                if len(values) != docs or not all(v == int(v) and 0 <= v < n_topics
                                                  for v in values):
                    problems.append(f"{what}: not {docs} cluster ids below {n_topics}")
            elif kind == "author_topic":
                rows = {}
                for line in path.read_text(encoding="utf-8").splitlines():
                    name, _, body = line.partition("\t")
                    rows[name] = [float(x) for x in body.split()]
                if set(rows) != meta["items"] \
                        or any(len(r) != n_topics for r in rows.values()):
                    problems.append(f"{what}: authors or topic count do not match the input")
                _sums_to_one(list(rows.values()), what, problems)
            elif kind == "sparse_topic":
                _sparse(path, n_topics, problems, what)
            elif kind == "sparse_doc":
                _sparse(path, docs, problems, what)
        except (ValueError, IndexError, OSError) as exc:
            problems.append(f"{what}: unreadable ({exc})")
    return problems, facts


def check_eval(stdout: str, top_n) -> list:
    """``eval`` prints one finite ``average_coherence_N`` line per N, in order."""
    lines = [line for line in stdout.splitlines() if line.startswith("average_coherence_")]
    if len(lines) != len(top_n):
        return [f"eval printed {len(lines)} coherence lines, expected {len(top_n)}"]
    for line, n in zip(lines, top_n):
        key, _, value = line.partition(":")
        try:
            ok = key == f"average_coherence_{n}" and math.isfinite(float(value))
        except ValueError:
            ok = False
        if not ok:
            return [f"malformed coherence line {line!r}"]
    return []
