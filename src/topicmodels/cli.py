"""Command-line interface.

    topicmodels preprocess --input raw.txt --output clean.txt [--stoplist FILE]
    topicmodels fit --model lda-gibbs --input clean.txt --output-dir out -k 30
    topicmodels eval --model lda-gibbs --input clean.txt -k 30 --top-n 5 10 20

Every model is one ``ModelSpec`` in ``MODELS``: its input layout, its Hyper
class (a ``core.record``), its sampler class and its output files.
One runner serves all of them: it parses the input, runs the chain with
``core.run_chain`` and writes the files of the model's reference layout
(topic-word blocks, doc-topic matrices, cluster/theta vectors, sparsity
ratios) into the output directory; file names carry the fitted topic count.

The model flags are derived from the Hyper fields (``core.fields``): a model
accepts the flags its Hyper has a field for, requires those whose field has
no default and otherwise takes the field's default.  Flags that do not apply
to the chosen model are rejected.
"""

import argparse
import os
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import (core, corpus as corpus_mod, dual_sparse, evaluation, hdp, linked,
               lda, mixture, reports, sentence_lda, short_text, supervised)
from .core import MISSING, SeededRng, fields, run_chain

DEFAULT_SEED = 42


class CliError(Exception):
    pass


def _progress(label: str, total: int):
    def callback(_sampler, it: int) -> None:
        print(f"{label}: iteration {it + 1}/{total}", file=sys.stderr)
    return callback


# --------------------------------------------------------------------------
# the model registry: one ModelSpec per model, read by one generic runner
# --------------------------------------------------------------------------

class Output(NamedTuple):
    template: str  # file name; {k} is the fitted topic, cluster or label count
    writer: str    # key of _WRITERS
    field: str     # the fit field the file holds


class _Run(NamedTuple):
    """What a writer may need besides the value it writes."""
    fitted: object
    words: list         # vocabulary, by word id
    names: list | None  # authors, links or labels, by id
    top_words: int
    k: int


# writer(path, value, run) for each kind of output file.  The reports
# functions are looked up on every call rather than bound here, so that
# wrapping them (as a tracer does) takes effect.
_WRITERS = {
    "topic_word": lambda path, phi, run: reports.write_topic_word_file(
        path, phi, run.words, run.top_words),
    "topic_link": lambda path, phi, run: reports.write_topic_word_file(
        path, phi, run.names, run.top_words),
    "labeled_topic_word": lambda path, phi, run: reports.write_topic_word_file(
        path, phi, run.words, run.top_words, paren_labels=run.fitted.topic_labels),
    "related_topic_word": lambda path, phi, run: reports.write_topic_word_file(
        path, phi, run.words, run.top_words, related_labels=run.fitted.topic_labels),
    "doc_topic": lambda path, rows, run: reports.write_doc_topic_file(path, rows),
    "values": lambda path, values, run: reports.write_value_lines(path, values),
    "author_topic": lambda path, theta, run: reports.write_author_topic_file(
        path, run.names, theta),
    "topic_author": lambda path, theta, run: reports.write_topic_author_file(
        path, theta, run.names, run.k, run.top_words),
    "topic_sparsity": lambda path, ratios, run: reports.write_sparse_ratio_file(
        path, ratios, run.fitted.avg_sparsity_topic, "topic_word"),
    "doc_sparsity": lambda path, ratios, run: reports.write_sparse_ratio_file(
        path, ratios, run.fitted.avg_sparsity_doc, "doc_topic"),
}


class ModelSpec(NamedTuple):
    hyper: type        # the Hyper record; its fields are the model's flags
    sampler: type      # built as sampler(corpus, hyper, rng); has sweep() and estimate()
    outputs: tuple     # one Output per file, in writing order
    layout: str = "plain"  # input layout: plain, sentences, authors, links or labels
    converged: str = ""    # for a learnt count: its unit in the stderr report
    count: Callable | None = None  # (hyper, fitted) -> k; None means len(fitted.phi)


MODELS = {
    "lda-gibbs": ModelSpec(lda.LdaHyper, lda.LdaGibbsSampler, (
        Output("LDAGibbs_topic_word_{k}.txt", "topic_word", "phi"),
        Output("LDAGibbs_doc_topic{k}.txt", "doc_topic", "theta"))),
    "lda-cvb0": ModelSpec(lda.LdaHyper, lda.LdaCvb0, (
        Output("CVBLDA_topic_word_{k}.txt", "topic_word", "phi"),
        Output("CVBLDA_doc_topic{k}.txt", "doc_topic", "theta"))),
    "sentence-lda": ModelSpec(lda.LdaHyper, sentence_lda.SentenceLdaSampler, (
        Output("SentenceLDA_topic_word{k}.txt", "topic_word", "phi"),
        Output("SentenceLDA_doc_topic_{k}.txt", "doc_topic", "theta")),
        layout="sentences"),
    "hdp": ModelSpec(hdp.HdpHyper, hdp.HdpSampler, (
        Output("HDP_topic_word_{k}.txt", "topic_word", "phi"),
        Output("HDP_doc_topic{k}.txt", "doc_topic", "theta")),
        converged="topics"),
    "dmm": ModelSpec(mixture.MixtureHyper, mixture.DmmSampler, (
        Output("DMM_doc_cluster{k}.txt", "values", "doc_cluster"),
        Output("DMM_cluster_word_{k}.txt", "topic_word", "phi"),
        Output("DMM_theta_{k}.txt", "values", "theta"))),
    "dpmm": ModelSpec(mixture.DpmmHyper, mixture.DpmmSampler, (
        Output("DPMM_doc_cluster{k}.txt", "values", "doc_cluster"),
        Output("DPMM_cluster_word_{k}.txt", "topic_word", "phi"),
        Output("DPMM_theta_{k}.txt", "values", "theta")),
        converged="clusters"),
    "ptm": ModelSpec(short_text.PtmHyper, short_text.PtmSampler, (
        Output("PseudoDTM_topic_word_{k}.txt", "topic_word", "phi"),
        Output("PseudoDTM_pseudo_topic{k}.txt", "doc_topic", "pseudo_theta"),
        Output("PseudoDTM_doc_topic{k}.txt", "doc_topic", "theta"))),
    "btm": ModelSpec(short_text.BtmHyper, short_text.BtmSampler, (
        Output("BTM_topic_word_{k}.txt", "topic_word", "phi"),
        Output("BTM_topic_theta_{k}.txt", "values", "theta"),
        Output("BTM_doc_topic_{k}.txt", "doc_topic", "doc_topic"))),
    "atm": ModelSpec(lda.LdaHyper, linked.AtmSampler, (
        Output("authorTM_topic_word{k}.txt", "topic_word", "phi"),
        Output("authorTM_author_topic_{k}.txt", "author_topic", "theta"),
        Output("authorTM_topic_author_{k}.txt", "topic_author", "theta")),
        layout="authors"),
    "link-lda": ModelSpec(linked.LinkLdaHyper, linked.LinkLdaSampler, (
        Output("LinkLDA_topic_word_{k}.txt", "topic_word", "phi"),
        Output("LinkLDA_topic_link_{k}.txt", "topic_link", "link_phi"),
        Output("LinkLDA_doc_topic_{k}.txt", "doc_topic", "theta")),
        layout="links"),
    "labeled-lda": ModelSpec(supervised.LabeledLdaHyper, supervised.LabeledLdaSampler, (
        Output("LabeledLDA_topic_word_{k}.txt", "labeled_topic_word", "phi"),
        Output("LabeledLDA_doc_topic{k}.txt", "doc_topic", "theta")),
        layout="labels"),
    # PLDA file names count the labels, the background label included
    "plda": ModelSpec(supervised.PldaHyper, supervised.PldaSampler, (
        Output("PLDA_topic_word_{k}.txt", "related_topic_word", "phi"),
        Output("PLDA_doc_topic{k}.txt", "doc_topic", "theta")),
        layout="labels", count=lambda hyper, fitted: len(fitted.phi) // hyper.topics_per_label),
    "dual-sparse": ModelSpec(dual_sparse.SparseHyper, dual_sparse.DualSparseCvb0, (
        Output("dualSLDA_topic_word_{k}.txt", "topic_word", "phi"),
        Output("dualSLDA_doc_topic_{k}.txt", "doc_topic", "theta"),
        Output("dualSLDA_sparseRatio_TV{k}.txt", "topic_sparsity", "sparsity_topic"),
        Output("dualSLDA_sparseRatio_DT{k}.txt", "doc_sparsity", "sparsity_doc"))),
}

# Hyper field -> model flag (argparse dest), where the two names differ
_FLAG_OF_FIELD = {"n_topics": "topics", "n_clusters": "topics", "n_topics_init": "topics",
                  "alpha0": "alpha", "n_pseudo_docs": "pseudo_docs", "doc_lambda": "lambda",
                  "topics_per_label": "label_topics", "word_gamma": "gamma_strong",
                  "word_gamma_bar": "gamma_bar"}


def _model_flags(spec: ModelSpec) -> dict:
    """Model flag -> Hyper field, for every field of the model's Hyper."""
    return {_FLAG_OF_FIELD.get(f.name, f.name): f for f in fields(spec.hyper)}


# every model flag with its type, in the order the models first use them
_FLAG_TYPES = {flag: f.type for spec in MODELS.values() for flag, f in _model_flags(spec).items()}


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _in_flag_terms(spec: ModelSpec, message: str) -> str:
    """``message`` with every field or flag name of the model's Hyper
    replaced by the option that sets it (PTM checks ``doc_lambda`` as
    "lambda")."""
    option_of = {}
    for flag, f in _model_flags(spec).items():
        option_of[f.name] = option_of[flag] = _option(flag)
    return re.sub(r"\w+", lambda word: option_of.get(word[0], word[0]), message)


def _in_flag_terms_on_error(spec: ModelSpec, build: Callable, *args, **kwargs):
    """``build(*args, **kwargs)``, raising a ValueError from it (a Hyper or
    sampler rejecting a setting) as a CliError in flag terms."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise CliError(_in_flag_terms(spec, str(exc))) from None


def _parse(layout: str, lines):
    """Index ``lines`` in the given input layout (parsers looked up per call,
    as the writers are)."""
    if layout == "plain":
        return corpus_mod.parse_plain(lines)
    if layout == "sentences":
        return corpus_mod.parse_sentences(lines)
    return corpus_mod.parse_tagged(lines, kind=layout)


def _add_model_arguments(parser):
    parser.add_argument("--model", required=True, choices=sorted(MODELS))
    parser.add_argument("--input", required=True)
    parser.add_argument("--encoding", default="utf-8")
    for flag, kind in _FLAG_TYPES.items():
        parser.add_argument(_option(flag), *(["-k"] if flag == "topics" else []), type=kind)
    parser.add_argument("--iterations", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _hyper_options(args) -> dict:
    """Reject flags foreign to the model and require the flags whose Hyper
    field has no default; return the Hyper fields the given flags set."""
    model = args.model
    if args.iterations < 1:
        raise CliError("--iterations must be >= 1")
    if getattr(args, "top_words", 1) < 1:
        raise CliError("--top-words must be >= 1")
    if any(n < 1 for n in getattr(args, "top_n", ())):
        raise CliError("--top-n must be >= 1")
    flags = _model_flags(MODELS[model])
    given = {flag: getattr(args, flag) for flag in _FLAG_TYPES if getattr(args, flag) is not None}
    for flag in given:
        if flag not in flags:
            raise CliError(f"{_option(flag)} is not applicable to model {model}")
    for flag in _FLAG_TYPES:
        if flag in flags and flag not in given and flags[flag].default is MISSING:
            raise CliError(f"model {model} requires {_option(flag)}")
    return {flags[flag].name: value for flag, value in given.items()}


def _require_text_encoding(encoding: str) -> None:
    """Raise CliError unless ``encoding`` names a text encoding (not, say,
    ``rot13``, a str-to-str codec that ``open`` rejects too)."""
    try:
        "".encode(encoding)
    except LookupError as exc:
        raise CliError(f"--encoding: {exc}") from None


def _require_writable_dir(outdir: Path) -> None:
    """Raise CliError unless the nearest existing one of ``outdir`` and its
    ancestors is a writable directory, where the outputs can be created.
    A dangling symlink counts as existing, and is not a directory.  Creates
    nothing."""
    ancestor = outdir.absolute()
    while not (ancestor.exists() or ancestor.is_symlink()):
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        raise CliError(f"--output-dir {outdir}: {ancestor} is not a directory")
    if not os.access(ancestor, os.W_OK | os.X_OK):
        raise CliError(f"--output-dir {outdir}: {ancestor} is not writable")


def _require_writable_file(path: Path) -> None:
    """Raise CliError unless ``path`` can be written as a file: not a
    directory, in an existing directory, and writable.  Creates nothing."""
    parent = path.absolute().parent
    if path.is_dir():
        raise CliError(f"--output {path}: is a directory")
    if not parent.is_dir():
        raise CliError(f"--output {path}: {parent} is not an existing directory")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise CliError(f"--output {path}: {parent} is not writable")
    if path.exists() and not os.access(path, os.W_OK):
        raise CliError(f"--output {path}: is not writable")


def _run(args, outdir):
    """Parse, fit and, unless ``outdir`` is None, write the model's files.

    Returns (docword, phi) for coherence evaluation.
    """
    spec = MODELS[args.model]
    options = _hyper_options(args)
    hyper = _in_flag_terms_on_error(spec, spec.hyper, **options)
    if outdir is not None:
        _require_writable_dir(outdir)
    corpus = _parse(spec.layout, corpus_mod.read_lines(args.input, args.encoding))
    try:
        sampler = _in_flag_terms_on_error(spec, spec.sampler, corpus, hyper, SeededRng(args.seed))
    except MemoryError:
        topics = "" if args.topics is None else f"{args.topics} topics, "
        raise CliError(f"out of memory building the {args.model} sampler for {topics}"
                       f"V = {corpus.n_words} words and M = {corpus.n_docs} documents") from None
    fitted = run_chain(sampler, args.iterations, _progress(args.model, args.iterations))
    k = spec.count(hyper, fitted) if spec.count else len(fitted.phi)
    if spec.converged:
        unit = spec.converged.removesuffix("s") if k == 1 else spec.converged
        print(f"{args.model}: converged to {k} {unit}", file=sys.stderr)
    if outdir is not None:
        meta = corpus.meta_vocabulary
        names = None if meta is None else meta.id_to_word
        _write_outputs(spec, outdir, _Run(fitted, corpus.vocabulary.id_to_word, names,
                                          args.top_words, k))
    return corpus.docword, fitted.phi


def _write_outputs(spec: ModelSpec, outdir: Path, run: _Run) -> None:
    """Write the model's files under temporary names in ``outdir``, then rename
    them.  A name taken by a directory fails first; any later failure removes
    the temporary files, and the directory if this call created it."""
    paths = [outdir / out.template.format(k=run.k) for out in spec.outputs]
    parts = [path.with_name(f".{path.name}.part") for path in paths]
    for path in paths + parts:
        if path.is_dir():
            raise CliError(f"--output-dir {outdir}: {path.name} is a directory")
    created = not outdir.exists()
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        for out, part in zip(spec.outputs, parts):
            _WRITERS[out.writer](part, getattr(run.fitted, out.field), run)
        for part, path in zip(parts, paths):
            part.replace(path)
    except BaseException:
        for file in parts + (paths if created else []):
            file.unlink(missing_ok=True)
        if created:
            outdir.rmdir()
        raise


def _cmd_fit(args) -> int:
    _run(args, Path(args.output_dir))
    return 0


def _cmd_eval(args) -> int:
    docword, phi = _run(args, None)
    for n, value in zip(args.top_n, evaluation.average_coherence(docword, phi, args.top_n)):
        print(f"average_coherence_{n}:\t{value!r}")
    return 0


def _cmd_preprocess(args) -> int:
    output = Path(args.output)
    _require_writable_file(output)
    stoplist = (corpus_mod.StopList.load(args.stoplist, args.encoding)
                if args.stoplist else corpus_mod.StopList.default())
    lines = corpus_mod.read_lines(args.input, args.encoding)
    cleaned = []
    dropped = 0
    for line in lines:
        text = corpus_mod.preprocess(line, stoplist)
        if text:
            cleaned.append(text)
        else:
            dropped += 1
    if dropped:
        core.warn(__name__, "dropped %d line(s) left empty by cleaning", dropped)
    try:  # encoded before the output is opened, so a failure leaves it as it was
        output.write_bytes(("\n".join(cleaned) + ("\n" if cleaned else "")).encode(args.encoding))
    except UnicodeEncodeError as exc:
        raise CliError(f"--encoding {args.encoding} cannot encode {exc.object[exc.start]!a} "
                       "in the cleaned text") from None
    print(f"preprocess: wrote {len(cleaned)} documents ({dropped} dropped)",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topicmodels",
        description="Fit classical topic models and evaluate them.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model and write its output files")
    _add_model_arguments(fit)
    fit.add_argument("--output-dir", required=True, dest="output_dir")
    fit.add_argument("--top-words", type=int, default=5, dest="top_words")
    fit.set_defaults(func=_cmd_fit)

    ev = sub.add_parser("eval", help="fit a model and print coherence scores")
    _add_model_arguments(ev)
    ev.add_argument("--top-n", type=int, nargs="+", default=[5, 10, 20], dest="top_n")
    ev.set_defaults(func=_cmd_eval)

    pre = sub.add_parser("preprocess", help="clean a raw corpus file")
    pre.add_argument("--input", required=True)
    pre.add_argument("--output", required=True)
    pre.add_argument("--stoplist")
    pre.add_argument("--encoding", default="utf-8")
    pre.set_defaults(func=_cmd_preprocess)
    return parser


def main(argv=None) -> int:
    core.warning_format = "%(levelname)s: %(message)s"
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _require_text_encoding(args.encoding)
        return args.func(args)
    except (CliError, corpus_mod.CorpusError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
