"""Command-line interface.

    topicmodels preprocess --input raw.txt --output clean.txt [--stoplist FILE]
    topicmodels fit --model lda-gibbs --input clean.txt --output-dir out -k 30
    topicmodels eval --model lda-gibbs --input clean.txt -k 30 --top-n 5 10 20

Each model writes the output files of its reference layout (topic-word
blocks, doc-topic matrices, cluster/theta vectors, sparsity ratios) into
the output directory; file names carry the fitted topic count.  Flags that
do not apply to the chosen model are rejected.
"""

import argparse
import logging
import sys
from pathlib import Path

from . import (corpus as corpus_mod, dual_sparse, evaluation, hdp, linked,
               lda, mixture, reports, sentence_lda, short_text, supervised)
from .core import SeededRng

DEFAULT_SEED = 42

log = logging.getLogger(__name__)


class CliError(Exception):
    pass


def _progress(label: str, total: int):
    def callback(_sampler, it: int) -> None:
        print(f"{label}: iteration {it + 1}/{total}", file=sys.stderr)
    return callback


# --------------------------------------------------------------------------
# one runner per model: parse the right layout, fit, optionally write files,
# and hand back (docword, phi) for coherence evaluation
# --------------------------------------------------------------------------

def _read(args):
    return corpus_mod.read_lines(args.input, args.encoding)


def _words(corpus):
    return corpus.vocabulary.id_to_word


def _output_ready(outdir) -> bool:
    """Create the output directory once the fit has succeeded, so a failed
    run leaves nothing behind; False when no files are to be written."""
    if outdir is None:
        return False
    outdir.mkdir(parents=True, exist_ok=True)
    return True


def _run_lda_gibbs(args, outdir, rng):
    corpus = corpus_mod.parse_plain(_read(args))
    hyper = lda.LdaHyper(args.topics, args.alpha, args.beta, args.iterations,
                         args.top_words)
    fitted = lda.fit_gibbs(corpus, hyper, rng,
                           sweep_callback=_progress("lda-gibbs", args.iterations))
    if _output_ready(outdir):
        reports.write_topic_word_file(outdir / f"LDAGibbs_topic_word_{args.topics}.txt",
                                      fitted.phi, _words(corpus), args.top_words)
        reports.write_doc_topic_file(outdir / f"LDAGibbs_doc_topic{args.topics}.txt",
                                     fitted.theta)
    return corpus.docword, fitted.phi


def _run_lda_cvb0(args, outdir, rng):
    corpus = corpus_mod.parse_plain(_read(args))
    hyper = lda.LdaHyper(args.topics, args.alpha, args.beta, args.iterations,
                         args.top_words)
    fitted = lda.fit_cvb0(corpus, hyper, rng,
                          sweep_callback=_progress("lda-cvb0", args.iterations))
    if _output_ready(outdir):
        reports.write_topic_word_file(outdir / f"CVBLDA_topic_word_{args.topics}.txt",
                                      fitted.phi, _words(corpus), args.top_words)
        reports.write_doc_topic_file(outdir / f"CVBLDA_doc_topic{args.topics}.txt",
                                     fitted.theta)
    return corpus.docword, fitted.phi


def _run_sentence_lda(args, outdir, rng):
    corpus = corpus_mod.parse_sentences(_read(args))
    hyper = lda.LdaHyper(args.topics, args.alpha, args.beta, args.iterations,
                         args.top_words)
    fitted = sentence_lda.fit(corpus, hyper, rng,
                              sweep_callback=_progress("sentence-lda", args.iterations))
    if _output_ready(outdir):
        reports.write_topic_word_file(outdir / f"SentenceLDA_topic_word{args.topics}.txt",
                                      fitted.phi, _words(corpus), args.top_words)
        reports.write_doc_topic_file(outdir / f"SentenceLDA_doc_topic_{args.topics}.txt",
                                     fitted.theta)
    return corpus.docword, fitted.phi


def _run_hdp(args, outdir, rng):
    corpus = corpus_mod.parse_plain(_read(args))
    hyper = hdp.HdpHyper(args.topics, args.alpha, args.beta, args.gamma,
                         args.iterations, args.top_words)
    fitted, n_topics = hdp.fit(corpus, hyper, rng,
                               sweep_callback=_progress("hdp", args.iterations))
    print(f"hdp: converged to {n_topics} topics", file=sys.stderr)
    if _output_ready(outdir):
        reports.write_topic_word_file(outdir / f"HDP_topic_word_{n_topics}.txt",
                                      fitted.phi, _words(corpus), args.top_words)
        reports.write_doc_topic_file(outdir / f"HDP_doc_topic{n_topics}.txt",
                                     fitted.theta)
    return corpus.docword, fitted.phi


def _run_dmm(args, outdir, rng):
    corpus = corpus_mod.parse_plain(_read(args))
    hyper = mixture.MixtureHyper(args.topics, args.alpha, args.beta,
                                 args.iterations, args.top_words)
    fitted = mixture.dmm_fit(corpus, hyper, rng,
                             sweep_callback=_progress("dmm", args.iterations))
    if _output_ready(outdir):
        k = args.topics
        reports.write_value_lines(outdir / f"DMM_doc_cluster{k}.txt", fitted.doc_cluster)
        reports.write_topic_word_file(outdir / f"DMM_cluster_word_{k}.txt",
                                      fitted.phi, _words(corpus), args.top_words)
        reports.write_value_lines(outdir / f"DMM_theta_{k}.txt", fitted.theta)
    return corpus.docword, fitted.phi


def _run_dpmm(args, outdir, rng):
    corpus = corpus_mod.parse_plain(_read(args))
    hyper = mixture.MixtureHyper(args.topics, args.alpha, args.beta,
                                 args.iterations, args.top_words)
    fitted, n_clusters = mixture.dpmm_fit(corpus, hyper, rng,
                                          sweep_callback=_progress("dpmm", args.iterations))
    print(f"dpmm: converged to {n_clusters} clusters", file=sys.stderr)
    if _output_ready(outdir):
        reports.write_value_lines(outdir / f"DPMM_doc_cluster{n_clusters}.txt",
                                  fitted.doc_cluster)
        reports.write_topic_word_file(outdir / f"DPMM_cluster_word_{n_clusters}.txt",
                                      fitted.phi, _words(corpus), args.top_words)
        reports.write_value_lines(outdir / f"DPMM_theta_{n_clusters}.txt", fitted.theta)
    return corpus.docword, fitted.phi


def _run_ptm(args, outdir, rng):
    corpus = corpus_mod.parse_plain(_read(args))
    hyper = short_text.PtmHyper(args.pseudo_docs, args.topics, args.alpha, args.beta,
                                getattr(args, "lambda"), args.iterations, args.top_words)
    fitted = short_text.ptm_fit(corpus, hyper, rng,
                                sweep_callback=_progress("ptm", args.iterations))
    if _output_ready(outdir):
        k = args.topics
        reports.write_topic_word_file(outdir / f"PseudoDTM_topic_word_{k}.txt",
                                      fitted.phi, _words(corpus), args.top_words)
        reports.write_doc_topic_file(outdir / f"PseudoDTM_pseudo_topic{k}.txt",
                                     fitted.pseudo_theta)
        reports.write_doc_topic_file(outdir / f"PseudoDTM_doc_topic{k}.txt",
                                     fitted.theta)
    return corpus.docword, fitted.phi


def _run_btm(args, outdir, rng):
    corpus = corpus_mod.parse_plain(_read(args))
    hyper = short_text.BtmHyper(args.topics, args.alpha, args.beta, args.window,
                                args.iterations, args.top_words)
    fitted = short_text.btm_fit(corpus, hyper, rng,
                                sweep_callback=_progress("btm", args.iterations))
    if _output_ready(outdir):
        k = args.topics
        reports.write_topic_word_file(outdir / f"BTM_topic_word_{k}.txt",
                                      fitted.phi, _words(corpus), args.top_words)
        reports.write_value_lines(outdir / f"BTM_topic_theta_{k}.txt", fitted.theta)
        reports.write_doc_topic_file(outdir / f"BTM_doc_topic_{k}.txt", fitted.doc_topic)
    return corpus.docword, fitted.phi


def _run_atm(args, outdir, rng):
    corpus = corpus_mod.parse_tagged(_read(args), kind="authors", item_sep=",")
    hyper = lda.LdaHyper(args.topics, args.alpha, args.beta, args.iterations,
                         args.top_words)
    fitted = linked.atm_fit(corpus, hyper, rng,
                            sweep_callback=_progress("atm", args.iterations))
    if _output_ready(outdir):
        k = args.topics
        names = corpus.meta_vocabulary.id_to_word
        reports.write_topic_word_file(outdir / f"authorTM_topic_word{k}.txt",
                                      fitted.phi, _words(corpus), args.top_words)
        reports.write_author_topic_file(outdir / f"authorTM_author_topic_{k}.txt",
                                        names, fitted.theta)
        reports.write_topic_author_file(outdir / f"authorTM_topic_author_{k}.txt",
                                        fitted.theta, names, k, args.top_words)
    return corpus.docword, fitted.phi


def _run_link_lda(args, outdir, rng):
    corpus = corpus_mod.parse_tagged(_read(args), kind="links", item_sep="--")
    hyper = linked.LinkLdaHyper(args.topics, args.alpha, args.beta, args.gamma,
                                args.iterations, args.top_words)
    fitted = linked.linklda_fit(corpus, hyper, rng,
                                sweep_callback=_progress("link-lda", args.iterations))
    if _output_ready(outdir):
        k = args.topics
        reports.write_topic_word_file(outdir / f"LinkLDA_topic_word_{k}.txt",
                                      fitted.phi, _words(corpus), args.top_words)
        reports.write_topic_word_file(outdir / f"LinkLDA_topic_link_{k}.txt",
                                      fitted.link_phi, corpus.meta_vocabulary.id_to_word,
                                      args.top_words)
        reports.write_doc_topic_file(outdir / f"LinkLDA_doc_topic_{k}.txt", fitted.theta)
    return corpus.docword, fitted.phi


def _run_labeled_lda(args, outdir, rng):
    corpus = corpus_mod.parse_tagged(_read(args), kind="labels", item_sep=",")
    hyper = supervised.LabeledLdaHyper(args.alpha, args.beta, args.iterations,
                                       args.top_words)
    fitted = supervised.labeled_fit(corpus, hyper, rng,
                                    sweep_callback=_progress("labeled-lda", args.iterations))
    k = len(fitted.topic_labels)
    if _output_ready(outdir):
        reports.write_topic_word_file(outdir / f"LabeledLDA_topic_word_{k}.txt",
                                      fitted.phi, _words(corpus), args.top_words,
                                      paren_labels=fitted.topic_labels)
        reports.write_doc_topic_file(outdir / f"LabeledLDA_doc_topic{k}.txt", fitted.theta)
    return corpus.docword, fitted.phi


def _run_plda(args, outdir, rng):
    corpus = corpus_mod.parse_tagged(_read(args), kind="labels", item_sep=",")
    hyper = supervised.PldaHyper(args.label_topics, args.alpha, args.beta,
                                 args.iterations, args.top_words)
    fitted = supervised.plda_fit(corpus, hyper, rng,
                                 sweep_callback=_progress("plda", args.iterations))
    n_labels = len(corpus.meta_vocabulary) + 1  # user labels plus background
    if _output_ready(outdir):
        reports.write_topic_word_file(outdir / f"PLDA_topic_word_{n_labels}.txt",
                                      fitted.phi, _words(corpus), args.top_words,
                                      related_labels=fitted.topic_labels)
        reports.write_doc_topic_file(outdir / f"PLDA_doc_topic{n_labels}.txt", fitted.theta)
    return corpus.docword, fitted.phi


def _run_dual_sparse(args, outdir, rng):
    corpus = corpus_mod.parse_plain(_read(args))
    hyper = dual_sparse.SparseHyper(
        args.topics, args.s, args.t, args.x, args.y,
        args.pi, args.pi_bar, args.gamma_strong, args.gamma_bar,
        args.iterations, args.top_words)
    fitted = dual_sparse.fit(corpus, hyper, rng,
                             sweep_callback=_progress("dual-sparse", args.iterations))
    if _output_ready(outdir):
        k = args.topics
        reports.write_topic_word_file(outdir / f"dualSLDA_topic_word_{k}.txt",
                                      fitted.phi, _words(corpus), args.top_words)
        reports.write_doc_topic_file(outdir / f"dualSLDA_doc_topic_{k}.txt", fitted.theta)
        reports.write_sparse_ratio_file(outdir / f"dualSLDA_sparseRatio_TV{k}.txt",
                                        fitted.sparsity_topic, fitted.avg_sparsity_topic,
                                        "topic_word")
        reports.write_sparse_ratio_file(outdir / f"dualSLDA_sparseRatio_DT{k}.txt",
                                        fitted.sparsity_doc, fitted.avg_sparsity_doc,
                                        "doc_topic")
    return corpus.docword, fitted.phi


_RUNNERS = {
    "lda-gibbs": _run_lda_gibbs,
    "lda-cvb0": _run_lda_cvb0,
    "sentence-lda": _run_sentence_lda,
    "hdp": _run_hdp,
    "dmm": _run_dmm,
    "dpmm": _run_dpmm,
    "ptm": _run_ptm,
    "btm": _run_btm,
    "atm": _run_atm,
    "link-lda": _run_link_lda,
    "labeled-lda": _run_labeled_lda,
    "plda": _run_plda,
    "dual-sparse": _run_dual_sparse,
}

# flag -> models it applies to, plus per-model defaults where they differ
_MODEL_FLAGS = {
    "topics": {"lda-gibbs", "lda-cvb0", "sentence-lda", "hdp", "dmm", "dpmm",
               "ptm", "btm", "atm", "link-lda", "dual-sparse"},
    "alpha": {"lda-gibbs", "lda-cvb0", "sentence-lda", "hdp", "dmm", "dpmm",
              "ptm", "btm", "atm", "link-lda", "labeled-lda", "plda"},
    "beta": {"lda-gibbs", "lda-cvb0", "sentence-lda", "hdp", "dmm", "dpmm",
             "ptm", "btm", "atm", "link-lda", "labeled-lda", "plda"},
    "gamma": {"hdp", "link-lda"},
    "lambda": {"ptm"},
    "pseudo_docs": {"ptm"},
    "window": {"btm"},
    "label_topics": {"plda"},
    "s": {"dual-sparse"}, "t": {"dual-sparse"},
    "x": {"dual-sparse"}, "y": {"dual-sparse"},
    "pi": {"dual-sparse"}, "pi_bar": {"dual-sparse"},
    "gamma_strong": {"dual-sparse"}, "gamma_bar": {"dual-sparse"},
}

_REQUIRED = {
    "topics": {"lda-gibbs", "lda-cvb0", "sentence-lda", "dmm", "ptm", "btm",
               "atm", "link-lda", "dual-sparse"},
    "pseudo_docs": {"ptm"},
}

_DEFAULTS = {
    "topics": {"hdp": 3, "dpmm": 3},
    "alpha": {"default": 0.1},
    "beta": {"ptm": 0.1, "default": 0.01},
    "gamma": {"hdp": 0.1, "link-lda": 0.01},
    "lambda": {"default": 0.01},
    "window": {"default": 5},
    "label_topics": {"default": 2},
    "s": {"default": 1.0}, "t": {"default": 1.0},
    "x": {"default": 1.0}, "y": {"default": 1.0},
    "pi": {"default": 0.1}, "pi_bar": {"default": 1e-12},
    "gamma_strong": {"default": 0.1}, "gamma_bar": {"default": 1e-12},
}


def _add_model_arguments(parser):
    parser.add_argument("--model", required=True, choices=sorted(_RUNNERS))
    parser.add_argument("--input", required=True)
    parser.add_argument("--encoding", default="utf-8")
    parser.add_argument("--topics", "-k", type=int)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--lambda", type=float, dest="lambda")
    parser.add_argument("--pseudo-docs", type=int, dest="pseudo_docs")
    parser.add_argument("--window", type=int)
    parser.add_argument("--label-topics", type=int, dest="label_topics")
    parser.add_argument("--s", type=float)
    parser.add_argument("--t", type=float)
    parser.add_argument("--x", type=float)
    parser.add_argument("--y", type=float)
    parser.add_argument("--pi", type=float)
    parser.add_argument("--pi-bar", type=float, dest="pi_bar")
    parser.add_argument("--gamma-strong", type=float, dest="gamma_strong")
    parser.add_argument("--gamma-bar", type=float, dest="gamma_bar")
    parser.add_argument("--iterations", type=int, default=1000)
    parser.add_argument("--top-words", type=int, default=5, dest="top_words")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _resolve_model_flags(args) -> None:
    """Reject flags foreign to the model, then fill in per-model defaults."""
    model = args.model
    if args.top_words < 1:
        raise CliError("--top-words must be >= 1")
    for flag, models in _MODEL_FLAGS.items():
        value = getattr(args, flag)
        if value is not None and model not in models:
            raise CliError(f"--{flag.replace('_', '-')} is not applicable to model {model}")
    for flag, models in _REQUIRED.items():
        if model in models and getattr(args, flag) is None:
            raise CliError(f"model {model} requires --{flag.replace('_', '-')}")
    for flag, models in _MODEL_FLAGS.items():
        if getattr(args, flag) is None and model in models:
            table = _DEFAULTS.get(flag, {})
            setattr(args, flag, table.get(model, table.get("default")))


def _cmd_fit(args) -> int:
    _resolve_model_flags(args)
    rng = SeededRng(args.seed)
    _RUNNERS[args.model](args, Path(args.output_dir), rng)
    return 0


def _cmd_eval(args) -> int:
    _resolve_model_flags(args)
    rng = SeededRng(args.seed)
    docword, phi = _RUNNERS[args.model](args, None, rng)
    for n in args.top_n:
        value = evaluation.average_coherence(docword, phi, n)
        print(f"average_coherence_{n}:\t{value!r}")
    return 0


def _cmd_preprocess(args) -> int:
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
        log.warning("dropped %d line(s) left empty by cleaning", dropped)
    Path(args.output).write_text(
        "\n".join(cleaned) + ("\n" if cleaned else ""), encoding=args.encoding)
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
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, corpus_mod.CorpusError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
