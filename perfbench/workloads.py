"""The benchmark's workloads: generated inputs plus the CLI calls run on them.

Each workload is one closed-loop client: its calls run one after another,
one child process at a time, and one pass over the calls is an iteration.
Every workload also cleans a noisy rendering of its corpus (``preprocess``)
and scores one model (``eval`` with one sweep), so every end-to-end metric
exists on every workload; ``ingest`` is the one where those two dominate.

    python3 perfbench/workloads.py --workload wide-k --seed 1   # input hashes
"""

import argparse
import json
import sys
from dataclasses import dataclass

import gen

TOP_WORDS = 10          # top words listed per topic; purity is scored on them
TOP_N = (5, 10, 20)     # coherence sizes asked of every ``eval``


@dataclass(frozen=True)
class Call:
    command: str        # "fit", "eval" or "preprocess"
    input: str          # name of a generated input
    model: str = ""
    flags: tuple = ()   # model flags, without --seed and output options


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: gen.Spec
    calls: tuple

    def generate(self, seed: int, scale: float = 1.0):
        """(corpus, {input name: (text, layout)}) for this seed.

        ``scale`` shrinks the document count; the harness self-test uses it.
        """
        spec = self.spec
        if scale != 1.0:
            spec = gen.Spec(**{**spec.__dict__, "docs": max(30, int(spec.docs * scale))})
        corpus = gen.Corpus(spec, seed)
        renderers = {"plain": (corpus.plain, "plain"),
                     "sentences": (corpus.sentences, "sentences"),
                     "authors": (corpus.authors, "tagged"),
                     "links": (corpus.links, "tagged"),
                     "labels": (corpus.labels, "tagged"),
                     "raw": (corpus.raw, "raw")}
        names = sorted({c.input for c in self.calls} | {"plain"})
        return corpus, {n: (renderers[n][0](), renderers[n][1]) for n in names}


def _fit(model, input_="plain", *flags):
    return Call("fit", input_, model, tuple(flags))


def _eval(model, *flags):
    return Call("eval", "plain", model, tuple(flags))


_PRE = Call("preprocess", "raw")

WORKLOADS = {w.name: w for w in (
    Workload(
        "wide-k",
        "lda-gibbs at K=100 on long documents: the dense O(K) token loop is "
        "most of the fit, so a sparse conditional shows here",
        gen.Spec(docs=200, topics=100, words_per_topic=39, sentences=4,
                 sentence_len=15, topics_per_doc=2),
        (_PRE,
         _fit("lda-gibbs", "plain", "-k", "100", "--iterations", "10"),
         _eval("lda-gibbs", "-k", "100", "--iterations", "1"))),
    Workload(
        "short-text",
        "dmm, dpmm, ptm, btm and hdp on one-topic 12-token documents: the only "
        "workload that runs mixture, short_text and hdp",
        gen.Spec(docs=150, topics=10, words_per_topic=60, sentences=1,
                 sentence_len=12, topics_per_doc=1),
        (_PRE,
         _fit("dmm", "plain", "-k", "10", "--iterations", "20"),
         _fit("dpmm", "plain", "-k", "10", "--iterations", "20"),
         _fit("ptm", "plain", "-k", "10", "--pseudo-docs", "25", "--iterations", "20"),
         _fit("btm", "plain", "-k", "10", "--iterations", "20"),
         _fit("hdp", "plain", "-k", "10", "--iterations", "20"),
         _eval("dmm", "-k", "10", "--iterations", "1"))),
    Workload(
        "small-k-zoo",
        "eight models at K=5 over all four metadata layouts: process start-up, "
        "CVB0 init and small-K sweep speed; the only run of sentence_lda, linked, "
        "supervised, dual_sparse",
        gen.Spec(docs=100, topics=5, words_per_topic=40, sentences=3,
                 sentence_len=5, topics_per_doc=2),
        (_PRE,
         _fit("lda-gibbs", "plain", "-k", "5", "--iterations", "15"),
         _fit("lda-cvb0", "plain", "-k", "5", "--iterations", "15"),
         _fit("sentence-lda", "sentences", "-k", "5", "--iterations", "15"),
         _fit("atm", "authors", "-k", "5", "--iterations", "15"),
         _fit("link-lda", "links", "-k", "5", "--iterations", "15"),
         _fit("labeled-lda", "labels", "--iterations", "15"),
         _fit("plda", "labels", "--label-topics", "2", "--iterations", "15"),
         _fit("dual-sparse", "plain", "-k", "5", "--iterations", "15"),
         _eval("lda-gibbs", "-k", "5", "--iterations", "1"))),
    Workload(
        "ingest",
        "noisy raw text through preprocess, a one-sweep fit and eval: corpus "
        "cleaning, output writing and coherence weigh most here, about as much "
        "as the sampler",
        gen.Spec(docs=5000, topics=5, words_per_topic=400, sentences=2,
                 sentence_len=6, topics_per_doc=2),
        (_PRE,
         _fit("lda-gibbs", "plain", "-k", "20", "--iterations", "1"),
         _eval("lda-gibbs", "-k", "20", "--iterations", "1"))),
)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Print the SHA-256 of a workload's inputs.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    args = p.parse_args(argv)
    _, inputs = WORKLOADS[args.workload].generate(args.seed, args.scale)
    print(json.dumps({n: gen.sha256(text) for n, (text, _) in inputs.items()}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
