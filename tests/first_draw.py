"""Read a sampler kernel's normalised weights off its first draw.

A kernel draws an item by inverting one uniform u from ``rng.random()``
over the item's weights, walked in whatever order its buckets keep.  With
the rng scripted to hand that draw a chosen u, the outcome as a function of
u cuts [0, 1) into intervals, and each outcome's total length is its
normalised weight.  ``first_draw_shares`` finds the cuts with a coarse grid
and then bisects each one down to one ulp, so the shares can be compared
with ``oracles.py`` at the oracles' 1e-10 tolerance.  A SparseLDA draw
lays its intervals out as q over the word index, in the index's order, then
s + r over the document's listed topics, in list order, then s over the rest
of its topics, in id order; a topic can own two of them (its q share and
its s + r or s share), so the intervals are summed per outcome.

The tests put the item to check first in the sampler's state (or hand the
kernel a slice holding only that item), because later draws of a sweep
reuse running totals that an oracle does not see.  Where a sweep makes
draws of another kind first (PTM's pseudo-document draws, Link LDA's words
before its links), their uniforms are scripted as a prefix.  A prefix can
also steer the draws before the probed one (``uniform_for``), to check a
draw against the state that earlier moves of its own document left; the
running totals it reuses are then the ones under test.
"""

import pickle
from math import nextafter

from topicmodels.core import counts_from_assignments, index_rows
from topicmodels.lda import sweep_sparse_tokens

from oracles import assert_close_distribution

# The coarse probes before the cuts are bisected: a uniform grid of [0, 1),
# and grids uniform in log u and in log(1 - u) down to 2^-44, eight to a
# halving.  The log grids find the intervals of a bucket that holds little of
# the mass, such as the smoothing bucket at the end of a bucketed walk.
_LOG_GRID = [2.0 ** (-j / 8) for j in range(1, 8 * 44)]
PROBES = sorted({i / 128 for i in range(128)} | set(_LOG_GRID) | {1 - x for x in _LOG_GRID}
                | {nextafter(1.0, 0.0)})


class ScriptEnd(Exception):
    """The kernel asked for a uniform past the end of the script."""


class ScriptedRng:
    """Hands out the scripted uniforms, then raises ``ScriptEnd``."""

    def __init__(self, uniforms):
        self._uniforms = iter(uniforms)

    def random(self) -> float:
        try:
            return next(self._uniforms)
        except StopIteration:
            raise ScriptEnd from None


def first_draw_shares(run, read, prefix=(), suffix=()) -> dict:
    """Each outcome's share of [0, 1) for the draw that gets the uniform
    after ``prefix``; ``suffix`` scripts the uniforms of the draws after it.

    ``run(rng)`` puts the state back as it was and runs the kernel on
    ``rng``, which stops it (``ScriptEnd``) at the first uniform past the
    script; ``read()`` then returns that draw's outcome.
    """
    def outcome(u):
        return draw_outcome(run, read, [*prefix, u, *suffix])

    def cut(lo, hi, at_lo):
        """The least u in (lo, hi] whose outcome is not ``at_lo``, given
        that the outcome at hi is not."""
        while True:
            mid = (lo + hi) / 2
            if mid in (lo, hi):
                return hi
            if outcome(mid) == at_lo:
                lo = mid
            else:
                hi = mid

    shares = {}
    start, current = 0.0, outcome(0.0)
    for lo, hi in zip(PROBES, PROBES[1:]):
        at_hi = outcome(hi)
        while at_hi != current:
            edge = cut(max(lo, start), hi, current)
            shares[current] = shares.get(current, 0.0) + edge - start
            start, current = edge, outcome(edge)
    shares[current] = shares.get(current, 0.0) + 1.0 - start
    return shares


def draw_outcome(run, read, uniforms):
    """``read()`` after ``run`` on an rng scripted with ``uniforms``."""
    try:
        run(ScriptedRng(uniforms))
    except ScriptEnd:
        pass
    return read()


def uniform_for(run, read, want, prefix=()) -> float:
    """A probe uniform that gives the draw after ``prefix`` the outcome
    ``want``: a script that steers a sweep into a chosen state."""
    u = next((u for u in PROBES if draw_outcome(run, read, [*prefix, u]) == want), None)
    assert u is not None, f"no probe uniform draws {want}"
    return u


def assert_shares_match(shares: dict, want: list, rel=1e-10) -> None:
    """Compare the shares of outcomes 0..len(want)-1 with the oracle's
    weights ``want`` at ``rel``.  An outcome the oracle weighs but the grid
    never found fails here by name, so a grid too coarse fails the test."""
    missing = [k for k, w in enumerate(want) if w > 0 and k not in shares]
    assert not missing, f"no interval found for outcomes {missing}; shares {shares}"
    assert set(shares) <= set(range(len(want))), (shares, want)
    assert_close_distribution([shares.get(k, 0.0) for k in range(len(want))], want, rel)


def move_to_front(seq: list, i: int) -> None:
    seq.insert(0, seq.pop(i))


def with_state(sampler, **state):
    """The sampler, given ``state`` (attribute name -> value) and its own ``_counts()`` of it."""
    vars(sampler).update(state)
    vars(sampler).update(sampler._counts())
    return sampler


def without_token(sampler, n, z=None):
    """The count tables of token topics ``z`` (default the sampler's z), by
    name, counted afresh with token n (an index or a slice) of the first
    document left out.  Beside ``core.counts_from_assignments``'s tables,
    ``topic_word`` holds the dense rows of the recount's word index, which
    the oracles take."""
    docword, z = ([list(row) for row in rows] for rows in (sampler.corpus.docword, z or sampler.z))
    del docword[0][n], z[0][n]
    K = sampler.hyper.n_topics
    tables = counts_from_assignments(docword, z, K, sampler.corpus.n_words)
    tables["topic_word"] = index_rows(tables["word_topics"], K)
    return tables


def put_lda_token_first(sampler, m: int, n: int):
    """Move token n of document m to the front of an ``LdaGibbsSampler``'s
    state, documents and their allowed topics too, and return the count
    tables, by name, with that token excluded, as the oracles take them."""
    docword = sampler.corpus.docword
    for seq in (docword, sampler.z, sampler.allowed):
        if seq is not None:
            move_to_front(seq, m)
    move_to_front(docword[0], n)
    move_to_front(sampler.z[0], n)
    return without_token(sampler, 0)


def rerun_sweep(sampler, assignments=("z",)):
    """A ``run`` for ``first_draw_shares``: recount the sampler's
    assignments (the attributes ``assignments`` names) as they are now with
    its own ``_counts()``, then each run puts that state back and sweeps
    once with the scripted rng."""
    counts = sampler._counts()
    vars(sampler).update(counts)
    state = pickle.dumps({**{name: getattr(sampler, name) for name in assignments}, **counts})

    def run(rng):
        vars(sampler).update(pickle.loads(state))
        sampler.rng = rng
        sampler.sweep()
    return run


def sweep_draw_shares(sampler, prefix, read, assignments=("z",), run=None) -> dict:
    """``first_draw_shares`` of the draw that ``sweep()`` itself makes
    after the draws ``prefix`` scripts, from a recount of the sampler's
    state (see ``rerun_sweep``, or pass another ``run``).  The sampler is
    left stopped at that draw, with the item's old topic still in its
    assignments, so that a recount of them gives the oracle's inputs."""
    run = run or rerun_sweep(sampler, assignments)
    shares = first_draw_shares(run, read, prefix)
    try:
        run(ScriptedRng(prefix))
    except ScriptEnd:
        return shares
    raise AssertionError("the sweep made no draw after the prefix")


def cluster_doc_shares(sampler) -> tuple:
    """``sweep_draw_shares`` of the first document's cluster draw in a
    ``DmmSampler`` or ``DpmmSampler``.  Their counts live in
    ``sampler.tables``, which ``rerun_sweep`` does not recount, so each run
    puts z and those counts back itself.  The outcome is read as the
    document is added to its cluster: in DPMM the next document's removal
    can delete a cluster and relabel the last one in z.  Returns the shares
    and what ``oracles.dmm_doc_oracle`` takes for that draw, with the
    document excluded: the cluster sizes, word counts and totals, counted
    afresh from z."""
    tables = sampler.tables
    state = pickle.dumps((sampler.z, tables.counts(sampler.z, tables.n_clusters)))
    add_doc, added = tables.add_doc, []

    def record(m, k):
        added[:] = [k]
        add_doc(m, k)
    tables.add_doc = record

    def run(rng):
        sampler.z, counts = pickle.loads(state)
        vars(tables).update(counts)
        sampler.rng = rng
        sampler.sweep()
    shares = sweep_draw_shares(sampler, (), lambda: added[0], run=run)
    # DPMM has set z[0] to -1: count the document in cluster 0, then take it out
    counts = tables.counts([0, *sampler.z[1:]], tables.n_clusters)
    rows = index_rows(counts["word_clusters"], tables.n_clusters)
    counts["n_docs_in"][0] -= 1
    for v in sampler.corpus.docword[0]:
        rows[0][v] -= 1
        counts["cluster_total"][0] -= 1
    return shares, (counts["n_docs_in"], rows, counts["cluster_total"])


def sentence_shares(sampler) -> tuple:
    """``sweep_draw_shares`` of the first sentence's topic draw in a
    ``SentenceLdaSampler``.  Returns the shares and the count tables, by
    name, with that sentence excluded, counted afresh from z."""
    shares = sweep_draw_shares(sampler, (), lambda: sampler.z[0][0])
    lengths = iter(sampler.clusters.unit_len)  # zm first: zip stops before taking a length
    z = [[k for k, n in zip(zm, lengths) for _ in range(n)] for zm in sampler.z]
    return shares, without_token(sampler, slice(sampler.clusters.unit_len[0]), z)


def remove_sentence(sampler, m: int, s: int) -> int:
    """Take sentence s of document m out of a ``SentenceLdaSampler``'s
    counts, as its sweep does before the sentence's draw; returns its topic."""
    k, u = sampler.z[m][s], sampler.first_sentence[m] + s
    sampler.clusters.remove_doc(u, k)
    sampler.doc_topic[m][k] -= sampler.clusters.unit_len[u]
    return k


def add_sentence(sampler, m: int, s: int, k: int) -> None:
    """Give sentence s of document m topic k and put it back into the counts."""
    u = sampler.first_sentence[m] + s
    sampler.z[m][s] = k
    sampler.clusters.add_doc(u, k)
    sampler.doc_topic[m][k] += sampler.clusters.unit_len[u]


def ptm_pseudo_doc_shares(sampler) -> tuple:
    """``sweep_draw_shares`` of the first short document's pseudo-document
    draw in a ``PtmSampler``.  Returns the shares and what
    ``oracles.ptm_pseudo_doc_oracle`` takes first for that draw, with the
    document excluded: the documents, topic counts and tokens of every
    pseudo document, counted afresh from l and z."""
    shares = sweep_draw_shares(sampler, (), lambda: sampler.l[0], ("l", "z"))
    tables = sampler._counts()["tables"]
    tables.remove_doc(0, sampler.l[0])
    return shares, (tables.n_docs_in, index_rows(tables.word_clusters, tables.n_clusters),
                    tables.cluster_total)


def lda_token_shares(sampler) -> dict:
    """``first_draw_shares`` of an ``LdaGibbsSampler``'s first token, drawn
    by ``sweep()`` within the topics its document may use."""
    return first_draw_shares(rerun_sweep(sampler), lambda: sampler.z[0][0])


def put_biterm_first(sampler, i: int) -> dict:
    """Move biterm instance i to the front of a ``BtmSampler``'s state and
    return its count tables, by name, with that biterm excluded."""
    move_to_front(sampler.instances, i)
    move_to_front(sampler.z, i)
    counts = sampler._counts()
    (w1, w2), k = sampler.instances[0], sampler.z[0]
    counts["n_b"][k] -= 1
    counts["word_topics"][w1][k] -= 1
    counts["word_topics"][w2][k] -= 1
    counts["topic_total"][k] -= 2
    return counts


def biterm_shares(sampler) -> dict:
    """``first_draw_shares`` of a ``BtmSampler``'s first biterm instance."""
    return first_draw_shares(rerun_sweep(sampler), lambda: sampler.z[0])


def slice_draw(sampler, counts: dict, item: int, topic: int, reads, alpha: float, beta: float):
    """``run`` and ``read`` for one draw of ``lda.sweep_sparse_tokens`` on a
    slice holding ``item`` (a word or link id) alone, now in ``topic``.
    Each run puts the sampler's tables back to ``counts`` (attribute name
    -> table) and draws against what ``reads()`` returns then: the slice's
    rows, topic_total and word index.  Every topic is allowed."""
    state = pickle.dumps(counts)
    z = []

    def run(rng):
        vars(sampler).update(pickle.loads(state))
        z[:] = [[topic]]
        rows, *tables = reads()
        sweep_sparse_tokens([[item]], z, rows, [range(len(rows[0]))], *tables, alpha, beta, rng)
    return run, lambda: z[0][0]


def ptm_token_shares(sampler, m: int, n: int, prefix) -> tuple:
    """``sweep_draw_shares`` of token n of short document m in a
    ``PtmSampler``, moved to the front of the state, so that it is the
    first draw of the token step, after the sweep's pseudo-document draws
    (one uniform each of ``prefix``).  Returns the shares and what
    ``oracles.ptm_token_oracle`` takes for that draw, with the token
    excluded: its pseudo document's row and total, its column of the topic
    counts and the topic totals, counted afresh from l and z."""
    for seq in (sampler.corpus.docword, sampler.z, sampler.l):
        move_to_front(seq, m)
    move_to_front(sampler.corpus.docword[0], n)
    move_to_front(sampler.z[0], n)
    shares = sweep_draw_shares(sampler, prefix, lambda: sampler.z[0][0], ("l", "z"))
    counts = sampler._counts()
    tables = counts["tables"]
    l, k, v = sampler.l[0], sampler.z[0][0], sampler.corpus.docword[0][0]
    row = index_rows(tables.word_clusters, tables.n_clusters)[l]
    held = counts["word_topics"][v]
    return shares, ([c - (j == k) for j, c in enumerate(row)],
                    tables.cluster_total[l] - 1,
                    [held.get(j, 0) - (j == k) for j in range(sampler.hyper.n_topics)],
                    [t - (j == k) for j, t in enumerate(counts["topic_total"])])


def linklda_shares(sampler, m: int, i: int, links: bool, prefix) -> tuple:
    """``sweep_draw_shares`` of word i (or, with ``links``, link i) of
    document m in a ``LinkLdaSampler``, moved to the front of the state:
    the first draw of the sweep's word step, or the first of its link step,
    which comes after every word has been drawn (one uniform each of
    ``prefix``).  Returns the shares and ``linklda_excluded`` of the draw."""
    corpus = sampler.corpus
    for seq in (corpus.docword, corpus.links, sampler.z, sampler.x):
        move_to_front(seq, m)
    items, own = (corpus.links, "x") if links else (corpus.docword, "z")
    move_to_front(items[0], i)
    move_to_front(getattr(sampler, own)[0], i)
    shares = sweep_draw_shares(sampler, prefix, lambda: getattr(sampler, own)[0][0], ("z", "x"))
    return shares, linklda_excluded(sampler, 0, 0, links)


def linklda_draw(sampler, m: int, i: int, links: bool = False):
    """``slice_draw`` of word i (or, with ``links``, link i) of document m
    in a ``LinkLdaSampler``, against the document's pooled row, from the
    tables the sampler holds now, which a test may have set by hand.  It
    passes the hyperparameters it names itself, not the ones ``sweep()``
    passes; ``linklda_shares`` checks those."""
    hyper = sampler.hyper
    held = {name: getattr(sampler, name) for name in sampler._counts()}
    if links:
        return slice_draw(sampler, held, sampler.corpus.links[m][i], sampler.x[m][i],
                          lambda: ([sampler.doc_topic[m]], sampler.link_total,
                                   sampler.link_topics),
                          hyper.alpha, hyper.gamma)
    return slice_draw(sampler, held, sampler.corpus.docword[m][i], sampler.z[m][i],
                      lambda: ([sampler.doc_topic[m]], sampler.word_total,
                               sampler.word_topics),
                      hyper.alpha, hyper.beta)


def linklda_excluded(sampler, m: int, i: int, links: bool = False) -> tuple:
    """What ``oracles.linklda_word_oracle`` (or, with ``links``,
    ``linklda_link_oracle``) takes for the draw of word (link) i of
    document m, with that item excluded: its column of the topic counts,
    the topic totals, and document m's own and other topic counts, counted
    afresh from z and x."""
    K = sampler.hyper.n_topics
    counts = sampler._counts()
    own, other = (sampler.x, sampler.z) if links else (sampler.z, sampler.x)
    items = sampler.corpus.links if links else sampler.corpus.docword
    index = counts["link_topics" if links else "word_topics"]
    totals = counts["link_total" if links else "word_total"]
    v, k = items[m][i], own[m][i]
    return ([index[v].get(j, 0) - (j == k) for j in range(K)],
            [t - (j == k) for j, t in enumerate(totals)],
            [own[m].count(j) - (j == k) for j in range(K)],
            [other[m].count(j) for j in range(K)])
