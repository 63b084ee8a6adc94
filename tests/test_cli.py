import builtins
import contextlib
import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import topicmodels
from topicmodels import cli, core, lda, reports
from topicmodels.cli import main
from topicmodels.core import fields
from topicmodels.corpus import Corpus, Vocabulary
from topicmodels.reports import (parse_doc_topic_file, parse_topic_word_file,
                                 parse_value_lines)

PLAIN = "\n".join(["apple banana cherry", "banana cherry date",
                   "apple date date", "cherry cherry apple banana"]) + "\n"
SENTENCES = "love lotion--light clean smell\nsmell wonderful--feel great hand\ngood shoe\n"
AUTHORS = "Ann Lee,Bo Chen\tapple banana cherry\nBo Chen\tbanana date\n"
LINKS = "100--200\tapple banana cherry\n200\tbanana date date\n"
LABELS = "Fruit,Sweet\tapple banana cherry\nSweet\tbanana date\nFruit\tapple apple\n"

RAW = "\n".join([
    "Your review helps others learn about great local businesses.",
    'I am a new ""member"" and let me tell you',
    "I like the store in general. But the people who attend the Dim Sum Section are horrible.",
    "they have a tough competition compared to all the other restaurants in the valley.",
]) + "\n"


@pytest.fixture
def plain_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(PLAIN)
    return path


def run(args):
    return main([str(a) for a in args])


def test_preprocess_subcommand(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text(RAW)
    out = tmp_path / "clean.txt"
    assert run(["preprocess", "--input", raw, "--output", out]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        assert line == line.lower()
        assert line
    assert "member" in lines[1].split()


def test_preprocess_empty_file(tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("\n")
    out = tmp_path / "clean.txt"
    assert run(["preprocess", "--input", raw, "--output", out]) == 0
    assert out.read_text() == ""


def test_preprocess_custom_stoplist(tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("apple banana\n")
    stop = tmp_path / "stop.txt"
    stop.write_text("banana\n")
    out = tmp_path / "clean.txt"
    assert run(["preprocess", "--input", raw, "--output", out, "--stoplist", stop]) == 0
    assert out.read_text() == "apple\n"


@pytest.mark.parametrize("case", ["missing-parent", "parent-is-a-file", "directory",
                                  "unwritable-parent", "unwritable-file"])
def test_preprocess_bad_output_is_one_error_line_before_cleaning(tmp_path, monkeypatch,
                                                                 capsys, case):
    raw = tmp_path / "raw.txt"
    raw.write_text(RAW)
    out, problem = {
        "missing-parent": (tmp_path / "missing" / "clean.txt",
                           f"{tmp_path / 'missing'} is not an existing directory"),
        "parent-is-a-file": (raw / "clean.txt", f"{raw} is not an existing directory"),
        "directory": (tmp_path, "is a directory"),
        "unwritable-parent": (tmp_path / "clean.txt", f"{tmp_path} is not writable"),
        "unwritable-file": (tmp_path / "clean.txt", "is not writable"),
    }[case]
    if case == "unwritable-file":
        out.write_text("kept\n")
    if case.startswith("unwritable"):
        # denied through the permission test: file modes do not bind root
        denied = out if case == "unwritable-file" else tmp_path
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: Path(path) != denied
                            and access(path, mode))

    def clean(line, stoplist):
        raise AssertionError("the input was cleaned before --output was checked")

    def tree():
        return {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")}

    monkeypatch.setattr(cli.corpus_mod, "preprocess", clean)
    before = tree()
    assert run(["preprocess", "--input", raw, "--output", out]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --output {out}: {problem}"]
    assert tree() == before


def test_preprocess_unencodable_text_leaves_the_output_as_it_was(tmp_path, capsys):
    # lower() turns İ into i and U+0307, which iso8859_9 has no byte for
    raw, out = tmp_path / "raw.txt", tmp_path / "clean.txt"
    raw.write_bytes("İstanbul bazaar\n".encode("iso8859_9"))
    for before in (None, b"kept\n"):
        if before:
            out.write_bytes(before)
        assert run(["preprocess", "--input", raw, "--output", out, "--encoding", "iso8859_9"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --encoding iso8859_9 cannot encode '\\u0307' in the cleaned text"]
        assert (out.read_bytes() if out.exists() else None) == before


def test_fit_lda_gibbs_writes_both_files(tmp_path, plain_file):
    out = tmp_path / "out"
    assert run(["fit", "--model", "lda-gibbs", "--input", plain_file,
                "--output-dir", out, "-k", "3", "--iterations", "10",
                "--top-words", "2"]) == 0
    blocks = parse_topic_word_file(out / "LDAGibbs_topic_word_3.txt")
    assert len(blocks) == 3
    assert all(len(b[1]) == 2 for b in blocks)
    rows = parse_doc_topic_file(out / "LDAGibbs_doc_topic3.txt")
    assert len(rows) == 4
    for row in rows:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)


def test_fit_reruns_are_byte_identical(tmp_path, plain_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["fit", "--model", "lda-gibbs", "--input", plain_file,
                    "--output-dir", out, "-k", "2", "--iterations", "15",
                    "--seed", "7"]) == 0
        outs.append(out)
    for fname in ("LDAGibbs_topic_word_2.txt", "LDAGibbs_doc_topic2.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


GOLDEN = "\n".join([
    "apple banana cherry apple date fig",
    "banana cherry date grape kiwi lemon",
    "apple date date mango melon banana",
    "cherry cherry apple banana olive pear",
    "grape kiwi lemon mango melon olive",
    "pear plum quince apple kiwi kiwi",
    "lemon lime lime mango plum quince",
    "olive pear plum date fig grape",
]) + "\n"

# SHA-256 of the lda-gibbs output files for GOLDEN at seed 7, 20 sweeps,
# --top-words 3.  Both K run the SparseLDA kernel.  K=20's chain has run on
# it since the kernel came in; K=5's was recorded again when the dense walk
# that ran below K=12 was deleted, because the kernel maps a uniform to a
# topic in another order.  Both were recorded again when the kernel came to
# walk the smoothing-and-row part over the document's listed topics first
# and a kept draw stopped replaying its running total's updates.  A change
# to the sampling sequence must update these and say why.
GOLDEN_LDA_GIBBS = {
    5: {"LDAGibbs_doc_topic5.txt":
        "526140bda1d16ec21f73fde2034cc1f37267f7faa9a161b723f6dbcc6e5f115c",
        "LDAGibbs_topic_word_5.txt":
        "2c7649a52511f7904ce3d96263c416790fec417cb790ec96a3ac34aa1ba48198"},
    20: {"LDAGibbs_doc_topic20.txt":
         "4242f31de90a29da193c8fc3e364fe89f84ed4b95c1434a12503f49e060eb1a0",
         "LDAGibbs_topic_word_20.txt":
         "ca1f0110865c9f98a52facf9c9f81b2b635eade6d5a0ed87e8304300f38edfeb"},
}


def _sum_of_no_floats(values, start=0):
    values = list(values)
    if any(isinstance(x, float) for x in values):
        raise AssertionError("builtin sum() of floats: use core.fold_sum")
    return builtins.sum(values, start)


@contextlib.contextmanager
def float_sum_forbidden():
    """Shadow ``sum`` in every loaded topicmodels module with one that fails
    on a float.  From Python 3.12 the builtin compensates float round-off, so
    a float sum() that reaches the output would make the golden bytes depend
    on the interpreter; this way it fails on every interpreter."""
    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "topicmodels":
                patch.setattr(module, "sum", _sum_of_no_floats, raising=False)
        yield


def assert_golden(tmp_path, model, text, flags, want):
    """Fit GOLDEN-sized input at seed 7, 20 sweeps, --top-words 3 and
    compare the SHA-256 of every output file with ``want``."""
    corpus = tmp_path / "golden.txt"
    corpus.write_text(text)
    out = tmp_path / "out"
    with float_sum_forbidden():
        assert run(["fit", "--model", model, "--input", corpus, "--output-dir", out,
                    *flags, "--iterations", "20", "--top-words", "3", "--seed", "7"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == want


@pytest.mark.parametrize("k", sorted(GOLDEN_LDA_GIBBS))
def test_lda_gibbs_golden_bytes(tmp_path, k):
    assert_golden(tmp_path, "lda-gibbs", GOLDEN, ["-k", k], GOLDEN_LDA_GIBBS[k])


# SHA-256 of the short-text models' output files for GOLDEN at seed 7,
# 20 sweeps, --top-words 3.  The flags make DPMM and HDP open and close
# clusters, tables and topics during the chain, and GOLDEN repeats words
# inside documents, so the multiplicity-2 rising factorials are used too.
# The oracle tests check each kernel's draws against tests/oracles.py;
# these hashes pin the bytes of whole chains.  The btm entries were recorded
# again when its draw came to weigh the biterm's own topic in place: a
# word-index value of 0 now stays in its dict during the draw, and the word
# bucket is split into a bucket per word, so the sums run in another order.
GOLDEN_SHORT_TEXT = {
    "dmm": (["-k", "4", "--alpha", "1", "--beta", "0.5"], {
        "DMM_cluster_word_4.txt":
        "1af02c4b739a8788f2e1bad0a5e06f268a71e6773fa8dedc542dbf42b3fe2c8a",
        "DMM_doc_cluster4.txt":
        "d6b0cabb313f82da4a6c6f0cf0a26069ef6fb6dc44b4273fd14295a692e2241c",
        "DMM_theta_4.txt":
        "8b06ca005e7f39afad68b195c243b1b47d33030589501cb6b570a374d703580b"}),
    "dpmm": (["-k", "2", "--alpha", "2", "--beta", "0.2"], {
        "DPMM_cluster_word_5.txt":
        "c3b1e7ec05c8a031d5540c35217c12b1fe4d24f6eed0c6800d825ae97c6edb72",
        "DPMM_doc_cluster5.txt":
        "4734488c44bcced3c82e77374e349bb9dcb67b459a7819b6f69548e32589cb7d",
        "DPMM_theta_5.txt":
        "371ba0764a087cbc4bcc92ff214093b949dbc57bcc1a0917c900701e4223b217"}),
    "ptm": (["-k", "3", "--pseudo-docs", "3", "--alpha", "0.5"], {
        "PseudoDTM_doc_topic3.txt":
        "914eb1722cc8bf4c91ffa5090e57b50db77cab72f1e44d701ce7826841ce2ec6",
        "PseudoDTM_pseudo_topic3.txt":
        "c5cf289ff4805b25e1b70ada5c4e50d7520a2987bce52173365578ec973121f3",
        "PseudoDTM_topic_word_3.txt":
        "48d6318ab2657f2a4829eedb06ff11ab821f724fa5e4acc617f3f25620b95e37"}),
    "btm": (["-k", "3"], {
        "BTM_doc_topic_3.txt":
        "0b0f1d975f85b50fa5ece8a029a4f9d78fc3787e55d2a781c33ccf4b1fd6d3f9",
        "BTM_topic_theta_3.txt":
        "0d1d81b40789be7697713a449ee4db7f967d3ed619c4e5e0d13272c2d3307059",
        "BTM_topic_word_3.txt":
        "efd15022e6855ecc3567ef08c776995b5c07681c6fc9782990f8b9c69bafea7f"}),
    "hdp": (["-k", "3", "--alpha", "1.0", "--gamma", "1.0"], {
        "HDP_doc_topic6.txt":
        "d23508b58fd23ea23d2fa6d2d86de75cb5d9154a881f2005ae5c8db69f35011a",
        "HDP_topic_word_6.txt":
        "f96e920231a7efc4efa9624ca9b4fd254b1e5a9bc17340983ad4b779ac9bba67"}),
}


@pytest.mark.parametrize("model", sorted(GOLDEN_SHORT_TEXT))
def test_short_text_golden_bytes(tmp_path, model):
    flags, want = GOLDEN_SHORT_TEXT[model]
    assert_golden(tmp_path, model, GOLDEN, flags, want)


# The same for PTM and BTM at K = 10.  Both have one kernel, the bucketed
# one, at every K; this pins it above the K = 3 of the entries above.
# DPMM from K = 10 starts with more clusters than GOLDEN has documents: it
# deletes empty clusters other than the last, at its start and in its
# sweeps, before it settles on one cluster.  DMM at K = 10 draws each
# document over more clusters than GOLDEN has documents, most of them empty.
# ptm's were recorded again with the SparseLDA kernel's listed-topics walk.
GOLDEN_SHORT_TEXT_K10 = {
    "dmm": (["-k", "10"], {
        "DMM_cluster_word_10.txt":
        "ccdd9d4e4a670054ddf3b4f62591f85c8519c1a5da29051649e6b2daab2e57fc",
        "DMM_doc_cluster10.txt":
        "deba9e142444395dc5aa8f8c860f4c6c879ba2deb2fba272c001db4899ce4012",
        "DMM_theta_10.txt":
        "9cbcfaffc60ccc2932bc8657ba047b0c3ee086314abfbf507109009b0902f67f"}),
    "dpmm": (["-k", "10"], {
        "DPMM_cluster_word_1.txt":
        "3a980dfc6f06d2461d7d1f45e9a9bf9733dd5447dfda8b1c01de06adeb2f0220",
        "DPMM_doc_cluster1.txt":
        "2de84622a56b51c09e96feabbe375cb7b1fdb1502810076b130475a40a7dc5a1",
        "DPMM_theta_1.txt":
        "5717e7c840171019a4eeab5b79a7f894a4986eaff93d04ec5b12c9a189f594bf"}),
    "ptm": (["-k", "10", "--pseudo-docs", "3", "--alpha", "0.5"], {
        "PseudoDTM_doc_topic10.txt":
        "135b0e189ff31cc40d0417fda96b3d98f4769ba64d2126d49c7466f724621876",
        "PseudoDTM_pseudo_topic10.txt":
        "aaa87f3a02d35a19429bb8c75a898b6f1861e25f60e51603d3091b357d935930",
        "PseudoDTM_topic_word_10.txt":
        "f989f85938af81fb723e3bff1fc1177ed5a3f5cf076616c8961328690a9b8098"}),
    "btm": (["-k", "10"], {
        "BTM_doc_topic_10.txt":
        "910ebdb63c6364468debbdfbaadfa83ea10df7fbe36ebe4f91cc131fb66d0bc7",
        "BTM_topic_theta_10.txt":
        "b68d9fb9b396abfea31e90c990632eac6c2d7ff7335cf217bc559ba9296fe4bb",
        "BTM_topic_word_10.txt":
        "b94519d9d6657cf5da9a3f2a9c22707eff0428e02575cbe7546c04bb685daa1c"}),
}


@pytest.mark.parametrize("model", sorted(GOLDEN_SHORT_TEXT_K10))
def test_short_text_golden_bytes_at_k10(tmp_path, model):
    flags, want = GOLDEN_SHORT_TEXT_K10[model]
    assert_golden(tmp_path, model, GOLDEN, flags, want)


# btm at K = 3 and --beta 1, same run settings.  At the default beta the
# K = 3 chain on GOLDEN settles early, so its hashes above barely see the
# draws (weighing a biterm of one word twice by (c + b)^2 instead of
# (c + b)(c + b + 1) leaves them unchanged); here every file changes.
GOLDEN_BTM_BETA_1 = {
    "BTM_doc_topic_3.txt":
    "e87cecc573fbde596dd938ffbca18b4e560856da0f9c1f9d4c3303beaebf105f",
    "BTM_topic_theta_3.txt":
    "019d5b5b6563674c0250b3c1c89753224de89b6d46181eaf8adcc77da5a4d8a2",
    "BTM_topic_word_3.txt":
    "2aaf115feb513592dbc597cc3796ee0bccdd4098e5e549a47c770a792f88e1b2"}


def test_btm_golden_bytes_at_a_large_beta(tmp_path):
    assert_golden(tmp_path, "btm", GOLDEN, ["-k", "3", "--beta", "1"], GOLDEN_BTM_BETA_1)


# lda-gibbs at K = 5 and --beta 1e100, the largest prior accepted, same run
# settings.  There (c + beta)/d equals beta/d, so every cell of a topic row
# ties, its nonzero counts too, and the top words are the first in vocabulary
# order: the support ranking of a sparse row must scan the whole row here.
# Recorded before topic rows were ranked over their support.
GOLDEN_LDA_GIBBS_BETA_1E100 = {
    "LDAGibbs_doc_topic5.txt":
    "35446d6cb3c4903868fde762371dc748ef81d71fc1f796193214f3bb135d8556",
    "LDAGibbs_topic_word_5.txt":
    "c620844137831418d687478a5024e1dd57cbe59231b958e84287c57e210c3bc7"}


def test_lda_gibbs_golden_bytes_at_the_largest_beta(tmp_path):
    assert_golden(tmp_path, "lda-gibbs", GOLDEN, ["-k", "5", "--beta", "1e100"],
                  GOLDEN_LDA_GIBBS_BETA_1E100)


def _golden_tagged(meta):
    return "".join(f"{m}\t{line}\n" for m, line in zip(meta, GOLDEN.splitlines()))


# GOLDEN in the other input layouts: two sentences per document, and
# authors, links or labels in front of each line (five authors and five
# links, so the top-3 author and link lists must choose).
GOLDEN_LAYOUTS = {
    "plain": GOLDEN,
    "sentences": "".join(" ".join(line.split()[:3]) + "--" + " ".join(line.split()[3:]) + "\n"
                         for line in GOLDEN.splitlines()),
    "authors": _golden_tagged(["Ann", "Bo,Cy", "Ann,Dee", "Cy", "Bo,Eve", "Dee,Ann",
                               "Eve", "Cy,Bo"]),
    "links": _golden_tagged(["100--200", "200", "300--100", "", "400--200", "100",
                             "500--300", "200--400"]),
    "labels": _golden_tagged(["Fruit,Sweet", "Sweet", "Fruit", "Fruit,Tart", "Tart",
                              "Sweet,Tart", "Tart,Fruit", "Fruit"]),
}

# SHA-256 of the output files of the remaining seven models, same run
# settings as above, recorded before the topic-word and topic-author
# writers switched to evaluation.top_word_ids.  dual-sparse's were recorded
# again when its kappa pass became lda.cvb0_pass: its priors are summed
# before the pass and its expected counts move by differences, which moves
# its floats by round-off.  plda's were recorded again when the label models
# moved from the dense walk to the SparseLDA kernel; labeled-lda's kept
# their bytes (see GOLDEN_LABELED_LDA_ALPHA_1).  link-lda's and plda's were
# recorded again with the kernel's listed-topics walk; labeled-lda's kept
# theirs again.
GOLDEN_OTHER_MODELS = {
    "lda-cvb0": ("plain", ["-k", "3"], {
        "CVBLDA_doc_topic3.txt":
        "1c754239d214b07eefe5b3e7bf21276fca118a8763888225ef1c78c3e1450446",
        "CVBLDA_topic_word_3.txt":
        "a95f97bda64abdfd040b3939acb469b97004d950123fb4f22d469cb9b4821575"}),
    "sentence-lda": ("sentences", ["-k", "3"], {
        "SentenceLDA_doc_topic_3.txt":
        "e882070ad52113c18c549b01b6a06b69830d0995f803c1da6de3bd1b1cda6b41",
        "SentenceLDA_topic_word3.txt":
        "d4da8db14157e2d8fedf893fa78776ceac2e609a3d83d2023e777836a4004004"}),
    "atm": ("authors", ["-k", "3"], {
        "authorTM_author_topic_3.txt":
        "c985743e1b3f4281304cf6abab9c88e05a5ad13604691c4789472cb917dbb556",
        "authorTM_topic_author_3.txt":
        "8371e44d6a41413a95085a9a2abe2aa8f16b018d0920b086d49cc3ce18ae5cd8",
        "authorTM_topic_word3.txt":
        "6239084e2c34ebe025672bf28530fa1f814f08b8954e9f549f0ef87eff5775b8"}),
    "link-lda": ("links", ["-k", "3"], {
        "LinkLDA_doc_topic_3.txt":
        "eb267b3b3908db13f21280adc3f93908f65012f24baf315f90547685ef249cec",
        "LinkLDA_topic_link_3.txt":
        "73023d38d757a17f8534911554fd7fdf807c69cce46e5374caa9abb370b02a84",
        "LinkLDA_topic_word_3.txt":
        "fd13835cd498e81d5f03efedc4ea9bfd69c69e63bdd3762d97b19846ff579b87"}),
    "labeled-lda": ("labels", [], {
        "LabeledLDA_doc_topic3.txt":
        "ef729ea7cd873cf823377bcca0d91973e24f93ef148d3c5caf189f3beb3752c9",
        "LabeledLDA_topic_word_3.txt":
        "22a1975274803e813c2e9a4a5588c513e1b267f38469441e69357619579a1700"}),
    "plda": ("labels", ["--label-topics", "2"], {
        "PLDA_doc_topic4.txt":
        "c0ddaaa731d05d3c6eac2f20516d6ed4afc8b8b2d47a7bb7a8388d72da13c680",
        "PLDA_topic_word_4.txt":
        "25bc379a73eaa337d918435387ac50c55c5fae9af875680300da206fe487ad11"}),
    "dual-sparse": ("plain", ["-k", "3"], {
        "dualSLDA_doc_topic_3.txt":
        "ded4be1af2abd32fedeeae77a086b11de8e4627006e35dbde81f795a32815a72",
        "dualSLDA_sparseRatio_DT3.txt":
        "cea8476244aeca6c08e150baa589aae840a92fd6b35fda07a0ddd513d2fb275f",
        "dualSLDA_sparseRatio_TV3.txt":
        "41cbb53df772cc3f9a4aef0e973e05050a46ef17c9f7dd83c709697c0400fd12",
        "dualSLDA_topic_word_3.txt":
        "2a33e1db4afe29d0df034e5dbcb086575f86a13c349bf64f1c89d7e8d41a6ff4"}),
}


@pytest.mark.parametrize("model", sorted(GOLDEN_OTHER_MODELS))
def test_other_models_golden_bytes(tmp_path, model):
    layout, flags, want = GOLDEN_OTHER_MODELS[model]
    assert_golden(tmp_path, model, GOLDEN_LAYOUTS[layout], flags, want)


# sentence-lda at K = 10, same run settings: more topics than the chain
# fills, and sentences that repeat a word ("cherry cherry apple"), so its
# draw weighs empty topics and the multiplicity-2 rising factorials.
GOLDEN_SENTENCE_LDA_K10 = {
    "SentenceLDA_doc_topic_10.txt":
    "bdc84489259992d1613e9abfb2840b3b705eac0c677a6d88c5b941758ecff188",
    "SentenceLDA_topic_word10.txt":
    "b88560e6a64e73233af33fb043e8a25e14385f55bd1ce91a4a50e7d34f583bb5"}


def test_sentence_lda_golden_bytes_at_k10(tmp_path):
    assert_golden(tmp_path, "sentence-lda", GOLDEN_LAYOUTS["sentences"], ["-k", "10"],
                  GOLDEN_SENTENCE_LDA_K10)


# labeled-lda at --alpha 1, same run settings.  At the default alpha every
# GOLDEN document ends in one topic, so the hashes above barely see the
# chain's draws; here the multi-label documents keep a mixture, so the bytes
# change with any change to the random stream.  Recorded again when the label
# models moved from the dense walk to the SparseLDA kernel, and when the
# kernel came to walk the document's listed topics first.
GOLDEN_LABELED_LDA_ALPHA_1 = {
    "LabeledLDA_doc_topic3.txt":
    "9086b600d4830b85a02eb98ae1fa02f6d633e4dee1d6547b8d8040cff7e5afdc",
    "LabeledLDA_topic_word_3.txt":
    "5d78f5d6974f3b6d5f40fd27314e618f895516a1451cdd5b85308f45b3d2865b"}


def test_labeled_lda_golden_bytes_at_a_large_alpha(tmp_path):
    assert_golden(tmp_path, "labeled-lda", GOLDEN_LAYOUTS["labels"], ["--alpha", "1"],
                  GOLDEN_LABELED_LDA_ALPHA_1)


# stdout of `eval --model lda-gibbs` on GOLDEN at seed 7, 20 sweeps, recorded
# before coherence shared one corpus scan across topics (K = 5 again with the
# GOLDEN_LDA_GIBBS chain it evaluates, and both again with the kernel's
# listed-topics walk).  V = 15, so the
# top-20 lists hold every word; at K = 20 each topic holds a few of the 48
# tokens (three hold none), so most of each list is tied words.
GOLDEN_EVAL = {
    5: ("average_coherence_2:\t-0.05753641449035618\n"
        "average_coherence_3:\t-0.49698132995760014\n"
        "average_coherence_5:\t-3.7221483745681\n"
        "average_coherence_10:\t-19.790447183130233\n"
        "average_coherence_20:\t-55.795953230961594\n"),
    20: ("average_coherence_2:\t-0.2112275058938521\n"
         "average_coherence_3:\t-0.5839635033620523\n"
         "average_coherence_5:\t-2.3017697994704083\n"
         "average_coherence_10:\t-21.141979778603403\n"
         "average_coherence_20:\t-58.86732477754988\n"),
}


@pytest.mark.parametrize("k", sorted(GOLDEN_EVAL))
def test_eval_golden_stdout(tmp_path, capsys, k):
    corpus = tmp_path / "golden.txt"
    corpus.write_text(GOLDEN)
    with float_sum_forbidden():
        assert run(["eval", "--model", "lda-gibbs", "--input", corpus, "-k", k, "--iterations",
                    "20", "--seed", "7", "--top-n", "2", "3", "5", "10", "20"]) == 0
    assert capsys.readouterr().out == GOLDEN_EVAL[k]


def test_fit_different_seeds_differ(tmp_path, plain_file):
    texts = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        run(["fit", "--model", "lda-gibbs", "--input", plain_file,
             "--output-dir", out, "-k", "2", "--iterations", "15", "--seed", seed])
        texts.append((out / "LDAGibbs_doc_topic2.txt").read_text())
    assert texts[0] != texts[1]


def test_fit_all_models_expected_files(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text(PLAIN)
    sent = tmp_path / "sent.txt"
    sent.write_text(SENTENCES)
    authors = tmp_path / "authors.txt"
    authors.write_text(AUTHORS)
    links = tmp_path / "links.txt"
    links.write_text(LINKS)
    labels = tmp_path / "labels.txt"
    labels.write_text(LABELS)

    cases = [
        (["--model", "lda-cvb0", "--input", plain, "-k", "2"],
         ["CVBLDA_topic_word_2.txt", "CVBLDA_doc_topic2.txt"]),
        (["--model", "sentence-lda", "--input", sent, "-k", "2"],
         ["SentenceLDA_topic_word2.txt", "SentenceLDA_doc_topic_2.txt"]),
        (["--model", "dmm", "--input", plain, "-k", "2"],
         ["DMM_doc_cluster2.txt", "DMM_cluster_word_2.txt", "DMM_theta_2.txt"]),
        (["--model", "ptm", "--input", plain, "-k", "2", "--pseudo-docs", "2"],
         ["PseudoDTM_topic_word_2.txt", "PseudoDTM_pseudo_topic2.txt",
          "PseudoDTM_doc_topic2.txt"]),
        (["--model", "btm", "--input", plain, "-k", "2", "--window", "3"],
         ["BTM_topic_word_2.txt", "BTM_topic_theta_2.txt", "BTM_doc_topic_2.txt"]),
        (["--model", "atm", "--input", authors, "-k", "2"],
         ["authorTM_topic_word2.txt", "authorTM_author_topic_2.txt",
          "authorTM_topic_author_2.txt"]),
        (["--model", "link-lda", "--input", links, "-k", "2"],
         ["LinkLDA_topic_word_2.txt", "LinkLDA_topic_link_2.txt",
          "LinkLDA_doc_topic_2.txt"]),
        (["--model", "labeled-lda", "--input", labels],
         ["LabeledLDA_topic_word_2.txt", "LabeledLDA_doc_topic2.txt"]),
        (["--model", "plda", "--input", labels, "--label-topics", "2"],
         ["PLDA_topic_word_3.txt", "PLDA_doc_topic3.txt"]),
        (["--model", "dual-sparse", "--input", plain, "-k", "2"],
         ["dualSLDA_topic_word_2.txt", "dualSLDA_doc_topic_2.txt",
          "dualSLDA_sparseRatio_TV2.txt", "dualSLDA_sparseRatio_DT2.txt"]),
    ]
    for i, (flags, expected) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert run(["fit", *flags, "--output-dir", out,
                    "--iterations", "5", "--top-words", "2"]) == 0, flags
        for fname in expected:
            assert (out / fname).exists(), (flags, fname)


def test_fit_hdp_and_dpmm_use_final_count_in_names(tmp_path, plain_file):
    out = tmp_path / "hdp"
    assert run(["fit", "--model", "hdp", "--input", plain_file, "--output-dir", out,
                "--iterations", "10", "--seed", "3"]) == 0
    tw = sorted(p.name for p in out.glob("HDP_topic_word_*.txt"))
    dt = sorted(p.name for p in out.glob("HDP_doc_topic*.txt"))
    assert len(tw) == 1 and len(dt) == 1
    k = int(tw[0].removeprefix("HDP_topic_word_").removesuffix(".txt"))
    assert dt[0] == f"HDP_doc_topic{k}.txt"
    assert len(parse_topic_word_file(out / tw[0])) == k

    out2 = tmp_path / "dpmm"
    assert run(["fit", "--model", "dpmm", "--input", plain_file, "--output-dir", out2,
                "--iterations", "10"]) == 0
    names = {p.name for p in out2.iterdir()}
    ks = {int(n.removeprefix("DPMM_theta_").removesuffix(".txt"))
          for n in names if n.startswith("DPMM_theta_")}
    k = ks.pop()
    assert f"DPMM_doc_cluster{k}.txt" in names
    assert f"DPMM_cluster_word_{k}.txt" in names
    clusters = [int(float(x)) for x in
                parse_value_lines(out2 / f"DPMM_doc_cluster{k}.txt")]
    assert all(0 <= c < k for c in clusters)


def test_labeled_lda_headers_carry_labels(tmp_path):
    labels = tmp_path / "labels.txt"
    labels.write_text(LABELS)
    out = tmp_path / "out"
    assert run(["fit", "--model", "labeled-lda", "--input", labels,
                "--output-dir", out, "--iterations", "5"]) == 0
    blocks = parse_topic_word_file(out / "LabeledLDA_topic_word_2.txt")
    assert [b[0] for b in blocks] == ["Fruit", "Sweet"]


def test_plda_headers_carry_related_labels(tmp_path):
    labels = tmp_path / "labels.txt"
    labels.write_text(LABELS)
    out = tmp_path / "out"
    assert run(["fit", "--model", "plda", "--input", labels, "--output-dir", out,
                "--label-topics", "2", "--iterations", "5"]) == 0
    blocks = parse_topic_word_file(out / "PLDA_topic_word_3.txt")
    assert len(blocks) == 6  # (2 labels + background) * 2 topics each
    assert [b[0] for b in blocks] == ["Fruit", "Fruit", "Sweet", "Sweet",
                                      "global label", "global label"]


def test_sparse_ratio_files_have_summary_lines(tmp_path, plain_file):
    out = tmp_path / "out"
    assert run(["fit", "--model", "dual-sparse", "--input", plain_file,
                "--output-dir", out, "-k", "2", "--iterations", "5"]) == 0
    tv = (out / "dualSLDA_sparseRatio_TV2.txt").read_text().splitlines()
    dt = (out / "dualSLDA_sparseRatio_DT2.txt").read_text().splitlines()
    assert tv[-1].startswith("average saprse ratio of topic_word:")
    assert dt[-1].startswith("average saprse ratio of doc_topic:")
    assert len(tv) == 3  # 2 topics + summary
    assert len(dt) == 5  # 4 docs + summary


def test_inapplicable_flag_rejected(tmp_path, plain_file, capsys):
    out = tmp_path / "out"
    rc = run(["fit", "--model", "lda-gibbs", "--input", plain_file,
              "--output-dir", out, "-k", "2", "--gamma", "0.5"])
    assert rc == 1
    assert "--gamma is not applicable" in capsys.readouterr().err
    rc = run(["fit", "--model", "labeled-lda", "--input", plain_file,
              "--output-dir", out, "--topics", "4"])
    assert rc == 1
    rc = run(["fit", "--model", "lda-gibbs", "--input", plain_file,
              "--output-dir", out, "-k", "2", "--pi", "0.1"])
    assert rc == 1


def test_missing_required_flag_rejected(tmp_path, plain_file, capsys):
    out = tmp_path / "out"
    assert run(["fit", "--model", "lda-gibbs", "--input", plain_file,
                "--output-dir", out]) == 1
    assert "requires --topics" in capsys.readouterr().err
    assert run(["fit", "--model", "ptm", "--input", plain_file,
                "--output-dir", out, "-k", "2"]) == 1


def test_nonpositive_top_words_rejected_before_output(tmp_path, plain_file, capsys):
    out = tmp_path / "out"
    for value in ("0", "-1"):
        rc = run(["fit", "--model", "lda-gibbs", "--input", plain_file,
                  "--output-dir", out, "-k", "2", "--iterations", "2",
                  "--top-words", value])
        assert rc == 1
        assert "--top-words must be >= 1" in capsys.readouterr().err
        assert not out.exists()


def test_top_words_is_a_fit_flag_only(tmp_path, plain_file, capsys):
    # eval writes no topic-word file, so it rejects the flag rather than ignore it
    flags = ["--model", "lda-gibbs", "--input", plain_file, "-k", "2", "--iterations", "2",
             "--top-words", "3"]
    with pytest.raises(SystemExit) as exc:
        run(["eval", *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments: --top-words 3" in capsys.readouterr().err
    out = tmp_path / "out"
    assert run(["fit", *flags, "--output-dir", out]) == 0
    blocks = parse_topic_word_file(out / "LDAGibbs_topic_word_2.txt")
    assert [len(words) for _, words in blocks] == [3, 3]


def test_failing_writer_leaves_no_output_behind(tmp_path, plain_file, monkeypatch, capsys):
    """A writer that fails after an earlier file was written, and after writing
    part of its own file, leaves neither file, nor the directory the run made,
    and keeps what the directory already held."""
    real = reports.write_doc_topic_file

    def failing(path, rows):
        real(path, rows)
        raise OSError("disk full")

    monkeypatch.setattr(reports, "write_doc_topic_file", failing)
    out = tmp_path / "out"
    args = ["fit", "--model", "lda-gibbs", "--input", plain_file, "-k", "2", "--iterations", "2"]
    assert run([*args, "--output-dir", out]) == 1
    assert "disk full" in capsys.readouterr().err
    assert not out.exists()
    out.mkdir()
    (out / "notes.txt").write_text("mine")
    assert run([*args, "--output-dir", out]) == 1
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    monkeypatch.setattr(reports, "write_doc_topic_file", real)
    assert run([*args, "--output-dir", out]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "LDAGibbs_doc_topic2.txt", "LDAGibbs_topic_word_2.txt", "notes.txt"]


@pytest.mark.parametrize("taken", ["LDAGibbs_topic_word_2.txt", "LDAGibbs_doc_topic2.txt",
                                   ".LDAGibbs_doc_topic2.txt.part"])
def test_output_name_taken_by_a_directory_changes_nothing(tmp_path, plain_file, capsys, taken):
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    (out / "notes.txt").write_text("mine")
    assert run(["fit", "--model", "lda-gibbs", "--input", plain_file, "-k", "2",
                "--iterations", "2", "--output-dir", out]) == 1
    err = [line for line in capsys.readouterr().err.splitlines() if "iteration" not in line]
    assert err == [f"error: --output-dir {out}: {taken} is a directory"]
    assert sorted(p.name for p in out.rglob("*")) == sorted([taken, "notes.txt"])
    assert (out / "notes.txt").read_text() == "mine"


def test_a_failed_rename_removes_the_directory_the_run_made(tmp_path, plain_file, monkeypatch):
    replace = Path.replace

    def second_fails(part, path):
        if path.name == "LDAGibbs_doc_topic2.txt":
            raise OSError("rename failed")
        return replace(part, path)
    monkeypatch.setattr(Path, "replace", second_fails)
    out = tmp_path / "out"
    assert run(["fit", "--model", "lda-gibbs", "--input", plain_file, "-k", "2",
                "--iterations", "2", "--output-dir", out]) == 1
    assert not out.exists()


def test_a_failed_write_removes_every_directory_the_run_made(tmp_path, plain_file,
                                                            monkeypatch):
    def failing(path, rows):
        raise OSError("disk full")
    monkeypatch.setattr(reports, "write_doc_topic_file", failing)
    assert run(["fit", "--model", "lda-gibbs", "--input", plain_file, "-k", "2",
                "--iterations", "2", "--output-dir", tmp_path / "new1" / "new2"]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt"]


def test_a_negative_seed_is_rejected_before_the_input_is_read(tmp_path, capsys):
    # random.Random seeds from abs(seed), so --seed=-7 would repeat --seed=7
    out = tmp_path / "out"
    assert run(["fit", "--model", "lda-gibbs", "--input", tmp_path / "missing.txt",
                "--output-dir", out, "-k", "2", "--seed=-7"]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("encoding", ["no-such-codec", "rot13"])
@pytest.mark.parametrize("command", ["fit", "eval", "preprocess"])
def test_unknown_encoding_is_one_error_line(tmp_path, plain_file, capsys, command, encoding):
    out = tmp_path / "out"
    args = {"fit": ["--model", "lda-gibbs", "-k", "2", "--iterations", "2", "--output-dir", out],
            "eval": ["--model", "lda-gibbs", "-k", "2", "--iterations", "2"],
            "preprocess": ["--output", out]}[command]
    assert run([command, "--input", plain_file, *args, "--encoding", encoding]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --encoding: ")
    assert encoding in err[0]
    assert not out.exists()


@pytest.mark.parametrize("below", [[], ["out"], ["a", "b", "out"]])
@pytest.mark.parametrize("blocker_kind", ["file", "dangling-symlink"])
def test_output_dir_under_a_regular_file_fails_before_sampling(tmp_path, plain_file, capsys,
                                                               blocker_kind, below):
    blocker = tmp_path / "plain.txt"
    if blocker_kind == "file":
        blocker.write_text("not a directory")
    else:
        blocker.symlink_to(tmp_path / "missing")
    out = blocker.joinpath(*below)
    before = sorted(tmp_path.iterdir())
    assert run(["fit", "--model", "lda-gibbs", "--input", plain_file, "-k", "2",
                "--iterations", "2", "--output-dir", out]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: --output-dir {out}: {blocker} is not a directory"]
    assert sorted(tmp_path.iterdir()) == before
    if blocker_kind == "file":
        assert blocker.read_text() == "not a directory"
    else:
        assert blocker.is_symlink() and not (tmp_path / "missing").exists()


def test_output_dir_check_creates_nothing(tmp_path, plain_file):
    out = tmp_path / "new" / "deeper"
    cli._require_writable_dir(out)
    assert not (tmp_path / "new").exists()
    assert run(["fit", "--model", "lda-gibbs", "--input", plain_file, "-k", "2",
                "--iterations", "2", "--output-dir", out]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "LDAGibbs_doc_topic2.txt", "LDAGibbs_topic_word_2.txt"]


def test_sampler_out_of_memory_is_one_error_line(tmp_path, plain_file, monkeypatch, capsys):
    """A MemoryError while the sampler is built names its sizes, before any
    sweep and with no output directory.  The tables are not allocated: their
    constructor raises as an allocation of 200,000,000 topics would."""
    def too_big(self, n_docs, n_topics, n_words, real=False):
        raise MemoryError

    monkeypatch.setattr(core.CountTables, "__init__", too_big)
    out = tmp_path / "out"
    assert run(["fit", "--model", "lda-gibbs", "--input", plain_file, "-k", "200000000",
                "--iterations", "2", "--output-dir", out]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: out of memory building the lda-gibbs sampler for 200000000 topics, "
        "V = 4 words and M = 4 documents"]
    assert not out.exists()


def test_link_lda_fits_a_corpus_without_links(tmp_path):
    """With every link field empty the link vocabulary is empty (L = 0), so
    there is no link draw; the topic-link file has a block per topic."""
    corpus = tmp_path / "links.txt"
    corpus.write_text("".join(f" \t{line}\n" for line in PLAIN.splitlines()))
    out = tmp_path / "out"
    assert run(["fit", "--model", "link-lda", "--input", corpus, "--output-dir", out,
                "-k", "2", "--iterations", "5"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "LinkLDA_doc_topic_2.txt", "LinkLDA_topic_link_2.txt", "LinkLDA_topic_word_2.txt"]
    assert len(parse_doc_topic_file(out / "LinkLDA_doc_topic_2.txt")) == 4
    assert len(parse_topic_word_file(out / "LinkLDA_topic_word_2.txt")) == 2
    assert [words for _, words in parse_topic_word_file(out / "LinkLDA_topic_link_2.txt")] \
        == [[], []]


def test_nonpositive_top_n_rejected_before_sampling(tmp_path, plain_file, capsys):
    for values in (["0"], ["5", "-1"]):
        rc = run(["eval", "--model", "lda-gibbs", "--input", plain_file, "-k", "2",
                  "--iterations", "2", "--top-n", *values])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--top-n must be >= 1" in err
        assert "iteration" not in err


@pytest.mark.parametrize("model, flags, message", [
    ("btm", ["-k", "0"], "--topics must be >= 1"),
    ("link-lda", ["-k", "2", "--gamma", "0"], "gamma must be positive"),
    ("link-lda", ["-k", "2", "--gamma", "-5"], "gamma must be positive"),
    ("ptm", ["-k", "2", "--pseudo-docs", "2", "--lambda", "-1"], "lambda must be positive"),
    ("ptm", ["-k", "2", "--pseudo-docs", "2", "--alpha", "0"], "alpha must be positive"),
    ("ptm", ["-k", "2", "--pseudo-docs", "2", "--beta", "-0.5"], "beta must be positive"),
    ("ptm", ["-k", "2", "--pseudo-docs", "2", "--iterations", "0"],
     "iterations must be >= 1"),
    ("labeled-lda", ["--alpha", "-1"], "alpha must be positive"),
    ("labeled-lda", ["--beta", "0"], "beta must be positive"),
    ("labeled-lda", ["--iterations", "0"], "iterations must be >= 1"),
    ("plda", ["--alpha", "-1"], "alpha must be positive"),
    ("plda", ["--beta", "0"], "beta must be positive"),
    ("plda", ["--iterations", "0"], "iterations must be >= 1"),
    ("dmm", ["-k", "2", "--iterations", "-3"], "iterations must be >= 1"),
    ("dpmm", ["--iterations", "0"], "iterations must be >= 1"),
    ("hdp", ["--iterations", "-3"], "iterations must be >= 1"),
    ("dual-sparse", ["-k", "2", "--iterations", "0"], "iterations must be >= 1"),
    ("lda-gibbs", ["-k", "2", "--alpha", "nan"], "alpha must be positive"),
    ("lda-gibbs", ["-k", "2", "--beta", "inf"], "beta must be finite"),
    ("btm", ["-k", "2", "--beta", "nan"], "beta must be positive"),
    ("btm", ["-k", "2", "--alpha", "inf"], "alpha must be finite"),
    ("dmm", ["-k", "2", "--alpha", "nan"], "alpha must be >= 0"),
    ("dmm", ["-k", "2", "--beta", "inf"], "beta must be finite"),
    ("dpmm", ["--alpha", "inf"], "alpha must be finite"),
    ("hdp", ["--alpha", "nan"], "--alpha must be >= 0"),
    ("hdp", ["--gamma", "inf"], "gamma must be finite"),
    ("hdp", ["--beta", "nan"], "beta must be positive"),
    ("dual-sparse", ["-k", "2", "--s", "nan"], "s must be positive"),
    ("dual-sparse", ["-k", "2", "--pi", "inf"], "pi must be finite"),
    ("dual-sparse", ["-k", "2", "--pi-bar", "nan"], "--pi-bar must be >= 0"),
    ("dual-sparse", ["-k", "2", "--gamma-bar", "inf"], "--gamma-bar must be finite"),
    ("dual-sparse", ["-k", "2", "--pi-bar", "0.5"], "--pi-bar must be < --pi"),
    ("dual-sparse", ["-k", "2", "--gamma-bar", "0.1"], "--gamma-bar must be < --gamma-strong"),
    ("ptm", ["-k", "2", "--pseudo-docs", "0"], "--pseudo-docs must be >= 1"),
    # K alpha overflows to inf: BTM's document rows divided 0 by 0 after the sweeps
    ("btm", ["-k", "2", "--alpha", "1e308"], "alpha must be at most 1e+100"),
    ("hdp", ["--gamma", "1e101"], "gamma must be at most 1e+100"),
])
def test_invalid_hyperparameters_rejected(tmp_path, capsys, model, flags, message):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text({"link-lda": LINKS, "labeled-lda": LABELS, "plda": LABELS}.get(model, PLAIN))
    out = tmp_path / "out"
    rc = run(["fit", "--model", model, "--input", corpus, "--output-dir", out,
              "--iterations", "2", *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err
    # the message names the option the user typed, not the Hyper field
    assert err.startswith("error: --"), err
    assert not out.exists()


@pytest.mark.parametrize("model, flags, text", [
    ("dmm", ["-k", "2", "--alpha"], "apple banana\n"),  # the lone document, taken out, leaves
    ("dpmm", ["--alpha"], "apple banana\n"),            # every cluster empty, none with mass
    ("hdp", ["--alpha"], "apple banana\nfig\n"),        # a lone token has no table to sit at
    ("hdp", ["--gamma"], "fig\n"),                      # nor, at gamma 0, a topic to take
], ids=["dmm", "dpmm", "hdp-alpha", "hdp-gamma"])
def test_zero_concentration_rejected_where_the_chain_cannot_run(tmp_path, capsys, model, flags,
                                                                 text):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(text)
    out = tmp_path / "out"
    args = ["fit", "--model", model, "--output-dir", out, "--iterations", "2", *flags, "0"]
    assert run([*args, "--input", corpus]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[-1]} must be > 0"), err
    assert "iteration" not in err
    assert not out.exists()
    # zero concentration stays legal on a corpus that supports it
    corpus.write_text(PLAIN)
    assert run([*args, "--input", corpus]) == 0


@pytest.mark.parametrize("docword", [[], [[], []]], ids=["no-document", "empty-documents"])
@pytest.mark.parametrize("model", sorted(cli.MODELS))
def test_every_sampler_rejects_a_corpus_with_no_token(model, docword):
    spec = cli.MODELS[model]
    hyper = spec.hyper(**{f.name: 2 for f in fields(spec.hyper) if f.default is core.MISSING})
    layout = {} if spec.layout == "plain" else {spec.layout: [[0]] * len(docword)}
    corpus = Corpus(docword, Vocabulary(), **layout, meta_vocabulary=Vocabulary({"A": 0}))
    rng = core.SeededRng(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="corpus is empty"):
        spec.sampler(corpus, hyper, rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("model", sorted(m for m, spec in cli.MODELS.items()
                                         if spec.layout != "plain"))
def test_every_metadata_sampler_rejects_a_field_short_of_the_documents(model):
    # two documents and one row of metadata: rejected before the first draw
    spec = cli.MODELS[model]
    hyper = spec.hyper(**{f.name: 2 for f in fields(spec.hyper) if f.default is core.MISSING})
    corpus = Corpus([[0, 1], [1, 0]], Vocabulary({"a": 0, "b": 1}), **{spec.layout: [[0]]},
                    meta_vocabulary=Vocabulary({"A": 0}))
    rng = core.SeededRng(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"but {spec.layout} has 1 for 2 documents"):
        spec.sampler(corpus, hyper, rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("model", sorted(cli.MODELS))
def test_every_sampler_is_a_class_that_draws_its_own_start(model):
    # cls(corpus, hyper, rng): two builds from one seed hold the same state and
    # leave the rng alike; a CVB0 solver starts from random_responsibilities
    spec = cli.MODELS[model]
    hyper = spec.hyper(**{f.name: 2 for f in fields(spec.hyper) if f.default is core.MISSING})
    corpus = cli._parse(spec.layout, GOLDEN_LAYOUTS[spec.layout].splitlines())
    rngs = [core.SeededRng(7) for _ in range(3)]
    a, b = ({name: value for name, value in vars(spec.sampler(corpus, hyper, rng)).items()
             if name not in ("corpus", "rng")} for rng in rngs[:2])
    assert isinstance(spec.sampler, type) and pickle.dumps(a) == pickle.dumps(b)
    assert rngs[0].getstate() == rngs[1].getstate()
    if model in ("lda-cvb0", "dual-sparse"):
        start = lda.random_responsibilities(corpus, hyper.n_topics, rngs[2])
        assert a["gamma"] == start and rngs[2].getstate() == rngs[0].getstate()


def test_the_chain_length_is_set_by_run_chain_alone():
    assert all(f.name != "iterations" for spec in cli.MODELS.values()
               for f in fields(spec.hyper))
    for module in (topicmodels, lda):
        assert not hasattr(module, "fit_gibbs") and not hasattr(module, "fit_cvb0")


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("Ann\tapple\nno separator here\n")
    out = tmp_path / "out"
    rc = run(["fit", "--model", "atm", "--input", bad, "--output-dir", out,
              "-k", "2", "--iterations", "2"])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_eval_subcommand_prints_coherence_lines(tmp_path, plain_file, capsys):
    rc = run(["eval", "--model", "lda-gibbs", "--input", plain_file, "-k", "2",
              "--iterations", "10", "--top-n", "2", "3", "4"])
    assert rc == 0
    out_lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(out_lines) == 3
    for n, line in zip((2, 3, 4), out_lines):
        head, value = line.split("\t")
        assert head == f"average_coherence_{n}:"
        float(value)


def test_eval_defaults_need_twenty_words(tmp_path, capsys):
    # default top-n of 5/10/20 needs V >= 20 with every word present
    words = " ".join(f"word{i:02d}" for i in range(22))
    big = tmp_path / "big.txt"
    big.write_text("\n".join([words, words, "word00 word01 word21"]) + "\n")
    rc = run(["eval", "--model", "lda-gibbs", "--input", big, "-k", "2",
              "--iterations", "5"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert [l.split(":")[0] for l in lines] == [
        "average_coherence_5", "average_coherence_10", "average_coherence_20"]


# The CLI surface: which of the sixteen model flags each model accepts and
# which it requires, and the value each omitted flag takes.  Recorded from
# the hand-written flag tables the CLI had before it derived them from the
# Hyper dataclasses; the derived tables must give the same answers.
MODEL_FLAGS = ("topics", "alpha", "beta", "gamma", "lambda", "pseudo-docs", "window",
               "label-topics", "s", "t", "x", "y", "pi", "pi-bar", "gamma-strong",
               "gamma-bar")
LDA_FLAGS = {"topics", "alpha", "beta"}
SURFACE = {  # model: (accepted flags, required flags)
    "lda-gibbs": (LDA_FLAGS, {"topics"}),
    "lda-cvb0": (LDA_FLAGS, {"topics"}),
    "sentence-lda": (LDA_FLAGS, {"topics"}),
    "hdp": (LDA_FLAGS | {"gamma"}, set()),
    "dmm": (LDA_FLAGS, {"topics"}),
    "dpmm": (LDA_FLAGS, set()),
    "ptm": (LDA_FLAGS | {"lambda", "pseudo-docs"}, {"topics", "pseudo-docs"}),
    "btm": (LDA_FLAGS | {"window"}, {"topics"}),
    "atm": (LDA_FLAGS, {"topics"}),
    "link-lda": (LDA_FLAGS | {"gamma"}, {"topics"}),
    "labeled-lda": ({"alpha", "beta"}, set()),
    "plda": ({"alpha", "beta", "label-topics"}, set()),
    "dual-sparse": ({"topics", "s", "t", "x", "y", "pi", "pi-bar", "gamma-strong",
                     "gamma-bar"}, {"topics"}),
}


@pytest.mark.parametrize("model", sorted(SURFACE))
def test_model_flag_surface(tmp_path, capsys, model):
    accepted, required = SURFACE[model]
    # flags are resolved before the input is read, so a missing input file
    # is the first thing an accepted flag set runs into
    base = ["fit", "--model", model, "--input", tmp_path / "missing.txt",
            "--output-dir", tmp_path / "out"]
    needed = [a for flag in sorted(required) for a in (f"--{flag}", "2")]
    for flag in MODEL_FLAGS:
        assert run(base + needed + [f"--{flag}", "2"]) == 1
        err = capsys.readouterr().err
        if flag in accepted:
            assert "not applicable" not in err and "requires" not in err, (flag, err)
        else:
            assert f"error: --{flag} is not applicable to model {model}\n" == err, flag
    for flag in sorted(required):
        rest = [a for other in sorted(required - {flag}) for a in (f"--{other}", "2")]
        assert run(base + rest) == 1
        assert capsys.readouterr().err == f"error: model {model} requires --{flag}\n"
    assert not (tmp_path / "out").exists()


# Every default of an optional flag, spelled out; "shared" holds the flags
# every model takes.
SPELLED_DEFAULTS = {
    "shared": ["--top-words", "5", "--seed", "42"],
    "lda-gibbs": ["--alpha", "0.1", "--beta", "0.01"],
    "lda-cvb0": ["--alpha", "0.1", "--beta", "0.01"],
    "sentence-lda": ["--alpha", "0.1", "--beta", "0.01"],
    "hdp": ["-k", "3", "--alpha", "0.1", "--beta", "0.01", "--gamma", "0.1"],
    "dmm": ["--alpha", "0.1", "--beta", "0.01"],
    "dpmm": ["-k", "3", "--alpha", "0.1", "--beta", "0.01"],
    "ptm": ["--alpha", "0.1", "--beta", "0.1", "--lambda", "0.01"],
    "btm": ["--alpha", "0.1", "--beta", "0.01", "--window", "5"],
    "atm": ["--alpha", "0.1", "--beta", "0.01"],
    "link-lda": ["--alpha", "0.1", "--beta", "0.01", "--gamma", "0.01"],
    "labeled-lda": ["--alpha", "0.1", "--beta", "0.01"],
    "plda": ["--alpha", "0.1", "--beta", "0.01", "--label-topics", "2"],
    "dual-sparse": ["--s", "1.0", "--t", "1.0", "--x", "1.0", "--y", "1.0", "--pi", "0.1",
                    "--pi-bar", "1e-12", "--gamma-strong", "0.1", "--gamma-bar", "1e-12"],
}
SURFACE_LAYOUT = {"sentence-lda": "sentences", "atm": "authors", "link-lda": "links",
                  "labeled-lda": "labels", "plda": "labels"}
# Uneven clusters, so that the plain-layout models' outputs move with each
# of their defaults (on GOLDEN, DPMM and HDP settle into the same state from
# 3 or 4 initial components).  With 10 pseudo documents for 12 documents,
# PTM keeps empty pseudo documents, whose weight is set by --lambda.
DEFAULTS_PLAIN = "\n".join([
    "banana fig fig", "lime kiwi", "lemon quince olive", "fig apple apple", "mango grape fig",
    "plum plum quince olive banana", "banana date", "kiwi lime mango mango lemon grape mango",
    "pear quince melon olive quince melon plum", "apple banana", "lime apple",
    "melon quince pear melon melon quince"]) + "\n"


def fit_outputs(tmp_path, name, model, flags):
    """Output file bytes of a 10-sweep fit on the model's defaults corpus."""
    layout = SURFACE_LAYOUT.get(model, "plain")
    corpus = tmp_path / f"{layout}.txt"
    corpus.write_text(DEFAULTS_PLAIN if layout == "plain" else GOLDEN_LAYOUTS[layout])
    needed = {"topics": ["-k", "3"], "pseudo-docs": ["--pseudo-docs", "10"]}
    required = [a for flag in sorted(SURFACE[model][1]) for a in needed[flag]]
    out = tmp_path / name
    assert run(["fit", "--model", model, "--input", corpus, "--output-dir", out,
                "--iterations", "10", *required, *flags]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("model", sorted(SURFACE))
def test_omitted_flags_take_their_defaults(tmp_path, model):
    spelled = SPELLED_DEFAULTS[model] + SPELLED_DEFAULTS["shared"]
    omitted = fit_outputs(tmp_path, "omitted", model, [])
    assert omitted
    assert omitted == fit_outputs(tmp_path, "spelled", model, spelled)


def test_learnt_counts_are_reported_on_stderr(tmp_path, capsys):
    corpus = tmp_path / "golden.txt"
    corpus.write_text(GOLDEN)
    # at alpha = 0 no cluster is born, and three documents settle in one
    three = tmp_path / "three.txt"
    three.write_text("apple banana apple\nbanana cherry\ncherry apple banana\n")
    for model, text, flags, line in (
            ("hdp", corpus, ["--alpha", "1.0", "--gamma", "1.0"], "hdp: converged to 6 topics\n"),
            ("dpmm", corpus, ["-k", "2", "--alpha", "2", "--beta", "0.2"],
             "dpmm: converged to 5 clusters\n"),
            ("dpmm", three, ["--alpha", "0"], "dpmm: converged to 1 cluster\n")):
        assert run(["eval", "--model", model, "--input", text, *flags, "--iterations", "20",
                    "--seed", "7", "--top-n", "2"]) == 0
        err = capsys.readouterr().err
        assert err.endswith(f"{model}: iteration 20/20\n{line}"), err


def test_bad_hyperparameter_rejected_before_the_input_is_read(tmp_path, capsys):
    rc = run(["fit", "--model", "lda-gibbs", "--input", tmp_path / "missing.txt",
              "--output-dir", tmp_path / "out", "-k", "2", "--alpha", "nan"])
    assert rc == 1
    assert "--alpha must be positive" in capsys.readouterr().err


SRC = Path(__file__).resolve().parent.parent / "src"
SAMPLER_MODULES = ("lda", "sentence_lda", "hdp", "mixture", "short_text", "linked",
                   "supervised", "dual_sparse")


def python(*args, cwd=None):
    """Run a fresh interpreter on the source tree; return the finished process."""
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


def test_cli_import_leaves_out_the_slow_stdlib_modules():
    # -S: no site module, so no .pth file imports anything before the package
    done = python("-S", "-c", "import sys, topicmodels.cli; print(*sorted(sys.modules))")
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "logging", "importlib.resources"}
    # every sampler class must exist once the CLI is imported: the benchmark
    # launcher (perfbench/child.py) hooks the samplers it finds then
    assert {f"topicmodels.{m}" for m in SAMPLER_MODULES} <= loaded


def test_cli_warnings_keep_their_stderr_format(tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("apples and bananas\nthe and of\nfig trees grow\n")
    done = python("-m", "topicmodels", "preprocess", "--input", raw,
                  "--output", tmp_path / "clean.txt")
    assert done.returncode == 0
    assert done.stderr == ("WARNING: dropped 1 line(s) left empty by cleaning\n"
                           "preprocess: wrote 2 documents (1 dropped)\n")
    clean = tmp_path / "blank.txt"
    clean.write_text("apple fig\n\nfig tree\n")
    done = python("-m", "topicmodels", "fit", "--model", "lda-gibbs", "--input", clean,
                  "--output-dir", tmp_path / "out", "-k", "2", "--iterations", "1")
    assert done.returncode == 0
    assert done.stderr == ("WARNING: line 2: empty document dropped\n"
                           "WARNING: dropped 1 empty document(s)\n"
                           "lda-gibbs: iteration 1/1\n")
