import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from topicmodels import lda, reports
from topicmodels.cli import main
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
# --top-words 3.  K=5 runs the dense kernel, whose chain predates the sparse
# one; K=20 runs the sparse kernel.  A change to either sampling sequence
# must update these and say why.
GOLDEN_LDA_GIBBS = {
    5: {"LDAGibbs_doc_topic5.txt":
        "cfbaf9ad2c5bee1a72f81e2e52053b818c446749a7e42dcab3294dc6e906d885",
        "LDAGibbs_topic_word_5.txt":
        "1c55c4b02ca97ec02fc017bfeae03367a1ca20013d34b4fa89d49b7465d740a3"},
    20: {"LDAGibbs_doc_topic20.txt":
         "4ccddd0831e7d611c60912d4b5d919581873552e9b67ef3d616c1d59e6c55003",
         "LDAGibbs_topic_word_20.txt":
         "eff911732647c8f39f052a700876c219375b8198c1a746379a1f2cc003954d93"},
}


# Python 3.12 made the builtin sum() of floats compensated (Neumaier
# summation).  BTM's document mixtures, the CVB0 and dual-sparse updates and
# the eval mean over topics all sum floats, so from 3.12 on the files below
# have these hashes instead of the ones in the GOLDEN_* tables.  Running 3.12
# with a left-to-right sum() gives the GOLDEN_* hashes again.
SUM_IS_COMPENSATED = sys.version_info >= (3, 12)
GOLDEN_PY312 = {
    "BTM_doc_topic_3.txt":
    "e88374ef6bd9602e52617246ba0e960248c3b4dd5729562d0b05633a79ab65f5",
    "CVBLDA_doc_topic3.txt":
    "fb59cd262354acc004ec7946f50bc73817e24c681531e2298dcd990757687b6d",
    "CVBLDA_topic_word_3.txt":
    "ad7c6b9962b860612cebfb8680e3a667e7ddb0aeaa56807ace4f03d7157c1467",
    "dualSLDA_doc_topic_3.txt":
    "dd53c1c92d220c1b3a457bcaf40545f61a936193b1404eb86af941d2bc26fd03",
    "dualSLDA_sparseRatio_DT3.txt":
    "e1927f6953eb73842a398c721867e737119a97a604e037241d5bbe7537d77f22",
    "dualSLDA_topic_word_3.txt":
    "b6008357868035d48f5815573a4844ecd2aa366f847d80dee2c7817df3f37acc",
}


def assert_golden(tmp_path, model, text, flags, want):
    """Fit GOLDEN-sized input at seed 7, 20 sweeps, --top-words 3 and
    compare the SHA-256 of every output file with ``want``."""
    if SUM_IS_COMPENSATED:
        want = {name: GOLDEN_PY312.get(name, digest) for name, digest in want.items()}
    corpus = tmp_path / "golden.txt"
    corpus.write_text(text)
    out = tmp_path / "out"
    assert run(["fit", "--model", model, "--input", corpus, "--output-dir", out,
                *flags, "--iterations", "20", "--top-words", "3", "--seed", "7"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == want


@pytest.mark.parametrize("k", sorted(GOLDEN_LDA_GIBBS))
def test_lda_gibbs_golden_bytes(tmp_path, k):
    assert (k >= lda.SPARSE_MIN_TOPICS) == (k == 20)
    assert_golden(tmp_path, "lda-gibbs", GOLDEN, ["-k", k], GOLDEN_LDA_GIBBS[k])


# SHA-256 of the short-text models' output files for GOLDEN at seed 7,
# 20 sweeps, --top-words 3.  The flags make DPMM and HDP open and close
# clusters, tables and topics during the chain, and GOLDEN repeats words
# inside documents, so the multiplicity-2 rising factorials are used too.
# The sweeps inline their conditionals, so these hashes (not the
# full_conditional oracles) are what pin the kernels.
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
        "d5c47bf2f70a353d12556fa993e16b0841bae71ad86f59494e98373404096191",
        "PseudoDTM_pseudo_topic3.txt":
        "cbadab904f5a9bb0767a9026b16a6fe5c06869a955cf89b6980f67482508210e",
        "PseudoDTM_topic_word_3.txt":
        "49ff783cd8c52a630b2628a014c9c33797b343e3fb3e0fbc216f6a4757e9df52"}),
    "btm": (["-k", "3"], {
        "BTM_doc_topic_3.txt":
        "7c25542b247999d8f79092e4d457b420c6326b3d1775c34016a741209707284b",
        "BTM_topic_theta_3.txt":
        "40de2d714c6359800647a258f9475c2356bb94e5e761114cc37ed47e0e6a574a",
        "BTM_topic_word_3.txt":
        "01f04a0456c51f19a2ac4dd3ac549cebdeae583ced039d22fcc00ea640bd197b"}),
    "hdp": (["-k", "3", "--alpha", "1.0", "--gamma", "1.0"], {
        "HDP_doc_topic7.txt":
        "9163aa5a9c6862cb858de593e59a919113de87e244460aa01ad2b3b7c1c483d7",
        "HDP_topic_word_7.txt":
        "8bfa9f935c70964decb0c2cc541ab061e943c2808ca2db5b635a2545431f4094"}),
}


@pytest.mark.parametrize("model", sorted(GOLDEN_SHORT_TEXT))
def test_short_text_golden_bytes(tmp_path, model):
    flags, want = GOLDEN_SHORT_TEXT[model]
    assert_golden(tmp_path, model, GOLDEN, flags, want)


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
# writers switched to evaluation.top_word_ids.
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
        "de1ce78c3780341ad0fc996dce9b76f2f45d88eb517683a76bac6323b64d12d5",
        "LinkLDA_topic_link_3.txt":
        "7feb1b3230dc43af0a03b80571b03ff33756ffe05bc98093eddfa27f8805df1c",
        "LinkLDA_topic_word_3.txt":
        "22f198796006187f36c78306babce9963ffe34c7b8428e16cde78b8500efff88"}),
    "labeled-lda": ("labels", [], {
        "LabeledLDA_doc_topic3.txt":
        "ef729ea7cd873cf823377bcca0d91973e24f93ef148d3c5caf189f3beb3752c9",
        "LabeledLDA_topic_word_3.txt":
        "22a1975274803e813c2e9a4a5588c513e1b267f38469441e69357619579a1700"}),
    "plda": ("labels", ["--label-topics", "2"], {
        "PLDA_doc_topic4.txt":
        "c0af7e922aad072f2e8f725724e48d764a9c0b57403126639547345228011c86",
        "PLDA_topic_word_4.txt":
        "0a8a44f382b574225c43976e87c70a6817a3e385e67b097d8b2001987ce45213"}),
    "dual-sparse": ("plain", ["-k", "3"], {
        "dualSLDA_doc_topic_3.txt":
        "a80caa0833d0cc55b56299be36e39079502b2ff8116b0cb15a047ae7e87e465f",
        "dualSLDA_sparseRatio_DT3.txt":
        "71946e6f2d5ee512c3238f327a7fb77e3acc3635f8993a4b42b267fc09f17b41",
        "dualSLDA_sparseRatio_TV3.txt":
        "41cbb53df772cc3f9a4aef0e973e05050a46ef17c9f7dd83c709697c0400fd12",
        "dualSLDA_topic_word_3.txt":
        "95847667b022265238c3c6c08de57c2f51c401a9d9a83ee84b3885ee6fdb29e6"}),
}


@pytest.mark.parametrize("model", sorted(GOLDEN_OTHER_MODELS))
def test_other_models_golden_bytes(tmp_path, model):
    layout, flags, want = GOLDEN_OTHER_MODELS[model]
    assert_golden(tmp_path, model, GOLDEN_LAYOUTS[layout], flags, want)


# labeled-lda at --alpha 1, same run settings.  At the default alpha every
# GOLDEN document ends in one topic, so the hashes above barely see the
# chain's draws; here the multi-label documents keep a mixture, so the bytes
# change with any change to the random stream.
GOLDEN_LABELED_LDA_ALPHA_1 = {
    "LabeledLDA_doc_topic3.txt":
    "ab739e579924d84619748c650d1fa1693eda3d93cb8b244c50e3f2c02d098652",
    "LabeledLDA_topic_word_3.txt":
    "0995c0e1a124a94085ea7f8659f585274d20a54dd2a550a8dc3c3bd3eab5cbdc"}


def test_labeled_lda_golden_bytes_at_a_large_alpha(tmp_path):
    assert_golden(tmp_path, "labeled-lda", GOLDEN_LAYOUTS["labels"], ["--alpha", "1"],
                  GOLDEN_LABELED_LDA_ALPHA_1)


# stdout of `eval --model lda-gibbs` on GOLDEN at seed 7, 20 sweeps, recorded
# before coherence shared one corpus scan across topics.  V = 15, so the
# top-20 lists hold every word; at K = 20 each topic holds a few of the 48
# tokens (three hold none), so most of each list is tied words.  From
# Python 3.12 the mean over 20 topics rounds differently (see
# SUM_IS_COMPENSATED).
GOLDEN_EVAL = {
    5: ("average_coherence_2:\t-0.21972245773362195\n"
        "average_coherence_3:\t-0.716703787691222\n"
        "average_coherence_5:\t-2.866815150764888\n"
        "average_coherence_10:\t-19.685797554377324\n"
        "average_coherence_20:\t-55.5526741660967\n"),
    20: ("average_coherence_2:\t-0.17068099508303566\n"
         "average_coherence_3:\t-0.5231437371458276\n"
         "average_coherence_5:\t-2.4371158838565288\n"
         "average_coherence_10:\t-21.2714367112067\n"
         "average_coherence_20:\t-58.86664722588097\n"),
}
GOLDEN_EVAL_PY312 = {
    20: ("average_coherence_2:\t-0.17068099508303564\n"
         "average_coherence_3:\t-0.5231437371458274\n"
         "average_coherence_5:\t-2.437115883856529\n"
         "average_coherence_10:\t-21.271436711206704\n"
         "average_coherence_20:\t-58.86664722588097\n"),
}


@pytest.mark.parametrize("k", sorted(GOLDEN_EVAL))
def test_eval_golden_stdout(tmp_path, capsys, k):
    corpus = tmp_path / "golden.txt"
    corpus.write_text(GOLDEN)
    assert run(["eval", "--model", "lda-gibbs", "--input", corpus, "-k", k,
                "--iterations", "20", "--seed", "7", "--top-n", "2", "3", "5", "10", "20"]) == 0
    want = GOLDEN_EVAL_PY312.get(k, GOLDEN_EVAL[k]) if SUM_IS_COMPENSATED else GOLDEN_EVAL[k]
    assert capsys.readouterr().out == want


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
    for model, flags, line in (
            ("hdp", ["--alpha", "1.0", "--gamma", "1.0"], "hdp: converged to 7 topics\n"),
            ("dpmm", ["-k", "2", "--alpha", "2", "--beta", "0.2"],
             "dpmm: converged to 5 clusters\n")):
        assert run(["eval", "--model", model, "--input", corpus, *flags, "--iterations", "20",
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
