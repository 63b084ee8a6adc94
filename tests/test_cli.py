import hashlib

import pytest

from topicmodels import lda
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


@pytest.mark.parametrize("k", sorted(GOLDEN_LDA_GIBBS))
def test_lda_gibbs_golden_bytes(tmp_path, k):
    assert (k >= lda.SPARSE_MIN_TOPICS) == (k == 20)
    corpus = tmp_path / "golden.txt"
    corpus.write_text(GOLDEN)
    out = tmp_path / "out"
    assert run(["fit", "--model", "lda-gibbs", "--input", corpus, "--output-dir", out,
                "-k", k, "--iterations", "20", "--top-words", "3", "--seed", "7"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN_LDA_GIBBS[k]


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
    corpus = tmp_path / "golden.txt"
    corpus.write_text(GOLDEN)
    out = tmp_path / "out"
    assert run(["fit", "--model", model, "--input", corpus, "--output-dir", out,
                *flags, "--iterations", "20", "--top-words", "3", "--seed", "7"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == want


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


@pytest.mark.parametrize("model, flags, message", [
    ("btm", ["-k", "0"], "n_topics must be >= 1"),
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
])
def test_invalid_hyperparameters_rejected(tmp_path, capsys, model, flags, message):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text({"link-lda": LINKS, "labeled-lda": LABELS, "plda": LABELS}.get(model, PLAIN))
    out = tmp_path / "out"
    rc = run(["fit", "--model", model, "--input", corpus, "--output-dir", out,
              "--iterations", "2", *flags])
    assert rc == 1
    assert message in capsys.readouterr().err
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
