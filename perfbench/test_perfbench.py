"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench

Runs every workload's calls once on a few dozen documents, one traced run,
and the checks against deliberately broken outputs, so the harness cannot
rot unnoticed.  Not part of the package's test suite: it spawns the CLI.
"""

import math
from pathlib import Path

import pytest

import check
import gen
import run
import workloads

ROOT = Path(__file__).resolve().parents[1]
TINY = 0.05


def test_inputs_are_deterministic_and_clean_back_to_plain():
    from topicmodels.corpus import StopList, preprocess
    w = workloads.WORKLOADS["small-k-zoo"]
    corpus, first = w.generate(7, TINY)
    _, second = w.generate(7, TINY)
    assert first == second
    assert w.generate(8, TINY)[1]["plain"] != first["plain"]
    assert len({gen.word(i) for i in range(5000)}) == 5000
    stop = StopList.default()
    raw = first["raw"][0]
    assert "http" in raw and raw != first["plain"][0]
    cleaned = "".join(preprocess(line, stop) + "\n" for line in raw.splitlines())
    assert cleaned == first["plain"][0]
    assert set(corpus.topic_of) >= set(first["plain"][0].split())


def _lda_files(outdir: Path, rows):
    outdir.mkdir()
    (outdir / "LDAGibbs_topic_word_2.txt").write_text(
        "Topic:1\nqa :0.6\nqe :0.4\n\nTopic:2\nqe :0.7\nqa :0.3\n\n")
    (outdir / "LDAGibbs_doc_topic2.txt").write_text(
        "Topic1 Topic2\n" + "".join(" ".join(map(repr, r)) + "\n" for r in rows))


def test_checks_catch_broken_outputs(tmp_path):
    call = workloads.Call("fit", "plain", "lda-gibbs", ("-k", "2"))
    meta = {"docs": 2, "words": {"qa", "qe", "qi"}, "items": set(),
            "topic_of": {"qa": 0, "qe": 1}, "top": 2}
    _lda_files(tmp_path / "good", [[0.25, 0.75], [0.5, 0.5]])
    problems, facts = check.check_fit(call, tmp_path / "good", meta)
    assert problems == [] and facts["purity"] == [0.5, 0.5]
    _lda_files(tmp_path / "bad", [[0.25, 0.75], [0.5, 0.6]])
    assert check.check_fit(call, tmp_path / "bad", meta)[0]
    assert check.check_fit(call, tmp_path / "good", {**meta, "top": 3})[0]
    assert check.check_fit(call, tmp_path / "good", {**meta, "docs": 3})[0]
    assert check.check_fit(workloads.Call("fit", "plain", "lda-gibbs", ("-k", "3")),
                           tmp_path / "good", meta)[0]
    good = "average_coherence_5:\t-1.5\naverage_coherence_10:\t-9.0\n"
    assert check.check_eval(good, (5, 10)) == []
    assert check.check_eval(good.replace("-9.0", "nan"), (5, 10))
    assert check.check_eval(good, (5, 10, 20))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_end_to_end_tiny(name):
    result = run.run(name, 3, 0, False, root=ROOT, scale=TINY)
    assert result["correct"], result["env"]["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS[name].calls)
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


def _traced_tiny(name):
    result = run.run(name, 3, 0, True, root=ROOT, scale=TINY)
    assert result["correct"], result["env"]["problems"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(run.per_layer_units())
    detail = result["env"]["detail"]
    # The spans' self times, cli glue included, cover the traced in-process
    # time once: none negative, none counted twice, none lost.
    self_s = detail["inprocess_self_s"]
    assert min(self_s.values()) >= 0, self_s
    assert sum(self_s.values()) == pytest.approx(detail["inprocess_s"]["traced"], rel=3e-3)
    for layer, t in self_s.items():
        if layer != "cli":
            assert m[f"{layer}.self_s"] == pytest.approx(t, rel=1e-9), layer
    # Start-up and exit are never negative; allow for noise between the runs.
    assert m["cli.overhead_s"] > -0.1 * detail["untraced_s"]
    return m, detail


def test_traced_tiny_ingest_accounts_for_its_time():
    m, detail = _traced_tiny("ingest")
    for key in ("corpus.self_s", "lda.self_s", "reports.self_s", "evaluation.self_s",
                "lda.lda-gibbs.init_s", "lda.lda-gibbs.sweep_tokens_per_s",
                "corpus.preprocess_tokens_per_s", "reports.bytes_written", "cli.import_s"):
        assert m[key] > 0, key
    assert m["mixture.dmm.init_s"] == 0
    shares = detail["shares"]
    assert set(shares) == {"fit", "eval", "preprocess"}
    assert shares["preprocess"]["corpus"] > 0 and shares["eval"]["evaluation"] > 0


def test_traced_tiny_zoo_charges_initial_states_to_the_sampler():
    # CVB0 and dual-sparse draw their initial responsibilities before the
    # constructor runs; that time belongs to their layers, not to the cli.
    m, _ = _traced_tiny("small-k-zoo")
    for key in ("lda.lda-cvb0.init_s", "dual_sparse.dual-sparse.init_s",
                "sentence_lda.self_s", "linked.self_s", "supervised.self_s"):
        assert m[key] > 0, key


def test_exits_without_sources_and_prints_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "ingest", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
