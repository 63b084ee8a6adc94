"""Benchmark of the topicmodels CLI: seeded workloads, end to end and by layer.

    python3 perfbench/run.py --workload wide-k --seed 1 --seconds 28 --trace 0

Run it from the root of a source checkout.  It generates the workload's
inputs from the seed, then runs the workload's CLI calls (``fit``, ``eval``,
``preprocess``) as a closed loop, one child process at a time, for about
``--seconds`` seconds, checks every output, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
it runs one iteration, then the calls again in this process with spans
around the package's public functions, and reports per-layer metrics
instead (``--seconds`` does not apply).
README.md in this directory defines every metric.
"""

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import gen
import spans
import workloads

HERE = Path(__file__).resolve().parent
CALL_TIMEOUT_S = 120
PROBE_LOOPS = 600_000
# Probe time that counts as reference speed: roughly what the probe takes
# on an unloaded 2.1 GHz Xeon vCPU with Python 3.11.
REFERENCE_PROBE_S = 0.05

# Metric prefix of each model's per-layer metrics: the module that holds
# the model in the source this benchmark was written against.  Fixed here
# so the metric names survive code moving between modules.
MODEL_LAYER = {
    "lda-gibbs": "lda", "lda-cvb0": "lda", "dmm": "mixture", "dpmm": "mixture",
    "ptm": "short_text", "btm": "short_text", "hdp": "hdp",
    "sentence-lda": "sentence_lda", "atm": "linked", "link-lda": "linked",
    "labeled-lda": "supervised", "plda": "supervised", "dual-sparse": "dual_sparse",
}
LAYERS = ("cli", "corpus", "lda", "mixture", "short_text", "hdp", "sentence_lda",
          "linked", "supervised", "dual_sparse", "reports", "evaluation")


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {"cli.import_s": "s", "cli.overhead_s": "s", "cli.stderr_lines": "count",
             "corpus.parse_s": "s", "corpus.preprocess_tokens_per_s": "tokens/s",
             "corpus.docs": "count", "corpus.tokens": "count", "corpus.vocab": "count"}
    for model, layer in MODEL_LAYER.items():
        units[f"{layer}.{model}.init_s"] = "s"
        units[f"{layer}.{model}.sweep_tokens_per_s"] = "tokens/s"
        units[f"{layer}.{model}.estimate_s"] = "s"
    units.update({"short_text.btm.biterms": "count", "hdp.hdp.topics_final": "count",
                  "mixture.dpmm.clusters_final": "count", "reports.write_s": "s",
                  "reports.bytes_written": "bytes", "evaluation.coherence_s": "s",
                  "trace.overhead_pct": "%"})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS if layer != "cli"})
    return units


END_TO_END_UNITS = {"fit_s": "s", "eval_s": "s", "preprocess_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB", "topic_purity": "fraction", "success_rate": "fraction"}


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def probe() -> float:
    """Seconds for a fixed pure-Python loop: the CPU speed at this moment.

    On a shared VM the speed of a vCPU swings by up to 2x over seconds, as
    other tenants come and go.  Every timed call is bracketed by probes and
    its times are scaled by ``REFERENCE_PROBE_S`` over the mean of the two,
    which turns them into seconds at reference speed; the raw wall times
    are kept in the result record.
    """
    start = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - start


def environment(root: Path) -> dict:
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), "")
    commit = None
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "commit": commit, "load_before": os.getloadavg()}


# -- child processes ---------------------------------------------------------------


def spawn(argv: list, env: dict, out: Path, err: Path) -> dict:
    """Run one child to completion; wall time and max RSS come from wait4."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    killer = threading.Timer(CALL_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    return {"start": start, "wall": wall, "code": os.waitstatus_to_exitcode(status),
            "rss_mb": usage.ru_maxrss / 1024.0, "cpu": usage.ru_utime + usage.ru_stime}


class Bench:
    """One workload on one seed, in one checkout."""

    def __init__(self, root: Path, workload: workloads.Workload, seed: int,
                 scale: float = 1.0):
        self.root = root
        self.workload = workload
        self.seed = seed
        src = root / "src"
        if not (src / "topicmodels" / "cli.py").is_file():
            raise SetupError(f"no topicmodels sources under {src}")
        build = root / ".bench_build" / "perfbench"
        self.work = build / f"run-{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "inputs").mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(src),
                        PYTHONPYCACHEPREFIX=str(build / "pycache"))
        sys.pycache_prefix = self.env["PYTHONPYCACHEPREFIX"]
        sys.path.insert(0, str(src))
        self.problems = []
        self.corpus, inputs = workload.generate(seed, scale)
        self.inputs = {}
        for name, (text, layout) in inputs.items():
            path = self.work / "inputs" / f"{name}.txt"
            path.write_text(text, encoding="utf-8")
            self.inputs[name] = {"path": path, "sha256": gen.sha256(text),
                                 **gen.stats(text, layout)}
        self.expected_clean = inputs["plain"][0].encode("utf-8")
        self._check_inputs(build / "manifests", scale)
        self._build()

    def _check_inputs(self, manifests: Path, scale: float) -> None:
        """Same seed, same bytes: against a second process and earlier runs."""
        hashes = {n: i["sha256"] for n, i in self.inputs.items()}
        env = dict(self.env, PYTHONHASHSEED=str(self.seed % 4000 + 1))
        other = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", self.workload.name,
             "--seed", str(self.seed), "--scale", str(scale)],
            env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        if other.returncode != 0 or json.loads(other.stdout) != hashes:
            self.problems.append("inputs differ between two processes for the same seed")
        manifests.mkdir(parents=True, exist_ok=True)
        spec = hashlib.sha256(repr(self.workload).encode("utf-8")).hexdigest()[:12]
        path = manifests / f"{self.workload.name}-{self.seed}-{scale}-{spec}.json"
        if path.is_file():
            if json.loads(path.read_text()) != hashes:
                self.problems.append(f"inputs differ from an earlier run with seed {self.seed}")
        else:
            path.write_text(json.dumps(hashes, sort_keys=True))

    def _build(self) -> None:
        """Byte-compile the package and import it once, so no timed call compiles."""
        for argv in (["-m", "compileall", "-q", str(self.root / "src" / "topicmodels")],
                     ["-c", "import topicmodels.cli"]):
            done = subprocess.run([sys.executable, *argv], env=self.env,
                                  capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
            if done.returncode != 0:
                raise SetupError(f"{' '.join(argv)} failed:\n{done.stderr}")

    # -- one call ------------------------------------------------------------------

    def argv(self, index: int, call, outdir: Path) -> list:
        inp = str(self.inputs[call.input]["path"])
        if call.command == "preprocess":
            return ["preprocess", "--input", inp, "--output", str(outdir / "clean.txt")]
        common = ["--model", call.model, "--input", inp, *call.flags,
                  "--seed", str(self.seed * 1000 + index)]
        if call.command == "fit":
            return ["fit", *common, "--top-words", str(workloads.TOP_WORDS),
                    "--output-dir", str(outdir)]
        return ["eval", *common, "--top-n", *map(str, workloads.TOP_N)]

    def check(self, call, outdir: Path, stdout: str) -> tuple[list, dict]:
        """Problems with a finished call's outputs, plus facts read from them."""
        if call.command == "preprocess":
            clean = outdir / "clean.txt"
            same = clean.is_file() and clean.read_bytes() == self.expected_clean
            return ([] if same else ["preprocess output differs from the clean corpus"]), {}
        if call.command == "eval":
            return check.check_eval(stdout, workloads.TOP_N), {}
        inp = self.inputs[call.input]
        meta = {"docs": inp["docs"], "words": inp["words"], "items": inp["items"],
                "topic_of": self.corpus.topic_of, "top": workloads.TOP_WORDS}
        return check.check_fit(call, outdir, meta)

    def digest(self, outdir: Path, stdout: str) -> str:
        h = hashlib.sha256(stdout.encode("utf-8"))
        for path in sorted(outdir.iterdir()):
            h.update(path.name.encode("utf-8"))
            h.update(path.read_bytes())
        return h.hexdigest()

    def run_call(self, index: int, call, tag: str) -> dict:
        outdir = self.work / tag / str(index)
        outdir.mkdir(parents=True)
        marker = outdir.parent / f"{index}.marker"
        out, err = outdir.parent / f"{index}.out", outdir.parent / f"{index}.err"
        res = spawn([str(HERE / "child.py"), str(marker), *self.argv(index, call, outdir)],
                    self.env, out, err)
        stdout = out.read_text(encoding="utf-8", errors="replace")
        stderr = err.read_text(encoding="utf-8", errors="replace")
        res["stderr_lines"] = len(stderr.splitlines())
        if res["code"] != 0:
            problems, facts = [f"exit code {res['code']}: {stderr.strip()[-300:]}"], {}
        else:
            problems, facts = self.check(call, outdir, stdout)
        res.update(problems=problems, facts=facts, digest=self.digest(outdir, stdout))
        if call.command == "fit":
            mark = marker.read_text() if marker.is_file() else ""
            if mark:
                res["setup"] = float(mark) - res["start"]
            elif not problems:
                problems.append("no sampler was constructed")
        shutil.rmtree(outdir)
        return res

    def iteration(self, tag: str) -> list:
        """Every call once; ``scale`` turns a call's times into reference seconds."""
        results = []
        before = probe()
        for index, call in enumerate(self.workload.calls):
            res = self.run_call(index, call, tag)
            after = probe()
            res["probe"] = (before + after) / 2
            res["scale"] = REFERENCE_PROBE_S / res["probe"]
            before = after
            results.append(res)
        return results

    # -- end to end ----------------------------------------------------------------

    def end_to_end(self, seconds: float) -> tuple[dict, int, int, dict]:
        start = time.perf_counter()
        runs = []
        while True:
            t = time.perf_counter()
            runs.append(self.iteration(f"it{len(runs)}"))
            spent = time.perf_counter() - t
            if time.perf_counter() - start + spent > seconds:
                break
        calls = self.workload.calls
        failed = self._failures(runs)
        attempted = len(runs) * len(calls)

        def total(command, key="wall"):
            """Each call's median over the iterations, summed over the calls."""
            return sum(statistics.median(r[i].get(key, 0.0) * r[i]["scale"] for r in runs)
                       for i, c in enumerate(calls) if c.command == command)

        per_iter = {
            "peak_rss_mb": [max(x["rss_mb"] for x in r) for r in runs],
            "topic_purity": [statistics.fmean([p for x in r for p in x["facts"].get("purity", [])]
                                              or [0.0]) for r in runs],
        }
        metrics = {"fit_s": total("fit"), "eval_s": total("eval"),
                   "preprocess_s": total("preprocess"), "setup_s": total("fit", "setup"),
                   **{name: statistics.median(v) for name, v in per_iter.items()},
                   "success_rate": 1.0 - failed / attempted}
        detail = {"calls": [[{k: x.get(k) for k in ("wall", "setup", "cpu", "probe", "rss_mb", "code")}
                             for x in r] for r in runs]}
        return metrics, attempted, failed, detail

    def _failures(self, runs: list) -> int:
        """Calls that failed a check, or whose output changed between iterations."""
        failed = 0
        for i, results in enumerate(runs):
            for index, res in enumerate(results):
                if not res["problems"] and res["digest"] != runs[0][index]["digest"]:
                    res["problems"].append("output differs from the first iteration")
                if res["problems"]:
                    failed += 1
                    call = self.workload.calls[index]
                    print(f"FAILED iteration {i} {call.command} {call.model}: "
                          + "; ".join(res["problems"][:3]), file=sys.stderr)
        return failed

    # -- traced ----------------------------------------------------------------------

    def traced(self) -> tuple[dict, int, int, dict]:
        """Per-layer metrics from spans, next to one untraced subprocess iteration.

        Each in-process call runs twice, untraced then traced, between probes;
        the spans of a traced call are rescaled to reference seconds.
        """
        calls = self.workload.calls
        untraced = self.iteration("untraced")
        imports = []
        for _ in range(3):
            before = probe()
            res = spawn(["-c", "import topicmodels.cli"], self.env,
                        self.work / "import.out", self.work / "import.err")
            imports.append(res["wall"] * 2 * REFERENCE_PROBE_S / (before + probe()))
        import_s = statistics.median(imports)

        from topicmodels import cli
        logging.getLogger().addHandler(logging.NullHandler())
        tracer = spans.Tracer()
        walls = {"plain": 0.0, "traced": 0.0}
        traced_calls = []   # (call index, first span, end span)
        problems = {}
        written = 0
        before = probe()
        for index, call in enumerate(calls):
            # alternate the order so warm-up favours neither mode
            for mode in ("plain", "traced")[::1 if index % 2 else -1]:
                outdir = self.work / f"inproc-{mode}" / str(index)
                outdir.mkdir(parents=True)
                argv = self.argv(index, call, outdir)
                first = len(tracer.spans)
                buf = io.StringIO()
                if mode == "traced":
                    tracer.model = call.model or call.command
                    tracer.install()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    start = time.perf_counter()
                    try:
                        if mode == "traced":
                            code = tracer.call("cli", "main", cli.main, argv)
                        else:
                            code = cli.main(argv)
                    finally:
                        wall = time.perf_counter() - start
                        tracer.uninstall()
                after = probe()
                scale = 2 * REFERENCE_PROBE_S / (before + after)
                before = after
                walls[mode] += wall * scale
                for span in tracer.spans[first:]:
                    span[3] = start + (span[3] - start) * scale
                    span[4] = start + (span[4] - start) * scale
                if mode == "traced":
                    traced_calls.append((index, first, len(tracer.spans)))
                found = [f"exit code {code}"] if code else self.check(call, outdir, buf.getvalue())[0]
                if mode == "traced":
                    written += sum(p.stat().st_size for p in outdir.iterdir())
                if found:
                    problems[(index, mode)] = found
                shutil.rmtree(outdir)
        failed = self._failures([untraced]) + len(problems)
        for (index, mode), found in problems.items():
            print(f"FAILED {mode} in-process call {index}: {'; '.join(found[:3])}", file=sys.stderr)
        metrics, self_s = self._layer_metrics(tracer.spans, untraced, import_s, written)
        metrics["trace.overhead_pct"] = 100.0 * (walls["traced"] - walls["plain"]) / walls["plain"]
        detail = {"inprocess_s": walls, "import_s": imports,
                  "untraced_s": sum(r["wall"] * r["scale"] for r in untraced),
                  "untraced_wall_s": [r["wall"] for r in untraced],
                  "inprocess_self_s": self._self_by_layer(self_s, range(len(self_s))),
                  "shares": self._shares(self_s, traced_calls, untraced, import_s)}
        return metrics, 3 * len(calls), failed, detail

    @staticmethod
    def _self_by_layer(self_s: list, indices) -> dict:
        """Self seconds per layer over the given spans; "cli" is the in-process glue."""
        out = {}
        for i in indices:
            layer, t = self_s[i]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def _shares(self, self_s: list, traced_calls: list, untraced: list,
                import_s: float) -> dict:
        """For each command, every layer's share of its untraced subprocess time.

        ``cli.import`` is the fresh-process import and ``cli.overhead`` the
        rest of the time not in a layer span (start-up, glue, exit).
        """
        shares = {}
        for command in sorted({c.command for c in self.workload.calls}):
            ours = [(i, a, b) for i, a, b in traced_calls
                    if self.workload.calls[i].command == command]
            total = sum(untraced[i]["wall"] * untraced[i]["scale"] for i, _, _ in ours)
            layers = self._self_by_layer(self_s, [k for _, a, b in ours for k in range(a, b)])
            layers.pop("cli", None)
            layers["cli.import"] = len(ours) * import_s
            layers["cli.overhead"] = total - sum(layers.values())
            shares[command] = {"total_s": total,
                               **{k: v / total for k, v in sorted(layers.items())}}
        return shares

    def _layer_metrics(self, recorded: list, untraced: list, import_s: float,
                       written: int) -> tuple[dict, list]:
        """Per-layer metrics, and each span's (layer, self seconds)."""
        calls = self.workload.calls
        m = dict.fromkeys(per_layer_units(), 0.0)
        self_s = []
        for s in recorded:
            layer = s[0]
            if layer not in LAYERS:     # a sampler in a module not listed here
                layer = MODEL_LAYER.get(s[2], "cli")
            self_s.append([layer, s[4] - s[3]])
            if s[5] >= 0:
                self_s[s[5]][1] -= s[4] - s[3]
        for layer, op, model, start, end, _ in recorded:
            dur = end - start
            if layer == "corpus" and op in ("read", "parse"):
                m["corpus.parse_s"] += dur
            elif op == "write":
                m["reports.write_s"] += dur
            elif op == "coherence":
                m["evaluation.coherence_s"] += dur
            elif op == "estimate" and model in MODEL_LAYER:
                m[f"{MODEL_LAYER[model]}.{model}.estimate_s"] += dur
        # init: from the end of the last corpus span to the end of the first
        # sampler construction, so random initial states count wherever they
        # run.  The part of that gap outside any layer span (say, initial
        # responsibilities drawn before the constructor) is charged to the
        # sampler's layer, not to the cli glue around it.
        sweeps = {}
        last_corpus = None
        for i, (layer, op, model, start, end, _) in enumerate(recorded):
            if layer == "corpus" and op in ("read", "parse"):
                if last_corpus is None or end > recorded[last_corpus][4]:
                    last_corpus = i
            elif op == "init" and last_corpus is not None and model in MODEL_LAYER:
                gap_start = recorded[last_corpus][4]
                m[f"{MODEL_LAYER[model]}.{model}.init_s"] += end - gap_start
                root = i
                while recorded[root][5] >= 0:
                    root = recorded[root][5]
                covered = sum(s[4] - s[3] for s in recorded[last_corpus + 1:i + 1]
                              if s[5] == root and s[3] >= gap_start and s[4] <= end)
                outside = end - gap_start - covered
                self_s[i][1] += outside
                self_s[root][1] -= outside
                last_corpus = None
            elif op == "sweep" and model in MODEL_LAYER:
                n, t = sweeps.get(model, (0, 0.0))
                sweeps[model] = (n + 1, t + end - start)
        tokens = {c.model: self.inputs[c.input]["tokens"] for c in calls if c.model}
        for model, (n, t) in sweeps.items():
            m[f"{MODEL_LAYER[model]}.{model}.sweep_tokens_per_s"] = tokens[model] * n / t
        pre = sum(e - s for _, op, _, s, e, _ in recorded if op == "preprocess")
        raw = self.inputs.get("raw")
        if raw and pre > 0:
            m["corpus.preprocess_tokens_per_s"] = raw["tokens"] / pre
        plain = self.inputs["plain"]
        m.update({"corpus.docs": plain["docs"], "corpus.tokens": plain["tokens"],
                  "corpus.vocab": plain["vocab"], "reports.bytes_written": written,
                  "cli.import_s": import_s,
                  "cli.stderr_lines": sum(r["stderr_lines"] for r in untraced)})
        for call, res in zip(calls, untraced):
            if call.model == "btm":
                m["short_text.btm.biterms"] = biterm_count(
                    self.inputs[call.input]["path"], int(check.flag(call.flags, "--window", 5)))
            if call.model in ("hdp", "dpmm") and call.command == "fit":
                key = {"hdp": "hdp.hdp.topics_final", "dpmm": "mixture.dpmm.clusters_final"}
                m[key[call.model]] = res["facts"].get("n") or 0
        for layer, t in self_s:
            if layer != "cli":
                m[f"{layer}.self_s"] += t
        layer_self = sum(t for layer, t in self_s if layer != "cli")
        m["cli.overhead_s"] = (sum(r["wall"] * r["scale"] for r in untraced) - len(calls) * import_s
                               - layer_self)
        return m, self_s

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def biterm_count(path: Path, window: int) -> int:
    """In-window unordered word pairs, distinct within each document."""
    total = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        doc = line.split()
        total += len({tuple(sorted((doc[i], doc[j])))
                      for i in range(len(doc)) for j in range(i + 1, min(i + window, len(doc)))})
    return total


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path | None = None, scale: float = 1.0) -> dict:
    """One benchmark run; returns the result object (plus an "env" record)."""
    root = root or Path.cwd()
    # One CPU for this process and its children, so each probe measures the
    # CPU the bracketed call ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment(root)
    probes = [probe() for _ in range(3)]
    bench = Bench(root, workloads.WORKLOADS[workload], seed, scale)
    try:
        metrics, attempted, failed, detail = (bench.traced() if trace
                                              else bench.end_to_end(seconds))
        problems = bench.problems
    finally:
        bench.close()
    units = per_layer_units() if trace else END_TO_END_UNITS
    env.update(load_after=os.getloadavg(), probe_s=probes + [probe() for _ in range(3)],
               inputs={n: {k: i[k] for k in ("sha256", "docs", "tokens", "vocab")}
                       for n, i in bench.inputs.items()},
               problems=problems, detail=detail)
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
            "env": env}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark the topicmodels CLI on one workload.")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = result.pop("env")
    record = Path.cwd() / ".bench_build" / "perfbench" / "results"
    record.mkdir(parents=True, exist_ok=True)
    (record / f"{args.workload}-{args.seed}-trace{args.trace}-{os.getpid()}.json").write_text(
        json.dumps({**result, "env": env}, indent=1, default=list))
    print(json.dumps({"env": {k: v for k, v in env.items() if k != "detail"}}, default=list))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
