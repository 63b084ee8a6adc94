"""Seeded fuzz of what ``fit`` accepts: input files and flags.

Each case takes a valid input and valid flags for one of the thirteen
models, mutates the input or a flag with ``random.Random`` at a fixed seed,
and runs the CLI in-process.  Every case must end in one of two ways:

- exit 0, and every output file parses; or
- exit 1 with exactly one ``error:`` line on stderr, no traceback, no
  output directory and no progress line (no sweep ran).

No case allocates a resource extreme.  The numbers that size a table or
the run (topics, pseudo documents, topics per label, sweeps) get only
zero, negative or small values; huge values go only to flags that size
nothing (top words, window, seed).
"""

import random
import re

import pytest

from topicmodels import cli
from topicmodels.cli import main
from topicmodels.reports import parse_doc_topic_file, parse_topic_word_file, parse_value_lines

from readers import parse_author_topic_file, parse_sparse_ratio_file

CASES_PER_MODEL = 24

WORDS = ["apple", "banana", "cherry", "date", "fig", "grape", "kiwi", "lime"]
META = ["Ann", "Bo", "Cy", "100", "200", "Fruit", "Tart"]

PARSERS = {"topic_word": parse_topic_word_file, "topic_link": parse_topic_word_file,
           "labeled_topic_word": parse_topic_word_file,
           "related_topic_word": parse_topic_word_file, "topic_author": parse_topic_word_file,
           "doc_topic": parse_doc_topic_file, "values": parse_value_lines,
           "author_topic": parse_author_topic_file, "topic_sparsity": parse_sparse_ratio_file,
           "doc_sparsity": parse_sparse_ratio_file}

# flag values by what the flag sets
FLOATS = ["0", "-0.0", "-1", "5e-324", "1e-308", "0.001", "1e100", "1e101", "1e308", "inf", "-inf",
          "nan"]
SIZES = ["0", "-1", "-7", "1", "3"]  # topics, pseudo documents, topics per label, sweeps
FREE_INTS = ["0", "-1", "1", str(10 ** 12), str(-10 ** 12)]  # top words, window, seed
SIZING = {"topics", "pseudo_docs", "label_topics", "iterations"}


def valid_lines(layout: str, rng: random.Random) -> list:
    lines = []
    for _ in range(rng.randint(3, 5)):
        tokens = rng.choices(WORDS, k=rng.randint(2, 6))
        body = " ".join(tokens)
        if layout == "sentences":
            body = " ".join(tokens[:1]) + "--" + " ".join(tokens[1:])
        if layout in ("authors", "links", "labels"):
            items = rng.sample(META, rng.randint(1, 2))
            body = ("--" if layout == "links" else ",").join(items) + "\t" + body
        lines.append(body)
    return lines


def valid_flags(model: str) -> dict:
    flags = {"iterations": "2", "top_words": "3", "seed": "5"}
    model_flags = cli._model_flags(cli.MODELS[model])
    flags.update({flag: "2" for flag in ("topics", "pseudo_docs") if flag in model_flags})
    return flags


def insert(text: str, rng: random.Random, piece: str) -> str:
    i = rng.randint(0, len(text))
    return text[:i] + piece + text[i:]


def encode(lines: list) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


def mutate_line(lines: list, rng: random.Random, change) -> bytes:
    i = rng.randrange(len(lines))
    return encode(lines[:i] + [change(lines[i])] + lines[i + 1:])


# each takes the input's lines and returns the file's bytes
INPUT_MUTATIONS = {
    "tab": lambda lines, rng: mutate_line(lines, rng, lambda s: insert(s, rng, "\t")),
    "no tab": lambda lines, rng: mutate_line(lines, rng, lambda s: s.replace("\t", " ")),
    "extra field": lambda lines, rng: mutate_line(lines, rng, lambda s: s + "\t" + WORDS[0]),
    "metadata only": lambda lines, rng: mutate_line(lines, rng, lambda s: s.partition("\t")[0]
                                                     + "\t"),
    "separator": lambda lines, rng: mutate_line(lines, rng,
                                                lambda s: insert(s, rng, rng.choice(["--", ","]))),
    "empty lines": lambda lines, rng: encode([line for old in lines
                                              for line in (old, rng.choice(["", " ", "\t"]))]),
    "crlf": lambda lines, rng: "\r\n".join(lines).encode(),
    "nul": lambda lines, rng: mutate_line(lines, rng, lambda s: insert(s, rng, "\0")),
    "non-utf-8": lambda lines, rng: insert(encode(lines).decode("latin-1"), rng,
                                           chr(rng.randint(0x80, 0xff))).encode("latin-1"),
    "nothing": lambda lines, rng: rng.choice([b"", b"\n", b"\n\n", b" \t \n"]),
}


def mutate_flags(model: str, flags: dict, rng: random.Random) -> str:
    """Set one flag to a foreign, zero, negative or extreme value; returns
    what was done."""
    own = cli._model_flags(cli.MODELS[model])
    foreign = sorted(set(cli._FLAG_TYPES) - set(own))
    if foreign and rng.random() < 0.25:
        flag = rng.choice(foreign)
        flags[flag] = "1" if cli._FLAG_TYPES[flag] is int else "0.5"
        return f"foreign --{flag}"
    flag = rng.choice(sorted(own) + ["iterations", "top_words", "seed"])
    kind = own[flag].type if flag in own else int
    pool = FLOATS if kind is float else SIZES if flag in SIZING else FREE_INTS
    flags[flag] = rng.choice(pool)
    return f"--{flag}={flags[flag]}"


def output_pattern(template: str) -> re.Pattern:
    return re.compile(re.escape(template).replace(re.escape("{k}"), r"\d+"))


def check_case(tmp_path, capsys, model: str, data: bytes, flags: dict, case: str) -> None:
    path = tmp_path / f"{case}.txt"
    path.write_bytes(data)
    out = tmp_path / case
    argv = ["fit", "--model", model, "--input", str(path), "--output-dir", str(out),
            *(f"{cli._option(flag)}={value}" for flag, value in flags.items())]
    what = f"{case}: {argv[7:]} on {data!r}"
    try:
        status = main(argv)
    except (Exception, SystemExit) as exc:  # escaped: a traceback or a usage error
        pytest.fail(f"{what}: raised {exc!r}")
    err = capsys.readouterr().err.splitlines()
    if status == 0:
        spec = cli.MODELS[model]
        files = sorted(out.iterdir())
        assert len(files) == len(spec.outputs), what
        for output in spec.outputs:
            [file] = [f for f in files if output_pattern(output.template).fullmatch(f.name)]
            PARSERS[output.writer](file)
        return
    assert status == 1, (what, err)
    assert [line for line in err if line.startswith("error:")] == err[-1:], (what, err)
    assert not any("Traceback" in line or ": iteration " in line for line in err), (what, err)
    assert not out.exists(), what


@pytest.mark.parametrize("model", sorted(cli.MODELS))
def test_fit_fails_cleanly_or_writes_files_that_parse(tmp_path, capsys, model):
    spec = cli.MODELS[model]
    rng = random.Random(f"fuzz {model}")
    for case in range(CASES_PER_MODEL):
        lines = valid_lines(spec.layout, rng)
        flags = valid_flags(model)
        done = []
        if rng.random() < 0.6:
            kind = rng.choice(sorted(INPUT_MUTATIONS))
            data = INPUT_MUTATIONS[kind](lines, rng)
            done.append(kind)
        else:
            data = encode(lines)
        if not done or rng.random() < 0.3:
            done.append(mutate_flags(model, flags, rng))
        check_case(tmp_path, capsys, model, data, flags, f"case{case} {' + '.join(done)}")
