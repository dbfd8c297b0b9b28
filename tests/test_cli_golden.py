"""Byte-identical CLI output on a fixed corpus, in both orientations.

`tests/data/cli_golden.json` holds the corpus documents and, for every
command run on them, the exact stdout, stderr, exit code and (for
`network --dot`) the written file.  The test replays every command and
compares bytes.  Re-record only when a change of output is intended:

    PYTHONPATH=src python tests/test_cli_golden.py

`tests/data/ggms_dot_dir.json` pins, the same way, the files that
`ggms sink5.rtm sink5.rtm --signs --dot-dir` writes; the same command
re-records it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from itertools import product
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
DOT_DIR_GOLDEN = Path(__file__).parent / "data" / "ggms_dot_dir.json"
DOT_DIR_ARGV = ["ggms", "sink5.rtm", "sink5.rtm", "--signs", "--dot-dir", "dots"]
PARTNER_OFFSET = 100_000
RANDOM_SEEDS = range(40)


def _text(t, orientation: str) -> str:
    """A document written without the library's formatter."""
    q = t.codomain.quiver
    lines = ["QUIVER"]
    lines += [f"vertex {v}" for v in sorted(q.vertices)]
    lines += [f"arrow {a} {q.source(a)} {q.target(a)}" for a in sorted(q.arrows)]
    lines.append("RELATIONS")
    lines += ["rel " + " ".join(r) for r in sorted(t.codomain.relations)]
    lines.append(f"TREE {orientation}")
    lines += [f"node {n} {t.vertex_label[n]}" for n in t.tree.vertices]
    lines += [
        f"arrow {a} {t.tree.arrow_source[a]} {t.tree.arrow_target[a]} {t.arrow_label[a]}"
        for a in sorted(t.tree.arrows)
    ]
    return "\n".join(lines) + "\n"


LOOP_TAIL = "QUIVER\nvertex 1\nvertex 2\narrow alpha 2 2\narrow beta 1 2\nRELATIONS\nrel alpha alpha\n"
TWO_LOOPS = "QUIVER\nvertex 1\narrow alpha 1 1\narrow beta 1 1\nRELATIONS\n" + "".join(
    "rel " + " ".join(w) + "\n" for w in product(("alpha", "beta"), repeat=3)
)
ONE_LOOP = "QUIVER\nvertex 1\narrow alpha 1 1\nRELATIONS\nrel alpha alpha\n"
SINK5_TREE = (
    "TREE SINK\nnode 1 2\nnode 2 2\nnode 3 1\nnode 4 2\nnode 5 1\n"
    "arrow a2 2 1 alpha\narrow a3 3 1 beta\narrow a4 4 1 alpha\narrow a5 5 2 beta\n"
)


def _source_example(labels) -> str:
    a2, a3, a4, a5 = labels
    return (
        TWO_LOOPS
        + "TREE SOURCE\nnode 1 1\nnode 2 1\nnode 3 1\nnode 4 1\nnode 5 1\n"
        + f"arrow a2 1 2 {a2}\narrow a3 1 3 {a3}\narrow a4 2 4 {a4}\narrow a5 3 5 {a5}\n"
    )


def _star(k: int, orientation: str) -> str:
    nodes = "".join(f"node {n} 1\n" for n in range(1, k + 2))
    ends = (lambda n: f"{n} 1") if orientation == "SINK" else (lambda n: f"1 {n}")
    arrows = "".join(f"arrow a{n} {ends(n)} alpha\n" for n in range(2, k + 2))
    return ONE_LOOP + f"TREE {orientation}\n" + nodes + arrows


def _pair_commands(a: str, b: str, prime: int = 3) -> list:
    p = [] if prime == 3 else ["-p", str(prime)]
    return [
        ["network", a, b],
        ["network", a, b, "--cover"],
        ["network", a, b, "--dot", "net.dot"],
        ["ggms", a, b] + p,
        ["ggms", a, b, "--signs"] + p,
        ["hom", a, b] + p,
    ]


def _single_commands(a: str, prime: int = 3) -> list:
    p = [] if prime == 3 else ["-p", str(prime)]
    return [["validate", a], ["indec", a] + p, ["decompose", a] + p]


def build_corpus() -> dict:
    """Group name -> (documents, commands)."""
    from rtmtools import random_instance
    from rtmtools.textio import parse_document

    groups: dict = {}

    sink5 = LOOP_TAIL + SINK5_TREE
    partner = random_instance(
        PARTNER_OFFSET, "sink", codomain=parse_document(sink5).bound_quiver
    )
    docs = {"sink5.rtm": sink5, "sink5-b.rtm": _text(partner, "SINK")}
    groups["sink-example"] = (
        docs,
        _single_commands("sink5.rtm")
        + _single_commands("sink5-b.rtm")
        + _pair_commands("sink5.rtm", "sink5.rtm")
        + _pair_commands("sink5.rtm", "sink5-b.rtm"),
    )

    labellings = list(product(("alpha", "beta"), repeat=4))
    docs = {f"src-{''.join(l[0] for l in ls)}.rtm": _source_example(ls) for ls in labellings}
    names = list(docs)
    commands = []
    for i, name in enumerate(names):
        commands += _single_commands(name)
        commands += _pair_commands(name, name)
        commands += [["network", name, names[(i + 1) % len(names)]], ["ggms", name, names[(i + 1) % len(names)]]]
    groups["source-examples"] = (docs, commands)

    for orientation in ("sink", "source"):
        docs, commands = {}, []
        for s in RANDOM_SEEDS:
            ta = random_instance(s, orientation)
            tb = random_instance(PARTNER_OFFSET + s, orientation, codomain=ta.codomain)
            a, b = f"r{s}.rtm", f"r{s}-b.rtm"
            docs[a], docs[b] = _text(ta, orientation.upper()), _text(tb, orientation.upper())
            prime = 5 if s % 2 else 3
            commands += _single_commands(a, prime) + _single_commands(b, prime)
            commands += _pair_commands(a, b, prime)
        groups[f"random-{orientation}"] = (docs, commands)

    docs, commands = {}, []
    for k, orientation in product((3, 4), ("SINK", "SOURCE")):
        name = f"star{k}-{orientation.lower()}.rtm"
        docs[name] = _star(k, orientation)
        commands += _single_commands(name) + _pair_commands(name, name)
    # the sign flips of star 4 would double the largest listing for no new code path
    commands.remove(["ggms", "star4-sink.rtm", "star4-sink.rtm", "--signs"])
    commands.remove(["ggms", "star4-source.rtm", "star4-source.rtm", "--signs"])
    groups["stars"] = (docs, commands)

    docs = {
        # alpha.alpha on the path 4 -> 2 -> 1 (sink) and 1 -> 2 -> 4 (source)
        "bad-sink-rel.rtm": LOOP_TAIL + SINK5_TREE.replace("node 5 1", "node 5 2").replace(
            "arrow a5 5 2 beta", "arrow a5 5 2 alpha"
        ).replace("arrow a4 4 1 alpha", "arrow a4 4 2 alpha"),
        "bad-source-rel.rtm": TWO_LOOPS
        + "TREE SOURCE\nnode 1 1\nnode 2 1\nnode 3 1\nnode 4 1\n"
        + "arrow a2 1 2 beta\narrow a3 2 3 alpha\narrow a4 3 4 beta\n",
        # beta labels a tree arrow whose ends lie over the wrong quiver vertices
        "bad-sink-square.rtm": LOOP_TAIL + SINK5_TREE.replace("arrow a2 2 1 alpha", "arrow a2 2 1 beta"),
        "bad-source-square.rtm": LOOP_TAIL
        + "TREE SOURCE\nnode 1 2\nnode 2 2\nnode 3 1\narrow a2 1 2 alpha\narrow a3 1 3 beta\n",
        "mixed-source.rtm": LOOP_TAIL + "TREE SOURCE\nnode 1 2\n",
    }
    commands = []
    for name in list(docs)[:4]:
        commands += _single_commands(name) + [["ggms", name, name], ["hom", name, name]]
    commands.append(["network", "sink5.rtm", "mixed-source.rtm"])
    docs["sink5.rtm"] = sink5
    groups["invalid"] = (docs, commands)
    return groups


def run_command(argv: list) -> dict:
    """Run one CLI command in the current directory and capture everything."""
    from rtmtools.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    result = {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if "--dot" in argv:
        dot = Path(argv[argv.index("--dot") + 1])
        result["dot"] = dot.read_text(encoding="utf-8")
        dot.unlink()
    return result


def _replay(directory: Path, docs: dict, commands: list) -> list:
    for name, text in docs.items():
        (directory / name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [run_command(argv) for argv in commands]
    finally:
        os.chdir(cwd)


def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "group", ["sink-example", "source-examples", "random-sink", "random-source", "stars", "invalid"]
)
def test_cli_output_is_byte_identical(group, tmp_path):
    recorded = _load()[group]
    runs = _replay(tmp_path, recorded["docs"], [r["argv"] for r in recorded["runs"]])
    for want, got in zip(recorded["runs"], runs):
        assert got == want, f"output of {' '.join(want['argv'])} changed"


def _dot_dir_run(directory: Path) -> dict:
    """The run of DOT_DIR_ARGV, with every file it wrote into its directory."""
    (run,) = _replay(directory, {"sink5.rtm": LOOP_TAIL + SINK5_TREE}, [DOT_DIR_ARGV])
    run["files"] = {f.name: f.read_text(encoding="utf-8") for f in sorted((directory / "dots").iterdir())}
    return run


def test_ggms_dot_dir_files_are_byte_identical(tmp_path):
    assert _dot_dir_run(tmp_path) == json.loads(DOT_DIR_GOLDEN.read_text(encoding="utf-8"))


def record() -> None:
    import tempfile

    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for group, (docs, commands) in build_corpus().items():
            golden[group] = {"docs": docs, "runs": _replay(Path(tmp), docs, commands)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        dot_dir = _dot_dir_run(Path(tmp))
    DOT_DIR_GOLDEN.write_text(json.dumps(dot_dir, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    runs = sum(len(g["runs"]) for g in golden.values())
    print(f"recorded {runs} runs in {len(golden)} groups to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
