"""Document parsing, round-trips, and the command surface."""

import dataclasses
import functools
import sys
import time
from math import comb

import pytest

from rtmtools import cli, oracle, push_down, structure, validate_tree_over_q
from rtmtools.cli import main
from rtmtools.network import PullbackNetwork, to_dot, two_cover
from rtmtools.textio import ParseError, format_document, parse_document
from rtmtools.trees import ModuleHom, RootedTree

def test_parse_sink_document(sink_document):
    doc = parse_document(sink_document)
    assert doc.tree.orientation == "sink"
    assert doc.tree.tree.vertices == (1, 2, 3, 4, 5)
    assert doc.bound_quiver.relations == (("alpha", "alpha"),)


def test_round_trip_is_token_identical(sink_document):
    doc = parse_document(sink_document)
    printed = format_document(doc)
    again = format_document(parse_document(printed))
    assert printed.split() == again.split()
    assert printed == again


def test_short_relation_is_a_parse_error():
    bad = "QUIVER\nvertex 1\narrow alpha 1 1\nRELATIONS\nrel alpha\nTREE SINK\nnode 1 1\n"
    with pytest.raises(ParseError, match="two arrows"):
        parse_document(bad)


@pytest.mark.parametrize(
    "text, line",
    [
        ("QUIVER\nvertex 1\nTREE SINK\nnode 1 1\nQUIVER\nvertex 2\n", 5),
        ("QUIVER\nvertex 1\nRELATIONS\nRELATIONS\nTREE SINK\nnode 1 1\n", 4),
        ("QUIVER\nvertex 1\nTREE SINK\nnode 1 1\nTREE SOURCE\nnode 2 1\n", 5),
    ],
    ids=["QUIVER", "RELATIONS", "TREE"],
)
def test_repeated_section_header_is_a_parse_error(tmp_path, capsys, text, line):
    header = text.splitlines()[line - 1].split()[0]
    with pytest.raises(ParseError, match=f"^line {line}: repeated {header} header$"):
        parse_document(text)
    assert main(["validate", _write(tmp_path, "twice.rtm", text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: line {line}: repeated {header} header\n"


def test_unknown_name_is_a_parse_error():
    bad = "QUIVER\nvertex 1\nRELATIONS\nTREE SINK\nnode 1 2\n"
    with pytest.raises(ParseError):
        parse_document(bad)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cmd_validate_ok(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "good.rtm", sink_document)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "locally-bound check: ok" in out and "tree validation: ok" in out


def test_cmd_validate_parse_error(tmp_path, capsys):
    path = _write(tmp_path, "bad.rtm", "QUIVER\nvertex 1\nRELATIONS\nrel x\nTREE SINK\nnode 1 1\n")
    assert main(["validate", path]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cmd_validate_bound_failure(tmp_path, capsys, sink_document):
    # relabel a5 to alpha (and node 5 accordingly): the path through 5,2,1 dies
    bad = sink_document.replace("node 5 1", "node 5 2").replace("arrow a5 5 2 beta", "arrow a5 5 2 alpha")
    path = _write(tmp_path, "bad.rtm", bad)
    assert main(["validate", path]) == 1
    assert "relation ideal" in capsys.readouterr().out


def test_cmd_validate_unbounded_quiver(tmp_path, capsys):
    text = "QUIVER\nvertex 1\narrow alpha 1 1\nRELATIONS\nTREE SINK\nnode 1 1\n"
    path = _write(tmp_path, "loop.rtm", text)
    assert main(["validate", path]) == 1
    assert "relation-free cycle alpha" in capsys.readouterr().out
    # a cycle of two arrows came back holding None, and the report line ended in a TypeError
    text = "QUIVER\nvertex u\nvertex v\narrow a u v\narrow b v u\nTREE SINK\nnode 1 u\n"
    path = _write(tmp_path, "two-cycle.rtm", text)
    assert main(["validate", path]) == 1
    assert capsys.readouterr().out == "locally-bound check failed: relation-free cycle b a\n"


def test_cmd_network_report(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    assert main(["network", path, path]) == 0
    out = capsys.readouterr().out
    assert "vertices: 13" in out
    assert "roots: (1,1) (1,2) (1,4) (2,1) (4,1)" in out
    assert "triangles: 2" in out
    assert "maximal R[1]-free traversals: 13" in out


def test_cmd_network_cover_doubles_counts(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    assert main(["network", path, path, "--cover"]) == 0
    out = capsys.readouterr().out
    assert "vertices: 26" in out and "arrows: 16" in out and "edges: 6" in out


def test_cmd_network_writes_dot(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    dot_path = tmp_path / "net.dot"
    assert main(["network", path, path, "--dot", str(dot_path)]) == 0
    text = dot_path.read_text(encoding="utf-8")
    assert text.startswith("digraph") and '"2,2" -> "1,1"' in text


def test_cmd_network_cover_dot_writes_the_cover(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    dot_path = tmp_path / "cover.dot"
    assert main(["network", path, path, "--cover", "--dot", str(dot_path)]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == ["vertices: 26", "arrows: 16", "edges: 6"]
    net = PullbackNetwork(*(parse_document(sink_document).tree for _ in range(2)))
    assert dot_path.read_text(encoding="utf-8") == to_dot(two_cover(net))


def test_cmd_network_rejects_mixed_orientations(tmp_path, capsys, sink_document):
    p1 = _write(tmp_path, "sink.rtm", sink_document)
    # a single-vertex source document over the same quiver section
    src = sink_document.split("TREE SINK")[0] + "TREE SOURCE\nnode 1 2\n"
    p2 = _write(tmp_path, "source.rtm", src)
    assert main(["network", p1, p2]) == 1
    assert "mixed sink/source" in capsys.readouterr().err


def test_cmd_network_rejects_quiver_mismatch(tmp_path, capsys, sink_document):
    p1 = _write(tmp_path, "a.rtm", sink_document)
    p2 = _write(tmp_path, "b.rtm", sink_document.replace("rel alpha alpha", "rel alpha alpha # same"))
    assert main(["network", p1, p2]) == 0  # comments do not count as tokens
    p3 = _write(tmp_path, "c.rtm", sink_document.replace("vertex 1\n", "vertex 1\nvertex 3\n"))
    assert main(["network", p1, p3]) == 2
    assert "different QUIVER/RELATIONS" in capsys.readouterr().err


def test_cmd_ggms_listing(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    assert main(["ggms", path, path]) == 0
    out = capsys.readouterr().out
    assert "5 GGMs" in out
    assert "v4 -> v2 - v4" in out
    assert main(["ggms", path, path, "--signs"]) == 0
    assert "10 GGMs" in capsys.readouterr().out


def test_cmd_ggms_empty_pair(tmp_path, capsys):
    quiver = "QUIVER\nvertex 1\nvertex 2\narrow alpha 2 2\narrow beta 1 2\nRELATIONS\nrel alpha alpha\n"
    p1 = _write(tmp_path, "s1.rtm", quiver + "TREE SINK\nnode 1 1\n")
    p2 = _write(tmp_path, "s2.rtm", quiver + "TREE SINK\nnode 1 2\n")
    assert main(["ggms", p1, p2]) == 0
    assert "0 GGMs" in capsys.readouterr().out


def test_cmd_ggms_dot_dir(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    out_dir = tmp_path / "dots"
    assert main(["ggms", path, path, "--dot-dir", str(out_dir)]) == 0
    files = sorted(f.name for f in out_dir.iterdir())
    assert files == [f"ggm_{i:02d}.dot" for i in range(1, 6)]


def test_cmd_hom_agreement(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    assert main(["hom", path, path]) == 0
    assert "GGM span rank: 4; oracle dim: 4; AGREE" in capsys.readouterr().out


def test_cmd_indec_decomposable(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    assert main(["indec", path]) == 0
    out = capsys.readouterr().out
    assert "DECOMPOSABLE; certificate: siblings 4,2 under 1, label alpha" in out
    assert "oracle (p=3): DECOMPOSABLE" in out
    assert "verdict: AGREE" in out


def test_cmd_indec_indecomposable_source(tmp_path, capsys, source_document_factory):
    path = _write(tmp_path, "m.rtm", source_document_factory("alpha", "beta", "alpha", "beta"))
    assert main(["indec", path]) == 0
    out = capsys.readouterr().out
    assert "theorem: INDECOMPOSABLE" in out and "verdict: AGREE" in out


def test_cmd_indec_oracle_cap(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    assert main(["indec", path, "--cap", "10"]) == 3
    assert "oracle unavailable" in capsys.readouterr().out


def test_cmd_decompose(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    assert main(["decompose", path]) == 0
    out = capsys.readouterr().out
    assert "2 indecomposable summands" in out
    assert "SUMMAND 1 (dim 4)" in out and "SUMMAND 2 (dim 1)" in out
    assert "node 4 2" in out  # the simple summand sits at quiver vertex 2
    assert "witness: OK" in out


def _star_document(k, orientation, root=1):
    nodes = "".join(f"node {n} 1\n" for n in range(1, k + 2))
    arrows = "".join(
        f"arrow a{n} {n} {root} alpha\n" if orientation == "SINK" else f"arrow a{n} {root} {n} alpha\n"
        for n in range(1, k + 2)
        if n != root
    )
    return "QUIVER\nvertex 1\narrow alpha 1 1\nRELATIONS\nrel alpha alpha\n" + f"TREE {orientation}\n" + nodes + arrows


def _count_decompose_calls(monkeypatch):
    """Count, by argument, the checked certificates (one per split), the `oracle.verify_iso` calls, the
    `push_down`s, the `IdempotentEndo`s, the `RootedTree`s built and the `restrict` calls."""
    calls = {"split": [], "verify_iso": [], "push_down": [], "endo": [], "tree": [], "restrict": []}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(structure, "_checked_moves", counting("split", structure._checked_moves))
    monkeypatch.setattr(structure, "restrict", counting("restrict", structure.restrict))
    monkeypatch.setattr(oracle, "verify_iso", counting("verify_iso", oracle.verify_iso))
    monkeypatch.setattr(structure.IdempotentEndo, "__init__", counting("endo", structure.IdempotentEndo.__init__))
    monkeypatch.setattr(RootedTree, "__init__", counting("tree", RootedTree.__init__))
    for name, module in list(sys.modules.items()):
        if name.startswith("rtmtools"):
            for key, value in list(vars(module).items()):
                if value is push_down:
                    monkeypatch.setattr(module, key, counting("push_down", push_down))
    return calls


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("orientation", ["SINK", "SOURCE"])
def test_cmd_decompose_splits_once_per_extra_summand(tmp_path, capsys, monkeypatch, k, orientation):
    calls = _count_decompose_calls(monkeypatch)
    path = _write(tmp_path, "star.rtm", _star_document(k, orientation))
    assert main(["decompose", path]) == 0
    out = capsys.readouterr().out
    assert f"{k} indecomposable summands" in out
    assert len(calls["split"]) == k - 1  # summands - 1: every split adds exactly one summand here
    # one check of the composed witness, and only the input tree's module is built
    assert len(calls["verify_iso"]) == 1
    assert [args[0].tree.vertices for args in calls["push_down"]] == [tuple(range(1, k + 2))]
    assert calls["endo"] == []  # each split goes along its sibling certificate, not a whole-piece idempotent
    # each split cuts a branch from a view of the parsed tree, so only the final pieces become trees:
    # the root keeps the last leaf, and the other leaves come off in the order of the stack
    pieces = [(1, k + 1)] + [(n,) for n in range(k, 1, -1)]
    assert [args[1] for args in calls["restrict"]] == pieces
    assert len(calls["tree"]) == 1 + len(pieces)  # the parsed tree, then one per final piece
    assert out.endswith("witness: OK\n")


@pytest.mark.parametrize("orientation", ["SINK", "SOURCE"])
def test_cmd_decompose_star_400_checks_one_composed_witness(tmp_path, capsys, monkeypatch, orientation):
    calls = _count_decompose_calls(monkeypatch)
    path = _write(tmp_path, "star400.rtm", _star_document(400, orientation))
    assert main(["decompose", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "400 indecomposable summands" and lines[-1] == "witness: OK"
    assert (len(calls["split"]), len(calls["verify_iso"]), len(calls["push_down"]), len(calls["endo"])) == (399, 1, 1, 0)


def _corrupt_certificates(monkeypatch):
    """Make every sibling certificate's witness send its top vertex to itself."""
    first = structure.first_certificate

    def corrupted(*args):
        cert = first(*args)
        if cert is None:
            return None
        w = cert[-1]
        return cert[:-1] + (dataclasses.replace(w, vertex_map={**w.vertex_map, w.domain_root: w.domain_root}),)

    monkeypatch.setattr(structure, "first_certificate", corrupted)


@pytest.mark.parametrize("fault", ["verify_iso", "certificate"])
@pytest.mark.parametrize("orientation", ["SINK", "SOURCE"])
def test_cmd_decompose_exits_4_when_its_own_check_fails(tmp_path, capsys, monkeypatch, orientation, fault):
    if fault == "verify_iso":
        monkeypatch.setattr(oracle, "verify_iso", lambda witness: False)
    else:
        _corrupt_certificates(monkeypatch)
    path = _write(tmp_path, "star5.rtm", _star_document(5, orientation))
    assert main(["decompose", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "split witness failed verification" if fault == "verify_iso" else "sibling certificate failed its check"
    assert captured.err == f"decomposition check failed: {reason}\n"
    with pytest.raises(AssertionError, match=reason):  # the library keeps raising
        structure.decompose_fully(parse_document(_star_document(5, orientation)).tree)


@pytest.mark.parametrize("orientation", ["SINK", "SOURCE"])
@pytest.mark.parametrize("prime", ["4294967311", "1000000000000000003"])
def test_cmd_hom_rejects_primes_beyond_the_int64_bound(tmp_path, capsys, orientation, prime):
    # 4294967311 used to overflow in rref and report a false DISAGREE (exit 4);
    # 1000000000000000003 used to hang in the trial-division primality test.
    path = _write(tmp_path, "star3.rtm", _star_document(3, orientation))
    start = time.perf_counter()
    assert main(["hom", path, path, "-p", prime]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert "DISAGREE" not in captured.out
    assert "p < 2**24" in captured.err


def test_cmd_decompose_indecomposable_input(tmp_path, capsys, source_document_factory):
    path = _write(tmp_path, "m.rtm", source_document_factory("alpha", "beta", "alpha", "beta"))
    assert main(["decompose", path]) == 0
    assert "INDECOMPOSABLE: nothing to split" in capsys.readouterr().out


def test_pair_commands_on_source_documents(tmp_path, capsys, source_document_factory):
    path = _write(tmp_path, "s.rtm", source_document_factory("alpha", "alpha", "beta", "beta"))
    assert main(["network", path, path]) == 0
    out = capsys.readouterr().out
    assert "vertices: 25" in out  # single quiver vertex pairs everything
    assert main(["hom", path, path]) == 0
    assert "AGREE" in capsys.readouterr().out
    assert main(["ggms", path, path]) == 0
    assert "GGMs" in capsys.readouterr().out
    assert main(["indec", path]) == 0
    assert "DECOMPOSABLE" in capsys.readouterr().out


def test_reports_are_deterministic(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    main(["network", path, path])
    first = capsys.readouterr().out
    main(["network", path, path])
    assert capsys.readouterr().out == first


# The tree arrow x4 runs between two vertices labelled 1 but carries
# `a: 1 -> 2`, so the pullback parent (1, 3) of the pair (2, 4) mixes the
# vertex labels 2 and 1.
NONCOMMUTING_SINK = (
    "QUIVER\nvertex 1\nvertex 2\narrow a 1 2\nRELATIONS\n"
    "TREE SINK\nnode 1 2\nnode 2 1\nnode 3 1\nnode 4 1\n"
    "arrow x2 2 1 a\narrow x3 3 1 a\narrow x4 4 3 a\n"
)


@pytest.mark.parametrize(
    "argv",
    [["network"], ["network", "--cover"], ["ggms"], ["hom"], ["indec"], ["decompose"]],
    ids=lambda argv: " ".join(argv),
)
def test_invalid_tree_fails_before_any_output(tmp_path, capsys, argv):
    path = _write(tmp_path, "bad.rtm", NONCOMMUTING_SINK)
    files = [path, path] if argv[0] in ("network", "ggms", "hom") else [path]
    assert main(argv[:1] + files + argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: invalid labelled tree: labels do not commute at tree arrow 'x4'\n"


@pytest.mark.parametrize("prime", ["4", "4294967311"])
def test_cmd_decompose_checks_the_prime_of_an_indecomposable_tree(tmp_path, capsys, prime):
    # an indecomposable tree is never split, but decompose_fully still checks the prime first
    path = _write(tmp_path, "one.rtm", _star_document(0, "SINK"))
    assert main(["decompose", path, "-p", prime]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and prime in captured.err


def test_pullback_network_names_the_missing_parent_pair():
    t = parse_document(NONCOMMUTING_SINK).tree
    with pytest.raises(ValueError, match=r"pullback parent \(1, 3\) of pair \(2, 4\)"):
        PullbackNetwork(t, t)


def _twin_chain_document(n, orientation):
    """Two same-labelled chains of length n under one root, over A_(n+1)."""
    ends = (lambda i: (i, i - 1)) if orientation == "SINK" else (lambda i: (i - 1, i))
    lines = ["QUIVER"] + [f"vertex q{i}" for i in range(n + 1)]
    lines += ["arrow b{} q{} q{}".format(i, *ends(i)) for i in range(1, n + 1)]
    lines += ["RELATIONS", f"TREE {orientation}", "node 1 q0"]
    for first in (2, n + 2):
        for depth in range(1, n + 1):
            v = first + depth - 1
            up = 1 if depth == 1 else v - 1
            src, tgt = (v, up) if orientation == "SINK" else (up, v)
            lines += [f"node {v} q{depth}", f"arrow x{v} {src} {tgt} b{depth}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("orientation", ["SINK", "SOURCE"])
def test_cmd_decompose_deep_twin_chain(tmp_path, capsys, orientation):
    # 1,200 levels used to overflow Python's recursion limit in structure.embeds
    path = _write(tmp_path, "twin.rtm", _twin_chain_document(1200, orientation))
    assert main(["decompose", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 indecomposable summands\nSUMMAND 1 (dim 1201)\n")
    assert "SUMMAND 2 (dim 1200)\n" in out
    assert out.endswith("witness: OK\n")


@pytest.mark.parametrize("orientation", ["SINK", "SOURCE"])
def test_cmd_hom_deep_twin_chain(tmp_path, capsys, orientation):
    # 600 levels used to overflow Python's recursion limit in the GGM closure search
    path = _write(tmp_path, "twin.rtm", _twin_chain_document(600, orientation))
    start = time.perf_counter()
    assert main(["hom", path, path]) == 0
    assert time.perf_counter() - start < 10.0
    captured = capsys.readouterr()
    assert captured.out == "GGM span rank: 3; oracle dim: 3; AGREE\n"
    assert captured.err == ""


@pytest.mark.parametrize("k", [2, 3, 5, 10, 20, 30])
@pytest.mark.parametrize("orientation", ["SINK", "SOURCE"])
def test_cmd_network_counts_stars_from_the_forest(tmp_path, capsys, orientation, k):
    # star 30 used to list its 138,910 triangles and walk a step graph: 5 s and 200 MB, with --cover
    path = _write(tmp_path, "star.rtm", _star_document(k, orientation))
    census = comb(k * k, 2) + comb(k + 1, 2)
    start = time.perf_counter()
    assert main(["network", path, path]) == 0
    base = capsys.readouterr().out.splitlines()
    assert main(["network", path, path, "--cover"]) == 0
    cover = capsys.readouterr().out.splitlines()
    assert time.perf_counter() - start < 2.0
    assert base[-2:] == [f"triangles: {(k + 1) * comb(k, 3) + k * comb(k, 2)}", f"maximal R[1]-free traversals: {census}"]
    assert cover[-1] == f"maximal R[2]-free traversals: {2 * census}"


@pytest.mark.parametrize("n", [600, 2000])
@pytest.mark.parametrize("cover", [False, True])
@pytest.mark.parametrize("orientation", ["SINK", "SOURCE"])
def test_cmd_network_deep_twin_chain(tmp_path, capsys, orientation, cover, n):
    # 600 levels used to overflow Python's recursion limit in the traversal census
    path = _write(tmp_path, "twin.rtm", _twin_chain_document(n, orientation))
    start = time.perf_counter()
    assert main(["network", path, path] + ["--cover"] * cover) == 0
    assert time.perf_counter() - start < 10.0
    captured = capsys.readouterr()
    census = "maximal R[2]-free traversals: 12" if cover else "maximal R[1]-free traversals: 6"
    assert captured.out.endswith(census + "\n")
    assert captured.err == ""


@pytest.mark.parametrize("orientation", ["SINK", "SOURCE"])
def test_cmd_indec_deep_twin_chain(tmp_path, capsys, orientation):
    # 1,200 levels took 17-21 s in the dense elimination of the Hom system
    path = _write(tmp_path, "twin.rtm", _twin_chain_document(1200, orientation))
    start = time.perf_counter()
    assert main(["indec", path]) == 0
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert captured.out.endswith("verdict: AGREE\n")
    assert captured.err == ""


@pytest.mark.parametrize("orientation", ["SINK", "SOURCE"])
def test_cmd_indec_on_a_large_star_reads_only_the_dimension(tmp_path, capsys, orientation):
    # star 120 used to allocate a dense 14,641**2 int64 Hom system (1.7 GB)
    path = _write(tmp_path, "star.rtm", _star_document(120, orientation))
    start = time.perf_counter()
    assert main(["indec", path]) == 3
    assert time.perf_counter() - start < 10.0
    captured = capsys.readouterr()
    assert "3**14401 candidates > cap 10000000" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("orientation", ["SINK", "SOURCE"])
def test_cmd_validate_on_a_wide_star(tmp_path, capsys, orientation):
    # star 100,000 took about 20 s while each child tuple grew by concatenation
    path = _write(tmp_path, "star.rtm", _star_document(100_000, orientation))
    start = time.perf_counter()
    assert main(["validate", path]) == 0
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr().out == "locally-bound check: ok\ntree validation: ok\n"


def _record_maps_and_back_substitutions(monkeypatch) -> tuple[list, list]:
    """Lists that fill with every `ModuleHom` built and every `_gauss_jordan` call that substitutes back."""
    built, substituted = [], []
    init, gauss_jordan = ModuleHom.__init__, oracle._gauss_jordan

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_gauss_jordan(rows, p, reduced=True):
        if reduced:
            substituted.append(len(rows))
        return gauss_jordan(rows, p, reduced)

    monkeypatch.setattr(ModuleHom, "__init__", counting_init)
    monkeypatch.setattr(oracle, "_gauss_jordan", counting_gauss_jordan)
    return built, substituted


@pytest.mark.parametrize("argv", [["hom"], ["indec", "--cap", "10"]], ids=" ".join)
def test_commands_that_read_only_the_hom_dimension_build_no_map(tmp_path, capsys, monkeypatch, sink_document, argv):
    built, substituted = _record_maps_and_back_substitutions(monkeypatch)
    path = _write(tmp_path, "m.rtm", sink_document)
    files = [path, path] if argv[0] == "hom" else [path]
    assert main(argv[:1] + files + argv[1:]) == (0 if argv[0] == "hom" else 3)
    assert "oracle" in capsys.readouterr().out
    assert built == [] and substituted == []


def test_indec_under_the_cap_builds_no_map_but_its_witness(tmp_path, capsys, monkeypatch, sink_document):
    # The scan reads the basis as the rows of the solve, not as maps.
    built, _ = _record_maps_and_back_substitutions(monkeypatch)
    path = _write(tmp_path, "m.rtm", sink_document)
    assert main(["indec", path]) == 0
    assert "oracle (p=3): DECOMPOSABLE" in capsys.readouterr().out
    assert len(built) <= 1


def test_cmd_hom_pushes_each_tree_down_once(tmp_path, capsys, monkeypatch, sink_document):
    calls = []

    def counting_push_down(tree, prime=3):
        calls.append(tree)
        return push_down(tree, prime)

    for name, module in list(sys.modules.items()):
        if name.startswith("rtmtools"):
            for key, value in list(vars(module).items()):
                if value is push_down:
                    monkeypatch.setattr(module, key, counting_push_down)
    path = _write(tmp_path, "m.rtm", sink_document)
    assert main(["hom", path, path]) == 0
    assert "AGREE" in capsys.readouterr().out
    assert len(calls) == 2


@pytest.mark.parametrize("orientation", ["SINK", "SOURCE"])
def test_cmd_decompose_validates_the_tree_once(tmp_path, capsys, monkeypatch, orientation):
    # Summands are restrictions of the validated tree: no split validates them again.
    calls = []

    def counting_validate(tree):
        calls.append(tree)
        return validate_tree_over_q(tree)

    for name, module in list(sys.modules.items()):
        if name.startswith("rtmtools"):
            for key, value in list(vars(module).items()):
                if value is validate_tree_over_q:
                    monkeypatch.setattr(module, key, counting_validate)
    path = _write(tmp_path, "star.rtm", _star_document(4, orientation))
    assert main(["decompose", path]) == 0
    assert "4 indecomposable summands" in capsys.readouterr().out
    assert len(calls) == 1


def test_cmd_validate_of_a_directory_cannot_read_input(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("cannot read input: [Errno 21] Is a directory")


def test_cmd_hom_of_a_directory_cannot_read_input(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    assert main(["hom", path, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("cannot read input: [Errno 21] Is a directory")


def test_cmd_ggms_dot_dir_on_a_file_fails_before_the_listing(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    assert main(["ggms", path, path, "--dot-dir", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("cannot write output: [Errno 17] File exists")


def test_cmd_network_dot_on_a_directory_fails_before_the_report(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    assert main(["network", path, path, "--dot", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("cannot write output: [Errno 21] Is a directory")


def test_cmd_network_dot_in_a_missing_directory_cannot_write_output(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    assert main(["network", path, path, "--dot", str(tmp_path / "missing" / "x.dot")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("cannot write output: [Errno 2] No such file or directory")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["validate", "hom"])
def test_input_that_is_not_utf8_cannot_be_read(tmp_path, capsys, sink_document, command):
    good = _write(tmp_path, "m.rtm", sink_document)
    bad = tmp_path / "bin.rtm"
    bad.write_bytes(b"\xff\xfe" + sink_document.encode("utf-16-le"))
    argv = [command, str(bad)] if command == "validate" else [command, good, str(bad)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot read input: 'utf-8' codec can't decode byte 0xff in position 0")


@pytest.mark.parametrize("k, dim", [(7, 50), (8, 65)])
@pytest.mark.parametrize("orientation", ["SINK", "SOURCE"])
@pytest.mark.parametrize("root", ["first", "last"])
def test_cmd_hom_on_large_stars_stops_at_the_oracle_dimension(tmp_path, capsys, k, dim, orientation, root):
    # star 7 used to enumerate all 823,676 graph maps (111 s, 2.5 GB); star 8 gave no answer in 15 min.
    # The seed order must not rest on vertex ids: the root takes the least id, then the greatest.
    document = _star_document(k, orientation, root=1 if root == "first" else k + 1)
    path = _write(tmp_path, "star.rtm", document)
    start = time.perf_counter()
    assert main(["hom", path, path]) == 0
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert captured.out == f"GGM span rank: {dim}; oracle dim: {dim}; AGREE\n"
    assert captured.err == ""


def test_cmd_ggms_writes_every_dot_file_before_the_listing(tmp_path, capsys, sink_document):
    path = _write(tmp_path, "m.rtm", sink_document)
    (tmp_path / "dots" / "ggm_03.dot").mkdir(parents=True)  # the third file cannot be written
    assert main(["ggms", path, path, "--dot-dir", str(tmp_path / "dots")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("cannot write output: [Errno 21] Is a directory")


def _counted_parser(monkeypatch):
    """Start `main` from an empty parser cache and count the parsers it builds."""
    built, build = [], cli.build_parser

    def counting_build_parser():
        built.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
    return built


def test_main_builds_its_parser_once_per_process(tmp_path, capsys, monkeypatch, sink_document):
    built = _counted_parser(monkeypatch)
    path = _write(tmp_path, "m.rtm", sink_document)
    argvs = [["validate", path], ["network", path, path], ["network", path, path, "--cover"], ["hom", path, path]]
    argvs += [["ggms", path, path], ["indec", path, "--cap", "10"], ["decompose", path, "-p", "5"]]
    first = {}
    for i in range(20):
        argv = argvs[i % len(argvs)]
        code = main(argv)
        out = capsys.readouterr().out
        assert first.setdefault(" ".join(argv), (code, out)) == (code, out)
    assert len(built) == 1
    assert cli.build_parser() is not cli.build_parser()


def test_rejected_arguments_leave_the_shared_parser_intact(tmp_path, capsys, monkeypatch, sink_document):
    built = _counted_parser(monkeypatch)
    path = _write(tmp_path, "m.rtm", sink_document)
    assert main(["hom", path, path]) == 0
    reference = capsys.readouterr().out
    for argv, code in [
        (["indec", path, "-p", "x"], 2),
        (["indec", path, "--cap", "y"], 2),
        ([], 2),
        (["frobnicate", path], 2),
        (["--help"], 0),
        (["hom", "--help"], 0),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        captured = capsys.readouterr()
        assert (captured.out if code == 0 else captured.err).startswith("usage: rtmtools")
        assert main(["hom", path, path]) == 0
        assert capsys.readouterr().out == reference
    assert len(built) == 1
