"""Command-line surface.

Exit codes: 0 ok, 1 validation failure or an output that cannot be
written, 2 parse error or an input that cannot be read, 3 oracle
unavailable, 4 disagreement between the combinatorial decision and the
oracle, or a split or a certificate that fails its own check (a defect).
Every output file or directory is prepared before the first line of stdout.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import groupby
from math import comb
from pathlib import Path

from . import ggm as ggm_mod
from . import oracle, structure
from .algebra import check_locally_bound
from .network import PullbackNetwork, maximal_r_free_traversals, to_dot, two_cover
from .textio import InputDocument, ParseError, format_tree_section, parse_document
from .trees import push_down, require_valid, validate_tree_over_q

OK, VALIDATION_FAILURE, PARSE_ERROR, ORACLE_UNAVAILABLE, DISAGREEMENT = 0, 1, 2, 3, 4


class _Unreadable(Exception):
    """An input file could not be read or is not UTF-8; carries the cause."""


def _load(path: str) -> InputDocument:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except (OSError, UnicodeDecodeError) as exc:
        raise _Unreadable(exc) from exc
    return parse_document(text)


def _load_pair(path1: str, path2: str) -> tuple[InputDocument, InputDocument]:
    d1, d2 = _load(path1), _load(path2)
    if d1.quiver_tokens != d2.quiver_tokens:
        raise ParseError(0, "the two documents carry different QUIVER/RELATIONS sections")
    return d1, d2


def cmd_validate(args) -> int:
    doc = _load(args.file)
    bound = check_locally_bound(doc.bound_quiver)
    if not bound.ok:
        print(f"locally-bound check failed: relation-free cycle {' '.join(bound.cycle)}")
        return VALIDATION_FAILURE
    print("locally-bound check: ok")
    report = validate_tree_over_q(doc.tree)
    if not report.ok:
        print(f"tree validation failed: {report.message}; witness {report.witness}")
        return VALIDATION_FAILURE
    print("tree validation: ok")
    return OK


def _network_report(net: PullbackNetwork, cover: bool) -> None:
    """The report on the network or, with `cover`, on its double cover, whose counts are twice the network's."""
    census = maximal_r_free_traversals(net)
    sheets = 2 if cover else 1
    print(f"vertices: {sheets * len(net.vertices)}")
    print(f"arrows: {sheets * len(net.arrows)}")
    print(f"edges: {sheets * sum(comb(len(c), 2) for c in net.edge_classes)}")  # counted, not listed
    if cover:  # every traversal lifts to exactly two of the cover (see maximal_r_free_traversals)
        print(f"maximal R[2]-free traversals: {2 * census}")
    else:
        roots = " ".join(f"({n},{m})" for n, m in sorted(net.forest_roots))
        print(f"roots: {roots}")
        print(f"triangles: {net.triangle_count}")
        print(f"maximal R[1]-free traversals: {census}")


def cmd_network(args) -> int:
    d1, d2 = _load_pair(args.file1, args.file2)
    if d1.tree.orientation != d2.tree.orientation:
        print(
            "refusing the mixed sink/source case: the pairing network is only "
            "defined when both trees share an orientation",
            file=sys.stderr,
        )
        return VALIDATION_FAILURE
    require_valid(d1.tree)
    require_valid(d2.tree)
    net = PullbackNetwork(d1.tree, d2.tree)
    if args.dot:
        Path(args.dot).write_text(to_dot(two_cover(net) if args.cover else net), encoding="utf-8")
    _network_report(net, args.cover)
    if args.dot:
        print(f"dot written to {args.dot}")
    return OK


def cmd_ggms(args) -> int:
    d1, d2 = _load_pair(args.file1, args.file2)
    for doc in (d1, d2):
        push_down(doc.tree, args.prime)  # checks the tree and -p before any output
    ggms = ggm_mod.enumerate_ggms(d1.tree, d2.tree, with_signs=args.signs)
    if args.dot_dir:
        Path(args.dot_dir).mkdir(parents=True, exist_ok=True)
        for i, g in enumerate(ggms, start=1):
            (Path(args.dot_dir) / f"ggm_{i:02d}.dot").write_text(to_dot(g, name=f"ggm_{i}"), encoding="utf-8")
    # each signed pair's token and each induced line, v_n sent to the signed sum of its partners v_m, formatted once
    token = functools.cache(lambda v: f"({v[0]},{v[1]},{'+' if v[2] > 0 else '-'})")

    @functools.cache
    def induced(partners: tuple) -> str:
        text = " ".join(f"{'+' if s > 0 else '-'} v{m}" for _, m, s in partners)
        return f"  v{partners[0][0]} -> {text[2:] if text[0] == '+' else '-' + text[2:]}"

    print(f"{len(ggms)} GGMs")
    for i, g in enumerate(ggms, start=1):  # written map by map: the listing is never held whole
        lines = [induced(tuple(partners)) for _, partners in groupby(g.pairs, key=lambda v: v[0])]
        print(f"GGM {i}: " + " ".join(map(token, g.pairs)), *lines, sep="\n")
    return OK


def cmd_hom(args) -> int:
    d1, d2 = _load_pair(args.file1, args.file2)
    m1, m2 = push_down(d1.tree, args.prime), push_down(d2.tree, args.prime)
    dim = oracle.hom_space(m1, m2).dimension
    _, rank = ggm_mod.hom_span(d1.tree, d2.tree, m1, m2, target=dim)
    verdict = "AGREE" if rank == dim else "DISAGREE"
    print(f"GGM span rank: {rank}; oracle dim: {dim}; {verdict}")
    return OK if verdict == "AGREE" else DISAGREEMENT


def cmd_indec(args) -> int:
    doc = _load(args.file)
    t = doc.tree
    rep = push_down(t, args.prime)
    cert = structure.first_certificate(t)
    if cert is not None:  # the certificate's idempotent, checked exactly: no Hom solve, no local-End test
        parent, n1, n2, witness = cert
        try:
            if not oracle.verify_idempotent(structure.module_idempotent(t, witness.vertex_map, rep)):
                raise AssertionError("the certificate's idempotent failed verification")
        except AssertionError as exc:
            print(f"idempotent check failed: {exc}", file=sys.stderr)
            return DISAGREEMENT
        print(f"theorem: DECOMPOSABLE; certificate: siblings {n1},{n2} under {parent}, label {t.child_label(n1)}")
        print(f"oracle (p={args.prime}): DECOMPOSABLE")
        print("verdict: AGREE")
        return OK
    print("theorem: INDECOMPOSABLE")
    search = oracle.has_nontrivial_idempotent(oracle.hom_space(rep, rep))
    if not search.available:
        print(f"oracle unavailable: {search.reason}")
        return ORACLE_UNAVAILABLE
    found = search.status == "found"
    print(f"oracle (p={args.prime}): {'DECOMPOSABLE' if found else 'INDECOMPOSABLE'}")
    print(f"verdict: {'DISAGREE' if found else 'AGREE'}")
    return DISAGREEMENT if found else OK


def cmd_decompose(args) -> int:
    doc = _load(args.file)
    try:
        pieces = structure.decompose_fully(doc.tree, args.prime)  # validates before any output
    except AssertionError as exc:  # a split certificate or the composed witness failed its own check
        print(f"decomposition check failed: {exc}", file=sys.stderr)
        return DISAGREEMENT
    if len(pieces) == 1:
        print("INDECOMPOSABLE: nothing to split")
        print(format_tree_section(doc.tree))
        return OK
    print(f"{len(pieces)} indecomposable summands")
    for i, piece in enumerate(pieces, start=1):
        print(f"SUMMAND {i} (dim {len(piece.tree.vertices)})")
        print(format_tree_section(piece))
    # decompose_fully checked one composed witness isomorphism between the direct sum of `pieces` and the module, or raised
    print("witness: OK")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtmtools",
        description="Rooted tree modules over zero-relation algebras: validate, "
        "enumerate graph maps, decide indecomposability, decompose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pair_help = "two documents with token-identical QUIVER/RELATIONS sections"

    p = sub.add_parser("validate", help="parse and validate one document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("network", help="pairing-network census for two documents")
    p.add_argument("file1")
    p.add_argument("file2", help=pair_help)
    p.add_argument("--dot", help="write the network in graphviz format")
    p.add_argument("--cover", action="store_true", help="report the signed double cover")
    p.set_defaults(func=cmd_network)

    p = sub.add_parser("ggms", help="enumerate generalized graph maps")
    p.add_argument("file1")
    p.add_argument("file2", help=pair_help)
    p.add_argument("-p", "--prime", type=int, default=3)
    p.add_argument("--signs", action="store_true", help="also list the sign flips")
    p.add_argument("--dot-dir", help="write one graphviz file per graph map")
    p.set_defaults(func=cmd_ggms)

    p = sub.add_parser("hom", help="graph-map span rank vs oracle Hom dimension")
    p.add_argument("file1")
    p.add_argument("file2", help=pair_help)
    p.add_argument("-p", "--prime", type=int, default=3)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("indec", help="indecomposability, cross-checked by the oracle")
    p.add_argument("file")
    p.add_argument("-p", "--prime", type=int, default=3)
    p.set_defaults(func=cmd_indec)

    p = sub.add_parser("decompose", help="split into indecomposable summands")
    p.add_argument("file")
    p.add_argument("-p", "--prime", type=int, default=3)
    p.set_defaults(func=cmd_decompose)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` builds on first use and reuses: `parse_args` leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; may be called repeatedly in one process."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except _Unreadable as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except OSError as exc:  # reads raise _Unreadable, so this is a --dot file, a --dot-dir or stdout
        print(f"cannot write output: {exc}", file=sys.stderr)
        return VALIDATION_FAILURE
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return VALIDATION_FAILURE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
