"""Plain-text document format for one labelled tree over one bound quiver.

Three sections, each introduced by a header line that appears at most once::

    QUIVER
    vertex NAME
    arrow NAME SRC TGT
    RELATIONS
    rel A1 A2 ... Ak
    TREE SINK            (or: TREE SOURCE)
    node ID QVERTEX
    arrow NAME SRC TGT QARROW

Tokens are whitespace-separated and `#` starts a comment.  Relation words
are written in traversal order: the first arrow walked comes first (the
algebraic right-to-left composition is never used in files).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BoundQuiver, Quiver, StructureError
from .trees import RootedTree, TreeOverQ


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class InputDocument:
    bound_quiver: BoundQuiver
    tree: TreeOverQ
    quiver_tokens: tuple  # token stream of QUIVER + RELATIONS, for pair checks


def _tokenize(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line.split()))
    return out


def parse_document(text: str) -> InputDocument:
    """Parse one document into a bound quiver and a labelled tree."""
    section = None
    orientation = None
    q_vertices: list[str] = []
    q_arrows: list[tuple[str, str, str]] = []
    relations: list[tuple[str, ...]] = []
    t_nodes: list[tuple[int, str]] = []
    t_arrows: list[tuple[str, int, int, str]] = []
    quiver_tokens: list[str] = []
    headers_seen: set[str] = set()

    for lineno, tokens in _tokenize(text):
        head = tokens[0]
        if head in headers_seen:
            raise ParseError(lineno, f"repeated {head} header")
        if head == "QUIVER":
            if len(tokens) != 1:
                raise ParseError(lineno, "QUIVER header takes no arguments")
            section = "quiver"
            headers_seen.add(head)
            quiver_tokens += tokens
            continue
        if head == "RELATIONS":
            if len(tokens) != 1:
                raise ParseError(lineno, "RELATIONS header takes no arguments")
            section = "relations"
            headers_seen.add(head)
            quiver_tokens += tokens
            continue
        if head == "TREE":
            if len(tokens) != 2 or tokens[1] not in ("SINK", "SOURCE"):
                raise ParseError(lineno, "expected TREE SINK or TREE SOURCE")
            section = "tree"
            headers_seen.add(head)
            orientation = tokens[1].lower()
            continue
        if section == "quiver":
            if head == "vertex" and len(tokens) == 2:
                q_vertices.append(tokens[1])
            elif head == "arrow" and len(tokens) == 4:
                q_arrows.append((tokens[1], tokens[2], tokens[3]))
            else:
                raise ParseError(lineno, f"bad QUIVER line: {' '.join(tokens)}")
            quiver_tokens += tokens
        elif section == "relations":
            if head != "rel" or len(tokens) < 2:
                raise ParseError(lineno, f"bad RELATIONS line: {' '.join(tokens)}")
            if len(tokens) < 3:
                raise ParseError(lineno, "a relation needs at least two arrows")
            relations.append(tuple(tokens[1:]))
            quiver_tokens += tokens
        elif section == "tree":
            if head == "node" and len(tokens) == 3:
                try:
                    t_nodes.append((int(tokens[1]), tokens[2]))
                except ValueError:
                    raise ParseError(lineno, f"node id {tokens[1]!r} is not an integer")
            elif head == "arrow" and len(tokens) == 5:
                try:
                    t_arrows.append((tokens[1], int(tokens[2]), int(tokens[3]), tokens[4]))
                except ValueError:
                    raise ParseError(lineno, "tree arrow endpoints must be integers")
            else:
                raise ParseError(lineno, f"bad TREE line: {' '.join(tokens)}")
        else:
            raise ParseError(lineno, f"content before any section header: {' '.join(tokens)}")

    if section is None:
        raise ParseError(0, "empty document")
    if not q_vertices:
        raise ParseError(0, "no QUIVER vertices declared")
    if orientation is None:
        raise ParseError(0, "no TREE section")
    if not t_nodes:
        raise ParseError(0, "no tree nodes declared")

    try:
        quiver = Quiver(q_vertices, q_arrows)
        bq = BoundQuiver(quiver, relations)
        tree = RootedTree(
            [n for n, _ in t_nodes],
            [(name, src, tgt) for name, src, tgt, _ in t_arrows],
            orientation,
        )
        t = TreeOverQ(
            tree,
            bq,
            {n: q for n, q in t_nodes},
            {name: qarrow for name, _, _, qarrow in t_arrows},
        )
    except StructureError as exc:
        raise ParseError(0, str(exc)) from exc
    return InputDocument(bq, t, tuple(quiver_tokens))


def format_document(doc: InputDocument) -> str:
    """Canonical rendering; parsing it back gives a token-identical document."""
    bq, t = doc.bound_quiver, doc.tree
    q = bq.quiver
    lines = ["QUIVER"]
    for v in sorted(q.vertices):
        lines.append(f"vertex {v}")
    for a in sorted(q.arrows):
        lines.append(f"arrow {a} {q.source(a)} {q.target(a)}")
    lines.append("RELATIONS")
    for rel in sorted(bq.relations):
        lines.append("rel " + " ".join(rel))
    return "\n".join(lines) + "\n" + format_tree_section(t) + "\n"


def format_tree_section(t: TreeOverQ) -> str:
    """Just the TREE section, also used when printing decomposition summands."""
    lines = [f"TREE {t.orientation.upper()}"]
    for n in t.tree.vertices:
        lines.append(f"node {n} {t.vertex_label[n]}")
    for a in sorted(t.tree.arrows):
        lines.append(
            f"arrow {a} {t.tree.arrow_source[a]} {t.tree.arrow_target[a]} {t.arrow_label[a]}"
        )
    return "\n".join(lines)
