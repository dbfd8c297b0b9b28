"""Finite quivers bound by monomial (zero) relations.

A bound quiver is a finite quiver together with a set of relations, each a
composable path of length >= 2.  The quotient of the path algebra by the
ideal these relations generate is a zero-relation algebra.  Because the
ideal is generated by paths, membership of a path in the ideal is exactly a
contiguous-subword test on arrow sequences, and "only finitely many
relation-free paths exist" can be decided by a forbidden-subword automaton.

Conventions: arrow sequences are stored in traversal order, i.e. the first
arrow walked comes first.  Algebraic composition (right-to-left) is never
exposed; callers compose by concatenating traversal words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class StructureError(ValueError):
    """Malformed quiver data: duplicate names, unknown endpoints, bad relations."""


@dataclass(frozen=True)
class Path:
    """A composable arrow sequence; a zero-length path is a single vertex."""

    source: str
    target: str
    arrows: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.arrows)


class Quiver:
    """A finite quiver: named vertices and named arrows with endpoints."""

    def __init__(self, vertices: Iterable[str], arrows: Iterable[tuple[str, str, str]]):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise StructureError("duplicate vertex names")
        vertex_set = set(self.vertices)
        self.arrow_source: dict[str, str] = {}
        self.arrow_target: dict[str, str] = {}
        for name, src, tgt in arrows:
            if name in self.arrow_source:
                raise StructureError(f"duplicate arrow name {name!r}")
            if src not in vertex_set or tgt not in vertex_set:
                raise StructureError(f"arrow {name!r} has undeclared endpoint")
            self.arrow_source[name] = src
            self.arrow_target[name] = tgt
        self.arrows = tuple(self.arrow_source)
        self.vertex_set = frozenset(self.vertices)
        arrows_from: dict[str, list[str]] = {v: [] for v in self.vertices}
        for name in sorted(self.arrows):
            arrows_from[self.arrow_source[name]].append(name)
        self._arrows_from = {v: tuple(names) for v, names in arrows_from.items()}

    def source(self, arrow: str) -> str:
        return self.arrow_source[arrow]

    def target(self, arrow: str) -> str:
        return self.arrow_target[arrow]

    def arrows_from(self, vertex: str) -> tuple[str, ...]:
        """Arrows with the given source, in name order."""
        return self._arrows_from[vertex]

    def path(self, source: str, arrows: Sequence[str] = ()) -> Path:
        """Build a path, checking composability in traversal order."""
        if source not in self.vertex_set:
            raise StructureError(f"unknown vertex {source!r}")
        at = source
        for a in arrows:
            if a not in self.arrow_source:
                raise StructureError(f"unknown arrow {a!r}")
            if self.arrow_source[a] != at:
                raise StructureError(f"arrow {a!r} does not compose at {at!r}")
            at = self.arrow_target[a]
        return Path(source, at, tuple(arrows))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Quiver):
            return NotImplemented
        return (
            set(self.vertices) == set(other.vertices)
            and self.arrow_source == other.arrow_source
            and self.arrow_target == other.arrow_target
        )


class BoundQuiver:
    """A quiver with a set of monomial relations (paths of length >= 2)."""

    def __init__(self, quiver: Quiver, relations: Iterable[Sequence[str]]):
        self.quiver = quiver
        rels = []
        for rel in relations:
            word = tuple(rel)
            if len(word) < 2:
                raise StructureError(f"relation {word!r} has length < 2")
            first = quiver.arrow_source.get(word[0])
            if first is None:
                raise StructureError(f"relation uses unknown arrow {word[0]!r}")
            quiver.path(first, word)  # raises if not composable
            rels.append(word)
        self.relations = tuple(dict.fromkeys(rels))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, BoundQuiver):
            return NotImplemented
        return self.quiver == other.quiver and set(self.relations) == set(other.relations)


@dataclass(frozen=True)
class LocallyBoundReport:
    """Outcome of the locally-bound check; `cycle` witnesses a failure."""

    ok: bool
    cycle: Optional[tuple[str, ...]] = None


def path_in_ideal(bq: BoundQuiver, path: Path) -> bool:
    """Whether the path lies in the ideal generated by the relations.

    For monomial ideals this is exact: a path is in the ideal iff some
    relation occurs in it as a contiguous subword.
    """
    bq.quiver.path(path.source, path.arrows)  # structural re-check
    return first_relation(bq, path.arrows) is not None


def first_relation(bq: BoundQuiver, word: tuple[str, ...]) -> Optional[tuple[int, tuple[str, ...]]]:
    """(position, relation) of the first relation found as a contiguous subword of `word`, or None.

    Relations are tried in order, each at every position from the left.
    """
    for rel in bq.relations:
        k = len(rel)
        for i in range(len(word) - k + 1):
            if word[i : i + k] == rel:
                return i, rel
    return None


def relation_matcher(word: tuple[str, ...]) -> list[dict[str, int]]:
    """The string-matching automaton of `word` (Knuth-Morris-Pratt).

    State i means that the last i letters read are the first i of `word`; a
    letter x leads from state i to `step[i].get(x, 0)`, and state len(word)
    means that an occurrence of `word` ends at x.
    """
    step, back = [{word[0]: 1}], 0
    for i in range(1, len(word)):
        step.append({**step[back], word[i]: i + 1})
        back = step[back].get(word[i], 0)
    return step


def _word_completes_relation(bq: BoundQuiver, word: tuple[str, ...]) -> bool:
    return any(word[len(word) - len(r) :] == r for r in bq.relations if len(r) <= len(word))


def _proper_prefix_set(bq: BoundQuiver) -> frozenset[tuple[str, ...]]:
    out = {()}
    for rel in bq.relations:
        for k in range(1, len(rel)):
            out.add(rel[:k])
    return frozenset(out)


def _automaton_step(
    bq: BoundQuiver, prefixes: frozenset, memory: tuple[str, ...], arrow: str
) -> Optional[tuple[str, ...]]:
    """Advance the forbidden-subword automaton; None if a relation completes.

    The memory is the longest suffix of the walked arrow word that is a
    proper prefix of some relation, which is all the state needed to detect
    contiguous occurrences of relations.
    """
    word = memory + (arrow,)
    if _word_completes_relation(bq, word):
        return None
    for start in range(len(word) + 1):
        suffix = word[start:]
        if suffix in prefixes:
            return suffix
    return ()


def _reachable_states(bq: BoundQuiver) -> dict[tuple[str, tuple[str, ...]], list[tuple[str, tuple[str, tuple[str, ...]]]]]:
    """Reachable part of the product automaton (vertex, suffix memory).

    Edges are labelled by the arrow taken; a transition exists only when the
    arrow does not complete a relation.
    """
    prefixes = _proper_prefix_set(bq)
    quiver = bq.quiver
    graph: dict = {}
    stack = [(v, ()) for v in quiver.vertices]
    while stack:
        state = stack.pop()
        if state in graph:
            continue
        vertex, memory = state
        edges = []
        for arrow in quiver.arrows_from(vertex):
            new_memory = _automaton_step(bq, prefixes, memory, arrow)
            if new_memory is None:
                continue
            nxt = (quiver.target(arrow), new_memory)
            edges.append((arrow, nxt))
            if nxt not in graph:
                stack.append(nxt)
        graph[state] = edges
    return graph


def check_locally_bound(bq: BoundQuiver) -> LocallyBoundReport:
    """Decide whether only finitely many relation-free paths exist.

    Builds the automaton whose states pair a quiver vertex with the longest
    suffix of the walked word that is a proper prefix of a relation, with
    transitions on arrows that do not complete a relation.  The relation-free
    paths of the quiver are exactly the walks of this automaton, so the check
    reduces to acyclicity of its reachable part.  A reachable cycle is
    returned as a witness: its arrow word can be repeated forever without
    ever containing a relation.
    """
    graph = _reachable_states(bq)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {s: WHITE for s in graph}
    for root in graph:
        if color[root] != WHITE:
            continue
        # Iterative DFS; the path stack lets us read the cycle's arrows back.
        path: list[tuple] = []  # (state, arrow taken to reach the next entry)
        stack = [(root, iter(graph[root]))]
        color[root] = GRAY
        path.append([root, None])
        while stack:
            state, it = stack[-1]
            advanced = False
            for arrow, nxt in it:
                if color[nxt] == GRAY:
                    arrows = []
                    for i in range(len(path)):
                        if path[i][0] == nxt:
                            arrows = [p[1] for p in path[i + 1 :]] + [arrow]
                            break
                    return LocallyBoundReport(False, tuple(arrows))
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path[-1][1] = arrow
                    path.append([nxt, None])
                    stack.append((nxt, iter(graph[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[state] = BLACK
                stack.pop()
                path.pop()
                if path:
                    path[-1][1] = None
    return LocallyBoundReport(True)


def automaton_state_count(bq: BoundQuiver) -> int:
    """Number of reachable product-automaton states; caps path lengths when bound."""
    return len(_reachable_states(bq))


def enumerate_paths_from(bq: BoundQuiver, vertex: str, max_len: int) -> list[Path]:
    """All relation-free paths starting at `vertex` of length <= max_len.

    Returned in length-then-lexicographic order on arrow words.  Extensions
    of a relation-containing path also contain the relation, so the walk
    prunes as soon as a relation completes.
    """
    quiver = bq.quiver
    if vertex not in quiver.vertex_set:
        raise StructureError(f"unknown vertex {vertex!r}")
    out = [quiver.path(vertex)]
    frontier = [out[0]]
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for arrow in quiver.arrows_from(p.target):
                word = p.arrows + (arrow,)
                if _word_completes_relation(bq, word):
                    continue
                nxt.append(Path(vertex, quiver.target(arrow), word))
        if not nxt:
            break
        frontier = nxt
        out.extend(nxt)
    return out
