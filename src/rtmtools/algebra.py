"""Finite quivers bound by monomial (zero) relations.

A bound quiver is a finite quiver together with a set of relations, each a
composable path of length >= 2.  The quotient of the path algebra by the
ideal these relations generate is a zero-relation algebra.  Because the
ideal is generated by paths, membership of a path in the ideal is exactly a
contiguous-subword test on arrow sequences (`first_relation` finds the
first relation in a word).  One multi-pattern string-matching automaton of
the relations (`relation_automaton`) answers the locally-bound check ("only
finitely many relation-free paths exist") and, in `trees`, the validation
of a labelled tree.  Each `BoundQuiver` builds it once, on first use, and
once over the reversed relations (`automaton`).

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
        self._automata: dict = {}

    def automaton(self, reverse: bool = False) -> tuple[list[dict[str, int]], list[bool]]:
        """The `relation_automaton` of the relations, each read backward when `reverse`; built on first use."""
        if reverse not in self._automata:
            self._automata[reverse] = relation_automaton(rel[::-1] if reverse else rel for rel in self.relations)
        return self._automata[reverse]

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


def relation_automaton(words: Iterable[Sequence[str]]) -> tuple[list[dict[str, int]], list[bool]]:
    """The multi-pattern string-matching automaton of `words` (Aho-Corasick).

    State 0 is the empty word; the others are the nonempty prefixes of the
    words, numbered breadth-first, and the state after reading a word is its
    longest suffix among them.  A letter x leads from state i to
    `step[i].get(x, 0)`, and `dead[i]` tells whether some word ends at the
    last letter read.  A state that is not dead is the longest suffix of the
    letters read that is a proper prefix of a word.
    """
    step: list[dict[str, int]] = [{}]
    dead = [False]
    for word in words:
        state = 0
        for x in word:
            if x not in step[state]:
                step[state][x] = len(step)
                step.append({})
                dead.append(False)
            state = step[state][x]
        dead[state] = True
    # Breadth-first from the root's children, whose fail state is the root, so
    # the fail state of each state (its longest proper suffix among the
    # states, always shorter) is complete before it is read.
    fail, queue = [0] * len(step), list(step[0].values())
    for i in queue:  # the queue grows while it is read
        for x, child in step[i].items():
            fail[child] = step[fail[i]].get(x, 0)
            queue.append(child)
        step[i] = {**step[fail[i]], **step[i]}
        dead[i] = dead[i] or dead[fail[i]]
    return step, dead


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


def _reachable_states(bq: BoundQuiver) -> dict[tuple[str, int], list[tuple[str, tuple[str, int]]]]:
    """Reachable part of the product automaton: (quiver vertex, `relation_automaton` state).

    Edges are labelled by the arrow taken; a transition exists only when the
    arrow does not complete a relation.
    """
    step, dead = bq.automaton()
    quiver = bq.quiver
    graph: dict = {}
    stack = [(v, 0) for v in quiver.vertices]
    while stack:
        state = stack.pop()
        if state in graph:
            continue
        vertex, memory = state
        edges = []
        for arrow in quiver.arrows_from(vertex):
            new_memory = step[memory].get(arrow, 0)
            if dead[new_memory]:
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
    returned as a witness: a closed walk whose arrow word can be repeated
    forever without ever containing a relation.
    """
    graph = _reachable_states(bq)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    for root in graph:
        if color[root] != WHITE:
            continue
        # Iterative DFS; each entry keeps the arrow into its state, so a cycle
        # is read off the stack.
        color[root] = GRAY
        stack = [(root, None, iter(graph[root]))]
        while stack:
            state, _, edges = stack[-1]
            for arrow, nxt in edges:
                if color[nxt] == GRAY:
                    i = next(i for i, entry in enumerate(stack) if entry[0] == nxt)
                    return LocallyBoundReport(False, tuple(entry[1] for entry in stack[i + 1 :]) + (arrow,))
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, arrow, iter(graph[nxt])))
                    break
            else:
                color[state] = BLACK
                stack.pop()
    return LocallyBoundReport(True)
