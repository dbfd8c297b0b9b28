"""Workload definitions: documents, command lists and their seeded variants.

Every workload is a fixed *canonical* set of documents and commands.  The
workload seed picks the variant that is actually run: it relabels the tree
vertices of every document with a seeded injection and, on census and
ggm-stars, shuffles the order of the documents.  Relabelling changes the
bytes the program reads but not the structure it works on, so the cost of a
pass barely depends on the seed and the recorded answers (goldens) hold for
every seed once vertex ids are mapped back.

Documents are written by this module's own formatter, never by the library,
so a change to the library's formatting cannot change the traffic.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import product

DEFAULT_SEED = 0

# census: random_instance seeds 0..CENSUS_SEEDS-1 in both orientations.  Every
# run uses all of them: drawing a sample per workload seed moved the census
# tail latency by about 8% from seed to seed, as the few slowest documents
# came and went.
CENSUS_SEEDS = 120
CENSUS_CODOMAIN_OFFSET = 100_000  # seed offset of each document's partner


@dataclass(frozen=True)
class Doc:
    """One labelled tree over one bound quiver, in plain data."""

    name: str
    qvertices: tuple  # quiver vertex names
    qarrows: tuple  # (name, src, tgt)
    relations: tuple  # tuples of arrow names, traversal order
    orientation: str  # "SINK" or "SOURCE"
    nodes: tuple  # (tree vertex id, quiver vertex)
    arrows: tuple  # (name, src id, tgt id, quiver arrow)

    def text(self) -> str:
        lines = ["QUIVER"]
        lines += [f"vertex {v}" for v in self.qvertices]
        lines += [f"arrow {a} {s} {t}" for a, s, t in self.qarrows]
        lines.append("RELATIONS")
        lines += ["rel " + " ".join(r) for r in self.relations]
        lines.append(f"TREE {self.orientation}")
        lines += [f"node {n} {q}" for n, q in self.nodes]
        lines += [f"arrow {a} {s} {t} {q}" for a, s, t, q in self.arrows]
        return "\n".join(lines) + "\n"

    def relabel(self, rng: random.Random) -> tuple["Doc", dict]:
        """Same document with tree vertex ids replaced by a random injection."""
        ids = [n for n, _ in self.nodes]
        fresh = rng.sample(range(1, 4 * len(ids) + 1), len(ids))
        to_new = dict(zip(ids, fresh))
        doc = Doc(
            self.name,
            self.qvertices,
            self.qarrows,
            self.relations,
            self.orientation,
            tuple(sorted((to_new[n], q) for n, q in self.nodes)),
            tuple((a, to_new[s], to_new[t], q) for a, s, t, q in self.arrows),
        )
        return doc, to_new


@dataclass(frozen=True)
class Command:
    """One CLI invocation over named documents; `cid` keys its golden."""

    cid: str
    kind: str  # validate | network | hom | ggms | indec | decompose
    docs: tuple  # document names
    prime: int = 3

    def argv(self, paths: dict) -> list:
        args = [self.kind] + [paths[d] for d in self.docs]
        return args if self.prime == 3 else args + ["-p", str(self.prime)]


@dataclass
class Workload:
    """A seeded variant: documents as run, commands in pass order."""

    name: str
    docs: dict  # name -> Doc as run (relabelled)
    inverse: dict  # name -> {id as run: canonical id}
    commands: list
    canonical_digest: str  # of the canonical documents and commands
    probes: list  # run once per run, outside the timed passes

    def digest(self) -> str:
        return _digest(list(self.docs.values()), self.commands + self.probes)


def _digest(docs: list, commands: list) -> str:
    h = hashlib.sha256()
    for d in sorted(docs, key=lambda d: d.name):
        h.update(d.text().encode())
    for c in commands:
        h.update(repr(c).encode())
    return h.hexdigest()


def from_tree(name: str, t) -> Doc:
    """Plain copy of a library TreeOverQ."""
    q = t.codomain.quiver
    return Doc(
        name,
        tuple(sorted(q.vertices)),
        tuple((a, q.source(a), q.target(a)) for a in sorted(q.arrows)),
        tuple(sorted(t.codomain.relations)),
        "SINK" if t.orientation == "sink" else "SOURCE",
        tuple((n, t.vertex_label[n]) for n in t.tree.vertices),
        tuple(
            (a, t.tree.arrow_source[a], t.tree.arrow_target[a], t.arrow_label[a])
            for a in sorted(t.tree.arrows)
        ),
    )


def _tree_arrows(orientation: str, edges: list) -> tuple:
    """Tree arrows for (child, parent, quiver arrow) triples."""
    if orientation == "SINK":
        return tuple((f"a{c}", c, p, q) for c, p, q in edges)
    return tuple((f"a{c}", p, c, q) for c, p, q in edges)


def star(k: int, orientation: str) -> Doc:
    """Root with k leaves over one vertex with a loop alpha, alpha^2 = 0."""
    return Doc(
        f"star{k}-{orientation.lower()}",
        ("1",),
        (("alpha", "1", "1"),),
        (("alpha", "alpha"),),
        orientation,
        tuple((n, "1") for n in range(1, k + 2)),
        _tree_arrows(orientation, [(n, 1, "alpha") for n in range(2, k + 2)]),
    )


def uniserial(length: int, orientation: str) -> Doc:
    """Chain of `length` alpha-arrows over a loop with alpha^(length+1) = 0."""
    return Doc(
        f"chain{length}-{orientation.lower()}",
        ("1",),
        (("alpha", "1", "1"),),
        (("alpha",) * (length + 1),),
        orientation,
        tuple((n, "1") for n in range(1, length + 2)),
        _tree_arrows(orientation, [(n, n - 1, "alpha") for n in range(2, length + 2)]),
    )


def twin_chain(n: int, orientation: str) -> Doc:
    """Two same-labelled chains of length n under one root, over A_(n+1)."""
    if orientation == "SINK":
        qarrows = tuple((f"b{i}", f"q{i}", f"q{i - 1}") for i in range(1, n + 1))
    else:
        qarrows = tuple((f"b{i}", f"q{i - 1}", f"q{i}") for i in range(1, n + 1))
    nodes = [(1, "q0")]
    edges = []
    for first in (2, n + 2):  # first vertex of each chain
        for depth in range(1, n + 1):
            v = first + depth - 1
            nodes.append((v, f"q{depth}"))
            edges.append((v, 1 if depth == 1 else v - 1, f"b{depth}"))
    return Doc(
        f"twin{n}-{orientation.lower()}",
        tuple(f"q{i}" for i in range(n + 1)),
        qarrows,
        (),
        orientation,
        tuple(nodes),
        _tree_arrows(orientation, edges),
    )


def five_vertex_sink() -> Doc:
    """The paper's worked sink example over the loop-tail quiver."""
    return Doc(
        "ex-sink5",
        ("1", "2"),
        (("alpha", "2", "2"), ("beta", "1", "2")),
        (("alpha", "alpha"),),
        "SINK",
        ((1, "2"), (2, "2"), (3, "1"), (4, "2"), (5, "1")),
        (("a2", 2, 1, "alpha"), ("a3", 3, 1, "beta"), ("a4", 4, 1, "alpha"), ("a5", 5, 2, "beta")),
    )


def depth_two_source(labels: tuple) -> Doc:
    """The paper's depth-two source example over the two-loop quiver."""
    a2, a3, a4, a5 = labels
    return Doc(
        "ex-src-" + "".join(l[0] for l in labels),
        ("1",),
        (("alpha", "1", "1"), ("beta", "1", "1")),
        tuple(product(("alpha", "beta"), repeat=3)),
        "SOURCE",
        tuple((n, "1") for n in range(1, 6)),
        (("a2", 1, 2, a2), ("a3", 1, 3, a3), ("a4", 2, 4, a4), ("a5", 3, 5, a5)),
    )


def _bound_quiver(doc: Doc):
    from rtmtools import BoundQuiver, Quiver

    return BoundQuiver(Quiver(doc.qvertices, doc.qarrows), doc.relations)


def _census_unit(a: str, b: str, prime: int) -> list:
    return [
        Command(f"{a}:validate", "validate", (a,)),
        Command(f"{a}:network", "network", (a, b)),
        Command(f"{a}:hom-aa", "hom", (a, a), prime),
        Command(f"{a}:hom-ab", "hom", (a, b), prime),
        Command(f"{a}:indec", "indec", (a,), prime),
        Command(f"{a}:decompose", "decompose", (a,)),
    ]


def _census_pool():
    from rtmtools import random_instance

    docs, units = [], []
    examples = [five_vertex_sink()] + [
        depth_two_source(labels) for labels in product(("alpha", "beta"), repeat=4)
    ]
    for i, ex in enumerate(examples):
        partner = random_instance(
            CENSUS_CODOMAIN_OFFSET + i, ex.orientation.lower(), codomain=_bound_quiver(ex)
        )
        pb = from_tree(ex.name + "-b", partner)
        docs += [ex, pb]
        units.append(_census_unit(ex.name, pb.name, 3))
    for s in range(CENSUS_SEEDS):
        for orientation in ("sink", "source"):
            ta = random_instance(s, orientation)
            tb = random_instance(CENSUS_CODOMAIN_OFFSET + s, orientation, codomain=ta.codomain)
            da, db = from_tree(f"r{s}-{orientation}", ta), from_tree(f"r{s}-{orientation}-b", tb)
            docs += [da, db]
            units.append(_census_unit(da.name, db.name, 5 if s % 2 else 3))
    return docs, units, []


def _ggm_stars_pool():
    docs = [star(k, o) for k in (3, 4, 5) for o in ("SINK", "SOURCE")]
    units = [
        [Command(f"{d.name}:hom", "hom", (d.name, d.name)), Command(f"{d.name}:ggms", "ggms", (d.name, d.name))]
        for d in docs
    ]
    return docs, units, []


WIDE_DEEP_TWINS = (40, 60, 80, 100, 120)
WIDE_DEEP_CHAINS = (8, 9, 10)
WIDE_DEEP_UNAVAILABLE_STARS = (10, 20, 30)
WIDE_DEEP_SPLIT_STARS = (40, 80, 120)
WIDE_DEEP_LONG_TWIN = 600
WIDE_DEEP_PROBE_TWIN = 1200


def _wide_deep_pool():
    docs, commands = [], []

    def add(doc: Doc, *kinds: str) -> None:
        docs.append(doc)
        commands.extend(Command(f"{doc.name}:{kind}", kind, (doc.name,)) for kind in kinds)

    for o in ("SINK", "SOURCE"):
        for n in WIDE_DEEP_TWINS:
            add(twin_chain(n, o), "indec", "decompose")
        for length in WIDE_DEEP_CHAINS:
            add(uniserial(length, o), "indec")
        for k in WIDE_DEEP_UNAVAILABLE_STARS:
            add(star(k, o), "indec")
        for k in WIDE_DEEP_SPLIT_STARS:
            add(star(k, o), "decompose")
        add(twin_chain(WIDE_DEEP_LONG_TWIN, o), "decompose")
    # decompose on this twin chain raises RecursionError at the commit that
    # introduced the benchmark.  The workloads must not contain failing
    # operations, so it runs once per run as a probe, outside the timed passes.
    probe_doc = twin_chain(WIDE_DEEP_PROBE_TWIN, "SINK")
    docs.append(probe_doc)
    probes = [Command(f"{probe_doc.name}:decompose", "decompose", (probe_doc.name,))]
    return docs, [commands], probes


POOLS = {"census": _census_pool, "ggm-stars": _ggm_stars_pool, "wide-deep": _wide_deep_pool}
# Workloads whose document order the seed shuffles.  A unit's commands stay
# consecutive: the six census commands on one document repeat its parse,
# push_down and End-space work, so a cache keyed on the document could help
# there and nowhere else.  wide-deep keeps its order: its peak memory depends
# on the heap history before its largest allocations, and a fixed order keeps
# that the same in every run.
SHUFFLED = ("census", "ggm-stars")


def build(name: str, seed) -> Workload:
    """The variant of workload `name` for `seed`; seed None gives the canonical
    documents, unrelabelled and in pool order (used to record goldens)."""
    docs, units, probes = POOLS[name]()
    canonical = _digest(docs, [c for unit in units for c in unit] + probes)
    if seed is None:
        inverse = {d.name: {n: n for n, _ in d.nodes} for d in docs}
        run_docs = {d.name: d for d in docs}
    else:
        if name in SHUFFLED:
            random.Random(seed).shuffle(units)
        run_docs, inverse = {}, {}
        for d in docs:
            new, to_new = d.relabel(random.Random(f"{seed}:{d.name}"))
            run_docs[d.name] = new
            inverse[d.name] = {v: k for k, v in to_new.items()}
    commands = [c for unit in units for c in unit]
    return Workload(name, run_docs, inverse, commands, canonical, probes)
