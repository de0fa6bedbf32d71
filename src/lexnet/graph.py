"""Directed citation graphs and the primitive algorithms built on them.

Nodes are dense integers ``0..n-1``. Each node of a :class:`DiGraph`
carries a non-empty slug that is unique within the graph. A directed arc
``x -> y`` means "x cites y" and stores the citation count as its
weight. ``DiGraph(slugs, arcs)`` builds a digraph in one step from its
slugs and its arcs' counts, rejecting self-loops; it has no mutator, so
analysis code reads it as a finished value.

An undirected :class:`UGraph` is unlabeled and is just its neighbour
sets: it wraps a finished adjacency list (the undirected projection of a
digraph, or a random graph generator's output) and is never mutated.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .errors import LexnetError

NodeId = int


def distance_counts(adj: Sequence[Iterable[int]]) -> tuple[list[list[int]], list[int]]:
    """Count the nodes at each distance from every node at once.

    ``counts[v][d - 1]`` is the number of nodes at unweighted distance d
    from v, so ``len(counts[v])`` is v's eccentricity within its
    component (0 for an isolated node). ``reach[v]`` is the bitmask of the
    nodes reachable from v, v included.

    This is a multi-source breadth-first search over Python-int bitmasks
    (Then et al. 2014, "The More the Merrier: Efficient Multi-Source
    Graph Traversal"): level d sets ``within[v] |= within[u]`` for every
    neighbor u, from the masks of level d - 1, and ``int.bit_count``
    gives the size of each level. A node drops out once its mask stops
    growing, since then it already spans its component.

    Cost: about diameter x 2m ORs of n-bit integers, O(diameter x m x n/64)
    word operations, against n interpreted breadth-first searches of
    O(n + m) steps each. That wins by one to two orders of magnitude on
    small-diameter graphs and loses on long-diameter ones, where every
    level still ORs full-width masks. Average path length on one Xeon
    core, Python 3.11, per-source search -> this sweep: Erdos-Renyi
    with 2000 nodes and 10,000 edges 3.4 s -> 0.04 s; a 2000-node path
    0.8 s -> 2.6 s; a 2000-node ring 0.7 s -> 1.8 s.

    ``adj[v]`` may be any collection of v's neighbours; the sweep copies
    them to lists, which it iterates once per level faster than sets.
    """
    adj = [list(nbrs) for nbrs in adj]
    n = len(adj)
    within = [1 << v for v in range(n)]
    sizes = [1] * n
    counts: list[list[int]] = [[] for _ in range(n)]
    active = list(range(n))
    while active:
        # every mask of this level is built from the previous level's masks
        grown = []
        for v in active:
            mask = within[v]
            for u in adj[v]:
                mask |= within[u]
            grown.append(mask)
        still = []
        for v, mask in zip(active, grown):
            size = mask.bit_count()
            if size > sizes[v]:
                within[v] = mask
                counts[v].append(size - sizes[v])
                sizes[v] = size
                still.append(v)
        active = still
    return counts, within


class DiGraph:
    """Directed graph with weighted arcs over a fixed node set.

    ``arcs`` maps each (citing slug, cited slug) pair to its citation
    count; without it the graph is edgeless.
    """

    __slots__ = ("_slugs", "_slug_to_id", "_succ", "_in_degree", "_arc_count")

    def __init__(self, slugs: Sequence[str], arcs: Mapping[tuple[str, str], int] = {}):
        if not slugs:
            raise LexnetError("a graph needs at least one node")
        self._slugs = tuple(slugs)
        self._slug_to_id: dict[str, int] = {}
        for i, slug in enumerate(self._slugs):
            if not slug:
                raise ValueError("slug must be non-empty")
            if slug in self._slug_to_id:
                raise LexnetError(f"slug {slug!r} appears twice")
            self._slug_to_id[slug] = i
        n = len(self._slugs)
        self._succ: list[dict[int, int]] = [dict() for _ in range(n)]
        self._in_degree = [0] * n
        for (citing, cited), count in arcs.items():
            source, target = self.id_of(citing), self.id_of(cited)
            if source == target:
                raise LexnetError(f"self-citation on node {source} ({citing!r})")
            if count < 1:
                raise ValueError("count must be a positive integer")
            self._succ[source][target] = count
            self._in_degree[target] += 1
        self._arc_count = len(arcs)

    # -- identity ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._slugs)

    @property
    def slugs(self) -> tuple[str, ...]:
        return self._slugs

    def node_ids(self) -> range:
        return range(len(self._slugs))

    def slug(self, v: NodeId) -> str:
        self._check(v)
        return self._slugs[v]

    def id_of(self, slug: str) -> NodeId:
        try:
            return self._slug_to_id[slug]
        except KeyError:
            raise LexnetError(f"no node with slug {slug!r}") from None

    def _check(self, v: NodeId) -> None:
        if not isinstance(v, int) or v < 0 or v >= len(self._slugs):
            raise LexnetError(f"node id {v!r} outside 0..{len(self._slugs) - 1}")

    # -- arcs ---------------------------------------------------------------

    @property
    def arc_count(self) -> int:
        return self._arc_count

    @property
    def weight_total(self) -> int:
        return sum(w for succ in self._succ for w in succ.values())

    def out_degree(self, v: NodeId) -> int:
        """Number of distinct codes cited by v."""
        self._check(v)
        return len(self._succ[v])

    def in_degree(self, v: NodeId) -> int:
        """Number of distinct codes citing v."""
        self._check(v)
        return self._in_degree[v]

    def arcs(self) -> Iterator[tuple[int, int, int]]:
        """Yield (source, target, weight) triples in sorted order."""
        for s in range(len(self._slugs)):
            succ = self._succ[s]
            for t in sorted(succ):
                yield s, t, succ[t]

    # -- derived graphs -------------------------------------------------------

    def remove_nodes(self, victims: Iterable[NodeId]) -> "DiGraph":
        """Drop the victim nodes and every arc touching them.

        The reduced graph keeps the survivors' slugs and order, with ids
        re-densified.
        """
        victim_set = set(victims)
        for v in victim_set:
            self._check(v)
        slugs = self._slugs
        return DiGraph(
            [slug for v, slug in enumerate(slugs) if v not in victim_set],
            {
                (slugs[s], slugs[t]): w
                for s, succ in enumerate(self._succ)
                if s not in victim_set
                for t, w in succ.items()
                if t not in victim_set
            },
        )

    def undirected_projection(self) -> "UGraph":
        """Forget direction and weight: {u,v} present iff u->v or v->u.

        The projection keeps the node ids; their slugs stay on this digraph.
        """
        adj = [set(succ) for succ in self._succ]
        for s, succ in enumerate(self._succ):
            for t in succ:
                adj[t].add(s)
        return UGraph(adj)


class UGraph:
    """Simple undirected graph on the unlabeled nodes ``0..n-1``.

    ``adj[v]`` is the set of v's neighbours, so ``len(adj[v])`` is v's
    degree. ``UGraph(adj)`` wraps adj without copying or checking it: it
    must be non-empty, symmetric (u in adj[v] iff v in adj[u]) and free
    of self-loops. ``adj`` is read-only; a caller that changes neighbour
    sets builds a new graph from its own copy. Slugs are looked up on the
    digraph that a graph was projected from.
    """

    __slots__ = ("adj", "edge_count")

    def __init__(self, adj: list[set[int]]):
        self.adj = adj
        self.edge_count = sum(map(len, adj)) // 2

    @property
    def node_count(self) -> int:
        return len(self.adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u, nbrs in enumerate(self.adj):
            for v in sorted(nbrs):
                if v > u:
                    yield u, v
