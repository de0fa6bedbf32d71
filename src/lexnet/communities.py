"""Modularity and greedy agglomerative community detection.

The greedy method (Clauset, Newman & Moore 2004) starts from singleton
communities and repeatedly merges the connected community pair with the
largest modularity gain. Candidate pairs sit in one heap that holds
exactly one entry per connected pair with the pair's current edge count;
an entry's gain may be older, but a gain only falls while the edge count
stays fixed, so an old entry never sorts after the pair's true key. A
merge pushes entries only for the pairs whose edge count it changed; an
entry that surfaces with out-of-date degree sums is re-keyed and pushed
back, and the first entry that surfaces up to date is the true maximum
(see ``cnm_trace``). Merging continues until no connected pair remains
(each weakly connected component has collapsed to one community); the
partition reported is the best-Q state encountered along the merge path.
Isolated vertices never join a merge and stay singleton communities.
"""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple, Sequence

from .errors import DegenerateGraphError, LexnetError
from .graph import DiGraph, UGraph


def modularity(ug: UGraph, assignment: Sequence[int]) -> float:
    """Q = sum over communities of (e_c / m - (d_c / 2m)^2).

    e_c counts internal edges and d_c sums member degrees. The assignment
    must give a community to every node.
    """
    m = ug.edge_count
    if m == 0:
        raise DegenerateGraphError("modularity is undefined without edges")
    n = ug.node_count
    if len(assignment) != n:
        raise LexnetError(f"assignment covers {len(assignment)} of {n} nodes")
    internal: dict[int, int] = {}
    degree_sum: dict[int, int] = {}
    for c, nbrs in zip(assignment, ug.adj):
        degree_sum[c] = degree_sum.get(c, 0) + len(nbrs)
    for u, v in ug.edges():
        if assignment[u] == assignment[v]:
            c = assignment[u]
            internal[c] = internal.get(c, 0) + 1
    two_m = 2.0 * m
    q = 0.0
    for c, d_c in degree_sum.items():
        q += internal.get(c, 0) / m - (d_c / two_m) ** 2
    return q


class Partition(NamedTuple):
    """A total assignment of nodes to dense community indices, plus its Q."""

    assignment: tuple[int, ...]
    q: float

    @property
    def community_count(self) -> int:
        return max(self.assignment) + 1 if self.assignment else 0

    def communities(self) -> list[list[int]]:
        groups: list[list[int]] = [[] for _ in range(self.community_count)]
        for v, c in enumerate(self.assignment):
            groups[c].append(v)
        return groups


class CnmMerge(NamedTuple):
    a: int  # smaller community index at merge time
    b: int  # larger community index at merge time
    delta_q: float
    q_after: float


class CnmTrace(NamedTuple):
    """Full merge history of a greedy run, for auditing and replay."""

    node_count: int
    edge_count: int
    q_initial: float
    merges: tuple[CnmMerge, ...]
    best_index: int  # number of merges applied at the best-Q state
    best_q: float


def cnm_trace(ug: UGraph) -> CnmTrace:
    """Run the greedy agglomeration and record every merge.

    Community indices are the smallest original node id in the community;
    gain ties are broken by smallest, then second-smallest index. This
    makes the run fully deterministic for a given labeling (reports are
    byte-stable), at the price that relabeling nodes can resolve a gain
    tie differently and land on another local optimum.

    Every connected community pair has exactly one heap entry carrying its
    current edge count e; the gain, degree sums and labels in that entry
    may be older. A merge of ``small`` into ``big`` changes e only for
    ``(big, x)`` with x a neighbor of ``small``, so only those pairs get a
    new entry; the entries they replace no longer match e and are dropped
    when popped. Every other ``(big, x)`` keeps e while a degree sum grew,
    so its gain only fell and its entry still sorts no later than the
    pair's true key. A popped entry whose degree sums changed is pushed
    back with its current gain and labels; the first popped entry whose
    degree sums are current therefore carries the true largest key, and
    the merge path equals the one that re-keys every neighbor pair.

    The float gain ``e/m - d_a d_b / 2m^2`` must drop strictly when a
    degree sum grows at fixed e, or a stale entry could tie with its true
    gain while holding the larger labels of before the merge. With
    m <= 2^25 edges the degree product is exact and one step of it moves
    the gain by more than one unit in the last place, so the drop is
    strict; near 2^26 edges rounding can hide it.
    """
    m = ug.edge_count
    if m == 0:
        raise DegenerateGraphError("community detection needs at least one edge")
    n = ug.node_count
    inv_m = 1.0 / m
    inv_2m2 = 1.0 / (2.0 * m * m)
    two_m = 2.0 * m

    comm_deg: dict[int, int] = {}
    label: dict[int, int] = {}
    nbr: dict[int, dict[int, int]] = {}
    q = 0.0
    for v, nbrs in enumerate(ug.adj):
        d = len(nbrs)
        comm_deg[v] = d
        label[v] = v
        nbr[v] = {}
        q -= (d / two_m) ** 2

    # heap entries: (-dq, label_a, label_b, a, b, e_ab, deg_a, deg_b) with
    # label_a < label_b at push time
    heap: list[tuple] = []
    for u, v in ug.edges():
        nbr[u][v] = 1
        nbr[v][u] = 1
        du = comm_deg[u]
        dv = comm_deg[v]
        dq = inv_m - du * dv * inv_2m2
        heap.append((-dq, u, v, u, v, 1, du, dv))
    heapq.heapify(heap)

    q_initial = q
    best_q = q
    best_index = 0
    merge_rows: list[tuple[int, int, float, float]] = []
    heappop = heapq.heappop
    heappush = heapq.heappush
    nbr_of = nbr.get

    while heap:
        neg_dq, la, lb, a, b, e, da, db = heappop(heap)
        a_nbrs = nbr_of(a)
        if a_nbrs is None or a_nbrs.get(b) != e:
            continue  # a side was merged away, or e has grown since
        if comm_deg[a] != da or comm_deg[b] != db:
            # e is current but the gain fell: re-key, surface again later
            da = comm_deg[a]
            db = comm_deg[b]
            la = label[a]
            lb = label[b]
            ndq = e * inv_m - da * db * inv_2m2
            if la < lb:
                heappush(heap, (-ndq, la, lb, a, b, e, da, db))
            else:
                heappush(heap, (-ndq, lb, la, b, a, e, db, da))
            continue
        dq = -neg_dq
        q += dq

        if len(a_nbrs) <= len(nbr[b]):
            small, big = a, b
        else:
            small, big = b, a
        small_nbrs = nbr.pop(small)
        big_nbrs = nbr[big]
        del small_nbrs[big]
        del big_nbrs[small]
        d_big = da + db
        comm_deg[big] = d_big
        del comm_deg[small]
        label[big] = la  # la < lb by construction
        del label[small]
        for x, ex in small_nbrs.items():
            x_nbrs = nbr[x]
            del x_nbrs[small]
            merged = big_nbrs.get(x, 0) + ex
            big_nbrs[x] = merged
            x_nbrs[big] = merged
            dx = comm_deg[x]
            lx = label[x]
            ndq = merged * inv_m - d_big * dx * inv_2m2
            if la < lx:
                heappush(heap, (-ndq, la, lx, big, x, merged, d_big, dx))
            else:
                heappush(heap, (-ndq, lx, la, x, big, merged, dx, d_big))

        merge_rows.append((la, lb, dq, q))
        if q > best_q:
            best_q = q
            best_index = len(merge_rows)

    merges = tuple(CnmMerge(*row) for row in merge_rows)
    return CnmTrace(n, m, q_initial, merges, best_index, best_q)


def assignment_after(n: int, merges: Sequence[CnmMerge], steps: int) -> tuple[int, ...]:
    """Replay the first ``steps`` merges and return the dense assignment.

    Communities are indexed 0..c-1 in order of their smallest member.
    A merge names its two communities by their labels, a < b, and a
    community's label is its smallest member. Joining b's root under a's
    keeps every root its set's smallest member, so a and b are always two
    distinct roots and the union needs neither a check nor a swap.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k in range(steps):
        parent[find(merges[k].b)] = find(merges[k].a)
    roots = [find(v) for v in range(n)]
    index_of: dict[int, int] = {}
    for v in range(n):  # roots carry the smallest member id, so id order works
        r = roots[v]
        if r not in index_of:
            index_of[r] = len(index_of)
    return tuple(index_of[r] for r in roots)


def cnm_communities(ug: UGraph) -> Partition:
    """Greedy modularity communities: the best-Q state of the merge path."""
    trace = cnm_trace(ug)
    assignment = assignment_after(trace.node_count, trace.merges, trace.best_index)
    return Partition(assignment, modularity(ug, assignment))


# -- the reduced-network workflow ------------------------------------------------


class MainCommunity(NamedTuple):
    index: int
    size: int
    members: tuple[str, ...]  # slugs, sorted


class CommunityReport(NamedTuple):
    """Partition of the network left after discarding the rich club."""

    partition: Partition
    slugs: tuple[str, ...]  # reduced-graph node order
    main_communities: tuple[MainCommunity, ...]
    residual: tuple[str, ...]
    min_size: int

    def assignment_by_slug(self) -> dict[str, int]:
        return {slug: self.partition.assignment[v] for v, slug in enumerate(self.slugs)}


def reduced_network_partition(
    g: DiGraph, rich_club: Iterable[int], min_size: int
) -> CommunityReport:
    """Remove the rich club, project to undirected, and partition the rest.

    Communities of size >= min_size are reported as main communities,
    ordered by size descending then smallest member slug; everything else
    lands in the residual set. A club that holds every node leaves no
    edge to partition, like a reduced network without arcs.
    """
    club = set(rich_club)
    if club.issuperset(g.node_ids()):
        raise DegenerateGraphError("community detection needs at least one edge")
    reduced = g.remove_nodes(club)
    ug = reduced.undirected_projection()
    partition = cnm_communities(ug)
    slugs = reduced.slugs

    groups = partition.communities()
    main = []
    residual: list[str] = []
    for index, members in enumerate(groups):
        member_slugs = tuple(sorted(slugs[v] for v in members))
        if len(members) >= min_size:
            main.append(MainCommunity(index, len(members), member_slugs))
        else:
            residual.extend(member_slugs)
    main.sort(key=lambda c: (-c.size, c.members[0]))
    return CommunityReport(
        partition=partition,
        slugs=slugs,
        main_communities=tuple(main),
        residual=tuple(sorted(residual)),
        min_size=min_size,
    )
