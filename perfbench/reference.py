"""Fixed reference kernels that measure how fast the host is right now.

On a shared host the speed of interpreted code drifts by 20-30% over
tens of seconds to minutes, so raw wall times from runs a few minutes
apart disagree by more than any useful regression bound. Each workload
is paired with a kernel that does the same kind of work as its hot
loops but never changes and never calls lexnet: double edge swaps and
BFS on adjacency sets for the graph workloads, plus a large regex
alternation scan for the extraction-heavy corpus workload (regex
matching in C slows down less than bytecode does). The ratio of an
iteration's time to its kernel's time, both taken in the same run, is
a cost in machine-independent units that lexnet changes move in
proportion to their effect on wall time.

Changing this file changes every ``total_ref`` value: measure parent and
change with the same copy.
"""

from __future__ import annotations

import random
import re
from collections import deque


def _graph(n: int, m: int, seed: int) -> tuple[list[set[int]], list[tuple[int, int]]]:
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    edges = []
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            edges.append((min(u, v), max(u, v)))
    return adj, edges


def _words(rng: random.Random, consonants: str, vowels: str, count: int) -> list[str]:
    pairs = [c + v for c in consonants for v in vowels]
    return [rng.choice(pairs) + rng.choice(pairs) + rng.choice(pairs) for _ in range(count)]


_ADJ, _EDGES = _graph(300, 1200, 7)

_rng = random.Random(11)
_NAMES = _words(_rng, "bdgkptz", "aeiou", 2000)
_ALIASES = sorted({f"code {w}" for w in _NAMES[:1000]} | {f"{w} act" for w in _NAMES[1000:]},
                  key=lambda a: (-len(a), a))
_PATTERN = re.compile(r"(?<![a-z])(?:" + "|".join(map(re.escape, _ALIASES)) + r")(?![a-z])")
_FILLER = _words(_rng, "fhlmnrsv", "aeiouy", 300)
_TEXT = " ".join(_rng.choice(_ALIASES) if i % 40 == 0 else _rng.choice(_FILLER) for i in range(3000))


def rewire_bfs() -> int:
    """Double edge swaps, then BFS sweeps, on a fixed graph; returns a checksum."""
    rng = random.Random(3)
    adj = [set(a) for a in _ADJ]
    edges = list(_EDGES)
    m = len(edges)
    for _ in range(20000):
        i = rng.randrange(m)
        j = rng.randrange(m - 1)
        if j >= i:
            j += 1
        a, b = edges[i]
        if rng.random() < 0.5:
            a, b = b, a
        c, d = edges[j]
        if a == d or c == b or d in adj[a] or b in adj[c]:
            continue
        adj[a].discard(b)
        adj[b].discard(a)
        adj[c].discard(d)
        adj[d].discard(c)
        adj[a].add(d)
        adj[d].add(a)
        adj[c].add(b)
        adj[b].add(c)
        edges[i] = (a, d) if a < d else (d, a)
        edges[j] = (c, b) if c < b else (b, c)
    n = len(adj)
    far = 0
    for s in range(0, n, 6):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            dv = dist[v]
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
        far += max(dist)
    return far


def regex_scan() -> int:
    """A 2000-branch alternation over fixed filler text; returns the match count."""
    return sum(1 for _ in _PATTERN.finditer(_TEXT))


# The kernel of each workload, mixed roughly like the workload's own time.
KERNELS = {
    "fixture": (rewire_bfs,),
    "corpus_large": (regex_scan, regex_scan, rewire_bfs),
    "graph_large": (rewire_bfs,),
}

CHECKSUMS = {"rewire_bfs": 214, "regex_scan": 75}  # pinned by the self-test


def kernel(workload: str) -> None:
    for part in KERNELS[workload]:
        part()
