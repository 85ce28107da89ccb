"""Independent brute-force oracles shared by the test suite.

Nothing here reuses the library's computation paths: indices are
recomputed from raw edge lists, distances by Floyd-Warshall, counting
indices by subset enumeration, and tree isomorphism by AHU canonical
encoding, so library results are checked against genuinely separate
code.
"""

import itertools
import math


def adjacency_from_edges(order, edges):
    adj = [set() for _ in range(order)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def mn_oracle(order, edges):
    """Neighbourhood Zagreb index straight from the definition."""
    adj = adjacency_from_edges(order, edges)
    deg = [len(a) for a in adj]
    return sum(sum(deg[u] for u in adj[v]) ** 2 for v in range(order))


def m1_oracle(order, edges):
    adj = adjacency_from_edges(order, edges)
    return sum(len(a) ** 2 for a in adj)


def m2_oracle(order, edges):
    adj = adjacency_from_edges(order, edges)
    return sum(len(adj[u]) * len(adj[v]) for u, v in edges)


def floyd_warshall(order, edges):
    dist = [[math.inf] * order for _ in range(order)]
    for v in range(order):
        dist[v][v] = 0
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(order):
        for i in range(order):
            dik = dist[i][k]
            if dik == math.inf:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(order):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return dist


def count_matchings(order, edges):
    """Number of matchings including the empty one, by edge subsets."""
    total = 0
    for r in range(len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            used = [v for e in subset for v in e]
            if len(used) == len(set(used)):
                total += 1
    return total


def count_independent_sets(order, edges):
    """Number of independent sets including the empty one, by vertex subsets."""
    adj = adjacency_from_edges(order, edges)
    total = 0
    for bits in range(1 << order):
        chosen = [v for v in range(order) if bits >> v & 1]
        if all(u not in adj[v] for v, u in itertools.combinations(chosen, 2)):
            total += 1
    return total


def tree_canonical_form(order, edges):
    """AHU canonical encoding of a free tree, rooted at its center(s)."""
    assert len(edges) == order - 1
    adj = adjacency_from_edges(order, edges)
    if order == 1:
        return "()"
    deg = [len(a) for a in adj]
    removed = [False] * order
    layer = [v for v in range(order) if deg[v] <= 1]
    remaining = order
    while remaining > 2:
        nxt = []
        for leaf in layer:
            removed[leaf] = True
            remaining -= 1
            for u in adj[leaf]:
                if not removed[u]:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    centers = [v for v in range(order) if not removed[v]]

    def encode(v, parent):
        return "(" + "".join(sorted(encode(u, v) for u in adj[v] if u != parent)) + ")"

    if len(centers) == 1:
        return encode(centers[0], None)
    halves = [encode(centers[0], centers[1]), encode(centers[1], centers[0])]
    return "|".join(sorted(halves))


def pearson_oracle(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    sy = math.sqrt(sum((y - my) ** 2 for y in ys))
    return cov / (sx * sy)


def small_graphs(max_order):
    """One ``(order, edges)`` per isomorphism class of graphs of order 1 to
    ``max_order``, by increasing order.

    Every graph of order n + 1 is one of order n with a new vertex joined
    to some subset of the others, so each order is grown from the classes
    of the one below with every neighbourhood of the new vertex.  A class
    is kept as its canonical form: the least sorted edge tuple over all
    relabellings of its vertices.  There are 1, 2, 4, 11, 34, 156 classes
    of order 1 to 6 (OEIS A000088).
    """
    level = {()}
    for order in range(1, max_order + 1):
        yield from ((order, edges) for edges in sorted(level))
        if order == max_order:
            break
        grown = {
            edges + tuple((v, order) for v in range(order) if subset >> v & 1)
            for edges in level
            for subset in range(1 << order)
        }
        perms = list(itertools.permutations(range(order + 1)))
        level = {
            min(tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges)) for p in perms)
            for edges in grown
        }
