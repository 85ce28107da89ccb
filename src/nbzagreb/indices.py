"""Degree- and distance-based topological indices.

Covers the eight indices used throughout the package:

==========  =============================================  ==========
id          definition                                     value type
==========  =============================================  ==========
``M1``      sum of squared vertex degrees                  int
``M2``      sum over edges of deg(u)*deg(v)                int
``MN``      sum of squared neighbour-degree sums           int
``F``       sum of cubed vertex degrees                    int
``Z``       number of matchings (incl. the empty one)      int
``SIGMA``   number of independent sets (incl. the empty)   int
``CHI``     sum over edges of 1/sqrt(deg(u)*deg(v))        float
``HARARY``  sum over vertex pairs of 1/distance            Fraction
==========  =============================================  ==========

Integer indices are exact (arbitrary precision), ``HARARY`` is an exact
rational, and ``CHI`` is the single floating-point index.  Unreachable
vertex pairs contribute 0 to ``HARARY``, so disconnected graphs are legal
everywhere.

The six degree indices take one pass over the degrees or the edges.  The
other two kinds are counted by algorithm and bounded by a budget, a
module constant; past it they raise :class:`TooLargeError` before
allocating anything of the refused size.

Z, SIGMA and HARARY share one traversal.  Each component is walked by one
BFS from its lowest vertex.  Its *second sweep* is a BFS from the last
vertex of that order, a vertex farthest from the first root: a double
sweep, as in the transfer-matrix method on strips (Calkin and Wilf, SIAM
J. Discrete Math. 11 (1998) 54-60).  The second sweep's depth is at least
half the component's diameter and at most all of it.

``Z`` and ``SIGMA`` multiply over connected components (Hosoya 1971;
Prodinger and Tichy 1982):

* A tree component (k vertices, k - 1 edges) goes through a linear DP
  over its BFS order: per vertex, the count of its subtree without the
  vertex (unmatched for ``Z``, out of the set for ``SIGMA``) and with it
  (matched; in the set).  Time O(k) big-integer operations, no budget.
* A component with a cycle is relabelled to 0..k-1 and counted by the
  memoised bitmask recursion, branching on its lowest-index vertex:
  ``Z(G) = Z(G - v) + sum Z(G - v - u)`` over the neighbours u of the
  lowest v that has one, and ``SIGMA(G) = SIGMA(G - v) + SIGMA(G - N[v])``.
  The recursion runs on an explicit stack, so depth costs no interpreter
  frames.  Its cost is the number of memoised states, which depends on
  the component's shape and labelling rather than its order: at depth i
  it memoises at most 2**b_i masks, where b_i counts the vertices at
  positions >= i with a neighbour before i.  The labels follow whichever
  of three orders has the least sum of 2**b_i, vertex order on a tie:
  vertex order, the component's BFS order and its second sweep.
  Choosing takes O(k + edges) operations on k-bit masks.

:data:`COUNTING_STATE_BUDGET` bounds that recursion in 64-bit mask words,
the unit its memory grows by: the k neighbour masks of a k-vertex
component cost k * ceil(k / 64) words and are charged before they are
built, and each memoised state costs ceil(k / 64) more.  At 2**16 words a
refusal comes within a few seconds and some tens of MB.  For a graph
whose order alone could exceed the budget, a union-find pass over the
edges looks for a cycle in an over-budget component before the adjacency
is built, so a large cyclic graph is refused at O(order) memory.

``HARARY`` fills a histogram of ordered vertex pairs per distance, then
builds one ``Fraction`` over the least common multiple of the distances.
Two kernels fill the same exact histogram:

* Per-source BFS runs one BFS from each vertex.  Time
  O(order * (order + size)), memory O(order).
* The bitset kernel runs every source at once (Then et al., "The More the
  Merrier: Efficient Multi-Source Graph Traversal", PVLDB 8(4), 2014):
  ``seen[v]`` and ``front[v]`` are ints with bit s set when source s has
  reached v, and at most once per distance level each vertex ORs its
  neighbours' fronts and counts the new bits.  Time about
  diameter * (order + size) big-int operations on order-bit ints, memory
  at most about 3 * order**2 / 8 bytes (about 18 MB at order 7071, the
  largest the budget admits).

The deepest second sweep over the components gives a diameter estimate L,
at least half the largest component diameter.  The bitset kernel runs
when 4 * L < order, per-source BFS otherwise: on paths, cycles, ladders
and long spiders the bitsets' levels cost more than the sources they
share.  :data:`HARARY_WORK_BUDGET` bounds order * (order + size), the
per-source BFS steps, which is an upper bound for both kernels; it is
checked before the adjacency is read or any BFS runs.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction

from .graphs import Graph

#: The order above which Z and SIGMA used to be refused outright.  No
#: library code reads it any more; :data:`COUNTING_STATE_BUDGET` replaced it.
COUNTING_ORDER_LIMIT = 32

#: Budget of the Z and SIGMA bitmask recursion on a component with a
#: cycle, in 64-bit mask words (see the module docstring).
COUNTING_STATE_BUDGET = 1 << 16

#: Budget of HARARY in per-source BFS steps, order * (order + size): an
#: upper bound for both kernels (see the module docstring).
HARARY_WORK_BUDGET = 5 * 10 ** 7


class TooLargeError(ValueError):
    """A counting or distance index would exceed its budget.

    ``Z`` and ``SIGMA`` raise it when the bitmask recursion on a component
    with a cycle would need more than :data:`COUNTING_STATE_BUDGET` mask
    words, for its neighbour masks or its memoised states; tree components
    never raise it.  ``HARARY`` raises it when order * (order + size)
    exceeds :data:`HARARY_WORK_BUDGET`, before any BFS runs.  The message
    names the budget that was hit.
    """


def neighbourhood_zagreb(G: Graph) -> int:
    """Sum of squared neighbour-degree sums over all vertices."""
    return sum(d * d for d in G.neighbor_degree_sums())


def first_zagreb(G: Graph) -> int:
    return sum(d * d for d in G.degrees())


def second_zagreb(G: Graph) -> int:
    deg = G.degrees()
    return sum(deg[u] * deg[v] for u, v in G.edges)


def forgotten(G: Graph) -> int:
    return sum(d ** 3 for d in G.degrees())


def randic(G: Graph) -> float:
    deg = G.degrees()
    return sum(1.0 / math.sqrt(deg[u] * deg[v]) for u, v in G.edges)


def harary(G: Graph) -> Fraction:
    """Sum of reciprocal distances over unordered reachable pairs, exact.

    The distance histogram comes from the bitset kernel when a double-sweep
    diameter estimate L has 4 * L < order, and from one BFS per source
    otherwise (see the module docstring).  Over :data:`HARARY_WORK_BUDGET`
    per-source BFS steps, an upper bound for both kernels, it raises
    :class:`TooLargeError` before any BFS runs.
    """
    work = G.order * (G.order + G.size)
    if work > HARARY_WORK_BUDGET:
        raise TooLargeError(
            f"HARARY needs {work} BFS steps (order x (order + size)), "
            f"over the budget of {HARARY_WORK_BUDGET}"
        )
    hist = _distance_histogram(G)
    common = math.lcm(*range(1, len(hist)))
    # every unordered pair is counted once from each end
    total = sum(count * (common // d) for d, count in enumerate(hist) if d)
    return Fraction(total, 2 * common)


def _distance_histogram(G: Graph) -> list[int]:
    """``hist[d]``: ordered vertex pairs at distance d >= 1; ``hist[0]`` is 0.

    Picks the bitset kernel or per-source BFS from the graph's diameter
    estimate; see the module docstring.
    """
    if 4 * _diameter_estimate(G) < G.order:
        return _bitset_histogram(G)
    return _per_source_histogram(G)


def _diameter_estimate(G: Graph) -> int:
    """Depth of the deepest second sweep over the components of ``G``."""
    adj = G.adjacency
    mark, components = _components(adj)
    estimate = 0
    for order, _ in components:
        _, up = _second_sweep(adj, order, mark)
        j, depth = len(up) - 1, 0
        while j:
            j = up[j]
            depth += 1
        estimate = max(estimate, depth)
    return estimate


def _bfs(adj, root: int, mark: list[int], stamp: int) -> tuple[list[int], list[int]]:
    """BFS order of ``root``'s component, and ``up``: position j was found
    by the vertex at position ``up[j]`` (``up[0] == 0``).

    Sets ``mark[v] = stamp`` on every vertex reached; a vertex already
    marked with ``stamp`` counts as reached.
    """
    mark[root] = stamp
    order = [root]
    up = [0]
    for i, v in enumerate(order):
        for u in adj[v]:
            if mark[u] != stamp:
                mark[u] = stamp
                order.append(u)
                up.append(i)
    return order, up


def _components(adj) -> tuple[list[int], list[tuple[list[int], list[int]]]]:
    """``(mark, [(order, up), ...])``: one :func:`_bfs` per component, from
    its lowest vertex s with stamp 2 * s."""
    mark = [-1] * len(adj)
    components = []
    for s in range(len(adj)):
        if mark[s] == -1:
            components.append(_bfs(adj, s, mark, 2 * s))
    return mark, components


def _second_sweep(adj, order: list[int], mark: list[int]) -> tuple[list[int], list[int]]:
    """:func:`_bfs` from the last vertex of a :func:`_components` order, with
    stamp 2 * s + 1; once per component, since it leaves that stamp set."""
    return _bfs(adj, order[-1], mark, 2 * order[0] + 1)


def _bitset_histogram(G: Graph) -> list[int]:
    """All-sources BFS with one bit per source; see the module docstring.

    A vertex stays active while some source first reaches it: every
    vertex is a source, so a vertex that gains nothing at distance d has
    no vertex at distance d and none farther.
    """
    adj = G.adjacency
    seen = [1 << v for v in range(G.order)]
    front = seen[:]
    active = [v for v in range(G.order) if adj[v]]
    hist = [0]
    while active:
        layer = [0] * G.order
        still = []
        count = 0
        for v in active:
            new = 0
            for u in adj[v]:
                new |= front[u]
            s = seen[v]
            new &= ~s
            if new:
                seen[v] = s | new
                layer[v] = new
                count += new.bit_count()
                still.append(v)
        if not count:
            break
        hist.append(count)
        front = layer
        active = still
    return hist


def _per_source_histogram(G: Graph) -> list[int]:
    """One BFS per source vertex."""
    adj = G.adjacency
    hist = [0]
    seen = [-1] * G.order  # seen[v] == s: v reached from source s
    for s in range(G.order):
        seen[s] = s
        frontier = [s]
        d = 0
        while True:
            layer = []
            for v in frontier:
                for u in adj[v]:
                    if seen[u] != s:
                        seen[u] = s
                        layer.append(u)
            if not layer:
                break
            d += 1
            if d == len(hist):
                hist.append(0)
            hist[d] += len(layer)
            frontier = layer
    return hist


def hosoya(G: Graph) -> int:
    """Number of matchings, including the empty matching.

    Multiplies over components; see the module docstring for the tree DP,
    the bitmask recursion and :data:`COUNTING_STATE_BUDGET`.
    """
    return _count(G, "Z")


def merrifield_simmons(G: Graph) -> int:
    """Number of independent vertex sets, including the empty set.

    Multiplies over components; see the module docstring for the tree DP,
    the bitmask recursion and :data:`COUNTING_STATE_BUDGET`.
    """
    return _count(G, "SIGMA")


def _count(G: Graph, index_id: str) -> int:
    """Z or SIGMA: the one component loop of both indices.

    Runs the union-find pre-check first when ``G`` is large enough for one
    component's masks to exceed the budget.
    """
    n = G.order
    if n * _mask_words(n) > COUNTING_STATE_BUDGET:
        _refuse_large_cycles(G, index_id)
    adj = G.adjacency
    deg = G.degrees()
    mark, components = _components(adj)
    # a component is a tree iff its degrees sum to 2 (k - 1); all are
    # when there are order - size components
    forest = len(components) == n - G.size
    matching = index_id == "Z"
    total = 1
    for order, up in components:
        k = len(order)
        if not forest and sum(map(deg.__getitem__, order)) > 2 * k - 2:
            total *= _count_cyclic(adj, order, up, mark, index_id)
            continue
        # per position c, its subtree without order[c] (unmatched; not in
        # the set) and with it (matched; in the set); c folds into up[c]
        without = [1] * k
        with_v = [int(not matching)] * k
        for c in range(k - 1, 0, -1):
            p = up[c]
            t = without[c] + with_v[c]
            if matching:
                with_v[p] = with_v[p] * t + without[p] * without[c]
            else:
                with_v[p] *= without[c]
            without[p] *= t
            # a folded subtree's counts are dropped: holding every
            # vertex's count would take memory quadratic in a long path
            without[c] = with_v[c] = 0
        total *= without[0] + with_v[0]
    return total


def _mask_words(k: int) -> int:
    """64-bit words in one mask over k vertices."""
    return -(-k // 64)


def _over_budget(index_id: str, k: int) -> TooLargeError:
    return TooLargeError(
        f"{index_id} exceeds the counting budget of {COUNTING_STATE_BUDGET} "
        f"mask words on a component with a cycle and at least {k} vertices"
    )


def _refuse_large_cycles(G: Graph, index_id: str) -> None:
    """Raise if a component with a cycle outgrows the budget's masks.

    Union-find over the edges alone, in flat arrays, so that a large graph
    is refused before its adjacency is built.  A merged component only
    grows, so the first one over the budget is refused at once.
    """
    root = array("q", range(G.order))
    size = array("q", [1]) * G.order
    cyclic = bytearray(G.order)
    for u, v in G.edges:
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u == v:
            cyclic[u] = 1
        else:
            if size[u] < size[v]:
                u, v = v, u
            root[v] = u
            size[u] += size[v]
            cyclic[u] |= cyclic[v]
        k = size[u]
        if cyclic[u] and k * _mask_words(k) > COUNTING_STATE_BUDGET:
            raise _over_budget(index_id, k)


def _count_cyclic(adj, vertices: list[int], up: list[int], mark: list[int],
                  index_id: str) -> int:
    """Z or SIGMA of one component by the memoised bitmask recursion.

    The component comes as a :func:`_bfs` order with its ``up`` links and
    the ``mark`` list of :func:`_components`.  It is relabelled to 0..k-1
    in whichever of vertex order, that BFS order and its second sweep has
    the least sum of 2**b_i, vertex order on a tie; b_i counts the vertices
    at positions >= i with a neighbour before i, and 2**b_i bounds the
    masks memoised at depth i.  Frames on the explicit stack are
    ``[mask, child masks, next child, partial sum]``; a mask whose split is
    ``None`` counts 1 and is not memoised.
    """
    k = len(vertices)
    words = _mask_words(k)
    spent = k * words
    if spent > COUNTING_STATE_BUDGET:
        raise _over_budget(index_id, k)
    _, masks = _ordered_masks(adj, vertices, up, mark)
    split = _matching_split if index_id == "Z" else _independent_split

    # a component with a cycle has an edge, so the root always splits
    root = (1 << k) - 1
    memo: dict[int, int] = {}
    stack = [[root, split(root, masks), 0, 0]]
    while stack:
        frame = stack[-1]
        mask, kids, i, total = frame
        while i < len(kids):
            child = kids[i]
            value = memo.get(child)
            if value is None:
                grandkids = split(child, masks)
                if grandkids is not None:
                    break
                value = 1
            total += value
            i += 1
        else:
            spent += words
            if spent > COUNTING_STATE_BUDGET:
                raise _over_budget(index_id, k)
            memo[mask] = total
            stack.pop()
            continue
        frame[2] = i
        frame[3] = total
        stack.append([child, grandkids, 0, 0])
    return memo[root]


def _ordered_masks(adj, bfs: list[int], up: list[int],
                   mark: list[int]) -> tuple[list[int], list[int]]:
    """:func:`_count_cyclic`'s order of one component, and its neighbour masks.

    Once the recursion has decided the vertices before position i, the
    undecided ones it has removed lie among the b_i that have a neighbour
    before i, so it memoises at most 2**b_i masks at that depth.  Vertex
    order's b_i come from its masks, a BFS order's from its ``up`` links
    (see :func:`_bfs_cost`).  Time O(k + edges) operations on k-bit masks;
    the masks are built a second time only when a BFS order is cheaper.
    """
    order = by_vertex = sorted(bfs)
    masks = _masks(adj, by_vertex)
    reached = best = 0
    for i, mask in enumerate(masks, 1):
        reached |= mask
        best += 1 << (reached >> i).bit_count()  # b_k = 0 stands in for b_0
    for candidate, links in ((bfs, up), _second_sweep(adj, bfs, mark)):
        cost = _bfs_cost(links)
        if cost < best:
            best, order = cost, candidate
    if order is by_vertex:
        return order, masks
    return order, _masks(adj, order)


def _masks(adj, order: list[int]) -> list[int]:
    """Neighbour masks of one component relabelled to its positions in ``order``."""
    label = dict(zip(order, range(len(order))))
    masks = []
    for v in order:
        mask = 0
        for u in adj[v]:
            mask |= 1 << label[u]
        masks.append(mask)
    return masks


def _bfs_cost(up: list[int]) -> int:
    """Sum of 2**b_i of a BFS order (see :func:`_ordered_masks`).

    ``up`` never decreases, so positions 0..i have found every position
    before the first j with ``up[j] > i``, and b_{i+1} counts those past
    i.  The last term, 2**b_k = 1, stands in for 2**b_0.
    """
    k = len(up)
    cost = 0
    found = 1
    for i in range(k):
        while found < k and up[found] <= i:
            found += 1
        cost += 1 << (found - i - 1)
    return cost


def _matching_split(mask: int, masks: list[int]) -> list[int] | None:
    """Child masks of Z's recursion, or ``None`` if no edge survives in ``mask``.

    Lower vertices with no surviving neighbour are dropped from the
    children: they match nothing.
    """
    rest = mask
    while rest:
        low = rest & -rest
        nbrs = masks[low.bit_length() - 1] & mask
        if nbrs:
            without = rest ^ low
            kids = [without]
            while nbrs:
                u = nbrs & -nbrs
                kids.append(without ^ u)
                nbrs ^= u
            return kids
        rest ^= low
    return None


def _independent_split(mask: int, masks: list[int]) -> tuple[int, int] | None:
    """Child masks of SIGMA's recursion, or ``None`` for the empty mask."""
    if not mask:
        return None
    low = mask & -mask
    without = mask ^ low
    return without, without & ~masks[low.bit_length() - 1]


_DISPATCH = {
    "M1": first_zagreb,
    "M2": second_zagreb,
    "MN": neighbourhood_zagreb,
    "F": forgotten,
    "Z": hosoya,
    "SIGMA": merrifield_simmons,
    "CHI": randic,
    "HARARY": harary,
}

INDEX_IDS = tuple(_DISPATCH)


def compute_index(G: Graph, index_id: str) -> int | Fraction | float:
    """Compute any supported index by id; see :data:`INDEX_IDS`.

    The value's type is the index's own, as in the module docstring's table.
    """
    try:
        fn = _DISPATCH[index_id]
    except KeyError:
        raise ValueError(f"unknown index id {index_id!r}; expected one of {INDEX_IDS}") from None
    return fn(G)
