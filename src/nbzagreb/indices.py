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

The five degree indices (M1, M2, MN, F and CHI) take three sweeps over the
edges between them, each at most once per graph: the graph counts its
degrees on first use, M2 and MN share its cached neighbour-degree sums,
and CHI sweeps the edges itself.  M1 and F read only the degree tuple.
MN is the sum of the squared neighbour-degree sums and M2 is
``sum(deg(v) * sum(v)) // 2``, exact because each edge is counted once
from each end.  CHI reads each term ``1.0 / sqrt(deg(u) * deg(v))`` from
a table by degree rank, ``table[rank(u)][rank(v)]``, built once, with one
float object per unordered pair of ranks, so it sums the same floats in
the same order as the definition; an edgeless graph has CHI ``0.0``.  The
ranks are the degrees themselves when the table over every degree up to
the largest, d, has no more entries than the degree tuple,
(d + 1)**2 <= order, which spares a pass over the vertices.  Else they are
the positions of the distinct degrees present, one list entry per vertex,
and the table has at most (|D| + 1)**2 entries, D being the set of
distinct positive degrees: D sums to at least |D|(|D| + 1)/2 and to at
most 2 * size, so |D|**2 < 4 * size.
One ``sum`` sees every term, since CPython 3.12's ``sum`` compensates
over all it is given and carried partial sums give another float; it is
fed one list of terms per block of 4096 edges, so no list of ``size``
terms is made.

The other three are counted by algorithm and bounded by a budget, a
module constant; past it they raise :class:`TooLargeError` before
allocating anything of the refused size.
Each budget's up-front rule, on order and size alone, is one function,
``_check_budget``; ``compute --family`` calls it on a member's planned
order and size (:func:`nbzagreb.families.plan_family`) before building it.

Z, SIGMA and HARARY share one traversal, which HARARY skips on a small
graph with a cycle (below).  Each component is walked by one
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
* A component with a cycle is relabelled to positions 0..k-1 and counted
  by a level DP over them, a transfer matrix: level i maps each set of
  positions >= i still available to its count, and only two levels are
  live at a time.  Level i holds at most 2**b_i sets, where b_i counts
  the vertices at positions >= i with a neighbour before i, so the cost
  depends on the component's shape and labelling rather than its order.
  The labels follow whichever of three orders has the least sum of
  2**b_i, vertex order on a tie: vertex order, the component's BFS order
  and its second sweep.  Choosing takes O(k + edges) operations on k-bit
  masks.

:data:`COUNTING_STATE_BUDGET` bounds that DP in 64-bit mask words, the
unit its memory grows by.  One rule, ``_masks_over_budget``, charges a
k-vertex component with a cycle k * ceil(k / 64) words for its masks and
refuses it, before they are built, past the budget; each set that
branches costs ceil(k / 64) more.  At 2**16 words a refusal comes within
a few seconds and some tens of MB.  The rule is also read on a connected
plan, cyclic iff size >= order, and, when the order alone breaks it, by a
union-find pass over the edges that refuses a large cyclic component
before the adjacency is built, at O(order) memory.

``HARARY`` fills a histogram of ordered vertex pairs per distance, then
builds one ``Fraction`` over the least common multiple of the distances.
Three kernels fill the same exact histogram:

* Per-source BFS runs one BFS from each vertex.  Time
  O(order * (order + size)), memory O(order).
* The bitset kernel runs every source at once (Then et al., "The More the
  Merrier: Efficient Multi-Source Graph Traversal", PVLDB 8(4), 2014):
  after d levels ``ball[v]`` is an int with bit s set when source s is
  within distance d of v.  Level d + 1 ORs each growing ball with its
  neighbours' balls into a copy of the list, and ``hist[d + 1]`` is the
  growth of the balls' summed bit counts.  A ball that stops growing is
  its whole component, so its vertex leaves the loop.  An isolated vertex
  has no pair at a finite distance, so the kernel leaves such vertices out
  and runs on the others, relabelled 0..k-1.  Time about
  diameter * (order + size) big-int operations on order-bit ints, memory
  at most about 2 * order**2 / 8 bytes (about 12.5 MB at order 7071, the
  largest the budget admits).
* The tree kernel takes each component of a forest from the ``up`` links
  of its second sweep: a pair meets at its lowest common ancestor, so the
  histogram follows from the depth profiles of the subtrees, merged small
  into large as the order is folded up (Mohar and Pisanski, J. Math.
  Chem. 2 (1988) 267-277, for the Wiener sum).  Time O(k) for a k-vertex
  tree plus the merges at branching vertices, at most one C-level element
  operation per vertex pair; memory O(k).  The second sweep starts at a
  peripheral vertex, so a path never branches.

The kernel is decided in this order:

1. A graph with a cycle (size >= order) and at most 1001 vertices takes
   the bitset kernel at once, before any BFS: no BFS in it is deeper than
   order - 1 <= 1000, so rule 3 would pick bitsets whatever the sweeps
   found.
2. A forest, a graph with order - size components, takes the tree kernel
   from the second sweeps of its components.
3. On any other graph the deepest second sweep over the components gives
   a diameter estimate L, at least half the largest component diameter.
   The bitset kernel runs when L <= 1000, per-source BFS otherwise.

Bitsets take about L * (order + size) operations on order-bit ints and
per-source BFS order * (order + size) steps on small ints, so the order
all but cancels from their ratio, which grows with L: on cycles, ladders,
prisms, nanotubes, fences and cycles with a long tail of up to 5000
vertices, rule 3 ran each within 1.25 times the faster kernel's time.
:data:`HARARY_WORK_BUDGET` bounds order * (order + size), the per-source
BFS steps, which is an upper bound for all three kernels; it is checked
before the adjacency is read or any BFS runs.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from itertools import accumulate, chain, islice
from operator import add, itemgetter, mul

from .graphs import Graph

#: The order above which Z and SIGMA used to be refused outright.  No
#: library code reads it any more; :data:`COUNTING_STATE_BUDGET` replaced it.
COUNTING_ORDER_LIMIT = 32

#: Budget of the Z and SIGMA level DP on a component with a cycle, in
#: 64-bit mask words (see the module docstring).
COUNTING_STATE_BUDGET = 1 << 16

#: Budget of HARARY in per-source BFS steps, order * (order + size): an
#: upper bound for all three kernels (see the module docstring).
HARARY_WORK_BUDGET = 5 * 10 ** 7

#: Deepest diameter estimate L at which HARARY takes the bitset kernel (see
#: the module docstring).
_BITSET_DEPTH = 1000


class TooLargeError(ValueError):
    """A counting or distance index would exceed its budget (see the module
    docstring); the message names the budget that was hit."""


def neighbourhood_zagreb(G: Graph) -> int:
    """Sum of squared neighbour-degree sums over all vertices."""
    sums = G.neighbor_degree_sums()
    return sum(map(mul, sums, sums))


def first_zagreb(G: Graph) -> int:
    return sum(d * d for d in G.degrees())


def second_zagreb(G: Graph) -> int:
    # each edge uv is counted once from each end: deg(u) * deg(v) is in
    # deg(u) * sum(u) and in deg(v) * sum(v)
    return sum(map(mul, G.degrees(), G.neighbor_degree_sums())) // 2


def forgotten(G: Graph) -> int:
    return sum(d * d * d for d in G.degrees())


#: Edges per list of CHI terms that :func:`randic` hands its one ``sum``.
_CHI_BLOCK = 4096


def randic(G: Graph) -> float:
    """Sum over edges of ``1.0 / sqrt(deg(u) * deg(v))``: the same float
    terms in edge order, read from a table by degree rank (see the module
    docstring)."""
    deg = G.degrees()
    top = max(deg)
    if (top + 1) ** 2 <= G.order:
        # each degree is its own rank
        present, ranks = range(top + 1), deg
    else:
        present = sorted(set(deg))
        rank = [0] * (top + 1)
        for i, d in enumerate(present):
            rank[d] = i
        ranks = [rank[d] for d in deg]
    table: list[list[float]] = []
    for i, a in enumerate(present):
        # below the diagonal, the float objects of the rows above; degree 0
        # is on no edge, so its row is never read
        row = list(map(itemgetter(i), table))
        row += [1.0 / math.sqrt(a * b) for b in present[i:]] if a else [0.0] * len(present)
        table.append(row)
    edges = iter(G.edges)
    # one sum over all the terms: CPython 3.12's sum compensates over what
    # it is given, so carried partial sums would give another float
    blocks = ([table[ranks[u]][ranks[v]] for u, v in islice(edges, _CHI_BLOCK)]
              for _ in range(0, G.size, _CHI_BLOCK))
    return sum(chain.from_iterable(blocks), 0.0)


def harary(G: Graph) -> Fraction:
    """Sum of reciprocal distances over unordered reachable pairs, exact.

    The distance histogram comes from the bitset kernel at once on a graph
    with a cycle and at most 1001 vertices, and from the tree kernel on a
    forest; on any other graph, from the bitset kernel when a double-sweep
    diameter estimate L is at most 1000, and from one BFS per source
    otherwise (see the module docstring).  Over :data:`HARARY_WORK_BUDGET`
    per-source BFS steps, an upper bound for all three kernels, it raises
    :class:`TooLargeError` before any BFS runs.
    """
    _check_budget("HARARY", G.order, G.size)
    hist = _distance_histogram(G)
    common = math.lcm(*range(1, len(hist)))
    # every unordered pair is counted once from each end
    total = sum(count * (common // d) for d, count in enumerate(hist) if d)
    return Fraction(total, 2 * common)


def _distance_histogram(G: Graph) -> list[int]:
    """``hist[d]``: ordered vertex pairs at distance d >= 1; ``hist[0]`` is 0.

    A graph with a cycle and at most 1001 vertices takes the bitset kernel
    before any BFS; a forest goes through the tree kernel, component by
    component; any other graph takes the bitset kernel or per-source BFS
    by its diameter estimate.  See the module docstring.
    """
    # a graph with a cycle is no forest, and no BFS in it is deeper than
    # order - 1: at order - 1 <= _BITSET_DEPTH the depth rule below would
    # pick bitsets whatever the sweeps found
    if G.size >= G.order and G.order <= _BITSET_DEPTH + 1:
        return _bitset_histogram(G)
    adj = G.adjacency
    mark, components = _components(adj)
    ups = [_second_sweep(adj, order, mark)[1] for order, _ in components]
    if len(components) == G.order - G.size:
        hist = [0]
        for up in ups:
            # rooted at a peripheral vertex, a path never branches
            _tree_histogram(up, hist)
        return hist
    # past a depth of about 1000 the bitsets' levels cost more than the
    # sources they share, at any order (see the module docstring)
    if max(map(_depth, ups)) <= _BITSET_DEPTH:
        return _bitset_histogram(G)
    return _per_source_histogram(G)


def _depth(up: list[int]) -> int:
    """Depth of the last position of a :func:`_bfs` ``up`` list, the BFS's
    deepest level."""
    j, depth = len(up) - 1, 0
    while j:
        j = up[j]
        depth += 1
    return depth


def _tree_histogram(up: list[int], hist: list[int]) -> None:
    """Add the ordered-pair distance counts of one tree component to ``hist``.

    The component comes as the ``up`` links of a :func:`_bfs`, and is
    folded from its last position to its first.  Each folded subtree
    keeps its depth profile reversed, last entry first level below its
    parent, so that lifting it one level is an ``append(1)``; see
    :func:`_merge_profiles` for the pairs that meet below a vertex.  Leaves
    are counted per parent and merge as one profile when the parent is
    reached.  The root's profile then counts the pairs that meet at one of
    their ends: a vertex at depth >= d has one ancestor d above it.  Leaves
    ``hist`` without trailing zeros.
    """
    k = len(up)
    # no distance reaches k, and hist[2] takes the leaves' pairs
    hist.extend([0] * (k + 1 - len(hist)))
    profile: list = [None] * k
    leaves = [0] * k
    for c in range(k - 1, -1, -1):
        mine = profile[c]
        count = leaves[c]
        if count:
            # leaves under c meet each other at distance 2
            hist[2] += count * (count - 1)
            mine = [count] if mine is None else _merge_profiles(mine, [count], hist)
        if not c:
            break
        p = up[c]
        if mine is None:
            leaves[p] += 1
            continue
        mine.append(1)
        theirs = profile[p]
        profile[p] = mine if theirs is None else _merge_profiles(theirs, mine, hist)
    if mine:
        depth = len(mine)
        hist[depth:0:-1] = map(add, hist[depth:0:-1], map((2).__mul__, accumulate(mine)))
    # every distance up to the largest one occurs
    hist.append(0)
    del hist[hist.index(0, 1):]


def _merge_profiles(ours: list[int], theirs: list[int], hist: list[int]) -> list[int]:
    """Merge two reversed depth profiles below one vertex, and return the
    merged profile, the longer list reused.

    A vertex i levels below in one and one j levels below in the other are
    i + j apart: the loop runs over the shorter profile and adds one
    C-level row of the longer one to ``hist`` per entry.
    """
    if len(ours) < len(theirs):
        ours, theirs = theirs, ours
    m = len(ours)
    for a, x in enumerate(reversed(theirs), 2):
        hist[a:a + m] = map(add, hist[a:a + m], map((2 * x).__mul__, reversed(ours)))
    ours[m - len(theirs):] = map(add, ours[m - len(theirs):], theirs)
    return ours


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

    A vertex stays active while its ball grows: every vertex is a source,
    so a ball that gains nothing at distance d has no vertex at distance d
    and none farther, and is its whole component from then on.
    """
    adj = G.adjacency
    degrees = G.degrees()
    if 0 in degrees:
        # an isolated vertex is at no finite distance >= 1 from any vertex:
        # run on the others only, relabelled 0..k-1
        kept = [v for v, d in enumerate(degrees) if d]
        label = {v: i for i, v in enumerate(kept)}
        adj = [[label[u] for u in adj[v]] for v in kept]
    k = len(adj)
    ball = [1 << v for v in range(k)]
    active = range(k)
    hist = [0]
    total = k
    while True:
        grown = ball[:]
        still = []
        for v in active:
            b = old = ball[v]
            for u in adj[v]:
                b |= ball[u]
            if b != old:
                grown[v] = b
                still.append(v)
        if not still:
            return hist
        ball, active = grown, still
        count = sum(map(int.bit_count, ball))
        hist.append(count - total)
        total = count


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
    the level DP and :data:`COUNTING_STATE_BUDGET`.
    """
    return _count(G, "Z")


def merrifield_simmons(G: Graph) -> int:
    """Number of independent vertex sets, including the empty set.

    Multiplies over components; see the module docstring for the tree DP,
    the level DP and :data:`COUNTING_STATE_BUDGET`.
    """
    return _count(G, "SIGMA")


def _count(G: Graph, index_id: str) -> int:
    """Z or SIGMA: the one component loop of both indices, after the
    union-find pass when ``G``'s order alone breaks the mask rule."""
    if _masks_over_budget(G.order):
        _refuse_large_cycles(G, index_id)
    adj = G.adjacency
    deg = G.degrees()
    mark, components = _components(adj)
    matching = index_id == "Z"
    total = 1
    for order, up in components:
        k = len(order)
        # a component is a tree iff its degrees sum to 2 (k - 1)
        if sum(map(deg.__getitem__, order)) > 2 * k - 2:
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


def _masks_over_budget(k: int) -> bool:
    """Z and SIGMA's mask rule: k masks of ceil(k / 64) words exceed the budget."""
    return k * _mask_words(k) > COUNTING_STATE_BUDGET


def _over_budget(index_id: str, k: int) -> TooLargeError:
    return TooLargeError(
        f"{index_id} exceeds the counting budget of {COUNTING_STATE_BUDGET} "
        f"mask words on a component with a cycle and at least {k} vertices"
    )


def _check_budget(index_id: str, order: int, size: int) -> None:
    """Refuse ``index_id`` from order and size alone.  For Z and SIGMA the
    graph is connected, so it has a cycle iff ``size >= order``."""
    if index_id == "HARARY" and (work := order * (order + size)) > HARARY_WORK_BUDGET:
        raise TooLargeError(
            f"HARARY needs {work} BFS steps (order x (order + size)), "
            f"over the budget of {HARARY_WORK_BUDGET}"
        )
    if index_id in ("Z", "SIGMA") and size >= order and _masks_over_budget(order):
        raise _over_budget(index_id, order)


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
        if cyclic[u] and _masks_over_budget(size[u]):
            raise _over_budget(index_id, size[u])


def _count_cyclic(adj, vertices: list[int], up: list[int], mark: list[int],
                  index_id: str) -> int:
    """Z or SIGMA of one component by the level DP (see the module docstring).

    The component comes as a :func:`_bfs` order with its ``up`` links and
    the ``mark`` list of :func:`_components`, relabelled by
    :func:`_ordered_masks`.  A set without position i (i matched; next to
    a chosen vertex) carries forward; one with i carries ``rest``, itself
    without i, and ``rest ^ u`` per live later neighbour u (Z) or ``rest``
    without them (SIGMA).  Past the mask rule, only a set that branches,
    where i has a live later neighbour, is charged.
    """
    k = len(vertices)
    if _masks_over_budget(k):
        raise _over_budget(index_id, k)
    words = _mask_words(k)
    spent = k * words
    _, masks = _ordered_masks(adj, vertices, up, mark)
    matching = index_id == "Z"
    level = {(1 << k) - 1: 1}
    for i, mask_i in enumerate(masks):
        bit = 1 << i
        after: dict[int, int] = {}
        get = after.get
        for mask, count in level.items():
            if not mask & bit:
                after[mask] = get(mask, 0) + count
                continue
            rest = mask ^ bit
            nbrs = rest & mask_i
            if nbrs:
                spent += words
                if spent > COUNTING_STATE_BUDGET:
                    raise _over_budget(index_id, k)
            after[rest] = get(rest, 0) + count
            if matching:
                while nbrs:
                    u = nbrs & -nbrs
                    nbrs ^= u
                    child = rest ^ u
                    after[child] = get(child, 0) + count
            else:
                # with no live neighbour both choices of i leave ``rest``
                child = rest ^ nbrs
                after[child] = get(child, 0) + count
        level = after
    return sum(level.values())


def _ordered_masks(adj, bfs: list[int], up: list[int],
                   mark: list[int]) -> tuple[list[int], list[int]]:
    """:func:`_count_cyclic`'s order of one component, and its neighbour masks.

    Once the level DP has decided the positions before i, the later ones
    it has removed lie among the b_i that have a neighbour before i, so
    level i holds at most 2**b_i sets.  Vertex order's b_i come from its
    masks, a BFS order's from its ``up`` links (see :func:`_bfs_cost`).
    Time O(k + edges) operations on k-bit masks; the masks are built a
    second time only when a BFS order is cheaper.
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
