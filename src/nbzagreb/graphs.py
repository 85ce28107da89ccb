"""Immutable simple graphs: construction, traversal, text serialization.

Vertices are dense 0-based integers.  A :class:`Graph` is canonical after
construction (lexicographically sorted edge list, sorted neighbour tuples)
and value-semantic: two graphs compare equal iff they have the same order
and the same edge set.

A graph stores two things, its order and the sorted edge tuple.  It
caches three, each built on first use: the degree tuple (``degrees()``,
one count over the edges), the per-vertex neighbour tuples
(``adjacency``) and the tuple of neighbour-degree sums
(``neighbor_degree_sums()``, one sweep over the edges).  The adjacency is
not stored up front because the degree-based indices, edge-list I/O and
the products read only edges, degrees and the sums, and one container per
vertex (plus the cyclic garbage collector's passes over them) was most of
a large build's cost.  The degrees are not counted up front because an
edge-list round trip and a factor that only feeds a product never read
them.  The sums serve M2, MN and the per-vertex ``neighbor_degree_sum``.
No cache is part of a graph's value: copy and pickle drop all three.
Graphs can be shared between threads: two threads reading a cache of a
fresh graph may both build it, which is harmless because both results
are equal.

Construction has two steps.  ``Graph(order, edge_pairs)`` reads the order
through ``operator.index`` and refuses one above the vertex cap, then
validates every pair and collects its canonical key as the code
``min * order + max`` in a set; the codes are sorted (an int sort, much
cheaper than a tuple sort on shuffled input) and turned back into sorted
``(u, v)`` pairs with ``divmod``.  An id that is not an int (a float, say)
makes its code none either, so ``operator.index`` of the codes' sum, one
C-level pass, refuses it with a ``TypeError`` that names the pair.  The
set is freed before the pairs are made and the sorted codes before they
are stored, and ``parse_edge_list`` hands over its field list through an
iterator alone, which frees it once the last pair is read: each of these
is about the size of the graph, and at most two are alive at once.  One
shared fill step then stores the pairs.  The private
``Graph._from_canonical(order, keys)`` sorts ``keys`` in place by their
first vertex alone and runs the fill step.  Its contract: ``keys`` is a
list of distinct pairs ``(u, v)`` with ``0 <= u < v < order``, which the
graph takes over, and the pairs of each first vertex ``u`` come in
increasing order of ``v``, wherever they lie in the list.  The sort is
stable, so it leaves each such run in its order and yields the canonical
lexicographic order.  It compares one int per step where a tuple sort
makes two rich comparisons, and took about half a tuple sort's time on
the products' pairs.  A builder drops what it no longer reads before it
calls here, so the sort and the fill hold the pairs and what the caller
holds, not the builder's own inputs.  Nothing checks the contract;
it is for builders whose output meets it by construction: the elementary
families and ``random_graph`` here, which emit their pairs in
lexicographic order but for the cycle's closing pair ``(0, n - 1)``, the
last of vertex 0's two; the alkane trees, whose every branch vertex is
new and numbered above all before it; and the products in
:mod:`.products`.

Edge-list text is split into lines once, and both readers skip the same
lines: blank ones and those that start with ``#`` after their whitespace.
The bulk read is one prefix read: json's C scanner reads the other lines,
the rows, joined with their separators made commas, as one JSON array of
ints, with no string made per line or per field.  It keeps the longest
leading run of rows that are two JSON integers split by one space, each
within the digit limit of ``_int_reader``.  It finds the first row that
json cannot read from the position of json's error or, for a run past
the digit limit, which json refuses with no position, as the row of the
first such run.  JSON integers have no leading zero, so a zero-padded run
(``007``) also ends the prefix; the line loop reads it as the same value,
only more slowly.  When every row was read and the header and its count
hold, the graph is built from those fields, with the lines freed first.
Otherwise the line loop resumes once, on the same lines and with the
fields read so far: at the first row not read, at the header's row when
the header is bad, or at the row past the header's count.  It is the
only reader that reports syntax errors, with their line numbers.  With
the int-string limit off, the digit limit is the default one, 4300
digits, since ``int()`` takes time quadratic in the digits it reads.
Both readers give the same graph, or the same error, for every text.
The serializer writes the whole text but its header with one
``%`` format call over all the edges' ids.  This module owns the
int-string limit: one reader (``_int_reader``, for edge-list fields,
locants and the CLI's integer flags), one writer (``_decimal``, for the
CLI's output and the echo) and one echo (``_echo``), which cuts a line,
vertex id, alkane-name text, locant, CLI flag value or list past
``_ECHO_LIMIT`` characters or digits to its head and its length.  It also owns the
package's CSV dialect, ``_csv_text``, which writes the verify report,
the octane dataset, the QSPR pairs and the degeneracy table.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
import sys
from collections.abc import Callable, Iterable
from itertools import chain, islice, repeat
from operator import index, itemgetter

#: Cap on graph order for the families, the products and parsed edge-list
#: headers; wreath products blow up as |V2|^2 * |E1|.
DEFAULT_VERTEX_CAP = 10 ** 6

#: Cap on the edge count of complete graphs and products, worked out from
#: their parameters before any pair is built.
DEFAULT_EDGE_CAP = 10 ** 7


class SizeOverflowError(ValueError):
    """A graph would exceed the vertex cap or the edge cap."""


def _check_cap(subject: str, count: int, *, edges: bool = False, shown=None) -> None:
    """Raise :class:`SizeOverflowError` if ``count`` vertices (with
    ``edges``, edges) exceed their cap; the message names ``shown``, if
    given, in place of ``count``.

    The caps are read at call time, here and in :func:`parse_edge_list`'s
    header checks only, so lowering either constant on this module moves
    every refusal.
    """
    cap = DEFAULT_EDGE_CAP if edges else DEFAULT_VERTEX_CAP
    if count > cap:
        shown = _echo(count) if shown is None else shown
        unit = "edge" if edges else "vertex"
        raise SizeOverflowError(f"{subject} {shown} exceeds {unit} cap {cap}")


#: Longest line, vertex id, alkane-name text, locant, CLI flag value or
#: list that an error message echoes whole.
_ECHO_LIMIT = 60

#: The int-string limit's default, in digits.
_DEFAULT_DIGITS = 4300


def _int_reader() -> tuple[Callable[[str], int], int]:
    """The two parsers' reader of digit runs, and the most digits it reads.

    That is ``int`` and the interpreter's int-string limit, past which
    ``int()`` raises ``ValueError``.  Where the limit is off (0, or missing
    before CPython 3.10.7), ``int()`` reads any length in time quadratic in
    it, so the reader refuses a run past the default limit the same way.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return (int, limit) if limit else (_capped_int, _DEFAULT_DIGITS)


def _capped_int(run: str) -> int:
    if len(run) - run.startswith("-") > _DEFAULT_DIGITS:
        raise ValueError(f"more than {_DEFAULT_DIGITS} digits")
    return int(run)


#: Digits per ``str`` call in :func:`_decimal`: under 640, the lowest
#: limit on int-to-string conversion that CPython lets anyone set.
_DECIMAL_CHUNK = 600


def _decimal(value: int) -> str:
    """``str(value)`` of a nonnegative ``value`` of any length, without
    changing the interpreter-wide limit on int-to-string conversion: halves
    are split off by ``divmod`` until each fits one ``str`` call."""
    if value < 10 ** _DECIMAL_CHUNK:
        return str(value)
    # the low half gets about half the digits (log10(2) > 0.3)
    digits = value.bit_length() * 3 // 20
    high, low = divmod(value, 10 ** digits)
    return _decimal(high) + _decimal(low).zfill(digits)


def _echo(value) -> str:
    """``value``, a line of text (as its ``repr``), a number or a list (as
    its ``str``), as an error message shows it: whole up to ``_ECHO_LIMIT``
    characters or digits, else cut to its first half of that and its
    length.  An int's digits, alone or in a list, come from
    :func:`_decimal`, at any length."""
    if isinstance(value, int):
        if -10 ** _ECHO_LIMIT < value < 10 ** _ECHO_LIMIT:
            return str(value)
        digits = _decimal(abs(value))
        return f"{'-' if value < 0 else ''}{digits[:_ECHO_LIMIT // 2]}... ({len(digits)} digits)"
    text = f"[{', '.join(map(_listed, value))}]" if isinstance(value, list) else str(value)
    shown = repr if isinstance(value, str) else str
    if len(text) <= _ECHO_LIMIT:
        return shown(text)
    return f"{shown(text[:_ECHO_LIMIT // 2])}... ({len(text)} characters)"


def _listed(item) -> str:
    """``item`` as ``str`` of a list shows it, an int through :func:`_decimal`
    where ``str`` could meet the int-string limit."""
    if isinstance(item, int) and not -10 ** _DECIMAL_CHUNK < item < 10 ** _DECIMAL_CHUNK:
        return f"{'-' if item < 0 else ''}{_decimal(abs(item))}"
    return repr(item)


def _csv_text(header, rows) -> str:
    """The package's one CSV dialect: ``header``, then ``rows``, written by
    ``csv.writer`` with bare newline line ends.  ``None`` is an empty cell
    and any other value is its ``str``, which for a float is its ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class GraphError(ValueError):
    """Base class for graph construction and parsing errors."""


def _check_order(order: int) -> int:
    """``order`` as an int; refuse one that is not an integer, below 1, or
    above the vertex cap before any per-vertex list is allocated."""
    order = index(order)
    if order < 1:
        raise GraphError(f"order must be >= 1, got {_echo(order)}")
    _check_cap("order", order)
    return order


class LoopEdgeError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """The same unordered vertex pair appears twice in an edge list."""


class VertexOutOfRangeError(GraphError):
    """A vertex id falls outside ``0 .. order-1``."""


def _out_of_range(u, v, order: int) -> VertexOutOfRangeError:
    """The error for a pair ``(u, v)`` with a vertex outside ``0..order-1``."""
    return VertexOutOfRangeError(
        f"edge ({_echo(u)}, {_echo(v)}) has a vertex outside 0..{order - 1}"
    )


def _not_int(edge_pairs: Iterable[tuple[int, int]], codes: list) -> TypeError:
    """The error for pairs whose sorted ``codes`` hold one that is not an
    int: it names the first pair with such an id, in input order, where
    ``edge_pairs`` can be read again, and else the lowest such code's type."""
    if iter(edge_pairs) is not edge_pairs:
        for u, v in edge_pairs:
            for w in (u, v):
                if not hasattr(type(w), "__index__"):
                    return TypeError(f"edge ({_echo(u)}, {_echo(v)}) has a vertex id "
                                     f"of type {type(w).__name__}, not int")
    code = next(code for code in codes if not hasattr(type(code), "__index__"))
    return TypeError(f"an edge has a vertex id of type {type(code).__name__}, not int")


class EdgeListSyntaxError(GraphError):
    """Malformed edge-list text.  ``line`` is the offending 1-based line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Graph:
    """An immutable undirected simple graph.

    ``Graph(order, edge_pairs)`` validates every pair: loops, duplicate
    pairs (in either orientation) and out-of-range vertex ids are rejected
    with an error naming the offending pair.

    Stored: ``_order`` and the sorted ``_edges``.  Cached: ``_degrees`` is
    ``None`` until ``degrees`` is first called, which counts them over the
    edges and caches the tuple; ``_adj`` is ``None`` until ``adjacency`` is
    first read, which builds the neighbour tuples from the edges; ``_sums``
    is ``None`` until ``neighbor_degree_sums`` is first called, which fills
    it the same way.
    """

    __slots__ = ("_order", "_adj", "_edges", "_degrees", "_sums")

    def __init__(self, order: int, edge_pairs: Iterable[tuple[int, int]] = ()):
        order = _check_order(order)
        seen: set[int] = set()
        # the orientation first, then only the two range tests it leaves
        for u, v in edge_pairs:
            if u < v:
                if u < 0 or v >= order:
                    raise _out_of_range(u, v, order)
                code = u * order + v
            elif v < u:
                if v < 0 or u >= order:
                    raise _out_of_range(u, v, order)
                code = v * order + u
            else:
                # both ids tested: a NaN is neither below, above nor equal
                if not (0 <= u < order and 0 <= v < order):
                    raise _out_of_range(u, v, order)
                raise LoopEdgeError(f"edge ({u}, {v}) is a self-loop")
            if code in seen:
                raise DuplicateEdgeError(f"edge ({u}, {v}) appears more than once")
            seen.add(code)
        codes = sorted(seen)
        del seen  # not held while the pairs are made
        try:
            # an id that is not an int makes its code and the sum none either
            index(sum(codes))
        except TypeError:
            raise _not_int(edge_pairs, codes) from None
        keys = list(map(divmod, codes, repeat(order)))
        del codes
        self._fill(order, keys)

    @classmethod
    def _from_canonical(cls, order: int, keys: list[tuple[int, int]]) -> Graph:
        """Trusted construction of distinct pairs ``u < v < order``, each
        first vertex's pairs in increasing order of ``v``; see the module
        docstring for the contract and its builders."""
        graph = object.__new__(cls)
        # stable, so each first vertex's pairs keep their increasing order
        keys.sort(key=itemgetter(0))
        graph._fill(order, keys)
        return graph

    def _fill(self, order: int, keys: list[tuple[int, int]]) -> None:
        """Store ``keys``, sorted canonical pairs, with no cache built."""
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_edges", tuple(keys))
        object.__setattr__(self, "_degrees", None)
        object.__setattr__(self, "_adj", None)
        object.__setattr__(self, "_sums", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the validating
        # constructor; the cached degrees, adjacency and sums are not
        # carried over
        return (Graph, (self._order, self._edges))

    @property
    def order(self) -> int:
        """Number of vertices."""
        return self._order

    @property
    def size(self) -> int:
        """Number of edges."""
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as sorted ``(u, v)`` pairs with ``u < v``."""
        return self._edges

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex sorted neighbour tuples, built on first use."""
        adj = self._adj
        if adj is None:
            # appending in sorted edge order leaves every neighbour list
            # sorted (lower neighbours first, then upper)
            lists: list[list[int]] = [[] for _ in range(self._order)]
            for u, v in self._edges:
                lists[u].append(v)
                lists[v].append(u)
            adj = tuple(map(tuple, lists))
            object.__setattr__(self, "_adj", adj)
        return adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.degrees()[v]

    def degrees(self) -> tuple[int, ...]:
        """Every vertex's degree, counted over the edges on first use, then
        cached."""
        degrees = self._degrees
        if degrees is None:
            counts = [0] * self._order
            for u, v in self._edges:
                counts[u] += 1
                counts[v] += 1
            degrees = tuple(counts)
            object.__setattr__(self, "_degrees", degrees)
        return degrees

    def neighbor_degree_sum(self, v: int) -> int:
        """Sum of the degrees of the neighbours of ``v``."""
        self._check_vertex(v)
        return self.neighbor_degree_sums()[v]

    def neighbor_degree_sums(self) -> tuple[int, ...]:
        """Every vertex's neighbour-degree sum, from one sweep over the
        edges on first use, then cached."""
        sums = self._sums
        if sums is None:
            degrees = self.degrees()
            counts = [0] * self._order
            for u, v in self._edges:
                counts[u] += degrees[v]
                counts[v] += degrees[u]
            sums = tuple(counts)
            object.__setattr__(self, "_sums", sums)
        return sums

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self.adjacency[u]

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._order):
            raise VertexOutOfRangeError(
                f"vertex {_echo(v)} outside 0..{self._order - 1}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._order == other._order and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._order, self._edges))

    def __repr__(self) -> str:
        return f"Graph(order={self._order}, size={self.size})"


# ---------------------------------------------------------------------------
# Elementary families

# Every builder here emits distinct pairs (u, v) with 0 <= u < v < n by
# construction, so it checks n and then builds through the trusted fill:
# validating such pairs one by one would only cost time.  The path, cycle
# and complete builders check n through their size functions, which the
# family plan also sizes factors through (_SIZES), with nothing built.

def empty_graph(n: int) -> Graph:
    return Graph._from_canonical(_check_order(n), [])


def path_graph(n: int) -> Graph:
    """P_n: vertices 0..n-1 joined consecutively."""
    size = _path_size(n)
    return Graph._from_canonical(size + 1, [(i, i + 1) for i in range(size)])


def _path_size(n: int) -> int:
    return _check_order(n) - 1


def cycle_graph(n: int) -> Graph:
    """C_n for n >= 3."""
    n = _cycle_size(n)
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((0, n - 1))
    return Graph._from_canonical(n, edges)


def _cycle_size(n: int) -> int:
    if n < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {_echo(n)}")
    return _check_order(n)


def complete_graph(n: int) -> Graph:
    """K_n, refused over the edge cap before any pair is built."""
    _complete_size(n)
    n = index(n)
    return Graph._from_canonical(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _complete_size(n: int) -> int:
    size = n * (n - 1) // 2
    _check_cap("size", size, edges=True)
    _check_order(n)
    return size


#: Each builder's size function, by the builder's name, which a wrapper made
#: with ``functools.wraps`` (a tracer's, say) keeps.
_SIZES = {"path_graph": _path_size, "cycle_graph": _cycle_size, "complete_graph": _complete_size}


def star_graph(n: int) -> Graph:
    """K_{1,n-1}: vertex 0 joined to every other vertex."""
    n = _check_order(n)
    return Graph._from_canonical(n, [(0, i) for i in range(1, n)])


# ---------------------------------------------------------------------------
# Edge-list text format
#
#   # comment lines ("#" after optional whitespace) and blank lines anywhere
#   n m
#   u v          (exactly m lines, 0 <= u,v < n)
#
# A field is an optional "-" and 1 to the interpreter's int-string limit
# (4300 by default, and 4300 where the limit is off) of ASCII digits, with
# no "+" and no "_"; any whitespace separates the two fields of a line.

def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a canonical :class:`Graph`.

    A header order above :data:`DEFAULT_VERTEX_CAP` is rejected on the
    header line, before anything of that size is allocated.
    """
    lines = text.splitlines()
    # the line loop's skip rule: a line blank or "#" after its whitespace
    rows = [line for line in lines if (head := line.lstrip()) and head[0] != "#"]
    nums = _bulk_fields(rows)
    stop = len(nums) // 2  # the rows read, the header's among them
    if stop and 1 <= nums[0] <= DEFAULT_VERTEX_CAP and nums[1] >= 0:
        if stop == len(rows) == nums[1] + 1:
            order = nums[0]
            fields = islice(nums, 2, None)
            # the iterator frees the field list once the build has read its last pair
            del lines, rows, nums
            return Graph(order, zip(fields, fields))
        # the line loop raises "more than count edge lines" at the row past the count
        stop = min(stop, nums[1] + 1)
    else:
        stop = 0  # the line loop reads the header and names what is wrong with it
    del nums[2 * stop:]
    # rows[stop], if any, is lines[at] for some at >= stop, found by identity
    # since rows repeat.  splitlines shares a string object between equal
    # lines only below two characters, and no line from stop to at shares
    # one with rows[stop]: skipped lines never equal a row, and rows read
    # have three characters or more (CPython's splitlines; a test pins it)
    row = rows[stop] if stop < len(rows) else None
    at = stop
    while at < len(lines) and lines[at] is not row:
        at += 1
    del rows
    return _parse_lines(lines, at, nums)


#: Deletes the characters a bulk-read field may hold, leaving the separators.
_FIELD_CHARS = str.maketrans("", "", "-0123456789")

#: Turns the bulk-read separators into JSON array commas.
_COMMAS = str.maketrans(" \n", ",,")


def _bulk_fields(rows: list[str]) -> list[int]:
    """The fields, as ints, of the longest leading run of ``rows`` that read
    as two runs of ASCII digits and ``-`` split by one space, each run a JSON
    integer that the :func:`_int_reader` reader reads.

    The runs are read as one JSON array by json's C scanner.  JSON's
    integers, ``-?(0|[1-9][0-9]*)``, are the field grammar's without a
    leading zero, so the prefix ends at a zero-padded run (``007``,
    ``-01``) and the line loop reads it.  On the rows read here this
    reader and the line loop read the same values.
    """
    data = "\n".join(rows)
    # one space per row and nothing else besides digits and "-"; an empty
    # run becomes ",,", a leading "," or a trailing ",", which json refuses;
    # the comparison spares a clean text the match, 1-2 % of its parse
    seps = data.translate(_FIELD_CHARS) + "\n"
    stop = len(rows) if seps == " \n" * len(rows) else re.match("(?: \n)*", seps).end() // 2
    del seps  # not held while the JSON document is built and read
    read, cap = _int_reader()
    while True:
        if stop < len(rows):
            data = "\n".join(rows[:stop])
        doc = "[" + data.translate(_COMMAS) + "]"
        try:
            # the scanner calls back into Python only where read is not int
            return json.loads(doc, parse_int=read)
        except json.JSONDecodeError as exc:
            at = exc.pos
        except ValueError:
            # the reader refuses a run past its digit limit, and json says
            # not where; json reads left to right and refuses a zero-padded
            # run with a position, so it is the first run that long
            at = re.search(f"(?<![0-9])[0-9]{{{cap + 1}}}", doc).start()
        # every row before the one that holds ``at`` was read: the row of
        # the field after its commas
        stop = doc.count(",", 0, at) // 2


def _parse_lines(lines: str | list[str], at: int = 0, nums: list[int] | None = None) -> Graph:
    """The line-by-line reader: the only one that reports syntax errors.

    It reads ``lines``, a text's ``splitlines()``, from index ``at`` on,
    after ``nums``, the fields of the header and the edges that the lines
    before it hold, and takes ``nums`` over; called with a text alone, it
    reads the whole text and is the reference the bulk read must match.
    """
    lines = lines.splitlines() if isinstance(lines, str) else lines
    nums = [] if nums is None else nums
    # a data line of the grammar, stripped: \s is str.isspace, as in split()
    # and strip(), and [0-9] since int() also reads "1_0", "+2" and
    # non-ASCII digits; blank and comment lines never match
    row_of = re.compile(r"(-?[0-9]+)\s+(-?[0-9]+)").fullmatch
    read, cap = _int_reader()
    lineno = at
    for lineno, raw in enumerate(islice(lines, at, None), at + 1):
        line = raw.strip()
        row = row_of(line)
        if row is None:
            if not line or line[0] == "#":
                continue
            count = len(line.split())
            if count != 2:
                raise EdgeListSyntaxError(f"expected two fields, got {count}", lineno)
            raise EdgeListSyntaxError(f"non-integer field in {_echo(line)}", lineno)
        x, y = row.groups()
        try:
            a, b = read(x), read(y)
        except ValueError:
            # the reader refuses a field of the grammar only past its cap
            raise EdgeListSyntaxError(f"field longer than {cap} digits", lineno) from None
        if not nums:
            if a < 1 or b < 0:
                raise EdgeListSyntaxError(f"bad header {_echo(line)}", lineno)
            if a > DEFAULT_VERTEX_CAP:
                raise EdgeListSyntaxError(
                    f"order {_echo(a)} exceeds vertex cap {DEFAULT_VERTEX_CAP}", lineno
                )
        elif len(nums) // 2 > nums[1]:
            raise EdgeListSyntaxError(f"more than {_echo(nums[1])} edge lines", lineno)
        nums += a, b
    # lineno is the last line's number, 0 for a text without lines
    if not nums:
        raise EdgeListSyntaxError("missing 'n m' header", lineno or 1)
    found = len(nums) // 2 - 1
    if found != nums[1]:
        raise EdgeListSyntaxError(f"expected {_echo(nums[1])} edge lines, found {found}", lineno)
    fields = islice(nums, 2, None)
    return Graph(nums[0], zip(fields, fields))


def serialize_edge_list(G: Graph) -> str:
    """Serialize ``G``; ``parse_edge_list`` inverts this exactly."""
    return f"{G.order} {G.size}\n" + "%d %d\n" * G.size % tuple(chain.from_iterable(G.edges))


# ---------------------------------------------------------------------------
# Seeded random graphs

def random_graph(order: int, edge_probability: float, seed: int) -> Graph:
    """Erdos-Renyi style G(n, p), reproducible by construction.

    The generator is fixed: a Mersenne Twister seeded with ``seed`` draws
    one uniform variate per vertex pair, pairs enumerated in lexicographic
    order ``(0,1), (0,2), ..., (n-2,n-1)``; the pair becomes an edge iff
    the variate is ``< edge_probability``.  Identical arguments therefore
    always produce the identical graph.
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {edge_probability}")
    order = _check_order(order)
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if rng.random() < edge_probability
    ]
    return Graph._from_canonical(order, edges)
