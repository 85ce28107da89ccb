"""Tour of the eight topological indices on small graphs.

Builds a few hydrogen-suppressed skeletons and classic graphs, then
prints every index the library computes, showing the exact value types
(integers, one exact rational, one float).
"""

from nbzagreb import (
    INDEX_IDS,
    compute_index,
    cycle_graph,
    neighbourhood_zagreb,
    parse_alkane_name,
    path_graph,
    star_graph,
)


def show(label, graph):
    print(f"{label}  ({graph.order} vertices, {graph.size} edges)")
    for index_id in INDEX_IDS:
        value = compute_index(graph, index_id)
        print(f"    {index_id:7s} = {value}")
    print()


def main():
    print("= Topological indices =\n")
    show("n-octane skeleton P_8", path_graph(8))
    show("cyclohexane skeleton C_6", cycle_graph(6))
    show("neopentane-like star K_{1,4}", star_graph(5))

    print("The neighbourhood Zagreb index squares each vertex's")
    print("neighbour-degree sum.  On the 2,2,4-trimethylpentane skeleton:")
    iso_octane = parse_alkane_name("2,2,4-trimethyl pentane")
    sums = iso_octane.neighbor_degree_sums()
    print(f"    neighbour-degree sums: {sorted(sums)}")
    print(f"    sum of squares       : {neighbourhood_zagreb(iso_octane)}")

    print()
    print("2-regular graphs make the arithmetic visible: every vertex of a")
    print("cycle has neighbour-degree sum 4, so the index is 16 * n:")
    for n in (3, 5, 8, 12):
        print(f"    C_{n:<2d} -> {neighbourhood_zagreb(cycle_graph(n))}")


if __name__ == "__main__":
    main()
