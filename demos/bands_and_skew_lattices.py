#!/usr/bin/env python3
"""Tour of the table layer: bands, skew lattices, preorders, enumeration."""

from skewalg import (
    chain_lattice,
    check_band,
    check_skew_lattice,
    enumerate_bands,
    enumerate_skew_lattices,
    find_isomorphism,
    greens_relations,
    left_zero,
    rectangular_skew,
    right_zero,
)

LINE = "-" * 64


def show_table(label, table):
    print(f"{label}:")
    for row in table.tolist():
        print("   ", row)


def main():
    print(LINE)
    print("1. Two flavours of idempotent multiplication on three elements")
    print(LINE)
    lz, rz = left_zero(3), right_zero(3)
    show_table("left zero  (x*y = x)", lz)
    show_table("right zero (x*y = y)", rz)
    print("both are bands:", check_band(lz), check_band(rz))
    print("isomorphic?", find_isomorphism(lz, rz) is not None)

    g = greens_relations(lz)
    print("left-zero R-classes:", g.r_classes)
    print("left-zero L-classes:", g.l_classes)

    print()
    print(LINE)
    print("2. A chain is the commutative case")
    print(LINE)
    chain = chain_lattice(4)
    show_table("meet = min", chain.meet)
    show_table("join = max", chain.join)
    pre = chain.preorders
    # On a chain every preorder collapses to the usual numeric order.
    print("le_left == le_right:", pre.le_left.tolist() == pre.le_right.tolist())

    print()
    print(LINE)
    print("3. Rectangular skew lattices are as far from chains as it gets")
    print(LINE)
    rect = rectangular_skew(3)
    report = check_skew_lattice(rect)
    print("all absorption laws hold:", report.ok)
    pre = rect.preorders
    print("le_left relates everything:", all(all(r) for r in pre.le_left.tolist()))
    print("le_right is equality only:",
          pre.le_right.tolist() == [[int(i == j) for j in range(3)] for i in range(3)])

    print()
    print(LINE)
    print("4. Counting small structures up to isomorphism")
    print(LINE)
    for n in (1, 2, 3):
        bands = enumerate_bands(n)
        skews = enumerate_skew_lattices(n)
        print(f"order {n}: {len(bands)} band classes, {len(skews)} skew lattice classes")


if __name__ == "__main__":
    main()
