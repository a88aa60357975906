#!/usr/bin/env python3
"""Exploratory skew-commutation search: operators T with P_k T = T g_k.

The plain commutant is empty for nonzero q, so this relaxes the requirement:
for each generator P_k a fixed right-hand partner g_k is drawn from the
partition basis of the same degree, and the linear system P_k T = T g_k is
solved per choice of partners.  Generators are passed to `commutant_search`
as compositions: (k,) is P_k and a partition lambda is P_lambda.  Results are
reported, never asserted.
"""

import argparse
from itertools import product

from qsteenrod import QParam, partitions_of
from qsteenrod.schubert import commutant_search


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vars", type=int, default=2)
    parser.add_argument("--cap", type=int, default=4)
    parser.add_argument("--q", default="formal")
    args = parser.parse_args()

    n, cap = args.vars, args.cap
    q = QParam.parse(args.q)
    lefts = [(k,) for k in (1, 2)]
    candidates = [list(partitions_of(k)) for k in (1, 2)]
    found = 0
    for choice in product(*candidates):
        solutions = commutant_search(n, cap, q, lefts, choice)
        label = ", ".join(f"g_{k} = P_{lam}" for k, lam in zip((1, 2), choice))
        print(f"{label}: solution dimension {len(solutions)}")
        found += bool(solutions)
    if not found:
        print("no nonzero skew-commuting operator in this candidate family")


if __name__ == "__main__":
    main()
