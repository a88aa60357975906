"""Ranks over Q(q) and at rational points, bounded below by one point mod a prime.

The integer polynomial rows of a sparse matrix over Z[q] are evaluated at one
point q0 by Horner's rule and reduced mod the Mersenne prime P = 2^61 - 1.
A nonzero minor of the evaluated matrix mod P is the image of a nonzero minor
over Z[q], so the rank mod P never exceeds the rank over Q(q).  A mod-P rank
equal to an upper bound, ncols or the number of nonzero rows, therefore
certifies the exact rank with no exact elimination.  It falls short only where
q0 is a common root mod P of the nonzero r x r minors, r the rank over Q(q),
which for a random q0 is rare (Schwartz 1980, Zippel 1979); a caller then
runs its exact elimination, so the answer is always exact.

At a given rational point a/b (P not dividing b) the same reduction, with
q0 = a / b mod P, bounds the rank of the evaluated matrix over Q from below,
and falls short only where P divides every nonzero r x r minor there.

`rank_mod_p` sweeps the evaluated rows column by column with linalg's pivot
loop (`linalg.echelon_sweep`): in each column the row with the fewest
entries pivots, so fill-in stays low whatever the column order (formal
harm(5, 11)'s 1716 x 1365 D_1, D_2 rows, shared 2-core VM: 5.5-8.0 s ->
0.6-1.3 s in natural column order, 1.1-1.6 s -> 0.7-1.6 s reversed, against
the row-by-row reduction it replaced).  An `Echelon` instead reduces rows
one by one against the rows kept before, so more can be added later and no
row is reduced twice: `steenrod.operator_span_rank` adds its probe cells one
degree at a time and stops, building no later cell, once the rank reaches
the number of operators.

Run to completion, with no target, the mod-P rank is a cross-check on a rank
found another way: `specialize.bad_q_candidates` compares it, block by block
(each S_n-isotypic block M . B_lam on its own), with the rank it reads off
that block's diagonalization, generically and at each root, and lets an
exact elimination of the block decide whenever the two differ.

The random q0 comes from a ``random.Random`` seeded by the matrix shape, so
runs and traces reproduce.
"""

from __future__ import annotations

import random
from fractions import Fraction

P = (1 << 61) - 1


def _value(poly: tuple[int, ...], q0: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * q0 + c) % P
    return acc


def _evaluate(row: dict[int, tuple[int, ...]], q0: int) -> dict[int, int]:
    """The nonzero entries of row at q0 mod P."""
    vec = {}
    for j, poly in row.items():
        value = _value(poly, q0)
        if value:
            vec[j] = value
    return vec


def seeded_point(seed: str) -> int:
    """A q0 in [2, P) drawn by a ``random.Random`` seeded with seed."""
    return random.Random(seed).randrange(2, P)


class Echelon:
    """Rows evaluated at q0 mod P, each reduced against the rows kept before
    it and kept, scaled to a unit leading entry, if it stays nonzero.

    The rank, the number of rows kept, only grows as rows are added, and at
    every step is the rank mod P of all the rows added so far.
    """

    def __init__(self, q0: int):
        self.q0 = q0
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: dict[int, tuple[int, ...]]) -> None:
        """Reduce row at q0 against the kept rows; keep it if it stays nonzero."""
        pivots, vec = self.pivots, _evaluate(row, self.q0)
        while vec:
            lead = min(vec)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(vec[lead], -1, P)
                pivots[lead] = {j: v * inv % P for j, v in vec.items()}
                return
            f = vec[lead]
            for j, v in prow.items():
                value = (vec.get(j, 0) - f * v) % P
                if value:
                    vec[j] = value
                else:
                    vec.pop(j, None)

    def extend(self, rows: list[dict[int, tuple[int, ...]]], target: int) -> int:
        """Add rows until the rank reaches target; return the rank."""
        for row in rows:
            if len(self.pivots) == target:
                break
            self.add(row)
        return len(self.pivots)


def _cancel_mod(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """Clear column col of row by the pivot row prow, both mod P, in place.

    prow is first scaled, in place, to a unit entry at col, so only the
    first row cleared by a pivot row pays for the inverse.
    """
    lead = prow[col]
    if lead != 1:
        inv = pow(lead, -1, P)
        for j, v in prow.items():
            prow[j] = v * inv % P
    f = row.pop(col)
    for j, v in prow.items():
        if j != col:
            value = (row.get(j, 0) - f * v) % P
            if value:
                row[j] = value
            else:
                del row[j]
    return row


def rank_mod_p(
    rows: list[dict[int, tuple[int, ...]]],
    ncols: int,
    target: int | None = None,
    point: Fraction | None = None,
) -> int:
    """Rank of rows at a point mod P; a lower bound on the exact rank there.

    The point is the rational ``point`` if given, else a q0 seeded by the
    matrix shape, for which the bound is on the rank over Q(q).  The
    evaluated rows are swept column by column by linalg's pivot loop
    (``linalg.echelon_sweep``: in each column the shortest row holding it
    pivots), so fill-in stays low whatever the column order.  With a target,
    the sweep stops once the rank reaches it, and also once the rows and
    columns left cannot reach it, and the rank found so far is returned;
    without one it runs to completion.
    """
    from .linalg import echelon_sweep  # here: linalg imports this module

    live = [row for row in rows if row]
    if point is None:
        q0 = seeded_point(f"{len(live)}x{ncols}")
    else:
        q0 = point.numerator * pow(point.denominator, -1, P) % P
    work = [vec for vec in (_evaluate(row, q0) for row in live) if vec]
    return len(echelon_sweep(work, ncols, _cancel_mod, target)[0])
