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

An `Echelon` keeps the reduced rows, so more can be added later and no row
is reduced twice: `steenrod.operator_span_rank` adds its probe cells one
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
        pivots, vec = self.pivots, {}
        for j, poly in row.items():
            value = _value(poly, self.q0)
            if value:
                vec[j] = value
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


def rank_mod_p(
    rows: list[dict[int, tuple[int, ...]]],
    ncols: int,
    target: int | None = None,
    point: Fraction | None = None,
) -> int:
    """Rank of rows at a point mod P; a lower bound on the exact rank there.

    The point is the rational ``point`` if given, else a q0 seeded by the
    matrix shape, for which the bound is on the rank over Q(q).  Rows are
    reduced one by one against rows with unit leading entries (`Echelon`).
    With a target, the reduction stops once the rank reaches it, and also
    once the rows left cannot reach it, and the rank found so far is
    returned; without one it runs to completion.
    """
    live = [row for row in rows if row]
    if point is None:
        q0 = seeded_point(f"{len(live)}x{ncols}")
    else:
        q0 = point.numerator * pow(point.denominator, -1, P) % P
    echelon = Echelon(q0)
    for i, row in enumerate(live):
        if target is not None and (
            echelon.rank == target or echelon.rank + len(live) - i < target
        ):
            break
        echelon.add(row)
    return echelon.rank
