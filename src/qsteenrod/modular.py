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


def rank_mod_p(
    rows: list[dict[int, tuple[int, ...]]],
    ncols: int,
    target: int | None = None,
    point: Fraction | None = None,
) -> int:
    """Rank of rows at a point mod P; a lower bound on the exact rank there.

    The point is the rational ``point`` if given, else a q0 seeded by the
    matrix shape, for which the bound is on the rank over Q(q).  Rows are
    reduced one by one against rows with unit leading entries.  With a
    target, the reduction stops once the rank reaches it, and also once the
    rows left cannot reach it, and the rank found so far is returned;
    without one it runs to completion.
    """
    live = [row for row in rows if row]
    if point is None:
        q0 = random.Random(f"{len(live)}x{ncols}").randrange(2, P)
    else:
        q0 = point.numerator * pow(point.denominator, -1, P) % P
    pivots: dict[int, dict[int, int]] = {}
    for i, row in enumerate(live):
        if target is not None and (
            len(pivots) == target or len(pivots) + len(live) - i < target
        ):
            break
        vec = {}
        for j, poly in row.items():
            value = _value(poly, q0)
            if value:
                vec[j] = value
        while vec:
            lead = min(vec)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(vec[lead], -1, P)
                pivots[lead] = {j: v * inv % P for j, v in vec.items()}
                break
            f = vec[lead]
            for j, v in prow.items():
                value = (vec.get(j, 0) - f * v) % P
                if value:
                    vec[j] = value
                else:
                    vec.pop(j, None)
    return len(pivots)
