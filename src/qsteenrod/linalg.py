"""Exact linear algebra over Q(q).

Elimination is fraction-free: rows are cleared to integer polynomials in q,
combined by cross-multiplication, and stripped of their common polynomial
factor after every update, so intermediate entries never hold fractions.
The common factor of a row costs one integer gcd of its entries evaluated
at a large point, read back as a polynomial and kept only if it divides
every entry exactly; that division yields the stripped row
(``scalars.qp_common_factor``).
Pivoting is deterministic: columns are swept left to right, and in each the
row with the fewest entries wins, the first on ties (Markowitz's
fill-reducing rule; ``echelon_sweep``).  Pivot columns, ranks, reduced echelon
forms and kernels do not depend on which row pivots, so they are canonical;
only the unreduced rows of ``forward_eliminate`` follow the rule.  The same
loop, with a cancel mod P, is the column sweep of ``modular.rank_mod_p``.
Before eliminating, ``reduced_echelon`` and ``sparse_rank`` try the full-rank
certificate of ``modular.rank_mod_p``: the rank at one seeded point mod a
61-bit prime is a lower bound on the rank over Q(q), so when it already equals
ncols (or min(nonzero rows, ncols) for ``sparse_rank``) the answer is known
exactly: the rank, and, the RREF being unique, the identity rows.  Otherwise
the exact elimination runs as it is.  ``steenrod.operator_span_rank`` asks
the same certificate of its probe cells one source degree at a time
(``modular.Echelon``) and stops at the first degree that gives it, before
the later cells are built.  Rows that are all empty (none at all,
such as the spread of a full slice's block kernels) give the empty echelon
form at once, with neither step.
``kernel_basis`` reads one kernel vector per free column off a reduced
echelon form; ``null_space`` does so with the columns reversed, which yields
the kernel's own reduced echelon basis from the same single elimination.

Constant matrices, such as every matrix at a fixed rational q, are cleared
and eliminated on plain integers.  ``clear_denominators`` scales a row of
constants by the integer lcm of its denominators.  One scan per matrix, which
stops at the first entry that is not a nonzero constant ``(c,)``, picks the
elimination route: ``forward_eliminate`` then unpacks the entries to
``int``s and runs the same pivot loop with an integer ``_cancel`` and gcd
strip, and the back-substitution of ``reduced_echelon`` does the same when
the echelon rows it gets are constant.  The integer route is the Z[q] route
restricted to constants, step for step: the same pivot rule, the same
cross-multiplication ``pval * row - coef * prow`` with entries in the same
dict order, the same division by the positive gcd of the row, the same sign
rule (first column positive) and the same reduced fractions.  So pivots,
rows and reduced echelon forms are identical, and rows leave
``forward_eliminate`` as ``IntPoly`` tuples on either route.  A single
non-constant entry (or an explicit zero ``()``) keeps the whole matrix on
the Z[q] route.

Polynomials enter this linear algebra through one slice layout: column j of
a degree-d slice is the j-th monomial of ``monomials_of_degree(n, d)``
(descending lex), and ``slice_index`` maps each monomial to its column.
``slice_rows`` turns polynomials into rows over it, and they leave through
one of two solvers: ``slice_span`` (the reduced echelon basis of the span of
the rows) or ``slice_kernel`` (that of their kernel).  The solvers take
integer rows: the harm and hit slices come as the integer stacks of the
monomial rules (``spaces.rule_stacks``, the same stacks the block ranks
read), and a caller holding polynomials clears them once, with
``rf_rows_to_int(slice_rows(...))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from . import modular
from .errors import InhomogeneousError, VariableCountMismatchError
from .polynomials import Monomial, Polynomial, monomials_of_degree
from .scalars import (
    IntPoly,
    QP_ONE,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    as_rf,
    qp_common_factor,
    qp_div_exact,
    qp_lcm,
    qp_mul,
    qp_neg,
    qp_sub,
)

SparseIntRow = dict[int, IntPoly]
SparseRFRow = dict[int, RationalFunction]


def clear_denominators(row: SparseRFRow) -> SparseIntRow:
    """Scale a row of rational functions to integer polynomials.

    A row of constants is scaled and stripped on ints, with the same result.
    """
    if all(v.is_constant for v in row.values()):
        lcm = math.lcm(*(v.den[0] for v in row.values()))
        ints = {col: v.num[0] * (lcm // v.den[0]) for col, v in row.items() if v}
        return {col: (c,) for col, c in _strip_int(ints).items()}
    lcm = QP_ONE
    for value in row.values():
        lcm = qp_lcm(lcm, value.den)
    out: SparseIntRow = {}
    for col, value in row.items():
        if value:
            out[col] = qp_mul(value.num, qp_div_exact(lcm, value.den))
    return strip_row_gcd(out)


def strip_row_gcd(row: SparseIntRow) -> SparseIntRow:
    """Divide a row by the gcd of its entries (sign fixed by first column)."""
    if not row:
        return row
    g, quotients = qp_common_factor(list(row.values()))
    negate = row[min(row)][-1] < 0
    if g == QP_ONE and not negate:
        return row
    if negate:
        quotients = [qp_neg(v) for v in quotients]
    return dict(zip(row, quotients))


def _cancel(row: SparseIntRow, prow: SparseIntRow, col: int) -> SparseIntRow:
    """Clear the entry of row in the pivot column col of the pivot row prow.

    Cross-multiplies, prow[col] * row - row[col] * prow, and strips the gcd.
    Pops col from row, which must hold an entry there.
    """
    coef = row.pop(col)
    pval = prow[col]
    new: SparseIntRow = {j: qp_mul(pval, v) for j, v in row.items()}
    for j, v in prow.items():
        if j == col:
            continue
        acc = qp_sub(new.get(j, ()), qp_mul(coef, v))
        if acc:
            new[j] = acc
        else:
            new.pop(j, None)
    return strip_row_gcd(new)


def _strip_int(row: dict[int, int]) -> dict[int, int]:
    """``strip_row_gcd`` on constant entries held as ints."""
    if not row:
        return row
    g = math.gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    elif g == 1:
        return row
    return {j: v // g for j, v in row.items()}


def _cancel_int(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """``_cancel`` on constant entries held as ints."""
    coef = row.pop(col)
    pval = prow[col]
    new = {j: pval * v for j, v in row.items()}
    for j, v in prow.items():
        if j == col:
            continue
        acc = new.get(j, 0) - coef * v
        if acc:
            new[j] = acc
        else:
            new.pop(j, None)
    return _strip_int(new)


def _int_ratio(num: int, den: int) -> RationalFunction:
    """``RationalFunction.make((num,), (den,))`` for nonzero ints."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return RationalFunction((num // g,), (den // g,))


def _constant(rows: Iterable[SparseIntRow]) -> bool:
    """Whether every entry is a nonzero constant; stops at the first that is not."""
    return all(len(v) == 1 for row in rows for v in row.values())


def echelon_sweep(
    work: list[dict], ncols: int, cancel, target: int | None = None
) -> tuple[list[int], list[dict]]:
    """The pivot loop of ``forward_eliminate`` and ``modular.rank_mod_p`` on
    nonzero rows, in place; returns pivot columns and pivot rows.

    Columns are swept left to right.  In each, the row with the fewest
    entries among the rows not yet pivots that hold it (the first on ties)
    becomes the pivot row, and ``cancel(row, prow, col)`` clears the column
    from the others (Markowitz's rule).  Rows that cancel to empty are
    dropped.  With a target, the sweep stops once the rank reaches it, or
    once the rank plus min(rows left, columns left) falls below it.
    """
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        if target is not None and (
            rank == target or rank + min(len(work) - rank, ncols - col) < target
        ):
            break
        hits = [i for i in range(rank, len(work)) if col in work[i]]
        if not hits:
            continue
        best = min(hits, key=lambda i: len(work[i]))
        prow = work[best]
        emptied = False
        for i in hits:
            if i != best:
                work[i] = cancel(work[i], prow, col)
                emptied = emptied or not work[i]
        work[best], work[rank] = work[rank], prow
        rank += 1
        if emptied:
            work[rank:] = [row for row in work[rank:] if row]
        pivots.append(col)
    return pivots, work[:rank]


def forward_eliminate(
    rows: list[SparseIntRow], ncols: int
) -> tuple[list[int], list[SparseIntRow]]:
    """Row echelon form over Z[q]; returns pivot columns and nonzero rows.

    Constant rows are eliminated on ints (module docstring); the rows come
    back as ``IntPoly`` tuples either way.
    """
    live = [r for r in rows if r]
    if not _constant(live):
        return echelon_sweep([dict(r) for r in live], ncols, _cancel)
    pivots, ech = echelon_sweep(
        [{j: v[0] for j, v in r.items()} for r in live], ncols, _cancel_int
    )
    return pivots, [{j: (v,) for j, v in r.items()} for r in ech]


def reduced_echelon(
    rows: list[SparseIntRow], ncols: int
) -> tuple[list[int], list[SparseRFRow]]:
    """Reduced row echelon form over Q(q) with unit pivots."""
    if not any(rows):
        return [], []
    if modular.rank_mod_p(rows, ncols, ncols) == ncols:
        return list(range(ncols)), [{j: RF_ONE} for j in range(ncols)]
    pivots, ech = forward_eliminate(rows, ncols)
    if _constant(ech):
        ech = [{j: v[0] for j, v in r.items()} for r in ech]
        cancel, ratio = _cancel_int, _int_ratio
    else:
        cancel, ratio = _cancel, RationalFunction.make
    for k in range(len(pivots) - 1, -1, -1):
        prow, col = ech[k], pivots[k]
        for i in range(k):
            if col in ech[i]:
                ech[i] = cancel(ech[i], prow, col)
    reduced: list[SparseRFRow] = []
    for k, row in enumerate(ech):
        pval = row[pivots[k]]
        reduced.append({j: ratio(v, pval) for j, v in row.items()})
    return pivots, reduced


def sparse_rank(rows: list[SparseIntRow], ncols: int) -> int:
    bound = min(sum(1 for r in rows if r), ncols)
    if modular.rank_mod_p(rows, ncols, bound) == bound:
        return bound
    return len(forward_eliminate(rows, ncols)[0])


def kernel_basis(
    pivots: list[int], reduced: list[SparseRFRow], ncols: int
) -> list[SparseRFRow]:
    """Kernel vectors from a reduced echelon form, one per free column."""
    pivot_set = set(pivots)
    out: list[SparseRFRow] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec: SparseRFRow = {free: RF_ONE}
        for k, row in enumerate(reduced):
            coef = row.get(free)
            if coef:
                vec[pivots[k]] = -coef
        out.append(vec)
    return out


def null_space(rows: list[SparseIntRow], ncols: int) -> list[SparseRFRow]:
    """Reduced echelon basis of the right kernel of rows, from one elimination.

    Eliminating with the columns reversed (j -> ncols - 1 - j), the kernel
    vector of a free column f is 1 at f, 0 at the other free columns and
    nonzero elsewhere only at pivot columns left of f, i.e. right of f once
    the order is restored.  So, taken in reverse, these vectors have
    increasing unit leading columns that no other vector touches: the
    reduced echelon form of the kernel, unique over Q(q).
    """
    last = ncols - 1
    pivots, reduced = reduced_echelon(
        [{last - j: v for j, v in row.items()} for row in rows], ncols
    )
    vecs = kernel_basis(pivots, reduced, ncols)
    return [{last - j: v for j, v in vec.items()} for vec in reversed(vecs)]


def rf_rows_to_int(rows: Iterable[SparseRFRow]) -> list[SparseIntRow]:
    return [clear_denominators(r) for r in rows]


class Matrix:
    """A dense exact matrix over Q(q); a thin wrapper over the sparse core."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence]):
        self.rows = rows
        self.cols = cols
        self.entries = tuple(
            tuple(as_rf(v) for v in row) for row in entries
        )
        if len(self.entries) != rows or any(len(r) != cols for r in self.entries):
            raise ValueError("entry grid does not match the declared shape")

    def _sparse(self) -> list[SparseIntRow]:
        return rf_rows_to_int(
            {j: v for j, v in enumerate(row) if v} for row in self.entries
        )

    def rank(self) -> int:
        return sparse_rank(self._sparse(), self.cols)

    def kernel(self) -> list[tuple[RationalFunction, ...]]:
        pivots, reduced = reduced_echelon(self._sparse(), self.cols)
        vecs = kernel_basis(pivots, reduced, self.cols)
        return [
            tuple(vec.get(j, RF_ZERO) for j in range(self.cols)) for vec in vecs
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(v) for v in row) for row in self.entries
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


def row_to_poly(row: SparseRFRow, n: int, columns: list[Monomial]) -> Polynomial:
    return Polynomial(n, {columns[j]: c for j, c in row.items()})


# One entry per slice, as `polynomials.monomials_of_degree`'s cache.
@lru_cache(maxsize=256)
def slice_index(n: int, d: int) -> dict[Monomial, int]:
    """The column of each monomial of the degree-d slice: the j-th monomial of
    ``monomials_of_degree(n, d)`` maps to j, in that order.  The dict is
    shared between callers, which only read it."""
    return {m: j for j, m in enumerate(monomials_of_degree(n, d))}


def slice_rows(polys: Iterable[Polynomial], n: int, d: int) -> list[SparseRFRow]:
    """Coordinates of each poly over the degree-d monomials, in one pass.

    Column j is the j-th monomial of ``monomials_of_degree(n, d)``
    (``slice_index``); a zero poly gives an empty row, which elimination
    skips.
    """
    index = slice_index(n, d)
    rows: list[SparseRFRow] = []
    for p in polys:
        if p.n != n:
            raise VariableCountMismatchError(f"a polynomial in {p.n} variables, not {n}")
        try:
            rows.append({index[m]: c for m, c in p.terms.items()})
        except KeyError:
            raise InhomogeneousError(f"a polynomial outside degree {d}") from None
    return rows


def slice_span(rows: list[SparseIntRow], n: int, d: int) -> list[Polynomial]:
    """Reduced echelon basis of the span of integer rows of the degree-d slice.

    Columns follow descending lex order, so leading monomials of the output
    strictly decrease and the result is canonical for the span.
    """
    columns = monomials_of_degree(n, d)
    _, reduced = reduced_echelon(rows, len(columns))
    return [row_to_poly(row, n, columns) for row in reduced]


def slice_kernel(rows: list[SparseIntRow], n: int, d: int) -> list[Polynomial]:
    """Reduced echelon basis of the right kernel of integer rows of the
    degree-d slice."""
    columns = monomials_of_degree(n, d)
    vecs = null_space(rows, len(columns))
    return [row_to_poly(v, n, columns) for v in vecs]


def slice_images(
    apply: Callable[[Polynomial], Polynomial], n: int, d: int, shift: int
) -> list[SparseRFRow]:
    """Matrix of a degree-shift map on the degree-d slice, one row per source.

    Row j is the image of the j-th monomial of degree d, indexed over the
    monomials of degree d + shift; both sides run in descending lex order.
    """
    if d < 0 or d + shift < 0:
        return []
    images = (apply(Polynomial.monomial(n, m)) for m in monomials_of_degree(n, d))
    return slice_rows(images, n, d + shift)


@dataclass(frozen=True)
class GradedOperator:
    """A graded linear map of fixed degree shift: blocks[d] is its matrix
    ``slice_images`` on degree d.  Rows compare as dicts, so equal maps are
    equal whatever order their entries were stored in.
    """

    n: int
    shift: int
    cap: int
    blocks: tuple[tuple[SparseRFRow, ...], ...]

    @staticmethod
    def from_callable(n: int, shift: int, cap: int, func) -> "GradedOperator":
        blocks = (tuple(slice_images(func, n, d, shift)) for d in range(cap + 1))
        return GradedOperator(n, shift, cap, tuple(blocks))

    def __hash__(self) -> int:
        return hash((self.n, self.shift, self.cap))

    def apply(self, p: Polynomial) -> Polynomial:
        d = p.homogeneous_degree()
        if d < 0:
            return p
        if d > self.cap:
            raise ValueError(f"degree {d} beyond the operator cap {self.cap}")
        acc: SparseRFRow = {}
        for mono, image in zip(monomials_of_degree(self.n, d), self.blocks[d]):
            coeff = p.terms.get(mono)
            if coeff:
                for t, value in image.items():
                    acc[t] = acc.get(t, RF_ZERO) + value * coeff
        return row_to_poly(acc, self.n, monomials_of_degree(self.n, d + self.shift))

    def is_zero(self) -> bool:
        return not any(row for block in self.blocks for row in block)


def operator_rows(ops: Sequence[GradedOperator]) -> tuple[list[SparseRFRow], int]:
    """Each operator as one sparse row, and the number of columns.

    The columns are the (degree, source, target) cells that any of the
    operators fills, in sorted order, so a linear relation among the
    operators is one among their rows.
    """
    by_cell = [
        {
            (d, s, t): value
            for d, block in enumerate(op.blocks)
            for s, row in enumerate(block)
            for t, value in row.items()
        }
        for op in ops
    ]
    index = {cell: j for j, cell in enumerate(sorted(set().union(*by_cell)))}
    return [{index[c]: v for c, v in op.items()} for op in by_cell], len(index)


def transpose(rows: Sequence[SparseRFRow], ncols: int) -> list[SparseRFRow]:
    """Sparse transpose; the result has one (possibly empty) row per column."""
    out: list[SparseRFRow] = [dict() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, value in row.items():
            out[j][i] = value
    return out


def echelonize(polys: Sequence[Polynomial]) -> list[Polynomial]:
    """Reduced echelon basis of the span of homogeneous polynomials."""
    live = [p for p in polys if p]
    if not live:
        return []
    n, d = live[0].n, live[0].homogeneous_degree()
    return slice_span(rf_rows_to_int(slice_rows(live, n, d)), n, d)
