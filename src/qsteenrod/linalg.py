"""Exact linear algebra over Q(q).

Elimination is fraction-free: rows are cleared to integer polynomials in q,
combined by cross-multiplication, and stripped of their common polynomial
factor after every update, so intermediate entries never hold fractions.
The common factor of a row costs one integer gcd of its entries evaluated
at a large point, read back as a polynomial and kept only if it divides
every entry exactly; that division yields the stripped row
(``scalars.qp_common_factor``).
Pivoting is deterministic (leftmost nonzero column, first row wins), which
makes reduced echelon forms canonical and reproducible.
Before eliminating, ``reduced_echelon`` and ``sparse_rank`` try the full-rank
certificate of ``modular.rank_mod_p``: the rank at one seeded point mod a
61-bit prime is a lower bound on the rank over Q(q), so when it already equals
ncols (or min(nonzero rows, ncols) for ``sparse_rank``) the answer is known
exactly: the rank, and, the RREF being unique, the identity rows.  Otherwise
the exact elimination runs as it is.  Rows that are all empty (none at all,
such as the spread of a full slice's block kernels) give the empty echelon
form at once, with neither step.
``kernel_basis`` reads one kernel vector per free column off a reduced
echelon form; ``null_space`` does so with the columns reversed, which yields
the kernel's own reduced echelon basis from the same single elimination.

Polynomials enter this linear algebra through one slice layout: column j of
a degree-d slice is the j-th monomial of ``monomials_of_degree(n, d)``
(descending lex).  ``slice_rows`` turns polynomials into rows over it, and
they leave through one of two solvers: ``slice_span`` (the reduced echelon
basis of the span of the rows) or ``slice_kernel`` (that of their kernel).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Scale a row of rational functions to integer polynomials."""
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

    Cross-multiplies, prow[col] * row - row[col] * prow, and strips the gcd;
    a row without an entry in col comes back as it is.  Pops col from row.
    """
    coef = row.pop(col, None)
    if coef is None:
        return row
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


def forward_eliminate(
    rows: list[SparseIntRow], ncols: int
) -> tuple[list[int], list[SparseIntRow]]:
    """Row echelon form over Z[q]; returns pivot columns and nonzero rows."""
    work = [dict(r) for r in rows if r]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_at = None
        for i in range(rank, len(work)):
            if col in work[i]:
                pivot_at = i
                break
        if pivot_at is None:
            continue
        work[rank], work[pivot_at] = work[pivot_at], work[rank]
        for i in range(rank + 1, len(work)):
            work[i] = _cancel(work[i], work[rank], col)
        pivots.append(col)
        rank += 1
    return pivots, [r for r in work[:rank]]


def reduced_echelon(
    rows: list[SparseIntRow], ncols: int
) -> tuple[list[int], list[SparseRFRow]]:
    """Reduced row echelon form over Q(q) with unit pivots."""
    if not any(rows):
        return [], []
    if modular.rank_mod_p(rows, ncols, ncols) == ncols:
        return list(range(ncols)), [{j: RF_ONE} for j in range(ncols)]
    pivots, ech = forward_eliminate(rows, ncols)
    for k in range(len(pivots) - 1, -1, -1):
        for i in range(k):
            ech[i] = _cancel(ech[i], ech[k], pivots[k])
    reduced: list[SparseRFRow] = []
    for k, row in enumerate(ech):
        pval = row[pivots[k]]
        reduced.append(
            {j: RationalFunction.make(v, pval) for j, v in row.items()}
        )
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


def slice_rows(polys: Iterable[Polynomial], n: int, d: int) -> list[SparseRFRow]:
    """Coordinates of each poly over the degree-d monomials, in one pass.

    Column j is the j-th monomial of ``monomials_of_degree(n, d)``; a zero
    poly gives an empty row, which elimination skips.
    """
    index = {m: j for j, m in enumerate(monomials_of_degree(n, d))}
    rows: list[SparseRFRow] = []
    for p in polys:
        if p.n != n:
            raise VariableCountMismatchError(f"a polynomial in {p.n} variables, not {n}")
        try:
            rows.append({index[m]: c for m, c in p.terms.items()})
        except KeyError:
            raise InhomogeneousError(f"a polynomial outside degree {d}") from None
    return rows


def slice_span(rows: Sequence[SparseRFRow], n: int, d: int) -> list[Polynomial]:
    """Reduced echelon basis of the span of rows of the degree-d slice.

    Columns follow descending lex order, so leading monomials of the output
    strictly decrease and the result is canonical for the span.
    """
    columns = monomials_of_degree(n, d)
    _, reduced = reduced_echelon(rf_rows_to_int(rows), len(columns))
    return [row_to_poly(row, n, columns) for row in reduced]


def slice_kernel(rows: Sequence[SparseRFRow], n: int, d: int) -> list[Polynomial]:
    """Reduced echelon basis of the right kernel of rows of the degree-d slice."""
    columns = monomials_of_degree(n, d)
    vecs = null_space(rf_rows_to_int(rows), len(columns))
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
    return slice_span(slice_rows(live, n, d), n, d)
