"""Integer bases of the S_n-isotypic multiplicity spaces of a degree slice.

S_n permutes the variables of the degree-d slice V_d (sigma sends x_i to
x_sigma(i)).  For a partition lam of n, let T be the first standard tableau
of shape lam (`representations.standard_tableaux`), R(T) the permutations
of its rows and C(T) those of its columns.  The Young symmetrizer

    e_T = sum over tau in C(T) of sgn(tau) tau . sum over sigma in R(T) of sigma

satisfies e_T e_T = (n! / f_lam) e_T, f_lam the number of standard tableaux
of shape lam, and e_T V_d is the multiplicity space of the irreducible
S^lam: V_d is the direct sum over lam of e_T V_d (x) S^lam, so the sum of
f_lam dim e_T V_d is dim V_d.  The monomials whose exponents repeat with
multiplicities nu span a copy of the permutation module M^nu, and
e_T M^nu has dimension the Kostka number K_{lam nu}.

`block_basis` takes e_T(m) for every monomial m whose exponents fill T
semistandardly (weakly increasing along rows, strictly up columns): an
orbit of type nu has K_{lam nu} of them.  One exact elimination over Z
checks them independent, and `certify_cover` counts them against the
slice, sum of f_lam |B_lam| = dim V_d, which makes each B_lam a basis of
e_T V_d.  `block_rows` multiplies a matrix over Z[q] by that basis, and
`pivot_rows` picks rows by the pivots of the target bases; each certifies
the cover of every degree whose bases it reads, so a basis that falls short
raises AssertionError instead of giving a wrong rank.  The blocks have four
consumers, none of which calls `certify_cover` itself:
`specialize.bad_q_candidates`, `stable_kernel` (harmonic slices),
`stable_span` (hit and truncated-hit slices) and `block_ranks`, which gives
the multiplicities of the irreducibles in harm and hit slices with no basis
(`spaces.block_multiplicities`, read by `character` and, through
`spaces.block_dimension`, by every CLI cell that prints only a dimension and
by `specialize.specialized_dimension`).  All but the truncated hits read
`pivot_rows` of the same integer stacks of the monomial rules
(`spaces.rule_stacks`), so a harm or hit slice and its dimension are solved
on the same rows.

For an S_n-equivariant matrix M on V_d (such as the stacked down operators)
a constant change of basis on both sides gives M = direct sum of
M_lam (x) I_{f_lam}, and M . B_lam = C . M_lam for a constant injection C.
So rank M = sum of f_lam rank(M . B_lam) (`block_ranks`), and the gcd of
the maximal minors of M over Q[q] is, up to a unit, the product of
gcd(M . B_lam)^f_lam (`specialize.bad_q_candidates`, which certifies each
block's rank by itself).

Most rows of M . B_lam are redundant, and `pivot_rows` drops them exactly.
Let M stack maps M_k : V_d -> V_{d-k}, each with one row per monomial of
degree d - k.  M_k commutes with S_n, so it maps e_T V_d into e_T V_{d-k},
and the columns of M_k . B_lam(d) are combinations of the vectors of
B_lam(d - k): M_k . B_lam(d) = C . X with C = B_lam(d - k) as columns.  The
exact elimination that checks B_lam(d - k) independent leaves its pivot
columns S, on which C_S is square, invertible and constant.  The rows of
M_k . B_lam(d) at S are C_S . X, and all its rows are C . C_S^-1 times
them.  So the rows at S span the same module over Q[q] as all the rows:
same rank, same gcd of maximal minors up to a unit (Cauchy-Binet both
ways), same rank at every rational q and same kernel.  This needs
B_lam(d - k) to span e_T V_{d-k}, which `pivot_rows` certifies
(`certify_cover(n, d - k)`).

The hit slice is the row space of the stacked transposes P_k^T : V_d ->
V_{d-k}, whose row at a monomial m of degree d - k is P_k . m.  They are
S_n-equivariant too: a permutation acts by a permutation matrix S, and
S P_k = P_k S with S^T = S^-1 gives P_k^T S^-1 = S^-1 P_k^T.  So the same
pivot rows and block ranks count hits: dim hit_d = rank M, and for the
D_k, dim harm_d = sum of f_lam (|B_lam| - rank(M . B_lam)).  At a rational
q the pivot rows stay valid, because C is constant.

For rows M whose kernel is S_n-stable, ker(M . B_lam) holds the
coordinates of e_T ker M.  Moved by sigma_{T -> T'} for every standard
tableau T' it gives e_T' ker M, and these f_lam copies span the
lam-isotypic part of ker M.  `stable_kernel` (harmonic slices) and
`stable_span` (hit and truncated-hit slices, the complement of ker M)
take this route past the middle of the harmonic range (`blocks_pay`) and
certify it: the B_lam must cover the slice (`block_rows`) and the spread
must have rank sum of f_lam dim ker(M . B_lam).
A full slice has full blocks, each certified by linalg's mod-p rank, and an
empty spread.  Each block is solved on the rows a caller picks for lam:
the `pivot_rows` of the D_k or P_k^T stacks for harm and hit, which have
the row module of M . B_lam and so the same kernel, and all the rows for
the truncated hits, whose generators P_lambda . h are not a stack of maps
V_d -> V_{d-k}.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations, product
from typing import Callable, Sequence

from . import linalg
from .linalg import (
    SparseIntRow,
    forward_eliminate,
    null_space,
    reduced_echelon,
    rf_rows_to_int,
    row_to_poly,
)
from .polynomials import Polynomial, inversions, monomials_of_degree, permute_monomial
from .representations import sn_character, standard_tableaux
from .scalars import qp_add, qp_scale
from .steenrod import Partition, partitions_of


Group = tuple[tuple[tuple[int, ...], int], ...]
# The rows a block is solved on, by partition lam (see `_spread_kernel`).
RowsOf = Callable[[Partition], list[SparseIntRow]]


def _group(parts: list[tuple[int, ...]], n: int) -> Group:
    """Every (sigma, sign) that permutes the entries within each part."""
    out = []
    for images in product(*(permutations(part) for part in parts)):
        sigma = list(range(1, n + 1))
        for part, image in zip(parts, images):
            for a, b in zip(part, image):
                sigma[a - 1] = b
        perm = tuple(sigma)
        out.append((perm, -1 if inversions(perm) % 2 else 1))
    return tuple(out)


# One entry per shape: every partition of n <= 7 is 44 keys.
@lru_cache(maxsize=64)
def _symmetrizer(
    lam: Partition,
) -> tuple[Group, Group, tuple[tuple[int, int, int], ...]]:
    """R(T) and C(T) for the first standard tableau T of shape lam, as
    (sigma, sign) pairs, and the steps (a, b, s) of T: b follows a along a
    row (s = 0) or up a column (s = 1), entries counted from 0."""
    tableau = next(standard_tableaux(lam))
    n = sum(lam)
    steps = tuple(
        (a - 1, b - 1, s)
        for s, parts in enumerate((tableau.rows, tableau.columns()))
        for part in parts
        for a, b in zip(part, part[1:])
    )
    return _group(tableau.rows, n), _group(tableau.columns(), n), steps


class BlockBasis(tuple):
    """The vectors of `block_basis`; ``pivots`` holds the ascending pivot
    columns of the exact elimination that checked them independent, on
    which the vectors restrict to a square invertible matrix.
    """

    pivots: tuple[int, ...]

    def __new__(cls, vectors: Sequence[dict[int, int]], pivots: Sequence[int]):
        basis = super().__new__(cls, vectors)
        basis.pivots = tuple(pivots)
        return basis


# Bounded above the traffic of the whole test suite in one session (339
# distinct keys; a bound of 256 built 399 of them twice) and of
# `hilbert --kind harm -n 6 -d 15`, the widest command README times (11
# shapes x 16 degrees = 176 keys, which hold 24 MB).
@lru_cache(maxsize=512)
def block_basis(n: int, d: int, lam: Partition) -> BlockBasis:
    """An integer basis of e_T V_d, as sparse vectors over the slice columns.

    Column j is the j-th monomial of `monomials_of_degree(n, d)`.  The basis
    is e_T(m) for every monomial m whose exponents fill T semistandardly:
    m_a <= m_b for a left of b in a row of T, m_a < m_b for a below b in a
    column (the row sum runs over the distinct images of m).  An orbit of
    type nu has K_{lam nu} such m.  The vectors are checked independent by
    one exact elimination over Z, else the call raises AssertionError;
    `certify_cover` makes them a basis.
    """
    row_group, column_group, steps = _symmetrizer(lam)
    index = linalg.slice_index(n, d)
    basis: list[dict[int, int]] = []
    for mono in index:
        if any(mono[a] + s > mono[b] for a, b, s in steps):
            continue
        vec: dict[int, int] = {}
        for image in {permute_monomial(mono, sigma) for sigma, _ in row_group}:
            for tau, sign in column_group:
                j = index[permute_monomial(image, tau)]
                vec[j] = vec.get(j, 0) + sign
        basis.append({j: c for j, c in vec.items() if c})
    rows = [{j: (c,) for j, c in vec.items()} for vec in basis]
    pivots = forward_eliminate(rows, len(index))[0]
    if len(pivots) < len(basis):
        raise AssertionError(f"block basis of {lam} in degree {d} is dependent")
    return BlockBasis(basis, pivots)


def certify_cover(n: int, d: int) -> None:
    """Raise AssertionError unless sum of f_lam |B_lam| = C(n+d-1, d).

    Each B_lam is independent inside e_T V_d (`block_basis`), and the sum of
    f_lam dim e_T V_d is dim V_d, so the count makes every B_lam a basis.
    """
    size = math.comb(n + d - 1, d)
    cover = sum(f * len(block_basis(n, d, lam)) for lam, f in blocks(n))
    if cover != size:
        raise AssertionError(f"block bases cover {cover} of the {size} slice columns")


def block_rows(
    rows: list[SparseIntRow], n: int, d: int, lam: Partition
) -> tuple[list[SparseIntRow], int]:
    """The nonzero rows of M . B_lam and its number of columns.

    M is given by its rows over the degree-d slice; column k of B_lam is the
    k-th vector of `block_basis(n, d, lam)`.  The rows are integer
    combinations of M's entries and keep their content.  The block bases
    must cover the slice (`certify_cover(n, d)`), or the call raises
    AssertionError.
    """
    certify_cover(n, d)
    basis = block_basis(n, d, lam)
    by_column: dict[int, list[tuple[int, int]]] = {}
    for k, vec in enumerate(basis):
        for j, c in vec.items():
            by_column.setdefault(j, []).append((k, c))
    out = []
    for row in rows:
        acc: SparseIntRow = {}
        for j, poly in row.items():
            for k, c in by_column.get(j, ()):
                acc[k] = qp_add(acc.get(k, ()), qp_scale(poly, c))
        acc = {k: v for k, v in acc.items() if v}
        if acc:
            out.append(acc)
    return out, len(basis)


def pivot_rows(
    stacks: dict[int, list[SparseIntRow]], n: int, d: int, lam: Partition
) -> list[SparseIntRow]:
    """The rows of a stack of S_n-equivariant maps that keep M . B_lam's rows.

    stacks[k] is the matrix of a map V_d -> V_{d-k} with every row kept, row
    i at the i-th monomial of `monomials_of_degree(n, d - k)`.  Taken at the
    pivot columns of `block_basis(n, d - k, lam)`, for each k in order, the
    rows times B_lam have the row module of M . B_lam (module docstring).
    That needs the block bases to cover every degree d - k
    (`certify_cover(n, d - k)`), or the call raises AssertionError.
    """
    for k in stacks:
        certify_cover(n, d - k)
    return [
        stack[i]
        for k, stack in stacks.items()
        for i in block_basis(n, d - k, lam).pivots
    ]


def block_ranks(
    stacks: dict[int, list[SparseIntRow]], n: int, d: int
) -> list[tuple[Partition, int, int, int]]:
    """(lam, f_lam, nc_lam, rank M_lam) for every partition lam of n.

    stacks are as for `pivot_rows`; M_lam is the block of their stacked
    matrix M on B_lam(d) (`block_rows` of the `pivot_rows`), with nc_lam =
    |B_lam(d)| columns, so rank M is the sum of f_lam rank M_lam.  Both
    block helpers certify the covers they read, and `linalg.sparse_rank`
    certifies each rank: a mod-P rank equal to its upper bound, or else an
    exact elimination.
    """
    out = []
    for lam, f in blocks(n):
        block, ncols = block_rows(pivot_rows(stacks, n, d, lam), n, d, lam)
        out.append((lam, f, ncols, linalg.sparse_rank(block, ncols)))
    return out


# One entry per n; every block helper reads it through `certify_cover`.
@lru_cache(maxsize=16)
def blocks(n: int) -> tuple[tuple[Partition, int], ...]:
    """Every partition lam of n with f_lam (the character at the identity)."""
    return tuple((lam, sn_character(lam, (1,) * n)) for lam in partitions_of(n))


def blocks_pay(n: int, d: int) -> bool:
    """Whether a slice that is not full is built from the blocks: 4d > n(n-1).

    Past the middle of the classical harmonic range 0..n(n-1)/2 the kernel is
    small next to the slice, and the block kernels with one echelon of their
    spread cost a fraction of the whole-slice elimination (formal harm(5, 7)
    on a 2-core VM: 36 s -> 0.8 s).  Up to the middle they mostly cost more,
    the echelon of some 20 dense spread rows against a sparse elimination:
    formal n = 5 took 1.9-3.2x as long by blocks at d = 4 and 1.4x for harm
    at d = 5 (hit at d = 5 was 1.7x faster).
    """
    return 4 * d > n * (n - 1)


def spread_permutations(lam: Partition) -> list[tuple[int, ...]]:
    """sigma_{T -> T'} for every standard tableau T' of shape lam.

    T is the first standard tableau, the one `block_basis` uses; sigma sends
    the entry in each cell of T to the entry in the same cell of T', so it
    carries e_T W onto e_T' W for every S_n-stable W.
    """
    cells = [[e for row in t.rows for e in row] for t in standard_tableaux(lam)]
    out = []
    for target in cells:
        sigma = [0] * len(target)
        for a, b in zip(cells[0], target):
            sigma[a - 1] = b
        out.append(tuple(sigma))
    return out


def _spread_kernel(rows_of: RowsOf, n: int, d: int) -> tuple[list[SparseIntRow], int]:
    """Rows spanning ker M on the degree-d slice, and the dimension they must span.

    ker M must be S_n-stable, and the block of rows_of(lam) on B_lam must
    have the row module of M . B_lam: all rows of M, or the `pivot_rows` of
    a stack of S_n-equivariant maps.  Then ker(M . B_lam) holds the
    coordinates of ker M meet e_T V_d = e_T ker M, which has dimension the
    multiplicity of S^lam in ker M; lifted through B_lam and moved by every
    sigma_{T -> T'} it spans the lam-isotypic part of ker M, of dimension
    f_lam times that.  The bases must cover the slice (`block_rows`), or the
    call raises AssertionError.
    """
    index = linalg.slice_index(n, d)
    spread: list[SparseIntRow] = []
    dim = 0
    for lam, f in blocks(n):
        basis = block_basis(n, d, lam)
        kernel = rf_rows_to_int(null_space(*block_rows(rows_of(lam), n, d, lam)))
        if not kernel:
            continue
        dim += f * len(kernel)
        moves = [
            [index[permute_monomial(m, sigma)] for m in index]
            for sigma in spread_permutations(lam)
        ]
        for vec in kernel:
            lifted: SparseIntRow = {}
            for k, c in vec.items():
                for j, b in basis[k].items():
                    lifted[j] = qp_add(lifted.get(j, ()), qp_scale(c, b))
            lifted = {j: v for j, v in lifted.items() if v}
            spread.extend({move[j]: v for j, v in lifted.items()} for move in moves)
    return spread, dim


def _certify(rank: int, dim: int) -> None:
    if rank != dim:
        raise AssertionError(
            f"spread block kernels have rank {rank}, their blocks give {dim}"
        )


def block_kernel(rows_of: RowsOf, n: int, d: int) -> list[Polynomial]:
    """`linalg.slice_kernel` of rows whose kernel is S_n-stable, from the blocks
    of rows_of(lam) (`_spread_kernel`).

    The reduced echelon form of the spread block kernels is that of ker M,
    which is unique.  It must have as many rows as the blocks give (the sum
    of f_lam dim ker(M . B_lam)), or the call raises AssertionError.
    """
    columns = monomials_of_degree(n, d)
    spread, dim = _spread_kernel(rows_of, n, d)
    pivots, reduced = reduced_echelon(spread, len(columns))
    _certify(len(pivots), dim)
    return [row_to_poly(row, n, columns) for row in reduced]


def block_span(rows_of: RowsOf, n: int, d: int) -> list[Polynomial]:
    """`linalg.slice_span` of rows whose kernel is S_n-stable, from the blocks
    of rows_of(lam) (`_spread_kernel`).

    The span is the orthogonal complement of K = ker M under the standard
    dot product, i.e. the kernel of K's spread rows, whose reduced echelon
    basis `null_space` reads off K's echelon form in reversed column order:
    e_j - sum over rows of row[j] e_p(row) for each non-pivot column j.  K's
    echelon must have as many rows as the blocks give, or the call raises
    AssertionError.
    """
    columns = monomials_of_degree(n, d)
    spread, dim = _spread_kernel(rows_of, n, d)
    vecs = null_space(spread, len(columns))
    _certify(len(columns) - len(vecs), dim)
    return [row_to_poly(vec, n, columns) for vec in vecs]


def stable_kernel(
    rows: list[SparseIntRow], n: int, d: int, rows_of: RowsOf
) -> list[Polynomial]:
    """Reduced echelon basis of the kernel of integer rows on the degree-d slice.

    The kernel must be S_n-stable; past the middle of the harmonic range it
    comes from the blocks of rows_of(lam) (`blocks_pay`, `block_kernel`),
    elsewhere from all the rows on the whole slice.
    """
    if blocks_pay(n, d):
        return block_kernel(rows_of, n, d)
    return linalg.slice_kernel(rows, n, d)


def stable_span(
    rows: list[SparseIntRow], n: int, d: int, rows_of: RowsOf
) -> list[Polynomial]:
    """Reduced echelon basis of the span of integer rows on the degree-d slice.

    The span must be S_n-stable; past the middle of the harmonic range it
    comes from the blocks of rows_of(lam) (`blocks_pay`, `block_span`),
    elsewhere from all the rows on the whole slice.
    """
    if blocks_pay(n, d):
        return block_span(rows_of, n, d)
    return linalg.slice_span(rows, n, d)
