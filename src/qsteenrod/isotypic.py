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
orbit of type nu has K_{lam nu} of them.  These vectors depend only on the
pattern in which m repeats its exponents.  Replace each exponent by its
rank among the distinct ones, (3, 1, 1, 0) -> (2, 1, 1, 0), and count
each distinct exponent in increasing order, its orbit type (1, 2, 1): the
increasing map from ranks back to exponents keeps semistandard fillings
semistandard, commutes with permuting the variables and keeps the
descending lex order of the slice columns.  So e_T is built once per shape
and orbit type on the rank tuples (a template, checked independent by one
small exact elimination over Z) and moved onto each orbit of that type.
The templates' pivot columns, moved too, are those one elimination over
the whole slice would find: vectors of different orbits have disjoint
supports, so the basis is independent exactly when every template is, and
greedy pivoting by columns picks the lex-first column basis, orbit by
orbit.  `certify_cover` counts the vectors against the slice, sum of f_lam
|B_lam| = dim V_d, which makes each B_lam a basis of e_T V_d.
`block_rows` multiplies a matrix over Z[q] by that basis, and
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
from collections import defaultdict
from functools import lru_cache
from itertools import groupby, permutations, product
from operator import itemgetter
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


# Per position p of a rank tuple, the bounds that T's steps put on entry p
# from earlier entries: (q, s, True) for r_q + s <= r_p, (q, s, False) for
# r_p + s <= r_q.
Checks = tuple[tuple[tuple[int, int, bool], ...], ...]
# A permutation of the variables acting on exponent tuples, with its sign.
SignedMove = tuple[Callable[[tuple[int, ...]], tuple[int, ...]], int]
# The rows a block is solved on, by partition lam (see `_spread_kernel`).
RowsOf = Callable[[Partition], list[SparseIntRow]]


def _move(sigma: Sequence[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """`permute_monomial` by sigma as one call: entry j of the image is entry
    sigma^-1(j) of the exponents."""
    source = [0] * len(sigma)
    for i, s in enumerate(sigma):
        source[s - 1] = i
    # itemgetter of one index returns the entry, not a 1-tuple.
    return itemgetter(*source) if len(source) > 1 else tuple


# One entry per shape: every partition of n <= 7 is 44 keys.
@lru_cache(maxsize=64)
def _symmetrizer(
    lam: Partition,
) -> tuple[tuple[tuple[int, ...], ...], tuple[SignedMove, ...], Checks]:
    """For the first standard tableau T of shape lam: its rows, C(T) as
    (move, sign) pairs, and the semistandard checks of T (`Checks`) from its
    steps (a, b, s): b follows a along a row (s = 0) or up a column
    (s = 1), and a filling r needs r_a + s <= r_b.  Entries are counted
    from 0."""
    tableau = next(standard_tableaux(lam))
    n = sum(lam)
    checks: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
    for s, parts in enumerate((tableau.rows, tableau.columns())):
        for part in parts:
            for a, b in zip(part, part[1:]):
                if a < b:
                    checks[b - 1].append((a - 1, s, True))
                else:
                    checks[a - 1].append((b - 1, s, False))
    column_group = []
    for images in product(*(permutations(part) for part in tableau.columns())):
        sigma = list(range(1, n + 1))
        for part, image in zip(tableau.columns(), images):
            for a, b in zip(part, image):
                sigma[a - 1] = b
        column_group.append((_move(sigma), -1 if inversions(sigma) % 2 else 1))
    rows = tuple(tuple(a - 1 for a in row) for row in tableau.rows)
    return rows, tuple(column_group), tuple(map(tuple, checks))


def _rank_tuples(counts: tuple[int, ...], checks: Checks) -> list[tuple[int, ...]]:
    """The tuples with counts[r] entries equal to r for each r that pass
    every check of checks, in descending lex order."""
    size, top = len(checks), len(counts) - 1
    left = list(counts)
    rank = [0] * size
    out: list[tuple[int, ...]] = []

    def fill(p: int) -> None:
        if p == size:
            out.append(tuple(rank))
            return
        low, high = 0, top
        for q, s, below in checks[p]:
            if below:
                low = max(low, rank[q] + s)
            else:
                high = min(high, rank[q] - s)
        for r in range(high, low - 1, -1):
            if left[r]:
                rank[p] = r
                left[r] -= 1
                fill(p + 1)
                left[r] += 1

    fill(0)
    return out


def _row_images(
    rank: tuple[int, ...], rows: tuple[tuple[int, ...], ...]
) -> list[tuple[int, ...]]:
    """The distinct images of rank under R(T): every distinct rearrangement
    of its entries within each row of T."""
    images = [rank]
    for row in rows:
        if len(row) == 1:
            continue
        grown = []
        for values in set(permutations([rank[a] for a in row])):
            for image in images:
                new = list(image)
                for a, v in zip(row, values):
                    new[a] = v
                grown.append(tuple(new))
        images = grown
    return images


class BlockBasis(tuple):
    """The vectors of `block_basis`; ``pivots`` holds the ascending pivot
    columns of the exact elimination that checked them independent, on
    which the vectors restrict to a square invertible matrix, and
    ``columns`` the transpose: slice column j -> (k, c, k', c', ...) for
    each vector k with coefficient c != 0 at j, in the order of k (flat: a
    pair per entry would hold most of the basis's memory).
    """

    pivots: tuple[int, ...]
    columns: dict[int, tuple[int, ...]]

    def __new__(cls, vectors: Sequence[dict[int, int]], pivots: Sequence[int]):
        basis = super().__new__(cls, vectors)
        basis.pivots = tuple(pivots)
        columns: defaultdict[int, list[int]] = defaultdict(list)
        for k, vec in enumerate(basis):
            for j, c in vec.items():
                columns[j] += k, c
        basis.columns = {j: tuple(flat) for j, flat in columns.items()}
        return basis


# One entry per orbit type, a composition of n: those of n <= 7 are 127 keys.
@lru_cache(maxsize=256)
def _arrangements(counts: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The position of each rank tuple of orbit type counts (counts[r] entries
    equal to r for each r), in descending lex order."""
    tuples = _rank_tuples(counts, ((),) * sum(counts))
    return {rank: t for t, rank in enumerate(tuples)}


Template = tuple[tuple[int, ...], tuple[dict[int, int], ...], tuple[int, ...]]


# One entry per (shape, orbit type): the partitions and compositions of
# n <= 7 pair into 1481 keys, and a command at n = 7 reads at most
# 15 shapes x 64 types = 960 of them.
@lru_cache(maxsize=2048)
def _template(lam: Partition, counts: tuple[int, ...]) -> Template:
    """e_T on the orbit of rank tuples of type counts: (sources, vectors, pivots).

    sources are the positions (`_arrangements`) of the rank tuples r that
    fill T semistandardly, r_a <= r_b for a left of b in a row of T and
    r_a < r_b for a below b in a column; vectors[i] is e_T(r) for the i-th
    of them over the positions (the row sum runs over the distinct images
    of r); pivots are the ascending pivot positions of the one exact
    elimination over Z that checks the vectors independent, else the call
    raises AssertionError.
    """
    rows, column_group, checks = _symmetrizer(lam)
    fillings = _rank_tuples(counts, checks)
    if not fillings:
        return (), (), ()
    position = _arrangements(counts)
    vectors: list[dict[int, int]] = []
    for rank in fillings:
        vec: dict[int, int] = {}
        for image in _row_images(rank, rows):
            for move, sign in column_group:
                j = position[move(image)]
                vec[j] = vec.get(j, 0) + sign
        vectors.append({j: c for j, c in vec.items() if c})
    echelon_rows = [{j: (c,) for j, c in vec.items()} for vec in vectors]
    pivots = forward_eliminate(echelon_rows, len(position))[0]
    if len(pivots) < len(vectors):
        raise AssertionError(f"block template of {lam} on type {counts} is dependent")
    sources = tuple(position[rank] for rank in fillings)
    return sources, tuple(vectors), tuple(pivots)


# One entry per slice; `hilbert --kind harm -n 6 -d 15`, the widest command
# README times, reads 16 of them, and the test suite fewer than 150.
@lru_cache(maxsize=256)
def _orbits(n: int, d: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(type, columns) for each S_n-orbit of the degree-d monomials.

    The type counts each distinct exponent in increasing order, (1, 2, 1)
    for (3, 1, 1, 0); the columns are those of the orbit's monomials in
    slice order, descending lex, so the t-th is the monomial whose rank
    tuple (each exponent replaced by its rank among the distinct ones) sits
    at position t of `_arrangements(type)`.
    """
    columns_of: dict[tuple[int, ...], list[int]] = {}
    for j, mono in enumerate(monomials_of_degree(n, d)):
        columns_of.setdefault(tuple(sorted(mono)), []).append(j)
    return tuple(
        (tuple(len(list(run)) for _, run in groupby(values)), tuple(columns))
        for values, columns in columns_of.items()
    )


# Bounded above the traffic of the whole test suite in one session (596
# distinct keys; a bound of 256 built 399 of 339 keys twice) and of
# `hilbert --kind harm -n 6 -d 15`, the widest command README times (11
# shapes x 16 degrees = 176 keys, which hold 43 MB with their transposes).
@lru_cache(maxsize=1024)
def block_basis(n: int, d: int, lam: Partition) -> BlockBasis:
    """An integer basis of e_T V_d, as sparse vectors over the slice columns.

    Column j is the j-th monomial of `monomials_of_degree(n, d)`.  The basis
    is e_T(m) for every monomial m whose exponents fill T semistandardly,
    in slice order: K_{lam nu} of them in each orbit of type nu.  Each
    vector is read off the template of its orbit's type (`_template`,
    `_orbits`): an increasing map on the exponent values carries rank
    tuples to the orbit's monomials, keeps semistandard fillings
    semistandard and commutes with permuting the variables.
    The pivots are the union of the templates' pivots, moved onto the
    slice, and they are those of one elimination over the whole slice: the
    map keeps the descending lex order within an orbit, vectors of
    different orbits have disjoint supports, and greedy pivoting by columns
    picks the lex-first column basis, block by block.  By the same disjoint
    supports the basis is independent exactly when every template is
    (`_template` raises AssertionError otherwise); `certify_cover` makes it
    a basis.
    """
    placed: list[tuple[int, dict[int, int]]] = []
    pivots: list[int] = []
    for counts, columns in _orbits(n, d):
        sources, vectors, template_pivots = _template(lam, counts)
        for t, vec in zip(sources, vectors):
            placed.append((columns[t], {columns[s]: c for s, c in vec.items()}))
        pivots.extend(columns[t] for t in template_pivots)
    placed.sort(key=itemgetter(0))
    pivots.sort()
    return BlockBasis([vec for _, vec in placed], pivots)


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
    out = []
    for row in rows:
        acc: SparseIntRow = {}
        for j, poly in row.items():
            flat = iter(basis.columns.get(j, ()))
            for k, c in zip(flat, flat):  # consecutive (k, c) pairs
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
