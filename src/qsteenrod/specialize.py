"""Specialization at rational q and detection of rank-drop values.

A generic harmonic basis made orthogonal and content-free over Z[q]
(`content_free_basis`) stays linearly independent at every rational q, so
the harmonic dimension at q0 is never below the generic one.
`specialized_dimension` counts both dimensions from the certified block
ranks of the constraints, formal and at q0 (`spaces.block_dimension`), and
raises if the latter is smaller.

Rank can only drop under specialization, and it drops exactly at the roots
of the gcd of the maximal minors of an integer-polynomial matrix.  That gcd
(the top determinantal divisor) is computed by unimodular diagonalization
over Q[q] rather than minor enumeration; scaling rows or columns by nonzero
integers along the way only changes it by a unit, so the primitive part is
exact.  Each pivot is the entry of least q-degree, then fewest coefficient
bits, then least Markowitz fill-in count; the pivot order decides only how
large the intermediate entries grow, never the result, because every order
is a unimodular diagonalization with the same determinantal divisors.
The rational roots of the gcd are found by p-adic lifting in integer
arithmetic (`rational_roots`): the roots of its square-free part mod a
prime are lifted, read back as fractions and each certified by an exact
zero test.  The gcd of `bad_q_candidates` is a product of block gcds to
powers, and each distinct block gcd is searched once
(`product_rational_roots`).  Only a rootless cofactor of degree >= 2 is
split into irreducibles, by sympy (`factor_over_z`).  A root is a bad
value only if the harmonic space there is larger than the generic one.

Ranks at the roots are read off the diagonal.  Every step of the
diagonalization (swaps, nonzero integer scalings, adding polynomial
multiples, dividing by an integer content) has a constant nonzero
determinant, so U M V = diag(e_1, ..., e_r) + 0 with U, V invertible over
Q[q].  Evaluating at a rational q0 keeps U(q0), V(q0) invertible, so
rank M(q0) is the number of e_i with e_i(q0) != 0.  The constraint stack
of `bad_q_candidates` is S_n-equivariant and is diagonalized one isotypic
block M . B_lam at a time (`isotypic`, which certifies that its bases
cover every slice it reads), on the rows at the target bases' pivot
monomials, which span the same row module (`isotypic.pivot_rows`); its
rank at q0 is the sum over the blocks of f_lam times that count.  Each
block's diagonal rank is checked against one mod-P rank of that block, run
to completion (`modular.rank_mod_p`), generically and at each root; where
they differ, an exact elimination of the block decides, and a rank that
disagrees with it raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence

from . import modular
from .errors import PoleError
from .isotypic import block_rows, blocks, pivot_rows
from .linalg import SparseIntRow, rf_rows_to_int, row_to_poly, slice_rows, sparse_rank
from .polynomials import Polynomial, monomials_of_degree, scalar_product
from .scalars import (
    FORMAL,
    IntPoly,
    QParam,
    QP_ONE,
    RationalFunction,
    qp_content,
    qp_derivative,
    qp_div_exact,
    qp_eval,
    qp_gcd,
    qp_mul,
    qp_neg,
    qp_primitive,
    qp_pseudo_divmod,
    qp_scale,
    qp_str,
    qp_sub,
    qp_trim,
)
from .spaces import GradedSubspace, block_dimension, generating_degrees, rule_stacks


def specialize_poly(p: Polynomial, q0: Fraction) -> Polynomial:
    """Evaluate every coefficient at q = q0; poles name the offending monomial."""
    terms = {}
    for mono, coeff in p.terms.items():
        try:
            value = coeff.evaluate(q0)
        except PoleError as exc:
            raise PoleError(
                f"coefficient {coeff} of monomial {mono} has a pole at q = {q0}"
            ) from exc
        if value:
            terms[mono] = RationalFunction.from_fraction(value)
    return Polynomial(p.n, terms)


def content_free_basis(v: GradedSubspace) -> list[Polynomial]:
    """A basis over Z[q] that stays a basis under every rational specialization.

    Gram-Schmidt orthogonalization (coordinatewise product, no q in the
    weights) followed by clearing denominators and stripping the content of
    each vector.  This is the content-free lemma: the pairwise dot products
    vanish identically in Z[q], so they vanish at every real q0, and a
    content-free vector cannot vanish at a rational q0 (Gauss's lemma), so
    the specialized family is always linearly independent.  Criterion 17
    and the specialize_poly oracle test check it; `specialized_dimension`
    relies on it instead of running it.
    """
    if v.dim == 0:
        raise ValueError("content-free basis of the zero space")
    ones = lambda mono: 1
    orthogonal: list[Polynomial] = []
    for b in v.basis:
        w = b
        for prev in orthogonal:
            w = w - prev.scale(
                scalar_product(b, prev, ones) / scalar_product(prev, prev, ones)
            )
        orthogonal.append(w)
    columns = monomials_of_degree(v.n, v.degree)
    return [
        row_to_poly({j: RationalFunction.make(c) for j, c in r.items()}, v.n, columns)
        for r in rf_rows_to_int(slice_rows(orthogonal, v.n, v.degree))
    ]


def specialized_dimension(n: int, d: int, q0: Fraction) -> tuple[int, int]:
    """(generic harmonic dimension, direct dimension at q0) in degree d.

    By the content-free lemma (`content_free_basis`) the generic basis
    specializes to an independent family at every rational q0, so its rank
    there is the generic dimension.  The direct dimension, that of the
    harmonics at q0 itself, exceeds the generic one exactly at the bad
    values of q.  Each is read from the certified block ranks of its own
    constraint stacks, formal and at q0 (`spaces.block_dimension`), with no
    basis, and a direct dimension below the generic one contradicts the
    lemma: it raises AssertionError.
    """
    generic = block_dimension("harm", n, d, FORMAL)
    direct = block_dimension("harm", n, d, QParam(q0))
    if direct < generic:
        raise AssertionError(
            f"harmonic dimension {direct} at q = {q0} is below the generic "
            f"{generic} (n = {n}, d = {d})"
        )
    return generic, direct


# ---------------------------------------------------------------------------
# Rank-drop locus of an integer-polynomial matrix


def _swap_to_front(matrix: list[list[IntPoly]], r: int, c: int) -> None:
    matrix[0], matrix[r] = matrix[r], matrix[0]
    for row in matrix:
        row[0], row[c] = row[c], row[0]


def _pivot(matrix: list[list[IntPoly]]) -> tuple[int, int] | None:
    """The nonzero entry of least (q-degree, bits, Markowitz count), or None.

    Bits are the bit length of the entry's largest coefficient; the
    Markowitz count (row nonzeros - 1) * (column nonzeros - 1) bounds the
    fill-in its elimination can cause.  Ties go to the first such entry in
    row-major order.
    """
    row_counts = [sum(1 for v in row if v) for row in matrix]
    col_counts = [sum(1 for row in matrix if row[j]) for j in range(len(matrix[0]))]
    best = None
    best_key = None
    for i, row in enumerate(matrix):
        for j, value in enumerate(row):
            if value:
                key = (
                    len(value),  # q-degree + 1
                    max(abs(c) for c in value).bit_length(),
                    (row_counts[i] - 1) * (col_counts[j] - 1),
                )
                if best_key is None or key < best_key:
                    best, best_key = (i, j), key
    return best


def _diagonalize(rows: Sequence[SparseIntRow], ncols: int) -> list[IntPoly]:
    """The nonzero diagonal of a unimodular diagonalization over Q[q].

    Row and column operations only: swaps, nonzero integer scalings, adding
    polynomial multiples of one row (column) to another, and dividing a row
    (column) by the integer content of its entries.  Each has a constant
    nonzero determinant, so U M V = diag(entries) + 0 with U and V
    invertible over Q[q], and also after evaluation at any rational point.
    Pivots come from _pivot (least q-degree, then coefficient bits, then
    Markowitz count); the order decides only how large the entries grow.
    """
    matrix = [
        [row.get(j, ()) for j in range(ncols)] for row in rows if row
    ]
    diagonal: list[IntPoly] = []
    while matrix and matrix[0]:
        spot = _pivot(matrix)
        if spot is None:
            break
        _swap_to_front(matrix, *spot)
        while True:
            pivot = matrix[0][0]
            dirty = False
            for i in range(1, len(matrix)):
                entry = matrix[i][0]
                if not entry:
                    continue
                # pseudo-division of the row by the pivot row
                quot, _, scale = qp_pseudo_divmod(entry, pivot)
                matrix[i] = [
                    qp_sub(qp_scale(v, scale), qp_mul(quot, matrix[0][j]))
                    for j, v in enumerate(matrix[i])
                ]
                matrix[i] = _content_free(matrix[i])
                if matrix[i][0]:
                    dirty = True
            for j in range(1, len(matrix[0])):
                entry = matrix[0][j]
                if not entry:
                    continue
                quot, _, scale = qp_pseudo_divmod(entry, pivot)
                for row in matrix:
                    row[j] = qp_sub(qp_scale(row[j], scale), qp_mul(quot, row[0]))
                column = _content_free([row[j] for row in matrix])
                for row, value in zip(matrix, column):
                    row[j] = value
                if matrix[0][j]:
                    dirty = True
            if not dirty:
                break
            nxt = _pivot(matrix)
            _swap_to_front(matrix, *nxt)
        diagonal.append(matrix[0][0])
        matrix = [row[1:] for row in matrix[1:]]
        matrix = [row for row in matrix if any(row)]
    return diagonal


class MinorGcd(tuple):
    """The pair (rank, gcd) of `minor_gcd`; ``diagonal`` holds the nonzero
    diagonal entries that both are read from.  Pairs compare as tuples: the
    diagonal depends on the pivot order, the pair does not.
    """

    diagonal: tuple[IntPoly, ...]

    def __new__(cls, diagonal: Sequence[IntPoly]) -> "MinorGcd":
        product: IntPoly = QP_ONE
        for entry in diagonal:
            product = qp_primitive(qp_mul(product, entry))
        if product[-1] < 0:
            product = qp_neg(product)
        pair = super().__new__(cls, (len(diagonal), product))
        pair.diagonal = tuple(diagonal)
        return pair

    def rank_at(self, q0: Fraction) -> int:
        """Rank of the matrix at q = q0: its diagonal entries nonzero there."""
        return sum(1 for entry in self.diagonal if qp_eval(entry, q0))


def minor_gcd(rows: Sequence[SparseIntRow], ncols: int) -> MinorGcd:
    """Generic rank r and the primitive gcd of all r x r minors.

    The product of the diagonal of `_diagonalize` is the top determinantal
    divisor up to a rational unit, reported as a primitive integer
    polynomial with positive leading coefficient.  Determinantal divisors
    are invariant under unimodular operations, so any pivot order gives the
    same rank and primitive gcd; the pivot rule only keeps the entries small
    and the banded constraint stacks sparse.
    """
    return MinorGcd(_diagonalize(rows, ncols))


def _content_free(values: list[IntPoly]) -> list[IntPoly]:
    """Divide the polynomials by the gcd of all their integer coefficients."""
    g = 0
    for v in values:
        g = gcd(g, qp_content(v))
        if g == 1:
            return values
    if g <= 1:
        return values
    return [tuple(c // g for c in v) for v in values]


def rational_roots(p: IntPoly) -> tuple[list[Fraction], IntPoly]:
    """All rational roots of p (as a set) and the rootless cofactor.

    The cofactor is the primitive part of p divided by b*q - a, as often as
    it divides, for each root a/b, with positive leading coefficient; it has
    no rational roots.  The power of q gives the root 0; the other roots are
    those of the square-free part s of the rest, found p-adically (Loos
    1983): every root a/b of s has b | lc(s) and a | s(0), so for a prime P
    not dividing lc(s) it is a root of s mod P, simple when every root of s
    mod P is.  Each root mod P is Newton-lifted to a root mod P^(2^i) >
    2 |lc(s) s(0)| and read back as the unique a/b with |a| <= |s(0)| and
    0 < b <= |lc(s)| by the half-extended Euclidean algorithm.  A candidate
    is kept only if s(a/b) = 0 exactly, which certifies every root returned.
    """
    if not p:
        raise ValueError("the zero polynomial vanishes everywhere")
    shift = next(i for i, c in enumerate(p) if c)
    cofactor = qp_primitive(p[shift:])
    roots = []
    if len(cofactor) > 1:
        repeated = qp_gcd(cofactor, qp_derivative(cofactor))
        roots = _lifted_roots(qp_div_exact(cofactor, repeated))
    for root in roots:
        linear = (-root.numerator, root.denominator)
        while True:
            try:
                cofactor = qp_div_exact(cofactor, linear)
            except ArithmeticError:
                break
    if shift:
        roots.append(Fraction(0))
    if cofactor[-1] < 0:
        cofactor = qp_neg(cofactor)
    return sorted(roots), cofactor


def _power_product(powers: dict[IntPoly, int]) -> IntPoly:
    """The product of g^f over the items (g, f) of powers."""
    out = QP_ONE
    for g, f in powers.items():
        for _ in range(f):
            out = qp_mul(out, g)
    return out


def product_rational_roots(
    powers: dict[IntPoly, int],
) -> tuple[list[Fraction], IntPoly]:
    """`rational_roots` of the product of g^f over the items (g, f) of powers,
    each g primitive with a positive leading coefficient, from each g once.

    The roots of the product are those of its factors.  Each cofactor is
    primitive with a positive leading coefficient and has no rational root,
    so, by Gauss's lemma, the product of the cofactors^f is primitive, has
    none either, and is the cofactor of the product.  This skips the
    square-free part of the product and the division of each root out of it
    as often as the powers repeat it.
    """
    roots: set[Fraction] = set()
    cofactors: dict[IntPoly, int] = {}
    for g, f in powers.items():
        g_roots, g_cofactor = rational_roots(g)
        roots.update(g_roots)
        cofactors[g_cofactor] = cofactors.get(g_cofactor, 0) + f
    return sorted(roots), _power_product(cofactors)


# The first prime the root search tries; larger primes follow while P divides
# the leading coefficient or a root mod P is multiple.  Finding the roots mod P
# costs P evaluations, so it starts small, but above the cross differences
# a*d - b*c of most pairs of roots a/b, c/d met: every minor gcd of
# bad_q_candidates up to n = 5, d = 12 takes the first.
_FIRST_PRIME = 101


def _value_mod(p: IntPoly, x: int, modulus: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % modulus
    return acc


def _next_prime(n: int) -> int:
    """The least prime above n (trial division: the primes tried stay small)."""
    n += 1
    while any(n % f == 0 for f in range(2, isqrt(n) + 1)):
        n += 1
    return n


def _lifted_roots(s: IntPoly) -> list[Fraction]:
    """The rational roots of a square-free s of positive degree with s(0) != 0.

    See `rational_roots`: the roots of s mod the first prime P from
    _FIRST_PRIME that does not divide lc(s) and at which every root of s is
    simple, Newton-lifted, rebuilt as fractions and kept if s vanishes there.
    """
    slope = qp_derivative(s)
    prime = _FIRST_PRIME
    while True:
        if s[-1] % prime:
            residues = [r for r in range(prime) if not _value_mod(s, r, prime)]
            if all(_value_mod(slope, r, prime) for r in residues):
                break
        prime = _next_prime(prime)
    num_bound, den_bound = abs(s[0]), abs(s[-1])
    modulus = prime
    while modulus <= 2 * num_bound * den_bound:
        modulus *= modulus
    roots = []
    for r in residues:
        lifted = prime
        while lifted < modulus:
            lifted *= lifted
            inverse = pow(_value_mod(slope, r, lifted), -1, lifted)
            r = (r - _value_mod(s, r, lifted) * inverse) % lifted
        candidate = _rational_from_residue(r, modulus, num_bound, den_bound)
        if candidate is not None and not qp_eval(s, candidate):
            roots.append(candidate)
    return roots


def _rational_from_residue(
    u: int, modulus: int, num_bound: int, den_bound: int
) -> Fraction | None:
    """The a/b with a = b u mod modulus, |a| <= num_bound, 0 < b <= den_bound.

    Half-extended Euclid on (modulus, u): the remainder r_j = t_j u mod
    modulus that first drops to num_bound or below gives r_j / t_j, which is
    the only such fraction when 2 num_bound den_bound < modulus (von zur
    Gathen and Gerhard, Modern Computer Algebra, 5.10).  None if t_j is out
    of bounds.
    """
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > num_bound:
        quo = r0 // r1
        r0, r1 = r1, r0 - quo * r1
        t0, t1 = t1, t0 - quo * t1
    if not 0 < abs(t1) <= den_bound:
        return None
    return Fraction(r1, t1)


def factor_over_z(p: IntPoly) -> list[IntPoly]:
    """Irreducible integer-polynomial factors of p (content dropped).

    The one use of sympy: `bad_q_candidates` splits only the rootless
    cofactor of the minor gcd here, and a constant one imports nothing.
    """
    if len(p) <= 1:
        return []
    import sympy

    # a Poly built from the coefficient list, not from a symbolic sum: the
    # expression machinery costs about 2 MB of peak memory per process
    _, factors = sympy.Poly(p[::-1], sympy.Symbol("q")).factor_list()
    out = []
    for base, multiplicity in factors:
        coeffs = [int(c) for c in base.all_coeffs()][::-1]
        factor = qp_primitive(qp_trim(tuple(coeffs)))
        if len(factor) > 1:
            out.extend([factor] * multiplicity)
    return sorted(out)


@dataclass(frozen=True)
class BadQReport:
    """Rank-drop analysis of the harmonic constraints in one degree."""

    n: int
    degree: int
    generic_rank: int
    generic_harm_dim: int
    minor_gcd: IntPoly
    rational_roots: tuple[Fraction, ...]  # the roots of the gcd that are jumps
    nonrational_factors: tuple[IntPoly, ...]
    jumps: tuple[tuple[Fraction, int], ...]  # (root, harmonic dim at root)

    def pretty_gcd(self) -> str:
        return qp_str(self.minor_gcd)


def constraint_stacks(
    n: int, d: int, generator_degrees: Sequence[int]
) -> dict[int, list[SparseIntRow]]:
    """Integer matrix of each down operator D_k, k <= d, on the degree-d slice.

    The formal case of `spaces.rule_stacks`: stacks[k] has one row per
    monomial of degree d - k, zero rows kept, as `isotypic.pivot_rows`
    needs, with entries in Z[q] by the monomial rule.  They are kept as they
    are, never divided by a row content: dividing a row by a polynomial in q
    could remove roots of the minor gcd, and those roots are the bad values
    of q.
    """
    return rule_stacks("harm", n, d, FORMAL, generator_degrees)


def harmonic_constraint_rows(
    n: int, d: int, generator_degrees: Sequence[int]
) -> tuple[list[SparseIntRow], int]:
    """Stacked integer matrix of the down operators on the degree-d slice,
    zero rows dropped (`constraint_stacks`), and its number of columns."""
    stacks = constraint_stacks(n, d, generator_degrees)
    rows = [row for stack in stacks.values() for row in stack if row]
    return rows, len(monomials_of_degree(n, d))


def evaluate_rows(
    rows: Sequence[SparseIntRow], q0: Fraction
) -> list[SparseIntRow]:
    """Evaluate a polynomial matrix at q0 and clear to integer rows."""
    out = []
    for row in rows:
        values = {j: qp_eval(v, q0) for j, v in row.items()}
        denom = lcm(*(f.denominator for f in values.values()))
        cleaned = {
            j: ((int(f * denom),) if f else ())
            for j, f in values.items()
            if f
        }
        if cleaned:
            out.append(cleaned)
    return out


def _certify_rank(
    rows: list[SparseIntRow], ncols: int, rank: int, root: Fraction | None = None
) -> None:
    """Raise unless rank is that of rows over Q(q), or at q = root if given.

    One completed mod-P rank, at a seeded point or at the root, is a lower
    bound that almost always equals the rank; when it does not, an exact
    elimination decides.
    """
    if modular.rank_mod_p(rows, ncols, point=root) == rank:
        return
    exact = sparse_rank(rows if root is None else evaluate_rows(rows, root), ncols)
    if exact != rank:
        where = "generic" if root is None else f"at q = {root}"
        raise AssertionError(
            f"rank mismatch {where}: elimination {exact}, diagonalization {rank}"
        )


def bad_q_candidates(
    n: int, d: int, extended_generators: bool = False
) -> BadQReport:
    """Rational q where the degree-d harmonic space grows beyond generic.

    Builds the integer matrix M of the stacked down-operator constraints
    (degrees 1 and 2; all degrees up to d with the paranoia flag) and
    diagonalizes it one S_n-isotypic block M . B_lam at a time (`isotypic`,
    `minor_gcd`): rank M is the sum of f_lam times the block ranks, and the
    gcd of its maximal minors the product of the block gcds to the powers
    f_lam.  Each block keeps only the rows of D_k at the pivot monomials of
    B_lam(d - k) (`isotypic.pivot_rows`): M . B_lam = C . M_lam with C the
    target bases, square, invertible and constant on those rows, so the kept
    rows have the row module of M . B_lam, with its rank, minor gcd, ranks
    at rational q and kernel.  The rational roots of the gcd, read from
    each distinct block gcd once (`product_rational_roots`), are the
    candidates, and the rank of M at each is read off the block diagonals
    (see the module docstring).  `block_rows` and `pivot_rows` raise unless
    the block bases cover the slice and every target degree d - k, and a
    completed mod-P rank of each block checks its diagonal rank,
    generically and at each root (`_certify_rank`); every root must drop
    the rank.  The harmonic dimension at a root is counted with the
    generators it needs there (generating_degrees, D_1..D_n at q = 0), which
    the stack may lack: their rows join the stack, whose rank at the root is
    eliminated exactly block by block.  Only roots where that dimension
    exceeds the generic one are reported, with it, as jumps.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    degrees = generating_degrees(n, FORMAL)
    if extended_generators:
        degrees = tuple(range(1, d + 1))
    ncols = len(monomials_of_degree(n, d))
    stacks = constraint_stacks(n, d, degrees)
    parts = []
    for lam, f in blocks(n):
        block = block_rows(pivot_rows(stacks, n, d, lam), n, d, lam)
        diagonal = minor_gcd(*block)
        _certify_rank(*block, diagonal[0])
        parts.append((lam, f, block, diagonal))
    rank = sum(f * block_rank for _, f, _, (block_rank, _) in parts)
    powers: dict[IntPoly, int] = {}  # primitive, positive leading coefficients
    for _, f, _, (_, block_gcd) in parts:
        powers[block_gcd] = powers.get(block_gcd, 0) + f
    gcd = _power_product(powers)
    roots, cofactor = product_rational_roots(powers)
    jumps = []
    for root in roots:
        dropped = 0
        for _, f, block, diagonal in parts:
            block_rank = diagonal.rank_at(root)
            _certify_rank(*block, block_rank, root)
            dropped += f * block_rank
        if dropped >= rank:
            raise AssertionError(
                f"root {root} of the minor gcd did not drop the rank"
            )
        extra = [k for k in generating_degrees(n, QParam(root)) if k not in degrees]
        if extra:
            joined = {**stacks, **constraint_stacks(n, d, extra)}
            dropped = 0
            for lam, f, _, _ in parts:
                specialized = evaluate_rows(pivot_rows(joined, n, d, lam), root)
                dropped += f * sparse_rank(*block_rows(specialized, n, d, lam))
        if dropped < rank:
            jumps.append((root, ncols - dropped))
    return BadQReport(
        n=n,
        degree=d,
        generic_rank=rank,
        generic_harm_dim=ncols - rank,
        minor_gcd=gcd,
        rational_roots=tuple(root for root, _ in jumps),
        nonrational_factors=tuple(factor_over_z(cofactor)),
        jumps=tuple(jumps),
    )


def conjectured_root_form(root: Fraction, n: int) -> dict[str, bool]:
    """Both published predicates for the shape of bad values."""
    a, b = -root.numerator, root.denominator
    basic = root < 0 and 1 <= a <= n
    return {"a_in_1_to_n": basic, "a_in_1_to_n_and_a_le_b": basic and a <= b}
