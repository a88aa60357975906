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

`block_basis` echelonizes the vectors e_T(m) fraction-free over Z, one
monomial orbit at a time, and `block_rows` multiplies a matrix over Z[q]
by that basis.  For an S_n-equivariant matrix M on V_d (such as the
stacked down operators) a constant change of basis on both sides gives
M = direct sum of M_lam (x) I_{f_lam}, and M . B_lam = C . M_lam for a
constant injection C.  So rank M = sum of f_lam rank(M . B_lam), and the
gcd of the maximal minors of M over Q[q] is, up to a unit, the product of
gcd(M . B_lam)^f_lam (`specialize.bad_q_candidates`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

from .linalg import SparseIntRow, forward_eliminate
from .polynomials import Monomial, monomials_of_degree, permute_monomial
from .representations import sn_character, standard_tableaux
from .scalars import qp_add, qp_scale
from .schubert import inversions
from .steenrod import Partition, partitions_of


def _group(parts: list[tuple[int, ...]], n: int) -> list[tuple[tuple[int, ...], int]]:
    """Every (sigma, sign) that permutes the entries within each part."""
    out = []
    for images in product(*(permutations(part) for part in parts)):
        sigma = list(range(1, n + 1))
        for part, image in zip(parts, images):
            for a, b in zip(part, image):
                sigma[a - 1] = b
        perm = tuple(sigma)
        out.append((perm, -1 if inversions(perm) % 2 else 1))
    return out


@lru_cache(maxsize=None)
def block_basis(n: int, d: int, lam: Partition) -> tuple[dict[int, int], ...]:
    """An integer basis of e_T V_d, as sparse vectors over the slice columns.

    Column j is the j-th monomial of `monomials_of_degree(n, d)`.  Each orbit
    of monomials contributes the nonzero rows of one fraction-free echelon
    form of the e_T(m), m in the orbit; e_T(m) depends only on the R(T)-orbit
    of m, so one m per R(T)-orbit is enough.
    """
    tableau = next(standard_tableaux(lam))
    row_group = _group(tableau.rows, n)
    column_group = _group(tableau.columns(), n)
    columns = monomials_of_degree(n, d)
    index = {m: j for j, m in enumerate(columns)}
    orbits: dict[Monomial, list[Monomial]] = {}
    for mono in columns:
        orbits.setdefault(tuple(sorted(mono)), []).append(mono)
    basis: list[dict[int, int]] = []
    for orbit in orbits.values():
        local = {m: k for k, m in enumerate(orbit)}
        vectors, seen = [], set()
        for mono in orbit:
            # the R(T)-orbit of mono, named by its exponents sorted within rows
            key = tuple(tuple(sorted(mono[e - 1] for e in row)) for row in tableau.rows)
            if key in seen:
                continue
            seen.add(key)
            vec: dict[int, int] = {}
            for image in {permute_monomial(mono, sigma) for sigma, _ in row_group}:
                for tau, sign in column_group:
                    k = local[permute_monomial(image, tau)]
                    vec[k] = vec.get(k, 0) + sign
            vec = {k: (c,) for k, c in vec.items() if c}
            if vec:
                vectors.append(vec)
        _, echelon = forward_eliminate(vectors, len(orbit))
        for row in echelon:
            basis.append({index[orbit[k]]: c[0] for k, c in row.items()})
    return tuple(basis)


def block_rows(
    rows: list[SparseIntRow], n: int, d: int, lam: Partition
) -> tuple[list[SparseIntRow], int]:
    """The nonzero rows of M . B_lam and its number of columns.

    M is given by its rows over the degree-d slice; column k of B_lam is the
    k-th vector of `block_basis(n, d, lam)`.  The rows are integer
    combinations of M's entries and keep their content.
    """
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


def blocks(n: int) -> list[tuple[Partition, int]]:
    """Every partition lam of n with f_lam (the character at the identity)."""
    return [(lam, sn_character(lam, (1,) * n)) for lam in partitions_of(n)]
