"""Divided differences, Schubert polynomials, and the commutant search.

The operators d_i(f) = (f - s_i f)/(x_i - x_{i+1}) realize the Hecke algebra
at v1 = v2 = 0: they square to zero, satisfy the braid relations, and
commute with multiplication by symmetric polynomials.  Schubert polynomials
are d_{sigma omega}(x^rho) with rho the staircase exponent.  The commutant
search looks for graded degree -1 operators commuting with a generating set
of products P_mu of the deformed power sums, the machinery that fails for
nonzero q.  Operators on graded slices (d_sigma, the generator matrices, the
commutant's solutions) are `linalg.GradedOperator`s, re-exported here;
`operator_in_span` compares ranks of their `linalg.operator_rows`.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, Sequence

from .errors import NonReducedWordError
from .linalg import (
    GradedOperator,
    SparseRFRow,
    kernel_basis,
    operator_rows,
    reduced_echelon,
    rf_rows_to_int,
    sparse_rank,
)
from .polynomials import (
    Monomial,
    Polynomial,
    inversions,
    monomials_of_degree,
    transposition,
)
from .scalars import QParam, RF_ZERO, RationalFunction
from .spaces import generating_degrees
from .steenrod import Composition, apply_p_lambda

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest_perm(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def compose_perms(a: Perm, b: Perm) -> Perm:
    """(a b)(i) = a(b(i))."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def word_to_perm(word: Sequence[int], n: int) -> Perm:
    """The permutation s_{j1} s_{j2} ... s_{jk} (rightmost acts first)."""
    out = identity_perm(n)
    for j in word:
        out = compose_perms(out, transposition(n, j))
    return out


def is_reduced(word: Sequence[int], n: int) -> bool:
    return inversions(word_to_perm(word, n)) == len(word)


def reduced_word(sigma: Perm) -> tuple[int, ...]:
    """A reduced word for sigma (bubble sort on descents)."""
    n = len(sigma)
    current = list(sigma)
    reversed_word = []
    while True:
        for i in range(n - 1):
            if current[i] > current[i + 1]:
                current[i], current[i + 1] = current[i + 1], current[i]
                reversed_word.append(i + 1)
                break
        else:
            break
    return tuple(reversed(reversed_word))


def all_perms(n: int) -> Iterator[Perm]:
    from itertools import permutations

    for p in permutations(range(1, n + 1)):
        yield p


def all_reduced_words(sigma: Perm) -> list[tuple[int, ...]]:
    """Every reduced word of sigma (for braid-independence checks)."""
    if sigma == identity_perm(len(sigma)):
        return [()]
    n = len(sigma)
    out = []
    for i in range(1, n):
        if sigma[i - 1] > sigma[i]:
            shorter = compose_perms(sigma, transposition(n, i))
            out.extend(word + (i,) for word in all_reduced_words(shorter))
    return out


def divided_difference(i: int, f: Polynomial) -> Polynomial:
    """(f - s_i f) / (x_i - x_{i+1}), exactly, degree drops by one."""
    n = f.n
    if not 1 <= i <= n - 1:
        raise IndexError(f"divided difference index {i} out of 1..{n - 1}")
    terms: dict[Monomial, RationalFunction] = {}
    for mono, coeff in f.terms.items():
        a, b = mono[i - 1], mono[i]
        if a == b:
            continue
        lo = min(a, b)
        span = abs(a - b)
        sign = coeff if a > b else -coeff
        for s in range(span):
            key = (
                mono[: i - 1] + (lo + s, a + b - 1 - lo - s) + mono[i + 1 :]
            )
            acc = terms.get(key, RF_ZERO) + sign
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
    return Polynomial(n, terms)


def apply_word(word: Sequence[int], f: Polynomial) -> Polynomial:
    """d_{j1} d_{j2} ... d_{jk} applied to f (rightmost acts first)."""
    out = f
    for j in reversed(word):
        out = divided_difference(j, out)
    return out


def staircase_exponent(n: int) -> Monomial:
    return tuple(range(n - 1, -1, -1))


def schubert_polynomial(sigma: Perm, n: int | None = None) -> Polynomial:
    """d_{sigma omega} applied to x^(n-1, n-2, ..., 0)."""
    size = n or len(sigma)
    if len(sigma) != size:
        sigma = sigma + tuple(range(len(sigma) + 1, size + 1))
    word = reduced_word(compose_perms(sigma, longest_perm(size)))
    return apply_word(word, Polynomial.monomial(size, staircase_exponent(size)))


def d_sigma(word: Sequence[int], n: int, cap: int) -> GradedOperator:
    """Blocks of d_{j1}...d_{jk} for a reduced word; rejects unreduced words."""
    if not is_reduced(word, n):
        raise NonReducedWordError(f"{tuple(word)} is not reduced")
    return GradedOperator.from_callable(
        n, -len(word), cap, lambda p: apply_word(word, p)
    )


def commutant_search(
    n: int,
    cap: int,
    q: QParam,
    generators: Sequence[Composition] | None = None,
    right_generators: Sequence[Composition] | None = None,
) -> list[GradedOperator]:
    """Degree -1 graded operators T with G T = T H for each generator pair.

    A generator is a composition mu, standing for P_mu = P_mu_1 ... P_mu_l
    of degree |mu|, whose matrices come from its monomial rules
    (`steenrod.apply_p_lambda`).  By default the G are (k,) for k in
    `generating_degrees(n, q)`: P_1..P_n at q = 0 (multiplication by power
    sums), else P_1, P_2; and H = G (the plain commutant).  Passing
    right_generators of the same degrees solves the skew variant G T = T H
    instead, one fixed H per G; this is exploratory machinery, nothing is
    asserted about it.  The unknown is one block per degree 1..cap; each
    equation is imposed on the degrees d where both composites stay inside
    the cap (d + deg G <= cap).  Returns the free-column basis of the
    solution space: each solution is 1 at its free unknown, its last nonzero
    entry, and 0 at the other free ones.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if generators is None:
        generators = [(k,) for k in generating_degrees(n, q)]
    gens = [tuple(mu) for mu in generators]
    rights = gens
    if right_generators is not None:
        rights = [tuple(mu) for mu in right_generators]
    if len(rights) != len(gens):
        raise ValueError("one right generator per left generator")
    for g, h in zip(gens, rights):
        if sum(g) != sum(h):
            raise ValueError("paired generators must share their grading")
        if sum(g) < 1:
            raise ValueError("generators must raise the degree")
    dims = [len(monomials_of_degree(n, d)) for d in range(cap + 1)]
    # The unknowns: the cells (d, r, c) of T, r a target of degree d - 1 and
    # c a source of degree d; their list order is the column order.
    cells = [
        (d, r, c)
        for d in range(1, cap + 1)
        for r in range(dims[d - 1])
        for c in range(dims[d])
    ]
    column = {cell: j for j, cell in enumerate(cells)}
    # Matrices of the generators up to the degree the equations reach, one
    # per composition; with H = G the same matrix serves on both sides.
    matrices = {
        mu: GradedOperator.from_callable(
            n, sum(mu), cap - sum(mu), partial(apply_p_lambda, mu=mu, q=q)
        )
        for mu in dict.fromkeys((*gens, *rights))
    }

    equations: list[SparseRFRow] = []
    for gen, right in zip(gens, rights):
        k = sum(gen)
        for d in range(0, cap - k + 1):
            # G on degree d - 1 (nothing when d = 0) and H on degree d
            left_images = matrices[gen].blocks[d - 1] if d else ()
            right_images = matrices[right].blocks[d]
            # for each source monomial of degree d and each target monomial of
            # degree d + k - 1: (G T - T H) entry must vanish
            for j in range(dims[d]):
                row_acc: dict[int, dict[int, RationalFunction]] = {}
                # G o T: T sends source j to degree d-1 basis, then G acts
                for r, img in enumerate(left_images):
                    for t, coeff in img.items():
                        row_acc.setdefault(t, {})[column[d, r, j]] = coeff
                # T o H: H sends source j to degree d+k, then T_{d+k} acts
                for c, coeff in right_images[j].items():
                    for t in range(dims[d + k - 1]):
                        cell = row_acc.setdefault(t, {})
                        idx = column[d + k, t, c]
                        cell[idx] = cell.get(idx, RF_ZERO) - coeff
                for t, entries in row_acc.items():
                    row = {idx: v for idx, v in entries.items() if v}
                    if row:
                        equations.append(row)
    int_rows = rf_rows_to_int(equations)
    pivots, reduced = reduced_echelon(int_rows, len(cells))
    solutions = []
    for vec in kernel_basis(pivots, reduced, len(cells)):
        blocks = [[{} for _ in range(dims[d] if d else 0)] for d in range(cap + 1)]
        for j, value in vec.items():
            d, r, c = cells[j]
            blocks[d][c][r] = value
        solutions.append(GradedOperator(n, -1, cap, tuple(map(tuple, blocks))))
    return solutions


def operator_in_span(
    op: GradedOperator, basis: Sequence[GradedOperator]
) -> bool:
    """Whether op lies in the span of a family of graded operators."""
    rows, ncols = operator_rows([*basis, op])
    int_rows = rf_rows_to_int(rows)
    return sparse_rank(int_rows, ncols) == sparse_rank(int_rows[:-1], ncols)
