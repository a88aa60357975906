"""Block bases of the S_n-isotypic multiplicity spaces e_T V_d."""

import math
from collections import Counter
from itertools import permutations

import pytest

from qsteenrod import isotypic, spaces
from qsteenrod.isotypic import block_basis, blocks
from qsteenrod.linalg import forward_eliminate, sparse_rank
from qsteenrod.polynomials import monomials_of_degree, permute_monomial
from qsteenrod.representations import standard_tableaux
from qsteenrod.scalars import FORMAL, QParam
from qsteenrod.specialize import constraint_stacks, harmonic_constraint_rows


def _kostka(shape, content):
    """Semistandard tableaux of the shape and content, counted as chains of
    horizontal strips: the cells holding i form a strip of size content[i]."""

    def strips(inner, size):
        # every partition outer with outer / inner a horizontal strip of size
        def grow(i, left, outer):
            if i == len(shape):
                if not left:
                    yield tuple(outer)
                return
            cap = shape[i] if i == 0 else min(shape[i], inner[i - 1])
            for part in range(inner[i], min(cap, inner[i] + left) + 1):
                yield from grow(i + 1, left - (part - inner[i]), outer + [part])

        yield from grow(0, size, [])

    def count(inner, rest):
        if not rest:
            return int(inner == tuple(shape))
        return sum(count(outer, rest[1:]) for outer in strips(inner, rest[0]))

    return count((0,) * len(shape), list(content))


def test_kostka_oracle():
    assert _kostka((2, 1), (1, 1, 1)) == 2
    assert _kostka((3, 2), (2, 2, 1)) == 2
    assert _kostka((2, 2), (3, 1)) == 0
    assert _kostka((4,), (2, 2)) == 1


def _permute(vec, sigma):
    """x_i -> x_sigma(i) on a sparse vector of monomials."""
    out = Counter()
    for mono, c in vec.items():
        new = [0] * len(mono)
        for i, e in enumerate(mono):
            new[sigma[i] - 1] = e
        out[tuple(new)] += c
    return out


def _group(parts, n):
    """(sigma, sign) for every permutation of the entries within each part."""
    group = [(tuple(range(1, n + 1)), 1)]
    for part in parts:
        grown = []
        for base, sign in group:
            for image in permutations(part):
                sigma = list(base)
                for a, b in zip(part, image):
                    sigma[a - 1] = b
                flips = sum(1 for i in range(len(image)) for j in range(i) if image[j] > image[i])
                grown.append((tuple(sigma), sign * (-1) ** flips))
        group = grown
    return group


def _young_symmetrizer(vec, tableau, n):
    rows = _group(tableau.rows, n)
    columns = _group(tableau.columns(), n)
    summed = Counter()
    for sigma, _ in rows:
        summed.update(_permute(vec, sigma))
    out = Counter()
    for tau, sign in columns:
        for mono, c in _permute(summed, tau).items():
            out[mono] += sign * c
    return {m: c for m, c in out.items() if c}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_block_basis(n):
    # For n <= 5 and d <= 6: the blocks fill the slice (the sum of
    # f_lam dim e_T V_d is C(n+d-1, d)); each monomial orbit of type nu gives
    # K_{lam nu} vectors; e_T v = (n! / f_lam) v for every basis vector v.
    for d in range(7):
        columns = monomials_of_degree(n, d)
        orbit_of = [tuple(sorted(m)) for m in columns]
        total = 0
        for lam, f in blocks(n):
            assert f == sum(1 for _ in standard_tableaux(lam))
            tableau = next(standard_tableaux(lam))
            basis = block_basis(n, d, lam)
            total += f * len(basis)
            found = Counter()
            for vec in basis:
                assert vec and all(isinstance(c, int) and c for c in vec.values())
                (orbit,) = {orbit_of[j] for j in vec}
                found[orbit] += 1
                poly = {columns[j]: c for j, c in vec.items()}
                scale = math.factorial(n) // f
                image = _young_symmetrizer(poly, tableau, n)
                assert image == {m: scale * c for m, c in poly.items()}, (lam, d)
            for orbit in set(orbit_of):
                nu = sorted(Counter(orbit).values(), reverse=True)
                assert found[orbit] == _kostka(lam, nu), (lam, orbit)
        assert total == math.comb(n + d - 1, d), (n, d)
    # The fill count alone, which the block route asserts, on the cells of
    # n = 4, 5 that the reach tables use, up to d = 11.
    for d in range(7, 12 if n >= 4 else 7):
        total = sum(f * len(block_basis(n, d, lam)) for lam, f in blocks(n))
        assert total == math.comb(n + d - 1, d), (n, d)


def test_block_basis_n6():
    # n = 6: K_{lam nu} vectors per orbit and the cover count for d <= 10,
    # and e_T v = (n! / f_lam) v for d <= 4.
    n = 6
    tableaux = {lam: next(standard_tableaux(lam)) for lam, _ in blocks(n)}
    for d in range(11):
        columns = monomials_of_degree(n, d)
        orbit_of = [tuple(sorted(m)) for m in columns]
        kostka = {}
        for lam, f in blocks(n):
            found = Counter()
            for vec in block_basis(n, d, lam):
                (orbit,) = {orbit_of[j] for j in vec}
                found[orbit] += 1
                if d <= 4:
                    poly = {columns[j]: c for j, c in vec.items()}
                    image = _young_symmetrizer(poly, tableaux[lam], n)
                    scale = math.factorial(n) // f
                    assert image == {m: scale * c for m, c in poly.items()}, (lam, d)
            for orbit in set(orbit_of):
                nu = tuple(sorted(Counter(orbit).values(), reverse=True))
                if (lam, nu) not in kostka:
                    kostka[lam, nu] = _kostka(lam, nu)
                assert found[orbit] == kostka[lam, nu], (lam, orbit)
        total = sum(f * len(block_basis(n, d, lam)) for lam, f in blocks(n))
        assert total == math.comb(n + d - 1, d), d


def _reference_block_basis(n, d, lam):
    """e_T(m) for every semistandard monomial m in slice order, each from
    |R(T)| |C(T)| permutations of m, and the pivots of one elimination over
    the whole slice: the construction `block_basis` reads off its templates."""
    tableau = next(standard_tableaux(lam))
    row_group, column_group = _group(tableau.rows, n), _group(tableau.columns(), n)
    steps = [
        (a - 1, b - 1, s)
        for s, parts in enumerate((tableau.rows, tableau.columns()))
        for part in parts
        for a, b in zip(part, part[1:])
    ]
    columns = monomials_of_degree(n, d)
    index = {m: j for j, m in enumerate(columns)}
    basis = []
    for mono in columns:
        if any(mono[a] + s > mono[b] for a, b, s in steps):
            continue
        vec = Counter()
        for image in {permute_monomial(mono, sigma) for sigma, _ in row_group}:
            for tau, sign in column_group:
                vec[index[permute_monomial(image, tau)]] += sign
        basis.append({j: c for j, c in vec.items() if c})
    rows = [{j: (c,) for j, c in vec.items()} for vec in basis]
    pivots = forward_eliminate(rows, len(columns))[0]
    assert len(pivots) == len(basis)
    return basis, tuple(pivots)


@pytest.mark.parametrize(
    "n, top", [(1, 12), (2, 12), (3, 12), (4, 12), (5, 12), (6, 10), (7, 8)]
)
def test_block_basis_matches_the_per_monomial_reference(n, top):
    for d in range(top + 1):
        for lam, _ in blocks(n):
            basis = block_basis(n, d, lam)
            vectors, pivots = _reference_block_basis(n, d, lam)
            assert list(basis) == vectors, (n, d, lam)
            assert basis.pivots == pivots, (n, d, lam)


def test_dependent_block_basis_raises(monkeypatch):
    def short(rows, ncols):
        pivots, echelon = forward_eliminate(rows, ncols)
        return pivots[1:], echelon[1:]

    # The templates are cached: clear them so the call eliminates again, and
    # again afterwards so none built under the patch outlives the test.
    isotypic._template.cache_clear()
    monkeypatch.setattr(isotypic, "forward_eliminate", short)
    try:
        with pytest.raises(AssertionError, match="dependent"):
            block_basis.__wrapped__(3, 4, (2, 1))
    finally:
        isotypic._template.cache_clear()


def test_short_template_fails_the_cover(monkeypatch):
    # A template of (2, 1) on orbit type (1, 1, 1) (three distinct exponents)
    # with one vector dropped leaves every block basis of (2, 1) built from
    # it a vector short; block_ranks must notice through its cover check.
    real = isotypic._template

    def short(lam, counts):
        sources, vectors, pivots = real(lam, counts)
        if (lam, counts) == ((2, 1), (1, 1, 1)):
            return sources[1:], vectors[1:], pivots[1:]
        return sources, vectors, pivots

    block_basis.cache_clear()
    monkeypatch.setattr(isotypic, "_template", short)
    try:
        with pytest.raises(AssertionError, match="cover"):
            isotypic.block_ranks(spaces.rule_stacks("harm", 3, 4, FORMAL), 3, 4)
    finally:
        block_basis.cache_clear()


def test_block_consumers_certify_the_cover_themselves(monkeypatch):
    # With one vector of B_(2,1) in degree 3 dropped, the bases no longer
    # span the slice; pivot_rows (target degree 4 - 1 = 3) and block_rows
    # (degree 3) must each notice without a certify_cover by the caller.
    real = isotypic.block_basis

    def short(n, d, lam):
        basis = real(n, d, lam)
        if (d, lam) == (3, (2, 1)):
            return isotypic.BlockBasis(basis[1:], basis.pivots[1:])
        return basis

    monkeypatch.setattr(isotypic, "block_basis", short)
    with pytest.raises(AssertionError, match="cover"):
        isotypic.pivot_rows(constraint_stacks(3, 4, (1, 2)), 3, 4, (3,))
    rows = harmonic_constraint_rows(3, 3, (1, 2))[0]
    with pytest.raises(AssertionError, match="cover"):
        isotypic.block_rows(rows, 3, 3, (3,))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pivot_rows_are_the_rows_at_the_target_pivots(n):
    """For each k in order, `pivot_rows` takes row i of stack k, the very
    row object, for each pivot i of B_lam(d - k), and on those pivots
    B_lam(d - k) is square and invertible (the module docstring's C_S)."""
    for q in (FORMAL, QParam.rational(-1, 2)):
        for kind in ("harm", "hit"):
            for d in range(n * (n - 1) // 2 + 3):
                stacks = spaces.rule_stacks(kind, n, d, q)
                for lam, _ in blocks(n):
                    expected = []
                    for k, stack in stacks.items():
                        basis = block_basis(n, d - k, lam)
                        assert len(basis.pivots) == len(basis)
                        square = [
                            {s: (vec[j],) for s, j in enumerate(basis.pivots) if j in vec}
                            for vec in basis
                        ]
                        assert sparse_rank(square, len(basis)) == len(basis)
                        expected.extend(stack[i] for i in basis.pivots)
                    got = isotypic.pivot_rows(stacks, n, d, lam)
                    assert len(got) == len(expected), (kind, d, lam)
                    assert all(a is b for a, b in zip(got, expected)), (kind, d, lam)
