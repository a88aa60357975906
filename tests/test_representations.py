"""Specht polynomials, stability, exact graded characters."""

import math
import random
from fractions import Fraction

import pytest

from qsteenrod.errors import InvalidFillingError, NotStableError
from qsteenrod.linalg import Matrix, echelonize
from qsteenrod.polynomials import Polynomial, permute_variables
from qsteenrod.representations import (
    Filling,
    character_table,
    conjugacy_class_size,
    cycle_type_representative,
    decompose_character,
    graded_character,
    is_regular_representation,
    multiplicity_character,
    sn_character,
    specht_polynomial,
    standard_tableaux,
    vandermonde,
)
from qsteenrod.scalars import QParam, RF_ZERO
from qsteenrod.spaces import (
    GradedSubspace,
    block_multiplicities,
    harm_component,
    hit_component,
)
from qsteenrod.steenrod import dual_pk, partitions_of
from qsteenrod.weyl import weyl_apply

FORMAL = QParam.formal()


def x(n, i):
    return Polynomial.variable(n, i)


def test_vandermonde_two_variables():
    assert vandermonde([1, 2], 2) == x(2, 2) - x(2, 1)


def test_vandermonde_singleton():
    assert vandermonde([1], 1) == Polynomial.one(1)


def test_vandermonde_three_variables():
    v = vandermonde([1, 2, 3], 3)
    expected = (x(3, 2) - x(3, 1)) * (x(3, 3) - x(3, 1)) * (x(3, 3) - x(3, 2))
    assert v == expected
    assert len(v.terms) == 6 and v.homogeneous_degree() == 3


def test_vandermonde_rejects_duplicates():
    with pytest.raises(InvalidFillingError):
        vandermonde([1, 1], 2)


def test_specht_column_shape():
    # single column gives the full Vandermonde, single row gives 1
    col = Filling((1, 1, 1), ((1,), (2,), (3,)))
    assert specht_polynomial(col) == vandermonde([1, 2, 3], 3)
    row = Filling((3,), ((1, 2, 3),))
    assert specht_polynomial(row) == Polynomial.one(3)


def test_specht_ten_box_worked_example():
    filling = Filling((5, 3, 2), ((10, 4, 3, 7, 6), (9, 1, 5), (8, 2)))
    n = 10
    got = specht_polynomial(filling, n)
    expected = (
        (x(n, 9) - x(n, 10))
        * (x(n, 8) - x(n, 10))
        * (x(n, 8) - x(n, 9))
        * (x(n, 1) - x(n, 4))
        * (x(n, 2) - x(n, 4))
        * (x(n, 2) - x(n, 1))
        * (x(n, 5) - x(n, 3))
    )
    assert got == expected


def test_filling_validation():
    with pytest.raises(InvalidFillingError):
        Filling((2, 1), ((1, 2), (2,)))
    with pytest.raises(InvalidFillingError):
        Filling((2, 1), ((1, 2, 3),))


def test_standard_tableaux_counts():
    counts = {
        (4,): 1,
        (3, 1): 3,
        (2, 2): 2,
        (2, 1, 1): 3,
        (1, 1, 1, 1): 1,
    }
    for shape, count in counts.items():
        tabs = list(standard_tableaux(shape))
        assert len(tabs) == count
        assert all(t.is_standard_tableau() for t in tabs)


def test_specht_equivariance():
    rng = random.Random(9)
    for n in (3, 4, 5):
        shapes = list(partitions_of(n))
        for _ in range(6):
            shape = rng.choice(shapes)
            filling = rng.choice(list(standard_tableaux(shape)))
            sigma = list(range(1, n + 1))
            rng.shuffle(sigma)
            sigma = tuple(sigma)
            lhs = permute_variables(specht_polynomial(filling, n), sigma)
            rhs = specht_polynomial(filling.apply(sigma), n)
            assert lhs == rhs


def test_standard_specht_polynomials_independent():
    for n in (3, 4, 5):
        for shape in partitions_of(n):
            polys = [
                specht_polynomial(t, n) for t in standard_tableaux(shape)
            ]
            assert len(echelonize(polys)) == len(polys)


def test_specht_harmonicity():
    for n in (2, 3, 4):
        for q in (FORMAL, QParam.rational(0), QParam.rational(1), QParam.rational(-1, 2)):
            downs = [dual_pk(n, k, q) for k in range(1, 5)]
            for shape in partitions_of(n):
                for tab in standard_tableaux(shape):
                    sp = specht_polynomial(tab, n)
                    for down in downs:
                        assert weyl_apply(down, sp).is_zero()


def test_character_table_s3():
    table = character_table(3)
    assert table[(3,)] == {(3,): 1, (2, 1): 1, (1, 1, 1): 1}
    assert table[(2, 1)] == {(3,): -1, (2, 1): 0, (1, 1, 1): 2}
    assert table[(1, 1, 1)] == {(3,): 1, (2, 1): -1, (1, 1, 1): 1}


def test_character_table_orthogonality():
    for n in (2, 3, 4, 5, 6):
        classes = list(partitions_of(n))
        order = math.factorial(n)
        assert sum(conjugacy_class_size(ct, n) for ct in classes) == order
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                acc = sum(
                    conjugacy_class_size(ct, n)
                    * sn_character(lam, ct)
                    * sn_character(mu, ct)
                    for ct in classes
                )
                assert acc == (order if lam == mu else 0)


def test_cycle_type_representative():
    assert cycle_type_representative((3, 2, 1), 6) == (2, 3, 1, 5, 4, 6)
    assert cycle_type_representative((1, 1), 2) == (1, 2)


def test_graded_character_two_variables():
    q0 = QParam.rational(0)
    fam = [harm_component(2, d, q0) for d in range(2)]
    chi = graded_character(fam)
    assert chi.degree(0) == {(2,): Fraction(1), (1, 1): Fraction(1)}
    assert chi.degree(1) == {(2,): Fraction(-1), (1, 1): Fraction(1)}
    cert = is_regular_representation(chi, 2)
    assert cert.is_regular
    assert dict(cert.totals) == {(1, 1): Fraction(2), (2,): Fraction(0)}


def test_graded_character_formal_three_variables():
    fam = [harm_component(3, d, FORMAL) for d in range(4)]
    assert [s.dim for s in fam] == [1, 2, 2, 1]
    chi = graded_character(fam)
    chi0 = graded_character(
        [harm_component(3, d, QParam.rational(0)) for d in range(4)]
    )
    assert chi.values == chi0.values
    assert is_regular_representation(chi, 3).is_regular


def test_character_basis_independent():
    # independent oracle: trace through an arbitrary (non-echelon) basis
    space = harm_component(3, 2, FORMAL)
    mixed = [
        space.basis[0] + space.basis[1].scale(5),
        space.basis[0] - space.basis[1],
    ]
    remade = GradedSubspace.from_spanning(3, 2, mixed)
    assert remade == space

    sigma = cycle_type_representative((2, 1), 3)
    columns = sorted({m for p in mixed for m in p.terms}, reverse=True)
    index = {m: j for j, m in enumerate(columns)}

    basis_matrix = [
        [p.coefficient(m) for p in mixed] for m in columns
    ]
    trace = RF_ZERO
    for i, b in enumerate(mixed):
        moved = permute_variables(b, sigma)
        rhs = [[moved.coefficient(m)] for m in columns]
        aug = Matrix(
            len(columns), len(mixed) + 1, [row + extra for row, extra in zip(basis_matrix, rhs)]
        )
        sol = aug.kernel()
        assert len(sol) == 1
        coeffs = sol[0]
        # kernel vector (c1, c2, t) encodes c1 b1 + c2 b2 + t moved = 0;
        # only the summed diagonal is constant, not each entry
        t = coeffs[-1]
        trace = trace + (-coeffs[i] / t)
    chi = graded_character([space])
    assert chi.degree(2)[(2, 1)] == trace.as_fraction()


def test_character_reads_traces_off_the_basis(monkeypatch):
    # coordinates serve only the stability check: one call per basis
    # vector and adjacent transposition, none per conjugacy class
    calls = []
    coordinates = GradedSubspace.coordinates

    def counting(self, p):
        calls.append(self.degree)
        return coordinates(self, p)

    monkeypatch.setattr(GradedSubspace, "coordinates", counting)
    for n, q in ((3, FORMAL), (4, QParam.rational(1))):
        fam = [harm_component(n, d, q) for d in range(n * (n - 1) // 2 + 1)]
        calls.clear()
        graded_character(fam)
        for space in fam:
            assert calls.count(space.degree) == (n - 1) * space.dim, (n, space.degree)


@pytest.mark.parametrize("q", ["formal", "0", "1", "-1", "-1/2", "-2/3", "11/13"])
def test_block_character_matches_slice_traces(q):
    # differential: the sum of certified block multiplicities times chi^lam
    # against the traces read off the reduced echelon harmonic slices
    q = QParam.parse(q)
    for n, cap in [(1, 1), (2, 2), (3, 4), (4, 7), (5, 6)]:
        fam = [harm_component(n, d, q) for d in range(cap + 1)]
        oracle = graded_character(fam)
        chi = multiplicity_character(
            n, [(d, block_multiplicities("harm", n, d, q)) for d in range(cap + 1)]
        )
        assert chi == oracle, (n, str(q))
        assert [chi.degree(d)[(1,) * n] for d in range(cap + 1)] == [
            s.dim for s in fam
        ]
        assert is_regular_representation(chi, n) == is_regular_representation(
            oracle, n
        )


@pytest.mark.parametrize("q", [FORMAL, QParam.rational(-1, 2), QParam.rational(0)])
def test_hit_block_multiplicities_decompose_hit_slices(q):
    # a hit slice, the row space of the stacked P_k^T, has rank M_lam copies
    for n in (2, 3, 4):
        for d in range(6):
            chi = graded_character([hit_component(n, d, q)])
            assert decompose_character(chi.degree(d), n) == block_multiplicities(
                "hit", n, d, q
            ), (n, d, str(q))


def test_not_stable_raises():
    line = GradedSubspace.from_spanning(2, 1, [x(2, 1)])
    with pytest.raises(NotStableError):
        graded_character([line])


def test_regular_certificates():
    chi = graded_character(
        [harm_component(2, d, QParam.rational(0)) for d in range(2)]
    )
    assert is_regular_representation(chi, 2).is_regular
    trivial_only = graded_character([harm_component(2, 0, QParam.rational(0))])
    cert = is_regular_representation(trivial_only, 2)
    assert not cert.is_regular
    assert dict(cert.totals)[(2,)] == 1


def test_decompose_regular_character():
    chi = graded_character(
        [harm_component(3, d, QParam.rational(0)) for d in range(4)]
    )
    mults = decompose_character(chi.totals(), 3)
    assert mults == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
