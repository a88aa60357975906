"""Divided differences, Schubert polynomials, commutant machinery."""

import random

import pytest

from qsteenrod import schubert
from qsteenrod.errors import NonReducedWordError
from qsteenrod.linalg import echelonize
from qsteenrod.polynomials import Polynomial, monomials_of_degree
from qsteenrod.scalars import QParam, rf_normalize
from qsteenrod.schubert import (
    all_perms,
    all_reduced_words,
    commutant_search,
    compose_perms,
    d_sigma,
    divided_difference,
    identity_perm,
    inversions,
    operator_in_span,
    reduced_word,
    schubert_polynomial,
    transposition,
    word_to_perm,
)
from qsteenrod.spaces import StaircaseSet
from qsteenrod.steenrod import make_pk

FORMAL = QParam.formal()


def x(n, i):
    return Polynomial.variable(n, i)


def test_symmetric_group_presentation():
    for n in (2, 3, 4, 5):
        e = identity_perm(n)
        for i in range(1, n):
            s = transposition(n, i)
            assert compose_perms(s, s) == e
            for j in range(1, n):
                t = transposition(n, j)
                if abs(i - j) > 1:
                    assert compose_perms(s, t) == compose_perms(t, s)
            if i < n - 1:
                t = transposition(n, i + 1)
                assert compose_perms(s, compose_perms(t, s)) == compose_perms(
                    t, compose_perms(s, t)
                )


def test_reduced_words():
    for n in (2, 3, 4):
        for sigma in all_perms(n):
            word = reduced_word(sigma)
            assert word_to_perm(word, n) == sigma
            assert len(word) == inversions(sigma)
    assert sorted(all_reduced_words((3, 2, 1))) == [(1, 2, 1), (2, 1, 2)]


def test_divided_difference_examples():
    assert divided_difference(1, x(2, 1)) == Polynomial.one(2)
    assert divided_difference(1, x(2, 1) * x(2, 2)).is_zero()
    assert divided_difference(1, x(2, 1) ** 2) == x(2, 1) + x(2, 2)
    with pytest.raises(IndexError):
        divided_difference(2, x(2, 1))


def test_divided_difference_kills_symmetric():
    sym = x(2, 1) ** 3 + x(2, 2) ** 3
    assert divided_difference(1, sym).is_zero()
    asym = x(2, 1) ** 2 * x(2, 2)
    assert not divided_difference(1, asym).is_zero()


def test_squares_to_zero():
    for i in (1, 2):
        for d in range(6):
            for mono in monomials_of_degree(3, d):
                p = Polynomial.monomial(3, mono)
                assert divided_difference(i, divided_difference(i, p)).is_zero()


def test_braid_word_independence():
    op_a = d_sigma((1, 2, 1), 3, 4)
    op_b = d_sigma((2, 1, 2), 3, 4)
    assert op_a == op_b
    for sigma in all_perms(3):
        words = all_reduced_words(sigma)
        ops = {d_sigma(w, 3, 4) for w in words}
        assert len(ops) == 1


def test_d_sigma_rejects_non_reduced():
    with pytest.raises(NonReducedWordError):
        d_sigma((1, 1), 3, 4)
    assert d_sigma((), 3, 3).apply(x(3, 1)) == x(3, 1)


def test_leibniz_commutation_with_symmetric():
    rng = random.Random(12)
    n = 3
    sym = x(n, 1) * x(n, 2) + x(n, 1) * x(n, 3) + x(n, 2) * x(n, 3)
    for _ in range(8):
        terms = {
            m: rf_normalize((rng.randint(-3, 3),), (1,))
            for m in monomials_of_degree(n, rng.randint(0, 3))
        }
        f = Polynomial(n, terms)
        for i in (1, 2):
            assert divided_difference(i, sym * f) == sym * divided_difference(i, f)


def test_schubert_values():
    assert schubert_polynomial((1, 2)) == Polynomial.one(2)
    assert schubert_polynomial((2, 1)) == x(2, 1)
    assert schubert_polynomial((3, 2, 1)) == x(3, 1) ** 2 * x(3, 2)
    assert schubert_polynomial((1, 2, 3)) == Polynomial.one(3)


def test_schubert_basis_spans_staircase():
    for n in (2, 3):
        staircase = StaircaseSet(n)
        by_degree: dict[int, list[Polynomial]] = {}
        for sigma in all_perms(n):
            p = schubert_polynomial(sigma)
            by_degree.setdefault(p.homogeneous_degree(), []).append(p)
        total = 0
        for d, polys in by_degree.items():
            ech = echelonize(polys)
            assert len(ech) == len(polys)  # linearly independent
            stair_basis = echelonize(
                [Polynomial.monomial(n, m) for m in staircase.of_degree(d)]
            )
            assert ech == stair_basis
            total += len(polys)
        assert total == len(staircase.monomials())


def test_commutant_zero_generators_formal():
    p1 = make_pk(1, 1, FORMAL)
    assert commutant_search(1, 3, FORMAL, [p1]) == []
    assert commutant_search(1, 4, FORMAL) == []
    assert commutant_search(2, 4, FORMAL) == []


def test_commutant_single_variable_oracle():
    """Direct 1-variable solve: t_{d+1} (1 + dq) = t_d (1 + (d-1) q)... forces 0."""
    # the constraint chain starts at degree 0 where the target side is empty,
    # so every t_d vanishes; commutant_search must agree
    assert commutant_search(1, 3, FORMAL) == []


def test_commutant_at_zero_contains_divided_differences():
    q0 = QParam.rational(0)
    sols = commutant_search(2, 4, q0)
    assert sols
    assert operator_in_span(d_sigma((1,), 2, 4), sols)


def test_commutant_cap_soundness():
    """Enlarging the cap never enlarges the solution space at the smaller cap."""

    def restricted(ops, cap):
        return {
            tuple(
                tuple(tuple(entry for entry in row) for row in op.blocks[d])
                for d in range(cap + 1)
            )
            for op in ops
        }

    q0 = QParam.rational(0)
    small = commutant_search(2, 3, q0)
    large = commutant_search(2, 4, q0)
    # solutions at the larger cap restrict to solutions at the smaller cap
    from qsteenrod.schubert import GradedOperator

    for op in large:
        cut = GradedOperator(2, -1, 3, op.blocks[:4])
        assert operator_in_span(cut, small)


def test_graded_operator_apply():
    op = d_sigma((1,), 2, 3)
    assert op.apply(x(2, 1) ** 2) == x(2, 1) + x(2, 2)
    assert op.apply(x(2, 1) * x(2, 2)).is_zero()


def test_commutant_applies_each_generator_once_per_monomial(monkeypatch):
    # With H = G, the matrix of G on a slice serves as the left factor on that
    # degree and as the right factor one step earlier; it is built once.
    calls = []
    real = schubert.weyl_apply

    def counting(op, p):
        calls.append((id(op), tuple(p.terms)))
        return real(op, p)

    monkeypatch.setattr(schubert, "weyl_apply", counting)
    commutant_search(2, 6, QParam.rational(0))
    assert len(calls) == len(set(calls)) == 36
