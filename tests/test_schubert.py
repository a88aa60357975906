"""Divided differences, Schubert polynomials, commutant machinery."""

import random
from fractions import Fraction

import pytest

from qsteenrod import schubert
from qsteenrod.errors import NonReducedWordError
from qsteenrod.linalg import echelonize
from qsteenrod.polynomials import Polynomial, monomials_of_degree
from qsteenrod.scalars import QParam, RationalFunction, rf_normalize
from qsteenrod.schubert import (
    GradedOperator,
    all_perms,
    all_reduced_words,
    apply_word,
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
    assert commutant_search(1, 3, FORMAL, [(1,)]) == []
    assert commutant_search(1, 4, FORMAL) == []
    assert commutant_search(2, 4, FORMAL) == []


def test_commutant_rejects_generators_that_do_not_raise_degree():
    with pytest.raises(ValueError):
        commutant_search(2, 3, FORMAL, [()])


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

    q0 = QParam.rational(0)
    small = commutant_search(2, 3, q0)
    large = commutant_search(2, 4, q0)
    # solutions at the larger cap restrict to solutions at the smaller cap
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
    real = schubert.apply_p_lambda

    def counting(p, mu, q):
        calls.append((mu, tuple(p.terms)))
        return real(p, mu, q)

    monkeypatch.setattr(schubert, "apply_p_lambda", counting)
    commutant_search(2, 6, QParam.rational(0))
    assert len(calls) == len(set(calls)) == 36


@pytest.mark.parametrize("n, cap", [(3, 4), (4, 6)])
def test_d_sigma_agrees_with_apply_word(n, cap):
    monos = [m for d in range(cap + 1) for m in monomials_of_degree(n, d)]
    for sigma in all_perms(n):
        for word in all_reduced_words(sigma):
            op = d_sigma(word, n, cap)
            for mono in monos:
                p = Polynomial.monomial(n, mono)
                assert op.apply(p) == apply_word(word, p)


def _random_operator(rng, n, shift, cap):
    blocks = []
    for d in range(cap + 1):
        targets = len(monomials_of_degree(n, d + shift))
        blocks.append(
            tuple(
                {
                    t: RationalFunction.from_int(rng.choice((-2, -1, 1, 3)))
                    for t in range(targets)
                    if rng.random() < 0.3
                }
                for _ in monomials_of_degree(n, d)
            )
        )
    return GradedOperator(n, shift, cap, tuple(blocks))


def _combination(ops, coeffs):
    n, shift, cap = ops[0].n, ops[0].shift, ops[0].cap
    blocks = []
    for d in range(cap + 1):
        rows = []
        for s in range(len(ops[0].blocks[d])):
            acc = {}
            for op, c in zip(ops, coeffs):
                for t, v in op.blocks[d][s].items():
                    acc[t] = acc.get(t, 0) + v * c
            rows.append({t: v for t, v in acc.items() if v})
        blocks.append(tuple(rows))
    return GradedOperator(n, shift, cap, tuple(blocks))


def _dense(op):
    """Every cell of op in (degree, target, source) order, zeros included."""
    out = []
    for d in range(op.cap + 1):
        sources = len(monomials_of_degree(op.n, d))
        for t in range(len(monomials_of_degree(op.n, d + op.shift))):
            for s in range(sources):
                value = op.blocks[d][s].get(t)
                out.append(value.as_fraction() if value else Fraction(0))
    return out


def _brute_rank(vectors):
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_operator_in_span_agrees_with_brute_force_rank():
    rng = random.Random(7)
    seen = set()
    for trial in range(24):
        shift = rng.choice((-1, 1))
        family = [_random_operator(rng, 2, shift, 3) for _ in range(rng.randint(1, 3))]
        if trial % 2:
            op = _combination(family, [rng.randint(-2, 2) for _ in family])
        else:
            op = _random_operator(rng, 2, shift, 3)
        base = _brute_rank(_dense(f) for f in family)
        expected = _brute_rank(_dense(f) for f in [*family, op]) == base
        assert operator_in_span(op, family) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_graded_operator_equality_ignores_insertion_order():
    one, two = RationalFunction.from_int(1), RationalFunction.from_int(2)
    a = GradedOperator(2, 1, 1, (({0: one, 1: two},), ({0: two}, {2: one})))
    b = GradedOperator(2, 1, 1, (({1: two, 0: one},), ({0: two}, {2: one})))
    assert list(a.blocks[0][0]) != list(b.blocks[0][0])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    c = GradedOperator(2, 1, 1, (({0: one, 1: one},), ({0: two}, {2: one})))
    assert a != c
