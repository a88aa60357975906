"""Sparse polynomial arithmetic and the factorial scalar product."""

from fractions import Fraction

import pytest

from qsteenrod.errors import VariableCountMismatchError
from qsteenrod.polynomials import (
    Polynomial,
    factorial_weight,
    monomials_of_degree,
    permute_variables,
    scalar_product,
)
from qsteenrod.scalars import RF_ONE, RF_Q
from qsteenrod.weyl import WeylElement, orbit_sum


def x(n, i):
    return Polynomial.variable(n, i)


def test_product_difference_of_squares():
    lhs = (x(2, 1) - x(2, 2)) * (x(2, 1) + x(2, 2))
    assert lhs == x(2, 1) ** 2 - x(2, 2) ** 2


def test_product_identity():
    p = x(3, 1) * x(3, 2) + x(3, 3) ** 2
    assert p * Polynomial.one(3) == p


def test_square_of_sum():
    got = (x(2, 1) + x(2, 2)) ** 2
    assert got == x(2, 1) ** 2 + (2 * (x(2, 1) * x(2, 2))) + x(2, 2) ** 2


def test_degree_adds():
    a = x(2, 1) ** 3
    b = x(2, 2) ** 2 + x(2, 1) * x(2, 2)
    assert (a * b).degree() == 5


def test_mismatched_variable_counts():
    with pytest.raises(VariableCountMismatchError):
        x(2, 1) * x(3, 1)


def test_no_zero_terms_stored():
    p = x(2, 1) - x(2, 1)
    assert p.is_zero() and p.terms == {}


def test_monomial_order_is_lex_descending():
    monos = monomials_of_degree(2, 2)
    assert monos == [(2, 0), (1, 1), (0, 2)]
    assert monomials_of_degree(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    p = x(3, 2) + x(3, 3)
    assert p.leading_monomial() == (0, 1, 0)


def test_scalar_product_factorial_weights():
    p = Polynomial.monomial(2, (2, 1))
    assert scalar_product(p, p) == RF_ONE * factorial_weight((2, 1))
    assert factorial_weight((2, 1)) == 2
    q = Polynomial.monomial(2, (1, 2))
    assert scalar_product(p, q) == 0


def test_permute_variables_is_a_left_action():
    p = x(3, 1) ** 2 * x(3, 2) + RF_Q * x(3, 3)
    sigma, tau = (2, 3, 1), (3, 1, 2)
    composed = tuple(sigma[t - 1] for t in tau)
    assert permute_variables(permute_variables(p, tau), sigma) == permute_variables(
        p, composed
    )


def test_extended_keeps_terms():
    p = x(2, 1) * x(2, 2)
    assert p.extended(4) == x(4, 1) * x(4, 2)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_no_monomials_of_negative_degree(n):
    assert monomials_of_degree(n, -1) == []
    assert monomials_of_degree(n, -3) == []


# ---------------------------------------------------------------------------
# The sparse-term core shared by Polynomial and WeylElement

RATIO = (RF_Q + 1) / (RF_Q - 1)
MIXED = -(RF_Q * RF_Q + 2) / (RF_Q * 3)


def test_polynomial_never_equals_weyl_element():
    assert Polynomial.zero(2) != WeylElement.zero(2)
    assert WeylElement.zero(2) != Polynomial.zero(2)
    # a Weyl key is no exponent key of a polynomial
    key = ((1, 0), (0, 1))
    with pytest.raises(VariableCountMismatchError):
        Polynomial(2, {key: RF_ONE})
    assert Polynomial.zero(2) == Polynomial.zero(2)
    assert WeylElement.zero(2) == WeylElement.zero(2)


def test_keys_and_coefficients_are_validated():
    for bad in [((1, 0), (0, 1)), (-1, 3), (1, 0, 0), (1.0, 0), (True, 0)]:
        with pytest.raises(VariableCountMismatchError):
            Polynomial(2, {bad: RF_ONE})
    for bad in [(1, 0), ((1, 0), (0,)), ((1, 0), (0, -1)), ((1, 0), (0, 1), (0, 0))]:
        with pytest.raises(VariableCountMismatchError):
            WeylElement(2, {bad: RF_ONE})
    with pytest.raises(TypeError):
        Polynomial.monomial(2, (1, 0), 1.5)
    with pytest.raises(TypeError):
        WeylElement.monomial(2, (1, 0), (0, 1), 1.5)
    # ints and Fractions are embedded in Q(q)
    p = Polynomial(2, {(1, 0): 2, (0, 1): Fraction(1, 2), (0, 0): 0})
    assert p.terms == {(1, 0): RF_ONE + RF_ONE, (0, 1): RF_ONE / 2}
    assert p + p == Polynomial(2, {(1, 0): 4, (0, 1): 1})
    w = WeylElement.monomial(2, (1, 0), (0, 1), Fraction(-3, 4))
    assert w.terms == {((1, 0), (0, 1)): -RF_ONE * 3 / 4}


def test_polynomial_and_weyl_element_do_not_add():
    with pytest.raises(TypeError):
        Polynomial.zero(2) + WeylElement.zero(2)
    with pytest.raises(TypeError):
        WeylElement.identity(2) - Polynomial.one(2)


def test_str_with_rational_coefficients_is_pinned():
    p = Polynomial(
        2,
        {
            (2, 0): RATIO,
            (1, 1): MIXED,
            (0, 2): RF_Q - 2,
            (1, 0): RF_ONE / 2,
            (0, 0): -RATIO,
        },
    )
    assert str(p) == (
        "((q + 1)/(q - 1))*x1^2 + ((-q^2 - 2)/(3*q))*x1*x2 + (1/2)*x1"
        " + (q - 2)*x2^2 + (-q - 1)/(q - 1)"
    )
    w = WeylElement(
        2,
        {
            ((2, 0), (0, 1)): RATIO,
            ((1, 1), (0, 0)): MIXED,
            ((0, 0), (1, 1)): RF_Q - 2,
            ((0, 1), (0, 0)): RF_ONE / 2,
            ((0, 0), (0, 0)): -RATIO,
        },
    )
    assert str(w) == (
        "((q + 1)/(q - 1))*x1^2*d2 + ((-q^2 - 2)/(3*q))*x1*x2 + (1/2)*x2"
        " + (q - 2)*d1*d2 + (-q - 1)/(q - 1)"
    )
    assert repr(w) == f"WeylElement({w})"
    assert repr(p) == f"Polynomial({p})"


def test_orbit_sum_pads_to_more_variables():
    m21 = orbit_sum(Polynomial.monomial(2, (2, 1), RF_Q), 3)
    perms = {(2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2)}
    assert m21 == Polynomial(3, {m: RF_Q for m in perms})
    units = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    euler = orbit_sum(WeylElement.monomial(1, (1,), (1,), 2), 3)
    assert euler == WeylElement(3, {(e, e): RF_ONE + RF_ONE for e in units})
    mixed = orbit_sum(WeylElement.monomial(2, (1, 0), (0, 1)), 3)
    assert mixed == WeylElement(
        3, {(a, b): RF_ONE for a in units for b in units if a != b}
    )
