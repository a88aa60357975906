"""Sparse polynomial arithmetic and the factorial scalar product."""

import pytest

from qsteenrod.errors import VariableCountMismatchError
from qsteenrod.polynomials import (
    Polynomial,
    factorial_weight,
    monomials_of_degree,
    permute_variables,
    poly_mul,
    scalar_product,
)
from qsteenrod.scalars import RF_ONE, RF_Q


def x(n, i):
    return Polynomial.variable(n, i)


def test_product_difference_of_squares():
    lhs = poly_mul(x(2, 1) - x(2, 2), x(2, 1) + x(2, 2))
    assert lhs == x(2, 1) ** 2 - x(2, 2) ** 2


def test_product_identity():
    p = x(3, 1) * x(3, 2) + x(3, 3) ** 2
    assert poly_mul(p, Polynomial.one(3)) == p


def test_square_of_sum():
    got = (x(2, 1) + x(2, 2)) ** 2
    assert got == x(2, 1) ** 2 + (2 * (x(2, 1) * x(2, 2))) + x(2, 2) ** 2


def test_degree_adds():
    a = x(2, 1) ** 3
    b = x(2, 2) ** 2 + x(2, 1) * x(2, 2)
    assert poly_mul(a, b).degree() == 5


def test_mismatched_variable_counts():
    with pytest.raises(VariableCountMismatchError):
        poly_mul(x(2, 1), x(3, 1))


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
