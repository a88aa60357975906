"""Canonical forms and field axioms of the exact scalars."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsteenrod import scalars
from qsteenrod.errors import PoleError, ZeroDenominatorError
from qsteenrod.scalars import (
    QParam,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    _prs_fold,
    _prs_gcd,
    qp,
    qp_common_factor,
    qp_gcd,
    qp_lcm,
    qp_degree,
    qp_mul,
    qp_pseudo_divmod,
    qp_scale,
    qp_sub,
    rf_normalize,
)


def test_normalize_cancels_common_factor():
    assert rf_normalize((-1, 0, 1), (-1, 1)) == RF_Q + 1


def test_normalize_zero():
    assert rf_normalize((), (7, 0, 0, 1)) == RF_ZERO
    assert RF_ZERO.num == () and RF_ZERO.den == (1,)


def test_normalize_content():
    got = rf_normalize((2, 2), (4,))
    assert got.num == (1, 1) and got.den == (2,)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominatorError):
        rf_normalize((1,), ())


def test_denominator_sign_normalized():
    got = rf_normalize((1,), (-1, -2))
    assert got.den[-1] > 0
    assert got == rf_normalize((-1,), (1, 2))


def test_evaluate_and_pole():
    f = RF_ONE / (RF_Q - 1)
    assert f.evaluate(Fraction(3)) == Fraction(1, 2)
    with pytest.raises(PoleError):
        f.evaluate(Fraction(1))


def test_gcd_examples():
    assert qp_gcd(qp(-1, 0, 1), qp(-1, 1)) == qp(-1, 1)
    assert qp_gcd(qp(2, 2), qp(4)) == qp(2)
    assert qp_gcd(qp(), qp(-3)) == qp(3)


small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=4).map(
    lambda c: tuple(c)
)


def rf_strategy():
    return st.builds(
        lambda num, den: rf_normalize(num, den),
        small_polys,
        small_polys.filter(lambda c: any(c)),
    )


# Coefficients small (with many zeros, so interior zero coefficients are
# common), or of up to 80 bits; either sign, so leading coefficients can be
# negative.  A polynomial of one coefficient is a constant.
coefficients = st.one_of(
    st.integers(-3, 3), st.integers(-(2**80), 2**80)
)
polys = st.lists(coefficients, min_size=0, max_size=6).map(lambda c: qp(*c))
planted_rows = st.tuples(
    polys.filter(bool), st.lists(polys, min_size=1, max_size=10)
).map(lambda fc: [qp_mul(fc[0], c) for c in fc[1]])


def assert_common_factor(values):
    g, quotients = qp_common_factor(values)
    assert g == _prs_fold(values)
    assert len(quotients) == len(values)
    if g:
        assert all(qp_mul(f, g) == v for f, v in zip(quotients, values))
    else:
        assert quotients == list(values)


@settings(max_examples=300, deadline=None)
@given(planted_rows)
def test_common_factor_matches_prs_fold(values):
    assert_common_factor(values)
    a, b = values[0], values[-1]
    assert qp_gcd(a, b) == _prs_gcd(a, b)
    assert qp_gcd(b, a) == _prs_gcd(a, b)


@settings(max_examples=300, deadline=None)
@given(polys, polys.filter(bool))
def test_pseudo_divmod_identity(a, b):
    quot, rem, scale = qp_pseudo_divmod(a, b)
    assert qp_sub(qp_scale(a, scale), qp_mul(quot, b)) == rem
    assert qp_degree(rem) < qp_degree(b)
    assert scale == b[-1] ** max(qp_degree(a) - qp_degree(b) + 1, 0)


def test_common_factor_edge_cases():
    for values in (
        [()],
        [(), ()],
        [(), (-3,)],
        [(-6,), (4, 2)],
        [(0, 0, -4), (0, 2)],
        [(-1, 0, 1), (-1, 1)],
        [qp(2**80, 0, -(2**80)), qp(0, 2**81, 2**81)],
    ):
        assert_common_factor(values)
    assert qp_gcd((), ()) == ()
    assert qp_gcd((), (-2, -4)) == (2, 4)
    assert qp_lcm((-1, 0, 1), (1, 1)) == (-1, 0, 1)


def test_rejected_heuristic_falls_back_to_prs(monkeypatch):
    # q^50 divides no entry, so every try is rejected
    tries = []

    def reject(gamma, xi):
        tries.append(xi)
        return (0,) * 50 + (1,)

    monkeypatch.setattr(scalars, "_symmetric_digits", reject)
    values = [
        qp_mul((1, 1), (3, 0, -2)),
        qp_mul((1, 1), (5, 7)),
        qp_mul((1, 1), (0, 4, 0, 1)),
    ]
    assert qp_common_factor(values)[0] == (1, 1)
    assert len(tries) == scalars._HEU_TRIES
    assert tries == sorted(set(tries))  # each try at a larger point
    assert_common_factor(values)


def test_rejected_candidate_is_retried(monkeypatch):
    # the first candidate, q + 2, divides no entry; the second try is genuine
    real = scalars._symmetric_digits
    tries = []

    def first_wrong(gamma, xi):
        tries.append(xi)
        return (2, 1) if len(tries) == 1 else real(gamma, xi)

    monkeypatch.setattr(scalars, "_symmetric_digits", first_wrong)
    values = [qp_mul((-1, 3), (3, 0, -2)), qp_mul((-1, 3), (5, 7))]
    assert qp_common_factor(values)[0] == (-1, 3)
    assert len(tries) == 2


@settings(max_examples=60, deadline=None)
@given(rf_strategy(), rf_strategy(), rf_strategy())
def test_field_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    if a:
        assert (a * b) / a == b


@settings(max_examples=60, deadline=None)
@given(rf_strategy())
def test_canonical_form_idempotent(a):
    again = rf_normalize(a.num, a.den)
    assert again.num == a.num and again.den == a.den
    # numerator and denominator share no factor
    g = qp_gcd(a.num, a.den)
    assert len(g) <= 1


@settings(max_examples=40, deadline=None)
@given(rf_strategy(), st.fractions(min_value=-5, max_value=5))
def test_evaluation_is_a_homomorphism(a, q0):
    try:
        va = a.evaluate(q0)
    except PoleError:
        return
    b = a * a + 3
    assert b.evaluate(q0) == va * va + 3


def test_qparam_parse():
    assert QParam.parse("formal").is_formal
    assert QParam.parse("-2/3").value == Fraction(-2, 3)
    assert QParam.parse("5").value == 5
    assert QParam.parse("0").is_zero
    with pytest.raises(ValueError):
        QParam.parse("q+1")


def test_qparam_scalar():
    assert QParam.formal().scalar() == RF_Q
    assert QParam.rational(-1, 2).scalar() == rf_normalize((-1,), (2,))
    assert str(QParam.rational(2, 4)) == "1/2"
