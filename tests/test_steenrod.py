"""Deformed power sums: commutation, straightening, triangularity, ranks."""

import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from qsteenrod.errors import NonSymmetricError
from qsteenrod.polynomials import Polynomial, monomials_of_degree
from qsteenrod.scalars import QParam, RF_ONE, RF_Q, RF_ZERO, rf_normalize
from qsteenrod.linalg import (
    GradedOperator,
    echelonize,
    kernel_basis,
    operator_rows,
    reduced_echelon,
    rf_rows_to_int,
    transpose,
)
from qsteenrod.steenrod import (
    apply_dk,
    apply_p_lambda,
    apply_pk,
    dual_pk,
    make_p_lambda,
    make_pk,
    monomial_expansion,
    monomial_symmetric,
    operator_span_rank,
    partitions_of,
    polynomial_part,
    straighten,
)
from qsteenrod.weyl import WeylElement, weyl_apply, weyl_compose

FORMAL = QParam.formal()
Q_VALUES = (FORMAL, QParam.rational(0), QParam.rational(1), QParam.rational(-1, 2))


def compositions(weight, max_weight_parts=None):
    """All compositions of the given weight."""
    if weight == 0:
        yield ()
        return
    for first in range(1, weight + 1):
        for rest in compositions(weight - first):
            yield (first,) + rest


def test_make_pk_definition():
    got = make_pk(2, 1, FORMAL)
    expected = (
        WeylElement.monomial(2, (1, 0), (0, 0))
        + WeylElement.monomial(2, (0, 1), (0, 0))
        + WeylElement.monomial(2, (2, 0), (1, 0), RF_Q)
        + WeylElement.monomial(2, (0, 2), (0, 1), RF_Q)
    )
    assert got == expected
    assert got.grading() == 1 and got.order() == 1


def test_make_pk_at_zero_is_power_sum_multiplication():
    p = polynomial_part(make_pk(2, 2, QParam.rational(0)))
    assert p == Polynomial.monomial(2, (2, 0)) + Polynomial.monomial(2, (0, 2))


def test_make_pk_at_one_single_variable():
    # oracle: apply x(1 + x d) to x directly: x*x + x*(x*1) = 2x^2
    q1 = QParam.rational(1)
    got = weyl_apply(make_pk(1, 1, q1), Polynomial.variable(1, 1))
    assert got == Polynomial.monomial(1, (2,), 2)


def test_make_pk_rejects_zero_degree():
    with pytest.raises(ValueError):
        make_pk(2, 0, FORMAL)


def test_make_pk_symmetric():
    from qsteenrod.weyl import orbit_sum

    pk = make_pk(3, 2, FORMAL)
    base = WeylElement.monomial(3, (2, 0, 0), (0, 0, 0)) + WeylElement.monomial(
        3, (3, 0, 0), (1, 0, 0), RF_Q
    )
    sym = orbit_sum(WeylElement.monomial(3, (2, 0, 0), (0, 0, 0))) + orbit_sum(
        WeylElement.monomial(3, (3, 0, 0), (1, 0, 0))
    ).scale(RF_Q)
    assert pk == sym


RULE_Q = (
    FORMAL,
    QParam.rational(0),
    QParam.rational(1),
    QParam.rational(-1, 2),
    QParam.rational(13, 29),
)


@pytest.mark.parametrize("q", RULE_Q, ids=str)
def test_monomial_rules_match_the_weyl_algebra(q):
    # every monomial of degree <= 5 on up to 4 variables, P_k and D_k for
    # k <= 3, P_lambda for every lambda |- 4 and P_mu for every composition
    # mu of 1..3 (the commutant's generators)
    compositions = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 2), (1, 1, 1)]
    for n in range(1, 5):
        ups = {k: make_pk(n, k, q) for k in (1, 2, 3)}
        downs = {k: dual_pk(n, k, q) for k in (1, 2, 3)}
        products = {
            mu: make_p_lambda(n, mu, q) for mu in [*partitions_of(4), *compositions]
        }
        for d in range(6):
            for mono in monomials_of_degree(n, d):
                p = Polynomial.monomial(n, mono)
                for k in (1, 2, 3):
                    assert apply_pk(p, k, q) == weyl_apply(ups[k], p), (n, mono, k)
                    assert apply_dk(p, k, q) == weyl_apply(downs[k], p), (n, mono, k)
                for lam, op in products.items():
                    assert apply_p_lambda(p, lam, q) == weyl_apply(op, p), (n, mono, lam)


def test_monomial_rules_reject_zero_degree():
    p = Polynomial.one(2)
    for apply in (apply_pk, apply_dk):
        with pytest.raises(ValueError):
            apply(p, 0, FORMAL)
    assert apply_p_lambda(p, (), FORMAL) == p


@st.composite
def rule_polynomials(draw):
    """Polynomials on 1..3 variables of mixed degrees <= 4, with coefficients
    in Z[q] / Z (some terms cancel under the operators at special q)."""
    n = draw(st.integers(1, 3))
    monos = draw(
        st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=6, unique=True)
    )
    terms = {}
    for mono in monos:
        num = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
        terms[mono] = rf_normalize(num, (draw(st.integers(1, 4)),))
    return Polynomial(n, terms)


@settings(max_examples=60, deadline=None)
@given(
    rule_polynomials(),
    st.integers(1, 3),
    st.lists(st.integers(1, 3), max_size=3),
    st.sampled_from(RULE_Q),
)
def test_monomial_rules_match_the_weyl_algebra_on_polynomials(p, k, mu, q):
    n = p.n
    assert apply_pk(p, k, q) == weyl_apply(make_pk(n, k, q), p)
    assert apply_dk(p, k, q) == weyl_apply(dual_pk(n, k, q), p)
    assert apply_p_lambda(p, mu, q) == weyl_apply(make_p_lambda(n, mu, q), p)


def test_make_p_lambda_structure():
    op = make_p_lambda(2, (2, 1), FORMAL)
    assert op.grading() == 3
    assert op.order() <= 2
    assert make_p_lambda(2, (), FORMAL) == WeylElement.identity(2)


def test_commutation_rule():
    for q in Q_VALUES:
        qs = q.scalar()
        for n in (1, 2, 3):
            for k, l in [(1, 2), (1, 3), (2, 3), (2, 4)]:
                bracket = weyl_compose(
                    make_pk(n, k, q), make_pk(n, l, q)
                ) - weyl_compose(make_pk(n, l, q), make_pk(n, k, q))
                assert bracket == make_pk(n, k + l, q).scale(qs * (l - k))


def test_straighten_paper_example():
    got = straighten((1, 2), FORMAL)
    assert got == {(2, 1): RF_ONE, (3,): RF_Q}


def test_straighten_fixes_partitions():
    for lam in [(3, 1), (2, 2), (5, 4, 1)]:
        assert straighten(lam, FORMAL) == {lam: RF_ONE}


def test_straighten_one_swap():
    # oracle below re-expands; the coefficient comes from [P_1, P_3] = 2q P_4
    got = straighten((1, 3), FORMAL)
    assert got == {(3, 1): RF_ONE, (4,): 2 * RF_Q}


@pytest.mark.parametrize("q", Q_VALUES)
def test_straighten_reexpansion_matches_composition(q):
    n = 3
    for weight in range(1, 5):
        for mu in compositions(weight):
            direct = make_p_lambda(n, mu, q)
            recombined = WeylElement.zero(n)
            for lam, coeff in straighten(mu, q).items():
                assert lam == tuple(sorted(lam, reverse=True))
                recombined = recombined + make_p_lambda(n, lam, q).scale(coeff)
            assert recombined == direct, mu


def test_straighten_respects_concatenation():
    # straightening is multiplicative across concatenation of words
    rng = random.Random(3)
    q = FORMAL
    for _ in range(10):
        mu = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
        nu = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
        whole = straighten(mu + nu, q)
        pairwise: dict = {}
        for lam1, c1 in straighten(mu, q).items():
            for lam2, c2 in straighten(nu, q).items():
                for lam, c in straighten(lam1 + lam2, q).items():
                    acc = pairwise.get(lam, RF_ZERO) + c1 * c2 * c
                    if acc:
                        pairwise[lam] = acc
                    else:
                        pairwise.pop(lam, None)
        assert whole == pairwise


def test_polynomial_part_paper_example():
    p = polynomial_part(make_p_lambda(3, (2, 1), FORMAL))
    expansion = monomial_expansion(p)
    assert expansion == {(2, 1): RF_ONE, (3,): RF_Q + 1}


def test_polynomial_part_single_generator():
    p = polynomial_part(make_pk(3, 4, FORMAL))
    assert monomial_expansion(p) == {(4,): RF_ONE}
    assert polynomial_part(WeylElement.identity(2)) == Polynomial.one(2)


def test_monomial_expansion_rejects_non_symmetric():
    with pytest.raises(NonSymmetricError):
        monomial_expansion(Polynomial.variable(2, 1))


def multiplicity_factorial(lam):
    out = 1
    for part in set(lam):
        from math import factorial

        out *= factorial(lam.count(part))
    return out


def test_triangularity():
    # the m_lambda coefficient is the unit prod_i mult_i(lam)! (1 for
    # distinct parts, e.g. 2 for (1,1) since p_1^2 = m_2 + 2 m_11),
    # q-free, and every other index is strictly shorter
    for n in (2, 3, 4):
        for weight in range(1, 5):
            for lam in partitions_of(weight, max_length=n):
                expansion = monomial_expansion(
                    polynomial_part(make_p_lambda(n, lam, FORMAL))
                )
                assert expansion[lam] == multiplicity_factorial(lam)
                for mu in expansion:
                    if mu != lam:
                        assert len(mu) < len(lam), (lam, mu)


def test_generated_by_first_two():
    """P_k lies in the commutator span of P_1, P_2 after dividing by q(l-k).

    `hit_component` applies only P_1 and P_2 at every nonzero q, so this is
    checked at the formal q, at q = 1, at bad values and at a generic one.
    """
    q_values = (
        FORMAL,
        QParam.rational(1),
        QParam.rational(-1, 2),
        QParam.rational(-1, 3),
        QParam.rational(13, 29),
    )
    for q in q_values:
        for n in (1, 2, 3):
            p = {k: make_pk(n, k, q) for k in (1, 2)}
            for k in range(3, 8):
                bracket = weyl_compose(p[1], p[k - 1]) - weyl_compose(p[k - 1], p[1])
                p[k] = bracket.scale(RF_ONE / (q.scalar() * (k - 2)))
                assert p[k] == make_pk(n, k, q), (str(q), n, k)


def test_hit_symmetry():
    """The polynomial parts of P_lambda span all symmetric polynomials."""
    for n in (2, 3):
        for d in range(1, 5):
            parts = [
                polynomial_part(make_p_lambda(n, lam, FORMAL))
                for lam in partitions_of(d, max_length=n)
            ]
            basis = echelonize(parts)
            sym_basis = echelonize(
                [
                    monomial_symmetric(n, lam)
                    for lam in partitions_of(d, max_length=n)
                ]
            )
            assert basis == sym_basis


def test_orbit_sum_expansion_of_p21():
    # re-derive the orbit-sum expansion of P_2 P_1 from scratch; the mixed
    # 2q(q+1) coefficient is the interesting one
    from qsteenrod.weyl import orbit_sum

    n = 3
    direct = make_p_lambda(n, (2, 1), FORMAL)

    def o(xs, ds):
        return orbit_sum(WeylElement.monomial(n, xs, ds), n)

    expansion = (
        o((2, 1, 0), (0, 0, 0))
        + o((3, 0, 0), (0, 0, 0)).scale(RF_Q + 1)
        + o((5, 0, 0), (2, 0, 0)).scale(RF_Q * RF_Q)
        + o((3, 2, 0), (1, 1, 0)).scale(RF_Q * RF_Q)
        + o((3, 1, 0), (1, 0, 0)).scale(RF_Q)
        + o((4, 0, 0), (1, 0, 0)).scale(RF_Q * (RF_Q + 1) * 2)
        + o((2, 2, 0), (1, 0, 0)).scale(RF_Q)
    )
    assert expansion == direct


def test_multiplication_operators_act_by_multiplication():
    n = 4
    p = Polynomial.monomial(n, (1, 1, 0, 0))
    arg = Polynomial.one(n) + Polynomial.monomial(n, (0, 1, 0, 1))
    acted = weyl_apply(WeylElement.from_polynomial(p), arg)
    assert acted == p * arg
    assert acted.coefficient((1, 2, 0, 1)) == 1


def test_operator_span_rank_examples():
    r = operator_span_rank(2, 3, FORMAL, probe_cap=5)
    assert r.rank == 3 and not r.relations

    r0 = operator_span_rank(2, 3, QParam.rational(0), probe_cap=5)
    assert r0.rank == 2 and len(r0.relations) == 1
    relation = r0.relations[0]
    signs = {lam: relation[lam].as_fraction() for lam in relation}
    reference = 1 if signs[(1, 1, 1)] > 0 else -1
    for lam, value in signs.items():
        assert value != 0
        expected_sign = reference * (-1) ** (len(lam) - 3)
        assert (value > 0) == (expected_sign > 0)

    r1 = operator_span_rank(1, 1, FORMAL, probe_cap=2)
    assert r1.rank == 1


def _span_rank_on_every_cell(n, d, q, probe_cap):
    """Rank and relations of the P_lambda, lambda |- d, from every cell up to
    the cap: each operator on every degree at once, one matrix, one exact
    reduced echelon form."""
    lams = tuple(partitions_of(d))
    operators = [
        GradedOperator.from_callable(
            n, d, probe_cap, partial(apply_p_lambda, mu=lam, q=q)
        )
        for lam in lams
    ]
    rows, ncells = operator_rows(operators)
    cells = rf_rows_to_int(transpose(rows, ncells))
    pivots, reduced = reduced_echelon(cells, len(lams))
    vecs = kernel_basis(pivots, reduced, len(lams))
    relations = tuple({lams[j]: c for j, c in sorted(v.items())} for v in vecs)
    return len(pivots), relations


SPAN_Q_VALUES = Q_VALUES + (QParam.rational(-1), QParam.rational(11, 13))
SPAN_SHAPES = [(n, d) for n in range(1, 5) for d in range(1, 6)] + [(3, 6)]


@pytest.mark.parametrize("n, d", SPAN_SHAPES)
def test_operator_span_rank_matches_every_cell(n, d):
    """The degree-by-degree probe with its mod-P stop gives the rank and
    relations of the whole probe, full rank or not."""
    cap = max(d, n + 2)
    deficient = 0
    for q in SPAN_Q_VALUES:
        got = operator_span_rank(n, d, q, probe_cap=cap)
        rank, relations = _span_rank_on_every_cell(n, d, q, cap)
        assert (got.rank, got.relations) == (rank, relations), (n, d, q)
        assert got.partitions == tuple(partitions_of(d))
        deficient += bool(relations)
    if d > n:
        # at q = 0 the P_lambda multiply by power sums, dependent in degree
        # d > n: the exact fallback runs
        assert deficient
