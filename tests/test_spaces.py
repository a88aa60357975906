"""Hit and harmonic slices, Hilbert series, staircases, truncated variants."""

import random
from fractions import Fraction
from functools import partial
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qsteenrod import isotypic, linalg, spaces
from qsteenrod.errors import InhomogeneousError, VariableCountMismatchError
from qsteenrod.isotypic import stable_span
from qsteenrod.linalg import (
    echelonize,
    rf_rows_to_int,
    slice_images,
    slice_kernel,
    slice_span,
)
from qsteenrod.polynomials import Polynomial, monomials_of_degree, scalar_product
from qsteenrod.scalars import QParam, RF_ONE, RF_ZERO, qp_eval, rf_normalize
from qsteenrod.spaces import (
    GradedSubspace,
    StaircaseSet,
    classical_harm_hilbert,
    full_component,
    harm_component,
    hilbert_of,
    hit_component,
    staircase_report,
    truncated_harm_component,
    truncated_hit_component,
    weighted_complement,
)
from qsteenrod.steenrod import apply_pk, make_pk, make_p_lambda
from qsteenrod.weyl import weyl_apply

FORMAL = QParam.formal()
Q_VALUES = (FORMAL, QParam.rational(0), QParam.rational(1), QParam.rational(-1, 2))


def x(n, i):
    return Polynomial.variable(n, i)


def test_hit_first_degree():
    for q in Q_VALUES:
        space = hit_component(2, 1, q)
        assert space.basis == (x(2, 1) + x(2, 2),)


def test_hit_one_variable_degree_two():
    # oracle: P1.x1 = (1+q)x1^2 and P2.1 = x1^2 both span the x1^2 line
    q = FORMAL
    img1 = weyl_apply(make_pk(1, 1, q), x(1, 1))
    img2 = weyl_apply(make_pk(1, 2, q), Polynomial.one(1))
    assert echelonize([img1]) == echelonize([img2]) == [x(1, 1) ** 2]
    assert hit_component(1, 2, q).basis == (x(1, 1) ** 2,)


def test_hit_at_zero_is_the_symmetric_ideal_slice():
    # oracle: span of p1*(linear monomials) and p2 in two variables
    q0 = QParam.rational(0)
    p1 = Polynomial.monomial(2, (1, 0)) + Polynomial.monomial(2, (0, 1))
    p2 = Polynomial.monomial(2, (2, 0)) + Polynomial.monomial(2, (0, 2))
    ideal_slice = echelonize([p1 * x(2, 1), p1 * x(2, 2), p2])
    space = hit_component(2, 2, q0)
    assert list(space.basis) == ideal_slice
    assert space.dim == 3


def test_harm_examples():
    assert harm_component(2, 1, FORMAL).basis == (x(2, 1) - x(2, 2),)
    extra = (x(2, 1) - x(2, 2)) * (x(2, 1) + x(2, 2)) ** 2
    assert harm_component(2, 3, QParam.rational(-2, 3)).contains(extra)
    for d in range(1, 5):
        assert harm_component(1, d, FORMAL).dim == 0


def test_harm_degree_zero():
    for q in Q_VALUES:
        assert harm_component(2, 0, q).basis == (Polynomial.one(2),)
        assert hit_component(2, 0, q).dim == 0


def test_orthogonality_duality():
    for q in Q_VALUES:
        for n in (1, 2, 3):
            for d in range(5):
                harm = harm_component(n, d, q)
                comp = weighted_complement(hit_component(n, d, q))
                assert harm.basis == comp.basis, (n, d, str(q))


def down_kernel_basis(n, d, q, degrees):
    """Oracle: the joint kernel of the D_k, k in degrees, on degree d."""
    rows = rf_rows_to_int(spaces.down_constraint_rows(n, d, q, degrees))
    return tuple(slice_kernel(rows, n, d))


def test_generator_economy():
    # kernel over {D1, D2} equals kernel over {D1..Dd} when q is not zero
    for q in (FORMAL, QParam.rational(1), QParam.rational(-1, 2)):
        for n in (2, 3):
            for d in range(1, 5):
                lean = harm_component(n, d, q)
                full = down_kernel_basis(n, d, q, tuple(range(1, d + 1)))
                assert lean.basis == full


def all_pk_hit_basis(n, d, q):
    """Oracle: the reduced echelon basis of the images of every P_k, k <= d."""
    rows = []
    for k in range(1, d + 1):
        rows.extend(slice_images(partial(weyl_apply, make_pk(n, k, q)), n, d - k, k))
    return tuple(slice_span(rf_rows_to_int(rows), n, d))


def test_hit_generator_economy():
    # images of the generating P_k span the images of all P_k, k <= d
    q_values = [FORMAL] + [
        QParam.rational(*v)
        for v in ((1,), (13, 29), (-1, 2), (-1,), (-1, 3), (-2, 3), (0,))
    ]
    for q in q_values:
        for n, top in ((1, 6), (2, 6), (3, 6), (4, 5)):
            for d in range(top + 1):
                lean = hit_component(n, d, q).basis
                assert lean == all_pk_hit_basis(n, d, q), (n, d, str(q))


def recording(applied, build):
    """build, noting the degree k of each run of calls with the same k."""

    def record(n, d, k, q, down):
        if applied[-1:] != [k]:
            applied.append(k)
        return build(n, d, k, q, down)

    return record


NONZERO_Q = (QParam.rational(1), QParam.rational(-1, 2), QParam.rational(13, 29))
AT_ZERO_CASES = ((2, 5, [1, 2]), (3, 6, [1, 2, 3]), (3, 2, [1, 2]), (4, 1, [1]))


def test_hit_applies_only_the_generating_operators(monkeypatch):
    applied = []
    rows_in = []

    def recording_span(rows, n, d, rows_of):
        rows_in.append(len(rows))
        return stable_span(rows, n, d, rows_of)

    # rule_stacks looks its P_k stack builder up in spaces
    monkeypatch.setattr(spaces, "rule_stack", recording(applied, spaces.rule_stack))
    # hit_component looks its span solver up in spaces
    monkeypatch.setattr(spaces, "stable_span", recording_span)
    build = hit_component
    build(4, 6, FORMAL)
    assert applied == [1, 2]
    assert rows_in == [91]  # 56 images of P_1 and 35 of P_2; all k gave 126
    for q in NONZERO_Q:
        applied.clear()
        build(3, 6, q)
        assert applied == [1, 2], str(q)
    q0 = QParam.rational(0)
    for n, d, ks in AT_ZERO_CASES:
        applied.clear()
        build(n, d, q0)
        assert applied == ks, (n, d)


def test_harm_applies_only_the_generating_down_operators(monkeypatch):
    applied = []
    monkeypatch.setattr(spaces, "rule_stack", recording(applied, spaces.rule_stack))
    build = harm_component.__wrapped__  # bypass the slice cache
    build(4, 6, FORMAL)
    assert applied == [1, 2]
    for q in NONZERO_Q:
        applied.clear()
        build(3, 6, q)
        assert applied == [1, 2], str(q)
    q0 = QParam.rational(0)
    for n, d, ks in AT_ZERO_CASES:
        applied.clear()
        build(n, d, q0)
        assert applied == ks, (n, d)


def test_harm_at_zero_needs_n_generators():
    # the documented pitfall: {D1,D2} alone is too small at q=0 once n > 2
    q0 = QParam.rational(0)
    lean = down_kernel_basis(3, 3, q0, (1, 2))
    full = harm_component(3, 3, q0)
    assert full.dim == 1
    assert len(lean) == 2


def test_specialization_domination():
    for n in (1, 2, 3):
        for d in range(5):
            assert (
                harm_component(n, d, FORMAL).dim
                <= harm_component(n, d, QParam.rational(0)).dim
            )


def test_hit_equals_two_generator_closure():
    # images of all P_k match the closure of repeated P1, P2 applications
    def closure_words(weight):
        if weight == 0:
            yield ()
            return
        for first in (1, 2):
            if first <= weight:
                for rest in closure_words(weight - first):
                    yield (first,) + rest

    for n in (1, 2):
        for d in range(1, 6):
            generators = []
            for weight in range(1, d + 1):
                for word in closure_words(weight):
                    op = make_p_lambda(n, word, FORMAL)
                    for mono in monomials_of_degree(n, d - weight):
                        generators.append(
                            weyl_apply(op, Polynomial.monomial(n, mono))
                        )
            closure = echelonize(generators)
            assert list(hit_component(n, d, FORMAL).basis) == closure


def test_module_generation_inequality():
    # hilb(operator span) * hilb(Harm) dominates hilb(K[X_n]) for n = 2
    from qsteenrod.steenrod import operator_span_rank

    cap = 5
    ranks = [1] + [
        operator_span_rank(2, d, FORMAL, probe_cap=cap + 1).rank
        for d in range(1, cap + 1)
    ]
    harm_dims = [harm_component(2, d, FORMAL).dim for d in range(cap + 1)]
    poly_dims = [d + 1 for d in range(cap + 1)]
    for d in range(cap + 1):
        conv = sum(ranks[i] * harm_dims[d - i] for i in range(d + 1))
        assert conv >= poly_dims[d]


def test_low_degree_agreement():
    for n in (2, 3, 4):
        for d in range(n + 1):
            assert (
                hit_component(n, d, FORMAL).dim
                == hit_component(n, d, QParam.rational(0)).dim
            )
            assert (
                harm_component(n, d, FORMAL).dim
                == harm_component(n, d, QParam.rational(0)).dim
            )


def test_hilbert_examples():
    assert classical_harm_hilbert(3).coefficients == (1, 2, 2, 1)
    assert hilbert_of("polynomials", 2, 3).coefficients == (1, 2, 3, 4)
    assert hilbert_of("sym", 2, 4).coefficients == (1, 1, 2, 2, 3)
    assert hilbert_of("partitions", 1, 6).coefficients == (1, 1, 2, 3, 5, 7, 11)
    assert tuple(harm_component(2, d, FORMAL).dim for d in range(4)) == (1, 1, 0, 0)


def test_hilbert_of_has_only_closed_forms():
    with pytest.raises(ValueError, match="closed-form"):
        hilbert_of("harm", 2, 3)


def test_classical_harm_dimensions_match_product():
    q0 = QParam.rational(0)
    for n in (1, 2, 3):
        series = classical_harm_hilbert(n)
        top = n * (n - 1) // 2
        for d in range(top + 2):
            assert harm_component(n, d, q0).dim == series[d]


def test_staircase_set():
    st3 = StaircaseSet(3)
    monos = st3.monomials()
    assert len(monos) == 6
    assert st3.contains((2, 1, 0)) and not st3.contains((0, 0, 1))
    assert StaircaseSet(1).monomials() == [(0,)]


def test_leading_monomials_examples():
    harm0 = harm_component(2, 0, FORMAL)
    harm1 = harm_component(2, 1, FORMAL)
    assert harm0.leading_monomials() | harm1.leading_monomials() == {
        (0, 0),
        (1, 0),
    }
    assert hit_component(2, 1, FORMAL).leading_monomials() == {(1, 0)}
    assert harm_component(1, 0, QParam.rational(1)).leading_monomials() == {(0,)}


def test_staircase_report_flags_degree_one_overlap():
    report = staircase_report(2, 2, FORMAL)
    row1 = report.degrees[1]
    assert row1.harm_inside_staircase
    assert not row1.hit_inside_complement
    assert not row1.union_exact
    row2 = report.degrees[2]
    assert row2.union_exact


def test_truncated_small_degrees():
    for d in (0, 1, 2):
        tqhit = truncated_hit_component(2, d, FORMAL)
        tqharm = truncated_harm_component(2, d, FORMAL)
        classical = harm_component(2, d, QParam.rational(0))
        assert tqharm.dim == classical.dim
        if d == 0:
            assert tqhit.dim == 0 and tqharm.basis == (Polynomial.one(2),)


def test_truncated_direct_sum():
    for n in (2, 3):
        for d in range(5):
            tqhit = truncated_hit_component(n, d, FORMAL)
            classical = harm_component(n, d, QParam.rational(0))
            combined = echelonize(list(classical.basis) + list(tqhit.basis))
            assert len(combined) == classical.dim + tqhit.dim
            assert len(combined) == len(monomials_of_degree(n, d))


def test_subspace_membership_and_coordinates():
    space = harm_component(3, 1, FORMAL)
    assert space.dim == 2
    combo = space.basis[0] - space.basis[1].scale(3)
    assert space.contains(combo)
    assert not space.contains(x(3, 1))
    coords = space.coordinates(combo)
    assert coords is not None
    rebuilt = Polynomial.zero(3)
    for c, b in zip(coords, space.basis):
        rebuilt = rebuilt + b.scale(c)
    assert rebuilt == combo
    assert space.contains(Polynomial.zero(3))
    assert not space.contains(x(3, 1) * x(3, 2))
    assert not space.contains(x(2, 1))


def test_coordinates_on_unreduced_echelon_basis():
    # unit leading coefficients, but b0 has a term at the leading monomial of b1
    b0 = x(2, 1) ** 2 + x(2, 1) * x(2, 2)
    b1 = x(2, 1) * x(2, 2) + x(2, 2) ** 2
    space = GradedSubspace(2, 2, (b0, b1))
    p = b0 + b1.scale(2)
    assert space.coordinates(p) == [RF_ONE, RF_ONE * 2]
    assert space.contains(p)
    assert not space.contains(x(2, 2) ** 2)


def test_full_component():
    space = full_component(2, 2)
    assert space.dim == 3
    assert [p.leading_monomial() for p in space.basis] == [
        (2, 0),
        (1, 1),
        (0, 2),
    ]


def test_from_spanning_reads_an_iterator_once():
    polys = [x(2, 1), x(2, 2)]
    assert GradedSubspace.from_spanning(2, 1, (p for p in polys)).dim == 2
    assert GradedSubspace.from_spanning(2, 1, iter(polys)) == (
        GradedSubspace.from_spanning(2, 1, polys)
    )


def test_from_spanning_rejects_polys_outside_the_slice():
    with pytest.raises(VariableCountMismatchError):
        GradedSubspace.from_spanning(2, 1, [x(3, 1)])
    with pytest.raises(InhomogeneousError):
        GradedSubspace.from_spanning(2, 1, [x(2, 1), x(2, 1) * x(2, 2)])


def test_weighted_complement_symmetric_line():
    comp = weighted_complement(GradedSubspace.from_spanning(2, 1, [x(2, 1) + x(2, 2)]))
    assert comp.basis == (x(2, 1) - x(2, 2),)


def test_weighted_complement_of_full_space_is_zero():
    assert weighted_complement(full_component(2, 2)).dim == 0


def test_weighted_complement_univariate():
    line = GradedSubspace.from_spanning(1, 2, [x(1, 1) ** 2])
    assert weighted_complement(line).dim == 0


def _random_subspace(rng, n, d):
    """Span of a random number of random polys with coefficients a + b q."""
    monos = monomials_of_degree(n, d)
    polys = []
    for _ in range(rng.randint(0, len(monos))):
        terms = {
            m: rf_normalize((rng.randint(-4, 4), rng.randint(-2, 2)), (1,))
            for m in rng.sample(monos, rng.randint(1, len(monos)))
        }
        polys.append(Polynomial(n, terms))
    return GradedSubspace.from_spanning(n, d, polys)


def test_weighted_complement_involution():
    rng = random.Random(7)
    for n, d in [(2, 2), (2, 3), (3, 2), (3, 4)]:
        v = _random_subspace(rng, n, d)
        comp = weighted_complement(v)
        assert comp.dim == len(monomials_of_degree(n, d)) - v.dim
        assert weighted_complement(comp) == v


def test_weighted_complement_is_orthogonal_under_the_factorial_product():
    # oracle: scalar_product, whose default weight is K!; unit weights fail
    # this from degree 2 on
    rng = random.Random(2024)
    spaces_to_check = [
        _random_subspace(rng, n, d)
        for n in (1, 2, 3)
        for d in range(5)
        for _ in range(3)
    ]
    spaces_to_check += [
        hit_component(n, d, q) for q in Q_VALUES for n in (1, 2, 3) for d in range(5)
    ]
    for v in spaces_to_check:
        comp = weighted_complement(v)
        assert v.dim + comp.dim == comb(v.n + v.degree - 1, v.degree)
        for w in comp.basis:
            for b in v.basis:
                assert scalar_product(w, b) == RF_ZERO, (v.n, v.degree)


# A bad value joins the grid: at q = -1/2, harm(4, 4) has dimension 8, not 5.
BLOCK_Q = Q_VALUES + (QParam.rational(11, 13),)
BUILDERS = {
    "harm": harm_component,
    "hit": hit_component,
    "tqhit": truncated_hit_component,
}


def _uncached(build):
    """The slice builder past its lru_cache (hit slices have none)."""
    return getattr(build, "__wrapped__", build)


def _routes(kind, n, d, q):
    """The rows of one slice, the rows each block is solved on, its block
    solver and its whole-slice solver."""
    if kind == "tqhit":
        rows = spaces.truncated_hit_rows(n, d, q)
        return rows, lambda lam: rows, isotypic.block_span, slice_span
    stacks = spaces.rule_stacks(kind, n, d, q)
    rows = [row for stack in stacks.values() for row in stack]
    rows_of = partial(isotypic.pivot_rows, stacks, n, d)
    if kind == "harm":
        return rows, rows_of, isotypic.block_kernel, slice_kernel
    return rows, rows_of, isotypic.block_span, slice_span


@pytest.mark.parametrize("q", BLOCK_Q, ids=str)
def test_block_route_matches_whole_slice(q):
    cells = [(k, n, d) for k in ("harm", "hit") for n in range(1, 5) for d in range(8)]
    cells += [("tqhit", n, d) for n in range(1, 5) for d in range(6)]
    if q == QParam.rational(1):
        cells += [("harm", 5, 6), ("hit", 5, 6)]
    for kind, n, d in cells:
        rows, rows_of, blocks, whole = _routes(kind, n, d, q)
        assert blocks(rows_of, n, d) == whole(rows, n, d), (kind, n, d, str(q))
    if q == QParam.rational(-1, 2):
        assert harm_component(4, 4, q).dim == 8


@pytest.mark.parametrize("q", BLOCK_Q, ids=str)
def test_block_dimension_matches_the_slices(q):
    # the certified block ranks of the integer rule stacks against the
    # dimension of the reduced echelon basis of each slice
    cells = [(n, d) for n in range(1, 5) for d in range(9)]
    cells += [(5, d) for d in range(7)]
    for n, d in cells:
        assert spaces.block_dimension("harm", n, d, q) == harm_component(n, d, q).dim
        assert spaces.block_dimension("hit", n, d, q) == hit_component(n, d, q).dim


def _slice_stack(kind, n, d, k, q):
    """The same matrix from the polynomial slice layout, entries in Q(q)."""
    if kind == "harm":
        return spaces.down_operator_rows(n, d, q, k)
    return slice_images(partial(apply_pk, k=k, q=q), n, d - k, k)


@pytest.mark.parametrize("kind", ["harm", "hit"])
def test_rule_stacks_match_the_slice_layout(kind):
    # formal: the cleared rows exactly; at q0 the same rows, evaluated, up to
    # one nonzero constant for the whole stack
    for n in range(1, 5):
        for d in range(7):
            degrees = range(1, d + 1)
            stacks = spaces.rule_stacks(kind, n, d, FORMAL, degrees)
            assert sorted(stacks) == list(degrees)
            for k, stack in stacks.items():
                rows = _slice_stack(kind, n, d, k, FORMAL)
                assert all(v.den == (1,) for row in rows for v in row.values())
                assert stack == [{j: v.num for j, v in row.items()} for row in rows]
            for q in BLOCK_Q[1:]:
                at_q = spaces.rule_stacks(kind, n, d, q, degrees)
                for k, stack in at_q.items():
                    assert all(len(v) == 1 for row in stack for v in row.values())
                    rows = _slice_stack(kind, n, d, k, q)
                    evaluated = [
                        {j: qp_eval(v, q.value) for j, v in row.items()}
                        for row in stacks[k]
                    ]
                    evaluated = [{j: v for j, v in r.items() if v} for r in evaluated]
                    assert [set(r) for r in rows] == [set(r) for r in evaluated]
                    assert [set(r) for r in rows] == [set(r) for r in stack]
                    ratios = {
                        Fraction(v[0]) / evaluated[i][j]
                        for i, row in enumerate(stack)
                        for j, v in row.items()
                    }
                    ratios |= {
                        Fraction(v[0]) / rows[i][j].evaluate(q.value)
                        for i, row in enumerate(stack)
                        for j, v in row.items()
                    }
                    assert len(ratios) <= 1 and 0 not in ratios, (n, d, k, str(q))


def test_short_spread_raises(monkeypatch):
    # Spread by the identity alone, e_T ker M for lam = (2, 1) (f_lam = 2)
    # gives one of the two copies of S^(2,1) in each slice below.
    original = isotypic.spread_permutations
    monkeypatch.setattr(
        isotypic,
        "spread_permutations",
        lambda lam: [(1, 2, 3)] if lam == (2, 1) else original(lam),
    )
    assert isotypic.blocks_pay(3, 2)
    for build in BUILDERS.values():
        with pytest.raises(AssertionError, match="spread"):
            _uncached(build)(3, 2, FORMAL)


def test_short_block_basis_raises(monkeypatch):
    # Without one vector of B_(2,1) the bases no longer cover the slice; at
    # d = 5, a full slice, every block would still certify itself full.
    original = isotypic.block_basis

    def short(n, d, lam):
        basis = original(n, d, lam)
        return basis[1:] if lam == (2, 1) else basis

    monkeypatch.setattr(isotypic, "block_basis", short)
    for d in (2, 5):
        assert isotypic.blocks_pay(3, d)
        for build in BUILDERS.values():
            with pytest.raises(AssertionError, match="cover"):
                _uncached(build)(3, d, FORMAL)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(BUILDERS)),
    st.integers(1, 3),
    st.integers(0, 6),
    st.sampled_from(BLOCK_Q),
)
def test_block_whole_cached_uncached_agree(kind, n, d, q):
    rows, rows_of, blocks, whole = _routes(kind, n, d, q)
    uncached = _uncached(BUILDERS[kind])(n, d, q).basis
    assert tuple(blocks(rows_of, n, d)) == tuple(whole(rows, n, d)) == uncached
    assert BUILDERS[kind](n, d, q).basis == uncached


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 6), st.sampled_from(BLOCK_Q))
def test_harm_is_the_weighted_complement_of_hit(n, d, q):
    hit = hit_component(n, d, q)
    assert weighted_complement(hit).basis == harm_component(n, d, q).basis


STACK_Q = BLOCK_Q[:3] + (
    QParam.rational(-1),
    QParam.rational(-1, 2),
    QParam.rational(-2, 3),
    QParam.rational(11, 13),
)


@pytest.mark.parametrize("q", STACK_Q, ids=str)
def test_stack_slices_match_the_polynomial_reference(q):
    # harm and hit from the integer rule stacks, blocks on their pivot rows,
    # against the whole-slice solvers of the rows built by applying D_k and
    # P_k to every monomial as polynomials
    cells = [(n, d) for n in range(1, 5) for d in range(9)]
    cells += [(5, d) for d in range(7)]
    degrees = spaces.generating_degrees
    for n, d in cells:
        harm_rows = spaces.down_constraint_rows(n, d, q, degrees(n, q))
        reference = slice_kernel(rf_rows_to_int(harm_rows), n, d)
        assert list(_uncached(harm_component)(n, d, q).basis) == reference, (n, d)
        hit_rows = spaces.hit_generator_rows(n, d, q)
        reference = slice_span(rf_rows_to_int(hit_rows), n, d)
        assert list(hit_component(n, d, q).basis) == reference, (n, d)
