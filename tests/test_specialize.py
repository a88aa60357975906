"""Specialization lemmas, content-free bases, rank-drop detection."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qsteenrod import isotypic, modular, specialize
from qsteenrod.cli import main
from qsteenrod.errors import PoleError
from qsteenrod.linalg import Matrix, sparse_rank
from qsteenrod.polynomials import Polynomial, monomials_of_degree, scalar_product
from qsteenrod.scalars import (
    IntPoly,
    QParam,
    QP_ONE,
    RF_ONE,
    RF_Q,
    qp,
    qp_add,
    qp_div_exact,
    qp_eval,
    qp_gcd,
    qp_mul,
    qp_neg,
    qp_primitive,
    qp_sub,
)
from qsteenrod.spaces import GradedSubspace, generating_degrees, harm_component
from qsteenrod.specialize import (
    MinorGcd,
    _certify_rank,
    _diagonalize,
    bad_q_candidates,
    conjectured_root_form,
    constraint_stacks,
    content_free_basis,
    evaluate_rows,
    factor_over_z,
    harmonic_constraint_rows,
    minor_gcd,
    product_rational_roots,
    rational_roots,
    specialize_poly,
    specialized_dimension,
)

FORMAL = QParam.formal()


def x(n, i):
    return Polynomial.variable(n, i)


def test_specialize_poly_examples():
    p = x(1, 1).scale(RF_Q + 1)
    assert specialize_poly(p, Fraction(0)) == x(1, 1)
    pole = x(1, 1).scale(RF_ONE / (RF_Q - 1))
    with pytest.raises(PoleError):
        specialize_poly(pole, Fraction(1))
    cancel = x(1, 1).scale((RF_Q * RF_Q - 1) / (RF_Q - 1))
    assert specialize_poly(cancel, Fraction(1)) == x(1, 1).scale(2)


def test_content_free_basis_strips_content():
    v = GradedSubspace.from_spanning(1, 1, [x(1, 1).scale(RF_Q - 1)])
    assert content_free_basis(v) == [x(1, 1)]
    plain = GradedSubspace.from_spanning(2, 1, [x(2, 1) - x(2, 2)])
    assert content_free_basis(plain) == [x(2, 1) - x(2, 2)]


def test_content_free_basis_specializes_to_independent_vectors():
    v = GradedSubspace.from_spanning(
        2, 1, [x(2, 1) + x(2, 2).scale(RF_Q), x(2, 2)]
    )
    basis = content_free_basis(v)
    assert len(basis) == 2
    # orthogonal over Z[q] and independent at several rationals
    assert scalar_product(basis[0], basis[1], lambda m: 1) == 0
    rng = random.Random(81)
    for _ in range(5):
        q0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        rows = [
            [c for c in (specialize_poly(p, q0).coefficient(m) for m in [(1, 0), (0, 1)])]
            for p in basis
        ]
        assert Matrix(2, 2, rows).rank() == 2


def test_content_free_basis_on_harmonics():
    for n, d in [(2, 1), (3, 1), (3, 2)]:
        space = harm_component(n, d, FORMAL)
        basis = content_free_basis(space)
        columns = monomials_of_degree(n, d)
        probes = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 4)]
        report = bad_q_candidates(n, d) if d >= 1 else None
        probes += list(report.rational_roots)
        for q0 in probes:
            rows = [
                [specialize_poly(p, q0).coefficient(m) for m in columns]
                for p in basis
            ]
            assert Matrix(len(basis), len(columns), rows).rank() == len(basis)


def test_specialized_dimension_examples():
    assert specialized_dimension(2, 1, Fraction(7)) == (1, 1)
    assert specialized_dimension(2, 4, Fraction(-1, 2)) == (0, 1)
    for q0 in (Fraction(2), Fraction(-5, 3)):
        assert specialized_dimension(1, 3, q0) == (0, 0)


def test_specialized_dimension_raises_below_the_generic(monkeypatch):
    # the dimension at q0 is counted apart from the formal one; one short,
    # it would contradict the content-free lemma and must not pass unseen
    original = specialize.block_dimension

    def short(kind, n, d, q):
        dim = original(kind, n, d, q)
        return dim if q.is_formal else dim - 1

    monkeypatch.setattr(specialize, "block_dimension", short)
    with pytest.raises(AssertionError, match="below the generic"):
        specialized_dimension(2, 1, Fraction(7))


def test_rational_roots():
    roots, cofactor = rational_roots(qp(-2, -5, 3))  # (3q + 1)(q - 2)
    assert roots == [Fraction(-1, 3), Fraction(2)]
    assert cofactor == (1,)
    roots, cofactor = rational_roots(qp(0, 0, 2, 2))  # 2 q^2 (q + 1)
    assert roots == [Fraction(-1), Fraction(0)]
    roots, cofactor = rational_roots(qp(1, 0, 1))
    assert roots == [] and cofactor == qp(1, 0, 1)
    # the first prime the root search tries divides a denominator, and then
    # is a double root mod that prime
    first = specialize._FIRST_PRIME
    roots, cofactor = rational_roots(qp_mul(qp(1, first), qp(-3, 1)))
    assert roots == [Fraction(-1, first), Fraction(3)] and cofactor == (1,)
    roots, cofactor = rational_roots(qp_mul(qp(-1, 1), qp(-1 - first, 1)))
    assert roots == [Fraction(1), Fraction(1 + first)] and cofactor == (1,)


def test_rational_roots_of_random_products():
    # differential check: the roots are exactly the linear factors multiplied
    # in, and the cofactor is the product of the rootless ones
    rng = random.Random(11)
    rootless = [qp(1, 0, 1), qp(2, 0, 1), qp(-2, 0, 0, 1), qp(1, 1, 1)]
    for _ in range(12):
        p, roots, cofactor = qp(rng.choice([-6, -1, 1, 4])), set(), qp(1)
        for _ in range(rng.randint(0, 4)):
            b, a = rng.randint(1, 6), rng.randint(-7, 7)
            p = qp_mul(p, qp(a, b))
            roots.add(Fraction(-a, b))
        for _ in range(rng.randint(0, 2)):
            factor = rng.choice(rootless)
            p, cofactor = qp_mul(p, factor), qp_mul(cofactor, factor)
        assert rational_roots(p) == (sorted(roots), cofactor)


def _sympy_roots(p):
    """The rational roots and rootless cofactor of p from sympy's factorization."""
    import sympy

    _, factors = sympy.Poly(p[::-1], sympy.Symbol("q")).factor_list()
    roots, cofactor = set(), QP_ONE
    for base, multiplicity in factors:
        factor = qp_primitive(tuple(int(c) for c in reversed(base.all_coeffs())))
        if len(factor) == 2:
            roots.add(Fraction(-factor[0], factor[1]))
        else:
            for _ in range(multiplicity):
                cofactor = qp_mul(cofactor, factor)
    if cofactor[-1] < 0:
        cofactor = qp_neg(cofactor)
    return sorted(roots), cofactor


ROOTLESS = [qp(1, 0, 1), qp(1, 0, 2), qp(-2, 0, 0, 1), qp(1, 1, 1)]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 60), st.integers(-60, 60), st.integers(1, 3)),
        max_size=5,
    ),
    st.integers(0, 3),
    st.integers(-40, 40).filter(lambda c: abs(c) > 1),
    st.lists(st.sampled_from(ROOTLESS), max_size=3),
)
def test_rational_roots_against_sympy(linear, shift, content, rootless):
    # (b q + a)^m for each (b, a, m), times q^shift, the content and the
    # rootless factors
    p = qp(content)
    for b, a, m in linear:
        for _ in range(m):
            p = qp_mul(p, qp(a, b))
    for factor in rootless:
        p = qp_mul(p, factor)
    p = (0,) * shift + p
    assert rational_roots(p) == _sympy_roots(p)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rational_roots_of_minor_gcds_against_sympy(n):
    for d in range(1, 8):
        for extended in (False, True):
            gcd = bad_q_candidates(n, d, extended).minor_gcd
            assert rational_roots(gcd) == _sympy_roots(gcd), (n, d, extended)


def _primitive_positive(p):
    p = qp_primitive(p)
    return qp_neg(p) if p[-1] < 0 else p


def _product(powers):
    out = QP_ONE
    for g, f in powers.items():
        for _ in range(f):
            out = qp_mul(out, g)
    return out


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.tuples(st.integers(1, 12), st.integers(-12, 12)), max_size=3),
            st.integers(0, 2),
            st.lists(st.sampled_from(ROOTLESS), max_size=2),
            st.integers(1, 4),
        ),
        max_size=4,
    )
)
def test_product_rational_roots_against_the_product(factors):
    # each g: linear factors b q + a, a power of q and rootless factors, made
    # primitive with a positive leading coefficient, to the power f
    powers = {}
    for linear, shift, rootless, f in factors:
        g = QP_ONE
        for b, a in linear:
            g = qp_mul(g, qp(a, b))
        for factor in rootless:
            g = qp_mul(g, factor)
        g = _primitive_positive((0,) * shift + g)
        powers[g] = powers.get(g, 0) + f
    assert product_rational_roots(powers) == rational_roots(_product(powers))


def _block_gcd_powers(n, d, degrees):
    """The minor gcd of each isotypic block of the badq constraint stack, to
    the power of its multiplicity, as `bad_q_candidates` takes them."""
    stacks = constraint_stacks(n, d, degrees)
    powers = {}
    for lam, f in isotypic.blocks(n):
        block = isotypic.block_rows(isotypic.pivot_rows(stacks, n, d, lam), n, d, lam)
        g = minor_gcd(*block)[1]
        powers[g] = powers.get(g, 0) + f
    return powers


@pytest.mark.parametrize(
    "n, d", [(n, d) for n in (1, 2, 3, 4) for d in range(1, 8)] + [(5, 8)]
)
def test_product_rational_roots_of_block_gcds(n, d):
    generator_sets = [generating_degrees(n, FORMAL)]
    if n <= 4:
        generator_sets.append(tuple(range(1, d + 1)))
    for extended, degrees in enumerate(generator_sets):
        powers = _block_gcd_powers(n, d, degrees)
        product = _product(powers)
        assert product == bad_q_candidates(n, d, bool(extended)).minor_gcd
        assert product_rational_roots(powers) == rational_roots(product), (n, d)


def test_factor_over_z():
    got = factor_over_z(qp_mul(qp(1, 0, 1), qp(2, 0, 1)))
    assert got == [qp(1, 0, 1), qp(2, 0, 1)]
    assert factor_over_z(qp(5)) == []


def _dense_to_sparse(rows):
    return [
        {j: v for j, v in enumerate(row) if v} for row in rows
    ]


def _brute_minor_gcd(rows: list[list[IntPoly]], rank: int) -> IntPoly:
    nrows, ncols = len(rows), len(rows[0])
    acc: IntPoly = ()
    for rsel in combinations(range(nrows), rank):
        for csel in combinations(range(ncols), rank):
            det = _poly_det([[rows[i][j] for j in csel] for i in rsel])
            acc = qp_gcd(acc, det)
            if acc == QP_ONE:
                return acc
    return qp_primitive(acc)


def _poly_det(m):
    """Determinant over Z[q] by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in m]
    size, sign, prev = len(m), 1, QP_ONE
    for k in range(size):
        swap = next((i for i in range(k, size) if m[i][k]), None)
        if swap is None:
            return ()
        if swap != k:
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                cross = qp_sub(qp_mul(m[k][k], m[i][j]), qp_mul(m[i][k], m[k][j]))
                m[i][j] = qp_div_exact(cross, prev)
        prev = m[k][k]
    return prev if sign > 0 else qp_neg(prev)


def _trimmed(t):
    t = tuple(t)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


# integer polynomials of q-degree at most 2, often zero or constant
small_poly = st.one_of(
    st.just(()),
    st.integers(-3, 3).map(lambda c: _trimmed((c,))),
    st.lists(st.integers(-3, 3), min_size=2, max_size=3).map(_trimmed),
)


@st.composite
def poly_matrices(draw):
    """Dense integer-polynomial matrices of at most 5 x 4.

    Some rows are zero and some are Z[q]-combinations of earlier rows, so
    rank-deficient inputs are common.
    """
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "combination"]))
        if kind == "zero":
            rows.append([()] * ncols)
        elif kind == "combination" and rows:
            a, b = draw(small_poly), draw(small_poly)
            rows.append(
                [qp_add(qp_mul(a, u), qp_mul(b, v)) for u, v in zip(rows[0], rows[-1])]
            )
        else:
            rows.append([draw(small_poly) for _ in range(ncols)])
    return rows


@settings(max_examples=200, deadline=None)
@given(poly_matrices())
def test_minor_gcd_against_brute_force(dense):
    ncols = len(dense[0])
    sparse = _dense_to_sparse(dense)
    rank, gcd = minor_gcd(sparse, ncols)
    assert rank == sparse_rank(sparse, ncols)
    if rank:
        assert gcd == _brute_minor_gcd(dense, rank), (dense, gcd)
    else:
        assert gcd == QP_ONE


@settings(max_examples=100, deadline=None)
@given(poly_matrices(), st.randoms(use_true_random=False))
def test_minor_gcd_ignores_row_and_column_order(dense, rnd):
    # the pivot chooser breaks ties in row-major order, so a shuffle changes
    # the pivots; the rank and the determinantal divisor must not move
    ncols = len(dense[0])
    rows = [list(row) for row in dense]
    cols = list(range(ncols))
    rnd.shuffle(rows)
    rnd.shuffle(cols)
    shuffled = [[row[j] for j in cols] for row in rows]
    assert minor_gcd(_dense_to_sparse(shuffled), ncols) == minor_gcd(
        _dense_to_sparse(dense), ncols
    )


@settings(max_examples=200, deadline=None)
@given(poly_matrices(), st.integers(-3, 3), st.integers(1, 3))
def test_rank_read_off_the_diagonal(dense, a, b):
    # every step of _diagonalize is unimodular over Q[q], so the matrix stays
    # equivalent to its diagonal after evaluation at any rational point; small
    # points often hit roots of the small entries
    ncols = len(dense[0])
    sparse = _dense_to_sparse(dense)
    q0 = Fraction(a, b)
    read = sum(1 for entry in _diagonalize(sparse, ncols) if qp_eval(entry, q0))
    assert read == sparse_rank(evaluate_rows(sparse, q0), ncols)
    assert minor_gcd(sparse, ncols).rank_at(q0) == read


@pytest.mark.parametrize("n, top", [(2, 12), (3, 7), (4, 6)])
def test_blocks_match_the_whole_stack(n, top):
    # bad_q_candidates diagonalizes one isotypic block at a time; the
    # whole-stack diagonalization of the same matrix is the oracle
    for d in range(1, top + 1):
        for extended in (False, True):
            degrees = tuple(range(1, d + 1)) if extended else (1, 2)
            whole = minor_gcd(*harmonic_constraint_rows(n, d, degrees))
            report = bad_q_candidates(n, d, extended)
            assert (report.generic_rank, report.minor_gcd) == whole, (n, d, extended)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pivot_rows_keep_the_block(n):
    # The rows of each D_k at the pivot monomials of B_lam(d - k) against the
    # whole block M . B_lam: the same (rank, gcd), the same rank at every
    # root of the whole block's gcd, and the same exact rank at q = 0 with
    # the generators D_1..D_n that q = 0 needs.
    zero = Fraction(0)
    for d in range(1, 8):
        for degrees in ((1, 2), tuple(range(1, d + 1))):
            at_zero = sorted({*degrees, *range(1, n + 1)})
            stacks = constraint_stacks(n, d, degrees)
            joined = constraint_stacks(n, d, at_zero)
            rows = harmonic_constraint_rows(n, d, degrees)[0]
            rows_at_zero = evaluate_rows(harmonic_constraint_rows(n, d, at_zero)[0], zero)
            for lam, _ in isotypic.blocks(n):
                whole = isotypic.block_rows(rows, n, d, lam)
                kept = isotypic.block_rows(
                    isotypic.pivot_rows(stacks, n, d, lam), n, d, lam
                )
                full, compact = minor_gcd(*whole), minor_gcd(*kept)
                assert compact == full, (n, d, degrees, lam)
                for root in rational_roots(full[1])[0]:
                    assert compact.rank_at(root) == full.rank_at(root)
                selected = evaluate_rows(isotypic.pivot_rows(joined, n, d, lam), zero)
                assert sparse_rank(
                    *isotypic.block_rows(selected, n, d, lam)
                ) == sparse_rank(*isotypic.block_rows(rows_at_zero, n, d, lam))


def test_pivot_row_counts_at_5_10():
    # sum over k = 1, 2 of |B_lam(10 - k)| rows, against 264 to 1210 nonzero
    # rows of M . B_lam
    stacks = constraint_stacks(5, 10, (1, 2))
    counts = {
        lam: len(isotypic.pivot_rows(stacks, 5, 10, lam))
        for lam, _ in isotypic.blocks(5)
    }
    assert counts == {
        (5,): 41,
        (4, 1): 83,
        (3, 2): 65,
        (3, 1, 1): 53,
        (2, 2, 1): 30,
        (2, 1, 1, 1): 11,
        (1, 1, 1, 1, 1): 0,
    }
    for lam, count in counts.items():
        assert count == sum(len(isotypic.block_basis(5, 10 - k, lam)) for k in (1, 2))


def test_rank_certificate(monkeypatch):
    rows, ncols = harmonic_constraint_rows(3, 4, (1, 2))
    rank = sparse_rank(rows, ncols)
    root = Fraction(-1, 2)
    at_root = sparse_rank(evaluate_rows(rows, root), ncols)
    assert at_root < rank
    expected = bad_q_candidates(3, 4)
    for mod_p in (modular.rank_mod_p, lambda *args, **kwargs: -1):
        # a mod-p rank that comes up short leaves the decision to the exact one
        monkeypatch.setattr(modular, "rank_mod_p", mod_p)
        _certify_rank(rows, ncols, rank)
        _certify_rank(rows, ncols, at_root, root)
        for wrong in (rank - 1, rank + 1):
            with pytest.raises(AssertionError, match="rank mismatch generic"):
                _certify_rank(rows, ncols, wrong)
        with pytest.raises(AssertionError, match="rank mismatch at q = -1/2"):
            _certify_rank(rows, ncols, at_root + 1, root)
        assert bad_q_candidates(3, 4) == expected


def test_harmonic_dimension_is_semicontinuous(capsys):
    # dim harm at q0 is at least the generic one, equal to it off the roots of
    # the minor gcd, and equal to the reported kernel_dim_at_root at a jump
    rng = random.Random(53)
    for n in (1, 2, 3):
        for d in range(1, 7):
            report = bad_q_candidates(n, d)
            generic = harm_component(n, d, FORMAL).dim
            assert report.generic_harm_dim == generic
            points = rational_roots(report.minor_gcd)[0] + [Fraction(0)]
            points += [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
            for q0 in points:
                dim = harm_component(n, d, QParam(q0)).dim
                assert dim >= generic, (n, d, q0)
                if qp_eval(report.minor_gcd, q0):
                    assert dim == generic, (n, d, q0)
            assert main(["badq", "-n", str(n), "-d", str(d), "--format", "json"]) == 0
            findings = json.loads(capsys.readouterr().out)["findings"]
            assert len(findings) == len(report.jumps)
            for finding in findings:
                q0 = QParam(Fraction(finding["q0"]))
                assert harm_component(n, d, q0).dim == finding["kernel_dim_at_root"]


def test_minor_gcd_on_harmonic_constraints_small():
    # every cell the minor enumeration finishes in a few seconds; the next
    # ones take 23 s, (2, 9), or more than 40 s, (3, 5) and (4, 3)
    cells = [(2, d) for d in range(1, 9)] + [(3, d) for d in range(1, 5)]
    cells += [(4, 1), (4, 2), (5, 1), (5, 2)]
    for n, d in cells:
        rows, ncols = harmonic_constraint_rows(n, d, (1, 2))
        rank, gcd = minor_gcd(rows, ncols)
        assert rank == sparse_rank(rows, ncols)
        dense = [[row.get(j, ()) for j in range(ncols)] for row in rows]
        assert gcd == _brute_minor_gcd(dense, rank), (n, d)


def test_rank_never_increases_under_specialization():
    rng = random.Random(97)
    for _ in range(8):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = []
        for _ in range(nrows):
            row = {}
            for j in range(ncols):
                coeffs = tuple(rng.randint(-3, 3) for _ in range(3))
                row[j] = _trimmed(coeffs)
            rows.append({j: v for j, v in row.items() if v})
        generic = sparse_rank(rows, ncols)
        rank_calc, gcd = minor_gcd(rows, ncols)
        roots, _ = rational_roots(gcd) if gcd != (1,) and gcd else ([], ())
        for _ in range(10):
            q0 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
            special = sparse_rank(evaluate_rows(rows, q0), ncols)
            assert special <= generic
            if special < generic:
                assert qp_eval(gcd, q0) == 0
            if generic and q0 not in roots and gcd:
                assert special == generic or qp_eval(gcd, q0) == 0


def test_bad_q_two_variables():
    for d in range(2, 9):
        report = bad_q_candidates(2, d)
        assert Fraction(-2, d) in report.rational_roots
        for root, dim_at_root in report.jumps:
            assert dim_at_root > report.generic_harm_dim
    report = bad_q_candidates(2, 3)
    assert report.rational_roots == (Fraction(-2, 3),)
    report = bad_q_candidates(1, 2)
    assert report.rational_roots == ()


def test_bad_q_roots_match_direct_dimension_jumps():
    for d in (2, 3, 4):
        report = bad_q_candidates(2, d)
        for root, dim_at_root in report.jumps:
            direct = harm_component(2, d, QParam(root)).dim
            assert direct == dim_at_root


def test_conjectured_root_form():
    assert conjectured_root_form(Fraction(-1, 2), 2) == {
        "a_in_1_to_n": True,
        "a_in_1_to_n_and_a_le_b": True,
    }
    assert conjectured_root_form(Fraction(-3, 2), 2)["a_in_1_to_n"] is False
    assert conjectured_root_form(Fraction(0), 3)["a_in_1_to_n"] is False
    assert conjectured_root_form(Fraction(-3, 2), 3) == {
        "a_in_1_to_n": True,
        "a_in_1_to_n_and_a_le_b": False,
    }


def test_extended_generator_flag():
    lean = bad_q_candidates(3, 3)
    full = bad_q_candidates(3, 3, extended_generators=True)
    # D_1 and D_2 drop rank at q = 0, but the harmonics there are cut out by
    # D_1..D_3 and keep the generic dimension, so q = 0 is no bad value
    assert qp_eval(lean.minor_gcd, Fraction(0)) == 0
    assert Fraction(0) not in lean.rational_roots
    assert Fraction(0) not in full.rational_roots
    for root in full.rational_roots:
        assert root in lean.rational_roots


def test_constraint_rows_keep_their_content():
    # D_1 sends x1^2 x2 and x1 x2^2 to (2 + 2q) x1 x2, so the row of x1 x2 has
    # content 2 + 2q.  The rank of D_1 on degree 3 drops at q = -1; dividing
    # the row by its content would hide that root of the minor gcd.
    rows, ncols = harmonic_constraint_rows(2, 3, (1,))
    assert ncols == 4
    assert rows[1] == {1: (2, 2), 2: (2, 2)}
    rank, gcd = minor_gcd(rows, ncols)
    assert rank == 3 and qp_eval(gcd, Fraction(-1)) == 0
    assert sparse_rank(evaluate_rows(rows, Fraction(-1)), ncols) < rank


@pytest.mark.parametrize("n, d", [(3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4)])
def test_q0_is_no_bad_value_with_two_generators(n, d):
    # the stack D_1, D_2 drops rank at q = 0, where the harmonics need
    # D_1..D_n and keep the generic dimension
    report = bad_q_candidates(n, d)
    assert qp_eval(report.minor_gcd, Fraction(0)) == 0
    assert Fraction(0) not in report.rational_roots
    assert harm_component(n, d, QParam(Fraction(0))).dim == report.generic_harm_dim
    assert [root for root, _ in report.jumps] == list(report.rational_roots)
    for root, dim_at_root in report.jumps:
        assert dim_at_root == harm_component(n, d, QParam(root)).dim
        assert dim_at_root > report.generic_harm_dim


def test_specialized_dimension_agrees_with_the_specialize_poly_oracle():
    # first component: the formal harmonic dimension, and the rank of the
    # content-free basis specialized coefficient by coefficient (the oracle
    # of criterion 17); probes: the jump roots, 0 and three seeded values
    rng = random.Random(71)
    probes = jumps = 0
    for n, top in ((2, 5), (3, 5), (4, 4)):
        for d in range(1, top + 1):
            generic = harm_component(n, d, FORMAL)
            basis = content_free_basis(generic) if generic.dim else []
            columns = monomials_of_degree(n, d)
            points = list(bad_q_candidates(n, d).rational_roots) + [Fraction(0)]
            points += [
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(3)
            ]
            for q0 in points:
                first, direct = specialized_dimension(n, d, q0)
                rows = [
                    [specialize_poly(p, q0).coefficient(m) for m in columns]
                    for p in basis
                ]
                oracle = Matrix(len(rows), len(columns), rows).rank() if rows else 0
                assert first == generic.dim == oracle, (n, d, q0)
                assert direct >= first
                probes += 1
                jumps += direct > first
    assert (probes, jumps) == (71, 17)


def test_badq_short_block_basis_raises(monkeypatch):
    # Without one vector of B_(2,1) the bases no longer cover the slice, and
    # the block ranks and gcds would describe a smaller matrix.
    original = isotypic.block_basis

    def short(n, d, lam):
        basis = original(n, d, lam)
        return basis[1:] if lam == (2, 1) else basis

    monkeypatch.setattr(isotypic, "block_basis", short)
    with pytest.raises(AssertionError, match="cover"):
        bad_q_candidates(3, 4)


def test_badq_certifies_each_block_generically(monkeypatch):
    # the second block, lam = (2, 1), claims one diagonal entry too many
    calls = []

    def padded(rows, ncols):
        found = minor_gcd(rows, ncols)
        calls.append(found)
        if len(calls) != 2:
            return found
        return MinorGcd(found.diagonal + (QP_ONE,))

    monkeypatch.setattr(specialize, "minor_gcd", padded)
    with pytest.raises(AssertionError, match="rank mismatch generic"):
        bad_q_candidates(3, 4)


def test_badq_certifies_each_block_at_a_root(monkeypatch):
    root = Fraction(-1, 2)
    assert root in bad_q_candidates(3, 4).rational_roots
    original = MinorGcd.rank_at
    monkeypatch.setattr(
        MinorGcd, "rank_at", lambda self, q0: original(self, q0) + (q0 == root)
    )
    with pytest.raises(AssertionError, match="rank mismatch at q = -1/2"):
        bad_q_candidates(3, 4)


def test_badq_ranks_mod_p_only_blocks(monkeypatch):
    widths = {len(isotypic.block_basis(4, 6, lam)) for lam, _ in isotypic.blocks(4)}
    original = modular.rank_mod_p
    seen = []

    def recording(rows, ncols, *args, **kwargs):
        seen.append(ncols)
        return original(rows, ncols, *args, **kwargs)

    monkeypatch.setattr(modular, "rank_mod_p", recording)
    assert bad_q_candidates(4, 6).jumps
    assert seen and set(seen) <= widths
    assert len(monomials_of_degree(4, 6)) == 84
    assert 84 not in seen
