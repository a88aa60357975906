"""Exact elimination: echelon forms, kernels, the slice layout."""

import hashlib
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qsteenrod import linalg, modular, spaces
from qsteenrod.errors import InhomogeneousError, VariableCountMismatchError
from qsteenrod.linalg import (
    Matrix,
    echelonize,
    forward_eliminate,
    kernel_basis,
    null_space,
    reduced_echelon,
    rf_rows_to_int,
    row_to_poly,
    slice_images,
    slice_rows,
    sparse_rank,
    transpose,
)
from qsteenrod.polynomials import Polynomial, factorial_weight, monomials_of_degree
from qsteenrod.scalars import (
    FORMAL,
    QParam,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    RationalFunction,
    as_rf,
    qp_add,
    qp_scale,
    qp_trim,
    rf_normalize,
)
from qsteenrod.spaces import down_constraint_rows
from qsteenrod.steenrod import dual_pk, make_pk
from qsteenrod.weyl import weyl_apply


def x(n, i):
    return Polynomial.variable(n, i)


def test_echelonize_plus_minus():
    basis = echelonize([x(2, 1) + x(2, 2), x(2, 1) - x(2, 2)])
    assert basis == [x(2, 1), x(2, 2)]
    assert [p.leading_monomial() for p in basis] == [(1, 0), (0, 1)]


def test_echelonize_drops_dependent_rows():
    basis = echelonize([x(2, 1), 2 * x(2, 1)])
    assert basis == [x(2, 1)]


def test_echelonize_line_over_field():
    # (q-1) x1 and q x1 span the same line over Q(q); oracle: rank is 1
    a = x(2, 1).scale(RF_Q - 1)
    b = x(2, 1).scale(RF_Q)
    m = Matrix(2, 2, [[RF_Q - 1, RF_ZERO], [RF_Q, RF_ZERO]])
    assert m.rank() == 1
    assert echelonize([a, b]) == [x(2, 1)]


def test_echelonize_rejects_mixed_degrees():
    with pytest.raises(InhomogeneousError):
        echelonize([x(2, 1), x(2, 1) * x(2, 2)])


def test_slice_rows_layout_and_checks():
    columns = monomials_of_degree(3, 2)
    p = x(3, 1) * x(3, 2) + RF_Q * x(3, 3) ** 2
    rows = slice_rows(iter([p, Polynomial.zero(3)]), 3, 2)
    assert rows == [{columns.index((1, 1, 0)): RF_ONE, columns.index((0, 0, 2)): RF_Q}, {}]
    assert row_to_poly(rows[0], 3, columns) == p
    with pytest.raises(VariableCountMismatchError):
        slice_rows([x(2, 1) ** 2], 3, 2)
    with pytest.raises(InhomogeneousError):
        slice_rows([x(3, 1) ** 2, x(3, 1)], 3, 2)


def test_echelonize_idempotent():
    polys = [
        x(3, 1) ** 2 + RF_Q * (x(3, 2) * x(3, 3)),
        x(3, 2) ** 2 - x(3, 1) * x(3, 3),
        x(3, 1) ** 2 + x(3, 2) ** 2,
    ]
    once = echelonize(polys)
    twice = echelonize(once)
    assert once == twice
    leads = [p.leading_monomial() for p in once]
    assert leads == sorted(leads, reverse=True)


def test_kernel_identity():
    m = Matrix(3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m.kernel() == []


def test_kernel_one_by_two():
    m = Matrix(1, 2, [[RF_ONE, RF_Q]])
    assert m.kernel() == [(-RF_Q, RF_ONE)]


def test_kernel_proportional_rows():
    m = Matrix(2, 2, [[RF_ONE, RF_ONE], [RF_Q, RF_Q]])
    vecs = m.kernel()
    assert len(vecs) == 1
    v = vecs[0]
    # spans the line through (1, -1)
    assert v[0] * (-RF_ONE) == v[1]


coeff = st.integers(-6, 6)
linpoly = st.tuples(coeff, coeff, coeff, coeff).map(
    lambda c: rf_normalize(c, (1,))
)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_rank_nullity(rows, cols, data):
    entries = [
        [data.draw(linpoly) for _ in range(cols)] for _ in range(rows)
    ]
    m = Matrix(rows, cols, entries)
    assert m.rank() + len(m.kernel()) == cols


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_kernel_vectors_annihilate(rows, cols, data):
    entries = [
        [data.draw(linpoly) for _ in range(cols)] for _ in range(rows)
    ]
    m = Matrix(rows, cols, entries)
    for vec in m.kernel():
        for row in entries:
            acc = RF_ZERO
            for a, v in zip(row, vec):
                acc = acc + a * v
            assert acc == RF_ZERO


def test_slice_images_shape_and_empty_slices():
    p1 = partial(weyl_apply, make_pk(2, 1, QParam.formal()))
    rows = slice_images(p1, 2, 2, 1)
    assert len(rows) == len(monomials_of_degree(2, 2))
    assert all(max(r) < len(monomials_of_degree(2, 3)) for r in rows)
    # P_1 x1^2 = (1 + 2q) x1^3 + x1^2 x2: columns 0 and 1 of degree 3
    assert rows[0] == {0: 1 + 2 * RF_Q, 1: RF_ONE}
    assert slice_images(p1, 2, -1, 1) == []
    assert slice_images(p1, 2, 1, -2) == []


def test_transpose_keeps_empty_columns():
    rows = [{0: RF_ONE, 2: RF_Q}, {2: RF_ONE}]
    assert transpose(rows, 4) == [{0: RF_ONE}, {}, {0: RF_Q, 1: RF_ONE}, {}]
    assert transpose([], 2) == [{}, {}]


@pytest.mark.parametrize("q", [QParam.formal(), QParam.rational(-2, 3)])
def test_down_operator_is_factorial_adjoint_on_every_slice(q):
    """<P_k x^a, x^b> = <x^a, D_k x^b> under <x^K, x^K> = K!, slice by slice."""
    for n in range(1, 4):
        for d in range(0, 5):
            for k in range(1, 5 - d + 1):
                up = slice_images(partial(weyl_apply, make_pk(n, k, q)), n, d, k)
                down = slice_images(
                    partial(weyl_apply, dual_pk(n, k, q)), n, d + k, -k
                )
                sources = monomials_of_degree(n, d)
                targets = monomials_of_degree(n, d + k)
                assert len(up) == len(sources) and len(down) == len(targets)
                for a, ma in enumerate(sources):
                    for b, mb in enumerate(targets):
                        lhs = up[a].get(b, RF_ZERO) * factorial_weight(mb)
                        rhs = down[b].get(a, RF_ZERO) * factorial_weight(ma)
                        assert lhs == rhs


# sha256 of repr((pivots, rows)) of forward_eliminate on the stacked D_1..D_4
# rows of the degree-5 slice in 4 variables, under the shortest-row pivot
# rule: however the row gcd is found, every row of the echelon form, entry
# order included, must stay the same, not only the reports.  The rows depend
# on the pivot rule; the reduced echelon form does not.
ELIMINATION_DIGESTS = {
    FORMAL: "f9ae08e14e0eae8828411a402dc1cf32cea48f416a34b3dcfd762a4aff6c72d6",
    QParam.rational(-2, 3): "a2d79c7edf4db3828e76607da5fa3bda3b5960cac89c10625570b1a2cdf6a80d",
}
# sha256 of repr((pivots, [sorted(row.items()) for row in rows])) of
# reduced_echelon on the same rows, taken under the first-row-wins rule: the
# reduced echelon form is unique, so no pivot rule may change it.  Entries are
# sorted by column because their dict order follows the elimination.
REDUCED_DIGESTS = {
    FORMAL: "b38edf8ad5c904ec157c3b01732a4b47d6e46e790da909ce1750f08bc7a9ad09",
    QParam.rational(-2, 3): "206eec6444aad2e2991361d4506bc0b0c61d907be0b6620f332c1736ab2cac01",
}


@pytest.mark.parametrize("q", list(ELIMINATION_DIGESTS), ids=str)
def test_forward_eliminate_rows_pinned(q):
    rows = rf_rows_to_int(down_constraint_rows(4, 5, q, (1, 2, 3, 4)))
    ncols = len(monomials_of_degree(4, 5))
    out = forward_eliminate(rows, ncols)
    assert len(out[0]) == 53
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == ELIMINATION_DIGESTS[q]
    pivots, reduced = reduced_echelon(rows, ncols)
    canonical = (pivots, [sorted(row.items()) for row in reduced])
    digest = hashlib.sha256(repr(canonical).encode()).hexdigest()
    assert digest == REDUCED_DIGESTS[q]


@st.composite
def int_poly_matrices(draw):
    """Sparse Z[q] matrices of at most 6 x 6 with entries of q-degree <= 2.

    Zero rows, all-zero matrices (rank 0) and unit upper triangular blocks
    (full column rank) are drawn on purpose.
    """
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "random", "zero", "full"]))
    if kind == "full":
        nrows = max(nrows, ncols)
    entry = st.lists(st.integers(-3, 3), max_size=3).map(lambda c: qp_trim(tuple(c)))
    rows = []
    for i in range(nrows):
        row = {j: draw(entry) for j in range(ncols)}
        if kind == "full" and i < ncols:
            row = {j: v for j, v in row.items() if j > i}
            row[i] = (1,)
        elif kind == "zero" or draw(st.integers(0, 5)) == 0:
            row = {}
        rows.append({j: v for j, v in row.items() if v})
    return rows, ncols


def _kernel_then_echelonize(rows, ncols):
    """The two-pass reference: free-column kernel, then its reduced echelon form."""
    pivots, reduced = reduced_echelon(rows, ncols)
    columns = monomials_of_degree(2, ncols - 1)
    polys = [row_to_poly(v, 2, columns) for v in kernel_basis(pivots, reduced, ncols)]
    return len(pivots), slice_rows(echelonize(polys), 2, ncols - 1)


@settings(max_examples=200, deadline=None)
@given(int_poly_matrices())
@example(([{}], 1))
@example(([{0: (0, 1)}], 1))
@example(([{0: (1,)}, {0: (2,), 1: (0, 0, 3)}], 2))
@example(([{}, {}], 3))
@example(([{0: (1,), 1: (2,)}, {1: (0, 1)}], 2))
def test_null_space_matches_kernel_then_echelonize(matrix):
    rows, ncols = matrix
    rank, expected = _kernel_then_echelonize(rows, ncols)
    got = null_space(rows, ncols)
    assert got == expected
    assert len(got) == ncols - rank
    leads = [min(v) for v in got]
    assert leads == sorted(set(leads))
    assert all(v[min(v)] == RF_ONE for v in got)
    for vec in got:
        for row in rows:
            total = RF_ZERO
            for j, c in vec.items():
                if j in row:
                    total = total + RationalFunction.make(row[j]) * c
            assert total == RF_ZERO


def test_one_elimination_per_harmonic_slice(monkeypatch):
    counts = {"forward_eliminate": 0, "echelonize": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        linalg, "forward_eliminate", counting("forward_eliminate", forward_eliminate)
    )
    monkeypatch.setattr(linalg, "echelonize", counting("echelonize", echelonize))
    # degree 3 of n = 4 is the middle of its harmonic range, the last degree
    # whose slices are eliminated whole (isotypic.blocks_pay)
    harm = spaces.harm_component.__wrapped__(4, 3, FORMAL)
    assert harm.dim > 0
    assert counts == {"forward_eliminate": 1, "echelonize": 0}
    # degree 3 is the top harmonic degree of n = 3, so this hit slice is not
    # the whole slice and its complement needs the exact elimination
    hit = spaces.hit_component(3, 3, QParam.rational(-2, 3))
    assert 0 < hit.dim < len(monomials_of_degree(3, 3))
    counts["forward_eliminate"] = 0
    comp = spaces.weighted_complement(hit)
    assert comp.dim == len(monomials_of_degree(3, 3)) - hit.dim
    assert counts == {"forward_eliminate": 1, "echelonize": 0}


def test_full_slices_take_no_exact_elimination(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return forward_eliminate(*args)

    monkeypatch.setattr(linalg, "forward_eliminate", counting)
    # degree 4 lies above the top harmonic degree 3 of n = 3: the mod-p rank
    # certifies full column rank for the hit slice and for its complement
    hit = spaces.hit_component(3, 4, QParam.rational(-2, 3))
    assert hit.dim == len(monomials_of_degree(3, 4))
    assert spaces.weighted_complement(hit).dim == 0
    assert spaces.harm_component.__wrapped__(3, 4, FORMAL).dim == 0
    assert calls == []


def test_empty_rows_take_no_elimination(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "forward_eliminate", lambda *args: calls.append(args))
    units = [{0: RF_ONE}, {1: RF_ONE}, {2: RF_ONE}]
    for rows in ([], [{}], [{}, {}]):
        assert reduced_echelon(rows, 3) == ([], [])
        assert null_space(rows, 3) == units
    assert reduced_echelon([], 0) == ([], []) and null_space([], 0) == []
    assert calls == []


# -- integer route: constant matrices are eliminated on ints -----------------


@st.composite
def constant_matrices(draw):
    """Sparse constant matrices (entries ``(c,)``) of at most 7 x 6.

    Small and huge entries of either sign, entries in random dict order,
    zero rows, and duplicated or scaled rows, which cancel to empty.
    """
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-4, 4), st.integers(-2**80, 2**80)).filter(bool)
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.sampled_from([1, -1, 2, -3]))
        copy = {j: k * v for j, v in draw(st.sampled_from(rows)).items()}
        rows.insert(draw(st.integers(0, len(rows))), copy)
    return [{j: (v,) for j, v in r.items()} for r in rows], ncols


def _both_routes(fn, rows, ncols):
    """fn on the integer route and, with every matrix declared non-constant,
    on the Z[q] route; rows as lists of items, so entry order counts."""
    def run():
        out = fn([dict(r) for r in rows], ncols)
        if isinstance(out, int):
            return out
        pivots, ech = out if isinstance(out, tuple) else (None, out)
        return pivots, [list(r.items()) for r in ech]

    fast = run()
    with mock.patch.object(linalg, "_constant", lambda rows: False):
        return fast, run()


@settings(max_examples=200, deadline=None)
@given(constant_matrices())
@example(([{0: (2,), 1: (4,)}, {0: (-1,), 1: (-2,)}, {}], 2))
@example(([{1: (-6,), 0: (4,)}, {0: (3,), 1: (9,)}, {0: (5,), 1: (1,)}], 3))
@example(([{0: (2**70,), 2: (-3,)}, {0: (2**70,), 2: (-3,)}, {1: (-5,)}], 3))
def test_integer_route_matches_polynomial_route(matrix):
    rows, ncols = matrix
    for fn in (forward_eliminate, reduced_echelon, sparse_rank, null_space):
        fast, slow = _both_routes(fn, rows, ncols)
        assert fast == slow, fn.__name__
    ech = forward_eliminate(rows, ncols)[1]
    assert all(len(v) == 1 and v[0] for r in ech for v in r.values())


@settings(max_examples=50, deadline=None)
@given(constant_matrices(), st.data())
def test_one_polynomial_entry_takes_the_polynomial_route(matrix, data):
    rows, ncols = matrix
    live = [i for i, r in enumerate(rows) if r]
    if not live:
        return
    i = data.draw(st.sampled_from(live))
    j = data.draw(st.sampled_from(sorted(rows[i])))
    rows[i][j] = (rows[i][j][0], data.draw(st.integers(-3, 3).filter(bool)))
    assert not linalg._constant(rows)
    with mock.patch.object(linalg, "_cancel_int", None):
        fast, slow = _both_routes(forward_eliminate, rows, ncols)
    assert fast == slow


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(
    st.integers(0, 5),
    st.fractions(max_denominator=10**12).filter(lambda f: abs(f) < 2**64),
    max_size=6,
), max_size=4))
@example([{0: Fraction(-3, 4), 2: Fraction(5, 6), 1: Fraction(0)}, {}, {3: Fraction(0)}])
def test_integer_clearing_matches_polynomial_clearing(rows):
    rows = [{j: as_rf(v) for j, v in r.items()} for r in rows]
    fast = [list(r.items()) for r in rf_rows_to_int(rows)]
    with mock.patch.object(RationalFunction, "is_constant", property(lambda self: False)):
        slow = [list(r.items()) for r in rf_rows_to_int(rows)]
    assert fast == slow


# -- pivot rule: the shortest row in each column against first row wins ------


def _first_row_wins(work, ncols, cancel):
    """The pivot loop as it was before the shortest-row rule: in each column
    the first row holding it pivots, and rows that cancel to empty stay."""
    pivots, rank = [], 0
    for col in range(ncols):
        at = next((i for i in range(rank, len(work)) if col in work[i]), None)
        if at is None:
            continue
        work[rank], work[at] = work[at], work[rank]
        for i in range(rank + 1, len(work)):
            if col in work[i]:
                work[i] = cancel(work[i], work[rank], col)
        pivots.append(col)
        rank += 1
    return pivots, work[:rank]


def _reference(fn, rows, ncols):
    """fn with the first-row-wins loop and no mod-P certificate."""
    with mock.patch.object(linalg, "echelon_sweep", _first_row_wins), mock.patch.object(
        modular, "rank_mod_p", lambda *args: -1
    ):
        return fn(rows, ncols)


@st.composite
def sparse_matrices(draw):
    """Sparse matrices of at most 10 x 8, over Z[q] (q-degree <= 2) or of
    constants only, with some rows integer combinations of two others."""
    ncols = draw(st.integers(1, 8))
    coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=1)
    if draw(st.booleans()):
        coeffs = st.lists(st.integers(-3, 3), max_size=3)
    entry = coeffs.map(lambda c: qp_trim(tuple(c))).filter(bool)
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=3)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        x, y = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        combo = {}
        for r, c in ((a, x), (b, y)):
            for j, v in r.items():
                combo[j] = qp_add(combo.get(j, ()), qp_scale(v, c))
        rows.insert(draw(st.integers(0, len(rows))), {j: v for j, v in combo.items() if v})
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
@example(([{0: (1,), 1: (1,), 2: (1,)}, {0: (2,)}, {1: (3,), 2: (1,)}], 3))
@example(([{0: (1, 1), 1: (2,)}, {0: (0, 1)}, {0: (1,), 1: (0, 0, 1)}], 2))
@example(([{0: (1,), 1: (1,)}, {0: (1,)}, {0: (2,)}, {1: (5,)}], 2))
def test_shortest_row_pivots_match_first_row_wins(matrix):
    """Pivot columns, reduced echelon forms, kernels and ranks are unique, so
    the pivot rule changes none of them."""
    rows, ncols = matrix
    assert forward_eliminate(rows, ncols)[0] == _reference(forward_eliminate, rows, ncols)[0]
    for fn in (reduced_echelon, null_space, sparse_rank):
        assert fn(rows, ncols) == _reference(fn, rows, ncols), fn.__name__


def test_pivot_row_is_the_shortest_holding_the_column():
    rows = [{0: (1,), 1: (1,), 2: (1,)}, {0: (2,), 2: (1,)}, {0: (3,)}, {0: (5,)}]
    pivots, ech = forward_eliminate(rows, 3)
    assert pivots == [0, 1, 2] and ech[0] == {0: (3,)}
