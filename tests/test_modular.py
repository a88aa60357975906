"""The mod-p full-rank certificate: differential, forced-failure and
Las Vegas checks against the exact Z[q] elimination."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qsteenrod import linalg, modular, spaces
from qsteenrod.cli import serialize_subspace
from qsteenrod.isotypic import blocks
from qsteenrod.linalg import forward_eliminate, reduced_echelon, sparse_rank
from qsteenrod.polynomials import monomials_of_degree
from qsteenrod.scalars import FORMAL, QParam, RF_ONE, qp_add, qp_mul, qp_trim

Q_VALUES = (
    FORMAL,
    QParam.rational(1),
    QParam.rational(-1, 2),
    QParam.rational(0),
    QParam.rational(13, 29),
)
CACHED = (spaces.harm_component, spaces.truncated_hit_component)


def _slices(n, d, q, truncated=True):
    for f in CACHED:
        f.cache_clear()
    hit = spaces.hit_component(n, d, q)
    out = {
        "harm": spaces.harm_component(n, d, q),
        "hit": hit,
        "complement": spaces.weighted_complement(hit),
    }
    if truncated:
        out["tqhit"] = spaces.truncated_hit_component(n, d, q)
    for f in CACHED:
        f.cache_clear()
    return {kind: serialize_subspace(v) for kind, v in out.items()}


def _cases(q):
    cases = [(2, d, True) for d in range(11)] + [(3, d, True) for d in range(9)]
    # For n = 4 the truncated hit slices of degree 5 and 6 are not full (53 of
    # 56 and 83 of 84 columns), so both sides would run the same elimination;
    # they are left out for time (formal degree 6 alone takes about 30 s).
    cases += [(4, d, d <= 4) for d in range(7)]
    if q == QParam.rational(1):
        cases.append((4, 7, False))
    return cases


@pytest.mark.parametrize("q", Q_VALUES, ids=str)
def test_certificate_matches_exact_path(q, monkeypatch):
    """Every slice is byte-identical with the certificate on and with it failing."""
    passed = []
    original = modular.rank_mod_p

    def certify(rows, ncols, target):
        rank = original(rows, ncols, target)
        passed.append(rank == target)
        return rank

    monkeypatch.setattr(modular, "rank_mod_p", certify)
    on = {(n, d): _slices(n, d, q, tq) for n, d, tq in _cases(q)}
    assert any(passed), "no slice took the shortcut: the comparison shows nothing"
    monkeypatch.setattr(modular, "rank_mod_p", lambda rows, ncols, target: -1)
    off = {(n, d): _slices(n, d, q, tq) for n, d, tq in _cases(q)}
    assert on == off


def test_short_certificate_falls_back_to_exact(monkeypatch):
    """A mod-p rank that comes up short leaves the exact answer in place."""
    original = modular.rank_mod_p
    monkeypatch.setattr(modular, "rank_mod_p", lambda *args: original(*args) - 1)
    calls = []

    def counting(*args):
        calls.append(args)
        return forward_eliminate(*args)

    monkeypatch.setattr(linalg, "forward_eliminate", counting)
    hit = spaces.hit_component(3, 5, FORMAL)
    assert hit.dim == len(monomials_of_degree(3, 5))
    assert spaces.harm_component.__wrapped__(3, 5, FORMAL).dim == 0
    # degree 5 is past the middle of n = 3's harmonic range: each slice
    # eliminates its 3 block kernels; their spread is empty and needs none
    assert len(calls) == 2 * len(blocks(3))
    calls.clear()
    rows = [{0: (1, 1), 1: (2,)}, {1: (0, 3)}]
    assert sparse_rank(rows, 2) == 2
    assert reduced_echelon(rows, 2) == ([0, 1], [{0: RF_ONE}, {1: RF_ONE}])
    assert len(calls) == 2


def test_rank_that_vanishes_mod_p_takes_the_exact_path():
    """An entry divisible by P is zero mod P: the certificate fails on its own."""
    rows = [{0: (modular.P,)}, {1: (0, modular.P)}]
    assert modular.rank_mod_p(rows, 2, 2) == 0
    assert sparse_rank(rows, 2) == 2
    assert reduced_echelon(rows, 2) == ([0, 1], [{0: RF_ONE}, {1: RF_ONE}])


def test_q0_is_reproducible():
    rows = [{0: (1, 1), 1: (2,)}, {1: (0, 3)}]
    assert [modular.rank_mod_p(rows, 2, 2) for _ in range(3)] == [2, 2, 2]
    assert modular.rank_mod_p([{0: (1,)}, {0: (2,)}], 2, 2) == 1
    # the reduction stops at target, and where the rows left cannot reach it
    assert modular.rank_mod_p([{0: (1,)}, {1: (1,)}], 2, 1) == 1
    assert modular.rank_mod_p([{0: (1,)}, {1: (1,)}], 3, 3) == 0


def test_seeded_point_is_memoized_and_unchanged():
    modular.seeded_point.cache_clear()
    seeds = ["2x3", "P_lambda 3 5", "2x3"]
    points = [modular.seeded_point(seed) for seed in seeds]
    assert points == [random.Random(seed).randrange(2, modular.P) for seed in seeds]
    assert modular.seeded_point.cache_info().misses == 2


def test_rank_at_a_point_runs_to_completion():
    rows = [{0: (1,)}, {0: (2,)}, {1: (-1, 2)}]  # 2q - 1 vanishes at q = 1/2
    assert modular.rank_mod_p(rows, 2) == 2
    assert modular.rank_mod_p(rows, 2, point=Fraction(1, 2)) == 1
    assert modular.rank_mod_p(rows, 2, point=Fraction(-3)) == 2
    # with no target nothing stops the reduction early
    assert modular.rank_mod_p([{0: (1,)}, {1: (1,)}], 3) == 2


_poly = st.lists(st.integers(-3, 3), max_size=3).map(lambda c: qp_trim(tuple(c)))


@st.composite
def deficient_matrices(draw):
    """Random Z[q] rows, then Z[q]-combinations of them appended.

    Returns the rows, ncols and the number of base rows, which bounds the rank.
    """
    ncols = draw(st.integers(1, 6))
    base = []
    for _ in range(draw(st.integers(1, 5))):
        row = {j: draw(_poly) for j in range(ncols)}
        base.append({j: v for j, v in row.items() if v})
    rows = list(base)
    for _ in range(draw(st.integers(0, 4))):
        combo: dict[int, tuple[int, ...]] = {}
        for row in base:
            coef = draw(_poly)
            for j, v in row.items():
                combo[j] = qp_add(combo.get(j, ()), qp_mul(coef, v))
        combo = {j: v for j, v in combo.items() if v}
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return rows, ncols, len(base)


@settings(max_examples=300, deadline=None)
@given(deficient_matrices())
@example(([{0: (1,)}, {0: (2,)}], 2, 1))
@example(([{0: (0, 1), 1: (1,)}, {0: (0, 0, 1), 1: (0, 1)}], 2, 1))
def test_mod_p_rank_never_exceeds_exact_rank(case):
    rows, ncols, nbase = case
    exact = len(forward_eliminate(rows, ncols)[0])
    bound = min(sum(1 for r in rows if r), ncols)
    rank = modular.rank_mod_p(rows, ncols, bound)
    assert rank <= exact <= min(nbase, ncols)
    if exact < bound:
        assert rank < bound
    assert sparse_rank(rows, ncols) == exact
    with mock.patch.object(modular, "rank_mod_p", lambda rows, ncols, target: -1):
        expected = reduced_echelon(rows, ncols)
    assert reduced_echelon(rows, ncols) == expected


@settings(max_examples=200, deadline=None)
@given(deficient_matrices(), st.integers(2, modular.P - 1), st.data())
def test_echelon_grown_in_batches_ranks_every_row(case, q0, data):
    """Rows added a batch at a time give the rank mod P of all of them at
    that point, and ``extend`` stops adding once the rank reaches its target."""
    rows, ncols, _ = case
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    echelon = modular.Echelon(q0)
    for start, stop in zip([0, *cuts], [*cuts, len(rows)]):
        echelon.extend(rows[start:stop], ncols)
    assert echelon.rank == modular.rank_mod_p(rows, ncols, point=Fraction(q0))
    target = data.draw(st.integers(0, echelon.rank))
    assert modular.Echelon(q0).extend(rows, target) == target


@settings(max_examples=300, deadline=None)
@given(deficient_matrices(), st.integers(0, 7))
@example(([{0: (1,), 1: (1,), 2: (1,)}, {0: (2,)}, {2: (3,)}], 3, 3), 3)
def test_column_sweep_matches_row_by_row_echelon(case, target):
    """The column sweep of `rank_mod_p` finds the rank that adding the rows
    one by one to an `Echelon` finds at the same seeded q0; with a target it
    returns the target exactly when that rank reaches it, and never more."""
    rows, ncols, _ = case
    live = [row for row in rows if row]
    q0 = modular.seeded_point(f"{len(live)}x{ncols}")
    full = modular.Echelon(q0).extend(rows, ncols)
    assert modular.rank_mod_p(rows, ncols) == full
    assert modular.rank_mod_p(rows, ncols, point=Fraction(q0)) == full
    got = modular.rank_mod_p(rows, ncols, target)
    assert got <= min(full, target)
    assert (got == target) == (full >= target)
