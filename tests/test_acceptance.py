"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
timing lines.  Every expected value is exact; the bounds in parentheses are
the time budgets the criteria must meet.
"""

import hashlib
import importlib
import json
import math
import pkgutil
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import qsteenrod
from qsteenrod import modular
from qsteenrod.cli import (
    build_parser,
    cache_roundtrip,
    execute,
    main,
    serialize_polynomial,
    serialize_subspace,
    spec_from_args,
)
from qsteenrod.isotypic import block_basis, blocks
from qsteenrod.linalg import Matrix, echelonize, sparse_rank
from qsteenrod.polynomials import Polynomial, monomials_of_degree
from qsteenrod.representations import (
    Filling,
    graded_character,
    is_regular_representation,
    specht_polynomial,
    standard_tableaux,
)
from qsteenrod.scalars import QParam, RF_ONE, RF_Q, qp_eval, rf_normalize
from qsteenrod.schubert import (
    all_perms,
    all_reduced_words,
    commutant_search,
    d_sigma,
    divided_difference,
    operator_in_span,
    schubert_polynomial,
)
from qsteenrod.spaces import (
    StaircaseSet,
    classical_harm_hilbert,
    harm_component,
    hit_component,
    rule_stacks,
    truncated_harm_component,
    truncated_hit_component,
    weighted_complement,
)
from qsteenrod.specialize import (
    bad_q_candidates,
    conjectured_root_form,
    content_free_basis,
    evaluate_rows,
    specialize_poly,
    specialized_dimension,
)
from qsteenrod.steenrod import (
    dual_pk,
    make_p_lambda,
    make_pk,
    monomial_expansion,
    operator_span_rank,
    partitions_of,
    polynomial_part,
    straighten,
)
from qsteenrod.strings import (
    build_string,
    divided_power,
    is_harmonic_string,
    string_to_polynomial,
    two_variable_extra_line,
)
from qsteenrod.weyl import WeylElement, weyl_apply, weyl_compose

FORMAL = QParam.formal()
Q_GRID = (FORMAL, QParam.rational(0), QParam.rational(1), QParam.rational(-1, 2))


@contextmanager
def criterion(number: int, label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"[FAIL] criterion {number:2d} ({label}): {elapsed:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"[{verdict}] criterion {number:2d} ({label}): {elapsed:.2f}s (< {budget:g}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def x(n, i):
    return Polynomial.variable(n, i)


def test_criterion_01_weyl_normal_ordering():
    with criterion(1, "Weyl normal ordering identities", 1.0):
        d1 = WeylElement.derivative(1, 1)
        x1 = WeylElement.variable(1, 1)
        assert weyl_compose(d1, x1) == WeylElement.monomial(
            1, (1,), (1,)
        ) + WeylElement.identity(1)

        d1cubed = weyl_compose(weyl_compose(d1, d1), d1)
        assert weyl_compose(d1cubed, x1) == WeylElement.monomial(
            1, (1,), (3,)
        ) + WeylElement.monomial(1, (0,), (2,), 3)

        dd = weyl_compose(WeylElement.derivative(2, 1), WeylElement.derivative(2, 2))
        xx = weyl_compose(WeylElement.variable(2, 1), WeylElement.variable(2, 2))
        assert weyl_compose(dd, xx) == (
            WeylElement.monomial(2, (1, 1), (1, 1))
            + WeylElement.monomial(2, (1, 0), (1, 0))
            + WeylElement.monomial(2, (0, 1), (0, 1))
            + WeylElement.identity(2)
        )


def test_criterion_02_commutation():
    with criterion(2, "[P_k,P_l] = q(l-k)P_{k+l}", 30.0):
        for q in Q_GRID:
            qs = q.scalar()
            for n in range(1, 5):
                ops = {k: make_pk(n, k, q) for k in range(1, 6)}
                for k in range(1, 6):
                    for l in range(1, 6):
                        if k + l > 10:
                            continue
                        bracket = weyl_compose(ops[k], ops[l]) - weyl_compose(
                            ops[l], ops[k]
                        )
                        expected = make_pk(n, k + l, q).scale(qs * (l - k))
                        assert bracket == expected, (n, k, l, str(q))


def _compositions(weight):
    if weight == 0:
        yield ()
        return
    for first in range(1, weight + 1):
        for rest in _compositions(weight - first):
            yield (first,) + rest


def test_criterion_03_straightening():
    with criterion(3, "straightening vs direct composition, weight <= 6", 60.0):
        assert straighten((1, 2), FORMAL) == {(2, 1): RF_ONE, (3,): RF_Q}
        n = 3
        for weight in range(1, 7):
            for mu in _compositions(weight):
                expansion = straighten(mu, FORMAL)
                recombined = WeylElement.zero(n)
                for lam, coeff in expansion.items():
                    assert list(lam) == sorted(lam, reverse=True)
                    recombined = recombined + make_p_lambda(n, lam, FORMAL).scale(
                        coeff
                    )
                assert recombined == make_p_lambda(n, mu, FORMAL), mu


def test_criterion_04_polynomial_part_triangularity():
    with criterion(4, "P_(2,1).1 and triangularity to weight 5", 30.0):
        expansion = monomial_expansion(
            polynomial_part(make_p_lambda(3, (2, 1), FORMAL))
        )
        assert expansion == {(2, 1): RF_ONE, (3,): RF_Q + 1}
        n = 4
        from math import factorial

        for weight in range(1, 6):
            for lam in partitions_of(weight, max_length=n):
                coords = monomial_expansion(
                    polynomial_part(make_p_lambda(n, lam, FORMAL))
                )
                unit = 1
                for part in set(lam):
                    unit *= factorial(lam.count(part))
                lead = coords[lam]
                assert lead == unit and lead.is_constant and lead != 0
                for mu in coords:
                    if mu != lam:
                        assert len(mu) < len(lam)


def test_criterion_05_classical_hilbert():
    with criterion(5, "classical harmonic Hilbert series, n <= 4", 60.0):
        q0 = QParam.rational(0)
        for n in range(1, 5):
            series = classical_harm_hilbert(n)
            top = n * (n - 1) // 2
            dims = [harm_component(n, d, q0).dim for d in range(top + 2)]
            assert dims == [series[d] for d in range(top + 2)]
            assert dims[top + 1] == 0
            from math import factorial

            assert sum(dims) == factorial(n)


def test_criterion_06_orthogonal_complement_duality():
    with criterion(6, "harm = complement(hit), n <= 3, d <= 6", 120.0):
        for q in Q_GRID:
            for n in range(1, 4):
                for d in range(7):
                    harm = harm_component(n, d, q)
                    comp = weighted_complement(hit_component(n, d, q))
                    assert harm.basis == comp.basis, (n, d, str(q))


def test_criterion_07_truncated_theorem():
    with criterion(7, "truncated theorem, q formal, n in {2,3}, d <= 6", 120.0):
        q0 = QParam.rational(0)
        for n in (2, 3):
            for d in range(7):
                tqharm = truncated_harm_component(n, d, FORMAL)
                classical = harm_component(n, d, q0)
                assert tqharm.dim == classical.dim, (n, d)
                tqhit = truncated_hit_component(n, d, FORMAL)
                combined = echelonize(list(classical.basis) + list(tqhit.basis))
                assert (
                    len(combined)
                    == classical.dim + tqhit.dim
                    == len(monomials_of_degree(n, d))
                ), (n, d)


def test_criterion_08_low_degree_slices():
    with criterion(8, "formal dims match q=0 for d <= n, n <= 4", 60.0):
        q0 = QParam.rational(0)
        for n in range(1, 5):
            for d in range(n + 1):
                assert (
                    hit_component(n, d, FORMAL).dim
                    == hit_component(n, d, q0).dim
                )
                assert (
                    harm_component(n, d, FORMAL).dim
                    == harm_component(n, d, q0).dim
                )


def test_criterion_09_two_variable_classification():
    with criterion(9, "two-variable classification to degree 8", 60.0):
        dims = [harm_component(2, d, FORMAL).dim for d in range(9)]
        assert dims == [1, 1, 0, 0, 0, 0, 0, 0, 0]
        special = {Fraction(-2, e) for e in range(2, 9)}
        rng = random.Random(9)
        for d in range(2, 9):
            qd = QParam.rational(-2, d)
            space = harm_component(2, d, qd)
            assert space.dim == 1
            assert space.contains(two_variable_extra_line(d))
            others = 0
            while others < 3:
                q0 = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
                if q0 in special:
                    continue
                others += 1
                assert harm_component(2, d, QParam(q0)).dim == 0, (d, q0)


def test_criterion_10_bad_q_detection():
    with criterion(10, "bad-q candidates and root shapes", 300.0):
        for d in range(2, 9):
            report = bad_q_candidates(2, d)
            assert Fraction(-2, d) in report.rational_roots
            for root, dim_at_root in report.jumps:
                assert dim_at_root > report.generic_harm_dim
        for n in (1, 2, 3):
            for d in range(1, 7):
                report = bad_q_candidates(n, d)
                # completeness: every rational root of the gcd is listed
                for root in report.rational_roots:
                    assert qp_eval(report.minor_gcd, root) == 0
                for factor in report.nonrational_factors:
                    from qsteenrod.specialize import rational_roots as rr

                    assert rr(factor)[0] == []
                for root, dim_at_root in report.jumps:
                    assert dim_at_root > report.generic_harm_dim
                    forms = conjectured_root_form(root, n)
                    if not forms["a_in_1_to_n"]:
                        print(
                            f"  [FINDING] bad-q form deviation: n={n} d={d} "
                            f"root={root} is not -a/b with a in 1..{n}"
                        )


def test_criterion_11_strings():
    with criterion(11, "string classification and reconstruction", 60.0):
        for d in range(2):
            assert is_harmonic_string(build_string(divided_power(1, 1, d), FORMAL))
        for d in range(2, 7):
            assert not is_harmonic_string(
                build_string(divided_power(1, 1, d), FORMAL)
            )
            assert is_harmonic_string(
                build_string(divided_power(1, 1, d), QParam.rational(-2, d))
            )
            for bad in (
                QParam.rational(-1, 3 * d),
                QParam.rational(-2, d + 1),
                QParam.rational(1),
            ):
                assert not is_harmonic_string(
                    build_string(divided_power(1, 1, d), bad)
                )
        rng = random.Random(11)
        for n in (1, 2):
            for degree in range(5):
                for _ in range(4):
                    terms = {}
                    for mono in monomials_of_degree(n, degree):
                        c = rng.randint(-3, 3)
                        if c:
                            terms[mono] = rf_normalize((c,), (1,))
                    g = Polynomial(n, terms)
                    if not g:
                        continue
                    for q in (FORMAL, QParam.rational(-1, 2)):
                        F = build_string(g, q)
                        lifted = string_to_polynomial(F)
                        member = harm_component(
                            n + 1, lifted.homogeneous_degree(), q
                        ).contains(lifted)
                        assert member == is_harmonic_string(F)


def test_criterion_12_specht_harmonicity():
    with criterion(12, "Specht harmonicity and the ten-box product", 60.0):
        for n in (2, 3, 4):
            downs = [dual_pk(n, k, FORMAL) for k in range(1, 5)]
            for shape in partitions_of(n):
                for tab in standard_tableaux(shape):
                    sp = specht_polynomial(tab, n)
                    for down in downs:
                        assert weyl_apply(down, sp).is_zero()
        filling = Filling((5, 3, 2), ((10, 4, 3, 7, 6), (9, 1, 5), (8, 2)))
        m = 10
        expected = (
            (x(m, 9) - x(m, 10))
            * (x(m, 8) - x(m, 10))
            * (x(m, 8) - x(m, 9))
            * (x(m, 1) - x(m, 4))
            * (x(m, 2) - x(m, 4))
            * (x(m, 2) - x(m, 1))
            * (x(m, 5) - x(m, 3))
        )
        assert specht_polynomial(filling, m) == expected


def test_criterion_13_regular_representation():
    with criterion(13, "graded regular representation of Harm", 120.0):
        q0 = QParam.rational(0)
        for n in (1, 2, 3):
            top = n * (n - 1) // 2
            chi0 = graded_character(
                [harm_component(n, d, q0) for d in range(top + 1)]
            )
            assert is_regular_representation(chi0, n).is_regular
            chi = graded_character(
                [harm_component(n, d, FORMAL) for d in range(top + 1)]
            )
            cert = is_regular_representation(chi, n)
            if not cert.is_regular:
                for degree in chi.degrees():
                    if chi.degree(degree) != chi0.degree(degree):
                        print(
                            f"  [FINDING] formal character differs from regular "
                            f"at n={n}, degree={degree}"
                        )
            else:
                assert cert.is_regular


def test_criterion_14_operator_independence():
    with criterion(14, "rank of P_lambda, lambda |- 3, on two variables", 30.0):
        formal = operator_span_rank(2, 3, FORMAL, probe_cap=5)
        assert formal.rank == 3 and not formal.relations
        zero = operator_span_rank(2, 3, QParam.rational(0), probe_cap=5)
        assert zero.rank == 2 and len(zero.relations) == 1
        relation = zero.relations[0]
        values = {lam: coeff.as_fraction() for lam, coeff in relation.items()}
        assert set(values) == {(3,), (2, 1), (1, 1, 1)}
        flip = 1 if values[(1, 1, 1)] > 0 else -1
        for lam, value in values.items():
            assert value != 0
            assert (flip * value > 0) == (len(lam) % 2 == 1), values


def test_criterion_15_schubert_baseline():
    with criterion(15, "divided differences and Schubert baseline", 60.0):
        for sigma in all_perms(3):
            ops = {d_sigma(w, 3, 4) for w in all_reduced_words(sigma)}
            assert len(ops) == 1
        for i in (1, 2):
            for d in range(6):
                for mono in monomials_of_degree(3, d):
                    p = Polynomial.monomial(3, mono)
                    assert divided_difference(
                        i, divided_difference(i, p)
                    ).is_zero()
        assert schubert_polynomial((1, 2)) == Polynomial.one(2)
        assert schubert_polynomial((2, 1)) == x(2, 1)
        staircase = StaircaseSet(3)
        by_degree: dict[int, list[Polynomial]] = {}
        for sigma in all_perms(3):
            p = schubert_polynomial(sigma)
            by_degree.setdefault(p.homogeneous_degree(), []).append(p)
        for d, polys in by_degree.items():
            assert echelonize(polys) == echelonize(
                [Polynomial.monomial(3, mono) for mono in staircase.of_degree(d)]
            )


def test_criterion_16_commutant_search():
    with criterion(16, "commutant: d_1 at q=0, zero for formal q", 300.0):
        q0 = QParam.rational(0)
        solutions = commutant_search(2, 4, q0)
        assert solutions
        assert operator_in_span(d_sigma((1,), 2, 4), solutions)
        assert commutant_search(1, 4, FORMAL) == []
        assert commutant_search(2, 4, FORMAL) == []


def test_criterion_17_specialization_lemmas():
    with criterion(17, "content-free bases and rank under specialization", 60.0):
        rng = random.Random(17)
        for n, d in [(2, 1), (3, 1), (3, 2), (3, 3)]:
            space = harm_component(n, d, FORMAL)
            if space.dim == 0:
                continue
            basis = content_free_basis(space)
            columns = monomials_of_degree(n, d)
            probes = list(bad_q_candidates(n, d).rational_roots)
            probes += [
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(5)
            ]
            for q0 in probes:
                rows = [
                    [specialize_poly(p, q0).coefficient(mono) for mono in columns]
                    for p in basis
                ]
                assert Matrix(len(basis), len(columns), rows).rank() == len(basis)
        for _ in range(6):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
            rows = []
            for _ in range(nrows):
                row = {}
                for j in range(ncols):
                    coeffs = tuple(rng.randint(-4, 4) for _ in range(3))
                    while coeffs and coeffs[-1] == 0:
                        coeffs = coeffs[:-1]
                    if coeffs:
                        row[j] = coeffs
                rows.append(row)
            generic = sparse_rank(rows, ncols)
            for _ in range(10):
                q0 = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                assert sparse_rank(evaluate_rows(rows, q0), ncols) <= generic


def test_criterion_18_cli(tmp_path, capsys):
    with criterion(18, "CLI reports equal library results bit for bit", 30.0):
        # harm -n 2 -d 3 -q -2/3
        assert main(
            ["harm", "-n", "2", "-d", "3", "-q", "-2/3", "--format", "json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        space = harm_component(2, 3, QParam.rational(-2, 3))
        row = [r for r in report["tables"] if r["degree"] == 3][0]
        assert row["dim"] == space.dim == 1
        assert row["_basis"][0]["terms"] == serialize_polynomial(space.basis[0])
        assert space.basis[0] == (x(2, 1) - x(2, 2)) * (x(2, 1) + x(2, 2)) ** 2

        # hilbert --kind classical-harm -n 3 (cap defaults to the top degree)
        assert main(
            ["hilbert", "--kind", "classical-harm", "-n", "3", "--format", "json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["dim"] for r in report["tables"]] == [1, 2, 2, 1]
        assert tuple(r["dim"] for r in report["tables"]) == (
            classical_harm_hilbert(3).coefficients
        )

        # badq -n 2 -d 4
        assert main(["badq", "-n", "2", "-d", "4", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        lib = bad_q_candidates(2, 4)
        row = report["tables"][0]
        assert row["rational_roots"] == [str(r) for r in lib.rational_roots]
        assert "-1/2" in row["rational_roots"]
        assert row["generic_rank"] == lib.generic_rank

        # cache round trips are byte-identical
        for nn, dd, qq in [(2, 3, QParam.rational(-2, 3)), (3, 2, FORMAL)]:
            space = harm_component(nn, dd, qq)
            first = json.dumps(serialize_subspace(space), sort_keys=True)
            again = cache_roundtrip(space, str(tmp_path / "cache"))
            second = json.dumps(serialize_subspace(again), sort_keys=True)
            assert first == second


# gcd of the maximal minors of the D_1, D_2 stack for n = 3, d = 7, as the
# minimum-degree pivot rule computed it (91 s): 72 q^2 + ... + 16807 q^7
BADQ_3_7_GCD = (0, 0, 72, 1092, 6566, 19551, 28812, 16807)


def test_criterion_19_badq_reach():
    with criterion(19, "bad-q reach: n = 3 d = 7..10, n = 4 d = 6", 60.0):
        for n, d in [(3, 7), (3, 8), (3, 9), (3, 10), (4, 6)]:
            report = bad_q_candidates(n, d)
            if (n, d) == (3, 7):
                assert report.minor_gcd == BADQ_3_7_GCD
            assert report.jumps
            for root, dim_at_root in report.jumps:
                assert qp_eval(report.minor_gcd, root) == 0
                assert dim_at_root == harm_component(n, d, QParam(root)).dim
                assert dim_at_root > report.generic_harm_dim
                if not conjectured_root_form(root, n)["a_in_1_to_n"]:
                    print(
                        f"  [FINDING] bad-q form deviation: n={n} d={d} "
                        f"root={root} is not -a/b with a in 1..{n}"
                    )


def test_criterion_20_full_slices():
    # Above degree n(n-1)/2 = 6 every slice of n = 4 is all hit; the mod-p
    # rank certifies that without eliminating over Z[q].  Built uncached.
    with criterion(20, "full slices: harm, hit of n = 4, d = 7, 8, formal q", 10.0):
        for d in (7, 8):
            assert harm_component.__wrapped__(4, d, FORMAL).dim == 0
            hit = hit_component(4, d, FORMAL)
            assert hit.dim == len(monomials_of_degree(4, d)) == math.comb(3 + d, d)
            for p in hit.basis:
                assert p == Polynomial.monomial(4, p.leading_monomial())


# badq -n 4 -d 7: the gcd as the whole-stack diagonalization (`minor_gcd` on
# the undivided constraint matrix) gave it in 92 s on a 2-core VM; q-degree 50,
# 79-bit coefficients.
BADQ_4_7_GCD = (0,) * 21 + (
    1719926784, 122401456128, 4189968580608, 91862886039552, 1449115685932032,
    17516871658160640, 168734466113511744, 1329821323076306688,
    8736257429979189232, 48496147977782351856, 229779968861995615308,
    936225571443212648920, 3298165473845383451709, 10083951897052373569341,
    26821571542063206800500, 62131075438277570799564, 125330460234932482754280,
    219864490719244496754832, 334563516464836383789708,
    439831626978182247073020, 496728799069224641755738,
    478229174695806173632482, 388472551952202881999388,
    262591010897363711356612, 144939347597713493846448,
    63609263975226587092776, 21338547543651445828056, 5136244465713263608860,
    789430486063017018465, 58168562130959148729,
)


def test_criterion_21_badq_blocks_reach():
    with criterion(21, "bad-q reach by isotypic blocks: n = 4 d = 7, 8, n = 5 d = 6", 30.0):
        for n, d in [(4, 7), (4, 8), (5, 6)]:
            report = bad_q_candidates(n, d)
            if (n, d) == (4, 7):
                assert report.minor_gcd == BADQ_4_7_GCD
                assert len(BADQ_4_7_GCD) - 1 == 50
                assert max(abs(c) for c in BADQ_4_7_GCD).bit_length() == 79
            assert report.jumps
            for root, dim_at_root in report.jumps:
                assert qp_eval(report.minor_gcd, root) == 0
                assert dim_at_root == harm_component(n, d, QParam(root)).dim
                assert dim_at_root > report.generic_harm_dim


# sha256 of json.dumps(serialize_subspace(space), sort_keys=True) for formal
# slices that the whole-slice elimination built in 36 s, 87 s and 18.5 s on a
# 2-core VM; the isotypic blocks must give the same bytes.
BLOCK_SLICE_DIGESTS = {
    (harm_component, 5, 7): (
        15, "df801258c6f7223b85e052ac4fe29f0f9200e1b09c3ee1721bdfc8893301b952"
    ),
    (hit_component, 5, 7): (
        315, "b8c581afa8d66da86613a434ed45fb32467d9949bd804d7cea7889ad06ae3f34"
    ),
    (truncated_hit_component, 4, 6): (
        83, "f26cab2edbb7394eff82337e41891566cef8fb7319c20003dfd2a9c8a601d3b4"
    ),
}


def test_criterion_22_block_slices():
    with criterion(22, "harm, hit of n = 5 d = 7, tqhit of n = 4 d = 6 by blocks", 30.0):
        for (build, n, d), (dim, digest) in BLOCK_SLICE_DIGESTS.items():
            space = getattr(build, "__wrapped__", build)(n, d, FORMAL)
            assert space.dim == dim
            text = json.dumps(serialize_subspace(space), sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, d)
        assert 315 == math.comb(11, 4) - 15


def test_criterion_23_block_full_slices():
    # Degree 11 lies above n(n-1)/2 = 10, so every slice of n = 5 is all hit;
    # each isotypic block certifies itself full, with no whole-slice pass.
    with criterion(23, "full slices by blocks: harm, hit of n = 5, d = 11, formal q", 5.0):
        assert harm_component.__wrapped__(5, 11, FORMAL).dim == 0
        hit = hit_component(5, 11, FORMAL)
        assert hit.dim == len(monomials_of_degree(5, 11)) == math.comb(15, 4) == 1365
        for p in hit.basis:
            assert p == Polynomial.monomial(5, p.leading_monomial())


# badq -n 5 -d 8 as the blocks gave it while one mod-p rank of the whole stack
# certified them: the gcd has q-degree 212, q^108 its lowest term and 264-bit
# coefficients; pinned by sha256 of its comma-joined coefficients.
BADQ_5_8_RANK = 486
BADQ_5_8_GCD_DIGEST = "6b3f895bf3e1aa3373b40b12efdec9b8f3bae6f43b93866db6927bb2a37945e5"
BADQ_5_8_JUMPS = (
    (Fraction(-1), 20),
    (Fraction(-5, 8), 24),
    (Fraction(-1, 2), 29),
    (Fraction(-3, 7), 20),
    (Fraction(-3, 8), 24),
    (Fraction(-1, 3), 20),
    (Fraction(-2, 7), 20),
    (Fraction(-1, 4), 19),
)


def test_criterion_24_semistandard_blocks():
    # Block bases from semistandard fillings, each checked independent and
    # counted against the slice; bad_q_candidates certifies each block.
    with criterion(24, "block bases of n = 6, d = 12; badq -n 5 -d 8", 6.0):
        bases = [(f, block_basis.__wrapped__(6, 12, lam)) for lam, f in blocks(6)]
        cover = sum(f * len(basis) for f, basis in bases)
        assert cover == math.comb(17, 5) == 6188
        report = bad_q_candidates(5, 8)
        assert report.generic_rank == BADQ_5_8_RANK
        assert report.generic_harm_dim == math.comb(12, 8) - BADQ_5_8_RANK == 9
        text = ",".join(map(str, report.minor_gcd))
        assert hashlib.sha256(text.encode()).hexdigest() == BADQ_5_8_GCD_DIGEST
        assert report.jumps == BADQ_5_8_JUMPS
        for root, _ in report.jumps:
            if not conjectured_root_form(root, 5)["a_in_1_to_n"]:
                print(
                    f"  [FINDING] bad-q form deviation: n=5 d=8 "
                    f"root={root} is not -a/b with a in 1..5"
                )


def test_criterion_31_block_template_reach():
    # Block bases of every shape of n = 7 for d <= 11, built cold: 1.90 s on a
    # 2-core VM when each semistandard monomial took |R(T)| |C(T)|
    # permutations and each basis one elimination over its slice; read off
    # cached orbit templates they took 0.38 s (BENCH_block_templates.json).
    for info in pkgutil.iter_modules(qsteenrod.__path__):
        for value in vars(importlib.import_module(f"qsteenrod.{info.name}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    with criterion(31, "block bases of every shape, n = 7, d <= 11, cold", 1.5):
        for d in range(12):
            cover = sum(f * len(block_basis(7, d, lam)) for lam, f in blocks(7))
            assert cover == math.comb(d + 6, 6), d


# (generic, direct) harmonic dimensions of n = 5 at points like those verify
# draws: two generic points and two bad values of the form -a/b, a <= 5.
VERIFY_5_DIMENSIONS = {
    (4, Fraction(7, 3)): (20, 20),
    (5, Fraction(-4, 5)): (22, 26),
    (6, Fraction(-9, 8)): (20, 20),
    (7, Fraction(-1, 2)): (15, 25),
}


def test_criterion_25_verify_at_n_5():
    # The generic dimension is that of the formal constraints (the
    # content-free lemma of criterion 17), the direct one that of the
    # constraints at q0, each read from certified block ranks.
    with criterion(25, "verify at n = 5: specialized dimensions, d = 4..7", 10.0):
        for (d, q0), dims in VERIFY_5_DIMENSIONS.items():
            assert specialized_dimension(5, d, q0) == dims, (d, q0)
            generic, direct = dims
            if direct > generic and not conjectured_root_form(q0, 5)["a_in_1_to_n"]:
                print(
                    f"  [FINDING] dimension jump outside the conjectured form: "
                    f"n=5 d={d} q0={q0} is not -a/b with a in 1..5"
                )


# badq -n 5 -d 10 as the full blocks M . B_lam gave it in 10.9 s on a 2-core
# VM (sha256 of the gcd's comma-joined coefficients; q-degree 337): the rows at
# the target bases' pivot monomials must give the same report.
BADQ_5_10_RANK = 1000
BADQ_5_10_GCD_DIGEST = "3a4e9078ce3d5621244761b5bcfe6890c2db5c00caf5ec563b843722972c855d"
BADQ_5_10_JUMPS = (
    (Fraction(-1), 10),
    (Fraction(-1, 2), 25),
    (Fraction(-2, 5), 30),
    (Fraction(-1, 3), 21),
    (Fraction(-3, 10), 21),
    (Fraction(-2, 7), 10),
    (Fraction(-1, 4), 21),
    (Fraction(-2, 9), 21),
    (Fraction(-1, 5), 11),
)


def test_criterion_26_badq_pivot_rows():
    with criterion(26, "badq -n 5 -d 10 on the target bases' pivot rows", 10.0):
        report = bad_q_candidates(5, 10)
        assert report.generic_rank == BADQ_5_10_RANK
        assert report.generic_harm_dim == math.comb(14, 10) - BADQ_5_10_RANK == 1
        assert len(report.minor_gcd) - 1 == 337
        text = ",".join(map(str, report.minor_gcd))
        assert hashlib.sha256(text.encode()).hexdigest() == BADQ_5_10_GCD_DIGEST
        assert report.jumps == BADQ_5_10_JUMPS
        assert report.nonrational_factors == ()


def test_criterion_27_relations_reach():
    # 16.4 s on a 2-core VM when every cell up to the cap was cleared and
    # eliminated; the probe now stops at the first degree whose cells are of
    # full rank mod P
    with criterion(27, "P_lambda, lambda |- 6, independent on five variables", 5.0):
        result = operator_span_rank(5, 6, FORMAL, probe_cap=7)
        assert result.rank == len(result.partitions) == 11
        assert result.relations == ()


def test_criterion_28_block_rank_reach():
    # formal harm(6, 8) alone took more than 295 s on a 2-core VM through its
    # reduced echelon basis; the dimensions now come from the certified
    # S_n-block ranks, with no basis
    expected = list(classical_harm_hilbert(6, 9).coefficients)
    assert expected == [1, 5, 14, 29, 49, 71, 90, 101, 101, 90]
    for q in ("formal", "1"):
        argv = ["hilbert", "--kind", "harm", "-n", "6", "-d", "9", "-q", q]
        label = f"{' '.join(argv)} from block ranks"
        with criterion(28, label, 10.0):
            tables = execute(spec_from_args(build_parser().parse_args(argv))).tables
        assert [row["dim"] for row in tables] == expected
        assert [row["dim_q0"] for row in tables] == expected


def test_criterion_29_character_from_block_multiplicities():
    # `character -n 5 -d 10` took 4.8 s in process on a 2-core VM through the
    # reduced echelon slices and their stability check, and n = 6 at d = 9 ran
    # past 150 s; the characters now sum mult_lam chi^lam over the certified
    # S_n-block multiplicities, with no basis
    for argv, budget in (
        (["character", "-n", "5", "-d", "10"], 5.0),
        (["character", "-n", "6", "-d", "15", "-q", "1"], 30.0),
    ):
        n = int(argv[2])
        with criterion(29, " ".join(argv), budget):
            report = execute(spec_from_args(build_parser().parse_args(argv)))
        assert [row["dim"] for row in report.tables] == list(
            classical_harm_hilbert(n).coefficients
        )
        assert [f["is_regular"] for f in report.findings] == [True]


# sha256 of the json report of `commutant -n 3 -d 5 -q 0`, taken when each
# pivot column took the first row holding it as pivot row
COMMUTANT_3_5_DIGEST = "77634b49bde931177768cccaea2af1002f35fde7f4ceb87a64825dcf26abcfe2"


def test_criterion_30_sparse_pivots(capsys):
    # On a 2-core VM, with the first row holding each column as pivot row,
    # `commutant -n 3 -d 5 -q 0` took 2.7-3.7 s and `rank_mod_p` on the formal
    # harm(5, 11) D_1, D_2 rows in natural column order 4.8-5.8 s; both
    # eliminations now take the shortest row (about 0.2 s and 0.6-0.8 s)
    argv = ["commutant", "-n", "3", "-d", "5", "-q", "0", "--format", "json"]
    with criterion(30, " ".join(argv[:7]) + " on shortest-row pivots", 2.0):
        assert main(argv) == 0
        out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COMMUTANT_3_5_DIGEST
    stacks = rule_stacks("harm", 5, 11, FORMAL, (1, 2))
    rows = [row for k in (1, 2) for row in stacks[k]]
    ncols = len(monomials_of_degree(5, 11))
    assert (len(rows), ncols) == (1716, 1365)
    with criterion(30, "rank_mod_p of formal harm(5, 11) in natural column order", 3.0):
        assert modular.rank_mod_p(rows, ncols, ncols) == ncols
