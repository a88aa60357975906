"""Checks of CLI reports against computations made apart from the program.

The only program call is the `harm_dim` callable passed to `check_round`,
used to confirm that a reported bad value of q really is a jump.  Everything
else is recomputed here: monomial counts, the closed-form harmonic Hilbert
series, partition counts, symmetric group class sizes, and the action of the
dual operators D_k on report bases.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial, prod

from workloads import SPURIOUS_ROOT

# Known harmonic dimensions of truncated slices at bad q: (n, q) -> {d: dim}.
# At q = -1/2 the four-variable truncated harmonics have dimension 8 in
# degree 4, against 5 from the closed form.
BAD_Q_TRUNCATED = {(4, "-1/2"): {4: 8}}


class CheckFailure(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


def _require(ok: bool, kind: str, message: str) -> None:
    if not ok:
        raise CheckFailure(kind, message)


# ---------------------------------------------------------------------------
# Closed forms


def harm_series(n: int, cap: int) -> list[int]:
    """Coefficients of prod_{i=1..n} (1 + t + ... + t^(i-1)) up to t^cap."""
    acc = [1] + [0] * cap
    for i in range(2, n + 1):
        acc = [sum(acc[d - j] for j in range(i) if d - j >= 0) for d in range(cap + 1)]
    return acc


def monomial_count(n: int, d: int) -> int:
    return comb(n + d - 1, d)


def partition_count(d: int) -> int:
    ways = [1] + [0] * d
    for part in range(1, d + 1):
        for total in range(part, d + 1):
            ways[total] += ways[total - part]
    return ways[d]


def class_size(cycle_type: tuple[int, ...], n: int) -> int:
    mults = [cycle_type.count(i) for i in set(cycle_type)]
    parts = [i ** cycle_type.count(i) for i in set(cycle_type)]
    return factorial(n) // (prod(parts) * prod(factorial(m) for m in mults))


def _generic(q: str) -> bool:
    """Formal q or q >= 0, where the closed-form dimensions hold."""
    return q == "formal" or Fraction(q) >= 0


# ---------------------------------------------------------------------------
# The dual operators D_k = sum_i (d_i^k + q x_i d_i^(k+1)), applied here


def _eval_poly(coeffs: list[int], q0: Fraction) -> Fraction:
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * q0 + c
    return value


def _annihilated_at(terms: list, n: int, q0: Fraction) -> bool:
    coeffs = {tuple(m): _eval_poly(num, q0) / _eval_poly(den, q0) for m, num, den in terms}
    for k in range(1, n + 1):
        image: dict[tuple[int, ...], Fraction] = {}
        for mono, c in coeffs.items():
            for i, e in enumerate(mono):
                if e < k:
                    continue
                falling = factorial(e) // factorial(e - k)
                target = mono[:i] + (e - k,) + mono[i + 1:]
                image[target] = image.get(target, 0) + c * falling * (1 + q0 * (e - k))
        if any(image.values()):
            return False
    return True


def check_annihilated(terms: list, n: int, q: str) -> None:
    """Every D_k, k = 1..n, kills the polynomial, exactly over Q(q).

    For formal q, clearing the denominators L(q) of the coefficients turns
    each coefficient of L * D_k(p) into a polynomial of degree at most
    B = 1 + deg L + max(deg num - deg den); vanishing at B + 1 points where
    L does not vanish proves it is zero.
    """
    if q != "formal":
        _require(_annihilated_at(terms, n, Fraction(q)), "harm-basis",
                 f"a basis vector is not harmonic at q = {q}")
        return
    dens = {tuple(den) for _, _, den in terms}
    bound = 1 + sum(len(d) - 1 for d in dens) + max(len(num) - len(den) for _, num, den in terms)
    q0, used = Fraction(0), 0
    while used <= bound:
        if all(_eval_poly(list(d), q0) for d in dens):
            _require(_annihilated_at(terms, n, q0), "harm-basis",
                     f"a basis vector is not harmonic at q = {q0}")
            used += 1
        q0 += 1


# ---------------------------------------------------------------------------
# One report


def _dims(report: dict, key: str) -> dict[int, int]:
    return {row["degree"]: row[key] for row in report["tables"]}


def check_harm(report: dict) -> None:
    spec, rows = report["spec"], report["tables"]
    n, q = spec["n"], spec["q"]
    closed = harm_series(n, spec["degree"])
    for row in rows:
        d = row["degree"]
        _require(row["dim_q0"] == closed[d], "harm-dim", f"q=0 degree {d}: {row['dim_q0']} != {closed[d]}")
        if _generic(q):
            _require(row["dim"] == closed[d], "harm-dim", f"degree {d}: {row['dim']} != {closed[d]}")
        if "_basis" in row:
            _require(len(row["_basis"]) == row["dim"], "harm-basis", f"degree {d}: basis size != dim")
            for entry in row["_basis"]:
                check_annihilated(entry["terms"], n, q)


def check_hit(report: dict) -> None:
    spec = report["spec"]
    n, q = spec["n"], spec["q"]
    closed = harm_series(n, spec["degree"])
    for row in report["tables"]:
        d = row["degree"]
        expected = monomial_count(n, d) - closed[d]
        _require(row["dim_q0"] == expected, "hit-dim", f"q=0 degree {d}: {row['dim_q0']} != {expected}")
        if _generic(q):
            _require(row["dim"] == expected, "hit-dim", f"degree {d}: {row['dim']} != {expected}")


def check_hilbert(report: dict) -> None:
    spec = report["spec"]
    _require(spec["kind"] == "harm", "hilbert", f"no check for kind {spec['kind']}")
    closed = harm_series(spec["n"], spec["degree"])
    for row in report["tables"]:
        d = row["degree"]
        _require(row["dim_q0"] == closed[d], "hilbert", f"q=0 degree {d}: {row['dim_q0']} != {closed[d]}")
        if _generic(spec["q"]):
            _require(row["dim"] == closed[d], "hilbert", f"degree {d}: {row['dim']} != {closed[d]}")


def check_character(report: dict) -> None:
    spec = report["spec"]
    n, cap = spec["n"], spec["degree"]
    closed = harm_series(n, cap)
    identity = "chi_" + ".".join(["1"] * n)
    totals: dict[str, Fraction] = {}
    for row in report["tables"]:
        d = row["degree"]
        chi = {k: Fraction(v) for k, v in row.items() if k.startswith("chi_")}
        _require(chi[identity] == row["dim"], "character", f"degree {d}: chi(id) != dim")
        if _generic(spec["q"]):
            _require(row["dim"] == closed[d], "character", f"degree {d}: dim {row['dim']} != {closed[d]}")
        trivial = sign = Fraction(0)
        for key, value in chi.items():
            ct = tuple(int(p) for p in key[4:].split("."))
            size = class_size(ct, n)
            trivial += size * value
            sign += size * value * (-1) ** (n - len(ct))
            totals[key] = totals.get(key, 0) + value
        for name, mult in (("trivial", trivial), ("sign", sign)):
            mult /= factorial(n)
            _require(mult.denominator == 1 and mult >= 0, "character",
                     f"degree {d}: {name} multiplicity {mult}")
    if cap >= n * (n - 1) // 2 and _generic(spec["q"]):
        for key, total in totals.items():
            expected = factorial(n) if key == identity else 0
            _require(total == expected, "character", f"{key} sums to {total}, not {expected}")
        (finding,) = [f for f in report["findings"] if f["kind"] == "regular-representation"]
        _require(finding["is_regular"], "character", "regular representation not recognised")


def check_truncated(report: dict) -> None:
    spec = report["spec"]
    n, q = spec["n"], spec["q"]
    closed = harm_series(n, spec["degree"])
    known = BAD_Q_TRUNCATED.get((n, q), {})
    mismatched = []
    for row in report["tables"]:
        d = row["degree"]
        tqharm = row["dim_tqharm"]
        _require(tqharm + row["dim_tqhit"] == monomial_count(n, d), "truncated",
                 f"degree {d}: tqharm + tqhit != C(n+d-1, d)")
        _require(row["dim_classical_harm"] == closed[d], "truncated", f"degree {d}: classical dim")
        direct_sum = row["dim_classical_harm"] + row["dim_tqhit"] == monomial_count(n, d)
        _require(row["direct_sum_ok"] == direct_sum, "truncated", f"degree {d}: direct sum flag")
        if _generic(q):
            _require(tqharm == closed[d], "truncated", f"degree {d}: {tqharm} != {closed[d]}")
        else:  # specialization can only lower the rank of the truncated hits
            _require(tqharm >= closed[d], "truncated", f"degree {d}: {tqharm} < {closed[d]}")
        if d in known:
            _require(tqharm == known[d], "truncated", f"degree {d}: {tqharm} != known {known[d]}")
        if tqharm != closed[d]:
            mismatched.append(d)
    found = [f["degree"] for f in report["findings"] if f["kind"] == "truncated-hilbert-mismatch"]
    _require(found == mismatched, "truncated", f"mismatch findings {found} != {mismatched}")


def check_relations(report: dict) -> None:
    (row,) = report["tables"]
    d = report["spec"]["degree"]
    _require(row["partitions"] == partition_count(d), "relations", f"{row['partitions']} != p({d})")
    _require(row["rank"] + row["relations"] == row["partitions"], "relations", "rank + relations != partitions")
    _require(len(report["findings"]) == row["relations"], "relations", "relation count")


def check_verify(report: dict) -> None:
    spec = report["spec"]
    n = spec["n"]
    closed = harm_series(n, spec["degree"])
    for row in report["tables"]:
        d = row["degree"]
        _require(row["dim_harm"] + row["dim_hit"] == monomial_count(n, d), "verify", f"degree {d}: harm + hit")
        _require(row["dim_harm_q0"] == closed[d], "verify", f"degree {d}: q=0 dim")
        if _generic(spec["q"]):
            _require(row["dim_harm"] == closed[d], "verify", f"degree {d}: dim {row['dim_harm']}")
        _require(row["orthogonal_ok"], "verify", f"degree {d}: harm is not the complement of hit")
    for f in report["findings"]:
        if f["kind"] == "regular-representation":  # only the full family is regular
            _require(f["is_regular"] == (spec["degree"] >= n * (n - 1) // 2), "verify",
                     f"is_regular {f['is_regular']} at cap {spec['degree']}")
        elif f["kind"] == "dimension-jump":
            _require(f["generic_dim"] == closed[f["degree"]] and f["dim"] > f["generic_dim"],
                     "verify", f"dimension jump {f}")


def check_commutant(report: dict) -> None:
    (row,) = report["tables"]
    if report["spec"]["q"] == "0":
        (f,) = [f for f in report["findings"] if f["kind"] == "divided-differences-commute"]
        _require(f["all_in_solution_space"], "commutant", "divided differences outside the commutant")
        _require(row["solution_dim"] >= report["spec"]["n"] - 1, "commutant", "solution space too small")


def check_badq(report: dict, harm_dim) -> None:
    spec = report["spec"]
    n, d = spec["n"], spec["degree"]
    (row,) = report["tables"]
    generic = row["generic_harm_dim"]
    _require(generic == harm_series(n, d)[d], "badq", f"generic dim {generic}")
    _require(row["generic_rank"] + generic == monomial_count(n, d), "badq", "rank + kernel != columns")
    roots = [Fraction(r) for r in row["rational_roots"]]
    gcd = _parse_qpoly(row["minor_gcd"])
    for r in roots:
        _require(_eval_poly(gcd, r) == 0, "badq", f"{r} is not a root of the minor gcd")
    if n == 2:
        _require(roots == [Fraction(-2, d)], "badq", f"roots {roots} != [-2/{d}]")
    by_root = {Fraction(f["q0"]): f["kernel_dim_at_root"] for f in report["findings"]}
    _require(sorted(by_root) == roots, "badq", "findings do not match the roots")
    for r, kernel_dim in by_root.items():
        actual = harm_dim(n, d, str(r))
        _require(actual > generic, SPURIOUS_ROOT,
                 f"q = {r}: harmonic dim {actual} is the generic {generic}, reported {kernel_dim}")
        _require(actual == kernel_dim, "badq", f"q = {r}: harmonic dim {actual} != reported {kernel_dim}")


def _parse_qpoly(text: str) -> list[int]:
    """Ascending integer coefficients of a `qp_str` rendering like '2*q^2 - q + 1'."""
    coeffs: dict[int, int] = {}
    for token in text.replace("- ", "+ -").split("+ "):
        token = token.strip()
        sign = -1 if token.startswith("-") else 1
        token = token.lstrip("-")
        if "q" not in token:
            coeffs[0] = sign * int(token)
            continue
        c, _, power = token.partition("q")
        coeffs[int(power[1:]) if power else 1] = sign * int(c.rstrip("*") or 1)
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]


CHECKS = {
    "harm": check_harm,
    "hit": check_hit,
    "hilbert": check_hilbert,
    "character": check_character,
    "truncated": check_truncated,
    "relations": check_relations,
    "verify": check_verify,
    "commutant": check_commutant,
}


def check_report(text: str, harm_dim) -> dict:
    """Parse and check one report; returns the parsed report."""
    report = json.loads(text)
    command = report["spec"]["command"]
    if command == "badq":
        check_badq(report, harm_dim)
    else:
        CHECKS[command](report)
    return report


def check_pairs(reports: list[dict | None]) -> dict[int, CheckFailure]:
    """dim harm + dim hit = C(n+d-1, d) in every degree two reports share."""
    failures = {}
    harm = {}
    for report in reports:
        if report and report["spec"]["command"] == "harm":
            harm[(report["spec"]["n"], report["spec"]["q"])] = _dims(report, "dim")
    for i, report in enumerate(reports):
        if not report or report["spec"]["command"] != "hit":
            continue
        n = report["spec"]["n"]
        other = harm.get((n, report["spec"]["q"]), {})
        for d, dim in _dims(report, "dim").items():
            if d in other and other[d] + dim != monomial_count(n, d):
                failures[i] = CheckFailure("harm-hit", f"degree {d}: harm + hit != C(n+d-1, d)")
    return failures


def check_round(labels: list[str], texts: list[str], harm_dim) -> dict[int, CheckFailure]:
    """Check every report of one round; returns failures by operation index.

    Operations with equal labels (a warm re-run of a cold one) must give
    byte-identical reports.
    """
    failures: dict[int, CheckFailure] = {}
    reports: list[dict | None] = []
    first: dict[str, str] = {}
    for i, (label, text) in enumerate(zip(labels, texts)):
        try:
            reports.append(check_report(text, harm_dim))
        except CheckFailure as exc:
            reports.append(None)
            failures[i] = exc
            continue
        except (ValueError, KeyError, TypeError) as exc:  # malformed report
            reports.append(None)
            failures[i] = CheckFailure("malformed", repr(exc))
            continue
        if first.setdefault(label, text) != text:
            failures[i] = CheckFailure("rerun", f"{label}: report differs from the first run")
    for i, exc in check_pairs(reports).items():
        failures.setdefault(i, exc)
    return failures
