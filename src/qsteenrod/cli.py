"""Command-line exploration: dimension tables, bad-q scans, conjecture checks.

Reports are deterministic for a fixed command and seed; every report embeds
the library version and the full command so the tables can be reproduced.
Scalars serialize as pairs of integer coefficient lists (numerator and
denominator, ascending powers of q), which is exact and human-auditable.
Expensive graded bases can be cached on disk; cache files carry a checksum
and corrupt files fall back to recomputation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import random
import re
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import __version__
from .errors import PoleError, QSteenrodError
from .polynomials import Polynomial, monomials_of_degree
from .scalars import QParam, RationalFunction
from .spaces import (
    COMPONENTS,
    GradedSubspace,
    HILBERT_KINDS,
    RANKED_KINDS,
    StaircaseSet,
    block_dimension,
    block_multiplicities,
    hilbert_of,
    staircase_degree,
    weighted_complement,
)
from .representations import (
    GradedCharacter,
    graded_character,
    is_regular_representation,
    multiplicity_character,
)
from .specialize import bad_q_candidates, conjectured_root_form, specialized_dimension
from .steenrod import operator_span_rank, partitions_of
from .strings import (
    build_string,
    divided_power,
    is_harmonic_string,
    string_length_survey,
)
from .schubert import (
    all_perms,
    commutant_search,
    d_sigma,
    operator_in_span,
    schubert_polynomial,
)
from .linalg import echelonize, rf_rows_to_int, slice_rows, sparse_rank

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_POLE = 3


@dataclass(frozen=True)
class CommandSpec:
    """Echoable description of one CLI invocation."""

    command: str
    n: int = 2
    degree: int = 4
    q: QParam = QParam.formal()
    output_format: str = "pretty"
    cache_dir: str | None = None
    seed: int = 0
    include_basis: bool = False
    kind: str = "classical-harm"
    extended_generators: bool = False

    def echo(self) -> dict:
        return {**asdict(self), "q": str(self.q)}


@dataclass
class Report:
    spec: dict
    tables: list[dict]
    findings: list[dict]
    version: str = __version__
    exact_arithmetic: bool = True

    def to_json(self) -> str:
        payload = {
            "spec": self.spec,
            "tables": self.tables,
            "findings": self.findings,
            "version": self.version,
            "exact_arithmetic": self.exact_arithmetic,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def columns(self) -> list[str]:
        """Table columns in first-seen order; keys starting with _ are listings."""
        columns: list[str] = []
        for row in self.tables:
            for key in row:
                if key not in columns and not key.startswith("_"):
                    columns.append(key)
        return columns

    def to_csv(self) -> str:
        columns = self.columns()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in self.tables:
            writer.writerow([_csv_cell(row.get(c, "")) for c in columns])
        return buf.getvalue()

    def to_pretty(self) -> str:
        lines = [f"# {self.spec['command']} (qsteenrod {self.version})"]
        lines.append("spec: " + json.dumps(self.spec, sort_keys=True))
        if self.tables:
            columns = self.columns()
            widths = {
                c: max(len(c), *(len(_csv_cell(r.get(c, ""))) for r in self.tables))
                for c in columns
            }
            lines.append("  ".join(c.ljust(widths[c]) for c in columns))
            for row in self.tables:
                lines.append(
                    "  ".join(
                        _csv_cell(row.get(c, "")).ljust(widths[c]) for c in columns
                    )
                )
        for row in self.tables:
            for key in row:
                if key.startswith("_"):
                    lines.append(f"{key[1:]} (degree {row.get('degree')}):")
                    for item in row[key]:
                        lines.append(f"  {item.get('pretty', item)}")
        if self.findings:
            lines.append("findings:")
            for f in self.findings:
                lines.append("  " + json.dumps(f, sort_keys=True))
        return "\n".join(lines) + "\n"

    def rendered(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json() + "\n"
        if fmt == "csv":
            return self.to_csv()
        return self.to_pretty()


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True)
    return str(value)


# ---------------------------------------------------------------------------
# Serialization and the basis cache


def serialize_polynomial(p: Polynomial) -> list:
    return [
        [list(mono), list(coeff.num), list(coeff.den)]
        for mono, coeff in p.sorted_terms()
    ]


def _stored_int_poly(data) -> tuple[int, ...]:
    """An integer polynomial as `serialize_polynomial` writes it: a nonempty
    list of ints whose last entry is nonzero; anything else is corrupt."""
    if type(data) is not list or not data or not data[-1] or any(
        type(c) is not int for c in data
    ):
        raise ValueError(f"stored coefficient {data!r} is not a trimmed int list")
    return tuple(data)


def deserialize_polynomial(n: int, degree: int, data: list) -> Polynomial:
    """A polynomial of the degree-d slice on n variables; ValueError unless
    every term is a monomial of that degree with a stored Q(q) coefficient."""
    terms = {}
    for mono, num, den in data:
        mono = tuple(mono)
        if sum(mono) != degree:
            raise ValueError(f"stored monomial {mono!r} is not of degree {degree}")
        terms[mono] = RationalFunction.make(_stored_int_poly(num), _stored_int_poly(den))
    return Polynomial(n, terms)


def serialize_subspace(v: GradedSubspace) -> dict:
    return {
        "n": v.n,
        "degree": v.degree,
        "basis": [serialize_polynomial(p) for p in v.basis],
    }


def deserialize_subspace(data: dict) -> GradedSubspace:
    n, degree = data["n"], data["degree"]
    basis = tuple(deserialize_polynomial(n, degree, entry) for entry in data["basis"])
    return GradedSubspace(n, degree, basis)


def _sha256_hex(text: str) -> str:
    """The SHA-256 digest of text, in hex.

    Imported here, by the disk cache alone, and from the builtin module
    first, as `random` does for sha512: hashlib loads OpenSSL, about 3.6 MB
    of RSS, for the same digest.
    """
    try:
        from _sha256 import sha256  # the builtin module up to Python 3.11
    except ImportError:
        from hashlib import sha256
    return sha256(text.encode()).hexdigest()


def _payload_checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return _sha256_hex(canonical)


class SubspaceCache:
    """One file per key; writes go through a temp file and an atomic rename."""

    def __init__(self, directory: str):
        self.directory = directory
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise QSteenrodError(f"cache directory {directory!r}: {exc.strerror}")

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{_sha256_hex(key)[:32]}.json")

    def load(self, key: str) -> GradedSubspace | None:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                wrapper = json.load(handle)
            if not isinstance(wrapper, dict) or wrapper.get("key") != key:
                return None
            if wrapper.get("checksum") != _payload_checksum(wrapper["payload"]):
                return None
            return deserialize_subspace(wrapper["payload"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store(self, key: str, v: GradedSubspace) -> None:
        payload = serialize_subspace(v)
        wrapper = {
            "key": key,
            "payload": payload,
            "checksum": _payload_checksum(payload),
        }
        # one json.dumps runs the C encoder; json.dump to a file would stream
        # the same text through the pure-Python one
        text = json.dumps(wrapper, sort_keys=True)
        path = self._path(key)
        tmp = path + f".tmp{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise QSteenrodError(f"cache file {path!r}: {exc.strerror}")


def cache_key(kind: str, n: int, d: int, q: QParam) -> str:
    # the empty field between q and v keeps the keys of existing cache files
    return f"{kind}|n={n}|d={d}|q={q}||v={__version__}"


def cache_roundtrip(
    v: GradedSubspace, cache_dir: str | None = None
) -> GradedSubspace:
    """Store then reload a subspace; the result equals the input exactly."""
    import tempfile

    directory = cache_dir or tempfile.mkdtemp(prefix="qsteenrod-cache-")
    cache = SubspaceCache(directory)
    key = cache_key("roundtrip", v.n, v.degree, QParam.formal())
    cache.store(key, v)
    loaded = cache.load(key)
    if loaded is None:
        raise QSteenrodError("cache round trip failed to reload")
    return loaded


def _cached_component(
    spec: CommandSpec, kind: str, n: int, d: int, q: QParam
) -> GradedSubspace:
    """The degree-d slice of a family in spaces.COMPONENTS at q; with a cache
    directory it is read from disk when stored there, else built and stored
    over a file that fails to load or holds another slice."""
    build = COMPONENTS[kind]
    if not spec.cache_dir:
        return build(n, d, q)
    cache = SubspaceCache(spec.cache_dir)
    key = cache_key(kind, n, d, q)
    hit = cache.load(key)
    if hit is not None and (hit.n, hit.degree) == (n, d):
        return hit
    value = build(n, d, q)
    cache.store(key, value)
    return value


def _dimension(spec: CommandSpec, kind: str, n: int, d: int, q: QParam) -> int:
    """The dimension of the degree-d slice of a family in spaces.COMPONENTS at q.

    Harm and hit dimensions come from the certified S_n-block ranks
    (`spaces.block_dimension`), with no basis built or cached; the truncated
    families have no block ranks and take that of their slice.
    """
    if kind in RANKED_KINDS:
        return block_dimension(kind, n, d, q)
    return _cached_component(spec, kind, n, d, q).dim


# ---------------------------------------------------------------------------
# Command implementations


def _basis_entry(p: Polynomial) -> dict:
    return {"terms": serialize_polynomial(p), "pretty": str(p)}


def _reaches_top(spec: CommandSpec) -> bool:
    """Whether the cap reaches n(n-1)/2; a family cut off below it sums short of n!."""
    return spec.degree >= spec.n * (spec.n - 1) // 2


def _regular_finding(chi: GradedCharacter, n: int) -> dict:
    """Whether a graded character of harmonic slices is the regular one."""
    cert = is_regular_representation(chi, n)
    return {
        "kind": "regular-representation",
        "is_regular": cert.is_regular,
        "totals": {".".join(map(str, ct)): str(v) for ct, v in cert.totals},
    }


def run_hilbert(spec: CommandSpec) -> Report:
    tables = []
    if spec.kind in COMPONENTS:
        for d in range(spec.degree + 1):
            dim = _dimension(spec, spec.kind, spec.n, d, spec.q)
            classical = _dimension(spec, spec.kind, spec.n, d, QParam.rational(0))
            tables.append({"degree": d, "dim": dim, "dim_q0": classical})
    else:
        series = hilbert_of(spec.kind, spec.n, spec.degree)
        for d in range(spec.degree + 1):
            tables.append({"degree": d, "dim": series[d]})
    return Report(spec.echo(), tables, [])


def run_component(spec: CommandSpec) -> Report:
    kind = spec.command  # harm or hit
    tables = []
    findings = []
    for d in range(spec.degree + 1):
        listed = spec.include_basis or d == spec.degree
        if listed:
            space = _cached_component(spec, kind, spec.n, d, spec.q)
            dim = space.dim
        else:
            dim = _dimension(spec, kind, spec.n, d, spec.q)
        classical = _dimension(spec, kind, spec.n, d, QParam.rational(0))
        row = {"degree": d, "dim": dim, "dim_q0": classical}
        if listed:
            row["_basis"] = [_basis_entry(p) for p in space.basis]
        tables.append(row)
        if kind == "harm" and not spec.q.is_formal:
            generic = _dimension(spec, "harm", spec.n, d, QParam.formal())
            if dim > generic:
                findings.append(
                    {
                        "kind": "dimension-jump",
                        "degree": d,
                        "dim": dim,
                        "generic_dim": generic,
                        "q": str(spec.q),
                    }
                )
    return Report(spec.echo(), tables, findings)


def run_truncated(spec: CommandSpec) -> Report:
    tables = []
    findings = []
    for d in range(spec.degree + 1):
        tqhit = _cached_component(spec, "tqhit", spec.n, d, spec.q)
        tqharm = _cached_component(spec, "tqharm", spec.n, d, spec.q)
        classical = _cached_component(spec, "harm", spec.n, d, QParam.rational(0))
        full_dim = len(monomials_of_degree(spec.n, d))
        # the rank of both bases together, certified (mod-P full rank, or exact)
        combined = rf_rows_to_int(
            slice_rows([*classical.basis, *tqhit.basis], spec.n, d)
        )
        direct_sum = (
            classical.dim + tqhit.dim == full_dim == sparse_rank(combined, full_dim)
        )
        row = {
            "degree": d,
            "dim_tqhit": tqhit.dim,
            "dim_tqharm": tqharm.dim,
            "dim_classical_harm": classical.dim,
            "direct_sum_ok": direct_sum,
        }
        if spec.include_basis:
            row["_basis"] = [_basis_entry(p) for p in tqharm.basis]
        tables.append(row)
        if tqharm.dim != classical.dim:
            findings.append(
                {
                    "kind": "truncated-hilbert-mismatch",
                    "degree": d,
                    "dim_tqharm": tqharm.dim,
                    "dim_classical": classical.dim,
                }
            )
    return Report(spec.echo(), tables, findings)


def run_badq(spec: CommandSpec) -> Report:
    report = bad_q_candidates(spec.n, spec.degree, spec.extended_generators)
    tables = [
        {
            "degree": spec.degree,
            "generic_rank": report.generic_rank,
            "generic_harm_dim": report.generic_harm_dim,
            "minor_gcd": report.pretty_gcd(),
            "rational_roots": [str(r) for r in report.rational_roots],
            "nonrational_factors": [list(f) for f in report.nonrational_factors],
        }
    ]
    findings = []
    for root, dim in report.jumps:
        forms = conjectured_root_form(root, spec.n)
        finding = {
            "kind": "bad-q-candidate",
            "degree": spec.degree,
            "q0": str(root),
            "kernel_dim_at_root": dim,
            "generic_dim": report.generic_harm_dim,
            **forms,
        }
        if not forms["a_in_1_to_n"]:
            finding["kind"] = "bad-q-form-deviation"
        findings.append(finding)
    return Report(spec.echo(), tables, findings)


def run_strings(spec: CommandSpec) -> Report:
    tables = []
    findings = []
    for degree, seeds, harmonic, max_len in string_length_survey(
        spec.n, spec.q, spec.degree
    ):
        tables.append(
            {
                "degree": degree,
                "seeds": seeds,
                "harmonic_strings": harmonic,
                "max_length": max_len,
            }
        )
        if max_len > spec.n:
            findings.append(
                {
                    "kind": "long-harmonic-string",
                    "degree": degree,
                    "length": max_len,
                    "n": spec.n,
                }
            )
    if spec.n == 1:
        for d in range(2, spec.degree + 1):
            F = build_string(divided_power(1, 1, d), spec.q)
            if is_harmonic_string(F):
                findings.append(
                    {
                        "kind": "divided-power-string-harmonic",
                        "degree": d,
                        "q": str(spec.q),
                    }
                )
    return Report(spec.echo(), tables, findings)


def run_character(spec: CommandSpec) -> Report:
    degrees = range(spec.degree + 1)
    chi = multiplicity_character(
        spec.n, [(d, block_multiplicities("harm", spec.n, d, spec.q)) for d in degrees]
    )
    classes = list(partitions_of(spec.n))
    identity = (1,) * spec.n
    tables = []
    for d in chi.degrees():
        values = chi.degree(d)
        row = {"degree": d, "dim": int(values[identity])}
        for ct in classes:
            row["chi_" + ".".join(map(str, ct))] = str(values[ct])
        tables.append(row)
    findings = [_regular_finding(chi, spec.n)] if _reaches_top(spec) else []
    return Report(spec.echo(), tables, findings)


def run_schubert(spec: CommandSpec) -> Report:
    by_degree: dict[int, list] = {}
    listings: dict[int, list] = {}
    for sigma in all_perms(spec.n):
        p = schubert_polynomial(sigma)
        d = p.homogeneous_degree()
        by_degree.setdefault(d, []).append(p)
        listings.setdefault(d, []).append(
            {"sigma": list(sigma), "pretty": str(p), "terms": serialize_polynomial(p)}
        )
    staircase = StaircaseSet(spec.n)
    tables = []
    for d in sorted(by_degree):
        ech = echelonize(by_degree[d])
        expected = echelonize(
            [Polynomial.monomial(spec.n, m) for m in staircase.of_degree(d)]
        )
        row = {
            "degree": d,
            "count": len(by_degree[d]),
            "independent": len(ech) == len(by_degree[d]),
            "staircase_span_ok": ech == expected,
            "_schubert": listings[d],
        }
        tables.append(row)
    return Report(spec.echo(), tables, [])


def run_commutant(spec: CommandSpec) -> Report:
    solutions = commutant_search(spec.n, spec.degree, spec.q)
    tables = [
        {
            "degree": spec.degree,
            "solution_dim": len(solutions),
            "q": str(spec.q),
        }
    ]
    findings = []
    if spec.q.is_zero and spec.n >= 2:
        inside = all(
            operator_in_span(d_sigma((i,), spec.n, spec.degree), solutions)
            for i in range(1, spec.n)
        )
        findings.append(
            {"kind": "divided-differences-commute", "all_in_solution_space": inside}
        )
    if not spec.q.is_zero:
        findings.append(
            {
                "kind": "commutant-trivial" if not solutions else "commutant-found",
                "solution_dim": len(solutions),
            }
        )
    return Report(spec.echo(), tables, findings)


def run_relations(spec: CommandSpec) -> Report:
    result = operator_span_rank(
        spec.n, spec.degree, spec.q, probe_cap=max(spec.degree, spec.n + 2)
    )
    tables = [
        {
            "degree": spec.degree,
            "partitions": len(result.partitions),
            "rank": result.rank,
            "relations": len(result.relations),
        }
    ]
    findings = [
        {
            "kind": "operator-relation",
            "coefficients": {
                ".".join(map(str, lam)): str(c) for lam, c in rel.items()
            },
        }
        for rel in result.relations
    ]
    return Report(spec.echo(), tables, findings)


def run_verify(spec: CommandSpec) -> Report:
    tables = []
    findings = []
    rng = random.Random(spec.seed)
    harms = []
    for d in range(spec.degree + 1):
        harm = _cached_component(spec, "harm", spec.n, d, spec.q)
        hit = _cached_component(spec, "hit", spec.n, d, spec.q)
        classical = _dimension(spec, "harm", spec.n, d, QParam.rational(0))
        harms.append(harm)
        complement = weighted_complement(hit)
        row = {
            "degree": d,
            "dim_harm": harm.dim,
            "dim_hit": hit.dim,
            "dim_harm_q0": classical,
            "orthogonal_ok": complement.basis == harm.basis,
            "staircase_union_exact": staircase_degree(harm, hit).union_exact,
        }
        tables.append(row)
        if not row["orthogonal_ok"]:
            findings.append({"kind": "orthogonality-failure", "degree": d})
    if spec.q.is_formal and _reaches_top(spec):
        findings.append(_regular_finding(graded_character(harms), spec.n))
    for _ in range(3):
        q0 = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
        d = rng.randint(0, spec.degree)
        generic_dim, direct_dim = specialized_dimension(spec.n, d, q0)
        if direct_dim > generic_dim:
            findings.append(
                {
                    "kind": "dimension-jump",
                    "degree": d,
                    "q0": str(q0),
                    "dim": direct_dim,
                    "generic_dim": generic_dim,
                }
            )
    return Report(spec.echo(), tables, findings)


RUNNERS = {
    "hilbert": run_hilbert,
    "harm": run_component,
    "hit": run_component,
    "truncated": run_truncated,
    "badq": run_badq,
    "strings": run_strings,
    "character": run_character,
    "schubert": run_schubert,
    "commutant": run_commutant,
    "relations": run_relations,
    "verify": run_verify,
}


def execute(spec: CommandSpec) -> Report:
    """Run one command spec and return its report."""
    if spec.command not in RUNNERS:
        raise ValueError(f"unknown command {spec.command!r}")
    if spec.degree < 0:
        raise ValueError("degree cap must be nonnegative")
    if spec.n < 1:
        raise ValueError("need at least one variable")
    if spec.cache_dir:
        SubspaceCache(spec.cache_dir)  # every command rejects an unusable one
    return RUNNERS[spec.command](spec)


# ---------------------------------------------------------------------------
# Argument handling

_Q_VALUE = re.compile(r"^-\d+(/\d+)?$")


def _merge_q_flags(argv: list[str]) -> list[str]:
    """Rewrite '-q -2/3' into '--q=-2/3' so argparse accepts negative rationals."""
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in ("-q", "--q") and i + 1 < len(argv) and _Q_VALUE.match(argv[i + 1]):
            out.append(f"--q={argv[i + 1]}")
            i += 2
            continue
        out.append(token)
        i += 1
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsteenrod",
        description="exact tables for deformed Steenrod operators on polynomials",
    )
    # the options every command shares, declared once and inherited
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-n", "--vars", dest="n", type=int, default=2)
    common.add_argument("-d", "--degree", dest="degree", type=int, default=None)
    common.add_argument("-q", "--q", dest="q", default="formal")
    common.add_argument(
        "--format",
        dest="output_format",
        choices=("json", "csv", "pretty"),
        default="pretty",
    )
    common.add_argument("--cache-dir", dest="cache_dir", default=None)
    common.add_argument("--seed", dest="seed", type=int, default=0)
    common.add_argument("--basis", dest="include_basis", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, parents=[common])
        if name == "hilbert":
            p.add_argument("--kind", dest="kind", choices=HILBERT_KINDS,
                           default="classical-harm")
        if name == "badq":
            p.add_argument(
                "--all-generators",
                dest="extended_generators",
                action="store_true",
                help="stack every down operator up to the degree",
            )
    return parser


def _default_degree(args: argparse.Namespace) -> int:
    """Natural cap when -d is omitted: the series' top degree if finite."""
    if args.command == "hilbert" and getattr(args, "kind", "") == "classical-harm":
        return args.n * (args.n - 1) // 2
    return 4


def spec_from_args(args: argparse.Namespace) -> CommandSpec:
    return CommandSpec(
        command=args.command,
        n=args.n,
        degree=args.degree if args.degree is not None else _default_degree(args),
        q=QParam.parse(args.q),
        output_format=args.output_format,
        cache_dir=args.cache_dir,
        seed=args.seed,
        include_basis=args.include_basis,
        kind=getattr(args, "kind", "classical-harm"),
        extended_generators=getattr(args, "extended_generators", False),
    )


def _error_object(kind: str, message: str) -> str:
    return json.dumps({"error": {"type": kind, "message": message}}, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_q_flags(argv))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        spec = spec_from_args(args)
    except ValueError as exc:
        print(_error_object("input", str(exc)), file=sys.stderr)
        return EXIT_INPUT
    try:
        report = execute(spec)
    except PoleError as exc:
        print(_error_object("pole", str(exc)), file=sys.stderr)
        return EXIT_POLE
    except (ValueError, QSteenrodError) as exc:
        print(_error_object("input", str(exc)), file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(report.rendered(spec.output_format))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
