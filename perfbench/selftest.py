"""Self-test of the report checks: each must reject a corrupted report.

    python3 perfbench/selftest.py

Small reports are produced in-process by the CLI, checked as they are (they
must pass), then corrupted one way at a time (they must fail).  Exits 1 if a
pristine report is rejected or a corrupted one accepted.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import qsteenrod.cli as cli  # noqa: E402
from qsteenrod.scalars import QParam  # noqa: E402
from qsteenrod.spaces import harm_component  # noqa: E402

from checks import CheckFailure, check_round  # noqa: E402
from workloads import SPURIOUS_ROOT  # noqa: E402


def harm_dim(n: int, d: int, q: str) -> int:
    return harm_component(n, d, QParam.parse(q)).dim


def report(line: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(line.split() + ["--format", "json"])
    if code != 0:
        raise SystemExit(f"selftest: `{line}` exited {code}")
    return json.loads(out.getvalue())


def row(rep: dict, degree: int) -> dict:
    return next(r for r in rep["tables"] if r["degree"] == degree)


def bump(key: str, degree: int, by: int = 1):
    def mutate(rep):
        row(rep, degree)[key] += by
    return mutate


def set_field(key: str, value, degree: int | None = None):
    def mutate(rep):
        (row(rep, degree) if degree is not None else rep["tables"][0])[key] = value
    return mutate


def set_finding(kind: str, key: str, value):
    def mutate(rep):
        next(f for f in rep["findings"] if f["kind"] == kind)[key] = value
    return mutate


def harm_coefficient(rep):
    term = row(rep, 3)["_basis"][0]["terms"][-1]
    term[1] = [c + 1 for c in term[1]] if term[1] else [1]


def wrong_character(rep):
    row(rep, 1)["chi_2.1"] = str(int(row(rep, 1)["chi_2.1"]) + 1)


def drop_root(rep):
    rep["tables"][0]["rational_roots"] = []
    rep["findings"] = []


def move_root(rep):
    rep["tables"][0]["rational_roots"] = ["-1/2"]
    rep["findings"][0]["q0"] = "-1/2"


def truncated_shift(rep):
    r = row(rep, 4)
    r["dim_tqharm"] -= 1
    r["dim_tqhit"] += 1


# (spec lines of one round, index of the report to corrupt, what is done)
CASES = [
    (["harm -n 3 -d 4 --basis"], 0, "dim off by one", bump("dim", 2)),
    (["harm -n 3 -d 4 --basis"], 0, "basis coefficient", harm_coefficient),
    (["harm -n 3 -d 4 --basis"], 0, "q=0 dim off by one", bump("dim_q0", 1)),
    (["hit -n 3 -d 4"], 0, "dim off by one", bump("dim", 3, -1)),
    (["harm -n 2 -d 4 -q -1/2", "hit -n 2 -d 4 -q -1/2"], 1, "harm + hit at bad q", bump("dim", 4)),
    (["hilbert --kind harm -n 3 -d 4"], 0, "dim off by one", bump("dim", 1)),
    (["character -n 3 -d 3"], 0, "wrong character value", wrong_character),
    (["character -n 3 -d 3"], 0, "dim off by one", bump("dim", 2)),
    (["character -n 3 -d 3"], 0, "regular flag", set_finding("regular-representation", "is_regular", False)),
    (["truncated -n 4 -d 4 -q -1/2"], 0, "known bad-q dimension", truncated_shift),
    (["truncated -n 3 -d 4"], 0, "tqharm off by one", bump("dim_tqharm", 2)),
    (["relations -n 2 -d 4 -q 1"], 0, "rank off by one", set_field("rank", 6)),
    (["verify -n 3 -d 3"], 0, "orthogonality flag", set_field("orthogonal_ok", False, 2)),
    (["verify -n 3 -d 3"], 0, "hit dim off by one", bump("dim_hit", 2)),
    (["commutant -n 2 -d 3 -q 0"], 0, "divided differences",
     set_finding("divided-differences-commute", "all_in_solution_space", False)),
    (["badq -n 2 -d 6"], 0, "dropped root", drop_root),
    (["badq -n 2 -d 6"], 0, "wrong root", move_root),
    (["badq -n 2 -d 6"], 0, "kernel dim at root", set_finding("bad-q-candidate", "kernel_dim_at_root", 2)),
    (["badq -n 2 -d 6"], 0, "generic dim", set_field("generic_harm_dim", 1)),
    (["harm -n 3 -d 4 --cache-dir X", "harm -n 3 -d 4 --cache-dir X"], 1, "warm re-run differs",
     lambda rep: rep.update(version="0.1.0+")),
]


def main() -> int:
    bad = 0
    for lines, index, what, mutate in CASES:
        # "--cache-dir X" only marks the warm re-run case; reports are made without a cache
        reports = [report(line.replace("--cache-dir X", "")) for line in lines]
        pristine = [json.dumps(r, sort_keys=True, indent=2) for r in reports]
        if check_round(lines, pristine, harm_dim):
            print(f"FAIL  pristine `{lines[index]}` was rejected")
            bad += 1
            continue
        corrupted = copy.deepcopy(reports)
        mutate(corrupted[index])
        texts = pristine[:index] + [json.dumps(corrupted[index], sort_keys=True, indent=2)] + pristine[index + 1:]
        failure = check_round(lines, texts, harm_dim).get(index)
        print(f"{'ok  ' if failure else 'FAIL'}  {lines[index]}: {what}: "
              f"{failure if failure else 'accepted'}")
        bad += failure is None
    # The known fault: with D_1 and D_2 only, badq -n 3 -d 6 reports q = 0.
    text = json.dumps(report("badq -n 3 -d 6"), sort_keys=True, indent=2)
    failure = check_round(["badq -n 3 -d 6"], [text], harm_dim).get(0)
    kind = failure.kind if isinstance(failure, CheckFailure) else None
    print(f"{'ok  ' if kind == SPURIOUS_ROOT else 'note'}  badq -n 3 -d 6: known fault: {failure}")
    print(f"{len(CASES) - bad}/{len(CASES)} corruptions rejected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
