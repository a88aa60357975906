"""CLI reports: bit-exact payloads, formats, cache behavior, exit codes."""

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qsteenrod.cli import (
    RUNNERS,
    CommandSpec,
    SubspaceCache,
    build_parser,
    cache_key,
    cache_roundtrip,
    deserialize_subspace,
    execute,
    main,
    serialize_polynomial,
    serialize_subspace,
    spec_from_args,
    _merge_q_flags,
    _payload_checksum,
)
from qsteenrod.polynomials import Polynomial
from qsteenrod.scalars import QParam, RF_Q, qp_mul
from qsteenrod.spaces import harm_component, hit_component
from qsteenrod.specialize import bad_q_candidates

FORMAL = QParam.formal()


def test_merge_q_flags():
    assert _merge_q_flags(["harm", "-n", "2", "-q", "-2/3"]) == [
        "harm",
        "-n",
        "2",
        "--q=-2/3",
    ]
    assert _merge_q_flags(["harm", "-q", "formal"]) == ["harm", "-q", "formal"]


def test_harm_example_invocation(capsys):
    code = main(["harm", "-n", "2", "-d", "3", "-q", "-2/3", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    degree3 = [row for row in report["tables"] if row["degree"] == 3][0]
    space = harm_component(2, 3, QParam.rational(-2, 3))
    assert degree3["dim"] == space.dim == 1
    assert degree3["_basis"] == [
        {"terms": serialize_polynomial(p), "pretty": str(p)} for p in space.basis
    ]
    x1 = Polynomial.variable(2, 1)
    x2 = Polynomial.variable(2, 2)
    assert space.basis[0] == (x1 - x2) * (x1 + x2) ** 2


def test_hilbert_example_invocation(capsys):
    code = main(["hilbert", "--kind", "classical-harm", "-n", "3", "-d", "3",
                 "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [row["dim"] for row in report["tables"]] == [1, 2, 2, 1]


def test_badq_example_invocation(capsys):
    code = main(["badq", "-n", "2", "-d", "4", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    row = report["tables"][0]
    lib = bad_q_candidates(2, 4)
    assert row["rational_roots"] == [str(r) for r in lib.rational_roots]
    assert "-1/2" in row["rational_roots"]
    assert row["generic_rank"] == lib.generic_rank
    assert row["minor_gcd"] == lib.pretty_gcd()


@pytest.mark.parametrize(
    "line, verdicts",
    [
        ("verify -n 4 -d 5", []),
        ("character -n 4 -d 5", []),
        ("verify -n 4 -d 6", [True]),
        ("character -n 4 -d 6", [True]),
    ],
)
def test_regular_verdict_only_for_complete_families(line, verdicts, capsys):
    # below the top degree n(n-1)/2 the capped family cannot sum to n!
    assert main(line.split() + ["--format", "json"]) == 0
    findings = json.loads(capsys.readouterr().out)["findings"]
    got = [f["is_regular"] for f in findings if f["kind"] == "regular-representation"]
    assert got == verdicts


def test_json_and_csv_agree(tmp_path):
    spec = CommandSpec(command="verify", n=2, degree=3, q=FORMAL)
    report = execute(spec)
    parsed = json.loads(report.to_json())
    csv_lines = report.to_csv().strip().splitlines()
    header = csv_lines[0].split(",")
    for line, row in zip(csv_lines[1:], parsed["tables"]):
        cells = line.split(",")
        for key, cell in zip(header, cells):
            value = row[key]
            if isinstance(value, bool):
                assert cell == ("true" if value else "false")
            else:
                assert cell == str(value)


def test_report_is_deterministic():
    spec = CommandSpec(command="character", n=3, degree=3, q=FORMAL,
                       output_format="json")
    first = execute(spec).to_json()
    second = execute(spec).to_json()
    assert first == second


def test_cache_roundtrip_exact(tmp_path):
    for n, d, q in [(2, 1, FORMAL), (2, 3, QParam.rational(-2, 3)), (1, 2, FORMAL)]:
        space = harm_component(n, d, q)
        again = cache_roundtrip(space, str(tmp_path / "cache"))
        assert again == space
    empty = harm_component(2, 2, FORMAL)
    assert empty.dim == 0
    assert cache_roundtrip(empty, str(tmp_path / "cache")) == empty


def test_cache_free_command_loads_no_hashlib():
    """Only the disk cache hashes, so a command without --cache-dir never
    imports hashlib (and with it OpenSSL, about 3.6 MB of RSS)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    code = (
        "import sys\n"
        "from qsteenrod.cli import main\n"
        "assert main(['hit', '-n', '3', '-d', '4', '-q', '1', '--format', 'json']) == 0\n"
        "print('hashlib' in sys.modules, '_hashlib' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"


def test_cached_command_loads_no_openssl(tmp_path):
    """The cache hashes with the builtin sha256 where the interpreter has it,
    so even a command with --cache-dir leaves OpenSSL unloaded."""
    pytest.importorskip("_sha256")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    code = (
        "import sys\n"
        "from qsteenrod.cli import main\n"
        f"argv = ['hit', '-n', '3', '-d', '4', '--cache-dir', {str(tmp_path)!r}]\n"
        "assert main(argv + ['--format', 'json']) == 0\n"
        "assert main(argv + ['--format', 'json']) == 0\n"
        "print('hashlib' in sys.modules, '_hashlib' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"
    assert len(os.listdir(tmp_path)) == 1  # the listed top degree of formal hit


def test_badq_loads_no_sympy():
    """The rational roots of the minor gcd are found in house, so a badq
    whose gcd has no rootless factor never imports sympy (about 33 MB of RSS)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    code = (
        "import sys\n"
        "from qsteenrod.cli import main\n"
        "argv = ['badq', '-n', '4', '-d', '5', '--all-generators', '--format', 'json']\n"
        "assert main(argv) == 0\n"
        "print('sympy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_badq_lists_a_rootless_factor_of_the_gcd(monkeypatch, capsys):
    """A rootless quadratic factor of the minor gcd reaches factor_over_z and
    is reported; q^2 + 1 is multiplied into the first diagonal entry of every
    block, which changes no rank at a rational q."""
    from qsteenrod import specialize

    roots = [str(r) for r in bad_q_candidates(2, 4).rational_roots]
    original = specialize.minor_gcd

    def with_rootless(rows, ncols):
        diagonal = list(original(rows, ncols).diagonal)
        if diagonal:
            diagonal[0] = qp_mul(diagonal[0], (1, 0, 1))
        return specialize.MinorGcd(diagonal)

    monkeypatch.setattr(specialize, "minor_gcd", with_rootless)
    assert main(["badq", "-n", "2", "-d", "4", "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)["tables"][0]
    assert row["nonrational_factors"]
    assert {tuple(f) for f in row["nonrational_factors"]} == {(1, 0, 1)}
    assert row["rational_roots"] == roots


def test_cache_roundtrip_preserves_denominators(tmp_path):
    from qsteenrod.spaces import GradedSubspace

    p = Polynomial(1, {(1,): (RF_Q + 1) / (RF_Q * 2 + 4)})
    space = GradedSubspace.from_spanning(1, 1, [p])
    again = cache_roundtrip(space, str(tmp_path / "cache"))
    assert again == space


def test_cache_hit_and_corruption(tmp_path):
    cache = SubspaceCache(str(tmp_path))
    space = harm_component(2, 1, FORMAL)
    key = cache_key("harm", 2, 1, FORMAL)
    cache.store(key, space)
    assert cache.load(key) == space
    # corrupt the payload; checksum must reject it
    path = cache._path(key)
    with open(path, "r", encoding="utf-8") as fh:
        wrapper = json.load(fh)
    wrapper["payload"]["degree"] = 7
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(wrapper, fh)
    assert cache.load(key) is None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("not json at all")
    assert cache.load(key) is None


def test_cache_store_writes_no_order_field(tmp_path):
    cache = SubspaceCache(str(tmp_path))
    key = cache_key("harm", 2, 1, FORMAL)
    cache.store(key, harm_component(2, 1, FORMAL))
    with open(cache._path(key), "r", encoding="utf-8") as fh:
        payload = json.load(fh)["payload"]
    assert sorted(payload) == ["basis", "degree", "n"]


def test_cache_store_writes_one_sorted_json_text(tmp_path):
    # the file holds json.dumps of the wrapper with sorted keys, the same
    # text that json.dump streams to a file
    cache = SubspaceCache(str(tmp_path))
    space = hit_component(4, 6, FORMAL)
    key = cache_key("hit", 4, 6, FORMAL)
    cache.store(key, space)
    payload = serialize_subspace(space)
    wrapper = {"key": key, "payload": payload, "checksum": _payload_checksum(payload)}
    text = Path(cache._path(key)).read_text(encoding="utf-8")
    assert text == json.dumps(wrapper, sort_keys=True)
    # file name and checksum are the SHA-256 digests hashlib gives
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert wrapper["checksum"] == hashlib.sha256(canonical.encode()).hexdigest()
    name = hashlib.sha256(key.encode()).hexdigest()[:32] + ".json"
    assert cache._path(key) == str(tmp_path / name)
    streamed = io.StringIO()
    json.dump(wrapper, streamed, sort_keys=True)
    assert text == streamed.getvalue()


def test_cache_file_with_order_field_still_hits(tmp_path):
    # files stored before the field was dropped carry "order": "lex" in
    # the payload their checksum covers
    cache = SubspaceCache(str(tmp_path))
    space = harm_component(2, 3, QParam.rational(-2, 3))
    key = cache_key("harm", 2, 3, QParam.rational(-2, 3))
    payload = dict(serialize_subspace(space), order="lex")
    wrapper = {"key": key, "payload": payload, "checksum": _payload_checksum(payload)}
    with open(cache._path(key), "w", encoding="utf-8") as fh:
        json.dump(wrapper, fh, sort_keys=True)
    assert cache.load(key) == space


@pytest.mark.parametrize("content", ["[]", "null", "{key}", "{checksummed}"])
def test_cache_file_of_wrong_shape_is_a_miss(content, tmp_path):
    cache = SubspaceCache(str(tmp_path))
    key = cache_key("harm", 2, 1, FORMAL)
    # valid JSON, but not a wrapper object, or a checksummed payload whose
    # basis entries do not unpack
    payload = {"n": 2, "degree": 1, "order": "lex", "basis": [[7]]}
    text = {
        "{key}": json.dumps({"key": key}),
        "{checksummed}": json.dumps({"key": key, "payload": payload,
                                     "checksum": _payload_checksum(payload)}),
    }.get(content, content)
    with open(cache._path(key), "w", encoding="utf-8") as fh:
        fh.write(text)
    assert cache.load(key) is None


@pytest.mark.parametrize("content", ["[]", "null"])
def test_cli_recomputes_over_wrong_shape_cache_files(content, tmp_path, capsys):
    argv = ["harm", "-n", "2", "-d", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    for name in os.listdir(tmp_path):
        with open(tmp_path / name, "w", encoding="utf-8") as fh:
            fh.write(content)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == cold and captured.err == ""


# Payloads with a valid checksum under the key of the degree-2 harm slice on
# two variables (dimension 0 at formal q) that still do not hold that slice.
CORRUPT_SLICES = {
    "degree-5 slice": {"n": 2, "degree": 5, "basis": [[[[3, 2], [1], [1]]]]},
    "degree-5 term": {"n": 2, "degree": 2, "basis": [[[[3, 2], [1], [1]]]]},
    "three variables": {"n": 3, "degree": 2, "basis": [[[[1, 1, 0], [1], [1]]]]},
    "float coefficient": {"n": 2, "degree": 2, "basis": [[[[1, 1], [1.5], [1]]]]},
    "empty denominator": {"n": 2, "degree": 2, "basis": [[[[1, 1], [1], []]]]},
    "zero denominator": {"n": 2, "degree": 2, "basis": [[[[1, 1], [1], [0]]]]},
}


@pytest.mark.parametrize("case", list(CORRUPT_SLICES))
def test_cli_recomputes_over_corrupt_slices(case, tmp_path, capsys):
    argv = ["harm", "-n", "2", "-d", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    cache = SubspaceCache(str(tmp_path))
    key = cache_key("harm", 2, 2, FORMAL)
    payload = CORRUPT_SLICES[case]
    wrapper = {"key": key, "payload": payload, "checksum": _payload_checksum(payload)}
    Path(cache._path(key)).write_text(json.dumps(wrapper), encoding="utf-8")
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == cold and captured.err == ""
    assert cache.load(key) == harm_component(2, 2, FORMAL)  # overwritten


CACHED_LINES = [
    "harm -n 3 -d 4",
    "hit -n 3 -d 4",
    "harm -n 3 -d 3 --basis",
    "hilbert --kind harm -n 3 -d 4",
    "hilbert --kind hit -n 3 -d 4",
    "hilbert --kind tqharm -n 3 -d 3",
    "character -n 3 -d 4",
    "verify -n 3 -d 3",
    "truncated -n 3 -d 3",
]


@pytest.mark.parametrize("q", ["formal", "1", "-1/2"])
@pytest.mark.parametrize("line", CACHED_LINES)
def test_cache_dir_changes_no_report(line, q, tmp_path, capsys):
    """--cache-dir only stores slices: cold and warm, the report equals the
    uncached one except for spec.cache_dir."""
    argv = line.split() + ["-q", q, "--format", "json"]
    assert main(argv) == 0
    uncached = json.loads(capsys.readouterr().out)
    assert uncached["spec"].pop("cache_dir") is None
    for _ in ("cold", "warm"):
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spec"].pop("cache_dir") == str(tmp_path)
        assert report == uncached


def test_cached_cli_run_identical(tmp_path, capsys):
    args = ["harm", "-n", "2", "-d", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def _count_slice_calls(monkeypatch):
    """Count harm_component and hit_component calls through every binding,
    leaving out those made inside specialized_dimension."""
    import qsteenrod
    from qsteenrod import cli, spaces, specialize

    calls, depth = [], [0]
    originals = {name: getattr(spaces, name) for name in ("harm_component", "hit_component")}

    def counting(name):
        def wrapper(n, d, q, *rest):
            if not depth[0]:
                calls.append((name, n, d, str(q)))
            return originals[name](n, d, q, *rest)
        return wrapper

    def guarded(*args):
        depth[0] += 1
        try:
            return specialize.specialized_dimension(*args)
        finally:
            depth[0] -= 1

    for module in (qsteenrod, cli, spaces, specialize):
        for name in originals:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name))
    monkeypatch.setattr(cli, "specialized_dimension", guarded)
    return calls


@pytest.mark.parametrize("line", ["verify -n 3 -d 4", "verify -n 2 -d 3 -q -2/3"])
def test_warm_cache_builds_no_slice(line, tmp_path, capsys, monkeypatch):
    argv = line.split() + ["--format", "json", "--cache-dir", str(tmp_path / "warm")]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    calls = _count_slice_calls(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().out == cold
    assert calls == []
    # the counter sees the slices a cold run builds
    argv[argv.index("--cache-dir") + 1] = str(tmp_path / "cold")
    assert main(argv) == 0
    assert calls


@pytest.mark.parametrize(
    "line, built",
    [
        ("hilbert --kind harm -n 4 -d 6", []),
        ("hilbert --kind hit -n 4 -d 6", []),
        ("harm -n 4 -d 6", [("harm_component", 4, 6, "formal")]),
        ("harm -n 3 -d 4 -q -1/2", [("harm_component", 3, 4, "-1/2")]),
        ("hit -n 3 -d 4 -q 1 --basis",
         [("hit_component", 3, d, "1") for d in range(5)]),
        ("character -n 4 -d 6", []),
        ("character -n 3 -d 3", []),
        ("hilbert --kind harm -n 3 -d 4", []),
        ("hilbert --kind hit -n 3 -d 4 -q -1/2", []),
    ],
)
def test_dimension_only_cells_build_no_slice(
    line, built, tmp_path, capsys, monkeypatch
):
    """A cell that prints only a dimension reads the block ranks, with or
    without a cache directory; a slice is built only where its basis is
    listed, and a warm cache directory holds every such slice."""
    calls = _count_slice_calls(monkeypatch)
    argv = line.split() + ["--format", "json"]
    cached = argv + ["--cache-dir", str(tmp_path)]
    for run, expected in [(argv, built), (cached, built), (cached, [])]:
        calls.clear()
        assert main(run) == 0
        capsys.readouterr()
        assert calls == expected


SHARED_OPTIONS = [
    ["-n", "3", "-d", "5", "-q", "-2/3"],
    ["--vars", "3", "--degree", "5", "--q", "-2/3"],
]


@pytest.mark.parametrize("command", list(RUNNERS))
def test_every_command_parses_the_shared_options(command):
    def parsed(argv):
        return spec_from_args(build_parser().parse_args(_merge_q_flags(argv)))

    rest = ["--format", "csv", "--cache-dir", "d", "--seed", "7", "--basis"]
    given = {
        "command": command,
        "n": 3,
        "degree": 5,
        "q": QParam.rational(-2, 3),
        "output_format": "csv",
        "cache_dir": "d",
        "seed": 7,
        "include_basis": True,
        "kind": "classical-harm",
        "extended_generators": False,
    }
    defaults = {
        **given,
        "n": 2,
        "degree": 1 if command == "hilbert" else 4,
        "q": FORMAL,
        "output_format": "pretty",
        "cache_dir": None,
        "seed": 0,
        "include_basis": False,
    }
    assert [f.name for f in dataclasses.fields(CommandSpec)] == list(given)
    for options in SHARED_OPTIONS:
        spec = parsed([command, *options, *rest])
        assert {f: getattr(spec, f) for f in given} == given
    spec = parsed([command])
    assert {f: getattr(spec, f) for f in defaults} == defaults


def test_input_error_exit_code(capsys):
    assert main(["harm", "-q", "not-a-number"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["type"] == "input"
    assert main(["harm", "-d", "-3"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["harm", "-n", "-1", "-d", "2"],
        ["harm", "-n", "2", "-d", "2", "-q", "1/0"],
        ["schubert", "-n", "0"],
        ["truncated", "-n", "0"],
        ["hilbert", "-n", "-2", "--kind", "sym"],
    ],
)
def test_bad_variable_count_or_q_exits_2(argv, capsys):
    assert main(argv + ["--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "input"


def test_cache_dir_naming_a_file_exits_2(tmp_path, capsys):
    path = tmp_path / "plain-file"
    path.write_text("")
    assert main(["harm", "-n", "2", "-d", "2", "--cache-dir", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "input"


def test_cache_file_that_cannot_be_written_exits_2(tmp_path, capsys):
    cache = SubspaceCache(str(tmp_path))
    os.mkdir(cache._path(cache_key("harm", 2, 2, FORMAL)))
    assert main(["harm", "-n", "2", "-d", "2", "--cache-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "input"
    assert not list(tmp_path.glob("*.tmp*"))


@pytest.mark.parametrize(
    "line",
    ["badq -n 2 -d 3", "hilbert --kind sym -n 2 -d 3", "schubert -n 3",
     "character -n 2 -d 2", "hilbert --kind harm -n 2 -d 3"],
)
def test_cache_dir_naming_a_file_exits_2_without_slices(line, tmp_path, capsys):
    """Commands that read no cached slice still reject the option."""
    path = tmp_path / "plain-file"
    path.write_text("")
    assert main(line.split() + ["--cache-dir", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "input"


def test_unknown_command_exit_code():
    assert main(["frobnicate"]) == 2


def test_pole_exit_code(monkeypatch, capsys):
    from qsteenrod import cli
    from qsteenrod.errors import PoleError

    def boom(spec):
        raise PoleError("pole at q = 1")

    monkeypatch.setitem(cli.RUNNERS, "harm", boom)
    assert main(["harm", "-n", "2", "-d", "1"]) == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "pole"


def test_execute_all_commands_smoke():
    for command, kwargs in [
        ("hilbert", {"kind": "polynomials"}),
        ("harm", {}),
        ("hit", {}),
        ("truncated", {}),
        ("badq", {"degree": 3}),
        ("strings", {"n": 1, "degree": 3}),
        ("character", {"n": 2, "degree": 1}),
        ("schubert", {"n": 3}),
        ("commutant", {"n": 1, "degree": 3}),
        ("relations", {"degree": 3}),
        ("verify", {"degree": 2}),
    ]:
        spec = CommandSpec(command=command, n=kwargs.get("n", 2),
                           degree=kwargs.get("degree", 2),
                           kind=kwargs.get("kind", "classical-harm"))
        report = execute(spec)
        assert report.version
        assert report.spec["command"] == command
        rendered = report.rendered("pretty")
        assert command in rendered


def test_serialize_subspace_well_formed():
    space = harm_component(2, 3, QParam.rational(-2, 3))
    payload = serialize_subspace(space)
    assert payload["n"] == 2 and payload["degree"] == 3
    assert deserialize_subspace(payload) == space


# sha256 of `qsteenrod <spec> --format json`.  Together the specs build every
# operator-on-a-slice matrix: hit and harmonic slices at formal and rational
# q, the bad-q constraint rows, divided-difference blocks, the commutant
# equations and the operator span rank.  Any change to these bytes must be a
# deliberate, documented fix.
PINNED_REPORTS = [
    ("harm -n 3 -d 5",
     "f9cf5f436e5113bf71b43fb8fd6ea178a65f835f7bb3b58bc2cee3856508e64c"),
    ("harm -n 2 -d 4 -q -2/3 --basis",
     "38076ffa71a4f3a37153a3a63775e4f9b56b318bc69153f0265a469cdd97c226"),
    ("hit -n 3 -d 5",
     "8b96d2ad2ba158b4a33b3acda14167c7e88722aa00ad4c08cc159a494d09ca54"),
    ("hit -n 3 -d 4 -q 1",
     "f0e6f730e792bdf613a567c83b989345e62e99a1df66c14413f81320429087a6"),
    ("badq -n 2 -d 8",
     "395512a79cb30cb7d541dc2c0a4494e4aca46ac2a93480b3ca6d6b0dfb123d50"),
    ("badq -n 3 -d 4 --all-generators",
     "79decad700e6d3d53b92abd78af41f6716590b84bc9f4d47903e6b7f72f0984c"),
    ("badq -n 2 -d 26",
     "bbdb0587f1067a179f953b47cb887281f8abfc2428036015b39f4fd5a887768f"),
    ("badq -n 3 -d 8 --all-generators",
     "b1fa6b217585c70b95b6d0f59cc5aba1cdbd3b1c061137bc3236afb7839f1309"),
    ("commutant -n 2 -d 4 -q 0",
     "e3eda53e4390ad492db37809cacb452ee1274c0c5d26f0e8c60de441f4f377a8"),
    ("commutant -n 3 -d 3 -q 1",
     "836b5b261b4c0e959902f866164314120f5606c8f0fd06fa409637e111db8700"),
    ("relations -n 3 -d 4",
     "47519cdc254ff77630b119a3d7df4e1542d6f7e7e13253cd5a5d95439dba4367"),
    ("verify -n 3 -d 5",
     "4add65c8ae7b70c2349ee1901809934c003290a7846872fef6827871c7952e81"),
    ("verify -n 5 -d 4",
     "b9313dbe21e6b208eb51b02e567d90facd9b8c74f07cf8482d0ea3297b57e8fd"),
    ("truncated -n 3 -d 4 -q -1/2",
     "569ffd3f94edb499f833b2080467b68a12b027002dce65fb569d5f4202be1c57"),
    ("schubert -n 3",
     "2f11608335d36a75b23a23f19873e202ae91a776deb7e97cf1349d495a11a20a"),
    ("harm -n 4 -d 6 --basis",
     "927d103046ddbe6012e3b5a03aafa1c9bd142cae8e1085667e22d1020dadf5d2"),
    ("harm -n 5 -d 5 --basis",
     "aba816aee2d42d9f7fe5465cf048b4c43e5cc936268ef343973c52ece5767235"),
    ("harm -n 5 -d 5 -q 1 --basis",
     "651537c5aa8279f1dcd59c57eb38e0988fc82f3fa6a6947a9eaa65567834f454"),
    # K!-complement bases (tqharm)
    ("truncated -n 3 -d 6 --basis",
     "c22f344febda4884b071ec0dbfdb31759b20ef9d22f9070ebe91809cdea5e124"),
    ("truncated -n 4 -d 4 -q -1/2 --basis",
     "bd0cba811c90f499cb6db8a3824f7ebe67aab089cb1ec6cd08a029489fc08c58"),
    # fixed-q commands of the benchmark's `rational` workload, eliminated on ints
    ("hilbert --kind harm -n 5 -d 5 -q 1",
     "76b15fe269d65f048ea4724a66ce5b21efbbaff5699d921386e51c0520eba3ae"),
    ("character -n 5 -d 4 -q 1",
     "b3f9a90eb06e0009882ac63b7d26b1db5c5a14c776fa5c5a9233f3f29df9221b"),
    ("commutant -n 2 -d 6 -q 0",
     "452c6255ad6e87187063f9c6531cc8952a51c0cdec79176e284346189a3d47a8"),
    ("relations -n 3 -d 5 -q 1",
     "f91525da365f61f0b416d724f2b8422cd2f7a61777092192a58c90f5fe3346cf"),
    ("truncated -n 4 -d 4 -q 1",
     "5ee30d2d16c5d5ad3f1faea158b0dd12573f0dc2fbf86147ea318aadbef463dd"),
    # relations that stop at the first mod-P full-rank degree, and at q = 0,
    # where the exact elimination of every probed cell finds two relations
    ("relations -n 4 -d 5",
     "dcdd5935597faf860e59b0664092560cbb515d5d70da9e2858a327006fd3f544"),
    ("relations -n 3 -d 5 -q 0",
     "b073f1e9d00a8f76993b098883f72203d7f3eb6cb32eb662bfe9e4c3cf4d2be5"),
    # dimension-only cells read from the certified block ranks; the last has
    # dimension-jump findings, whose generic dimensions come from them too
    ("hilbert --kind harm -n 5 -d 4",
     "ef2be30f4ff1469c781d82893bbb8373ab37c8269fbb6f9973167cd0bf8b87a0"),
    ("hilbert --kind hit -n 4 -d 6",
     "c4ddb8725d11642c4fc1f02912cefa3194331ff6cc14832dcb74cf3286adf228"),
    ("hit -n 4 -d 7 -q 1",
     "361e191c4f0122e6a19b1e5b21e3827a5637357e0258ab707f9c95ac107a5e19"),
    ("harm -n 4 -d 7 -q -1/2",
     "f7c29fa05ac03ab365ed425089efecf71aeb9155399776fab8b65a2ed62a6efc"),
    # characters summed from the certified block multiplicities: regular at
    # formal q, and extra copies at q = -1/2
    ("character -n 4 -d 6",
     "9ba2e4b8d90e60e392a630e2675877421723da0a94c8eb913af6cf0b4e897e53"),
    ("character -n 4 -d 7 -q -1/2",
     "0391ea35921d68578d9b900540de2a1199db32755ab0a462284b9f9f59aaaac0"),
]


@pytest.mark.parametrize("line, digest", PINNED_REPORTS)
def test_report_bytes_pinned(line, digest, capsys):
    assert main(line.split() + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
