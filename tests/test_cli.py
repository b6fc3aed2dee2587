"""End-to-end runs of the command line front end."""

import contextlib
import copy
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edesolver import cli, companion, scalar, systems
from edesolver.fsa import Automaton

SPECS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "specs"
TEST_SPECS = pathlib.Path(__file__).resolve().parent / "specs"

THETA_EQ = str(SPECS / "theta_n_plus_theta.json")
ZERO_EQ = str(SPECS / "zero_eq.json")
ONE_EQ = str(SPECS / "one_eq.json")
EVEN_N = str(SPECS / "even_n.json")
TWO_EQS = str(SPECS / "two_equations.json")
COMPANION = str(SPECS / "companion_power.json")
COMPANION3 = str(SPECS / "companion_n3.json")

ALL_SPECS = [THETA_EQ, ZERO_EQ, ONE_EQ, EVEN_N, TWO_EQS, COMPANION, COMPANION3]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- build

def test_build_zero_equation_is_one_accepting_state(capsys):
    code, out, _ = run(capsys, "build", ZERO_EQ)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 1
    assert doc["states"][0]["final"] is True


def test_build_one_equation_has_no_reachable_final(capsys):
    code, out, _ = run(capsys, "build", ONE_EQ)
    assert code == 0
    doc = json.loads(out)
    finals = {s["id"] for s in doc["states"] if s["final"]}
    assert finals == set()


def test_build_dot_output(capsys):
    code, out, _ = run(capsys, "build", ZERO_EQ, "--out", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "doublecircle" in out


def test_build_theta_equation_language(capsys):
    code, out, _ = run(capsys, "build", THETA_EQ)
    assert code == 0
    doc = json.loads(out)
    aut = _from_json(doc)
    from edesolver.digits import DigitWord

    assert not aut.accepts(DigitWord(2, 1, ()))
    assert aut.accepts(DigitWord(2, 1, ((1,),)))
    assert aut.accepts(DigitWord(2, 1, ((1,), (0,), (0,))))
    assert not aut.accepts(DigitWord(2, 1, ((1,), (1,))))
    assert not aut.accepts(DigitWord(2, 1, ((0,), (1,))))


def _from_json(doc):
    n = len(doc["states"])
    table = [[0] * (doc["p"] ** doc["t"]) for _ in range(n)]
    from edesolver.digits import alphabet

    letters = list(alphabet(doc["p"], doc["t"]))
    for tr in doc["transitions"]:
        table[tr["from"]][letters.index(tuple(tr["letter"]))] = tr["to"]
    finals = {s["id"] for s in doc["states"] if s["final"]}
    labels = [s["label"] for s in doc["states"]]
    return Automaton(doc["p"], doc["t"], labels, table, doc["initial"], finals)


def test_build_is_byte_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "build", EVEN_N)
        outputs.add(out)
    assert len(outputs) == 1


# -------------------------------------------------------------------- check

def test_check_solution(capsys):
    code, out, _ = run(capsys, "check", THETA_EQ, "--tuple", "1")
    assert code == 0
    assert out.strip() == "solution"


def test_check_non_solution(capsys):
    code, out, _ = run(capsys, "check", THETA_EQ, "--tuple", "2")
    assert code == 1
    assert out.strip() == "not a solution"


def test_check_zero_tuple(capsys):
    code, out, _ = run(capsys, "check", ZERO_EQ, "--tuple", "0")
    assert code == 0


def test_check_tuple_arity(capsys):
    code, _, err = run(capsys, "check", THETA_EQ, "--tuple", "1,2")
    assert code == 2
    assert "t=1" in err


def test_check_tuple_syntax(capsys):
    code, _, err = run(capsys, "check", THETA_EQ, "--tuple", "one")
    assert code == 2
    code, _, _ = run(capsys, "check", THETA_EQ, "--tuple", "-3")
    assert code == 2


def test_only_ascii_digits_are_integers(tmp_path, capsys):
    code, _, err = run(capsys, "check", THETA_EQ, "--tuple", "\uff11")  # fullwidth 1
    assert code == 2
    assert "--tuple" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 3, "r": 1, "t": 1, "equations": [{"summands": [{"Q": "1:1_0"}]}]}))
    code, _, err = run(capsys, "build", str(bad))
    assert code == 2
    assert "equations[0].summands[0]" in err


@pytest.mark.parametrize("text", ["\uff13", "1_0"])  # a fullwidth 3, an underscore separator
def test_integer_options_are_ascii_only(capsys, text):
    for option in ("--max-len", "--state-cap"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["enum", THETA_EQ, option, text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert option in err and repr(text) in err
        # argparse names the type function of a bare ValueError
        assert "parse_int" not in err and "_natural" not in err


# --------------------------------------------------------------------- enum

def test_enum_theta(capsys):
    code, out, _ = run(capsys, "enum", THETA_EQ, "--max-len", "4")
    assert code == 0
    assert out.split() == ["1"]


def test_enum_unsolvable_prints_nothing(capsys):
    code, out, _ = run(capsys, "enum", ONE_EQ)
    assert code == 0
    assert out == ""


def test_enum_even_numbers(capsys):
    code, out, _ = run(capsys, "enum", EVEN_N, "--max-len", "4")
    assert code == 0
    assert out.split() == ["0", "2", "4", "6", "8", "10", "12", "14"]


def test_enum_intersection(capsys):
    code, out, _ = run(capsys, "enum", TWO_EQS, "--max-len", "4")
    assert code == 0
    assert out.split() == ["0"]


# ------------------------------------------------------------------- verify

@pytest.mark.parametrize("spec", ALL_SPECS)
def test_verify_bundled_specs(capsys, spec):
    code, out, _ = run(capsys, "verify", spec)
    assert code == 0
    doc = json.loads(out)
    assert doc["mismatches"] == []


SCALAR_SPECS = [
    str(path) for path in sorted(SPECS.glob("*.json"))
    if json.loads(path.read_text()).get("ring", "scalar") == "scalar"
]


@pytest.mark.parametrize("spec", SCALAR_SPECS)
def test_verify_scalar_specs_at_length_five(capsys, spec):
    code, out, _ = run(capsys, "verify", spec, "--max-len", "5")
    assert code == 0
    doc = json.loads(out)
    obj = json.loads(pathlib.Path(spec).read_text())
    assert doc["max_len"] == 5
    assert doc["checked"] == sum(obj["p"] ** (obj["t"] * l) for l in range(6))
    assert doc["mismatches"] == []


def test_verify_detects_a_corrupted_build(capsys, monkeypatch):
    real = systems.solve_system

    def corrupted(spec, state_cap=None):
        aut = real(spec) if state_cap is None else real(spec, state_cap)
        return Automaton(
            aut.p, aut.t, aut.labels, aut.transitions, aut.initial,
            set(range(aut.num_states)) - set(aut.finals),
        )

    monkeypatch.setattr(systems, "solve_system", corrupted)
    code, out, _ = run(capsys, "verify", THETA_EQ)
    assert code == 1
    assert json.loads(out)["mismatches"]


# ----------------------------------------------------------------- solvable

def test_solvable(capsys):
    assert run(capsys, "solvable", ONE_EQ)[0] == 1
    assert run(capsys, "solvable", ZERO_EQ)[0] == 0
    code, out, _ = run(capsys, "solvable", THETA_EQ)
    assert code == 0
    assert out.strip() == "yes"


# ------------------------------------------------------------ error handling

def test_missing_file(capsys):
    code, _, err = run(capsys, "build", str(SPECS / "missing.json"))
    assert code == 2
    assert "error:" in err


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "build", str(bad))
    assert code == 2
    assert ":1:" in err  # line/column diagnostics


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{}", "not UTF-8 text: byte 0 is 0xff"),
    (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply"),
    (b'{"p": ' + b"7" * 5000 + b"}", "an integer has more than 4300 digits"),
], ids=["not-utf8", "nested-too-deeply", "integer-over-digit-limit"])
def test_unreadable_spec_files(tmp_path, capsys, content, message):
    # a file that is not UTF-8, JSON nested past the parser's recursion
    # limit, or an integer longer than Python's default limit on integer
    # string conversion exits 2 with one line naming it, and no traceback
    bad = tmp_path / "spec.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, "build", str(bad))
    assert (code, out, err) == (2, "", f"error: {bad}: {message}\n")


SCALAR_SPEC = {"p": 2, "r": 1, "t": 1, "equations": [{"summands": [{"Q": "1:0", "P": ["1:0"]}]}]}
COMPANION_SPEC = {
    "p": 2, "r": 1, "t": 1,
    "ring": {"companion": {"n": 2, "rho": "1:0", "minpoly_numerators": ["1:1", "1:0"]}},
    "equations": [{"summands": [{"Q": ["1:0"], "P": [["1:0"]]}]}],
}
SUMMAND = ("equations", 0, "summands", 0)
DROP = object()


def edited(spec, *where, value=DROP):
    """A deep copy of ``spec`` with the value at the key path ``where`` replaced, or dropped."""
    spec = copy.deepcopy(spec)
    obj = spec
    for key in where[:-1]:
        obj = obj[key]
    if value is DROP:
        del obj[where[-1]]
    else:
        obj[where[-1]] = value
    return spec


def diagnostic(case, spec, where, message):
    return pytest.param(spec, where, message, id=case)


@pytest.mark.parametrize("spec, where, message", [
    diagnostic("top-level", [], "", "top level must be an object"),
    diagnostic("p-missing", edited(SCALAR_SPEC, "p"), ".p", "missing"),
    diagnostic("p-string", edited(SCALAR_SPEC, "p", value="2"), ".p", "expected an integer, got '2'"),
    diagnostic("p-bool", edited(SCALAR_SPEC, "p", value=True), ".p", "expected an integer, got True"),
    diagnostic("p-composite", edited(SCALAR_SPEC, "p", value=6), ".p", "6 is not prime"),
    diagnostic("t-zero", edited(SCALAR_SPEC, "t", value=0), ".t", "expected a positive integer, got 0"),
    diagnostic(
        "top-unknown-key", edited(SCALAR_SPEC, "eqs", value=[]),
        ".eqs", "unknown key, expected one of p, r, t, ring, equations",
    ),
    diagnostic(
        "ring-name", edited(SCALAR_SPEC, "ring", value="matrix"),
        ".ring", 'expected "scalar" or {"companion": {...}}',
    ),
    diagnostic(
        "ring-unknown-key", edited(COMPANION_SPEC, "ring", "extra", value=1),
        ".ring.extra", "unknown key, expected one of companion",
    ),
    diagnostic(
        "companion-list", edited(COMPANION_SPEC, "ring", "companion", value=[]),
        ".ring.companion", "expected an object, got list",
    ),
    diagnostic(
        "companion-unknown-key", edited(COMPANION_SPEC, "ring", "companion", "m", value=2),
        ".ring.companion.m", "unknown key, expected one of n, rho, minpoly_numerators",
    ),
    diagnostic(
        "companion-n-missing", edited(COMPANION_SPEC, "ring", "companion", "n"),
        ".ring.companion.n", "missing",
    ),
    diagnostic(
        "companion-rho-type", edited(COMPANION_SPEC, "ring", "companion", "rho", value=1),
        ".ring.companion.rho", "expected str, got int",
    ),
    diagnostic(
        "companion-rho-syntax", edited(COMPANION_SPEC, "ring", "companion", "rho", value="1:"),
        ".ring.companion.rho", "term '1:' has 0 exponents, expected 1",
    ),
    diagnostic(
        "numerators-type", edited(COMPANION_SPEC, "ring", "companion", "minpoly_numerators", value="1:0"),
        ".ring.companion.minpoly_numerators", "expected list, got str",
    ),
    diagnostic(
        "numerator-syntax", edited(COMPANION_SPEC, "ring", "companion", "minpoly_numerators", 1, value="x"),
        ".ring.companion.minpoly_numerators[1]", "term 'x' is missing ':'",
    ),
    diagnostic(
        "numerator-count", edited(COMPANION_SPEC, "ring", "companion", "minpoly_numerators", value=["1:1"]),
        ".ring.companion", "need 2 last-column numerators",
    ),
    diagnostic(
        "companion-rho-zero", edited(COMPANION_SPEC, "ring", "companion", "rho", value="0"),
        ".ring.companion", "rho must be nonzero",
    ),
    diagnostic(
        "companion-n-zero", edited(COMPANION_SPEC, "ring", "companion", "n", value=0),
        ".ring.companion", "need n >= 1",
    ),
    diagnostic(
        "companion-singular",
        edited(COMPANION_SPEC, "ring", "companion", "minpoly_numerators", value=["1:0", "0"]),
        ".ring.companion",
        "conjugator is singular; the minimal polynomial has a repeated root over the fraction field",
    ),
    diagnostic("equations-missing", edited(SCALAR_SPEC, "equations"), ".equations", "missing"),
    diagnostic(
        "equations-object", edited(SCALAR_SPEC, "equations", value={}),
        ".equations", "expected list, got dict",
    ),
    diagnostic(
        "equations-empty", edited(SCALAR_SPEC, "equations", value=[]),
        ".equations", "need at least one equation",
    ),
    diagnostic(
        "equation-list", edited(SCALAR_SPEC, "equations", 0, value=[]),
        ".equations[0]", "expected an object",
    ),
    diagnostic(
        "equation-unknown-key", edited(SCALAR_SPEC, "equations", 0, "summand", value=[]),
        ".equations[0].summand", "unknown key, expected one of summands",
    ),
    diagnostic(
        "summands-missing", edited(SCALAR_SPEC, "equations", 0, "summands"),
        ".equations[0].summands", "missing",
    ),
    diagnostic(
        "summands-empty", edited(SCALAR_SPEC, "equations", 0, "summands", value=[]),
        ".equations[0].summands", "need at least one summand",
    ),
    diagnostic(
        "summand-string", edited(SCALAR_SPEC, *SUMMAND, value="Q"),
        ".equations[0].summands[0]", "expected an object",
    ),
    diagnostic(
        "summand-unknown-key", edited(SCALAR_SPEC, *SUMMAND, "poly_coef", value="1:1"),
        ".equations[0].summands[0].poly_coef", "unknown key, expected one of poly_coeff, Q, P",
    ),
    diagnostic(
        "poly-coeff-syntax", edited(SCALAR_SPEC, *SUMMAND, "poly_coeff", value="1:0,0"),
        ".equations[0].summands[0].poly_coeff", "term '1:0,0' has 2 exponents, expected 1",
    ),
    diagnostic("Q-missing", edited(SCALAR_SPEC, *SUMMAND, "Q"), ".equations[0].summands[0].Q", "missing"),
    diagnostic(
        "P-missing", edited(edited(SCALAR_SPEC, *SUMMAND, "P"), *SUMMAND, "Q", value="1:"),
        ".equations[0].summands[0].P", "expected a list of 1 bases",
    ),
    diagnostic(
        "P-length", edited(SCALAR_SPEC, *SUMMAND, "P", value=["1:0", "1:0"]),
        ".equations[0].summands[0].P", "expected a list of 1 bases",
    ),
    diagnostic(
        "Q-syntax", edited(SCALAR_SPEC, *SUMMAND, "Q", value="1:"),
        ".equations[0].summands[0].Q", "term '1:' has 0 exponents, expected 1",
    ),
    diagnostic(
        "P-type", edited(SCALAR_SPEC, *SUMMAND, "P", 0, value=7),
        ".equations[0].summands[0].P[0]", "expected a polynomial string, got int",
    ),
    diagnostic(
        "companion-Q-empty", edited(COMPANION_SPEC, *SUMMAND, "Q", value=[]),
        ".equations[0].summands[0].Q", "expected a nonempty list of coefficient polynomials",
    ),
    diagnostic(
        "companion-P-string", edited(COMPANION_SPEC, *SUMMAND, "P", 0, value="1:0"),
        ".equations[0].summands[0].P[0]", "expected a nonempty list of coefficient polynomials",
    ),
    diagnostic(
        "companion-P-syntax", edited(COMPANION_SPEC, *SUMMAND, "P", 0, 0, value="1:-1"),
        ".equations[0].summands[0].P[0][0]", "negative exponent in '1:-1'",
    ),
])
def test_field_diagnostics(tmp_path, capsys, spec, where, message):
    # each bad field exits 2 with one line naming its path, and no traceback
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(spec))
    code, out, err = run(capsys, "build", str(bad))
    assert (code, out, err) == (2, "", f"error: {bad}{where}: {message}\n")


def test_non_prime_modulus(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 6, "r": 1, "t": 1, "equations": []}')
    code, _, err = run(capsys, "build", str(bad))
    assert code == 2
    assert ".p" in err


def test_huge_prime_exits_before_the_primality_test(capsys, monkeypatch):
    # p = 2^61 - 1 is prime, and its trial division runs for over 20 s: any
    # p past the letter cap is refused before the field is made
    monkeypatch.setattr(cli, "PrimeField", None)
    code, out, err = run(capsys, "build", str(TEST_SPECS / "huge_prime.json"))
    assert (code, out) == (3, "")
    assert "huge_prime.json.p" in err and "letter cap of 4096" in err


def test_companion_over_the_cap_exits_before_the_step_multipliers(capsys, monkeypatch):
    # p = 101: the start rows of the 101 first letters hold 402 coordinates,
    # over the cell cap, so the build is refused before span_layout takes
    # the powers of P^p and their products with C', which ran for minutes
    laid_out = []
    monkeypatch.setattr(scalar, "span_layout", lambda edes: laid_out.append(edes))
    code, out, err = run(capsys, "solvable", str(TEST_SPECS / "cap_companion_p101.json"))
    assert (code, out, laid_out) == (3, "", [])
    assert err == (
        "capacity exceeded: 402 coordinates reachable: their step maps need 101 letters x "
        "101^1 sections x 402^2 cells, over the cap of 16777216\n"
    )


def test_companion_over_the_cap_exits_before_any_power_of_a_base(capsys, monkeypatch):
    # the start rows need only the start coefficients: the cell cap refuses
    # the p = 101 spec before _peeled takes any base P^p (the conjugator
    # takes B'^p while the spec loads, before the patch)
    load = cli.load_spec

    def refuse(*args):
        raise AssertionError("a power was taken")

    def loaded(path):
        spec = load(path)
        monkeypatch.setattr(companion.PolyMatrix, "__pow__", refuse)
        return spec

    monkeypatch.setattr(cli, "load_spec", loaded)
    code, out, err = run(capsys, "solvable", str(TEST_SPECS / "cap_companion_p101.json"))
    assert (code, out) == (3, "")
    assert "402 coordinates reachable" in err


def test_huge_canvas_verify_exits_before_allocating(capsys):
    # the build answers, but one word of 4 letters would need 10^12 cells
    # in the oracle (931 GiB as numpy asked for it): refused as a blown cap
    path = str(TEST_SPECS / "huge_canvas.json")
    assert run(capsys, "build", path)[0] == 0
    code, out, err = run(capsys, "verify", path)
    assert (code, out) == (3, "")
    assert err == (
        "capacity exceeded: one word of 4 letters needs a canvas of 1000017000016 cells, "
        "over the cap of 1048576\n"
    )


def test_huge_r_builds_in_little_memory(tmp_path, capsys):
    # the set-up may hold nothing that grows as r^2, such as a table of the
    # weights p^(r-1-k) of the section letters (104 MB traced at r = 40000)
    spec = json.loads((TEST_SPECS / "huge_r.json").read_text())
    spec["r"] = 40000
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "build", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert peak < 8 << 20


# p = 2 with t = 20000 unknowns, or with r = 20000 variables: the caps name
# 2^20000 by its factors, as Python refuses to print an integer of over 4300 digits
WIDE_T = {"p": 2, "r": 1, "t": 20000, "equations": [{"summands": [{"Q": "1:0", "P": ["1:0"] * 20000}]}]}
WIDE_R_POLY = "1:" + ",".join(["1"] + ["0"] * 19999)
WIDE_R = {"p": 2, "r": 20000, "t": 1, "equations": [{"summands": [{"Q": WIDE_R_POLY, "P": [WIDE_R_POLY]}]}]}


@pytest.mark.parametrize("spec, command, message", [
    pytest.param(WIDE_T, "build", "alphabet of 2^20000 letters exceeds cap 4096", id="t-build"),
    pytest.param(WIDE_T, "enum", "alphabet of 2^20000 letters exceeds cap 4096", id="t-enum"),
    pytest.param(WIDE_T, "verify", "alphabet of 2^20000 letters exceeds cap 4096", id="t-verify"),
    pytest.param(
        WIDE_R, "build",
        "2 coordinates reachable: their step maps need 2 letters x 2^20000 sections x 2^2 cells, "
        "over the cap of 16777216",
        id="r-build",
    ),
])
def test_cap_messages_name_huge_counts_by_their_factors(tmp_path, capsys, spec, command, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(capsys, command, str(path)) == (3, "", f"capacity exceeded: {message}\n")


def test_reducible_separable_companion(capsys):
    # xi^2 + xi + theta^2 + theta = (xi + theta)(xi + theta + 1) over F_2[theta]
    # is reducible but has no repeated root: C' is invertible and the ring is
    # accepted.  xi -> theta needs n2 >= 1 and xi -> theta + 1 needs n1 = n2.
    path = str(TEST_SPECS / "reducible_separable.json")
    assert run(capsys, "build", path)[0] == 0
    code, out, _ = run(capsys, "enum", path, "--max-len", "4")
    assert code == 0
    assert out.split() == [f"{n},{n}" for n in range(1, 16)]
    code, out, _ = run(capsys, "verify", path, "--max-len", "4")
    assert code == 0
    doc = json.loads(out)
    assert (doc["checked"], doc["mismatches"]) == (341, [])


def test_repeated_root_companion(tmp_path, capsys):
    # xi^2 = 1 over F_2 is (xi + 1)^2, a repeated root: the conjugator is singular
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "p": 2, "r": 1, "t": 1,
        "ring": {"companion": {"n": 2, "rho": "1:0", "minpoly_numerators": ["1:0", "0"]}},
        "equations": [{"summands": [{"Q": ["1:0"], "P": [["0", "1:0"]]}]}],
    }))
    code, _, err = run(capsys, "build", str(bad))
    assert code == 2
    assert "ring.companion" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path", [
    pytest.param(COMPANION3, id="one-equation"),
    pytest.param(str(TEST_SPECS / "companion_system_t2.json"), id="two-equations"),
])
def test_build_computes_the_conjugator_once(monkeypatch, capsys, path):
    # parsing checks C' for singularity and the equations of the build reuse it
    calls = []
    conjugator = companion.conjugator

    def counted(spec):
        calls.append(spec)
        return conjugator(spec)

    monkeypatch.setattr(companion, "conjugator", counted)
    monkeypatch.setattr(cli, "conjugator", counted, raising=False)
    code, _, _ = run(capsys, "build", path)
    assert code == 0
    assert len(calls) == 1


def test_companion_ring_must_be_an_object(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "p": 2, "r": 1, "t": 1, "ring": {"companion": [1]},
        "equations": [{"summands": [{"Q": ["1:0"], "P": [["1:0"]]}]}],
    }))
    code, _, err = run(capsys, "build", str(bad))
    assert code == 2
    assert "ring.companion: expected an object" in err


@pytest.mark.parametrize("key", ["r", "t"])
def test_zero_arity_is_reported_before_any_polynomial(tmp_path, capsys, key):
    spec = {
        "p": 2, "r": 1, "t": 1,
        "equations": [{"summands": [{"Q": "1:0", "P": ["1:0"]}]}],
    }
    spec[key] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    code, _, err = run(capsys, "build", str(bad))
    assert code == 2
    assert f"bad.json.{key}: expected a positive integer" in err
    assert "summands" not in err


@pytest.mark.parametrize("command", ["enum", "verify"])
def test_negative_max_len(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, EVEN_N, "--max-len", "-3"])
    assert exc.value.code == 2
    assert "--max-len" in capsys.readouterr().err


def test_state_cap_flag(capsys):
    code, _, err = run(capsys, "build", THETA_EQ, "--state-cap", "2")
    assert code == 3
    assert "capacity" in err


def test_state_cap_env_is_ignored(capsys, monkeypatch):
    # --state-cap alone sets the cap: a cap of 2 from the environment would blow
    monkeypatch.setenv("EDE_STATE_CAP", "2")
    assert run(capsys, "build", THETA_EQ)[0] == 0


@pytest.mark.parametrize("text", ["0", "-1", "-5"])
def test_state_cap_below_one_is_bad_input(capsys, text):
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", THETA_EQ, "--state-cap", text])
    assert exc.value.code == 2
    assert "--state-cap" in capsys.readouterr().err


def test_enum_word_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ENUM_WORD_CAP", 5)
    code, _, err = run(capsys, "enum", THETA_EQ, "--max-len", "4")
    assert code == 3


@pytest.mark.parametrize("command", ["enum", "verify"])
def test_huge_max_len_blows_the_word_cap(capsys, monkeypatch, command):
    # the word count stops at the first length past the cap
    code, out, err = run(capsys, command, EVEN_N, "--max-len", "1000000")
    assert (code, out) == (3, "")
    assert "more than" in err and "words up to length 1000000" in err
    # and comes before the build
    monkeypatch.setattr(systems, "solve_system", None)
    assert run(capsys, command, COMPANION3, "--max-len", "1000000")[0] == 3


# ------------------------------------------------------------------- module

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "edesolver", "solvable", THETA_EQ],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "yes"


# Cold starts run in fresh interpreters: this test process has numpy loaded.
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"


def fresh(code: str, *argv) -> subprocess.CompletedProcess:
    """``python -c code argv..`` in a new interpreter that imports ``src`` first."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )


def test_import_and_the_automaton_commands_leave_numpy_unloaded():
    proc = fresh(
        "import contextlib, io, json, sys\n"
        "import edesolver\n"
        "from edesolver import cli\n"
        "seen = [('import', 'numpy' in sys.modules)]\n"
        "for argv in (['build'], ['check', '--tuple', '4'], ['enum'], ['solvable']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main([argv[0], sys.argv[1], *argv[1:]])\n"
        "    seen.append((argv[0], code, 'numpy' in sys.modules))\n"
        "print(json.dumps(seen))\n",
        EVEN_N,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import", False], ["build", 0, False], ["check", 0, False], ["enum", 0, False], ["solvable", 0, False]
    ]


def test_verify_from_a_cold_start_loads_numpy_and_reports_as_before():
    proc = fresh("import sys\nfrom edesolver import cli\nsys.exit(cli.main(['verify', sys.argv[1]]))", EVEN_N)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == '{\n  "max_len": 4,\n  "checked": 31,\n  "mismatches": []\n}\n'


def test_oracle_helpers_work_before_any_compare():
    # (1 + theta)^2 = 1 + theta^2 over F_2, and n * theta^n = 0 exactly at
    # even n: the first half of the words of three letters, whose first
    # letter (n mod 2) is slowest
    proc = fresh(
        "import sys\n"
        "import numpy\n"
        "from edesolver import cli, oracle\n"
        "from edesolver.gfpoly import PrimeField, parse_poly\n"
        "factor = oracle._factor(parse_poly('1:1 + 1:0', PrimeField(2), 1), 2)\n"
        "before = oracle.np is numpy\n"
        "square = oracle._times(numpy.ones((1, 1, 1, 2), numpy.int8), factor, 2)\n"
        "print(before, oracle.np is numpy, square.reshape(-1).tolist())\n"
        "print(oracle._solved(cli.load_spec(sys.argv[1]), 3).tolist())\n",
        EVEN_N,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False True [1, 0, 1]", str([True] * 4 + [False] * 4)]


def test_tracer_patches_the_oracle_before_numpy_is_loaded():
    proc = fresh(
        "import contextlib, io, sys\n"
        "sys.path.insert(1, sys.argv[2])\n"
        "import tracer\n"
        "from edesolver import cli, oracle\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "patched = oracle.__dict__['compare'].__wrapped__, oracle.__dict__['evaluate'].__wrapped__\n"
        "t.enter(0, 'even_n', 'verify')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', sys.argv[1]])\n"
        "oracle.evaluate(cli.load_spec(sys.argv[1]), (2,))\n"
        "t.uninstall()\n"
        "m = t.round_metrics(0)\n"
        "print(code, m['oracle.words'], m['oracle.evaluate_calls'], patched == (oracle.compare, oracle.evaluate))\n",
        EVEN_N, str(PERFBENCH),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "31", "1", "True"]


# ------------------------------------------------------------------- parser

def test_one_parser_serves_successive_calls_without_leaking(capsys):
    assert cli._build_parser() is cli._build_parser()
    code, out, _ = run(capsys, "verify", THETA_EQ, "--max-len", "2")
    assert (code, json.loads(out)["max_len"]) == (0, 2)
    code, out, _ = run(capsys, "verify", THETA_EQ)
    assert (code, json.loads(out)["max_len"]) == (0, 4)
    code, out, _ = run(capsys, "verify", COMPANION)
    assert (code, json.loads(out)["max_len"]) == (0, 3)
    code, out, _ = run(capsys, "build", ZERO_EQ, "--out", "dot")
    assert out.startswith("digraph")
    code, out, _ = run(capsys, "build", ZERO_EQ)
    assert json.loads(out)["states"]
    code, _, _ = run(capsys, "build", THETA_EQ, "--state-cap", "1")
    assert code == 3
    code, _, _ = run(capsys, "build", THETA_EQ)
    assert code == 0
    code, out, _ = run(capsys, "enum", EVEN_N, "--max-len", "1")
    assert out.split() == ["0"]
    code, out, _ = run(capsys, "enum", EVEN_N)
    assert out.split() == [str(n) for n in range(0, 16, 2)]


# --------------------------------------------------------------------- fuzz

@st.composite
def poly_text(draw, p, num_vars):
    """Polynomial text in the spec grammar with at most three terms of degree <= 2."""
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        exps = [0] * num_vars
        for _ in range(draw(st.integers(0, 2))):
            exps[draw(st.integers(0, num_vars - 1))] += 1
        terms.append(f"{draw(st.integers(0, p - 1))}:{','.join(map(str, exps))}")
    return " + ".join(terms) or "0"


# The companion rings the fuzz test draws from, by p, as minimal polynomial
# numerators in theta_1 (rho = 1); "" is the scalar ring.  Each is
# irreducible (Eisenstein at theta_1) and separable over F_p(theta).
RINGS = {
    2: ["", "theta 1", "theta 1 0"],  # xi^2 + xi + theta_1, xi^3 + xi + theta_1
    3: ["", "theta 0"],  # xi^2 - theta_1
}


@st.composite
def cli_specs(draw):
    """(spec dict, mutation): a valid spec, or one with one field broken or
    with more unknowns than the letter alphabet allows (mutation "alphabet")."""
    p = draw(st.sampled_from((2, 3)))
    r, t = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    spec = {"p": p, "r": r, "t": t}
    one, theta = "1:" + ",".join("0" * r), "1:" + ",".join("1" + "0" * (r - 1))
    ring = draw(st.sampled_from(RINGS[p]))
    if ring:
        numerators = [{"theta": theta, "1": one, "0": "0"}[c] for c in ring.split()]
        spec["ring"] = {"companion": {"n": len(numerators), "rho": one, "minpoly_numerators": numerators}}

        def elem():
            return [draw(poly_text(p, r)) for _ in range(draw(st.integers(1, 2)))]
    else:
        def elem():
            return draw(poly_text(p, r))

    spec["equations"] = [
        {"summands": [
            {
                **({"poly_coeff": draw(poly_text(p, t))} if draw(st.booleans()) else {}),
                "Q": elem(),
                "P": [elem() for _ in range(t)],
            }
            for _ in range(draw(st.integers(1, 2)))
        ]}
        for _ in range(draw(st.integers(1, 2)))
    ]
    first = spec["equations"][0]["summands"][0]
    mutation = draw(st.sampled_from(
        ["none"] * 6 + ["drop", "retype", "arity", "ring", "summand", "poly", "alphabet"]
    ))
    if mutation == "drop":
        del spec[draw(st.sampled_from(["p", "r", "t", "equations"]))]
    elif mutation == "retype":
        spec[draw(st.sampled_from(["p", "r", "t"]))] = draw(st.sampled_from([0, 1, 4, -2, True, "2", 2.0]))
    elif mutation == "arity":
        spec["t"] = 3 - t
    elif mutation == "ring":
        spec["ring"] = draw(st.sampled_from(["matrix", {"companion": []}, {"companion": {"n": 2}}]))
    elif mutation == "summand":
        spec["equations"][0]["summands"][0] = draw(st.sampled_from([[], "Q", {"P": []}]))
    elif mutation == "poly":
        bad = draw(st.sampled_from(["x", "1:", "1:0,0,0", "\uff11:0", "1:-1", "+", 7, None, []]))
        key = draw(st.sampled_from(["Q", "P", "poly_coeff"]))
        if key == "P":
            first["P"][0] = bad
        else:
            first[key] = bad
    elif mutation == "alphabet":
        # p^t letters past digits.MAX_LETTERS = 4096
        spec["t"] = {2: 13, 3: 8}[p]
        for eq in spec["equations"]:
            for sm in eq["summands"]:
                sm.pop("poly_coeff", None)
                sm["P"] = [elem() for _ in range(spec["t"])]
    return spec, mutation


def run_quietly(*argv):
    """cli.main's exit status with its output swallowed; argparse's exits count too."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(list(argv))
        except SystemExit as exc:
            return exc.code


@settings(max_examples=60, deadline=None)
@given(cli_specs())
def test_random_specs_end_in_an_exit_status(case):
    spec, mutation = case
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "spec.json")
        pathlib.Path(path).write_text(json.dumps(spec))
        code = run_quietly("build", path, "--state-cap", "300")
        assert code in (0, 1, 2, 3)
        if mutation == "alphabet":
            assert code == 3
        if code == 0:
            assert run_quietly("verify", path, "--max-len", "2", "--state-cap", "300") == 0
            # the pre-initial state reaches at least one more state
            assert run_quietly("build", path, "--state-cap", "1") == 3
            # p^t >= 2 letters: far more than either word cap up to length 40
            assert run_quietly("enum", path, "--max-len", "40") == 3
            assert run_quietly("verify", path, "--max-len", "40", "--state-cap", "300") == 3
