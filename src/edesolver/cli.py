"""Command line front end.

Subcommands: build, check, enum, verify, solvable.  Exit codes: 0 for
success (solvable / is a solution / no mismatches), 1 for the negative
outcome, 2 for unreadable input, 3 for a blown resource cap.

Spec files are JSON:

    {
      "p": 2, "r": 1, "t": 1,
      "ring": "scalar",
      "equations": [
        {"summands": [
          {"poly_coeff": "1:1", "Q": "1:0", "P": ["1:1"]}
        ]}
      ]
    }

Polynomials are text in the form "coeff:e1,..,er" joined by " + " ("0" for
zero); "poly_coeff" is optional and written in the t unknowns.  For a
companion ring replace "ring" by
    {"companion": {"n": 2, "rho": "1:0", "minpoly_numerators": ["1:1", "1:0"]}}
and give "Q" and each "P" entry as a list of coefficient polynomials,
lowest xi power first.  A key outside this schema is refused, as is an
empty list of equations or of summands.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import fsa, oracle, systems
from .companion import CompanionSpec
from .digits import MAX_LETTERS, DigitWord, alphabet, count_words
from .errors import CapacityError, SingularConjugatorError, SpecFileError, StructureError
from .gfpoly import Poly, PrimeField, parse_int, parse_poly
from .systems import Summand, SystemSpec

ENUM_WORD_CAP = 1_000_000


def _fail(path: str, message: str):
    raise SpecFileError(f"{path}: {message}")


def _get(obj: dict, key: str, kind, path: str):
    if key not in obj:
        _fail(f"{path}.{key}", "missing")
    val = obj[key]
    if kind is int and (not isinstance(val, int) or isinstance(val, bool)):
        _fail(f"{path}.{key}", f"expected an integer, got {val!r}")
    if kind in (dict, list, str) and not isinstance(val, kind):
        _fail(f"{path}.{key}", f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _known(obj: dict, keys: tuple, path: str):
    for key in obj:
        if key not in keys:
            _fail(f"{path}.{key}", f"unknown key, expected one of {', '.join(keys)}")


def _poly(text, field, num_vars, path: str) -> Poly:
    if not isinstance(text, str):
        _fail(path, f"expected a polynomial string, got {type(text).__name__}")
    try:
        return parse_poly(text, field, num_vars)
    except StructureError as exc:
        _fail(path, str(exc))


def _xi_coeffs(val, field, r, path: str) -> tuple:
    if not isinstance(val, list) or not val:
        _fail(path, "expected a nonempty list of coefficient polynomials")
    return tuple(_poly(c, field, r, f"{path}[{i}]") for i, c in enumerate(val))


def parse_spec(obj: dict, origin: str = "spec") -> SystemSpec:
    """Validated SystemSpec from a decoded JSON object."""
    if not isinstance(obj, dict):
        _fail(origin, "top level must be an object")
    _known(obj, ("p", "r", "t", "ring", "equations"), origin)
    p = _get(obj, "p", int, origin)
    r = _get(obj, "r", int, origin)
    t = _get(obj, "t", int, origin)
    for key, val in (("r", r), ("t", t)):
        if val < 1:
            _fail(f"{origin}.{key}", f"expected a positive integer, got {val}")
    if p > MAX_LETTERS:  # before the primality test, which trial-divides
        raise CapacityError(f"{origin}.p: p = {p} gives at least p letters, over the letter cap of {MAX_LETTERS}")
    try:
        field = PrimeField(p)
    except StructureError as exc:
        _fail(f"{origin}.p", str(exc))
    ring = obj.get("ring", "scalar")
    comp = None
    if ring != "scalar":
        if not isinstance(ring, dict) or "companion" not in ring:
            _fail(f"{origin}.ring", 'expected "scalar" or {"companion": {...}}')
        _known(ring, ("companion",), f"{origin}.ring")
        cobj = ring["companion"]
        if not isinstance(cobj, dict):
            _fail(f"{origin}.ring.companion", f"expected an object, got {type(cobj).__name__}")
        _known(cobj, ("n", "rho", "minpoly_numerators"), f"{origin}.ring.companion")
        n = _get(cobj, "n", int, f"{origin}.ring.companion")
        rho = _poly(
            _get(cobj, "rho", str, f"{origin}.ring.companion"),
            field, r, f"{origin}.ring.companion.rho",
        )
        nums = _get(cobj, "minpoly_numerators", list, f"{origin}.ring.companion")
        numerators = tuple(
            _poly(s, field, r, f"{origin}.ring.companion.minpoly_numerators[{i}]")
            for i, s in enumerate(nums)
        )
        try:
            comp = CompanionSpec(field, r, n, rho, numerators)
        except StructureError as exc:
            _fail(f"{origin}.ring.companion", str(exc))
    eqs_obj = _get(obj, "equations", list, origin)
    if not eqs_obj:
        _fail(f"{origin}.equations", "need at least one equation")
    equations = []
    for e, eq in enumerate(eqs_obj):
        eq_path = f"{origin}.equations[{e}]"
        if not isinstance(eq, dict):
            _fail(eq_path, "expected an object")
        _known(eq, ("summands",), eq_path)
        sm_objs = _get(eq, "summands", list, eq_path)
        if not sm_objs:
            _fail(f"{eq_path}.summands", "need at least one summand")
        summands = []
        for i, sm in enumerate(sm_objs):
            sm_path = f"{eq_path}.summands[{i}]"
            if not isinstance(sm, dict):
                _fail(sm_path, "expected an object")
            _known(sm, ("poly_coeff", "Q", "P"), sm_path)
            coeff = None
            if "poly_coeff" in sm and sm["poly_coeff"] is not None:
                coeff = _poly(sm["poly_coeff"], field, t, f"{sm_path}.poly_coeff")
            q_val = sm.get("Q")
            if q_val is None:
                _fail(f"{sm_path}.Q", "missing")
            p_val = sm.get("P")
            if not isinstance(p_val, list) or len(p_val) != t:
                _fail(f"{sm_path}.P", f"expected a list of {t} bases")
            elem = _poly if comp is None else _xi_coeffs
            q = elem(q_val, field, r, f"{sm_path}.Q")
            bases = tuple(elem(b, field, r, f"{sm_path}.P[{k}]") for k, b in enumerate(p_val))
            summands.append(Summand(coeff, q, bases))
        equations.append(tuple(summands))
    spec = SystemSpec(field, r, t, comp, tuple(equations))  # every check it makes is made above
    try:
        spec.conjugator  # a singular C' is bad input; the build reuses this one
    except SingularConjugatorError as exc:
        _fail(f"{origin}.ring.companion", str(exc))
    return spec


def load_spec(path: str) -> SystemSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"{path}: not UTF-8 text: byte {exc.start} is 0x{exc.object[exc.start]:02x}") from exc
    except RecursionError as exc:
        raise SpecFileError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # after its subclasses above: an integer over Python's digit limit
        raise SpecFileError(f"{path}: an integer has more than {sys.get_int_max_str_digits()} digits") from exc
    return parse_spec(obj, origin=path)


def _parse_tuple(text: str, t: int) -> tuple:
    try:
        values = tuple(parse_int(v) for v in text.split(","))
    except ValueError as exc:
        raise SpecFileError(f"--tuple {text!r} is not a comma-joined integer tuple") from exc
    if len(values) != t:
        raise SpecFileError(f"--tuple has {len(values)} components, equation has t={t}")
    if any(v < 0 for v in values):
        raise SpecFileError("--tuple components must be naturals")
    return values


def _integer(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError as exc:  # argparse would print this function's name for a ValueError
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _natural(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is below 1")
    return value


def cmd_build(args) -> int:
    spec = load_spec(args.spec)
    # exported machines are canonical artifacts, so shrink them first
    aut = systems.solve_system(spec, args.state_cap).minimize()
    sys.stdout.write(aut.to_dot() if args.out == "dot" else aut.to_json())
    return 0


def cmd_check(args) -> int:
    spec = load_spec(args.spec)
    values = _parse_tuple(args.tuple, spec.t)
    aut = systems.solve_system(spec, args.state_cap)
    word = DigitWord.encode(values, spec.field.p, spec.t)
    if aut.accepts(word):
        print("solution")
        return 0
    print("not a solution")
    return 1


def cmd_enum(args) -> int:
    spec = load_spec(args.spec)
    count_words(len(alphabet(spec.field.p, spec.t)), args.max_len, ENUM_WORD_CAP)
    aut = systems.solve_system(spec, args.state_cap)
    seen = set()
    for word in aut.enumerate_words(args.max_len):
        seen.add(word.decode())
    for values in sorted(seen):
        print(",".join(str(v) for v in values))
    return 0


def _default_max_len(spec: SystemSpec) -> int:
    return 4 if spec.companion is None else 3


def cmd_verify(args) -> int:
    spec = load_spec(args.spec)
    max_len = args.max_len if args.max_len is not None else _default_max_len(spec)
    # compare counts the words too, but only after a build that a blown cap wastes
    count_words(len(alphabet(spec.field.p, spec.t)), max_len, oracle.DEFAULT_WORD_CAP)
    aut = systems.solve_system(spec, args.state_cap)
    report = oracle.compare(spec, aut, max_len)
    sys.stdout.write(report.to_json())
    return 0 if report.ok else 1


def cmd_solvable(args) -> int:
    spec = load_spec(args.spec)
    aut = systems.solve_system(spec, args.state_cap)
    if aut.is_empty():
        print("no")
        return 1
    print("yes")
    return 0


@functools.cache  # one parser per process; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edesolver",
        description="Decide exponential equations over F_p[x..] by digit automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("spec", help="path to a JSON equation spec")
        sp.add_argument(
            "--state-cap", type=_positive, default=fsa.DEFAULT_STATE_CAP,
            help="max automaton states (default: %(default)s)",
        )

    sp = sub.add_parser("build", help="print the solution automaton")
    common(sp)
    sp.add_argument("--out", choices=("json", "dot"), default="json")
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("check", help="test one exponent tuple")
    common(sp)
    sp.add_argument("--tuple", required=True, help='comma-joined naturals, e.g. "3,5"')
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("enum", help="list solution tuples up to a word length")
    common(sp)
    sp.add_argument("--max-len", type=_natural, default=4)
    sp.set_defaults(func=cmd_enum)

    sp = sub.add_parser("verify", help="cross-check the automaton against brute force")
    common(sp)
    sp.add_argument("--max-len", type=_natural, default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("solvable", help="report whether any solution exists")
    common(sp)
    sp.set_defaults(func=cmd_solvable)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecFileError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
