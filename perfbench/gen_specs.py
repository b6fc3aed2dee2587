"""Seeded JSON spec files for the systems-cli workload.

    python3 perfbench/gen_specs.py --seed 7 --out DIR

writes ``DIR/<name>.json`` for every generated spec.  The same seed gives
byte-identical files.  Two kinds of spec are generated:

* ``rand-*``: RANDOM_SPECS scalar systems over F_2[theta] in one unknown,
  with 1-3 equations of 1-3 summands, fresh random coefficients of degree
  at most 1 and, on half the summands, a ``poly_coeff`` in ``n``.  Each
  costs a few milliseconds, so their random cost averages out over many.
* ``tpl-*``: the TEMPLATES below (companion rings over F_2 and F_3, t = 2,
  p = 3, two equations), each rewritten by the seed in ways that keep its
  solution set and the size of every automaton built for it: summands are
  shuffled, an equation is scaled by a unit of F_p, the two unknowns are
  swapped, the first two equations are swapped.  Fresh random coefficients
  here would make a round's cost swing by tens of percent from seed to seed.
"""

from __future__ import annotations

import argparse
import copy
import json
import random
from pathlib import Path

import literal

RANDOM_SPECS = 150

_C2 = {"n": 2, "rho": "1:0", "minpoly_numerators": ["1:1", "1:0"]}
_C3 = {"n": 3, "rho": "1:0", "minpoly_numerators": ["1:1", "1:0", "0"]}
_C2F3 = {"n": 2, "rho": "1:0", "minpoly_numerators": ["1:1", "0"]}

TEMPLATES = {
    "scalar-p3-t2": {"p": 3, "r": 1, "t": 2, "ring": "scalar", "equations": [
        {"summands": [
            {"Q": "1:1", "P": ["2:0", "1:0"]},
            {"poly_coeff": "1:0,0", "Q": "2:0", "P": ["1:1", "1:1"]}]}]},
    "scalar-p2-t2-2eq": {"p": 2, "r": 1, "t": 2, "ring": "scalar", "equations": [
        {"summands": [
            {"poly_coeff": "1:0,1 + 1:0,0", "Q": "1:1 + 1:0", "P": ["1:1 + 1:0", "1:1 + 1:0"]},
            {"poly_coeff": "1:0,0", "Q": "1:1 + 1:0", "P": ["1:1", "1:1 + 1:0"]}]},
        {"summands": [
            {"Q": "1:0", "P": ["1:0", "1:1"]},
            {"poly_coeff": "1:0,1 + 1:0,0", "Q": "1:0", "P": ["1:0", "1:0"]}]}]},
    "scalar-p3-t2-2eq": {"p": 3, "r": 1, "t": 2, "ring": "scalar", "equations": [
        {"summands": [
            {"poly_coeff": "1:1,0", "Q": "1:0", "P": ["1:0", "1:1"]}]},
        {"summands": [
            {"Q": "2:1 + 1:0", "P": ["2:0", "2:1"]},
            {"poly_coeff": "1:0,0", "Q": "1:1 + 2:0", "P": ["1:1", "2:0"]}]}]},
    "companion-n2-2eq": {"p": 2, "r": 1, "t": 1, "ring": {"companion": _C2}, "equations": [
        {"summands": [
            {"poly_coeff": "1:0", "Q": ["1:1 + 1:0"], "P": [["1:0"]]},
            {"poly_coeff": "1:1 + 1:0", "Q": ["1:1 + 1:0"], "P": [["1:0"]]}]},
        {"summands": [
            {"poly_coeff": "1:0", "Q": ["1:1 + 1:0"], "P": [["1:0"]]},
            {"poly_coeff": "1:0", "Q": ["1:1 + 1:0"], "P": [["1:0", "1:0"]]}]}]},
    "companion-n2-t2": {"p": 2, "r": 1, "t": 2, "ring": {"companion": _C2}, "equations": [
        {"summands": [
            {"poly_coeff": "1:0,0", "Q": ["1:1"], "P": [["1:0"], ["1:0"]]},
            {"poly_coeff": "1:1,0", "Q": ["1:1"], "P": [["1:0"], ["1:0", "1:0"]]}]}]},
    "companion-n3": {"p": 2, "r": 1, "t": 1, "ring": {"companion": _C3}, "equations": [
        {"summands": [
            {"poly_coeff": "1:0", "Q": ["1:0", "1:0", "1:0"], "P": [["1:0"]]},
            {"poly_coeff": "1:1", "Q": ["1:0", "1:0", "1:0"], "P": [["1:0"]]}]}]},
    "companion-n2-f3": {"p": 3, "r": 1, "t": 1, "ring": {"companion": _C2F3}, "equations": [
        {"summands": [
            {"poly_coeff": "2:0", "Q": ["1:1"], "P": [["1:0"]]},
            {"poly_coeff": "1:1 + 2:0", "Q": ["2:1"], "P": [["2:0"]]}]}]},
}


def random_poly(rng: random.Random, p: int, num_vars: int, max_deg: int = 1, max_terms: int = 2) -> str:
    """A nonzero polynomial in spec-file text form."""
    while True:
        terms: dict = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * num_vars
            for _ in range(rng.randint(0, max_deg)):
                exps[rng.randrange(num_vars)] += 1
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + rng.randint(1, p - 1)
        terms = literal.reduce(terms, p)
        if terms:
            return literal.format_text(terms)


def random_spec(rng: random.Random) -> dict:
    p, r, t = 2, 1, 1
    equations = []
    for _ in range(rng.randint(1, 3)):
        summands = []
        for _ in range(rng.randint(1, 3)):
            sm = {}
            if rng.random() < 0.5:
                sm["poly_coeff"] = random_poly(rng, p, t)
            sm["Q"] = random_poly(rng, p, r)
            sm["P"] = [random_poly(rng, p, r) for _ in range(t)]
            summands.append(sm)
        equations.append({"summands": summands})
    return {"p": p, "r": r, "t": t, "ring": "scalar", "equations": equations}


def _scale_text(text: str, c: int, p: int, num_vars: int) -> str:
    poly = literal.parse(text, num_vars)
    return literal.format_text(literal.reduce({e: v * c for e, v in poly.items()}, p))


def _swap_text(text: str) -> str:
    poly = literal.parse(text, 2)
    return literal.format_text({(e[1], e[0]): v for e, v in poly.items()})


def rewrite(template: dict, rng: random.Random) -> dict:
    """A spec with the template's solution set (up to swapping the unknowns)."""
    spec = copy.deepcopy(template)
    p, r, t = spec["p"], spec["r"], spec["t"]
    companion = spec["ring"] != "scalar"
    swap_unknowns = t == 2 and rng.random() < 0.5
    for eq in spec["equations"]:
        rng.shuffle(eq["summands"])
        unit = rng.randint(1, p - 1)
        for sm in eq["summands"]:
            if companion:
                sm["Q"] = [_scale_text(c, unit, p, r) for c in sm["Q"]]
            else:
                sm["Q"] = _scale_text(sm["Q"], unit, p, r)
            if swap_unknowns:
                sm["P"].reverse()
                if "poly_coeff" in sm:
                    sm["poly_coeff"] = _swap_text(sm["poly_coeff"])
    if len(spec["equations"]) >= 2 and rng.random() < 0.5:
        eqs = spec["equations"]
        eqs[0], eqs[1] = eqs[1], eqs[0]
    return spec


def generate(seed: int) -> list:
    """[(name, spec dict)] for one seed, in a fixed order."""
    rng = random.Random(seed)
    out = [(f"tpl-{name}", rewrite(tpl, rng)) for name, tpl in TEMPLATES.items()]
    out += [(f"rand-{i:03d}", random_spec(rng)) for i in range(RANDOM_SPECS)]
    return out


def write(seed: int, out_dir: Path) -> list:
    """Write the specs of one seed; returns their paths in generation order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, spec in generate(seed):
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(spec, indent=1) + "\n")
        paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for path in write(args.seed, args.out):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
