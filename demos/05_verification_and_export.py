"""Trust, but verify: the built machine against brute-force substitution.

`compare` checks every digit word up to a length: it evaluates the
equation literally at every word of the longest length, letter by letter
in word order (plain products, no sections anywhere), and diffs that
against the automaton's verdicts.  The report is plain JSON, as are the
exported machines, and both are byte-stable across runs.
"""

import random

from edesolver import (
    Poly,
    PrimeField,
    ScalarEde,
    build_automaton,
    compare,
    evaluate,
)

rng = random.Random(99)
F3 = PrimeField(3)


def random_poly(num_vars=1, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, max_deg) for _ in range(num_vars))
        terms[e] = rng.randint(1, 2)
    return Poly(F3, num_vars, terms)


ede = ScalarEde(
    F3, r=1, t=1,
    q=tuple(random_poly() for _ in range(2)),
    bases=tuple((random_poly(),) for _ in range(2)),
)
print("equation summands:")
for q, (p1,) in zip(ede.q, ede.bases):
    print(f"  ({q}) * ({p1})^n")

aut = build_automaton(ede)
report = compare(ede, aut, max_len=4)
print(f"checked {report.checked} words, mismatches: {len(report.mismatches)}")
print(report.to_json())

# what the oracle actually computes for one candidate
n = 4
print(f"left-hand side at n = {n}:", evaluate(ede, (n,)))

# exports are deterministic: building twice gives identical bytes
again = build_automaton(ede)
print("byte-identical rebuild:", again.to_json() == aut.to_json())
