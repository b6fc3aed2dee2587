"""One equation, one machine: theta^n + theta = 0 over F_2[theta].

The solver turns the equation into a DFA over digit letters whose accepted
words are exactly the base-2 spellings of solutions.  For this equation the
answer is n = 1, and the machine says so: it accepts 1 followed by any
number of zero digits.
"""

from edesolver import Poly, PrimeField, ScalarEde, build_automaton, is_solution

F2 = PrimeField(2)
theta = Poly.variable(F2, 1, 0)
one = Poly.one(F2, 1)

# summands: 1 * theta^n  and  theta * 1^n
ede = ScalarEde(F2, r=1, t=1, q=(one, theta), bases=((theta,), (one,)))

aut = build_automaton(ede)
print(f"{aut.num_states} states, finals {sorted(aut.finals)}")

solutions = sorted({w.decode()[0] for w in aut.enumerate_words(6)})
print("solutions with at most 6 digits:", solutions)

# cross-check by direct substitution
for n in range(8):
    assert is_solution(ede, (n,)) == (n in solutions)
print("direct substitution agrees for n < 8")

# the machine itself, ready for graphviz
print()
print(aut.minimize().to_dot())
