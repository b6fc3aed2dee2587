"""Equations whose coefficients mention the unknown, and systems of them.

n * theta^n = 0 over F_2[theta] holds exactly when n is even (the integer
coefficient is read mod 2).  Such coefficients are handled by peeling the
last digit: for each possible final digit the coefficient is specialized,
the remaining digits obey a plain equation, and the first digit read picks
which one.  A system is decided by one exploration over all its equations
at once; its language is the intersection of the per-equation languages.
"""

from edesolver import (
    Poly,
    PrimeField,
    Summand,
    SystemSpec,
    solve_system,
)
from edesolver.systems import equation_language, peel_last_digits

F2 = PrimeField(2)
theta = Poly.variable(F2, 1, 0)
one = Poly.one(F2, 1)
n_var = Poly.variable(F2, 1, 0)  # coefficient ring: one variable per unknown

even = SystemSpec(
    F2, r=1, t=1, companion=None,
    equations=((Summand(coeff=n_var, q=one, bases=(theta,)),),),
)

aut = solve_system(even)
values = sorted({w.decode()[0] for w in aut.enumerate_words(4)})
print("n * theta^n = 0  holds for n =", values)

# what the peeling actually produced: one residual equation per last digit
for prefix, (ede,) in peel_last_digits(even):
    print(f"  last digit {prefix}: residual q = ({', '.join(map(str, ede.q))})")

# a second equation, theta^n + 1 = 0, forces n = 0; the system keeps only
# the intersection
second = (
    Summand(coeff=None, q=one, bases=(theta,)),
    Summand(coeff=None, q=one, bases=(one,)),
)
system = SystemSpec(F2, 1, 1, None, (even.equations[0], second))
both = solve_system(system)
print("system adds theta^n + 1 = 0; solutions:",
      sorted({w.decode()[0] for w in both.enumerate_words(4)}))

# the system machine and the meet of the per-equation machines accept the
# same language; after minimization both have the same canonical shape
meet = equation_language(system, system.equations[0]).intersect(
    equation_language(system, system.equations[1])
)
a, b = both.minimize(), meet.minimize()
print("same language as the intersection:",
      a.transitions == b.transitions and a.finals == b.finals)
