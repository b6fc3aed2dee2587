"""Equations over a companion-matrix ring.

Adjoining a root of an irreducible separable polynomial to the fraction
field is modeled by its (denominator-cleared) companion matrix B'.  The
digit machinery carries over because of one identity: there is a matrix C'
over the polynomial ring with

    B'^p  C'  =  C'  B'(theta^p),

so a Frobenius layer can be pulled out of matrix powers too, at the price
of one extra C' factor per digit.
"""

from edesolver import (
    CompanionSpec,
    MatrixEde,
    Poly,
    PrimeField,
    build_automaton,
    companion_matrix,
    conjugator,
    is_solution,
)

F2 = PrimeField(2)
theta = Poly.variable(F2, 1, 0)
one = Poly.one(F2, 1)

# xi^2 + xi + theta: irreducible and separable over F_2(theta)
spec = CompanionSpec(F2, r=1, n=2, rho=one, numerators=(theta, one))
b = companion_matrix(spec)
print("B' =")
print(b)

cprime, sigma = conjugator(spec)
print("C' =")
print(cprime)
print("identity holds:", b**2 * cprime == cprime * b.frobenius())

# B'^n = B', i.e. B'^n + B' = 0 in characteristic 2
ident = b**0
ede = MatrixEde(spec, q=(ident, b), bases=((b,), (ident,)))
aut = build_automaton(ede)
sols = sorted({w.decode()[0] for w in aut.enumerate_words(5)})
print("B'^n = B' for n =", sols, "(with at most 5 digits)")
assert all(is_solution(ede, (n,)) for n in sols)

# an inseparable minimal polynomial has no conjugator, and the solver
# refuses it up front
from edesolver import SingularConjugatorError

bad = CompanionSpec(F2, 1, 2, one, (theta, Poly.zero(F2, 1)))  # xi^2 + theta
try:
    conjugator(bad)
except SingularConjugatorError as exc:
    print("xi^2 + theta rejected:", exc)
