"""Decision procedures for exponential equations over F_p[x1..xr].

Equations of the shape sum_i Q_i * P_i1^n1 * .. * P_it^nt = 0 are decided
by compiling the solution set into a finite automaton over base-p digit
tuples of the exponents.  The same machinery covers coefficients that are
themselves matrices over a quotient ring F_p[x..][xi]/(m) via companion
matrices, and systems of several simultaneous equations whose summands
carry polynomial coefficients in the unknowns.
"""

from .companion import (
    CompanionSpec,
    MatrixEde,
    PolyMatrix,
    companion_matrix,
    conjugator,
    evaluate_at_companion,
)
from .digits import DigitWord, alphabet, digit_length
from .errors import (
    AlphabetError,
    CapacityError,
    SingularConjugatorError,
    SpecFileError,
    StructureError,
)
from .fsa import Automaton
from .gfpoly import Poly, PrimeField, format_poly, parse_poly, section_table
from .oracle import Mismatch, VerificationReport, compare, evaluate, is_solution
from .scalar import ScalarEde, build_automaton, degree_bound
from .systems import Summand, SystemSpec, peel_last_digits, solve_system

__version__ = "0.1.0"

__all__ = [
    "AlphabetError",
    "Automaton",
    "CapacityError",
    "CompanionSpec",
    "DigitWord",
    "MatrixEde",
    "Mismatch",
    "Poly",
    "PolyMatrix",
    "PrimeField",
    "ScalarEde",
    "SingularConjugatorError",
    "SpecFileError",
    "StructureError",
    "Summand",
    "SystemSpec",
    "VerificationReport",
    "alphabet",
    "build_automaton",
    "companion_matrix",
    "compare",
    "conjugator",
    "degree_bound",
    "digit_length",
    "evaluate",
    "evaluate_at_companion",
    "format_poly",
    "is_solution",
    "parse_poly",
    "peel_last_digits",
    "section_table",
    "solve_system",
    "__version__",
]
