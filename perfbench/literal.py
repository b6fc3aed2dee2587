"""Dict polynomials over F_p and a literal evaluator for scalar-ring equations.

This module shares no code with ``edesolver``.  A polynomial is a dict from
exponent tuples to coefficients in [1, p).  ``solves`` multiplies out
``sum_i coeff_i(n) * Q_i * prod_k P_ik^{n_k}`` term by term, with powers by
repeated squaring and no sections, so a check built on it does not agree
with the program merely because both call the same oracle code.
"""

from __future__ import annotations


def parse(text: str, num_vars: int) -> dict:
    """Read the spec-file form "c:e1,..,er + c:e1,..,er" ("0" is zero)."""
    out: dict = {}
    text = text.strip()
    if text in ("", "0"):
        return out
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if chunk == "0":
            continue
        head, _, tail = chunk.partition(":")
        exps = tuple(int(e) for e in tail.split(",")) if tail else ()
        if len(exps) != num_vars:
            raise ValueError(f"term {chunk!r} has {len(exps)} exponents, expected {num_vars}")
        out[exps] = out.get(exps, 0) + int(head)
    return out


def reduce(poly: dict, p: int) -> dict:
    return {e: c % p for e, c in poly.items() if c % p}


def format_text(poly: dict) -> str:
    """Inverse of :func:`parse`, terms in descending exponent order."""
    if not poly:
        return "0"
    return " + ".join(
        f"{poly[e]}:" + ",".join(str(x) for x in e) for e in sorted(poly, reverse=True)
    )


def mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = (out.get(key, 0) + ca * cb) % p
    return {e: c for e, c in out.items() if c}


def power(a: dict, n: int, p: int, num_vars: int) -> dict:
    result = {(0,) * num_vars: 1}
    base = a
    while n:
        if n & 1:
            result = mul(result, base, p)
        n >>= 1
        if n:
            base = mul(base, base, p)
    return result


def value_at(poly: dict, point, p: int) -> int:
    """Integer value of a polynomial in the unknowns, reduced mod p."""
    total = 0
    for exps, c in poly.items():
        term = c
        for x, k in zip(point, exps):
            term *= x**k
        total += term
    return total % p


class ScalarSystem:
    """Equations over F_p[theta_1..theta_r] in t unknowns, as dict polynomials.

    ``equations`` is a list of equations, each a list of summands
    ``(coeff, q, bases)``: ``coeff`` is None or a dict polynomial in the t
    unknowns, ``q`` and every entry of ``bases`` dict polynomials in theta.
    """

    def __init__(self, p: int, r: int, t: int, equations):
        self.p, self.r, self.t = p, r, t
        self.equations = equations

    @classmethod
    def from_spec_json(cls, obj: dict) -> "ScalarSystem":
        p, r, t = obj["p"], obj["r"], obj["t"]
        if obj.get("ring", "scalar") != "scalar":
            raise ValueError("not a scalar-ring spec")
        equations = []
        for eq in obj["equations"]:
            summands = []
            for sm in eq["summands"]:
                coeff = sm.get("poly_coeff")
                summands.append((
                    None if coeff is None else reduce(parse(coeff, t), p),
                    reduce(parse(sm["Q"], r), p),
                    [reduce(parse(b, r), p) for b in sm["P"]],
                ))
            equations.append(summands)
        return cls(p, r, t, equations)

    @classmethod
    def from_terms(cls, p: int, r: int, t: int, q_terms, base_terms) -> "ScalarSystem":
        """One coefficient-free equation from raw term dicts."""
        summands = [(None, dict(q), [dict(b) for b in row]) for q, row in zip(q_terms, base_terms)]
        return cls(p, r, t, [summands])

    def solves(self, values) -> bool:
        """Whether every equation vanishes at the exponent tuple ``values``."""
        p, r = self.p, self.r
        for summands in self.equations:
            total: dict = {}
            for coeff, q, bases in summands:
                c = 1 if coeff is None else value_at(coeff, values, p)
                if not c:
                    continue
                term = {e: v * c % p for e, v in q.items()}
                for base, n in zip(bases, values):
                    term = mul(term, power(base, n, p, r), p)
                for e, v in term.items():
                    total[e] = (total.get(e, 0) + v) % p
            if any(total.values()):
                return False
        return True
