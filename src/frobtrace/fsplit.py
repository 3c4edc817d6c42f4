"""F-splitting checks.

For a hypersurface cone k[x_0..x_n]/(f) the splitting test at the
irrelevant ideal is: f^{p-1} must have a monomial with every exponent
at most p - 1 (equivalently f^{p-1} does not lie in the ideal m^[p] =
(x_0^p, ..., x_n^p) of p-th powers of the variables).  The verdict
refuses a zero or non-homogeneous f, and builds f^{p-1} modulo m^[p]
with the one power loop, ``pow(f, p - 1, p)``: m^[p] is a monomial
ideal, so each step of the power drops its terms with an exponent of p
or more, and every term that is left qualifies.  A positive verdict
carries such a monomial as a witness, which
:func:`verify_witness` certifies on its own: it reads the one witness
coefficient as a multinomial sum over the terms of f, and forms no
power and no product of polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add as _plus, gt as _above

from .poly import Poly, monomial_rank


@dataclass(frozen=True)
class FsplitVerdict:
    split: bool
    witness: tuple = None


def fedder_hypersurface(f: Poly) -> FsplitVerdict:
    """Splitting verdict for the cone over V(f), with a checkable witness:
    the first qualifying monomial of f^{p-1} in ``monomials_upto`` order."""
    if f.is_zero():
        raise ValueError("the hypersurface polynomial must be nonzero")
    if not f.is_homogeneous():
        raise ValueError("the polynomial must be homogeneous")
    p = f.field.p
    # f^{p-1} modulo m^[p] = (x_0^p, ..., x_n^p): every term kept qualifies
    good = pow(f, p - 1, p).codes
    if not good:
        return FsplitVerdict(split=False)
    return FsplitVerdict(split=True, witness=min(good, key=monomial_rank))


def _witness_coefficient(f: Poly, witness: tuple) -> int:
    """The int code of the coefficient of x^witness in f^{p-1}.

    With f = sum_i c_i x^{m_i} it is (p-1)! sum prod_i c_i^{k_i} / k_i!
    over the counts k with sum_i k_i = p - 1 and sum_i k_i m_i = witness,
    and (p-1)! = -1 mod p (Wilson).  The sum is built term by term in a
    dict from (partial exponent, count so far) to an int code; a state
    whose exponent exceeds the witness anywhere is dropped."""
    field = f.field
    mul, add = field._mul, field._add
    n = field.p - 1
    inverses = [field._pow(k, -1) for k in range(1, n + 1)]
    states = {((0,) * f.nvars, 0): 1}
    for mono, c in f.codes.items():
        # steps[j] = c / (j + 1) takes c^j / j! to c^{j+1} / (j+1)!
        steps = [mul(c, inv) for inv in inverses]
        grown = dict(states)  # the states that take no copy of this term
        get = grown.get
        for (exps, count), v in states.items():
            for step in steps[:n - count]:
                exps = tuple(map(_plus, exps, mono))
                if any(map(_above, exps, witness)):
                    break
                count += 1
                v = mul(v, step)
                grown[exps, count] = add(get((exps, count), 0), v)
        states = grown
    return field._neg(states.get((witness, n), 0))


def verify_witness(f: Poly, witness: tuple) -> bool:
    """Does the witness qualify, with every exponent in [0, p), and have a
    nonzero coefficient in f^{p-1}?  The coefficient is read directly from
    the terms of f, independently of the power loop that found it."""
    p = f.field.p
    witness = tuple(witness)
    if len(witness) != f.nvars or not all(0 <= e < p for e in witness):
        return False
    return bool(_witness_coefficient(f, witness))
