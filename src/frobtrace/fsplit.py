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
power and no product of polynomials.  Both work on packed monomials
(:mod:`frobtrace.poly`); only the witness itself is unpacked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import _GUARD, Poly, _ones, pack, unpack


@dataclass(frozen=True)
class FsplitVerdict:
    split: bool
    witness: tuple = None


def fedder_hypersurface(f: Poly) -> FsplitVerdict:
    """Splitting verdict for the cone over V(f), with a checkable witness:
    the first qualifying monomial of f^{p-1} in ``monomials_upto`` order.
    f^{p-1} is homogeneous, and within one degree that order is
    descending in the exponent tuples, so the witness is the largest
    packed monomial."""
    if f.is_zero():
        raise ValueError("the hypersurface polynomial must be nonzero")
    if not f.is_homogeneous():
        raise ValueError("the polynomial must be homogeneous")
    p = f.field.p
    # f^{p-1} modulo m^[p] = (x_0^p, ..., x_n^p): every term kept qualifies
    good = pow(f, p - 1, p).codes
    if not good:
        return FsplitVerdict(split=False)
    return FsplitVerdict(split=True, witness=unpack(max(good), f.nvars))


def _witness_coefficient(f: Poly, witness: int) -> int:
    """The int code of the coefficient of the packed monomial ``witness``,
    every exponent below p, in f^{p-1}.

    With f = sum_i c_i x^{m_i} it is (p-1)! sum prod_i c_i^{k_i} / k_i!
    over the counts k with sum_i k_i = p - 1 and sum_i k_i m_i = witness,
    and (p-1)! = -1 mod p (Wilson).  A term with an exponent above the
    witness takes no part.  The sum is built term by term in a dict from
    (packed partial exponent a, count so far) to an int code, and a state
    is kept only while the r = p - 1 - count copies still to place can
    complete it from the terms still to come: for each variable j,
    r * lo_j <= w_j - a_j <= r * hi_j, with lo and hi the least and
    largest exponents over those terms.  w - a is held biased by the
    guard bits, which stay set while a <= w, and each side of the bound
    is one more guard-bit test on it."""
    field, nvars = f.field, f.nvars
    mul, add = field._mul, field._add
    n = field.p - 1
    inverses = [field._pow(k, -1) for k in range(1, n + 1)]
    guards = _GUARD * _ones(nvars)
    high, wg = guards << 1, witness | guards
    terms = [(m, c) for m, c in f.codes.items() if (wg - m) & guards == guards]
    # bounds[i]: the packed (lo, hi) over terms[i:], fieldwise; all below p
    bounds = [(0, 0)] * (len(terms) + 1)
    lo = hi = None
    for i in range(len(terms) - 1, -1, -1):
        m = terms[i][0]
        if lo is None:
            lo = hi = m
        else:  # d is a difference biased by the guards; where its guard
            # bit stayed set the difference is not negative, and the mask
            # keeps it there: hi = max(hi, m) and lo = min(lo, m), fieldwise
            d = (hi | guards) - m
            hi = m + (d & (d & guards) // _GUARD * (_GUARD - 1))
            d = (m | guards) - lo
            lo = m - (d & (d & guards) // _GUARD * (_GUARD - 1))
        bounds[i] = lo, hi
    states = {(0, 0): 1}
    for i, (mono, c) in enumerate(terms):
        lo, hi = bounds[i + 1]
        # steps[j] = c / (j + 1) takes c^j / j! to c^{j+1} / (j+1)!; the
        # last step is never taken
        steps = [mul(c, inv) for inv in inverses] + [0]
        grown = {}
        get = grown.get
        for (exps, count), v in states.items():
            left = wg - exps  # (w - exps) | guards
            for step in steps[:n - count + 1]:  # no copy of this term, then one more each
                r = n - count
                if (left - r * lo) & guards == guards and \
                        (r * hi + high - left) & guards == guards:
                    grown[exps, count] = add(get((exps, count), 0), v)
                left -= mono
                if left & guards != guards:
                    break
                exps += mono
                count += 1
                v = mul(v, step)
        states = grown
    return field._neg(states.get((witness, n), 0))


def verify_witness(f: Poly, witness: tuple) -> bool:
    """Does the witness qualify, with every exponent in [0, p), and have a
    nonzero coefficient in f^{p-1}?  The coefficient is read directly from
    the terms of f, independently of the power loop that found it."""
    p = f.field.p
    witness = tuple(witness)
    if len(witness) != f.nvars or not all(isinstance(e, int) and 0 <= e < p for e in witness):
        return False
    return bool(_witness_coefficient(f, pack(witness)))
