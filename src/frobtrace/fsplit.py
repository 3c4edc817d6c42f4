"""F-splitting checks.

For a hypersurface cone k[x_0..x_n]/(f) the splitting test at the
irrelevant ideal is: f^{p-1} must have a monomial with every exponent
at most p - 1 (equivalently f^{p-1} does not lie in the ideal of p-th
powers of the variables).  A positive verdict carries that monomial as a
witness, which :func:`verify_witness` re-checks against an independently
recomputed power.

Projective space itself is F-split, so its trace maps on twisted
canonical sections are surjective; :func:`pn_trace_surjectivity` verifies
that directly at the matrix level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FiniteField
from .poly import Poly, grlex_key
from .projective import DivisorSpec, map_verdict, trace_matrix


@dataclass(frozen=True)
class FsplitVerdict:
    split: bool
    witness: tuple = None


def fedder_hypersurface(f: Poly) -> FsplitVerdict:
    """Splitting verdict for the cone over V(f), with a checkable witness.

    f^{p-1} is built by repeated sparse multiplication; the witness is the
    graded-lex smallest qualifying monomial.
    """
    if f.is_zero():
        raise ValueError("the hypersurface polynomial must be nonzero")
    p = f.field.p
    power = f
    for _ in range(p - 2):
        power = power * f
    good = [m for m in power.terms if all(e <= p - 1 for e in m)]
    if not good:
        return FsplitVerdict(split=False)
    return FsplitVerdict(split=True, witness=min(good, key=grlex_key))


def verify_witness(f: Poly, witness: tuple) -> bool:
    """Independently recompute f^{p-1} (square-and-multiply) and confirm the
    witness monomial qualifies with a nonzero coefficient."""
    p = f.field.p
    power = f ** (p - 1)
    coeff = power.terms.get(tuple(witness))
    return coeff is not None and bool(coeff) and all(e <= p - 1 for e in witness)


def pn_trace_surjectivity(n: int, k: int, p: int, e: int) -> bool:
    """Is Tr^e from omega(p^e kH) onto omega(kH) on P^n over F_p?

    Requires k >= n + 1 so the target space is nonzero.
    """
    if k < n + 1:
        raise ValueError(f"k = {k} gives a zero target space on P^{n}; need k >= {n + 1}")
    field = FiniteField(p)
    zero_div = DivisorSpec(field, n)
    hyperplanes = DivisorSpec(field, n, k=k)
    t = trace_matrix(zero_div, hyperplanes, e)
    return map_verdict(t).surjective
