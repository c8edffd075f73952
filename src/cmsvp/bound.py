"""Certified norm bounds for weighted-norm minimizers.

The central quantity: for each simplex vertex chain Delta_s build the k x k
matrix A whose j-th row is Sigma(v_j), the difference matrix B whose rows
are consecutive vertex differences, and the k minors B_l obtained by
deleting column l.  The bound for the simplex is

    | (det A / k)^k / prod_l det B_l |

and the reported bound is the maximum over all (k-1)! simplices.  Any
nonzero element whose weighted norm is minimal has field norm at most this
maximum, for every choice of positive weights.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .embeddings import _certified_numerators
from .errors import DegenerateSimplexError, InputError, PrecisionError, SimplexBudgetError
from .field import CMField, FieldElement, _det_bareiss, field_norm, is_prime, trace
from .interval import (
    DEFAULT_PRECISION,
    PrecisionConfig,
    RealInterval,
    climb,
    det_interval,
    interval_max,
    minor_intervals,
)
from .units import DeltaSet, UnitBasis, delta_sets

# (k-1)! = 720 at k = 7, which no field has (14 is not a totient): k <= 6
# runs (p = 13 in about 2 s on a 2-CPU x86-64 VM) and k >= 8 is refused
# before any simplex.
MAX_SIMPLICES = 720


class Verdict(enum.Enum):
    ALL_MINIMA_ARE_UNITS = "AllMinimaAreUnits"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SimplexData:
    """Certified determinant data for one simplex Delta_s."""

    perm: tuple[int, ...]
    vertices: tuple[FieldElement, ...]
    det_a: RealInterval
    det_b: tuple[RealInterval, ...]
    value: RealInterval


@dataclass(frozen=True)
class BoundReport:
    conductor: int
    k: int
    basis_provenance: str
    simplices: tuple[SimplexData, ...]
    bound: RealInterval
    ideal_norm: int | None = None
    ideal_bound: RealInterval | None = None
    verdict: Verdict | None = None


def simplex_data(
    field: CMField,
    delta: DeltaSet,
    prec: PrecisionConfig = DEFAULT_PRECISION,
    sigmas: dict | None = None,
) -> SimplexData:
    """Certified simplex data at the first rung of the precision ladder
    where its Sigma rows are certified and neither det A nor a minor
    determinant contains zero.

    A det A enclosure that contains zero is decided exactly: the chain's
    points beta_j = v_j conj(v_j) have the integer trace Gram
    G_ij = Tr(beta_i beta_j) = 2 (A A^T)_ij, so det G = 2^k det A^2, and
    det G = 0 raises DegenerateSimplexError at once.  Otherwise det A != 0
    and the enclosure is a precision miss, as is a minor's: the points then
    lie on the hyperplane sigma(omega) . x = 1 of an omega != 0 in K+, and
    Cramer's rule gives det B_l = +-det A sigma_l(omega) != 0.

    `sigmas` maps (bits, vertex coordinates) to a Sigma row's numerators
    over the cosine table's denominator, one per rung, so simplices that
    share a vertex evaluate Sigma once per rung; the determinants run on
    those integers.
    """
    sigmas = {} if sigmas is None else sigmas
    k = field.k

    def attempt(cur):
        rows = []
        for v in delta.vertices:
            key = (cur.bits, v.coords)
            if key not in sigmas:
                sigmas[key] = _certified_numerators(field.conductor, v.times_conj().coords, cur)
            den, row = sigmas[key]
            rows.append(row)
        det_a = det_interval(den, rows)
        if det_a.contains_zero():
            betas = [v.times_conj() for v in delta.vertices]
            if _det_bareiss([[trace(x * y) for y in betas] for x in betas]) == 0:
                raise DegenerateSimplexError(delta.perm)
            raise PrecisionError(
                f"simplex_data: det A for permutation {delta.perm} contains zero at {cur.bits} bits"
            )
        # [c, d] - [a, b] = [c - b, d - a], over the same denominator
        diff = [[(c - b, d - a) for (a, b), (c, d) in zip(lower, upper)] for lower, upper in zip(rows, rows[1:])]
        det_bs = minor_intervals(den, diff)
        zero = [l for l, db in enumerate(det_bs) if db.contains_zero()]
        if zero:
            raise PrecisionError(
                f"simplex_data: minor {zero[0]} for permutation {delta.perm} contains zero at {cur.bits} bits"
            )
        # |(det A / k)^k / prod_l det B_l|, each enclosure sign-definite and
        # appearing once: the ends are the extreme magnitudes
        a_min = min(abs(det_a.lo), abs(det_a.hi))
        a_max = max(abs(det_a.lo), abs(det_a.hi))
        b_min = prod(min(abs(b.lo), abs(b.hi)) for b in det_bs)
        b_max = prod(max(abs(b.lo), abs(b.hi)) for b in det_bs)
        value = RealInterval(a_min**k / (k**k * b_max), a_max**k / (k**k * b_min))
        return SimplexData(delta.perm, delta.vertices, det_a, tuple(det_bs), value)

    return climb(prec, attempt)


def theorem_bound(
    field: CMField, basis: UnitBasis, prec: PrecisionConfig = DEFAULT_PRECISION
) -> BoundReport:
    """The certified norm bound: max over all simplices of the simplex value.

    The (k-1)! vertex chains share 2^(k-1) distinct vertices, and Sigma is
    evaluated once per vertex.  More than MAX_SIMPLICES simplices raise
    SimplexBudgetError before any is built.
    """
    count = factorial(len(basis.generators))
    if count > MAX_SIMPLICES:
        raise SimplexBudgetError(count, MAX_SIMPLICES)
    sigmas = {}
    simplices = tuple(simplex_data(field, d, prec, sigmas) for d in delta_sets(basis))
    bound = interval_max(s.value for s in simplices)
    return BoundReport(
        conductor=field.conductor,
        k=field.k,
        basis_provenance=basis.provenance,
        simplices=simplices,
        bound=bound,
    )


def ideal_bound(
    field: CMField,
    basis: UnitBasis,
    kappa: FieldElement,
    prec: PrecisionConfig = DEFAULT_PRECISION,
) -> BoundReport:
    """Norm bound for minimal vectors of the principal ideal (kappa):
    the theorem bound scaled by N(kappa)."""
    if kappa.is_zero():
        raise InputError("ideal generator must be nonzero")
    base = theorem_bound(field, basis, prec)
    n_kappa = field_norm(kappa)
    return dataclasses.replace(base, ideal_norm=n_kappa, ideal_bound=base.bound * Fraction(n_kappa))


def norm_gap_verdict(report: BoundReport, p: int) -> Verdict:
    """AllMinimaAreUnits when the certified upper end of the bound is < p.

    For prime conductor p, nonzero elements of Z[zeta_p] have field norm 1
    or >= p, so a bound below p forces every minimal vector to be a unit.
    """
    if not is_prime(p):
        raise InputError("the norm-gap argument needs a prime conductor")
    if report.bound.less_than(p):
        return Verdict.ALL_MINIMA_ARE_UNITS
    return Verdict.INCONCLUSIVE


def with_verdict(report: BoundReport, verdict: Verdict) -> BoundReport:
    return dataclasses.replace(report, verdict=verdict)
