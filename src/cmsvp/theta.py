"""Theta-series counting and the truncated psi function with certified tails.

The psi function is evaluated on the purely imaginary diagonal ray: with
positive weights x and parameter t > 0 it is the sum of exp(-pi t q(alpha))
over all alpha in O_F, q the weighted norm.  Truncation at radius R leaves a
tail that is bounded by a geometric comparison: the number of lattice points
with q <= s is at most (2 sqrt(s/delta) + 1)^d for the smallest LDL pivot
delta of a reduced Gram of q, or r times that of a lower form q_omega with
q >= r q_omega, and for R >= delta with R + 1 >= d/(pi t) the slab sums
telescope into

    tail(R) <= 3^d ((R+1)/delta)^(d/2) e^(-pi t R) / (1 - e^(-pi t / 2)).

Every reported figure is an enclosure of the true infinite sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log

from . import lattice
from .embeddings import normalize_weights
from .errors import BudgetExceededError, InputError, SelfTestError
from .field import CMField
from .interval import (
    DEFAULT_PRECISION,
    MAX_EXPONENT_BITS,
    PrecisionConfig,
    RealInterval,
    climb,
    exp_interval,
    exp_sum,
    interval_json,
    log_interval,
    pi_interval,
    ratio_of_products,
    root_interval,
)
from .svp import GramMatrix, _gram, _minimal_vectors, basis_minimum, superset_search

TAIL_REL = Fraction(1, 2**40)
MAX_RADIUS_STEPS = 200


@dataclass(frozen=True)
class ThetaPrefix:
    """Exact vector counts by norm, reported on an integer grid.

    A coefficient entry (m, count) stands for norm value m * scale; scale is
    the reciprocal of the least common denominator of the Gram entries.
    """

    scale: Fraction
    coefficients: tuple[tuple[int, int], ...]

    def norm_counts(self) -> dict:
        return {self.scale * m: c for m, c in self.coefficients}

    def to_json(self) -> dict:
        return {
            "scale": str(self.scale),
            "coefficients": [[m, c] for m, c in self.coefficients],
        }


@dataclass(frozen=True)
class PsiSample:
    """One truncated psi (or theta-sum) evaluation with a certified tail."""

    weights: tuple | None
    t: Fraction
    radius: Fraction
    value: RealInterval
    tail: RealInterval

    def enclosure(self) -> RealInterval:
        return RealInterval(self.value.lo, self.value.hi + self.tail.hi)

    def to_json(self) -> dict:
        out = {
            "t": str(self.t),
            "value": interval_json(self.value),
            "tail": interval_json(self.tail),
        }
        if self.weights is not None:
            out["weights"] = [
                interval_json(w) if isinstance(w, RealInterval) else str(w)
                for w in self.weights
            ]
        return out


def theta_prefix(
    g: GramMatrix, max_norm, budget: int = lattice.DEFAULT_BUDGET
) -> ThetaPrefix:
    """Exact (norm, count) table of a rational Gram up to max_norm, on the
    grid of its reduction's scale s: the lcm of the Gram's denominators."""
    if not g.exact:
        raise InputError("theta counting needs an exact-rational Gram")
    max_norm = Fraction(max_norm)
    if max_norm < 0:
        raise InputError("max_norm must be nonnegative")
    s = g.reduction.s
    counts = lattice.theta_counts(g.reduction, max_norm, budget)
    return ThetaPrefix(Fraction(1, s), tuple((int(q * s), c) for q, c in counts))


def same_counts(a: ThetaPrefix, b: ThetaPrefix) -> bool:
    """Scale-independent equality of two theta tables."""
    return a.norm_counts() == b.norm_counts()


def _pow_half(x: RealInterval, d: int, bits: int) -> RealInterval:
    if d % 2 == 0:
        return x ** (d // 2)
    return root_interval(x**d, 2, bits)


def _tail_bound(
    dim: int, delta: Fraction, radius: Fraction, t: Fraction, bits: int
) -> Fraction:
    """Upper bound on the sum of exp(-pi t q) over q > radius; requires
    radius >= delta and (radius + 1) pi t >= dim.  The bound is the upper
    end of 3^dim poly e_main / slab, in positive intervals, so it is one
    ratio_of_products of the upper ends of the factors over the lower end
    of slab: at a large t, e_main and slab are dyadics of hundreds of
    thousands of bits."""
    pi = pi_interval(bits)
    if radius < delta:
        raise InputError("tail radius below the pivot floor")
    if Fraction(radius + 1) * t * pi.lo < dim:
        raise InputError("tail radius too small for the slab comparison")
    poly = _pow_half(RealInterval.point(Fraction(radius + 1) / delta), dim, bits)
    e_main = exp_interval(-(pi * t * radius), bits)
    e_half = exp_interval(-(pi * t * Fraction(1, 2)), bits)
    slab_lo = 1 - e_half.hi
    if slab_lo <= 0:
        # e^x >= 1 + x, so 1 - e^-x >= x / (1 + x) for x = pi t / 2
        x = pi.lo * t / 2
        slab_lo = x / (1 + x)
    return ratio_of_products([Fraction(3**dim), poly.hi, e_main.hi], [slab_lo])


def _pivot_floor(red: lattice.Reduced) -> Fraction:
    """Smallest LDL pivot of a reduced Gram: the tail bound's delta.

    Pivot i is the ratio of consecutive leading minors of the Gram, so over
    the reduction's integral Gram a = s * reduced with leading minors d it
    is d[i+1] / (s d[i])."""
    d, s = red.d, red.s
    return min(Fraction(d[i + 1], s * d[i]) for i in range(len(d) - 1))


def _initial_radius(dim: int, delta: Fraction, mu_ub: Fraction, t: Fraction, bits: int) -> Fraction:
    pi_lo = pi_interval(bits).lo
    r = max(Fraction(1), delta, mu_ub + 1, Fraction(dim) / (pi_lo * t))
    return Fraction(r.numerator // r.denominator + 1)


def _grow_radius(
    dim: int,
    delta: Fraction,
    mu_ub: Fraction,
    t: Fraction,
    bits: int,
    budget: int,
) -> tuple[Fraction, RealInterval]:
    """Smallest tried radius whose certified tail drops below TAIL_REL times
    exp(-pi t mu), the first-shell scale.  Refuses, before any exponential,
    a t at which exp(-pi t mu) needs more than MAX_EXPONENT_BITS bits."""
    pi = pi_interval(bits)
    if pi.hi * t * mu_ub > MAX_EXPONENT_BITS * log(2):
        raise InputError(f"t is too large: exp(-pi t mu) needs more than {MAX_EXPONENT_BITS} bits")
    target = (TAIL_REL * exp_interval(-(pi * t * mu_ub), bits)).lo
    r = _initial_radius(dim, delta, mu_ub, t, bits)
    for _ in range(MAX_RADIUS_STEPS):
        tail = _tail_bound(dim, delta, r, t, bits)
        if tail <= target:
            return r, RealInterval(Fraction(0), tail)
        r = r + max(Fraction(1), r / 2)
    raise BudgetExceededError(budget)


def _pi_t(t: Fraction, bits: int) -> tuple[int, int, int, int]:
    """pi * t for t > 0 as the numerators and denominators of its lower
    and upper ends, unreduced."""
    pi = pi_interval(bits)
    return (
        pi.lo.numerator * t.numerator,
        pi.lo.denominator * t.denominator,
        pi.hi.numerator * t.numerator,
        pi.hi.denominator * t.denominator,
    )


def _exponent(q, pi_t: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The ends of -pi t q for a value q >= 0, or an enclosure q of one,
    given pi_t = _pi_t(t, bits), as unreduced integer ratios (lo_num,
    lo_den, hi_num, hi_den): in interval arithmetic the lower end is
    -(pi t)_hi q_hi, the upper -(pi t)_lo q_lo, or -(pi t)_hi q_lo where
    q_lo < 0."""
    if isinstance(q, RealInterval):
        q_lo, q_hi = q.lo, q.hi
    elif q == 0:
        return 0, 1, 0, 1
    else:
        q_lo = q_hi = q
    lo_num, lo_den, hi_num, hi_den = pi_t
    if q_lo < 0:
        lo_num, lo_den = hi_num, hi_den
    return -hi_num * q_hi.numerator, hi_den * q_hi.denominator, -lo_num * q_lo.numerator, lo_den * q_lo.denominator


def _shell_sum(shells, t: Fraction, bits: int) -> RealInterval:
    """Enclosure of the sum of c exp(-pi t q) over the (q, c) of shells,
    with pi t taken once per sum (see _exponent)."""
    pi_t = _pi_t(t, bits)
    return exp_sum(((c, *_exponent(q, pi_t)) for q, c in shells), bits)


def psi_truncated(
    field: CMField,
    w,
    t,
    prec: PrecisionConfig = DEFAULT_PRECISION,
    budget: int = lattice.DEFAULT_BUDGET,
) -> PsiSample:
    """Certified truncation of psi at z_j = t i x_j.

    Equal rational weights reduce to the exact theta sum of the O_F Gram;
    general weights run the superset search on the exact lower form
    q_omega of their Gram (see svp.GramMatrix), whose pivots times the
    Gram's ratio bound the tail, and evaluate each algebraic orbit by
    certified intervals.  The whole sample climbs the precision ladder; an
    exact Gram misses at no rung, so equal weights return at the first.
    """
    ws = normalize_weights(field, w)
    t = Fraction(t)
    if t <= 0:
        raise InputError("t must be positive")
    return climb(prec, lambda cur: _psi_sample(field, ws, _gram(field, ws, None, cur), t, cur, budget))


def _psi_sample(field, ws, g: GramMatrix, t: Fraction, prec, budget) -> PsiSample:
    """psi_truncated at prec's bits on g, the Gram of O_F under the weights
    ws, already built there; on an exact Gram, g's theta sum (field and ws
    may be None), over its theta counts rather than superset groups."""
    bits = prec.bits
    red = g.reduction
    delta = g.ratio * _pivot_floor(red)
    mu_ub = red.min_diagonal() if g.exact else basis_minimum(field, ws, None, red.u, prec)
    radius, tail = _grow_radius(g.dimension, delta, mu_ub, t, bits, budget)
    if g.exact:
        shells = lattice.theta_counts(red, radius, budget)
    else:
        groups, _ = superset_search(field, ws, None, g, radius, prec, budget)
        shells = [(0, 1), *((v, 2 * len(c)) for v, c in groups.values())]
    return PsiSample(ws, t, radius, _shell_sum(shells, t, bits), tail)


def _excess_data(field, ws, g: GramMatrix, mv, prec, budget):
    """Certified upper-bound ingredients for the non-minimal part of psi
    on g, the Gram of O_F under the weights ws: (list of (value lower end,
    count) beyond the minimum, cutoff, pivot)."""
    red = g.reduction
    delta = g.ratio * _pivot_floor(red)
    if not isinstance(mv.mu, RealInterval):
        cutoff = 3 * mv.mu
        shells = lattice.theta_counts(red, cutoff, budget)
        beyond = [(Fraction(q), c) for q, c in shells if q > mv.mu]
        return beyond, cutoff, delta
    cutoff = 3 * mv.mu.hi
    groups, _ = superset_search(field, ws, None, g, cutoff, prec, budget)
    a0 = field.element(mv.vectors[0])
    beta0 = a0.times_conj()
    beyond = [(v.lo, 2 * len(c)) for b, (v, c) in groups.items() if b != beta0]
    return beyond, cutoff, delta


def _excess_upper(beyond, cutoff, delta, dim, t, bits) -> Fraction:
    return _shell_sum(beyond, t, bits).hi + _tail_bound(dim, delta, cutoff, t, bits)


def cusp_extract(
    field: CMField,
    w,
    prec: PrecisionConfig = DEFAULT_PRECISION,
    budget: int = lattice.DEFAULT_BUDGET,
) -> tuple[RealInterval, int]:
    """(mu enclosure, count) read off the cusp expansion 1 + n e^(-pi t mu).

    Two psi samples at t and 2t give mu as a slope of log(psi - 1); the
    higher-shell contamination is bounded by certified enumeration data and
    widens the enclosure.  The result is cross-checked against enumeration
    ground truth and disagreement raises SelfTestError.
    """
    ws = normalize_weights(field, w)
    return climb(prec, lambda cur: _cusp_extract(field, ws, cur, budget))


def _cusp_extract(field: CMField, ws: tuple, prec: PrecisionConfig, budget: int):
    """cusp_extract at prec's bits, for normalized weights ws."""
    bits = prec.bits
    g = _gram(field, ws, None, prec)
    mv = _minimal_vectors(field, ws, None, g, prec, budget)
    mu0, n0 = mv.mu, mv.count
    mu_hi = mu0.hi if isinstance(mu0, RealInterval) else Fraction(mu0)
    mu_lo = mu0.lo if isinstance(mu0, RealInterval) else Fraction(mu0)
    beyond, cutoff, delta = _excess_data(field, ws, g, mv, prec, budget)
    pi = pi_interval(bits)

    def delta_hat(t: Fraction) -> Fraction:
        excess = _excess_upper(beyond, cutoff, delta, field.degree, t, bits)
        leading = (Fraction(n0) * exp_interval(-(pi * t * mu_hi), bits)).lo
        return excess / leading

    t1 = Fraction(1)
    for _ in range(MAX_RADIUS_STEPS):
        if delta_hat(t1) <= Fraction(1, 2**14):
            break
        t1 *= 2
    else:
        raise BudgetExceededError(budget)
    t2 = 2 * t1
    d1 = delta_hat(t1)
    d2 = delta_hat(t2)
    s1 = _psi_sample(field, ws, g, t1, prec, budget).enclosure()
    s2 = _psi_sample(field, ws, g, t2, prec, budget).enclosure()
    slope = (log_interval(s1 - 1, bits) - log_interval(s2 - 1, bits)) / (pi * t1)
    widen_lo = (log_interval(RealInterval.point(1 + d1), bits) / (pi * t1)).hi
    widen_hi = (log_interval(RealInterval.point(1 + d2), bits) / (pi * t1)).hi
    mu_cert = RealInterval(slope.lo - widen_lo, slope.hi + widen_hi)
    n_iv = (s2 - 1) * exp_interval(pi * t2 * mu_cert, bits) / RealInterval(
        Fraction(1), 1 + d2
    )
    n_hat = round(n_iv.mid)
    ok_mu = mu_cert.hi >= mu_lo and mu_cert.lo <= mu_hi
    if not ok_mu or n_hat != n0 or not n_iv.contains(Fraction(n_hat)):
        raise SelfTestError(
            "cusp readout disagrees with enumeration: "
            f"mu {mu_cert!r} vs {mu0!r}, n {n_hat} vs {n0}"
        )
    return mu_cert, n_hat
