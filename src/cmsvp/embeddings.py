"""Certified evaluation of the real embedding map Sigma.

For a CM field F = Q(zeta_n) with maximal real subfield K of degree k, the
map sends alpha to (sigma_1(alpha*conj(alpha)), ..., sigma_k(alpha*conj(alpha))),
a vector of totally positive reals.  Embeddings are ordered by the
representative exponents m in 1..n/2 coprime to n, ascending, i.e. by
increasing argument of zeta^m in (0, pi).

Since beta = alpha*conj(alpha) is fixed by conjugation, sigma_m(beta) is real
and equals sum_j beta_j cos(2*pi*j*m/n) exactly; each endpoint of its
enclosure is an integer dot product with a cached table of cosine
numerators over one common denominator.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import PrecisionError
from .field import CMField, representatives
from .interval import (
    REL_RADIUS,
    PrecisionConfig,
    RealInterval,
    _scaled,
    cos2pi,
    log_interval,
)


@functools.lru_cache(maxsize=None)
def _cos_table(n: int, bits: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(D, lo, hi): the enclosure of cos(2*pi*r/n) is [lo[r]/D, hi[r]/D],
    r = 0..n-1, over one common denominator D."""
    den, (pairs,) = _scaled([[cos2pi(r, n, bits) for r in range(n)]])
    lo, hi = zip(*pairs)
    return den, lo, hi


def _sigma_numerators(n: int, coords, bits: int) -> tuple[int, list[tuple[int, int]]]:
    """(D, [(lo, hi), ...]): the enclosure of sum_j x_j cos(2*pi*j*m/n) is
    [lo/D, hi/D] for each representative m.

    Each endpoint is one integer dot product over the cosine numerators,
    taking lo or hi by the sign of x_j, so it is exactly the interval sum
    of the products x_j * [cos lo, cos hi].
    """
    den, cos_lo, cos_hi = _cos_table(n, bits)
    terms = [(j, c) for j, c in enumerate(coords) if c]
    out = []
    for m in representatives(n):
        lo = hi = 0
        for j, c in terms:
            r = j * m % n
            if c > 0:
                lo += c * cos_lo[r]
                hi += c * cos_hi[r]
            else:
                lo += c * cos_hi[r]
                hi += c * cos_lo[r]
        out.append((lo, hi))
    return den, out


def _certified_numerators(n: int, coords, prec: PrecisionConfig) -> tuple[int, list[tuple[int, int]]]:
    """_sigma_numerators at prec's bits, or PrecisionError when an
    enclosure misses the relative radius target REL_RADIUS.

    The target is RealInterval.relative_radius() <= REL_RADIUS on
    [lo/D, hi/D], which is the integer comparison
    (hi - lo) * den(REL_RADIUS) <= 2 * num(REL_RADIUS) * max(D, |lo|, |hi|).
    """
    rn, rd = REL_RADIUS.numerator, REL_RADIUS.denominator
    den, sums = _sigma_numerators(n, coords, prec.bits)
    if not all((hi - lo) * rd <= 2 * rn * max(den, -lo, hi) for lo, hi in sums):
        raise PrecisionError(f"sigma: radius target missed at {prec.bits} bits")
    return den, sums


def _weight_numerators(ws: tuple) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(W, lo, hi): weight m lies in [lo[m]/W, hi[m]/W] over one common
    denominator W; a rational weight has lo[m] = hi[m]."""
    den, (pairs,) = _scaled([[w if isinstance(w, RealInterval) else RealInterval.point(w) for w in ws]])
    lo, hi = zip(*pairs)
    return den, lo, hi


def _weighted_sum(n: int, coords, wnum, prec: PrecisionConfig) -> RealInterval:
    """Enclosure of sum_m w_m sigma_m(x) at prec's bits, for the
    conjugation-fixed element x with coordinates coords, given
    wnum = _weight_numerators(w) of positive weights w.

    Exactly interval_sum(w_m * sigma_m) of the certified sigma enclosures,
    with one integer sum per endpoint: as every weight is positive, the
    lower end takes the smallest product w * sigma_lo, which uses the lower
    weight where sigma_lo >= 0 and the upper one where it is negative, and
    the upper end symmetrically.
    """
    den, sums = _certified_numerators(n, coords, prec)
    wden, w_lo, w_hi = wnum
    lo = hi = 0
    for (s_lo, s_hi), wl, wh in zip(sums, w_lo, w_hi):
        lo += (wl if s_lo >= 0 else wh) * s_lo
        hi += (wh if s_hi >= 0 else wl) * s_hi
    scale = den * wden
    return RealInterval(Fraction(lo, scale), Fraction(hi, scale))


def _log_sigma(n: int, coords, prec: PrecisionConfig) -> tuple[RealInterval, ...]:
    """Enclosures of log sigma_j(x), j < k-1, at prec's bits for the
    conjugation-fixed element x with coordinates coords, or PrecisionError
    when one of those sigma enclosures is not certifiably positive.  The
    unit chamber reads only the first k-1 logs, so the last is not taken."""
    den, sums = _sigma_numerators(n, coords, prec.bits)
    sums = sums[:-1]
    if not all(lo > 0 for lo, _ in sums):
        raise PrecisionError(f"log_sigma: enclosure not certifiably positive at {prec.bits} bits")
    return tuple(log_interval(RealInterval(Fraction(lo, den), Fraction(hi, den)), prec.bits) for lo, hi in sums)


def normalize_weights(field: CMField, weights) -> tuple:
    """Validate and coerce a weight vector: k positive entries.

    Entries may be exact rationals or RealIntervals (for irrational weights
    such as sigma images of an ideal generator); positivity must be
    certified either way.
    """
    from .errors import InputError

    if weights is None:
        return tuple(Fraction(1) for _ in range(field.k))
    out = []
    for w in weights:
        if isinstance(w, RealInterval):
            if not w.is_positive():
                raise InputError("weights must be certifiably positive")
            out.append(w)
        else:
            f = Fraction(w)
            if f <= 0:
                raise InputError("weights must be positive")
            out.append(f)
    if len(out) != field.k:
        raise InputError(f"expected {field.k} weights, got {len(out)}")
    return tuple(out)


def weights_are_equal_rational(weights) -> bool:
    return (
        all(isinstance(w, Fraction) for w in weights)
        and len(set(weights)) == 1
    )

