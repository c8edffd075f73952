"""Certified real-interval arithmetic with exact rational endpoints.

The working representation is a closed interval [lo, hi] whose endpoints are
`fractions.Fraction` values, so every ring operation (+, -, *, integer
powers, division by an interval excluding zero) is carried out exactly with
no rounding step at all.  Irrational leaves -- pi, cos, exp, log, k-th
roots -- come from integer kernels at a configurable binary precision:
each endpoint is a dyadic, the exact directed rounding of its value, so
the enclosure property holds end to end.  The values rounded are the ones
that the outward-rounded interval functions of mpmath.libmp approximate,
so the endpoints are mpmath's wherever mpmath rounds correctly, with no
dependency on it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm


from .errors import DependentUnitsError, NotPositiveDefiniteError, PrecisionError

MIN_BITS = 53
# the top of every precision ladder; at 4096 bits `bound --cyclotomic 11`
# still finishes, in about 20 s on a 2-CPU x86-64 VM
MAX_BITS = 4096
# the most bits of exp(-pi t mu), mu the first shell, that a psi or theta
# sum accepts; at it `psi --cyclotomic 5` takes about 5 ms on a 2-CPU x86-64 VM
MAX_EXPONENT_BITS = 150_000


@dataclass(frozen=True)
class PrecisionConfig:
    """Working binary precision.

    `bits` is the mantissa size of the endpoints of the irrational
    leaves, each the directed rounding of its exact value to that many
    bits; the kernels work at bits + 24 and more (see _ziv).  Targets are
    not held here: Sigma's certified-radius target is the module constant
    REL_RADIUS.
    A certified result that misses its target climbs `ladder()` whole, in
    `climb` at its public function, over kernels that take exactly the bits
    they are given: a start below 128 bits moves each result up one rung.
    """

    bits: int = 128

    def __post_init__(self):
        if not MIN_BITS <= self.bits <= MAX_BITS:
            raise ValueError(f"precision must be from {MIN_BITS} to {MAX_BITS} bits")

    def ladder(self):
        """This precision, then twice the last rung, while within MAX_BITS."""
        bits = self.bits
        while bits <= MAX_BITS:
            yield PrecisionConfig(bits)
            bits *= 2


DEFAULT_PRECISION = PrecisionConfig()

REL_RADIUS = Fraction(1, 2**64)

MISSES = (PrecisionError, NotPositiveDefiniteError, DependentUnitsError)


def climb(prec: PrecisionConfig, attempt):
    """attempt(cur) at the first rung cur of prec.ladder() where it raises
    none of MISSES, the errors by which a kernel misses its target at the
    bits it is given; the top rung's miss is raised unchanged.  This is the
    only loop over the rungs: each certified result climbs here once, at
    its public function, and no attempt starts another climb."""
    *lower, top = prec.ladder()
    for cur in lower:
        try:
            return attempt(cur)
        except MISSES:
            pass
    return attempt(top)


def _mul(a, b, c, d):
    """The ends of [a, b] * [c, d] for exact ends, ints or Fractions, by
    the signs of the factors: only when both straddle 0 are two candidates
    compared for each end."""
    if a >= 0:
        if c >= 0:
            return a * c, b * d
        if d <= 0:
            return b * c, a * d
        return b * c, b * d
    if b <= 0:
        if c >= 0:
            return a * d, b * c
        if d <= 0:
            return b * d, a * c
        return a * d, a * c
    if c >= 0:
        return a * d, b * d
    if d <= 0:
        return b * c, a * c
    return min(a * d, b * c), max(a * c, b * d)


@dataclass(frozen=True)
class RealInterval:
    """Closed interval with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x) -> "RealInterval":
        f = Fraction(x)
        return RealInterval(f, f)

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        f = Fraction(x)
        return self.lo <= f <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def overlaps(self, other: "RealInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other):
        other = _coerce(other)
        return RealInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RealInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        return RealInterval(*_mul(self.lo, self.hi, other.lo, other.hi))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.contains_zero():
            raise ZeroDivisionError("interval division by an interval containing zero")
        inv = RealInterval(1 / other.hi, 1 / other.lo)
        return self * inv

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are exact")
        # x**n is monotone on a sign-definite interval
        if self.lo >= 0 or (self.hi <= 0 and n % 2):
            return RealInterval(self.lo**n, self.hi**n)
        if self.hi <= 0:
            return RealInterval(self.hi**n, self.lo**n)
        out = RealInterval.point(1)
        base = self
        e = n
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        # even powers of sign-straddling intervals clamp at 0
        if n % 2 == 0 and out.lo < 0:
            out = RealInterval(Fraction(0), out.hi)
        return out

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RealInterval(Fraction(0), max(-self.lo, self.hi))

    def is_positive(self) -> bool:
        return self.lo > 0

    def less_than(self, x) -> bool:
        """Certified strict comparison against an exact rational."""
        return self.hi < Fraction(x)

    def greater_than(self, x) -> bool:
        return self.lo > Fraction(x)

    def relative_radius(self) -> Fraction:
        scale = max(Fraction(1), abs(self.lo), abs(self.hi))
        return self.width / (2 * scale)

    def __repr__(self):
        return f"RealInterval({decimal_str(self.lo, 12, 'floor')}, {decimal_str(self.hi, 12, 'ceil')})"


def _coerce(x) -> RealInterval:
    if isinstance(x, RealInterval):
        return x
    return RealInterval.point(x)


ONE = RealInterval.point(1)


def _lowest(num: int, den: int) -> Fraction:
    """num / den for coprime num and den > 0, built without the gcd that
    Fraction's constructor takes, which on the dyadics of a psi sum at the
    exponent limit, about 150,000 bits, costs milliseconds each."""
    out = Fraction(0)
    out._numerator, out._denominator = num, den
    return out


def _dyadic(num: int, shift: int) -> Fraction:
    """num * 2^shift, in lowest terms by the trailing zeros of num."""
    if shift >= 0:
        return _lowest(num << shift, 1)
    zeros = min(-shift, (num & -num).bit_length() - 1) if num else -shift
    return _lowest(num >> zeros, 1 << (-shift - zeros))


def _dyadic_sum(terms) -> Fraction:
    """sum of m * 2^e over the (m, e) of terms, as one integer over the
    smallest power of two."""
    low = min((e for _, e in terms), default=0)
    return _dyadic(sum(m << (e - low) for m, e in terms), low)


def _odd_part(n: int) -> tuple[int, int]:
    """(m, k) with n = m 2^k and m odd, for n != 0."""
    k = (n & -n).bit_length() - 1
    return n >> k, k


def ratio_of_products(nums, dens) -> Fraction:
    """prod(nums) / prod(dens) for positive Fractions, in lowest terms.
    The powers of two of every numerator and denominator are counted in
    one exponent, so the one gcd is of the odd parts, and one of those is
    short when the long factors are dyadics: a psi tail bound at a large
    t multiplies dyadics of hundreds of thousands of bits, and normalizing
    each product in turn would take gcds of that size."""
    top, bottom, shift = 1, 1, 0
    for x in (*nums, *(1 / x for x in dens)):
        (a, i), (b, j) = _odd_part(x.numerator), _odd_part(x.denominator)
        top, bottom, shift = top * a, bottom * b, shift + i - j
    g = gcd(top, bottom)
    top, bottom = top // g, bottom // g
    return _lowest(top << shift, bottom) if shift >= 0 else _lowest(top, bottom << -shift)


def interval_sum(items) -> RealInterval:
    items = [_coerce(it) for it in items]
    return RealInterval(sum((it.lo for it in items), Fraction(0)), sum((it.hi for it in items), Fraction(0)))


def interval_max(items) -> RealInterval:
    """Enclosure of max(x_1, ..., x_m) for intervals x_i."""
    items = [_coerce(i) for i in items]
    return RealInterval(max(i.lo for i in items), max(i.hi for i in items))


# ---------------------------------------------------------------------------
# irrational leaves: integer kernels with exact directed rounding
#
# A float here is a pair (m, e), the dyadic m * 2^e.  Each leaf endpoint is
# the directed rounding, to a mantissa of `bits` bits, of an exact real
# number, and the real numbers are the ones that the outward-rounded
# interval functions of mpmath.libmp approximate at the same bits: pi, the
# angle (2 pi) num / den with each product and quotient rounded outward,
# exp and log at the endpoints rounded outward from the input, and mpmath's
# cos endpoint, the cosine rounded toward zero at bits + 20 and moved
# outward by the factor 1 +- 2^(10 - bits - 20) before its last rounding.
# So every endpoint equals mpmath's wherever mpmath rounds correctly.
#
# A kernel gives a fixed-point value y and an error bound err, the exact
# value within err 2^s of y 2^s, at about w significant bits.  _ziv rounds
# y - err and y + err; where the two round apart it asks the kernel again at
# twice the bits (Ziv, ACM TOMS 17 (1991)).  That ends, because none of the
# values is a dyadic: pi, exp and log of a dyadic other than 0 and 1, and
# cos of a dyadic other than 0, are transcendental (Lindemann).  The first
# attempt carries _GUARD bits beyond the target, so a second one is rare.

_GUARD = 24


def _round(n: int, e: int, bits: int, ceil: bool) -> tuple[int, int]:
    """n 2^e rounded to a mantissa of at most bits bits (2^bits on a carry),
    toward +inf when ceil, else toward -inf."""
    extra = abs(n).bit_length() - bits
    if extra <= 0:
        return n, e
    return (-(-n >> extra) if ceil else n >> extra), e + extra


def _round_ratio(p: int, q: int, bits: int, ceil: bool) -> tuple[int, int]:
    """p / q for q > 0, rounded as _round rounds.  The quotient keeps at
    least bits + 1 bits, so every grid point near it is an integer, and the
    remainder tells whether the exact value lies above the integer part."""
    if not p:
        return 0, 0
    s = bits + 2 + q.bit_length() - abs(p).bit_length()
    n, r = divmod(p << s, q) if s >= 0 else divmod(p, q << -s)
    return _round(n + (ceil and r != 0), -s, bits, ceil)


def _shift(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The mantissas of the floats a and b over their common exponent."""
    low = min(a[1], b[1])
    return a[0] << (a[1] - low), b[0] << (b[1] - low)


def _ziv(kernel, bits: int, ceil: bool | None) -> tuple[int, int]:
    """The value that kernel(w) encloses, rounded to bits as _round rounds;
    ceil None rounds toward zero.  kernel(w) gives (y, err, s) with the
    exact value within err 2^s of y 2^s."""
    w = bits + _GUARD
    while True:
        y, err, s = kernel(w)
        up = y < 0 if ceil is None else ceil
        lo = _round(y - err, s, bits, up)
        a, b = _shift(lo, _round(y + err, s, bits, up))
        if a == b:
            return lo
        w *= 2


def _arccot_sum(x: int, f: int, hyperbolic: bool) -> int:
    """atan(1/x) 2^f, or atanh(1/x) 2^f, for an integer x >= 2, within the
    number of its terms plus 2: each term is within 1 of its exact value,
    and the tail after the first zero term is below 1."""
    term = (1 << f) // x
    total, x2, k = term, x * x, 3
    while term:
        term //= x2
        total += term // k if hyperbolic or k % 4 == 1 else -(term // k)
        k += 2
    return total


# Machin-type formulas: pi = 16 atan(1/5) - 4 atan(1/239), and
# log 2 = 18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749)
_MACHIN = {"pi": (((16, 5), (-4, 239)), False), "ln2": (((18, 26), (-2, 4801), (8, 8749)), True)}
_CONSTANTS = {name: (0, 0) for name in _MACHIN}


def _constant(name: str, f: int) -> int:
    """pi 2^f or (log 2) 2^f to within 2.  The series run at f + g bits
    with an error of at most 4 (f + g) + 112 < 2^(g - 1), and the value is
    kept at a little more than the most bits asked so far: shifting it
    down keeps the error below 2."""
    have, value = _CONSTANTS[name]
    if f > have:
        have = f + f // 8 + 16
        g = have.bit_length() + 8
        coefs, hyperbolic = _MACHIN[name]
        value = sum(c * _arccot_sum(x, have + g, hyperbolic) for c, x in coefs) >> g
        _CONSTANTS[name] = have, value
    return value >> (have - f)


def _fixed(m: int, e: int, f: int) -> int:
    """floor(m 2^(e + f)): the dyadic m 2^e with f fractional bits."""
    return m << (e + f) if e + f >= 0 else m >> -(e + f)


def _exp_kernel(m: int, e: int, w: int) -> tuple[int, int, int]:
    """exp(m 2^e) at about w bits, as a _ziv kernel.  With k the integer
    nearest x / log 2, the reduced argument r = x - k log 2, |r| < 0.35,
    is halved h times, exp(r / 2^h) sums its even and odd Taylor terms
    apart, and h squarings give exp(r); exp(x) = 2^k exp(r).

    Error, in units of 2^-(f + h): r is within 2 of its exact value; each
    of the n terms is within 5 of its own and the tail is below 2, so the
    sum is within 8n + 10 of exp(r / 2^h); each squaring doubles the
    relative error and adds at most 1.5 2^-(f + h), and the values stay
    within [0.7, 1.42], which gives (17n + 24) 2^h at the end."""
    h = isqrt(w) // 2
    f = w + h + 8
    c = max(abs(m).bit_length() + e, 0) + 4
    a = _fixed(m, e, f + c)
    ln2 = _constant("ln2", f + c)
    k = (2 * a + ln2) // (2 * ln2)
    # a is within 1, k ln2 within 2|k| < 2^c - 1: r is within 2 units of 2^-f
    r = (a - k * ln2) >> c
    p = f + h
    one = 1 << p
    x2 = term = r * r >> p
    even = odd = one
    j, n = 2, 0
    while term:
        term //= j
        even += term
        term //= j + 1
        odd += term
        term = term * x2 >> p
        j += 2
        n += 2
    y = even + (odd * r >> p)
    for _ in range(h):
        y = y * y >> p
    return y, (17 * n + 24) << h, k - p


def _log_kernel(m: int, e: int, w: int) -> tuple[int, int, int]:
    """log(m 2^e), m > 0 odd and m 2^e != 1, at about w bits, as a _ziv
    kernel.  x = 2^j u with u = m / d in [3/4, 3/2); r square roots bring u
    nearer 1, and log u = 2^(r+1) atanh((v - 1) / (v + 1)), v = u^(1/2^r).
    Near x = 1 the c bits that u - 1 loses are added to the working bits.

    Error, in units of 2^-f: v is within 2.4, z = (v - 1) / (v + 1)
    within 2.6; the n terms of atanh z are each within 3 and its tail
    below 1, so 2^(r+1) atanh z is within (3n + 6) 2^(r+1); j log 2 is
    within 2."""
    bits = m.bit_length()
    j = bits + e - (bits < 2 or m >> (bits - 2) == 2)
    d = 1 << (j - e)
    c = d.bit_length() - abs(m - d).bit_length() if j == 0 else 0
    r = max(isqrt(w) // 4 - c, 0)
    f = w + c + r + 8
    v = (m << f) // d
    for _ in range(r):
        v = isqrt(v << f)
    one = 1 << f
    z = ((v - one) << f) // (v + one)
    term = abs(z)
    z2 = term * term >> f
    total, k, n = term, 3, 1
    while term:
        term = term * z2 >> f
        total += term // k
        k += 2
        n += 1
    total = (total if z >= 0 else -total) << (r + 1)
    if j:
        g = abs(j).bit_length() + 2
        total += j * _constant("ln2", f + g) >> g
    return total, ((3 * n + 6) << (r + 1)) + 2, -f


def _reduce(m: int, e: int, w: int) -> tuple[int, int, int, int]:
    """(u, eu, j, f) with x = |m| 2^e = j pi/2 + u / 2^f, j the integer
    nearest x / (pi/2), and u within eu of its exact value, eu below
    2^-(w + 8) |u|.  The fractional bits f grow while the subtraction
    cancels, as near a multiple of pi/2."""
    c = max(abs(m).bit_length() + e, 0) + 3
    f = w + 8 + c
    while True:
        t = _fixed(abs(m), e, f)
        p2 = _constant("pi", f - 1)
        j = (2 * t + p2) // (2 * p2)
        u = t - j * p2
        eu = 1 + 2 * j
        if abs(u) >> (w + 8) > eu:
            return u, eu, j, f
        f += w + 10 + eu.bit_length() - abs(u).bit_length()


def _quadrant(m: int, e: int) -> int:
    """floor(x / (pi/2)) for x = m 2^e != 0: the quadrant that mpmath's
    interval cos tests."""
    u, _, j, _ = _reduce(m, e, 8)
    q = j if u > 0 else j - 1
    return q if m > 0 else -1 - q


def _cos_kernel(m: int, e: int, w: int) -> tuple[int, int, int]:
    """cos(m 2^e) at about w bits, as a _ziv kernel.  By the octant
    reduction x = j pi/2 + u, |u| <= pi/4, cos x is +-cos u or +-sin u.
    Both come from v = 1 - cos u, which keeps its relative precision:
    the Taylor series gives v at y = u / 2^h, and h steps of
    v <- 4 v - 2 v^2 double the angle; then cos u = 1 - v and
    |sin u| = sqrt(v (2 - v)).

    Error: the series of its n terms is within 3n + 4 units of 2^-p, a
    relative error of (3n + 4) / v_0, and the doublings do not raise a
    relative error; u's error eu moves v by 2 eu / |u| relative."""
    u, eu, j, f = _reduce(m, e, w)
    lz = f - abs(u).bit_length()
    h = max(isqrt(w) // 2 - lz, 0)
    p = f + 2 * (h + lz) + 8
    y = abs(u) << (p - f - h)
    y2 = y * y >> p
    term = v = y2 >> 1
    k, n = 3, 1
    while term:
        term = (term * y2 >> p) // (k * (k + 1))
        v += -term if n % 2 else term
        k += 2
        n += 1
    v0 = v
    for _ in range(h):
        v = 4 * v - (v * v >> (p - 1))
    if j % 2:
        s = isqrt(v * ((2 << p) - v))
        value = s if u > 0 else -s
    else:
        s = v
        value = (1 << p) - v
    if j % 4 in (1, 2):
        value = -value
    return value, s * (3 * n + 4) // v0 + 3 * s * eu // abs(u) + 2, -p


def _exp(x: tuple[int, int], bits: int, ceil: bool) -> tuple[int, int]:
    """exp of the float x, rounded as _round rounds.  Below 2^-(bits + 2)
    in size, exp x lies strictly between 1 and the next float toward x."""
    m, e = x
    if not m:
        return 1, 0
    if abs(m).bit_length() + e < -(bits + 2):
        if m > 0:
            return ((1 << (bits - 1)) + 1, 1 - bits) if ceil else (1, 0)
        return (1, 0) if ceil else ((1 << bits) - 1, -bits)
    return _ziv(lambda w: _exp_kernel(m, e, w), bits, ceil)


def _log(x: tuple[int, int], bits: int, ceil: bool) -> tuple[int, int]:
    """log of the positive float x, rounded as _round rounds."""
    m, e = x
    zeros = (m & -m).bit_length() - 1
    m, e = m >> zeros, e + zeros
    if m == 1 and e == 0:
        return 0, 0
    return _ziv(lambda w: _log_kernel(m, e, w), bits, ceil)


def _cos_end(x: tuple[int, int], wp: int) -> tuple[tuple[int, int], int]:
    """(cos x rounded toward zero at wp bits, its quadrant) for the float
    x != 0.  Below 2^((1 - wp) / 2) in size, cos x lies in (1 - 2^-wp, 1)."""
    m, e = x
    if 2 * (abs(m).bit_length() + e) <= 1 - wp:
        return ((1 << wp) - 1, -wp), _quadrant(m, e)
    return _ziv(lambda w: _cos_kernel(m, e, w), wp, None), _quadrant(m, e)


def _outward(v: tuple[int, int], wp: int, bits: int, ceil: bool) -> tuple[int, int]:
    """mpmath's last step of an interval cos endpoint: v times 1 + 2^(10 - wp)
    or 1 - 2^(10 - wp), whichever moves it outward, rounded to bits, and
    clamped to [-1, 1]."""
    m, e = v
    p = (1 << wp) + (1 << 10 if (m < 0) != ceil else -(1 << 10))
    m, e = _round(m * p, e - wp, bits, ceil)
    if abs(m).bit_length() + e >= 1:
        return (1 if m > 0 else -1), 0
    return m, e


@functools.lru_cache(maxsize=None)
def _pi_ends(bits: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """pi rounded down and up to bits."""
    return tuple(_ziv(lambda w: (_constant("pi", w), 2, -w), bits, ceil) for ceil in (False, True))


def _interval(lo: tuple[int, int], hi: tuple[int, int]) -> RealInterval:
    return RealInterval(_dyadic(*lo), _dyadic(*hi))


def cos2pi(num: int, den: int, bits: int) -> RealInterval:
    """Enclosure of cos(2*pi*num/den), den != 0, as mpmath's interval cos
    gives it: the angle ((2 * pi) * num) / den with each step rounded
    outward to bits; cos of each end at wp = bits + 20, rounded toward
    zero; the extremes of cos inside a quadrant change taken as +-1; then
    each end moved outward and clamped by _outward."""
    if den < 0:
        num, den = -num, -den
    if not num:
        return ONE
    (a, i), (b, j) = _pi_ends(bits)
    if num < 0:
        (a, i), (b, j) = (b, j), (a, i)
    lo = _round(a * num, i + 1, bits, False)
    hi = _round(b * num, j + 1, bits, True)
    ends = [
        _round_ratio(m << e, den, bits, ceil) if e >= 0 else _round_ratio(m, den << -e, bits, ceil)
        for (m, e), ceil in ((lo, False), (hi, True))
    ]
    wp = bits + 20
    (ca, na), (cb, nb) = (_cos_end(x, wp) for x in ends)
    x, y = _shift(ca, cb)
    if x > y:
        ca, cb = cb, ca
    if na != nb:
        if nb - na >= 4:
            return RealInterval(Fraction(-1), Fraction(1))
        if na // 4 != nb // 4:
            cb = 1, 0
        if (na - 2) // 4 != (nb - 2) // 4:
            ca = -1, 0
    return _interval(_outward(ca, wp, bits, False), _outward(cb, wp, bits, True))


def pi_interval(bits: int) -> RealInterval:
    return _interval(*_pi_ends(bits))


def _rational_ends(x: RealInterval, bits: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The ends of x rounded outward to bits."""
    return (
        _round_ratio(x.lo.numerator, x.lo.denominator, bits, False),
        _round_ratio(x.hi.numerator, x.hi.denominator, bits, True),
    )


def exp_interval(x, bits: int) -> RealInterval:
    lo, hi = _rational_ends(_coerce(x), bits)
    return _interval(_exp(lo, bits, False), _exp(hi, bits, True))


def exp_sum(terms, bits: int) -> RealInterval:
    """interval_sum(c * exp_interval([lo_num / lo_den, hi_num / hi_den]))
    over the (c, lo_num, lo_den, hi_num, hi_den) of terms, counts c >= 0
    and denominators positive, exactly, with no Fraction built or reduced
    on the way: each end of the exponential stays a mantissa and an
    exponent, its count multiplies the mantissa, and each end of the sum
    is one integer over the smallest power of two."""
    los, his = [], []
    for c, lo_num, lo_den, hi_num, hi_den in terms:
        m, e = _exp(_round_ratio(lo_num, lo_den, bits, False), bits, False)
        los.append((c * m, e))
        m, e = _exp(_round_ratio(hi_num, hi_den, bits, True), bits, True)
        his.append((c * m, e))
    return RealInterval(_dyadic_sum(los), _dyadic_sum(his))


def log_interval(x, bits: int) -> RealInterval:
    x = _coerce(x)
    if x.lo <= 0:
        raise ValueError("log of an interval touching (-inf, 0]")
    lo, hi = _rational_ends(x, bits)
    return _interval(_log(lo, bits, False), _log(hi, bits, True))


def root_interval(x, k: int, bits: int) -> RealInterval:
    """Enclosure of x**(1/k) for a positive interval x."""
    if k == 1:
        return _coerce(x)
    x = _coerce(x)
    if x.lo <= 0:
        raise ValueError("root of an interval touching (-inf, 0]")
    log = log_interval(x, bits)
    return exp_interval(RealInterval(log.lo / k, log.hi / k), bits)


# ---------------------------------------------------------------------------
# directed decimal serialization


def decimal_str(x: Fraction, digits: int, mode: str) -> str:
    """Decimal string of x rounded toward -inf ('floor') or +inf ('ceil').

    The result always parses back to a rational on the correct side of x,
    so round-tripping a serialized interval keeps the enclosure.
    """
    x = Fraction(x)
    return _ratio_str(x.numerator, x.denominator, digits, mode)


def sum_str(xs, digits: int, mode: str) -> str:
    """decimal_str(sum(xs), digits, mode) for Fractions xs, read off the
    sum over the product of their denominators with no gcd: normalizing a
    psi value plus its tail at a large t takes a gcd of numbers of
    hundreds of thousands of bits."""
    num, den = 0, 1
    for x in xs:
        num, den = num * x.denominator + x.numerator * den, den * x.denominator
    return _ratio_str(num, den, digits, mode)


def _ratio_str(num: int, den: int, digits: int, mode: str) -> str:
    """decimal_str(num / den, digits, mode) for den > 0, num and den not
    necessarily coprime."""
    scaled = num * 10**digits
    n = scaled // den
    if mode == "ceil" and n * den != scaled:
        n += 1
    elif mode not in ("floor", "ceil"):
        raise ValueError(f"unknown rounding mode {mode!r}")
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10**digits)
    text = f"{whole}.{frac:0{digits}d}".rstrip("0").rstrip(".")
    return sign + text if text != "0" else "0"


def interval_json(x: RealInterval, digits: int = 40) -> dict:
    return {
        "lo": decimal_str(x.lo, digits, "floor"),
        "hi": decimal_str(x.hi, digits, "ceil"),
    }


# ---------------------------------------------------------------------------
# interval determinants on integer endpoints (small, dense matrices)
#
# A matrix of intervals is kept as integer pairs (lo, hi) over one common
# denominator D, the entry [lo / D, hi / D]: the bound's Sigma rows arrive
# so, and adjugate brings its interval matrix there with _scaled.  Interval
# sums and sign-case products of exact endpoints are positively homogeneous,
# and the elimination's pivot score min(|lo|, |hi|) compares entries of one
# scale, so each determinant is the pairs' one divided by D^n once: the same
# rational endpoints as the interval expression on the entries themselves,
# with no interval object built or reduced on the way.  Interval Gaussian
# elimination: Neumaier, *Interval Methods for Systems of Equations* (1990),
# Ch. 4.


def _scaled(m) -> tuple[int, list[list[tuple[int, int]]]]:
    """(D, pairs) for an interval matrix m: entry (i, j) of m is
    [lo / D, hi / D] for (lo, hi) = pairs[i][j], D the lcm of the
    denominators of all endpoints."""
    den = lcm(*(x.denominator for row in m for iv in row for x in (iv.lo, iv.hi)))
    return den, [
        [(iv.lo.numerator * (den // iv.lo.denominator), iv.hi.numerator * (den // iv.hi.denominator)) for iv in row]
        for row in m
    ]


def _laplace(m, width: int) -> dict[int, tuple[int, int]]:
    """Cofactor expansions of every n x n minor of an n x width pair
    matrix m, each over the n-th power of m's denominator.

    Keys are column bitmasks with n bits set. One dynamic program over
    column subsets, bottom row first: the minor on the last s rows and
    the columns of a mask expands along its top row, with signs
    alternating over the mask's columns in ascending order, so each minor
    is the same interval expression as a recursive expansion along the
    first row. Never divides, so it tolerates any singular or
    zero-straddling input.
    """
    n = len(m)
    level = {0: (1, 1)}
    for size in range(1, n + 1):
        row = m[n - size]
        below = level
        level = {}
        for cols in itertools.combinations(range(width), size):
            mask = sum(1 << c for c in cols)
            lo = hi = 0
            for idx, c in enumerate(cols):
                p, q = _mul(*row[c], *below[mask ^ (1 << c)])
                if idx % 2:
                    lo, hi = lo - q, hi - p
                else:
                    lo, hi = lo + p, hi + q
            level[mask] = lo, hi
    return level


def _eliminate(m) -> tuple[Fraction, Fraction] | None:
    """Determinant of the square pair matrix m, over the n-th power of its
    denominator, by interval Gaussian elimination with pivot search on
    Fraction ends; None when no pivot candidate of a column excludes 0."""
    n = len(m)
    a = [[(Fraction(x), Fraction(y)) for x, y in row] for row in m]
    lo = hi = Fraction(1)
    for col in range(n):
        # the first candidate of largest min(|lo|, |hi|) among those that
        # exclude 0, whose score is then positive
        pivot_row, best = None, 0
        for r in range(col, n):
            x, y = a[r][col]
            score = x if x > 0 else -y
            if score > best:
                pivot_row, best = r, score
        if pivot_row is None:
            return None
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            lo, hi = -hi, -lo
        p, q = pivot = a[col][col]
        lo, hi = _mul(lo, hi, *pivot)
        top = a[col]
        for r in range(col + 1, n):
            x, y = a[r][col]
            # [x, y] / [p, q], by the sign of the pivot and of [x, y]
            if p > 0:
                f = (x / q, y / p) if x >= 0 else (x / p, y / q) if y <= 0 else (x / p, y / p)
            else:
                f = (y / q, x / p) if x >= 0 else (y / p, x / q) if y <= 0 else (y / q, x / q)
            row = a[r]
            # only the columns right of the pivot are read again
            for c in range(col + 1, n):
                u, v = _mul(*f, *top[c])
                s, t = row[c]
                row[c] = s - v, t - u
    return lo, hi


def _tightened(cof: tuple[int, int], m, scale: int) -> RealInterval:
    """[lo / scale, hi / scale] for the cofactor ends cof of det m over
    scale, intersected with elimination's."""
    lo, hi = cof
    elim = _eliminate(m)
    if elim is not None:
        lo, hi = max(lo, elim[0]), min(hi, elim[1])
        if lo > hi:
            raise PrecisionError("determinant enclosures are disjoint")
    return RealInterval(Fraction(lo, scale), Fraction(hi, scale))


def det_interval(den: int, pairs) -> RealInterval:
    """Tightest available determinant enclosure of the square matrix whose
    entry (i, j) is [lo / den, hi / den], (lo, hi) = pairs[i][j]: the
    cofactor expansion, intersected with interval elimination wherever a
    pivot excludes zero."""
    n = len(pairs)
    return _tightened(_laplace(pairs, n)[(1 << n) - 1], pairs, den**n)


def minor_intervals(den: int, pairs) -> list[RealInterval]:
    """det_interval of each minor of an n x (n+1) pair matrix over den with
    column l deleted, l = 0..n, from one shared cofactor expansion."""
    n = len(pairs)
    width = n + 1
    full = (1 << width) - 1
    cofactors = _laplace(pairs, width)
    scale = den**n
    return [
        _tightened(cofactors[full ^ (1 << l)], [row[:l] + row[l + 1 :] for row in pairs], scale)
        for l in range(width)
    ]


def adjugate(m: list[list[RealInterval]]) -> tuple[list[list[RealInterval]], RealInterval]:
    """(C, det m) for a square interval matrix m, C[i][j] the cofactor
    (-1)^(i+j) det_interval(m without row i and column j): row i's minors
    are minor_intervals of m without row i, one shared expansion, and m is
    brought to pairs over one denominator once.

    m x = y solves as x_j = sum_i y_i C[i][j] / det m: Cramer's rule with
    the replaced column expanded, so one adjugate serves every right-hand
    side and the interval expression still encloses the exact solution.
    """
    den, pairs = _scaled(m)
    cofactors = []
    for i in range(len(pairs)):
        minors = minor_intervals(den, pairs[:i] + pairs[i + 1 :])
        cofactors.append([-x if (i + j) % 2 else x for j, x in enumerate(minors)])
    return cofactors, det_interval(den, pairs)
