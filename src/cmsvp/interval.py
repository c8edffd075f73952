"""Certified real-interval arithmetic with exact rational endpoints.

The working representation is a closed interval [lo, hi] whose endpoints are
`fractions.Fraction` values, so every ring operation (+, -, *, integer
powers, division by an interval excluding zero) is carried out exactly with
no rounding step at all.  Irrational leaves -- pi, cos, exp, log, k-th
roots -- come from the outward-rounded interval functions of
`mpmath.libmp` at a configurable binary precision and are converted to
exact dyadic endpoints, which keeps the enclosure property end to end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from mpmath.libmp import from_int, from_rational, mpf_exp, mpf_log, round_ceiling, round_floor, to_rational
from mpmath.libmp.libmpi import mpi_cos, mpi_div, mpi_mul, mpi_pi

from .errors import DegenerateSimplexError, DependentUnitsError, NotPositiveDefiniteError, PrecisionError

MIN_BITS = 53
# the top of every precision ladder; at 4096 bits `bound --cyclotomic 11`
# still finishes, in about 70 s on a 2-CPU x86-64 VM
MAX_BITS = 4096
# the most bits of exp(-pi t mu), mu the first shell, that a psi or theta
# sum accepts; at it `psi --cyclotomic 5` takes about 5 ms on a 2-CPU x86-64 VM
MAX_EXPONENT_BITS = 150_000


@dataclass(frozen=True)
class PrecisionConfig:
    """Working binary precision and the certified-radius target.

    `bits` is the mantissa size of the mpmath.libmp functions that give
    the irrational leaves.
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

MISSES = (PrecisionError, NotPositiveDefiniteError, DegenerateSimplexError, DependentUnitsError)


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
        # a sign-definite factor fixes which endpoint products are extreme;
        # only when both factors straddle 0 are all four corners compared
        other = _coerce(other)
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if a >= 0:
            if c >= 0:
                return RealInterval(a * c, b * d)
            if d <= 0:
                return RealInterval(b * c, a * d)
            return RealInterval(b * c, b * d)
        if b <= 0:
            if c >= 0:
                return RealInterval(a * d, b * c)
            if d <= 0:
                return RealInterval(b * d, a * c)
            return RealInterval(a * d, a * c)
        if c >= 0:
            return RealInterval(a * d, b * d)
        if d <= 0:
            return RealInterval(b * c, a * c)
        corners = (a * c, a * d, b * c, b * d)
        return RealInterval(min(corners), max(corners))

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


ZERO = RealInterval.point(0)
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


def interval_prod(items) -> RealInterval:
    out = ONE
    for it in items:
        out = out * _coerce(it)
    return out


def interval_max(items) -> RealInterval:
    """Enclosure of max(x_1, ..., x_m) for intervals x_i."""
    items = [_coerce(i) for i in items]
    return RealInterval(max(i.lo for i in items), max(i.hi for i in items))


# ---------------------------------------------------------------------------
# irrational leaves: the outward-rounded functions of mpmath.libmp at the
# given bits, on binary endpoints rounded outward from the exact input


def _from_mpi(x) -> RealInterval:
    """The exact RealInterval of an mpmath.libmp interval (a, b).  An mpf
    is an odd mantissa times a power of two, or an integer, so the ratio
    to_rational gives is in lowest terms already."""
    # int() strips gmpy2.mpz when mpmath runs on the gmpy backend; mpz-backed
    # Fractions break mixed arithmetic elsewhere
    (p, q), (r, s) = to_rational(x[0]), to_rational(x[1])
    return RealInterval(_lowest(int(p), int(q)), _lowest(int(r), int(s)))


def _int_point(n: int, bits: int):
    """The integer n as an mpmath.libmp interval, rounded outward to bits."""
    return from_int(n, bits, round_floor), from_int(n, bits, round_ceiling)


def cos2pi(num: int, den: int, bits: int) -> RealInterval:
    """Enclosure of cos(2*pi*num/den): mpi_cos of ((2 * pi) * num) / den,
    each step rounded outward to bits."""
    angle = mpi_mul(mpi_mul(_int_point(2, bits), mpi_pi(bits), bits), _int_point(num, bits), bits)
    return _from_mpi(mpi_cos(mpi_div(angle, _int_point(den, bits), bits), bits))


def pi_interval(bits: int) -> RealInterval:
    return _from_mpi(mpi_pi(bits))


def _increasing(f, lo_num: int, lo_den: int, hi_num: int, hi_den: int, bits: int) -> RealInterval:
    """Enclosure of f on [lo_num / lo_den, hi_num / hi_den], f an
    increasing mpmath.libmp function (mpf_exp, mpf_log), denominators
    positive; from_rational rounds the exact quotient outward, so the
    ratios need not be reduced."""
    lo = f(from_rational(lo_num, lo_den, bits, round_floor), bits, round_floor)
    hi = f(from_rational(hi_num, hi_den, bits, round_ceiling), bits, round_ceiling)
    return _from_mpi((lo, hi))


def exp_interval(x, bits: int) -> RealInterval:
    x = _coerce(x)
    return _increasing(mpf_exp, x.lo.numerator, x.lo.denominator, x.hi.numerator, x.hi.denominator, bits)


def exp_sum(terms, bits: int) -> RealInterval:
    """interval_sum(c * exp_interval([lo_num / lo_den, hi_num / hi_den]))
    over the (c, lo_num, lo_den, hi_num, hi_den) of terms, counts c >= 0
    and denominators positive, exactly, with no Fraction built or reduced
    on the way: each end of mpf_exp stays a mantissa and an exponent, its
    count multiplies the mantissa, and each end of the sum is one integer
    over the smallest power of two."""
    los, his = [], []
    for c, lo_num, lo_den, hi_num, hi_den in terms:
        _, m, e, _ = mpf_exp(from_rational(lo_num, lo_den, bits, round_floor), bits, round_floor)
        los.append((c * int(m), e))
        _, m, e, _ = mpf_exp(from_rational(hi_num, hi_den, bits, round_ceiling), bits, round_ceiling)
        his.append((c * int(m), e))
    return RealInterval(_dyadic_sum(los), _dyadic_sum(his))


def log_interval(x, bits: int) -> RealInterval:
    x = _coerce(x)
    if x.lo <= 0:
        raise ValueError("log of an interval touching (-inf, 0]")
    return _increasing(mpf_log, x.lo.numerator, x.lo.denominator, x.hi.numerator, x.hi.denominator, bits)


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
# interval linear algebra (small, dense, exact endpoints)


def _laplace_minors(m, width: int) -> dict[int, RealInterval]:
    """Cofactor expansions of every n x n minor of an n x width matrix m.

    Keys are column bitmasks with n bits set. One dynamic program over
    column subsets, bottom row first: the minor on the last s rows and
    the columns of a mask expands along its top row, with signs
    alternating over the mask's columns in ascending order, so each minor
    is the same interval expression as a recursive expansion along the
    first row. Never divides, so it tolerates any singular or
    zero-straddling input.
    """
    n = len(m)
    level = {0: ONE}
    for size in range(1, n + 1):
        row = [_coerce(x) for x in m[n - size]]
        below = level
        level = {}
        for cols in itertools.combinations(range(width), size):
            mask = sum(1 << c for c in cols)
            total = ZERO
            for idx, c in enumerate(cols):
                term = row[c] * below[mask ^ (1 << c)]
                total = total + term if idx % 2 == 0 else total - term
            level[mask] = total
    return level


def det_cofactor(m: list[list[RealInterval]]) -> RealInterval:
    """Determinant by cofactor expansion; exact on Fraction endpoints."""
    return _laplace_minors(m, len(m))[(1 << len(m)) - 1]


def det_elimination(m: list[list[RealInterval]]) -> RealInterval:
    """Determinant by interval Gaussian elimination with pivot search.

    Raises PrecisionError when no pivot column excludes zero; callers fall
    back to the cofactor expansion, which is always defined.
    """
    n = len(m)
    a = [[_coerce(x) for x in row] for row in m]
    det = ONE
    sign = 1
    for col in range(n):
        pivot_row = None
        best = Fraction(-1)
        for r in range(col, n):
            cand = a[r][col]
            if not cand.contains_zero():
                score = min(abs(cand.lo), abs(cand.hi))
                if score > best:
                    best = score
                    pivot_row = r
        if pivot_row is None:
            raise PrecisionError("no interval pivot excludes zero during elimination")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col][col]
        det = det * pivot
        for r in range(col + 1, n):
            factor = a[r][col] / pivot
            for c in range(col, n):
                a[r][c] = a[r][c] - factor * a[col][c]
    return det if sign == 1 else -det


def _tightened(cof: RealInterval, m) -> RealInterval:
    """The cofactor enclosure `cof` of det m, intersected with elimination."""
    try:
        elim = det_elimination(m)
    except PrecisionError:
        return cof
    lo = max(cof.lo, elim.lo)
    hi = min(cof.hi, elim.hi)
    if lo > hi:
        raise PrecisionError("determinant enclosures are disjoint")
    return RealInterval(lo, hi)


def det_interval(m: list[list[RealInterval]]) -> RealInterval:
    """Tightest available determinant enclosure (elimination ∩ cofactor)."""
    return _tightened(det_cofactor(m), m)


def minor_intervals(rows: list[list[RealInterval]]) -> list[RealInterval]:
    """det_interval of each minor of an n x (n+1) matrix with column l deleted,
    l = 0..n, from one shared cofactor expansion."""
    width = len(rows) + 1
    full = (1 << width) - 1
    cofactors = _laplace_minors(rows, width)
    return [
        _tightened(
            cofactors[full ^ (1 << l)],
            [[row[c] for c in range(width) if c != l] for row in rows],
        )
        for l in range(width)
    ]


def adjugate(m: list[list[RealInterval]]) -> tuple[list[list[RealInterval]], RealInterval]:
    """(C, det m) for a square interval matrix m, C[i][j] the cofactor
    (-1)^(i+j) det_interval(m without row i and column j): row i's minors
    are minor_intervals of m without row i, one shared expansion.

    m x = y solves as x_j = sum_i y_i C[i][j] / det m: Cramer's rule with
    the replaced column expanded, so one adjugate serves every right-hand
    side and the interval expression still encloses the exact solution.
    """
    cofactors = []
    for i in range(len(m)):
        minors = minor_intervals(m[:i] + m[i + 1 :])
        cofactors.append([-x if (i + j) % 2 else x for j, x in enumerate(minors)])
    return cofactors, det_interval(m)
