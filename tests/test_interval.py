"""Interval arithmetic: containment is preserved by every operation."""

import random
from fractions import Fraction
from math import floor, gcd

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmsvp import interval
from cmsvp.errors import PrecisionError
from cmsvp.interval import (
    MAX_BITS,
    PrecisionConfig,
    RealInterval,
    _scaled,
    cos2pi,
    decimal_str,
    det_interval,
    exp_interval,
    exp_sum,
    interval_json,
    interval_max,
    log_interval,
    minor_intervals,
    pi_interval,
    ratio_of_products,
    root_interval,
    sum_str,
)

from conftest import (
    context_cos,
    context_cos2pi,
    context_exp,
    context_log,
    context_pi,
    context_root,
    det_elimination,
    interval_sum,
    laplace_minors,
    oracle_det_interval,
    oracle_minor_intervals,
)

fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=16
)


@st.composite
def interval_with_point(draw):
    a = draw(fractions)
    b = draw(fractions)
    lo, hi = min(a, b), max(a, b)
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=32))
    return RealInterval(lo, hi), lo + t * (hi - lo)


@settings(deadline=None, derandomize=True)
@given(interval_with_point(), interval_with_point())
def test_arithmetic_preserves_containment(ap, bp):
    a_iv, a = ap
    b_iv, b = bp
    assert (a_iv + b_iv).contains(a + b)
    assert (a_iv - b_iv).contains(a - b)
    assert (a_iv * b_iv).contains(a * b)
    if not b_iv.contains_zero():
        assert (a_iv / b_iv).contains(a / b)
    assert (a_iv**3).contains(a**3)
    assert (a_iv**4).contains(a**4)
    assert abs(a_iv).contains(abs(a))


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        RealInterval(Fraction(1), Fraction(0))


def test_division_by_zero_straddling_interval():
    with pytest.raises(ZeroDivisionError):
        RealInterval.point(1) / RealInterval(Fraction(-1), Fraction(1))


def test_even_power_clamps_at_zero():
    sq = RealInterval(Fraction(-2), Fraction(1)) ** 2
    assert sq.lo == 0
    assert sq.hi == 4


def test_aggregates():
    ivs = [RealInterval.point(k) for k in (1, 2, 3)]
    assert interval_sum(ivs).contains(6)
    assert interval_max(ivs).contains(3)


@pytest.mark.parametrize("num,den", [(1, 5), (2, 5), (1, 7), (3, 7), (1, 11), (5, 11)])
def test_cos2pi_matches_mpmath(num, den):
    iv = cos2pi(num, den, 128)
    with mpmath.workdps(60):
        ref = mpmath.cos(2 * mpmath.pi * num / den)
        assert iv.lo <= Fraction(str(ref)) <= iv.hi
    assert iv.width < Fraction(1, 2**100)


def test_transcendental_leaves_match_mpmath():
    with mpmath.workdps(60):
        assert pi_interval(128).contains(Fraction(str(mpmath.pi)))
        assert exp_interval(Fraction(3, 7), 128).contains(Fraction(str(mpmath.exp(mpmath.mpf(3) / 7))))
        assert log_interval(RealInterval.point(Fraction(10, 3)), 128).contains(
            Fraction(str(mpmath.log(mpmath.mpf(10) / 3)))
        )
    cube = root_interval(RealInterval.point(8), 3, 128)
    assert cube.contains(2)
    assert cube.width < Fraction(1, 2**80)


# the bits of the leaf oracle tests: the ladder's floor, its default start,
# two middle rungs and its top
ORACLE_BITS = [53, 128, 256, 1024, 4096]


@pytest.mark.parametrize("bits", ORACLE_BITS)
def test_cos2pi_and_pi_equal_the_interval_context(bits):
    """cos2pi and pi_interval round the numbers that the interval
    context's functions approximate, so every endpoint is the context's.
    At 4096 bits the sweep stops at den = 30: each cos there costs about
    3 ms."""
    assert pi_interval(bits) == context_pi(bits)
    top = 30 if bits == 4096 else 130
    for den in range(1, top + 1):
        for num in range(den):
            assert cos2pi(num, den, bits) == context_cos2pi(num, den, bits), (num, den)


# (leaf, bits, input, ceil): the ends of the sweeps' inputs at which the
# interval context's endpoint is not the directed rounding of the exact
# value, so the owned leaf differs from it.  mpf_exp rounds once, from a
# value computed with 14 guard bits and truncated; for a small input of few
# significant bits the truncated value lies on the grid of bits bits while
# exp lies just above it, so the upper end falls below exp: exp(2^-255) at
# 256 bits comes out 1 + 2^-255, where the correct end is 1 + 2^-254; the
# truncation can also take a lower end one grid step down, as for exp(-31)
# at 1024 bits.  test_mpmath_misrounds_the_named_ends checks each entry, in
# this order.
MPMATH_MISROUNDED = [
    ("exp", 1024, Fraction(-3969, 2**298), True),
    ("exp", 1024, Fraction(-74467581, 2**300), True),
    ("exp", 1024, Fraction(24693, 2**299), True),
    ("exp", 1024, Fraction(99600284637, 2**300), True),
    ("exp", 256, Fraction(1, 2**255), True),
    ("exp", 1024, Fraction(1, 2**255), True),
    ("exp", 1024, Fraction(-31), False),
    ("exp", 1024, Fraction(2121, 2**300), True),
    ("exp", 1024, Fraction(8943, 2**299), True),
    ("exp", 128, Fraction(117228405082294702774258893279911294516767300065, 2**299), True),
    ("exp", 256, Fraction(523290685, 2**299), True),
    ("exp", 1024, Fraction(-774014336205, 2**300), True),
    ("exp", 1024, Fraction(-1680767883, 2**293), True),
    ("exp", 1024, Fraction(-373440813, 2**299), True),
    ("exp", 1024, Fraction(-51675, 2**299), True),
    ("exp", 1024, Fraction(-2409, 2**297), True),
    ("exp", 1024, Fraction(-1425, 2**300), True),
    ("exp", 1024, Fraction(-393, 2**300), True),
    ("exp", 1024, Fraction(-93, 2**299), True),
    ("exp", 1024, Fraction(-9, 2**299), True),
    ("exp", 1024, Fraction(-3, 2**300), True),
    ("exp", 1024, Fraction(3, 2**299), True),
    ("exp", 1024, Fraction(220995, 2**300), True),
    ("exp", 1024, Fraction(2866881, 2**300), True),
    ("exp", 1024, Fraction(12045819, 2**300), True),
    ("exp", 1024, Fraction(33858679491, 2**300), True),
    ("exp", 1024, Fraction(22671139461, 2**299), True),
    ("exp", 4096, Fraction(-33), False),
    ("exp", 4096, Fraction(-19), True),
    ("exp", 4096, Fraction(-11), False),
]


def named_ends(want: RealInterval, leaf: str, bits: int, x: RealInterval) -> RealInterval:
    """want, the interval context's enclosure of the leaf on x, with each
    end whose input end is in MPMATH_MISROUNDED made the correct one."""
    lo, hi = want.lo, want.hi
    if (leaf, bits, x.lo, False) in MPMATH_MISROUNDED:
        lo = reference_end(leaf, x.lo, bits, False)
    if (leaf, bits, x.hi, True) in MPMATH_MISROUNDED:
        hi = reference_end(leaf, x.hi, bits, True)
    return RealInterval(lo, hi)


leaf_rationals = st.one_of(
    st.fractions(min_value=Fraction(-60), max_value=Fraction(60), max_denominator=10**6),
    # ends with 300-bit denominators, like the products of pi t and a value
    # that psi's exponents carry
    st.builds(
        Fraction,
        st.integers(min_value=-60 * 2**300, max_value=60 * 2**300),
        st.sampled_from([2**300, 3**190]),
    ),
)


def sweep_rational(rng: random.Random) -> Fraction:
    """One input end of the kinds leaf_rationals holds: 0; a rational in
    [-60, 60] with a denominator up to 10^6, at times an integer or one of
    the ends; or n / 2^300 or n / 3^190 with |n| up to 60 times the
    denominator, three in five of them below 2^-200, where exp lies just
    above or below 1 and mpmath's exp can misround, and the rest with the
    bit length of n spread evenly."""
    kind = rng.random()
    if kind < 0.1:
        return Fraction(0)
    if kind < 0.5:
        pick = rng.random()
        if pick < 0.1:
            return Fraction(rng.choice([-60, 60]))
        if pick < 0.2:
            return Fraction(rng.randint(-60, 60))
        den = rng.randint(1, 10 ** rng.randint(1, 6))
        return Fraction(rng.randint(-60 * den, 60 * den), den)
    den = 2**300 if kind < 0.75 else 3**190
    top = (60 * den).bit_length()
    n = min(rng.getrandbits(rng.randint(1, 100 if rng.random() < 0.6 else top)), 60 * den)
    return Fraction(rng.choice([-1, 1]) * n, den)


# The fixed inputs of the sweeps against the interval context, the same at
# every precision: each named misrounded input as a point, then seeded
# draws.  Fixed inputs keep a change to the package's constants, which
# Hypothesis draws from, from moving a sweep onto an end that mpmath
# misrounds.
_SWEEP_RNG = random.Random(20261020)
LEAF_SWEEP = [(x, x, 1 + i % 6, 1) for i, (_, _, x, _) in enumerate(MPMATH_MISROUNDED)] + [
    (sweep_rational(_SWEEP_RNG), sweep_rational(_SWEEP_RNG), _SWEEP_RNG.randint(1, 6), _SWEEP_RNG.randint(1, 99))
    for _ in range(140)
]
EXP_SUM_SWEEP = [
    (
        [
            (
                _SWEEP_RNG.choice([0, 1, 10**6, *(_SWEEP_RNG.randint(2, 10**6 - 1) for _ in range(5))]),
                sweep_rational(_SWEEP_RNG),
                sweep_rational(_SWEEP_RNG),
            )
            for _ in range(_SWEEP_RNG.choice([0, 1, 2, 3, 4, 8, 8, 8, _SWEEP_RNG.randint(0, 8)]))
        ],
        _SWEEP_RNG.choice([1, 2**40, 3**30]),
    )
    for _ in range(110)
]


@pytest.mark.parametrize("bits", ORACLE_BITS)
def test_exp_log_and_root_equal_the_interval_context(bits):
    """exp_interval, exp_sum of one term (on ratios left unreduced by a
    factor c), log_interval and root_interval give the interval context's
    endpoints, but at the ends of MPMATH_MISROUNDED."""
    for a, b, k, c in LEAF_SWEEP:
        x = RealInterval(min(a, b), max(a, b))
        want = named_ends(context_exp(x, bits), "exp", bits, x)
        assert exp_interval(x, bits) == want, x
        lo, hi = x.lo, x.hi
        assert exp_sum([(1, c * lo.numerator, c * lo.denominator, c * hi.numerator, c * hi.denominator)], bits) == want, x
        if a and b:
            pos = RealInterval(min(abs(a), abs(b)), max(abs(a), abs(b)))
            assert log_interval(pos, bits) == named_ends(context_log(pos, bits), "log", bits, pos), pos
            assert root_interval(pos, k, bits) == context_root(pos, k, bits), (pos, k)


# ---------------------------------------------------------------------------
# the owned leaves round correctly, judged by the interval context's
# enclosures at four times the bits, whose rounding is not trusted


def round_bits(x: Fraction, bits: int, up: bool) -> Fraction:
    """x rounded to a mantissa of bits bits, toward +inf when up, else
    toward -inf."""
    if not x:
        return x
    n, d = x.numerator, x.denominator
    # 2^e <= |x| < 2^(e + 1)
    e = abs(n).bit_length() - d.bit_length()
    if (abs(n) < d << e) if e >= 0 else (abs(n) << -e < d):
        e -= 1
    s = bits - 1 - e
    num, den = (n << s, d) if s >= 0 else (n, d << -s)
    q = -(-num // den) if up else num // den
    return Fraction(q, 1 << s) if s >= 0 else Fraction(q << -s)


def decided(enclosure: RealInterval, bits: int, up: bool) -> Fraction:
    """The rounding of the number that enclosure holds, on which both of
    its ends must agree."""
    lo, hi = round_bits(enclosure.lo, bits, up), round_bits(enclosure.hi, bits, up)
    assert lo == hi, "the wide enclosure does not decide the rounding"
    return lo


def reference_end(leaf: str, x: Fraction, bits: int, up: bool) -> Fraction:
    """The end of exp_interval or log_interval at the input end x: the
    directed rounding of the leaf at x rounded the same way.  The enclosure
    is taken at four times the bits, and at twice as many again while its
    ends round apart, as they do for exp of an input below 2^-(4 bits)."""
    point = RealInterval.point(round_bits(x, bits, up))
    context = context_exp if leaf == "exp" else context_log
    wide = 4 * bits
    while True:
        enclosure = context(point, wide)
        lo, hi = round_bits(enclosure.lo, bits, up), round_bits(enclosure.hi, bits, up)
        if lo == hi:
            return lo
        wide *= 2


def reference_cos2pi(num: int, den: int, bits: int) -> RealInterval:
    """The interval cos of mpmath.libmp, step by step, from exact rounding
    and wide enclosures: the angle ((2 pi) num) / den rounded outward at
    each step; cos of each end rounded toward zero at wp = bits + 20, and
    its quadrant; +-1 where cos has an extreme inside; each end times
    1 -+ 2^(10 - wp) outward, rounded to bits, clamped to [-1, 1]."""
    if not num:
        return RealInterval.point(1)
    wide = 4 * bits
    pi = context_pi(wide)
    angle = [
        round_bits(round_bits(2 * decided(pi, bits, up) * num, bits, up) / den, bits, up) for up in (False, True)
    ]
    wp = bits + 20
    ends = []
    for a in angle:
        c = context_cos(a, wide)
        quadrants = {floor(a / (pi.lo / 2)), floor(a / (pi.hi / 2))}
        assert len(quadrants) == 1
        ends.append((decided(c, wp, c.hi < 0), quadrants.pop()))
    (ca, na), (cb, nb) = ends
    ca, cb = min(ca, cb), max(ca, cb)
    if na != nb:
        if nb - na >= 4:
            return RealInterval(Fraction(-1), Fraction(1))
        if na // 4 != nb // 4:
            cb = Fraction(1)
        if (na - 2) // 4 != (nb - 2) // 4:
            ca = Fraction(-1)
    step = Fraction(1, 2 ** (wp - 10))
    lo = max(Fraction(-1), round_bits(ca - step * abs(ca), bits, False))
    hi = min(Fraction(1), round_bits(cb + step * abs(cb), bits, True))
    return RealInterval(lo, hi)


@pytest.mark.parametrize("bits", ORACLE_BITS)
def test_cos2pi_and_pi_round_correctly(bits):
    """Every end of pi_interval and of cos2pi on the grid of the context
    sweep is the rounding that the wide enclosures decide.  At 1024 and
    4096 bits the grid stops at den = 40 and 12: a cos at four times the
    bits costs about 1 and 20 ms there."""
    pi = context_pi(4 * bits)
    assert pi_interval(bits) == RealInterval(decided(pi, bits, False), decided(pi, bits, True))
    top = {1024: 40, 4096: 12}.get(bits, 130)
    for den in range(1, top + 1):
        for num in range(den):
            assert cos2pi(num, den, bits) == reference_cos2pi(num, den, bits), (num, den)


@pytest.mark.parametrize("bits", ORACLE_BITS)
@settings(deadline=None, derandomize=True, max_examples=40)
@given(a=leaf_rationals, b=leaf_rationals)
def test_exp_and_log_round_correctly(bits, a, b):
    """Every end of exp_interval and log_interval is the directed rounding
    of the leaf at the input end rounded the same way."""
    x = RealInterval(min(a, b), max(a, b))
    got = exp_interval(x, bits)
    assert got.lo == reference_end("exp", x.lo, bits, False)
    assert got.hi == reference_end("exp", x.hi, bits, True)
    assume(a and b)
    pos = RealInterval(min(abs(a), abs(b)), max(abs(a), abs(b)))
    got = log_interval(pos, bits)
    assert got.lo == reference_end("log", pos.lo, bits, False)
    assert got.hi == reference_end("log", pos.hi, bits, True)


@pytest.mark.parametrize("leaf,bits,x,up", MPMATH_MISROUNDED)
def test_mpmath_misrounds_the_named_ends(leaf, bits, x, up):
    """At each end exempt from the context sweep the owned end is the
    correct rounding and the context's is not."""
    leaves = {"exp": (exp_interval, context_exp), "log": (log_interval, context_log)}
    owned, context = leaves[leaf]
    point = RealInterval.point(x)
    want = reference_end(leaf, x, bits, up)
    pick = (lambda iv: iv.hi) if up else (lambda iv: iv.lo)
    assert pick(owned(point, bits)) == want
    assert pick(context(point, bits)) != want


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_interval(RealInterval(Fraction(-1), Fraction(2)), 64)


def test_decimal_str_directed():
    x = Fraction(1, 3)
    lo = decimal_str(x, 6, "floor")
    hi = decimal_str(x, 6, "ceil")
    assert Fraction(lo) <= x <= Fraction(hi)
    assert lo == "0.333333"
    assert hi == "0.333334"
    assert decimal_str(Fraction(-1, 3), 4, "floor") == "-0.3334"
    assert decimal_str(Fraction(5, 4), 6, "ceil") == "1.25"


# dyadics as psi's exponentials give them, up to tens of thousands of bits,
# and small rationals
dyadics = st.builds(
    lambda m, e: Fraction(m) * Fraction(2) ** e,
    st.integers(min_value=1, max_value=2**130),
    st.integers(min_value=-40_000, max_value=200),
)
positives = st.one_of(dyadics, st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(10**6), max_denominator=10**40))


@settings(deadline=None, derandomize=True, max_examples=150)
@given(
    st.lists(st.one_of(positives, fractions), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=45),
    st.sampled_from(["floor", "ceil"]),
)
def test_sum_str_equals_decimal_str_of_the_sum(xs, digits, mode):
    assert sum_str(xs, digits, mode) == decimal_str(sum(xs), digits, mode)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(st.lists(positives, min_size=1, max_size=4), st.lists(positives, max_size=3))
def test_ratio_of_products_is_the_normalized_quotient(nums, dens):
    """The same numerator and denominator, in lowest terms, as the
    quotient that Fraction normalizes at each step."""
    want = Fraction(1)
    for x in nums:
        want *= x
    for x in dens:
        want /= x
    got = ratio_of_products(nums, dens)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_interval_json_round_trip_keeps_enclosure():
    iv = RealInterval(Fraction(1, 3), Fraction(1, 3))
    out = interval_json(iv, digits=20)
    assert Fraction(out["lo"]) <= iv.lo
    assert Fraction(out["hi"]) >= iv.hi


def test_det_interval_matches_exact_rational_det():
    m = [
        [Fraction(2), Fraction(1), Fraction(0)],
        [Fraction(1), Fraction(3), Fraction(1, 2)],
        [Fraction(0), Fraction(1, 2), Fraction(1)],
    ]
    rows = [[RealInterval.point(x) for x in row] for row in m]
    # cofactor expansion along the first row, done exactly
    exact = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    assert det_interval(*_scaled(rows)).contains(exact)


def test_precision_config_floor():
    with pytest.raises(ValueError):
        PrecisionConfig(bits=32)
    with pytest.raises(ValueError):
        PrecisionConfig(bits=MAX_BITS + 1)
    assert MAX_BITS == 4096
    assert [c.bits for c in PrecisionConfig(bits=64).ladder()] == [64, 128, 256, 512, 1024, 2048, 4096]
    assert [c.bits for c in PrecisionConfig(bits=53).ladder()] == [53, 106, 212, 424, 848, 1696, 3392]
    assert [c.bits for c in PrecisionConfig(bits=3000).ladder()] == [3000]
    assert [c.bits for c in PrecisionConfig(bits=MAX_BITS).ladder()] == [MAX_BITS]


# ---------------------------------------------------------------------------
# the fast kernels equal their plain references exactly

endpoints = st.one_of(st.just(Fraction(0)), fractions)
intervals = st.tuples(endpoints, endpoints).map(lambda ab: RealInterval(min(ab), max(ab)))


def corner_product(x: RealInterval, y: RealInterval) -> RealInterval:
    corners = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    return RealInterval(min(corners), max(corners))


def power_reference(x: RealInterval, n: int) -> RealInterval:
    out = RealInterval.point(1)
    for _ in range(n):
        out = corner_product(out, x)
    if n % 2 == 0 and out.lo < 0:
        out = RealInterval(Fraction(0), out.hi)
    return out


def laplace_det(m) -> RealInterval:
    """The cofactor enclosure of det m alone, from the integer kernels:
    _scaled brings m to pairs over one denominator D, _laplace expands
    them, and the ends are divided by D^n."""
    den, pairs = _scaled(m)
    lo, hi = interval._laplace(pairs, len(m))[(1 << len(m)) - 1]
    scale = den ** len(m)
    return RealInterval(Fraction(lo, scale), Fraction(hi, scale))


def cofactor_reference(m):
    """Recursive expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    total = RealInterval.point(0)
    for j in range(len(m)):
        minor = [[row[c] for c in range(len(m)) if c != j] for row in m[1:]]
        term = corner_product(m[0][j], cofactor_reference(minor))
        total = total + term if j % 2 == 0 else total - term
    return total


# narrow entries let elimination find pivots, so the intersection is exercised
entries = st.builds(
    lambda c, r: RealInterval(c - r, c + r),
    fractions,
    st.sampled_from([Fraction(0), Fraction(1, 64), Fraction(1, 4), Fraction(8)]),
)


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@settings(deadline=None, derandomize=True)
@given(intervals, intervals, st.integers(min_value=0, max_value=7))
def test_sign_case_products_equal_corner_products(x, y, n):
    assert x * y == corner_product(x, y)
    assert x**n == power_reference(x, n)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.integers(min_value=1, max_value=5).flatmap(lambda n: matrices(n, n)))
def test_subset_dp_determinant_equals_recursive_expansion(m):
    assert laplace_det(m) == cofactor_reference(m)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: matrices(n, n + 1)))
def test_minor_intervals_equal_det_interval_per_minor(rows):
    width = len(rows) + 1
    expected = [
        det_interval(*_scaled([[row[c] for c in range(width) if c != l] for row in rows]))
        for l in range(width)
    ]
    assert minor_intervals(*_scaled(rows)) == expected


# ends over large dyadic and non-dyadic denominators, as the Sigma and log
# rows of the bound and the chamber test carry them
def wide_entries(radii):
    return st.builds(
        lambda c, r, d: RealInterval(Fraction(c - r, d), Fraction(c + r, d)),
        st.integers(min_value=-(2**140), max_value=2**140),
        st.sampled_from(radii),
        st.sampled_from([2**130, 3**80, 10**40]),
    )


# narrow entries, on which elimination mostly finds its pivots and at times
# tightens the cofactor enclosure
narrow_entries = st.one_of(
    st.builds(lambda c, r: RealInterval(c - r, c + r), fractions, st.sampled_from([Fraction(0), Fraction(1, 2**40)])),
    wide_entries([0, 1]),
)


@st.composite
def engine_matrices(draw, rows: int, cols: int):
    """Point, narrow, wide and zero-straddling entries, small and large,
    dyadic and not; some matrices made singular by repeating a row."""
    pool = draw(st.sampled_from([narrow_entries, st.one_of(entries, wide_entries([0, 1, 2**20, 2**100]))]))
    m = draw(st.lists(st.lists(pool, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if rows > 1 and draw(st.booleans()):
        m[-1] = list(m[0])
    return m


def same_ends(got: RealInterval, want: RealInterval) -> bool:
    return (got.lo.numerator, got.lo.denominator, got.hi.numerator, got.hi.denominator) == (
        want.lo.numerator,
        want.lo.denominator,
        want.hi.numerator,
        want.hi.denominator,
    )


@settings(deadline=None, derandomize=True, max_examples=150)
@given(st.integers(min_value=1, max_value=5).flatmap(lambda n: engine_matrices(n, n)))
def test_det_interval_equals_the_interval_object_engine(m):
    """The integer-endpoint kernels give the very Fractions of the cofactor
    expansion and elimination on RealInterval objects."""
    assert same_ends(det_interval(*_scaled(m)), oracle_det_interval(m))
    assert same_ends(laplace_det(m), laplace_minors(m, len(m))[(1 << len(m)) - 1])


@settings(deadline=None, derandomize=True, max_examples=100)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: engine_matrices(n, n + 1)))
def test_minor_intervals_equal_the_interval_object_engine(rows):
    got, want = minor_intervals(*_scaled(rows)), oracle_minor_intervals(rows)
    assert len(got) == len(want)
    assert all(same_ends(g, w) for g, w in zip(got, want))


def _pair_matrix(rng, rows: int, cols: int, kind: str) -> list[list[tuple[int, int]]]:
    """Integer pairs lo <= hi: sign-mixed entries of either sign that
    exclude 0, entries that straddle it, or sign-mixed rows made singular
    by repeating the first."""
    def entry():
        c, r = rng.randint(-(2**40), 2**40), rng.choice([0, 1, 2**20])
        if kind == "straddling" and rng.random() < 0.5:
            r = abs(c) + rng.randint(1, 2**10)
        return c - r, c + r

    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == "singular" and rows > 1:
        m[-1] = list(m[0])
    return m


@pytest.mark.parametrize("kind", ["sign-mixed", "straddling", "singular"])
def test_determinant_kernels_are_invariant_under_a_common_scale(kind):
    """det_interval and minor_intervals give the same enclosures on
    f * pairs over f * den as on pairs over den: the bound hands Sigma's
    numerators over the cosine table's denominator straight to them, so
    its results rest on this."""
    rng = random.Random(f"scale-{kind}")
    for n in range(1, 6):
        for _ in range(6):
            den = rng.randint(1, 2**30)
            square = _pair_matrix(rng, n, n, kind)
            wide = _pair_matrix(rng, n, n + 1, kind) if n < 5 else None
            for f in (2, 3, 2**64 + 1, 10**30):
                def scaled(m):
                    return [[(f * lo, f * hi) for lo, hi in row] for row in m]

                assert det_interval(f * den, scaled(square)) == det_interval(den, square)
                if wide is not None:
                    assert minor_intervals(f * den, scaled(wide)) == minor_intervals(den, wide)


def test_det_interval_is_the_cofactor_enclosure_where_no_pivot_excludes_zero():
    """Every entry of the first column straddles 0, so elimination finds no
    pivot and the cofactor expansion is the enclosure."""
    m = [[RealInterval(Fraction(lo), Fraction(hi)) for lo, hi in row] for row in [[(-1, 1), (2, 3)], [(-1, 2), (5, 7)]]]
    with pytest.raises(PrecisionError, match="no interval pivot"):
        det_elimination(m)
    # [-1, 1] [5, 7] - [2, 3] [-1, 2]
    assert det_interval(*_scaled(m)) == laplace_det(m) == oracle_det_interval(m) == RealInterval(Fraction(-13), Fraction(10))


def test_disjoint_determinant_enclosures_raise(monkeypatch):
    """Both enclosures hold the determinant, so they meet; were they ever
    disjoint, det_interval raises instead of returning an empty interval."""
    m = [[RealInterval.point(2), RealInterval.point(1)], [RealInterval.point(1), RealInterval.point(3)]]
    assert det_interval(*_scaled(m)) == RealInterval.point(5)
    monkeypatch.setattr(interval, "_eliminate", lambda pairs: (Fraction(6), Fraction(7)))
    with pytest.raises(PrecisionError, match="determinant enclosures are disjoint"):
        det_interval(*_scaled(m))


@pytest.mark.parametrize("bits", [53, 128, 1024])
def test_exp_sum_equals_the_interval_sum_of_counted_exponentials(bits):
    """exp_sum's mantissa-and-shift sum is interval_sum(c * exp_interval)
    exactly, Fraction for Fraction, with its endpoints in lowest terms; so
    are the endpoints of every leaf and of interval_sum over dyadics."""
    for terms, scale in EXP_SUM_SWEEP:
        ivs = [(c, RealInterval(min(a, b), max(a, b))) for c, a, b in terms]
        got = exp_sum(
            [(c, x.lo.numerator * scale, x.lo.denominator * scale, x.hi.numerator, x.hi.denominator) for c, x in ivs],
            bits,
        )
        want = sum(
            (Fraction(c) * named_ends(context_exp(x, bits), "exp", bits, x) for c, x in ivs), RealInterval.point(0)
        )
        assert got == want, terms
        leaves = [exp_interval(x, bits) for _, x in ivs] + [cos2pi(1, 7, bits), pi_interval(bits)]
        dyadic_sum = interval_sum(Fraction(c) * e for (c, _), e in zip(ivs, leaves))
        for x in [got.lo, got.hi, dyadic_sum.lo, dyadic_sum.hi] + [e for iv in leaves for e in (iv.lo, iv.hi)]:
            assert gcd(x.numerator, x.denominator) == 1 and x.denominator > 0
