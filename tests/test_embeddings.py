"""Certified Sigma-map values against exact traces and a floating-point
embedding oracle."""

import cmath
import random
from fractions import Fraction

import pytest

from cmsvp.embeddings import (
    _sigma_numerators,
    _weight_numerators,
    _weighted_sum,
    normalize_weights,
    representatives,
    weights_are_equal_rational,
)
from cmsvp.errors import InputError, PrecisionError
from cmsvp.field import CMField, trace
from cmsvp.interval import (
    DEFAULT_PRECISION,
    MAX_BITS,
    REL_RADIUS,
    PrecisionConfig,
    RealInterval,
    climb,
    cos2pi,
    exp_interval,
)
from cmsvp.units import cyclotomic_unit_basis
from conftest import (
    as_intervals,
    interval_sum,
    log_sigma,
    overlaps,
    relative_radius,
    sigma,
    sigma_real,
    weighted_norm,
    zero,
)


def _sigma_sum(n, coords, bits):
    """The uncertified Sigma numerators of coords at bits, as intervals."""
    return list(as_intervals(*_sigma_numerators(n, coords, bits)))


def _random_element(field, rng, span=4):
    return field.element([rng.randint(-span, span) for _ in range(field.degree)])


def _float_sigma(field, a):
    """|a|^2 at one embedding per conjugate pair, in floating point."""
    n = field.conductor
    out = []
    for rep in representatives(n):
        z = cmath.exp(2j * cmath.pi * rep / n)
        val = sum(c * z**m for m, c in enumerate(a.coords))
        out.append(abs(val) ** 2)
    return out


def test_representatives():
    assert representatives(5) == (1, 2)
    assert representatives(7) == (1, 2, 3)
    assert len(representatives(11)) == 5


def test_sigma_contains_float_oracle(f5, f7):
    rng = random.Random(23)
    for field in (f5, f7):
        for _ in range(10):
            a = _random_element(field, rng)
            if a.is_zero():
                continue
            vals = sigma(field, a)
            floats = _float_sigma(field, a)
            for iv, x in zip(vals, floats):
                assert float(iv.lo) - 1e-8 <= x <= float(iv.hi) + 1e-8


def test_sigma_sums_to_trace(f5, f7):
    """Sum of the Sigma coordinates is exactly Tr(a conj(a)) / 2."""
    rng = random.Random(29)
    for field in (f5, f7):
        for _ in range(10):
            a = _random_element(field, rng)
            vals = sigma(field, a)
            total = sum(vals[1:], vals[0])
            assert total.contains(Fraction(trace(a * a.conj()), 2))


def test_weighted_norm_equal_weights_is_half_trace(f5):
    rng = random.Random(31)
    for _ in range(10):
        a = _random_element(f5, rng)
        q = weighted_norm(f5, a, normalize_weights(f5, None))
        assert q.contains(Fraction(trace(a * a.conj()), 2))


def test_weighted_norm_respects_weights(f5):
    a = f5.one() - f5.zeta(1)
    w = (Fraction(3), Fraction(1))
    q = weighted_norm(f5, a, normalize_weights(f5, w))
    s = sigma(f5, a)
    direct = s[0] * 3 + s[1]
    assert overlaps(q, direct)


def test_units_sit_on_the_hyperboloid(f5, f7):
    """A unit's Sigma coordinates multiply to exactly 1."""
    for field in (f5, f7):
        u = field.zeta(1) + field.one()  # 1 + zeta is a cyclotomic unit here
        vals = sigma(field, u)
        prod = vals[0]
        for v in vals[1:]:
            prod = prod * v
        assert prod.contains(1)


def test_log_sigma_exponentiates_back(f5):
    a = f5.one() + f5.zeta(1)
    logs = log_sigma(f5, a)
    vals = sigma(f5, a)
    # the unit chamber reads the first k - 1 logs only
    assert len(logs) == f5.k - 1
    for lg, v in zip(logs, vals):
        assert overlaps(exp_interval(lg, DEFAULT_PRECISION.bits), v)


def test_sigma_real_needs_conjugation_fixed_input(f5):
    a = f5.one() + f5.zeta(2)
    fixed = a * a.conj()
    vals = sigma_real(f5, fixed)
    refs = sigma(f5, a)
    for v, r in zip(vals, refs):
        assert overlaps(v, r)
    with pytest.raises(ValueError):
        sigma_real(f5, f5.zeta(1))


def test_normalize_weights(f5):
    equal = normalize_weights(f5, None)
    assert equal == (Fraction(1), Fraction(1))
    assert weights_are_equal_rational(equal)
    assert not weights_are_equal_rational(normalize_weights(f5, (1, 2)))
    with pytest.raises(InputError):
        normalize_weights(f5, (1, 2, 3))
    with pytest.raises(InputError):
        normalize_weights(f5, (0, 1))
    with pytest.raises(InputError):
        normalize_weights(f5, (RealInterval(Fraction(-1), Fraction(1)), Fraction(1)))


def _reference_sigma_sum(n, coords, bits):
    """The interval sum of the products x_j * cos(2 pi j m / n), term by term."""
    out = []
    for m in representatives(n):
        terms = [c * cos2pi(j * m % n, n, bits) for j, c in enumerate(coords) if c]
        out.append(interval_sum(terms) if terms else RealInterval.point(0))
    return out


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("conductor", [5, 7, 11, 13, 17, 12, 15, 20])
def test_integer_sigma_kernel_equals_the_interval_sum(conductor, bits):
    field = CMField(conductor)
    rng = random.Random(conductor * 1000 + bits)
    inputs = [[0] * field.degree, [1] + [0] * (field.degree - 1)]
    for span in (1, 9, 10**30):
        for _ in range(4):
            inputs.append([rng.choice((0, rng.randint(-span, span))) for _ in range(field.degree)])
    for coords in inputs:
        assert _sigma_sum(conductor, coords, bits) == _reference_sigma_sum(conductor, coords, bits)
    # sigma and sigma_real meet their 2^-64 radius target at once from 128
    # bits on, and retry 53 bits at 106
    a = _random_element(field, rng)
    beta = a * a.conj()
    used = bits if bits >= 128 else 2 * bits
    ref = tuple(_reference_sigma_sum(conductor, beta.coords, used))
    assert sigma(field, a, PrecisionConfig(bits)) == ref
    assert sigma_real(field, beta, PrecisionConfig(bits)) == ref


def _unit_power(field, e):
    u = cyclotomic_unit_basis(field).generators[0]
    out = field.one()
    for _ in range(e):
        out = out * u
    return out


def test_unit_power_climbs_the_ladder_from_53_bits(f5):
    """beta = u^40 conj(u^40) has one embedding near 2^-55 and coordinates
    near 2^55: at 53 and 106 bits its Sigma enclosures miss the radius
    target and one of them straddles 0, so sigma, and log_sigma where that
    embedding comes first, climb to 212 bits, and sigma_real meets the
    target there too."""
    a = _unit_power(f5, 40)
    beta = a * a.conj()
    assert any(relative_radius(v) > REL_RADIUS for v in _sigma_sum(5, beta.coords, 106))
    assert any(v.lo <= 0 for v in _sigma_sum(5, beta.coords, 106))
    prec = PrecisionConfig(53)
    vals = sigma(f5, a, prec)
    assert vals == tuple(_sigma_sum(5, beta.coords, 212))
    assert all(relative_radius(v) <= REL_RADIUS for v in vals)
    assert sigma_real(f5, beta, prec) == vals
    # log_sigma takes the first k - 1 = 1 embedding only; the conjugate
    # under zeta -> zeta^2 puts the small one first
    (lg,) = log_sigma(f5, a.galois(2), prec)
    assert overlaps(exp_interval(lg, 256), vals[1])


def test_the_top_rung_raises_naming_its_site_and_bits(f5):
    """u^3000 needs about 4200 bits for the radius target, above MAX_BITS:
    sigma_real raises rather than return a wide enclosure."""
    a = _unit_power(f5, 3000)
    beta = a * a.conj()
    prec = PrecisionConfig(MAX_BITS // 2)
    with pytest.raises(PrecisionError, match="sigma: radius target missed at 4096 bits"):
        sigma_real(f5, beta, prec)
    with pytest.raises(PrecisionError, match="sigma: radius target missed at 4096 bits"):
        sigma(f5, a, prec)
    with pytest.raises(PrecisionError, match="log_sigma: .* at 4096 bits"):
        log_sigma(f5, a.galois(2), prec)


def _reference_weighted_norm(field, a, weights, prec, beta=None):
    """interval_sum(w_m * sigma_m) over the term-by-term sigma enclosures,
    certified by relative_radius on each rung of the ladder."""
    ws = normalize_weights(field, weights)
    if a.is_zero():
        return RealInterval.point(0)
    if beta is None:
        beta = a * a.conj()
    for cur in prec.ladder():
        vals = _reference_sigma_sum(field.conductor, beta.coords, cur.bits)
        if all(relative_radius(v) <= REL_RADIUS for v in vals):
            return interval_sum(w * v for w, v in zip(ws, vals))
    raise PrecisionError(f"sigma: radius target missed at {cur.bits} bits")


def _weight_vectors(field, rng):
    """A rational, an interval and a mixed weight vector."""
    k = field.k
    rational = tuple(Fraction(rng.randint(1, 99), rng.randint(1, 7)) for _ in range(k))
    # sigma images of an element are certified positive, irrational weights
    a = _random_element(field, rng)
    while a.is_zero():
        a = _random_element(field, rng)
    intervals = sigma(field, a)
    mixed = tuple(w if m % 2 else r for m, (w, r) in enumerate(zip(intervals, rational)))
    return rational, intervals, mixed


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("conductor", [5, 7, 11, 12, 13, 15, 17, 20])
def test_weighted_norm_equals_the_interval_sum_of_weighted_sigmas(conductor, bits):
    field = CMField(conductor)
    rng = random.Random(conductor * 7919 + bits)
    prec = PrecisionConfig(bits)
    elements = [zero(field), field.one()] + [_random_element(field, rng, span) for span in (1, 4, 10**12)]
    for ws in _weight_vectors(field, rng):
        for a in elements:
            assert weighted_norm(field, a, ws, prec) == _reference_weighted_norm(field, a, ws, prec)


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_weighted_norm_on_a_sigma_enclosure_straddling_zero(f5, bits):
    """beta = u^100 conj(u^100) has one embedding near 2^-139: its certified
    enclosure straddles 0 from 53, 128 and 256 bits, so the lower end takes
    the upper interval weight there, and u^40 climbs the ladder from 53
    bits."""
    prec = PrecisionConfig(bits)
    a = _unit_power(f5, 100)
    assert any(v.lo < 0 < v.hi for v in sigma(f5, a, prec))
    weights = (
        (Fraction(3), Fraction(1, 7)),
        (RealInterval(Fraction(2), Fraction(3)), RealInterval(Fraction(1, 5), Fraction(1, 4))),
        (Fraction(5), RealInterval(Fraction(1, 3), Fraction(1, 2))),
    )
    # zeta + zeta^-1 is conjugation-fixed with one negative embedding: as a
    # beta it puts both ends of one enclosure below 0, where the upper end
    # takes the lower interval weight
    negative = f5.zeta(1) + f5.zeta(-1)
    assert any(v.hi < 0 for v in sigma_real(f5, negative, prec))
    for ws in weights:
        for b in (a, _unit_power(f5, 40)):
            assert weighted_norm(f5, b, ws, prec) == _reference_weighted_norm(f5, b, ws, prec)
        wnum = _weight_numerators(normalize_weights(f5, ws))
        got = climb(prec, lambda cur: _weighted_sum(5, negative.coords, wnum, cur))
        assert got == _reference_weighted_norm(f5, f5.one(), ws, prec, negative)


def test_weighted_norm_raises_at_the_top_rung_as_the_reference_does(f5):
    a = _unit_power(f5, 3000)
    prec = PrecisionConfig(MAX_BITS // 2)
    for ws in ((Fraction(1), Fraction(2)), (RealInterval(Fraction(1), Fraction(2)), Fraction(3))):
        with pytest.raises(PrecisionError, match="sigma: radius target missed at 4096 bits"):
            _reference_weighted_norm(f5, a, ws, prec)
        with pytest.raises(PrecisionError, match="sigma: radius target missed at 4096 bits"):
            weighted_norm(f5, a, ws, prec)
