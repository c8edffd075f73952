"""Exact cyclotomic integer arithmetic against ring axioms and a complex
floating-point embedding oracle."""

import cmath
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmsvp import cli, field
from cmsvp.errors import InputError
from cmsvp.field import (
    MAX_DEGREE,
    CMField,
    euler_phi,
    exact_divide,
    field_norm,
    is_prime,
    is_unit,
    real_norm,
    representatives,
    trace,
    trace_row,
)

from conftest import gauss_jordan_quotient, matrix_norm, mult_matrix


def _random_element(field, rng, span=5):
    return field.element([rng.randint(-span, span) for _ in range(field.degree)])


def _embed(a, j):
    """a evaluated at the j-th primitive root of unity, in floating point."""
    n = a.field.conductor
    z = cmath.exp(2j * cmath.pi * j / n)
    return sum(c * z**m for m, c in enumerate(a.coords))


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_field_shape(f5, f7):
    assert (f5.degree, f5.k) == (4, 2)
    assert (f7.degree, f7.k) == (6, 3)
    assert f5.torsion_order() == 10
    assert CMField(11).degree == 10


def test_element_validation(f5):
    with pytest.raises(InputError):
        f5.element([1, 2, 3])
    with pytest.raises(InputError):
        f5.parse("1,2,x,4")
    assert f5.parse("1,0,0,0") == f5.one()


def test_zeta_relations(f5, f7):
    for field in (f5, f7):
        n = field.conductor
        z = field.zeta(1)
        power = field.one()
        for j in range(1, n + 1):
            power = power * z
            assert power == field.zeta(j)
        assert field.zeta(n) == field.one()
        assert z * field.zeta(n - 1) == field.one()


def test_ring_axioms(f5, f7):
    rng = random.Random(5)
    for field in (f5, f7):
        for _ in range(25):
            a, b, c = (_random_element(field, rng) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == field.zero()


def test_conjugation_is_ring_involution(f5, f7):
    rng = random.Random(7)
    for field in (f5, f7):
        assert field.zeta(1).conj() == field.zeta(-1)
        for _ in range(15):
            a, b = _random_element(field, rng), _random_element(field, rng)
            assert a.conj().conj() == a
            assert (a * b).conj() == a.conj() * b.conj()
            assert (a + b).conj() == a.conj() + b.conj()


def test_trace_and_norm_basics(f5, f7):
    for field in (f5, f7):
        assert trace(field.one()) == field.degree
        assert trace(field.zeta(1)) == -1
        assert field_norm(field.one()) == 1
        assert field_norm(field.zeta(3)) == 1
        assert field_norm(field.one() - field.zeta(1)) == field.conductor


def test_norm_is_multiplicative(f5, f7):
    rng = random.Random(11)
    for field in (f5, f7):
        for _ in range(15):
            a, b = _random_element(field, rng), _random_element(field, rng)
            assert field_norm(a * b) == field_norm(a) * field_norm(b)


def test_trace_is_linear_and_conjugation_invariant(f5):
    rng = random.Random(13)
    for _ in range(15):
        a, b = _random_element(f5, rng), _random_element(f5, rng)
        assert trace(a + b) == trace(a) + trace(b)
        assert trace(a.conj()) == trace(a)
        assert trace(a * a.conj()) >= 0


def test_norm_matches_embedding_product(f5, f7):
    """N(a) is the product of a over all primitive-root embeddings."""
    rng = random.Random(17)
    for field in (f5, f7):
        n = field.conductor
        for _ in range(10):
            a = _random_element(field, rng, span=3)
            prod = 1.0 + 0j
            for j in range(1, n):
                prod *= _embed(a, j)
            assert abs(prod.real - field_norm(a)) < 1e-6 * max(1.0, abs(prod.real))
            assert abs(prod.imag) < 1e-6 * max(1.0, abs(prod.real))


def test_units_and_exact_division(f5):
    z = f5.zeta(1)
    assert is_unit(z)
    assert is_unit(-f5.one())
    assert not is_unit(f5.one() - z)
    assert not is_unit(f5.zero())
    rng = random.Random(19)
    for _ in range(10):
        a = _random_element(f5, rng)
        b = _random_element(f5, rng)
        if b.is_zero():
            continue
        assert exact_divide(a * b, b) == a
    with pytest.raises(InputError):
        exact_divide(f5.one(), f5.one() - z)  # norm 5 cannot divide norm 1
    with pytest.raises(InputError):
        exact_divide(f5.one(), f5.zero())


NORM_CONDUCTORS = (5, 7, 11, 13, 17, 19, 23, 8, 9, 12, 15, 16, 20, 21)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(NORM_CONDUCTORS).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(-6, 6), min_size=euler_phi(n), max_size=euler_phi(n)))
    )
)
def test_norms_equal_the_multiplication_matrix_determinant(case):
    """N_F(a) = N_K+(a conj(a)) from the k x k trace forms equals the d x d
    determinant of multiplication by a; a real b = a + conj(a) has
    N_F(b) = N_K+(b)^2, so the sign of real_norm is checked too; and the
    trace row is Tr(a zeta^m) for every m."""
    n, coords = case
    fld = CMField(n)
    a = fld.element(coords)
    expected = matrix_norm(a)
    assert field_norm(a) == expected
    assert real_norm(a.times_conj()) == expected
    b = a + a.conj()
    assert real_norm(b) ** 2 == matrix_norm(b)
    assert trace_row(a, n) == [trace(a * fld.zeta(m)) for m in range(n)]


def test_real_norm_refuses_an_element_outside_the_real_subfield():
    fld = CMField(13)
    # the discriminant of K+ is taken on the first norm, not on construction
    assert "_real_discriminant" not in vars(fld)
    for a in (fld.zeta(1), fld.one() - fld.zeta(1), fld.zeta(1) - fld.zeta(-1)):
        with pytest.raises(InputError, match="real subfield"):
            real_norm(a)
    theta = fld.zeta(1) + fld.zeta(-1)
    assert abs(real_norm(theta)) == 1
    assert vars(fld)["_real_discriminant"] == 13**5
    # at n = 5, zeta + zeta^-1 = 2 cos(2 pi / 5) is 1 / phi, phi the golden ratio: norm -1
    f5 = CMField(5)
    assert real_norm(f5.zeta(1) + f5.zeta(-1)) == -1


def test_torsion_units(f5):
    torsion = f5.torsion_units()
    assert len(torsion) == 10
    assert all(is_unit(u) for u in torsion)
    assert len(set(torsion)) == 10


def test_euler_phi_by_trial_division():
    for n in range(1, 400):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@pytest.mark.parametrize("conductor", [1000003, 131, 2 * 127 * 131, 10**40])
def test_degree_cap_is_checked_before_the_polynomial_is_built(conductor, monkeypatch):
    def refuse(n):
        raise AssertionError(f"cyclotomic_polynomial({n}) reached")

    monkeypatch.setattr(field, "cyclotomic_polynomial", refuse)
    with pytest.raises(InputError, match=f"above {MAX_DEGREE}"):
        CMField(conductor)
    assert cli.main(["minima", "--cyclotomic", str(conductor)]) == 2


def test_degree_cap_admits_fields_up_to_the_cap():
    assert CMField(127).degree == 126 <= MAX_DEGREE


# -- the zeta-power table against the repeated-multiplication code it replaced


def _reference_reduction(field):
    """Coordinates of x^(d+i) mod Phi_n, i = 0..d-2, by repeated shifting."""
    d = field.degree
    rows = []
    cur = [-c for c in field.polynomial[:d]]
    rows.append(tuple(cur))
    for _ in range(d - 2):
        shifted = [0] + cur[:-1]
        top = cur[-1]
        if top:
            shifted = [s + top * b for s, b in zip(shifted, rows[0])]
        cur = shifted
        rows.append(tuple(cur))
    return rows


def _reference_mul(field, red, a, b):
    """Schoolbook product of coordinate tuples, reduced with the rows `red`."""
    d = field.degree
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    out = list(prod[:d])
    for i in range(d, 2 * d - 1):
        c = prod[i]
        if c:
            for t in range(d):
                out[t] += c * red[i - d][t]
    return tuple(out)


def _unit_vector(d, i):
    return tuple(1 if t == i else 0 for t in range(d))


def _reference_zeta_powers(field, red):
    """zeta^m for m = 0..n-1: basis vectors below d, then zeta^(d-1) times
    zeta, once per further power."""
    n, d = field.conductor, field.degree
    out = [_unit_vector(d, m) for m in range(d)]
    while len(out) < n:
        out.append(_reference_mul(field, red, out[-1], _unit_vector(d, 1)))
    return out


def _reference_conj(field, powers, coords):
    """Sum of c_j zeta^(-j) over the coordinates."""
    n, d = field.conductor, field.degree
    out = (0,) * d
    for j, c in enumerate(coords):
        if c:
            out = tuple(o + c * z for o, z in zip(out, powers[-j % n]))
    return out


def _reference_trace(field, red, powers, m):
    """Tr(zeta^m) from the diagonal of its multiplication matrix, one product
    per basis vector."""
    d = field.degree
    return sum(
        _reference_mul(field, red, powers[m], _unit_vector(d, i))[i] for i in range(d)
    )


def _ramanujan_sum(n, m):
    """c_n(m) = sum over e | gcd(n, m) of mobius(n/e) * e, which is Tr(zeta_n^m)."""

    def mobius(x):
        out, f = 1, 2
        while f * f <= x:
            if x % f == 0:
                x //= f
                if x % f == 0:
                    return 0
                out = -out
            f += 1
        return -out if x > 1 else out

    g = gcd(n, m)
    return sum(mobius(n // e) * e for e in range(1, g + 1) if g % e == 0)


ALL_CONDUCTORS = [n for n in range(3, 131) if euler_phi(n) <= MAX_DEGREE]


def test_zeta_powers_equal_repeated_multiplication():
    rng = random.Random(23)
    for n in ALL_CONDUCTORS:
        field = CMField(n)
        red = _reference_reduction(field)
        powers = _reference_zeta_powers(field, red)
        for m in range(-n, 2 * n):
            assert field.zeta(m).coords == powers[m % n], (n, m)
        for _ in range(3):
            a = _random_element(field, rng)
            assert a.conj().coords == _reference_conj(field, powers, a.coords), n
        # the product-by-product diagonal costs n * phi(n)^3; Ramanujan's sum,
        # which it equals, checks the rest
        assert list(field._zeta_traces) == [_ramanujan_sum(n, m) for m in range(n)], n
        if field.degree <= 24:
            assert list(field._zeta_traces) == [
                _reference_trace(field, red, powers, m) for m in range(n)
            ], n


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([n for n in ALL_CONDUCTORS if n <= 40]),
    st.lists(st.integers(-6, 6), min_size=40, max_size=40),
    st.lists(st.integers(-6, 6), min_size=40, max_size=40),
)
def test_conj_is_a_ring_involution(conductor, xs, ys):
    field = CMField(conductor)
    a = field.element(xs[: field.degree])
    b = field.element(ys[: field.degree])
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
    assert field.zeta(1).conj() == field.zeta(-1)


def test_large_field_builds_fast():
    start = time.perf_counter()
    field = CMField(255)
    assert time.perf_counter() - start < 1.0
    assert field.degree == 128
    assert field.zeta(255) == field.one()


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32),
    st.sampled_from([1, 6, 10**20]),
    st.sampled_from([0.0, 0.5, 0.9]),
)
def test_times_conj_equals_the_product_with_the_conjugate(seed, span, sparsity):
    """Every conductor up to 130; coordinates drawn from the example's seed,
    magnitude and share of zeros."""
    rng = random.Random(seed)
    for n in ALL_CONDUCTORS:
        field = CMField(n)
        a = field.element(
            [0 if rng.random() < sparsity else rng.randint(-span, span) for _ in range(field.degree)]
        )
        assert a.times_conj() == a * a.conj(), n
    assert CMField(7).zero().times_conj() == CMField(7).zero()


# -- the Galois action and exact division on top of it

GALOIS_CONDUCTORS = [5, 7, 8, 9, 12, 15, 16, 20, 21]


@st.composite
def galois_cases(draw):
    """A conductor, two elements of its field and two exponents coprime to
    it, each drawn as a unit class then shifted by a multiple of n."""
    n = draw(st.sampled_from(GALOIS_CONDUCTORS))
    fld = CMField(n)
    coords = st.lists(st.integers(-4, 4), min_size=fld.degree, max_size=fld.degree)
    units = [h for h in range(1, n) if gcd(h, n) == 1]
    h1, h2 = (draw(st.sampled_from(units)) + n * draw(st.integers(-2, 2)) for _ in range(2))
    return fld, fld.element(draw(coords)), fld.element(draw(coords)), h1, h2


@settings(max_examples=80, deadline=None, derandomize=True)
@given(galois_cases())
def test_galois_is_a_ring_automorphism_composing_by_exponent(case):
    """sigma_h is multiplicative and additive, sigma_h sigma_h' =
    sigma_(hh'), and conj is sigma_(-1), term by term the zeta^(-j) loop."""
    fld, a, b, h1, h2 = case
    assert (a * b).galois(h1) == a.galois(h1) * b.galois(h1)
    assert (a + b).galois(h1) == a.galois(h1) + b.galois(h1)
    assert a.galois(h2).galois(h1) == a.galois(h1 * h2)
    assert fld.zeta(1).galois(h1) == fld.zeta(h1)
    assert a.galois(1) == a
    powers = [fld.zeta(m).coords for m in range(fld.conductor)]
    assert a.conj() == a.galois(-1) == a.galois(fld.conductor - 1)
    assert a.conj().coords == _reference_conj(fld, powers, a.coords)


SPARSE_CONDUCTORS = [5, 7, 11, 13, 17, 19, 23, 8, 9, 12, 15, 16, 20, 21]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SPARSE_CONDUCTORS).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(-9, 9), min_size=euler_phi(n), max_size=euler_phi(n)))
))
def test_galois_on_sparse_rows_equals_the_dense_walk(case):
    """sigma_h, the coordinates moved to the exponents hj mod n and folded,
    equals the walk over every entry of each zeta-power row, for every h
    coprime to n."""
    n, coords = case
    fld = CMField(n)
    a = fld.element(coords)
    rows = [fld.zeta(m).coords for m in range(n)]
    for h in range(1, n):
        if gcd(h, n) == 1:
            out = [0] * fld.degree
            for j, c in enumerate(coords):
                for t, r in enumerate(rows[h * j % n]):
                    out[t] += c * r
            assert a.galois(h).coords == tuple(out), h


def test_galois_refuses_an_exponent_sharing_a_factor_with_the_conductor():
    with pytest.raises(InputError):
        CMField(12).one().galois(3)
    with pytest.raises(InputError):
        CMField(7).one().galois(0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(galois_cases())
def test_exact_divide_matches_gauss_jordan(case):
    _, a, b, _, _ = case
    assume(not b.is_zero())
    assert gauss_jordan_quotient(a * b, b) == a.coords
    assert exact_divide(a * b, b) == a
    quotient = gauss_jordan_quotient(a, b)
    if all(q.denominator == 1 for q in quotient):
        assert exact_divide(a, b).coords == quotient
    else:
        with pytest.raises(InputError):
            exact_divide(a, b)


@pytest.mark.parametrize("n", GALOIS_CONDUCTORS)
def test_exact_divide_refuses_zero_and_non_divisors(n):
    fld = CMField(n)
    one, z = fld.one(), fld.zeta(1)
    with pytest.raises(InputError):
        exact_divide(one, fld.zero())
    with pytest.raises(InputError):
        exact_divide(one, one * 2)
    with pytest.raises(InputError):
        exact_divide(one + z, one * 2)
    # 1 - zeta has norm p when n is a power of the prime p, and is a unit
    # otherwise
    d = one - z
    assert field_norm(d) == {5: 5, 7: 7, 8: 2, 9: 3, 16: 2}.get(n, 1)
    if is_unit(d):
        assert exact_divide(one, d) * d == one
    else:
        with pytest.raises(InputError):
            exact_divide(one, d)
    assert exact_divide(one, z) == fld.zeta(-1)


def test_representatives_pick_one_exponent_of_each_conjugate_pair():
    for n in GALOIS_CONDUCTORS:
        reps = representatives(n)
        assert len(reps) == CMField(n).k
        classes = {frozenset({m % n, -m % n}) for m in reps}
        assert len(classes) == len(reps)
        assert set().union(*classes) == {h for h in range(1, n) if gcd(h, n) == 1}


# -- the one product rule: products, Galois images and powers all take
# field._cyclic_product in Z[z]/(z^n - 1) and field._fold to Z[zeta_n]


def _product_cases(seed):
    """(field, a, b) for every conductor up to 130, a and b seeded."""
    rng = random.Random(seed)
    for n in ALL_CONDUCTORS:
        fld = CMField(n)
        yield fld, _random_element(fld, rng), _random_element(fld, rng)


def test_products_equal_the_multiplication_matrix():
    for fld, a, b in _product_cases(31):
        m = mult_matrix(a)
        assert (a * b).coords == tuple(sum(x * y for x, y in zip(row, b.coords)) for row in m), fld


def test_galois_equals_the_walk_over_reference_powers_for_every_exponent():
    for fld, a, _ in _product_cases(37):
        n = fld.conductor
        powers = _reference_zeta_powers(fld, _reference_reduction(fld))
        for h in range(1, n):
            if gcd(h, n) == 1:
                out = [0] * fld.degree
                for j, c in enumerate(a.coords):
                    if c:
                        out = [o + c * x for o, x in zip(out, powers[h * j % n])]
                assert a.galois(h).coords == tuple(out), (n, h)


def test_powers_equal_repeated_products():
    for fld, a, _ in _product_cases(43):
        want = fld.one()
        for e in range(13):
            assert a**e == want, (fld, e)
            want = want * a
    with pytest.raises(InputError):
        CMField(7).zeta(1) ** -1


def _one_minus_zeta_loop(fld, top):
    """(1 - zeta)^r for r = 1..top, one factor at a time: the loop that **
    replaced."""
    base = fld.one() - fld.zeta(1)
    kappa = base
    yield kappa
    for _ in range(top - 1):
        kappa = kappa * base
        yield kappa


def test_one_minus_zeta_powers_equal_the_one_factor_loop():
    for fld, _, _ in _product_cases(47):
        base = fld.one() - fld.zeta(1)
        assert base**0 == fld.one() and cli._one_minus_zeta_power(fld, 0) is None
        for r, want in enumerate(_one_minus_zeta_loop(fld, 40), 1):
            assert base**r == want, (fld, r)
        assert cli._one_minus_zeta_power(fld, 40) == want, fld
