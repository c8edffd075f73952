"""End-to-end acceptance checks, one test per numbered criterion.

Every target value and runtime limit is pinned here; the conftest hook
prints a PASS/FAIL line per criterion after the run.  Irrational targets
(sqrt 5 and the golden ratio) are checked by exact endpoint squaring, so
no floating-point tolerance enters the verdicts.
"""

import random
import time
from fractions import Fraction

from cmsvp.bound import Verdict, norm_gap_verdict, theorem_bound
from cmsvp.field import CMField, exact_divide, field_norm, is_unit
from cmsvp.interval import RealInterval
from cmsvp.lattice import enumerate_short, reduce
from cmsvp.svp import (
    GramMatrix,
    characteristic_set_E,
    craig_circulant,
    gram_matrix,
    minimal_vectors,
)
from cmsvp.theta import cusp_extract, same_counts, theta_prefix
from cmsvp.units import cyclotomic_unit_basis, reduce_to_chamber

from conftest import box_short_vectors, greater_than, random_int_gram


def _contains_sqrt(iv: RealInterval, n: int) -> bool:
    """iv contains sqrt(n), decided exactly on the rational endpoints."""
    if iv.hi <= 0:
        return False
    lo = max(iv.lo, Fraction(0))
    return lo * lo <= n <= iv.hi * iv.hi


def _contains_neg_sqrt(iv: RealInterval, n: int) -> bool:
    return _contains_sqrt(RealInterval(-iv.hi, -iv.lo), n)


def _kappa_power(field: CMField, r: int):
    k1 = field.one() - field.zeta(1)
    out = field.one()
    for _ in range(r):
        out = out * k1
    return out


def test_criterion_1_bound_n5(f5):
    start = time.perf_counter()
    report = theorem_bound(f5, cyclotomic_unit_basis(f5))
    elapsed = time.perf_counter() - start
    assert report.bound.contains(Fraction(5, 4))
    assert report.bound.width < Fraction(1, 10**20)
    (simplex,) = report.simplices
    assert _contains_sqrt(abs(simplex.det_a), 5)
    # det B entries are (1 +/- sqrt 5)/2, so 2 det B - 1 = +/- sqrt 5
    doubled = [(b * 2) - 1 for b in simplex.det_b]
    assert any(_contains_sqrt(x, 5) for x in doubled)
    assert any(_contains_neg_sqrt(x, 5) for x in doubled)
    assert elapsed < 1.0


def test_criterion_2_bound_n7(f7):
    start = time.perf_counter()
    report = theorem_bound(f7, cyclotomic_unit_basis(f7))
    elapsed = time.perf_counter() - start
    values = [s.value for s in report.simplices]
    assert any(v.contains(Fraction(49, 27)) for v in values)
    assert any(v.contains(Fraction(56, 27)) for v in values)
    assert report.bound.contains(Fraction(56, 27))
    assert report.bound.less_than(7)
    assert elapsed < 1.0


def test_criterion_3_bound_n11():
    start = time.perf_counter()
    field = CMField(11)
    report = theorem_bound(field, cyclotomic_unit_basis(field))
    verdict = norm_gap_verdict(report, 11)
    elapsed = time.perf_counter() - start
    assert greater_than(report.bound, 11)
    assert verdict is Verdict.INCONCLUSIVE
    assert elapsed < 5.0


def test_criterion_4_craig_factorization():
    start = time.perf_counter()
    for p, r_max in ((5, 3), (7, 2)):
        field = CMField(p)
        for r in range(r_max + 1):
            kappa_pow = _kappa_power(field, r)
            kappa = kappa_pow if r else None
            mv = minimal_vectors(field, None, kappa)
            assert mv.count > 0
            for coords in mv.vectors:
                alpha = field.element(coords)
                if kappa is not None:
                    alpha = kappa * alpha
                quotient = exact_divide(alpha, kappa_pow)
                assert is_unit(quotient), (p, r, coords)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_criterion_5_random_weight_minimizers():
    rng = random.Random(20260814)
    start = time.perf_counter()
    for conductor in (5, 7):
        field = CMField(conductor)
        report = theorem_bound(field, cyclotomic_unit_basis(field))
        for _ in range(25):
            w = tuple(
                Fraction(rng.randint(1, 20), rng.randint(1, 10))
                for _ in range(field.k)
            )
            mv = minimal_vectors(field, w)
            assert mv.count > 0
            for coords in mv.vectors:
                norm = abs(field_norm(field.element(coords)))
                # certified: even the lower endpoint dominates the norm
                assert Fraction(norm) <= report.bound.lo, (conductor, w, coords)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0


def test_criterion_6_enumeration_matches_box_search():
    rng = random.Random(6)
    start = time.perf_counter()
    instances = 0
    nonempty = 0
    while instances < 24:
        dim = rng.randint(2, 6)
        g = random_int_gram(rng, dim)
        radius = Fraction(rng.randint(min(g[i][i] for i in range(dim)), 10))
        found, _ = enumerate_short(reduce([[Fraction(x) for x in row] for row in g]), radius)
        ours = {tuple(v) for v, _ in found}
        assert ours == box_short_vectors(g, radius), (g, radius)
        instances += 1
        nonempty += bool(ours)
    elapsed = time.perf_counter() - start
    assert instances >= 20
    assert nonempty >= instances // 2
    assert elapsed < 60.0


def test_criterion_7_theta_cross_check():
    start = time.perf_counter()
    mismatches = []
    for p in (5, 7):
        field = CMField(p)
        for r in (0, 1, 2):
            kappa = _kappa_power(field, r) if r else None
            circulant = theta_prefix(craig_circulant(p - 1, r), 12)
            g = gram_matrix(field, None, kappa)
            scaled = tuple(tuple(Fraction(2, p) * x for x in row) for row in g.entries)
            ideal = theta_prefix(GramMatrix(scaled, True), 12)
            if not same_counts(circulant, ideal):
                mismatches.append((p, r))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert not mismatches, (
        f"circulant and scaled-ideal theta tables differ at (p, r) = {mismatches}"
    )


def test_criterion_8_characteristic_set_roundtrip(f5):
    start = time.perf_counter()
    basis = cyclotomic_unit_basis(f5)
    report = theorem_bound(f5, basis)
    char_set = characteristic_set_E(f5, basis, report)
    assert char_set.size == 10
    generators = [
        None,
        _kappa_power(f5, 1),
        _kappa_power(f5, 2),
        _kappa_power(f5, 3),
        f5.parse("2,1,0,0"),
        f5.parse("1,1,1,0"),
    ]
    for kappa in generators:
        mv = minimal_vectors(f5, None, kappa)
        for coords in mv.vectors:
            beta = f5.element(coords)  # alpha / kappa in the ideal basis
            eta, exps = reduce_to_chamber(f5, basis, beta)
            assert eta in char_set.elements, (kappa, coords)
            # the unit multiplication is explicit: beta = eta * prod g_j^e_j
            rebuilt = eta
            for g_j, e_j in zip(basis.generators, exps):
                for _ in range(abs(e_j)):
                    rebuilt = rebuilt * g_j if e_j > 0 else exact_divide(rebuilt, g_j)
            assert rebuilt == beta
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


def test_criterion_9_cusp_readout(f5):
    start = time.perf_counter()
    mu, count = cusp_extract(f5, None)
    elapsed = time.perf_counter() - start
    assert mu.contains(Fraction(2))
    assert count == 10
    ground = minimal_vectors(f5, None)
    assert ground.mu == Fraction(2)
    assert ground.count == count
    assert elapsed < 10.0
