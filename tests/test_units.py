"""Unit bases: builtin construction, file loading, simplex scaffolding,
chamber reduction."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmsvp import cli, units
from cmsvp.errors import DependentUnitsError, InputError, NonPrimeConductorError
from cmsvp.field import CMField, _gauss_jordan, exact_divide, field_norm, is_prime, is_unit, real_norm
from cmsvp.interval import DEFAULT_PRECISION, RealInterval, log_interval
from cmsvp.units import (
    BUILTIN_CYCLOTOMIC,
    USER_SUPPLIED,
    UnitBasis,
    cyclotomic_unit_basis,
    delta_sets,
    fundamental_domain_vertices,
    independence_certificate,
    load_unit_basis,
    reduce_to_chamber,
    smallest_primitive_root,
)
from conftest import interval_sum, oracle_adjugate, overlaps


def test_smallest_primitive_root():
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(11) == 2
    assert smallest_primitive_root(13) == 2


def test_builtin_basis(f5, f7):
    for field in (f5, f7):
        basis = cyclotomic_unit_basis(field)
        assert basis.provenance == BUILTIN_CYCLOTOMIC
        assert len(basis.generators) == field.k - 1
        assert all(is_unit(g) for g in basis.generators)
        assert basis.torsion == 2 * field.conductor


@pytest.mark.parametrize("p", [p for p in range(5, 32) if is_prime(p)])
def test_builtin_basis_is_the_galois_orbit_of_one_quotient(p):
    """sigma_g^j((1 - zeta^g)/(1 - zeta)) is the quotient
    (1 - zeta^(eg))/(1 - zeta^e), e = g^j mod p, each a unit."""
    field = CMField(p)
    g = smallest_primitive_root(p)
    one = field.one()
    quotients = []
    for j in range(field.k - 1):
        e = pow(g, j, p)
        quotients.append(exact_divide(one - field.zeta(e * g), one - field.zeta(e)))
    gens = cyclotomic_unit_basis(field).generators
    assert gens == tuple(quotients)
    assert all(is_unit(u) for u in gens)


def test_builtin_basis_requires_prime():
    with pytest.raises(NonPrimeConductorError):
        cyclotomic_unit_basis(CMField(9))


def test_independence_certificate_rejects_duplicates(f7):
    basis = cyclotomic_unit_basis(f7)
    g = basis.generators[0]
    with pytest.raises(DependentUnitsError):
        independence_certificate(UnitBasis(f7, (g, g), 14, "test"))


def test_duplicate_generators_have_an_exactly_singular_midpoint_and_exit_2(f7, tmp_path, capsys):
    """Two equal generators give two equal columns of the log matrix, so
    its midpoint is singular at every rung and `set-e` exits 2."""
    g = cyclotomic_unit_basis(f7).generators[0]
    beta = g.times_conj()
    for prec in DEFAULT_PRECISION.ladder():
        logs = units._log_sigma(7, beta.coords, prec)
        assert _gauss_jordan([[y.mid, y.mid, int(i == 0), int(i == 1)] for i, y in enumerate(logs)]) is None
    path = tmp_path / "units.txt"
    path.write_text(f"torsion 14\n{g.format()}\n{g.format()}\n", encoding="utf-8")
    assert cli.main(["set-e", "--cyclotomic", "7", "--units", str(path)]) == 2
    assert "not certifiably independent" in capsys.readouterr().err


def test_a_dependent_basis_with_a_nonsingular_midpoint_is_refused(f7):
    """For the generators g and g^2 the logs of beta^2 and 2 log beta are
    rounded apart, so the midpoint of L is nonsingular; but L holds the
    singular matrix of exact logs, so max e >= 1 at every rung and the
    certificate refuses the basis."""
    g = cyclotomic_unit_basis(f7).generators[0]
    basis = UnitBasis(f7, (g, g * g), 14, "test")
    for prec in DEFAULT_PRECISION.ladder():
        logs = [units._log_sigma(7, b.coords, prec) for b in basis.chamber.betas]
        mids = [[x.mid for x in row] for row in zip(*logs)]
        assert _gauss_jordan([row + [int(i == j) for j in range(2)] for i, row in enumerate(mids)]) is not None
    with pytest.raises(DependentUnitsError):
        independence_certificate(basis)
    # [0, 2] holds 0, so this box holds diag(0, 1): R = I and e = (1, 0)
    box = [[RealInterval(Fraction(0), Fraction(2)), RealInterval.point(0)], [RealInterval.point(0), RealInterval.point(1)]]
    assert units._verified_inverse(box) is None


@pytest.mark.parametrize(
    "n, elements",
    [
        (3, [[-1, -1], [-1, 0], [0, -1], [0, 1], [1, 0], [1, 1]]),
        (4, [[-1, 0], [0, -1], [0, 1], [1, 0]]),
    ],
)
def test_set_e_with_no_generators_lists_the_roots_of_unity(n, elements, tmp_path, capsys):
    """k = 1: a basis file of only its torsion line has no generators, so
    the chamber's log system is empty, certifies at once and gives no
    coordinates; set E is the roots of unity."""
    field = CMField(n)
    path = tmp_path / "units.txt"
    path.write_text(f"torsion {field.torsion_order()}\n", encoding="utf-8")
    basis = load_unit_basis(field, path)
    assert basis.chamber.inverse(DEFAULT_PRECISION) == ([], [])
    assert basis.chamber.coordinates([], DEFAULT_PRECISION) == []
    w = field.element([2, 1])
    assert reduce_to_chamber(field, basis, w) == (w, ())
    assert cli.main(["set-e", "--cyclotomic", str(n), "--units", str(path), "--json"]) == 0
    out = {"command": "set-e", "elements": elements, "schema": "1", "size": len(elements)}
    assert capsys.readouterr().out == json.dumps(out, separators=(",", ":")) + "\n"


def exact_solve(m, rhs):
    """Gauss-Jordan over Fractions; None when m is singular."""
    n = len(m)
    aug = [list(row) + [b] for row, b in zip(m, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n] for row in aug]


fractions = st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=16)


def systems(n):
    return st.tuples(
        st.lists(st.lists(fractions, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(fractions, min_size=n, max_size=n),
        st.sampled_from([Fraction(0), Fraction(1, 2**40), Fraction(1, 2**10)]),
    )


@settings(deadline=None, derandomize=True, max_examples=80)
@given(st.integers(min_value=1, max_value=6).flatmap(systems))
def test_verified_solve_encloses_the_exact_solution(system):
    """Rational point systems of order 1-6, solved as points and with every
    entry widened by a radius r.  A point system is certified exactly when
    it is nonsingular, and solves to its exact solution; a widened one,
    where certified, encloses the solution of its midpoint and of its
    corner system, every matrix entry + r against every right side - r."""
    m, rhs, r = system
    rows = [[RealInterval(x - r, x + r) for x in row] for row in m]
    ys = [RealInterval(y - r, y + r) for y in rhs]
    exact = exact_solve(m, rhs)
    inverse = units._verified_inverse(rows)
    if r == 0:
        assert (inverse is None) == (exact is None)
    assume(inverse is not None)
    x = units._verified_solve(*inverse, ys)
    if r == 0:
        assert x == [RealInterval.point(e) for e in exact]
    corner = exact_solve([[v + r for v in row] for row in m], [y - r for y in rhs])
    for want in (exact, corner):
        assert all(xj.contains(e) for xj, e in zip(x, want))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_chamber_coordinates_overlap_the_cramer_enclosure(p):
    """On seeded elements the chamber coordinates of the verified solve
    meet those of Cramer's rule on the interval adjugate of the unit log
    matrix, tests/conftest.py::oracle_adjugate."""
    field, prec = CMField(p), DEFAULT_PRECISION
    k1 = field.k - 1
    chamber = cyclotomic_unit_basis(field).chamber
    logs = [units._log_sigma(p, b.coords, prec) for b in chamber.betas]
    cofactors, det = oracle_adjugate([list(row) for row in zip(*logs)])
    rng = random.Random(f"chamber-{p}")
    for span in (1, 3, 20, 1000) * 3:
        w = field.element([rng.randint(-span, span) for _ in range(field.degree)])
        if w.is_zero():
            continue
        beta = w.times_conj()
        shift = log_interval(RealInterval.point(real_norm(beta)), prec.bits) / field.k
        ys = [y - shift for y in units._log_sigma(p, beta.coords, prec)]
        got = chamber.coordinates(ys, prec)
        want = [interval_sum(ys[m] * cofactors[m][j] for m in range(k1)) / det for j in range(k1)]
        assert all(overlaps(g, c) for g, c in zip(got, want))


def test_delta_sets_and_vertices(f5, f7):
    assert len(delta_sets(cyclotomic_unit_basis(f5))) == 1
    basis7 = cyclotomic_unit_basis(f7)
    sets7 = delta_sets(basis7)
    assert len(sets7) == 2  # (k-1)! orderings
    for ds in sets7:
        assert len(ds.vertices) == f7.k
        assert ds.vertices[0] == f7.one()
        # chain of prefix products: each step multiplies one generator
        for i in range(1, len(ds.vertices)):
            step = ds.vertices[i]
            assert field_norm(step) in (1, -1)
    vertices = fundamental_domain_vertices(basis7)
    assert len(vertices) == 4  # 2^(k-1)
    assert len(set(vertices)) == 4
    assert f7.one() in vertices


def test_load_unit_basis_round_trip(f7, tmp_path):
    builtin = cyclotomic_unit_basis(f7)
    path = tmp_path / "units.txt"
    lines = [f"torsion {builtin.torsion}"]
    lines += [g.format() for g in builtin.generators]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_unit_basis(f7, path)
    assert loaded.provenance == USER_SUPPLIED
    assert loaded.generators == builtin.generators
    assert loaded.torsion == builtin.torsion


def test_load_unit_basis_errors(f5, tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("1,0,0,0\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_unit_basis(f5, bad_header)

    wrong_torsion = tmp_path / "b.txt"
    wrong_torsion.write_text("torsion 6\n0,1,1,0\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_unit_basis(f5, wrong_torsion)

    non_unit = tmp_path / "c.txt"
    non_unit.write_text("torsion 10\n1,-1,0,0\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_unit_basis(f5, non_unit)

    wrong_count = tmp_path / "d.txt"
    wrong_count.write_text("torsion 10\n0,1,1,0\n0,1,1,0\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_unit_basis(f5, wrong_count)


def test_load_unit_basis_unreadable_file(f5, tmp_path):
    with pytest.raises(InputError):
        load_unit_basis(f5, tmp_path / "missing.txt")
    with pytest.raises(InputError):
        load_unit_basis(f5, tmp_path)


@pytest.mark.parametrize(
    "j, exps",
    [
        (2, (-2, -2, -1, -1, -1)),
        (3, (-3, -2, -2, -1, -1)),
        (4, (-4, -3, -2, -2, -1)),
        (8, (-7, -6, -4, -3, -2)),
        (9, (-8, -6, -5, -3, -2)),
        (10, (-9, -7, -5, -4, -2)),
    ],
)
def test_reduce_to_chamber_decides_rational_walls_at_the_base_rung(j, exps, monkeypatch):
    """(1 - zeta)^j in Q(zeta_13) has rational chamber coordinates with
    some on an integer wall and some not (j = 2: (-5/3, -4/3, -1, -2/3,
    -1/3)); the exact ratio test on beta^m, m = 2 or 3, decides them at
    128 bits.  The quotient times prod g_j^a_j is the input, and the
    quotient reduces to itself with exponents 0."""
    field = CMField(13)
    basis = cyclotomic_unit_basis(field)
    bits = []
    real_log_sigma = units._log_sigma

    def recording(n, coords, prec):
        bits.append(prec.bits)
        return real_log_sigma(n, coords, prec)

    monkeypatch.setattr(units, "_log_sigma", recording)
    w = (field.one() - field.zeta(1)) ** j
    eta, found = reduce_to_chamber(field, basis, w)
    assert found == exps
    assert set(bits) == {128}
    rebuilt = eta
    for g, e in zip(basis.generators, exps):
        rebuilt = rebuilt * g**e if e > 0 else exact_divide(rebuilt, g ** -e)
    assert rebuilt == w
    assert reduce_to_chamber(field, basis, eta) == (eta, (0,) * 5)


def test_chamber_reductions_against_one_basis_log_its_generators_once_per_precision(f7, monkeypatch):
    """Every reduction against a basis reads the basis's one chamber, so a
    second reduction logs only its own beta."""
    basis = cyclotomic_unit_basis(f7)
    betas = {g.times_conj().coords for g in basis.generators}
    logged = []
    real_log_sigma = units._log_sigma

    def recording(n, coords, prec):
        logged.append((coords, prec.bits))
        return real_log_sigma(n, coords, prec)

    monkeypatch.setattr(units, "_log_sigma", recording)
    for w in (f7.element([3, 1, 0, 2, 0, 0]), f7.element([1, 2, 0, 0, -1, 0])):
        reduce_to_chamber(f7, basis, w)
    precisions = {bits for _, bits in logged}
    assert sorted(x for x in logged if x[0] in betas) == sorted((b, bits) for b in betas for bits in precisions)
    # both decide at the base precision: two generator logs, one per reduction
    assert (len(precisions), len(logged)) == (1, 4)
