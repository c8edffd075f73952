"""Unit bases: builtin construction, file loading, simplex scaffolding,
chamber reduction."""

import pytest

from cmsvp import units
from cmsvp.errors import DependentUnitsError, InputError, NonPrimeConductorError
from cmsvp.field import CMField, exact_divide, field_norm, is_prime, is_unit
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
