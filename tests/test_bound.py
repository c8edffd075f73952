"""Certified bound reports: worked conductors, ideal scaling, verdicts."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from cmsvp import bound, cli
from cmsvp.bound import (
    Verdict,
    ideal_bound,
    norm_gap_verdict,
    simplex_data,
    theorem_bound,
    with_verdict,
)
from cmsvp.errors import DegenerateSimplexError, InputError
from cmsvp.field import CMField, _det_bareiss, exact_divide, trace
from cmsvp.interval import PrecisionConfig
from cmsvp.units import UnitBasis, cyclotomic_unit_basis, delta_sets, fundamental_domain_vertices

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_bound_n5(f5):
    report = theorem_bound(f5, cyclotomic_unit_basis(f5))
    assert report.conductor == 5
    assert report.k == 2
    assert len(report.simplices) == 1
    assert report.bound.contains(Fraction(5, 4))
    assert report.bound.width < Fraction(1, 10**20)


def test_bound_n7_simplex_values(f7):
    report = theorem_bound(f7, cyclotomic_unit_basis(f7))
    values = sorted(s.value.mid for s in report.simplices)
    assert report.simplices[0].value.contains(Fraction(49, 27)) or report.simplices[
        0
    ].value.contains(Fraction(56, 27))
    assert abs(values[0] - Fraction(49, 27)) < Fraction(1, 10**20)
    assert abs(values[1] - Fraction(56, 27)) < Fraction(1, 10**20)
    assert report.bound.less_than(7)


def test_bound_is_precision_stable(f5):
    coarse = theorem_bound(f5, cyclotomic_unit_basis(f5), PrecisionConfig(bits=64))
    fine = theorem_bound(f5, cyclotomic_unit_basis(f5), PrecisionConfig(bits=256))
    assert coarse.bound.overlaps(fine.bound)
    assert fine.bound.width < coarse.bound.width


def test_ideal_bound_scales_by_generator_norm(f5):
    basis = cyclotomic_unit_basis(f5)
    kappa = f5.one() - f5.zeta(1)
    report = ideal_bound(f5, basis, kappa)
    assert report.ideal_norm == 5
    assert report.ideal_bound.contains(Fraction(25, 4))
    with pytest.raises(InputError):
        ideal_bound(f5, basis, f5.zero())


def test_verdicts():
    for p, expected in ((5, Verdict.ALL_MINIMA_ARE_UNITS), (11, Verdict.INCONCLUSIVE)):
        field = CMField(p)
        report = theorem_bound(field, cyclotomic_unit_basis(field))
        assert norm_gap_verdict(report, p) is expected
    with pytest.raises(InputError):
        norm_gap_verdict(report, 12)


def test_with_verdict_preserves_data(f5):
    report = theorem_bound(f5, cyclotomic_unit_basis(f5))
    tagged = with_verdict(report, Verdict.ALL_MINIMA_ARE_UNITS)
    assert tagged.verdict is Verdict.ALL_MINIMA_ARE_UNITS
    assert tagged.bound == report.bound
    assert tagged.simplices == report.simplices


def test_simplex_data_determinants_multiply_out(f7):
    """|value| equals |det A / k|^k / prod |det B_l| on each simplex."""
    basis = cyclotomic_unit_basis(f7)
    for ds in delta_sets(basis):
        s = simplex_data(f7, ds)
        recombined = abs((s.det_a / f7.k) ** f7.k)
        for b in s.det_b:
            recombined = recombined / abs(b)
        assert recombined.overlaps(s.value)


def test_theorem_bound_evaluates_sigma_once_per_vertex(monkeypatch):
    field = CMField(11)
    basis = cyclotomic_unit_basis(field)
    evaluated = []
    real_sigma = bound._certified_numerators

    def counting_sigma(n, coords, prec):
        evaluated.append(coords)
        return real_sigma(n, coords, prec)

    monkeypatch.setattr(bound, "_certified_numerators", counting_sigma)
    report = theorem_bound(field, basis)
    assert len(report.simplices) == 24
    assert len(evaluated) == 2 ** (field.k - 1) == 16
    assert set(evaluated) == {v.times_conj().coords for v in fundamental_domain_vertices(basis)}


def _degenerate_chains(basis):
    """Permutations of the chains whose points beta_j = v_j conj(v_j) have
    a singular integer trace Gram, that is, det A = 0."""
    out = []
    for delta in delta_sets(basis):
        betas = [v.times_conj() for v in delta.vertices]
        if _det_bareiss([[trace(x * y) for y in betas] for x in betas]) == 0:
            out.append(delta.perm)
    return out


def _base_rung_only(monkeypatch):
    """The bits of every Sigma row that the bound engine evaluates."""
    bits = []
    real_sigma = bound._certified_numerators

    def recording(n, coords, prec):
        bits.append(prec.bits)
        return real_sigma(n, coords, prec)

    monkeypatch.setattr(bound, "_certified_numerators", recording)
    return bits


def test_degenerate_chain_of_a_unimodular_basis_change_is_refused_at_once(monkeypatch):
    """U13 is the built-in p = 13 basis under the unimodular U with rows
    10000/01000/01100/11110/11111.  Two of its 120 chains have det A = 0
    exactly, so no bound is certified: the first of them is named at the
    base rung, and no rung above it is tried."""
    field = CMField(13)
    gens = cyclotomic_unit_basis(field).generators
    u13 = []
    for row in ("10000", "01000", "01100", "11110", "11111"):
        h = field.one()
        for g, bit in zip(gens, row):
            if bit == "1":
                h = h * g
        u13.append(h)
    basis = UnitBasis(field, tuple(u13), 26, "test")
    assert _degenerate_chains(basis) == [(1, 4, 0, 2, 3), (3, 4, 0, 2, 1)]
    bits = _base_rung_only(monkeypatch)
    with pytest.raises(DegenerateSimplexError) as exc:
        theorem_bound(field, basis)
    assert exc.value.perm == (1, 4, 0, 2, 3)
    assert set(bits) == {128}


def test_degenerate_orbit_basis_at_n16_exits_2_naming_its_chain(tmp_path, monkeypatch, capsys):
    """The Galois orbit {u, sigma_3(u), sigma_5(u)} of u = (1 - zeta^3) /
    (1 - zeta) in Q(zeta_16) is a valid unit basis with one degenerate
    chain, (2, 0, 1): `bound` exits 2 naming it, from the base rung."""
    field = CMField(16)
    one = field.one()
    u = exact_divide(one - field.zeta(3), one - field.zeta(1))
    gens = [u.galois(h) for h in (1, 3, 5)]
    assert _degenerate_chains(UnitBasis(field, tuple(gens), 16, "test")) == [(2, 0, 1)]
    path = tmp_path / "units.txt"
    path.write_text("torsion 16\n" + "".join(g.format() + "\n" for g in gens), encoding="utf-8")
    bits = _base_rung_only(monkeypatch)
    assert cli.main(["bound", "--cyclotomic", "16", "--units", str(path)]) == 2
    assert "degenerate simplex for permutation (2, 0, 1)" in capsys.readouterr().err
    assert set(bits) == {128}


@pytest.mark.parametrize(
    "command",
    ["bound --cyclotomic 5", "bound --cyclotomic 7 --ideal-exp 3", "bound --cyclotomic 11"],
)
def test_bound_json_is_byte_identical_to_stored_reference(command, capsys):
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[command]
    rc = cli.main(command.split() + ["--json"])
    out = capsys.readouterr().out
    assert rc == ref["rc"]
    assert json.dumps(json.loads(out), sort_keys=True) == json.dumps(ref["json"], sort_keys=True)
    assert hashlib.sha256(out.encode()).hexdigest() == ref["sha256"][0]


@pytest.mark.parametrize(
    "command, sha256",
    [
        ("bound --cyclotomic 13", "4d205ff51907d9efcc5f859a7d15d39e9dd69fcef5785a4dff58424a5cfe1f0f"),
        ("bound --cyclotomic 7 --bits 53", "79fffc726db260f6f74e2242366d208ad0209640af46c72d2ef34ce0f0f294c1"),
        ("bound --cyclotomic 11 --bits 256", "bd2b3e41c0ea8aa559c0c6260ca6ed9d99dd6dd2748f7b06bd920ee84291d078"),
    ],
)
def test_bound_json_bytes_at_p13_and_off_the_default_bits_are_pinned(command, sha256, capsys):
    """The built-in basis at p = 13, and the bound from 53 and from 256
    bits, where the benchmark's references do not reach."""
    assert cli.main(command.split() + ["--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256
