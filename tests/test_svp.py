"""Field-aware enumeration: Gram construction, minima, chamber reduction,
characteristic sets, circulant lattices."""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmsvp import cli, interval, lattice, svp, units
from cmsvp.bound import theorem_bound
from cmsvp.embeddings import normalize_weights, representatives
from cmsvp.errors import InputError, NotPositiveDefiniteError
from cmsvp.field import (
    CMField,
    FieldElement,
    cyclotomic_polynomial,
    exact_divide,
    field_norm,
    is_unit,
    trace,
)
from cmsvp.interval import (
    PrecisionConfig,
    RealInterval,
    _scaled,
    det_interval,
    interval_sum,
    log_interval,
    root_interval,
)
from cmsvp.svp import (
    GramMatrix,
    characteristic_set_E,
    craig_circulant,
    gram_matrix,
    minimal_vectors,
)
from cmsvp.units import UnitBasis, cyclotomic_unit_basis, fundamental_domain_vertices, reduce_to_chamber
from cmsvp.theta import psi_truncated
from conftest import (
    ORACLE_QUANTIZE_BITS,
    benchmark_spec,
    interval_gram_entries,
    leaves_of,
    log_sigma,
    oracle_minimal_vectors,
    oracle_psi,
    quantized_floor_form,
    reference_basis_map,
    reference_mismatches,
    sigma,
    sigma_real,
)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _skew_oracle(field, weights, box=4):
    """Floating-point exhaustive minimizer search over a coordinate box."""
    n = field.conductor
    d = field.degree
    reps = representatives(n)
    axes = [np.arange(-box, box + 1)] * d
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    q = np.zeros(len(pts))
    for w, rep in zip(weights, reps):
        z = np.exp(2j * np.pi * rep / n)
        emb = pts.astype(complex) @ z ** np.arange(d)
        q += float(w) * np.abs(emb) ** 2
    nonzero = np.any(pts != 0, axis=1)
    q_min = q[nonzero].min()
    keep = nonzero & (q <= q_min * (1 + 1e-9))
    return q_min, {tuple(int(c) for c in p) for p in pts[keep]}


def test_gram_matrix_equal_weights_exact(f5):
    g = gram_matrix(f5, None)
    assert g.exact
    assert g.dimension == 4
    expected = [Fraction(2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2)]
    for i in range(4):
        for j in range(4):
            assert g.entries[i][j] == expected[abs(i - j)]


def test_gram_matrix_ideal(f5):
    kappa = f5.one() - f5.zeta(1)
    g = gram_matrix(f5, None, kappa)
    assert g.exact
    kk = kappa * kappa.conj()
    for i in range(4):
        for j in range(4):
            assert g.entries[i][j] == Fraction(
                trace(kk * f5.zeta(abs(i - j))), 2
            )


def test_gram_matrix_interval_weights(f5):
    """Unequal weights give the exact Gram of the lower form q_omega, whose
    diagonal, Tr_K+(omega), is within DELTA of the weighted norm of each
    zeta^i, 3 sigma_1(1) + sigma_2(1) = 4, and at most 4 / ratio."""
    g = gram_matrix(f5, (Fraction(3), Fraction(1)))
    assert not g.exact
    assert all(isinstance(x, Fraction) for row in g.entries for x in row)
    for i in range(4):
        assert g.ratio * g.entries[i][i] <= 4 <= g.entries[i][i] * (1 + svp.DELTA)


@pytest.mark.parametrize("n", [5, 7, 8, 9, 12, 15, 16, 20, 21, 35])
@settings(deadline=None, derandomize=True, max_examples=3)
@given(data=st.data())
def test_gram_row_read_off_the_trace_table_is_the_trace_of_field_products(n, data):
    """Entry j of the first row of the Gram is Tr(x zeta^j) / (2 den) for
    omega = big / den and x = big kappa conj(kappa), with x zeta^j
    multiplied out in the field; the Gram is the Toeplitz matrix of that
    row.  Equal and unequal weights, with and without kappa = (1 -
    zeta)^2, at prime and composite conductors."""
    field = CMField(n)
    d, one_minus = field.degree, field.one() - field.zeta(1)
    w0 = data.draw(st.fractions(min_value=Fraction(1, 50), max_value=50))
    skew = tuple(map(Fraction, data.draw(st.lists(st.integers(1, 64), min_size=field.k, max_size=field.k, unique=True))))
    omega = interval.climb(interval.DEFAULT_PRECISION, lambda cur: svp._weight_element(field, skew, cur))
    for ws, big, den in (((w0,) * field.k, field.one() * w0.numerator, w0.denominator), (skew, *omega[:2])):
        for kappa in (None, one_minus * one_minus):
            x = big * (field.one() if kappa is None else kappa.times_conj())
            row = [Fraction(trace(x * field.zeta(j)), 2 * den) for j in range(d)]
            g = gram_matrix(field, ws, kappa)
            assert g.entries == tuple(tuple(row[abs(i - j)] for j in range(d)) for i in range(d))


def test_minimal_vectors_equal_weights(f5, f7):
    mv5 = minimal_vectors(f5, None)
    assert (mv5.mu, mv5.count) == (Fraction(2), 10)
    units = {tuple(u.coords) for u in f5.torsion_units()}
    assert set(mv5.vectors) == units
    mv7 = minimal_vectors(f7, None)
    assert (mv7.mu, mv7.count) == (Fraction(3), 14)


def test_minimal_vectors_ideal(f5, f7):
    k5 = f5.one() - f5.zeta(1)
    mv = minimal_vectors(f5, None, k5)
    assert (mv.mu, mv.count) == (Fraction(5), 20)
    k7 = f7.one() - f7.zeta(1)
    mv = minimal_vectors(f7, None, k7 * k7)
    assert (mv.mu, mv.count) == (Fraction(14), 42)


def test_minimal_vectors_skew_weights_match_float_oracle(f5):
    w = (Fraction(3), Fraction(1))
    mv = minimal_vectors(f5, w)
    q_min, vectors = _skew_oracle(f5, w)
    assert isinstance(mv.mu, RealInterval)
    assert mv.mu.lo - Fraction(1, 10**6) <= Fraction(q_min) <= mv.mu.hi + Fraction(1, 10**6)
    assert set(mv.vectors) == vectors


def test_minimal_vectors_skew_weights_n7(f7):
    w = (Fraction(2), Fraction(1), Fraction(1))
    mv = minimal_vectors(f7, w)
    q_min, vectors = _skew_oracle(f7, w, box=2)
    assert mv.mu.lo - Fraction(1, 10**6) <= Fraction(q_min) <= mv.mu.hi + Fraction(1, 10**6)
    assert set(mv.vectors) == vectors
    assert all(is_unit(f7.element(v)) for v in mv.vectors)


def _reference_superset(field, ws, kappa, red, radius, prec, budget=lattice.DEFAULT_BUDGET):
    """The superset search on enumerate_short's full listing: every listed
    vector, both of each +- pair, grouped by beta, each group certified by
    interval_sum(w_m * sigma_m)."""
    found, nodes = lattice.enumerate_short(red, radius, budget)
    groups = {}
    for coords, _ in found:
        a = svp._basis_element(field, kappa, coords)
        beta = a.times_conj()
        if beta not in groups:
            vals = sigma(field, a, prec)
            groups[beta] = (interval_sum(w * v for w, v in zip(ws, vals)), [])
        groups[beta][1].append(coords)
    return groups, nodes


@pytest.mark.parametrize(
    "p, weights",
    [
        (5, (3, 1)),
        (5, (1, Fraction(1, 10**8))),
        (7, (1, 10, 100)),
        (7, (2, 1, 1)),
        (11, (1, 2, 3, 4, 5)),
        (12, (1, 2)),
        (15, (1, 2, 3, 4)),
        (13, (1, 2, 4, 8, 16, 32)),
    ],
)
@pytest.mark.parametrize("ideal", [False, True])
def test_superset_search_on_the_half_space_equals_the_full_listing(p, weights, ideal):
    """Same beta keys and enclosures as a search over enumerate_short's
    listing, with one member of each +- pair: half the members, whose
    mirrors are the other half, once mapped from reduced coordinates to
    the Gram's basis."""
    field = CMField(p)
    prec = PrecisionConfig()
    ws = normalize_weights(field, weights)
    kappa = field.one() - field.zeta(1) if ideal else None
    g = gram_matrix(field, ws, kappa, prec)
    red = g.reduction
    radius = 3 * svp.basis_minimum(field, ws, kappa, red.u, prec)
    groups, nodes = svp.superset_search(field, ws, kappa, g, radius, prec, lattice.DEFAULT_BUDGET)
    # the lower form's radius: radius / ratio, floored onto its 1/s grid
    lower = radius / g.ratio
    lower = Fraction(lower.numerator * red.s // lower.denominator, red.s)
    ref, ref_nodes = _reference_superset(field, ws, kappa, red, lower, prec)
    assert nodes == ref_nodes
    assert list(groups) and set(groups) == set(ref)
    to_basis = reference_basis_map(red.u)
    for beta, (value, members) in groups.items():
        ref_value, ref_members = ref[beta]
        assert value == ref_value
        assert 2 * len(members) == len(ref_members)
        members = [to_basis(c) for c in members]
        mirrors = [tuple(-x for x in c) for c in members]
        assert sorted(members + mirrors) == ref_members


def _unimodular_inverse(u):
    """The integer inverse of a unimodular matrix, by exact elimination."""
    d = len(u)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(u)]
    for col in range(d):
        piv = next(r for r in range(col, d) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(d):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    assert all(v.denominator == 1 for row in a for v in row)
    return [[int(v) for v in row[d:]] for row in a]


def _balanced_digits(key, b, n):
    """The n base-2^b digits in [-2^(b-1), 2^(b-1)) of an integer that has
    exactly n of them."""
    out = []
    for _ in range(n):
        digit = key & ((1 << b) - 1)
        if digit >= 1 << (b - 1):
            digit -= 1 << b
        out.append(digit)
        key = (key - digit) >> b
    assert key == 0
    return out


def _autocorrelation_mod(field, alpha_poly):
    """s(z) s(1/z) mod z^n - 1 for s = alpha_poly * prod_{e | n, e < n}
    Phi_e mod z^n - 1, by schoolbook products."""
    n = field.conductor
    s = list(alpha_poly)
    for e in range(1, n):
        if n % e == 0:
            phi = cyclotomic_polynomial(e)
            s = [sum(s[i] * phi[j - i] for i in range(len(s)) if 0 <= j - i < len(phi))
                 for j in range(len(s) + len(phi) - 1)]
    folded = [0] * n
    for e, c in enumerate(s):
        folded[e % n] += c
    return [sum(folded[i] * folded[(i - e) % n] for i in range(n)) for e in range(n)]


@settings(max_examples=12, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("ideal", ["none", "one minus zeta", "drawn"])
@pytest.mark.parametrize("n", [5, 7, 9, 11, 12, 13, 15, 16, 20, 21])
def test_packed_beta_keys_group_as_times_conj(n, ideal, data):
    """_beta_keys gives two vectors the same key exactly when their
    alpha = kappa * (x . U) have the same beta = alpha*conj(alpha): the
    torsion multiples and the conjugate of alpha share its key, a second
    drawn vector groups with them as times_conj says, and each key is the
    exact balanced packing of s(z) s(1/z) mod z^n - 1.  Coordinates up to
    10^12 make the digit width large."""
    field = CMField(n)
    d = field.degree
    if ideal == "none":
        kappa = None
    elif ideal == "one minus zeta":
        kappa = field.one() - field.zeta(1)
    else:
        # gamma + zeta^m conj(gamma): an ideal that conjugation fixes, so
        # conj(alpha) lies in it too
        gamma = field.element(data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
        kappa = gamma + field.zeta(data.draw(st.integers(0, n - 1))) * gamma.conj()
        assume(not kappa.is_zero())
    u = gram_matrix(field, None, kappa).reduction.u
    one = field.one() if kappa is None else kappa
    unit = exact_divide(one.conj(), one)  # conj(kappa) = unit * kappa
    coords = st.lists(st.integers(-10**12, 10**12), min_size=d, max_size=d)
    x, y = (tuple(data.draw(coords)) for _ in range(2))
    assume(any(x) and any(y))
    to_basis, to_reduced = reference_basis_map(u), reference_basis_map(_unimodular_inverse(u))

    def times_kappa(v):
        return v if kappa is None else kappa * v

    b = field.element(to_basis(x))
    mates = [field.zeta(j) * b for j in range(1, n)] + [-b, unit * b.conj()]
    pool = [x, y] + [to_reduced(m.coords) for m in mates]
    keys, width = svp._beta_keys(field, kappa, u, leaves_of(pool))
    assert all(key == keys[0] for key in keys[2:])
    betas = [times_kappa(field.element(to_basis(v))).times_conj() for v in pool]
    assert betas[2:] == [betas[0]] * len(mates)
    assert (keys[0] == keys[1]) == (betas[0] == betas[1])
    for v, key in zip((x, y), keys):
        alpha = times_kappa(field.element(to_basis(v)))
        assert _balanced_digits(key, width, n) == _autocorrelation_mod(field, alpha.coords)
    # alone in its listing, a vector gets the tightest digit width; the
    # rows of U alone come closest to the coefficient bound
    rows = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    for v in [x] + rows:
        [key], width = svp._beta_keys(field, kappa, u, leaves_of([v]))
        alpha = times_kappa(field.element(to_basis(v)))
        assert _balanced_digits(key, width, n) == _autocorrelation_mod(field, alpha.coords)


@pytest.mark.parametrize(
    "p, weights, ideal_exp",
    [
        (5, (3, 1), 0),
        (5, (1, Fraction(1, 10**8)), 1),
        (7, (1, 10, 100), 0),
        (7, (3, 1, 2), 2),
        (11, (1, 4, 16, 64, 256), 0),
        (7, (1, 2, 3), 0),
    ],
)
def test_skew_minimal_vectors_are_sorted_and_closed_under_negation(p, weights, ideal_exp):
    field = CMField(p)
    kappa = cli._one_minus_zeta_power(field, ideal_exp) if ideal_exp else None
    mv = minimal_vectors(field, weights, kappa)
    assert isinstance(mv.mu, RealInterval) and mv.count > 0
    assert list(mv.vectors) == sorted(mv.vectors)
    assert len(set(mv.vectors)) == mv.count
    assert {tuple(-x for x in v) for v in mv.vectors} == set(mv.vectors)


def test_short_vector_set_json(f5):
    mv = minimal_vectors(f5, None)
    out = mv.to_json()
    assert set(out) == {"mu", "count", "vectors", "radius", "nodes"}
    assert out["count"] == 10
    assert out["mu"] == "2"


def test_characteristic_set_sizes(f5, f7):
    basis5 = cyclotomic_unit_basis(f5)
    e5 = characteristic_set_E(f5, basis5, theorem_bound(f5, basis5))
    assert e5.size == 10
    assert set(e5.elements) == set(f5.torsion_units())
    basis7 = cyclotomic_unit_basis(f7)
    e7 = characteristic_set_E(f7, basis7, theorem_bound(f7, basis7))
    assert e7.size == 14
    assert set(e7.elements) == set(f7.torsion_units())
    assert set(e5.to_json()) == {"size", "elements"}


def test_reduce_to_chamber_inverts_unit_multiplication(f5, f7):
    """Integer exponents in [-3, 3] on every generator, so at p = 11 and
    13 negative powers of 4 and 5 generators are read back exactly: the
    coordinates sit on integer walls, which the exact ratio test decides."""
    rng = random.Random(53)
    for field in (f5, f7, CMField(11), CMField(13)):
        basis = cyclotomic_unit_basis(field)
        for _ in range(10):
            torsion = field.zeta(rng.randint(0, field.conductor - 1))
            if rng.random() < 0.5:
                torsion = -torsion
            exps = tuple(rng.randint(-3, 3) for _ in basis.generators)
            w = torsion
            for g, e in zip(basis.generators, exps):
                for _ in range(abs(e)):
                    w = w * g if e > 0 else exact_divide(w, g)
            eta, found = reduce_to_chamber(field, basis, w)
            assert found == exps
            assert eta == torsion


def test_craig_circulant_r0_is_dual_root_lattice():
    g = craig_circulant(4, 0)
    assert g.exact
    assert g.dimension == 4
    for i in range(4):
        for j in range(4):
            assert g.entries[i][j] == (1 if i == j else 0) - Fraction(1, 5)


def test_craig_circulant_r1_is_root_lattice():
    g = craig_circulant(4, 1)
    assert g.dimension == 4
    for i in range(4):
        for j in range(4):
            expected = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
            assert g.entries[i][j] == expected


def test_craig_circulant_validation():
    with pytest.raises(InputError):
        craig_circulant(5, 1)  # 6 is not prime
    with pytest.raises(InputError):
        craig_circulant(4, -1)


def test_craig_minima():
    from cmsvp.lattice import minimum_shell

    mu, mins, _, _ = minimum_shell(lattice.reduce(craig_circulant(4, 2).rows()))
    assert (mu, len(mins)) == (Fraction(4), 10)
    mu, mins, _, _ = minimum_shell(lattice.reduce(craig_circulant(6, 1).rows()))
    assert (mu, len(mins)) == (Fraction(2), 42)


def test_exact_gram_that_is_not_positive_definite_fails_at_construction():
    with pytest.raises(NotPositiveDefiniteError):
        GramMatrix(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))), True)
    with pytest.raises(NotPositiveDefiniteError):
        GramMatrix(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))), True)


@pytest.mark.parametrize(
    "command",
    [
        "minima --cyclotomic 17 --ideal-exp 2",
        "minima --cyclotomic 11 --weights 1,4,16,64,256",
        "psi --cyclotomic 11 --t 1",
        "psi --cyclotomic 11 --t 1/2 --weights 1,2,3,4,5",
        "theta --cyclotomic 11 --max-norm 20",
        "set-e --cyclotomic 5",
    ],
)
def test_each_command_reduces_its_gram_once(command, monkeypatch, capsys):
    """The Gram's construction reduces it; the searches reuse that reduction."""
    calls = []
    real_lll = lattice.lll_reduce

    def counting_lll(g):
        calls.append(len(g))
        return real_lll(g)

    monkeypatch.setattr(lattice, "lll_reduce", counting_lll)
    assert cli.main(command.split()) == 0
    assert len(calls) == 1


def test_set_e_multiplies_out_beta_once_per_group(monkeypatch, capsys):
    """Set E at p = 7 walks 84 +- pairs, 168 candidates, on the half-space
    descent, which fall into 11 groups of equal beta = a conj(a); beta is
    multiplied out once per group: the times_conj calls between the
    descent and the set-up of the basis's chamber are the grouping's."""
    products, listed, at = [], [], {}
    real_times_conj, real_half_space, real_chamber = FieldElement.times_conj, lattice._half_space, units._Chamber

    def counting_times_conj(self):
        products.append(1)
        return real_times_conj(self)

    def counting_half_space(*args):
        half, nodes = real_half_space(*args)
        listed.append(len(half))
        at["listed"] = len(products)
        return half, nodes

    def counting_chamber(*args):
        at["chamber"] = len(products)
        return real_chamber(*args)

    monkeypatch.setattr(FieldElement, "times_conj", counting_times_conj)
    monkeypatch.setattr(lattice, "_half_space", counting_half_space)
    # UnitBasis.chamber builds the basis's one chamber on first use
    monkeypatch.setattr(units, "_Chamber", counting_chamber)
    assert cli.main(["set-e", "--cyclotomic", "7", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 14
    # 84 pairs = 168 candidates
    assert listed == [84]
    assert at["chamber"] - at["listed"] == 11


def test_set_e_with_a_basis_file_builds_the_unit_log_matrix_once_per_precision(tmp_path, monkeypatch, capsys):
    """load_unit_basis certifies the file's basis through the chamber that
    set E then reduces against, so the generators' log matrix and its
    adjugate are built once per precision, not once for each."""
    field = CMField(7)
    basis = cyclotomic_unit_basis(field)
    path = tmp_path / "units.txt"
    path.write_text(f"torsion {basis.torsion}\n" + "".join(g.format() + "\n" for g in basis.generators), encoding="utf-8")
    adjugates, logged = [], []
    real_adjugate, real_log = units.adjugate, units._log_sigma

    def counting_adjugate(m):
        adjugates.append(len(m))
        return real_adjugate(m)

    def counting_log(n, coords, prec):
        logged.append(prec.bits)
        return real_log(n, coords, prec)

    monkeypatch.setattr(units, "adjugate", counting_adjugate)
    monkeypatch.setattr(units, "_log_sigma", counting_log)
    assert cli.main(["set-e", "--cyclotomic", "7", "--units", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 14
    assert adjugates == [field.k - 1] * len(set(logged)) == [2]


def test_verify_craig_reduces_three_grams_per_leg(monkeypatch, capsys):
    """Each leg reduces the field Gram of its minimal vectors, the circulant
    Gram and the field Gram of its theta check."""
    calls = []
    real_lll = lattice.lll_reduce

    def counting_lll(g):
        calls.append(len(g))
        return real_lll(g)

    monkeypatch.setattr(lattice, "lll_reduce", counting_lll)
    assert cli.main(["verify-craig", "-p", "7", "-r", "1..6", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert len(calls) == 18


def test_verify_craig_tests_one_quotient_per_distinct_beta(monkeypatch, capsys):
    """The factorization check tests one quotient v of each distinct
    v conj(v) of each leg: 14 for the 196 minimal vectors of -p 7 -r 1..6."""
    seen = []
    real_norm = cli.real_norm

    def recording(beta):
        seen.append(beta)
        return real_norm(beta)

    monkeypatch.setattr(cli, "real_norm", recording)
    assert cli.main(["verify-craig", "-p", "7", "-r", "1..6", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert sum(c["count"] for c in checks) == 196
    assert all(c["factorization"] == "pass" for c in checks)
    assert len(seen) == 14


def test_set_e_computes_the_unit_log_matrix_once_per_precision(monkeypatch, capsys):
    """Set E at p = 7 tests each beta = a conj(a) once: 168 candidates, 84
    +- pairs on the half-space descent, fall into 11 groups, each gets one
    exact norm, and each chamber attempt one log_sigma against one adjugate
    of the unit log matrix per precision: k - 1 shared cofactor expansions,
    one per deleted row, and one for the determinant."""
    field = CMField(7)
    k1 = field.k - 1
    gens = len(cyclotomic_unit_basis(field).generators)
    logged, expansions, divides, norms, pairs, attempts = [], [], [], [], [], []
    real_log, real_divide, real_norm = units._log_sigma, units.exact_divide, svp.real_norm
    real_det, real_minors = interval.det_interval, interval.minor_intervals
    real_half_space = lattice._half_space
    real_coordinates = units._Chamber.coordinates

    def counting_log(n, coords, prec):
        logged.append(prec.bits)
        return real_log(n, coords, prec)

    def counting_det(den, pairs):
        expansions.append(len(pairs))
        return real_det(den, pairs)

    def counting_minors(den, pairs):
        expansions.append(len(pairs))
        return real_minors(den, pairs)

    def counting_divide(a, b):
        divides.append((a, b))
        return real_divide(a, b)

    def counting_norm(beta):
        norms.append(1)
        return real_norm(beta)

    def counting_half_space(*args):
        half, nodes = real_half_space(*args)
        pairs.append(len(half))
        return half, nodes

    def counting_coordinates(self, ys, prec):
        attempts.append(prec.bits)
        return real_coordinates(self, ys, prec)

    monkeypatch.setattr(units, "_log_sigma", counting_log)
    # interval.adjugate looks det_interval and minor_intervals up in its own
    # module; the bound engine binds its own names and is not counted
    monkeypatch.setattr(interval, "det_interval", counting_det)
    monkeypatch.setattr(interval, "minor_intervals", counting_minors)
    monkeypatch.setattr(units, "exact_divide", counting_divide)
    monkeypatch.setattr(svp, "real_norm", counting_norm)
    monkeypatch.setattr(lattice, "_half_space", counting_half_space)
    monkeypatch.setattr(units._Chamber, "coordinates", counting_coordinates)
    assert cli.main(["set-e", "--cyclotomic", "7", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 14
    # 84 pairs = 168 candidates
    assert pairs == [84]
    # one exact norm per beta group
    assert len(norms) == 11
    # each chamber attempt logs only its beta; the generators are logged
    # once at each precision tried
    precisions = len(set(logged))
    assert len(logged) == len(attempts) + gens * precisions
    # det L and one expansion per deleted row for its (k-1)^2 cofactor
    # minors, once per precision
    assert expansions == [k1 - 1] * k1 + [k1]
    assert len(expansions) == (1 + k1) * precisions
    # at p = 7 every attempt separates at the base precision: 7 of the 11
    # groups are within the norm bound
    assert (precisions, len(attempts), len(logged), len(expansions)) == (1, 7, 9, 3)
    # the one division is the built-in basis's u = (1 - zeta^3) / (1 - zeta);
    # the chamber divides nothing
    one = field.one()
    assert divides == [(one - field.zeta(3), one - field.zeta(1))]


def test_reduce_to_chamber_climbs_the_ladder_for_a_large_generator(f7):
    """With the basis {g0*g1^100, g1} the log rows need more than 256 bits
    to certify positivity, so one retry from 128 bits raised; the ladder
    finds the exponents, and the quotient lies in the chamber."""
    g0, g1 = cyclotomic_unit_basis(f7).generators
    big = g0
    for _ in range(100):
        big = big * g1
    basis = UnitBasis(f7, (big, g1), 14, "test")
    w = f7.element([3, 1, 0, 2, 0, 0])
    eta, exps = reduce_to_chamber(f7, basis, w, PrecisionConfig(128))
    assert exps == (-1, 22)
    assert reduce_to_chamber(f7, basis, eta) == (eta, (0, 0))


def test_reduce_to_chamber_divides_once(f7, monkeypatch):
    """w = zeta^3 g0^3 / g1 reduces with one exact division: g1 multiplies
    w and g0^3 is the divisor."""
    basis = cyclotomic_unit_basis(f7)
    g0, g1 = basis.generators
    w = f7.zeta(3) * g0 * g0 * g0 * exact_divide(f7.one(), g1)
    divides = []
    real_divide = units.exact_divide

    def counting_divide(a, b):
        divides.append(b)
        return real_divide(a, b)

    monkeypatch.setattr(units, "exact_divide", counting_divide)
    assert reduce_to_chamber(f7, basis, w) == (f7.zeta(3), (3, -1))
    assert divides == [g0**3]


def _reference_interval_entries(field, ws, kappa, prec):
    """The interval Gram's entries by RealInterval arithmetic: entry j is
    the interval sum of w_m * sigma_m(kk (zeta^j + zeta^-j)), halved."""
    d = field.degree
    kk = field.one() if kappa is None else kappa.times_conj()
    t = []
    for j in range(d):
        vals = sigma_real(field, kk * (field.zeta(j) + field.zeta(-j)), prec)
        total = sum((x * v for x, v in zip(ws, vals)), RealInterval.point(0))
        t.append(total * Fraction(1, 2))
    return tuple(tuple(t[abs(i - j)] for j in range(d)) for i in range(d))


def _reference_floor_form(entries):
    """(reduction, bits) of the lower form over all d^2 entries: each
    midpoint quantized to 2^-bits, eps the largest distance from one to an
    endpoint of its entry, dim * eps off the diagonal; the bits double
    until the form reduces, up to the midpoints' own bit length."""
    d = len(entries)
    mids = [[e.mid for e in row] for row in entries]
    finest = max(m.denominator for row in mids for m in row).bit_length()
    bits = ORACLE_QUANTIZE_BITS
    while True:
        q = 1 << bits
        low = [[Fraction(round(m * q), q) for m in row] for row in mids]
        eps = Fraction(0)
        for i in range(d):
            for j in range(d):
                e = entries[i][j]
                eps = max(eps, e.hi - low[i][j], low[i][j] - e.lo)
        for i in range(d):
            low[i][i] -= d * eps
        try:
            return lattice.reduce(low), bits
        except NotPositiveDefiniteError:
            if bits >= finest:
                raise
            bits *= 2


def _interval_weights(k):
    """k positive interval weights of different widths."""
    return tuple(
        RealInterval(Fraction(2 * m + 1, m + 1), Fraction(2 * m + 1, m + 1) + Fraction(1, 2 ** (60 + 7 * m)))
        for m in range(k)
    )


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("kind", ["rational", "interval"])
@pytest.mark.parametrize("ideal", [False, True])
def test_interval_gram_and_lower_form_equal_the_interval_arithmetic(p, kind, ideal):
    """The oracle's interval Gram from the integer sigma-numerator kernel
    equals the interval sums of weighted sigmas, and its lower form taken
    once per distinct entry equals the one taken over all d^2 entries."""
    field, prec = CMField(p), PrecisionConfig()
    ws = tuple(range(1, field.k + 1)) if kind == "rational" else _interval_weights(field.k)
    ws = normalize_weights(field, ws)
    kappa = field.one() - field.zeta(1) if ideal else None
    entries = interval_gram_entries(field, ws, kappa, prec)
    assert entries == _reference_interval_entries(field, ws, kappa, prec)
    assert quantized_floor_form(entries) == _reference_floor_form(entries)


def test_lower_form_doubles_its_bits_as_the_reference_does(f5):
    """At weights 1 and 10^-8 the oracle's 24-bit lower form is not
    positive definite: the doubled quantum gives the reference's lower
    form."""
    ws = normalize_weights(f5, (1, Fraction(1, 10**8)))
    entries = interval_gram_entries(f5, ws, None)
    assert entries == _reference_interval_entries(f5, ws, None, PrecisionConfig())
    red, bits = quantized_floor_form(entries)
    assert bits > ORACLE_QUANTIZE_BITS and (red, bits) == _reference_floor_form(entries)


def test_skewed_weights_refine_the_floor_form_quantum(f5):
    """Weights 1 and 10^-8 give a form whose smallest eigenvalue is about
    1e-8, below the slack of the oracle's 24-bit lower form, which has to
    refine its quantum; the exact lower form certifies it at once."""
    w = (Fraction(1), Fraction(1, 10**8))
    mv = minimal_vectors(f5, w)
    assert mv.count == 10
    assert all(is_unit(f5.element(v)) for v in mv.vectors)
    # the listed vectors attain the enclosed minimum in floating point
    for v in mv.vectors:
        q = sum(
            float(x) * abs(sum(c * np.exp(2j * np.pi * rep * m / 5) for m, c in enumerate(v))) ** 2
            for x, rep in zip(w, representatives(5))
        )
        assert float(mv.mu.lo) * (1 - 1e-9) <= q <= float(mv.mu.hi) * (1 + 1e-9)
    assert cli.main(["minima", "--cyclotomic", "5", "--weights", "1,1/100000000"]) == 0


ORACLE_CONDUCTORS = [5, 7, 11, 12, 13, 15]


def _oracle_weights(field, kind):
    """Rational weights 1..k, interval weights of different widths about
    them, or 1 and then 10^-8."""
    k = field.k
    if kind == "rational":
        ws = tuple(range(1, k + 1))
    elif kind == "interval":
        ws = tuple(RealInterval(Fraction(m + 1), m + 1 + Fraction(1, 2 ** (60 + 7 * m))) for m in range(k))
    else:
        ws = (1,) + (Fraction(1, 10**8),) * (k - 1)
    return normalize_weights(field, ws)


@pytest.mark.parametrize("p", ORACLE_CONDUCTORS)
@pytest.mark.parametrize("kind", ["rational", "interval", "tiny"])
@pytest.mark.parametrize("ideal", [False, True])
def test_skewed_minimal_vectors_equal_the_interval_lower_form_oracle(p, kind, ideal):
    """The exact lower form finds the oracle's minimal vectors and count,
    and the same mu bytes: mu is the weighted sum of one beta either way."""
    field = CMField(p)
    ws = _oracle_weights(field, kind)
    kappa = field.one() - field.zeta(1) if ideal else None
    mv = minimal_vectors(field, ws, kappa)
    want = oracle_minimal_vectors(field, ws, kappa)
    assert (mv.vectors, mv.count) == (want.vectors, want.count)
    assert interval.interval_json(mv.mu) == interval.interval_json(want.mu)


@pytest.mark.parametrize("p", ORACLE_CONDUCTORS)
@pytest.mark.parametrize("kind", ["rational", "interval", "tiny"])
def test_the_weight_element_is_certified_below_the_weights(p, kind):
    """ratio * sigma_m(omega) <= w_m and sigma_m(omega) > 0 for every m,
    on sigma enclosures of omega from the reference kernel; the basis is
    the theta_j of every conductor, with no prime-only shortcut."""
    field, prec = CMField(p), PrecisionConfig()
    ws = _oracle_weights(field, kind)
    big, den, ratio = svp._weight_element(field, ws, prec)
    assert big == big.conj() and ratio >= 1 - svp.DELTA
    for w, s in zip(ws, sigma_real(field, big, prec)):
        low = w.lo if isinstance(w, RealInterval) else w
        assert s.lo > 0 and ratio * s.hi <= low * den
    g = gram_matrix(field, ws, None, prec)
    assert g.ratio == ratio and not g.exact


PSI_ORACLE_TS = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]


@pytest.mark.parametrize("p", ORACLE_CONDUCTORS)
@pytest.mark.parametrize("kind", ["rational", "interval"])
def test_skewed_psi_encloses_what_the_oracle_encloses(p, kind):
    """psi at t = 1/4, 1/2, 1 and 2 overlaps the oracle's enclosure and is
    at most 1.001 times as wide: the exact lower form's tail, from ratio
    times its pivots, stays within 0.1% of the quantized form's."""
    field = CMField(p)
    ws = _oracle_weights(field, kind)
    for t in PSI_ORACLE_TS:
        got = psi_truncated(field, ws, t).enclosure()
        want = oracle_psi(field, ws, t).enclosure()
        assert got.overlaps(want), t
        assert got.width <= Fraction(1001, 1000) * want.width, t


@pytest.mark.parametrize(
    "command",
    [
        "psi --cyclotomic 11 --t 1",
        "psi --cyclotomic 11 --t 1/2 --weights 1,2,3,4,5",
        "set-e --cyclotomic 5",
        "set-e --cyclotomic 7",
        "set-e --cyclotomic 7 --bits 256",
        "verify-craig -p 7 -r 1..6",
    ],
)
def test_analytic_json_is_byte_identical_to_stored_reference(command, capsys):
    """The --json bytes of the reference; a skewed run, whose lower form
    fixes its search record and psi tail digits, passes the semantic check
    of conftest.reference_mismatches instead."""
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[command]
    rc = cli.main(command.split() + ["--json"])
    out = capsys.readouterr().out
    if "--weights" in command:
        assert reference_mismatches(benchmark_spec(command), 0, rc, out) == []
        return
    assert rc == ref["rc"]
    assert hashlib.sha256(out.encode()).hexdigest() == ref["sha256"][0]


def _reference_set_e(field, basis, report, prec):
    """Set E one candidate at a time: an exact norm, a Cramer solve on
    interval determinants and a wall test on the candidate itself, for every
    enumerated candidate."""
    k, k1 = field.k, field.k - 1
    bound = report.bound
    q_max = max(Fraction(trace(v * v.conj()), 2) for v in fundamental_domain_vertices(basis))
    radius = (root_interval(RealInterval.point(bound.hi), k, prec.bits) * q_max).hi
    gram = lattice.reduce(gram_matrix(field, None, None, prec).rows())
    found, _ = lattice.enumerate_short(gram, radius)
    gens = basis.generators

    def exponents(a, n_abs):
        for cur in prec.ladder():
            rows = [log_sigma(field, g, cur) for g in gens]
            mat = [[rows[j][m] for j in range(k1)] for m in range(k1)]
            ys = log_sigma(field, a, cur)
            shift = log_interval(RealInterval.point(Fraction(n_abs)), cur.bits) / k
            rhs = [y - shift for y in ys]
            det = det_interval(*_scaled(mat))
            c = [
                det_interval(*_scaled([[rhs[i] if col == j else mat[i][col] for col in range(k1)] for i in range(k1)]))
                / det
                for j in range(k1)
            ]
            lo = [cj.lo.numerator // cj.lo.denominator for cj in c]
            hi = [cj.hi.numerator // cj.hi.denominator for cj in c]
            if lo == hi:
                return tuple(lo)
            guess = tuple(round(cj.mid) for cj in c)
            red = a
            for g, e in zip(gens, guess):
                for _ in range(abs(e)):
                    red = exact_divide(red, g) if e > 0 else red * g
            if not any((red * red.conj()).coords[1:]):
                return guess
        raise AssertionError("reference chamber solve did not separate")

    elements = []
    for coords, _ in found:
        a = field.element(coords)
        n_abs = abs(field_norm(a))
        if n_abs <= bound.hi and exponents(a, n_abs) == (0,) * k1:
            elements.append(a)
    return tuple(sorted(elements, key=lambda e: e.coords))


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("conductor", [5, 7])
def test_set_e_by_beta_groups_equals_the_per_candidate_loop(conductor, bits):
    field = CMField(conductor)
    basis = cyclotomic_unit_basis(field)
    prec = PrecisionConfig(bits)
    report = theorem_bound(field, basis, prec)
    expected = _reference_set_e(field, basis, report, prec)
    assert characteristic_set_E(field, basis, report, prec).elements == expected


def test_set_e_p11_json_is_pinned(capsys):
    """44 elements, and the --json bytes of the per-candidate implementation
    this grouping replaced."""
    assert cli.main(["set-e", "--cyclotomic", "11", "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["size"] == 44
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ea65679c581d1d6f716c07a1e3e98a101f516103cf4e6b62bff26beed0d11dfa"
    )
