"""Theta tables, truncated psi sums with certified tails, cusp readout.

High-precision reference values below were produced by direct mpmath
summation (50 digits) over independently enumerated norm shells.
"""

import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cmsvp import cli, lattice, svp, theta
from cmsvp.embeddings import representatives
from cmsvp.errors import InputError
from cmsvp.field import CMField, FieldElement
from cmsvp.interval import RealInterval
from cmsvp.svp import GramMatrix, craig_circulant, gram_matrix, minimal_vectors
from cmsvp.theta import (
    _pivot_floor,
    cusp_extract,
    psi_truncated,
    same_counts,
    theta_prefix,
)

from conftest import ldl, own_record, random_int_gram, reduced_gram, reference_tail_bound, sigma, theta_sum

PSI5_T2 = Fraction("1.0000350036722590365260564947061390719773289969898")
PSI5_T4 = Fraction("1.0000000001216164153243296975053644337075200684559")
THETA_IDEAL5_T2 = Fraction("1.0000000000004542202136648342414360426770426075049")
# exact endpoints at weights (3, 1) on Q(zeta_5) from the quantized interval
# lower form that unequal weights searched before the exact one:
# psi_truncated at t = 2 (value, tail upper end) and the cusp readout of mu.
# The exact lower form must overlap them and be at most 1.001 times as wide
SKEW5_PSI_T2_VALUE = (
    Fraction(
        "1078397867395190843838227666030703360775731599763308038557751082"
        "80049/1078397866686025591786680603480785226945485776901622899244"
        "14440996864"
    ),
    Fraction(
        "2156795734790381687676455332061406721551463200969151464627025333"
        "10393/2156795733372051183573361206961570453890971553803245798488"
        "28881993728"
    ),
)
SKEW5_PSI_T2_TAIL_HI = Fraction(
    "2884642900119947392749259756532807330415971562467134406902343075"
    "9862614497962227952590620148841180138897555321192804302011980125"
    "1964786449720666991535550451320843883837361331497509071894793751"
    "7259123863397883643993343256652886864511043678315223879737015315"
    "0786921706766224727277716488159748389111255908044453989986597234"
    "2784/66138864960432554359278372489105278795559991292977655973946"
    "0275961959865600108823127813736066966775944838328478882907772341"
    "1981208338024763420779762393495793856052325594207807537453810956"
    "4588220654096694067496600788869507630383151814211122662497380038"
    "9996552952076185732672649535503105430026135998390918293462086218"
    "245120812898539475785980237980915269"
)
SKEW5_CUSP_MU = (
    Fraction(
        "1789862953928838347704445092741224323228291679391229470209177050"
        "3000897257180211271/47553009545065586638994008314133890818471876"
        "49483822387828555625283024518224281600"
    ),
    Fraction(
        "1106040272165927288251727416283149869657919354016807/29385233965"
        "1086010968627532783571912220889789235200"
    ),
)

SKEW5_PSI_T2 = RealInterval(SKEW5_PSI_T2_VALUE[0], SKEW5_PSI_T2_VALUE[1] + SKEW5_PSI_T2_TAIL_HI)


def _near_pin(enc: RealInterval, pin: RealInterval) -> bool:
    """enc overlaps the pinned enclosure and is at most 1.001 times as
    wide."""
    return enc.overlaps(pin) and enc.width <= Fraction(1001, 1000) * pin.width


def test_theta_prefix_z5():
    identity = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(5)) for i in range(5)
    )
    tp = theta_prefix(GramMatrix(identity, True), 3)
    assert tp.scale == 1
    assert tp.coefficients == ((0, 1), (1, 10), (2, 40), (3, 80))


def test_theta_prefix_ring_of_integers(f5):
    tp = theta_prefix(gram_matrix(f5, None), 8)
    assert tp.scale == Fraction(1, 2)
    assert tp.norm_counts() == {
        Fraction(0): 1,
        Fraction(2): 10,
        Fraction(3): 20,
        Fraction(5): 20,
        Fraction(7): 60,
        Fraction(8): 50,
    }
    assert set(tp.to_json()) == {"scale", "coefficients"}


def test_theta_prefix_validation(f5):
    with pytest.raises(InputError):
        theta_prefix(gram_matrix(f5, (Fraction(3), Fraction(1))), 4)
    with pytest.raises(InputError):
        theta_prefix(craig_circulant(4, 0), -1)


def test_same_counts_scale_independent(f5):
    kappa = f5.one() - f5.zeta(1)
    g = gram_matrix(f5, None, kappa * kappa)
    ideal = GramMatrix(tuple(tuple(Fraction(2, 5) * x for x in row) for row in g.entries), True)
    assert same_counts(theta_prefix(craig_circulant(4, 2), 10), theta_prefix(ideal, 10))
    assert not same_counts(
        theta_prefix(craig_circulant(4, 1), 8), theta_prefix(craig_circulant(4, 2), 8)
    )


def test_psi_equal_weights_pins(f5):
    for t, pin in ((2, PSI5_T2), (4, PSI5_T4)):
        sample = psi_truncated(f5, None, t)
        enc = sample.enclosure()
        assert enc.lo <= pin <= enc.hi
        assert sample.tail.lo >= 0
        assert enc.width < Fraction(1, 10**12)


def test_psi_monotone_in_t(f5):
    values = [psi_truncated(f5, None, t).enclosure() for t in (1, 2, 4)]
    assert values[0].lo > values[1].hi
    assert values[1].lo > values[2].hi
    assert values[2].lo > 1


def test_psi_leading_term(f5):
    """psi(t) - 1 approaches (count) e^(-pi t mu) as t grows."""
    sample = psi_truncated(f5, None, 10).enclosure()
    with mpmath.workdps(50):
        lead = 10 * mpmath.exp(-20 * mpmath.pi)
        rel = abs((sample.mid - 1) / Fraction(str(lead)) - 1)
    assert rel < Fraction(1, 10**6)


def test_cusp_extract_builds_and_reduces_each_gram_once(monkeypatch):
    """One Gram, built once, that the minimum, the excess data and both psi
    samples share: one weight element for one lower form, and one LLL
    reduction."""
    lower_forms, reductions = [], []
    real_element, real_lll = svp._weight_element, lattice.lll_reduce

    def counting_element(field, ws, prec):
        lower_forms.append(field.degree)
        return real_element(field, ws, prec)

    def counting_lll(g):
        reductions.append(len(g))
        return real_lll(g)

    monkeypatch.setattr(svp, "_weight_element", counting_element)
    monkeypatch.setattr(lattice, "lll_reduce", counting_lll)
    mu, count = cusp_extract(CMField(5), (3, 1))
    assert _near_pin(mu, RealInterval(*SKEW5_CUSP_MU)) and count == 10
    assert len(lower_forms) == len(reductions) == 1


def test_theta_prefix_lists_no_vectors(monkeypatch):
    """Theta counting walks one vector per +- pair and never asks for the
    full listing."""
    g = craig_circulant(6, 1)
    listed: dict[Fraction, int] = {}
    for _, q in lattice.enumerate_short(g.reduction, Fraction(6))[0]:
        listed[q] = listed.get(q, 0) + 1
    listed[Fraction(0)] = 1

    def refuse(*args, **kwargs):
        raise AssertionError("theta counting listed vectors")

    monkeypatch.setattr(lattice, "enumerate_short", refuse)
    assert theta_prefix(g, 6).norm_counts() == listed


def test_skew_psi_multiplies_out_beta_once_per_group(f5, monkeypatch):
    """The superset search walks one alpha of each +-alpha pair on the
    half-space descent and groups them by beta = alpha*conj(alpha), which
    is multiplied out once per group."""
    listed, products, searched, groups = [], [], [], []
    real_half_space, real_search = lattice._half_space, theta.superset_search
    real_times_conj = FieldElement.times_conj

    def counting_half_space(*args):
        half, nodes = real_half_space(*args)
        listed.append(len(half))
        return half, nodes

    def counting_times_conj(self):
        products.append(1)
        return real_times_conj(self)

    def counting_search(*args):
        before = len(products)
        result = real_search(*args)
        searched.append(len(products) - before)
        groups.append(len(result[0]))
        return result

    monkeypatch.setattr(lattice, "_half_space", counting_half_space)
    monkeypatch.setattr(FieldElement, "times_conj", counting_times_conj)
    monkeypatch.setattr(theta, "superset_search", counting_search)
    sample = psi_truncated(f5, (3, 1), 2)
    assert _near_pin(sample.enclosure(), SKEW5_PSI_T2)
    assert len(listed) == len(searched) == 1
    # listed[0] pairs stand for 2 * listed[0] candidates; one beta per group
    assert listed[0] > groups[0] > 0 and searched == groups


def test_psi_validation(f5):
    with pytest.raises(InputError):
        psi_truncated(f5, None, 0)
    with pytest.raises(InputError):
        psi_truncated(f5, None, Fraction(-1, 2))


@pytest.mark.parametrize("weights", ["1,1", "1,2"])
def test_psi_refuses_a_huge_t_at_once(weights, capsys):
    """At t = 10^9 the terms' exact endpoints would carry about 10^10 bits;
    the run exits 2 before any exponential."""
    start = time.perf_counter()
    rc = cli.main(["psi", "--cyclotomic", "5", "--t", "1e9", "--weights", weights])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: t is too large") and "Traceback" not in err


def test_psi_exponent_limit_reads_the_first_shell(f5, monkeypatch):
    """Equal weights on Q(zeta_5) have mu = 2, so exp(-pi t mu) needs
    2 pi t / ln 2, about 9.06 t, bits: 10 bits admit t = 1 and refuse t = 2."""
    monkeypatch.setattr(theta, "MAX_EXPONENT_BITS", 10)
    assert psi_truncated(f5, None, 1).value.lo > 1
    with pytest.raises(InputError, match="more than 10 bits"):
        psi_truncated(f5, None, 2)
    with pytest.raises(InputError, match="more than 10 bits"):
        theta_sum(gram_matrix(f5, None), 2)


def test_psi_interval_weights_against_float_oracle(f5):
    """Skew-weight psi agrees with a brute-force complex-embedding sum."""
    w = (Fraction(3), Fraction(1))
    sample = psi_truncated(f5, w, 2)
    enc = sample.enclosure()
    assert _near_pin(enc, SKEW5_PSI_T2) and sample.tail.lo == 0
    reps = representatives(5)
    box = 3
    axes = [np.arange(-box, box + 1)] * 4
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    q = np.zeros(len(pts))
    for wt, rep in zip(w, reps):
        z = np.exp(2j * np.pi * rep / 5)
        emb = pts.astype(complex) @ z ** np.arange(4)
        q += float(wt) * np.abs(emb) ** 2
    oracle = float(np.exp(-2 * np.pi * q).sum())
    assert abs(float(enc.mid) - oracle) < 1e-12


def test_psi_ideal_identity(f5):
    """psi at the sigma weights of kappa conj(kappa) is the ideal theta sum."""
    kappa = f5.one() - f5.zeta(1)
    weights = sigma(f5, kappa)
    lhs = psi_truncated(f5, weights, 2).enclosure()
    rhs = theta_sum(gram_matrix(f5, None, kappa), 2).enclosure()
    assert lhs.overlaps(rhs)
    assert lhs.lo <= THETA_IDEAL5_T2 <= lhs.hi
    assert rhs.lo <= THETA_IDEAL5_T2 <= rhs.hi


def test_psi_sample_json(f5):
    out = psi_truncated(f5, None, 2).to_json()
    assert set(out) == {"t", "value", "tail", "weights"}
    assert out["t"] == "2"
    assert Fraction(out["value"]["lo"]) <= Fraction(out["value"]["hi"])


def test_cusp_extract_equal_weights(f5, f7):
    mu5, count5 = cusp_extract(f5, None)
    assert mu5.contains(2)
    assert count5 == 10
    mu7, count7 = cusp_extract(f7, None)
    assert mu7.contains(3)
    assert count7 == 14


def test_cusp_extract_skew_weights(f5):
    mu, count = cusp_extract(f5, (Fraction(3), Fraction(1)))
    ground = minimal_vectors(f5, (Fraction(3), Fraction(1)))
    assert count == ground.count
    assert mu.overlaps(ground.mu)
    assert _near_pin(mu, RealInterval(*SKEW5_CUSP_MU))
    assert count == 10


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_pivot_floor_is_the_smallest_ldl_pivot_of_reduced_field_grams(p):
    """The pivots read off the integral Gram-Schmidt minors are the Fraction
    LDL pivots: on the exact field Gram, a skewed lower form and an ideal's
    Gram."""
    field = CMField(p)
    skew = tuple(range(1, field.k + 1))
    kappa = field.one() - field.zeta(1)
    for g in (gram_matrix(field), gram_matrix(field, skew), gram_matrix(field, None, kappa)):
        assert _pivot_floor(g.reduction) == min(ldl(reduced_gram(g.reduction))[1])


def test_pivot_floor_is_the_smallest_ldl_pivot_of_random_grams():
    rng = random.Random(53)
    for _ in range(40):
        dim = rng.randint(1, 7)
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        g = [[scale * x for x in row] for row in random_int_gram(rng, dim, entry=3, max_diag=40)]
        for red in (own_record(g), lattice.reduce(g)):
            assert _pivot_floor(red) == min(ldl(reduced_gram(red))[1])


def test_skewed_psi_tail_counts_through_ratio_times_the_lower_forms_pivots(f5, monkeypatch):
    """The tail bound of unequal weights takes ratio times the smallest LDL
    pivot of the reduced lower form: the form is at least ratio times the
    lower form, so that bounds its lattice point counts."""
    seen = []
    real_tail = theta._tail_bound

    def recording(dim, delta, radius, t, bits):
        seen.append(delta)
        return real_tail(dim, delta, radius, t, bits)

    monkeypatch.setattr(theta, "_tail_bound", recording)
    psi_truncated(f5, (3, 1), 2)
    g = gram_matrix(f5, (3, 1))
    assert g.ratio < 1 and seen
    assert set(seen) == {g.ratio * min(ldl(reduced_gram(g.reduction))[1])}


TAIL_CASES = [(1, Fraction(1, 3)), (4, Fraction(7, 5)), (5, Fraction(2**128 + 1, 3 * 2**127)), (10, Fraction(2))]


@pytest.mark.parametrize(
    "t, cases, bits, scales",
    [
        *((t, TAIL_CASES, (128, 256), (1, 2)) for t in (Fraction(1, 10**300), Fraction(1, 7), Fraction(1, 2), Fraction(1), Fraction(3))),
        *((t, TAIL_CASES[1:3], (128,), (1,)) for t in (Fraction(16000), Fraction(51357))),
    ],
    ids=["1e-300", "1/7", "1/2", "1", "3", "16000", "51357"],
)
def test_tail_bound_equals_the_interval_arithmetic_oracle(t, cases, bits, scales):
    """The bound's numerator and denominator equal those of the upper end
    of the bound formed by interval arithmetic one normalized product at a
    time (conftest.reference_tail_bound): even and odd dimensions, the latter
    through a root; integer and 128-bit pivots; the smallest radius the
    slab comparison allows and one above it; t from where 1 - exp(-pi t /
    2) contains 0 at 128 bits up to the exponent limit of psi on
    Q(zeta_5), where the oracle takes seconds."""
    for dim, delta in cases:
        for b in bits:
            low = theta._initial_radius(dim, delta, Fraction(2), t, b)
            for radius in (scale * low + Fraction(scale - 1, 3) for scale in scales):
                got = theta._tail_bound(dim, delta, radius, t, b)
                want = reference_tail_bound(dim, delta, radius, t, b).hi
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
