"""Exact lattice algorithms: LDL, LLL, enumeration, theta counting."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmsvp import cli, lattice, svp
from cmsvp.embeddings import normalize_weights
from cmsvp.errors import BudgetExceededError, NotPositiveDefiniteError
from cmsvp.field import CMField
from cmsvp.interval import PrecisionConfig
from cmsvp.lattice import (
    LLL_DELTA,
    _round_half_even,
    enumerate_short,
    lll_reduce,
    minimum_shell,
    reduce,
    theta_counts,
)

from conftest import (
    benchmark_spec,
    box_short_vectors,
    half_space_listing,
    int_det,
    integer_gram,
    ldl,
    random_int_gram,
    reduced_gram,
    reference_basis_map,
    reference_half_space,
    reference_mismatches,
)


def _frac(g):
    return [[Fraction(x) for x in row] for row in g]


def _lll(g):
    """lll_reduce(g) as (reduced Gram, U)."""
    red = lattice.Reduced(g, *lll_reduce(g))
    return reduced_gram(red), red.u


def _listing_with_zero(red, radius):
    """enumerate_short's listing of a reduced Gram with the zero vector
    added in its lexicographic place."""
    found, nodes = enumerate_short(red, radius)
    zero = ((0,) * len(red.gram), Fraction(0))
    return sorted([zero, *found], key=lambda p: p[0]), nodes


def test_ldl_reconstructs():
    rng = random.Random(41)
    for _ in range(10):
        dim = rng.randint(2, 5)
        g = _frac(random_int_gram(rng, dim))
        l, d = ldl(g)
        n = len(g)
        for i in range(n):
            for j in range(n):
                val = sum(l[i][t] * d[t] * l[j][t] for t in range(n))
                assert val == g[i][j]
        assert all(p > 0 for p in d)


def test_ldl_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        ldl(_frac([[1, 2], [2, 1]]))
    with pytest.raises(NotPositiveDefiniteError):
        ldl(_frac([[0, 0], [0, 1]]))
    with pytest.raises(NotPositiveDefiniteError):
        reduce(_frac([[1, 2], [2, 1]]))


def test_lll_unimodular_and_det_preserving():
    rng = random.Random(43)
    for _ in range(10):
        dim = rng.randint(2, 6)
        g = _frac(random_int_gram(rng, dim, entry=3, max_diag=40))
        reduced, u = _lll(g)
        assert abs(int_det(u)) == 1
        assert int_det(reduced) == int_det(g)
        # succeeds: the reduced Gram is positive definite
        red = reduce(reduced)
        # the quadratic form's minimum is basis-invariant
        assert minimum_shell(reduce(g))[0] == minimum_shell(red)[0]


def test_enumerate_z2():
    found, nodes = enumerate_short(reduce(_frac([[1, 0], [0, 1]])), Fraction(4))
    by_norm = {}
    for v, q in found:
        by_norm.setdefault(q, set()).add(v)
    assert {q: len(s) for q, s in by_norm.items()} == {1: 4, 2: 4, 4: 4}
    assert nodes > 0
    # vectors come in +/- pairs
    vectors = {v for v, _ in found}
    assert all(tuple(-c for c in v) in vectors for v in vectors)


def test_enumerate_include_zero():
    """The listing excludes zero; a caller that wants it adds it."""
    red = reduce(_frac([[2]]))
    with_zero, _ = _listing_with_zero(red, Fraction(2))
    assert ((0,), Fraction(0)) in with_zero
    without, _ = enumerate_short(red, Fraction(2))
    assert ((0,), Fraction(0)) not in without


def test_enumerate_matches_box_oracle():
    rng = random.Random(47)
    for _ in range(8):
        dim = rng.randint(2, 5)
        g = random_int_gram(rng, dim)
        radius = Fraction(rng.randint(2, 10))
        found, _ = enumerate_short(reduce(_frac(g)), radius)
        assert {tuple(v) for v, _ in found} == box_short_vectors(g, radius)


def test_enumerate_budget():
    g = reduce(_frac([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]))
    with pytest.raises(BudgetExceededError):
        enumerate_short(g, Fraction(6), budget=3)


def test_enumerate_listing_limit(monkeypatch):
    """Z^4 within norm 2 holds 32 nonzero vectors where the Gaussian
    heuristic expects 19.7: a limit of 20 passes the up-front estimate and
    stops at the exact count, a limit of 19 refuses up front."""
    g = reduce(_frac([[1 if i == j else 0 for j in range(4)] for i in range(4)]))
    assert len(enumerate_short(g, Fraction(2))[0]) == 32
    monkeypatch.setattr(lattice, "MAX_LISTED", 20)
    with pytest.raises(BudgetExceededError, match="exceeded the budget of 20 listed vectors"):
        enumerate_short(g, Fraction(2))
    monkeypatch.setattr(lattice, "MAX_LISTED", 19)
    with pytest.raises(BudgetExceededError, match="refused .* listed vectors"):
        enumerate_short(g, Fraction(2))


def test_minimum_shell():
    mu, mins, _, _ = minimum_shell(reduce(_frac([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
    assert mu == 1
    assert len(mins) == 6
    mu, mins, _, _ = minimum_shell(reduce(_frac([[2, 1], [1, 2]])))
    assert mu == 2
    assert len(mins) == 6  # hexagonal lattice kissing number


def test_theta_counts_z4():
    z4 = reduce(_frac([[1 if i == j else 0 for j in range(4)] for i in range(4)]))
    counts = theta_counts(z4, Fraction(4))
    assert counts == [
        (Fraction(0), 1),
        (Fraction(1), 8),
        (Fraction(2), 24),
        (Fraction(3), 32),
        (Fraction(4), 24),
    ]


def test_theta_counts_fractional_grid():
    counts = theta_counts(reduce(_frac([[Fraction(1, 2)]])), Fraction(2))
    assert counts == [(Fraction(0), 1), (Fraction(1, 2), 2), (Fraction(2), 2)]


# ---------------------------------------------------------------------------
# Fraction references for the integer kernels: LLL that rebuilds the whole
# Gram-Schmidt data after every change, and Fincke-Pohst over the LDL pivots.


def _gso_reference(g):
    n = len(g)
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            s = g[i][j] - sum(mu[i][t] * mu[j][t] * b[t] for t in range(j))
            mu[i][j] = s / b[j]
        b[i] = g[i][i] - sum(mu[i][t] ** 2 * b[t] for t in range(i))
        if b[i] <= 0:
            raise NotPositiveDefiniteError("reference LLL input is not positive definite")
    return mu, b


def lll_reference(g, delta=LLL_DELTA):
    n = len(g)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    cur = [[Fraction(x) for x in row] for row in g]
    mu, b = _gso_reference(cur)
    i = 1
    while i < n:
        for j in range(i - 1, -1, -1):
            r = round(mu[i][j])
            if r:
                u[i] = [a - r * c for a, c in zip(u[i], u[j])]
                cur[i] = [a - r * c for a, c in zip(cur[i], cur[j])]
                for row in cur:
                    row[i] -= r * row[j]
                mu, b = _gso_reference(cur)
        if b[i] >= (delta - mu[i][i - 1] ** 2) * b[i - 1]:
            i += 1
        else:
            u[i], u[i - 1] = u[i - 1], u[i]
            cur[i], cur[i - 1] = cur[i - 1], cur[i]
            for row in cur:
                row[i], row[i - 1] = row[i - 1], row[i]
            mu, b = _gso_reference(cur)
            i = max(i - 1, 1)
    return cur, u


def enumerate_reference(g, radius, include_zero=False):
    radius = Fraction(radius)
    n = len(g)
    reduced, u = lll_reference(g)
    l, d = ldl(reduced)
    half, x, nodes = [], [0] * n, 0

    def descend(level, remaining, nonzero_seen):
        nonlocal nodes
        if level < 0:
            if nonzero_seen:
                half.append((tuple(x), radius - remaining))
            return
        center = -sum(l[j][level] * x[j] for j in range(level + 1, n))
        width_sq = remaining / d[level]
        if width_sq < 0:
            return
        # every integer within isqrt + 2 of the center, tested exactly
        reach = isqrt(width_sq.numerator // width_sq.denominator) + 2
        lo = int(center) - reach
        if not nonzero_seen:
            lo = max(lo, 0)
        for xv in range(lo, int(center) + reach + 1):
            if (xv - center) ** 2 <= width_sq:
                nodes += 1
                x[level] = xv
                step = d[level] * (xv - center) ** 2
                descend(level - 1, remaining - step, nonzero_seen or xv != 0)

    descend(n - 1, radius, False)
    out = [((0,) * n, Fraction(0))] if include_zero else []
    for coords, val in half:
        orig = tuple(sum(coords[r] * u[r][c] for r in range(n)) for c in range(n))
        out += [(orig, val), (tuple(-t for t in orig), val)]
    out.sort(key=lambda p: p[0])
    return out, nodes


small_fractions = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)
pivots = st.builds(
    Fraction, st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=6)
)


@st.composite
def pd_grams(draw):
    """G = L D L^T with unit lower-triangular rational L and positive D."""
    n = draw(st.integers(min_value=1, max_value=7))
    l = [
        [draw(small_fractions) if j < i else Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    d = [draw(pivots) for _ in range(n)]
    return [[sum(l[i][t] * d[t] * l[j][t] for t in range(n)) for j in range(n)] for i in range(n)]


@settings(deadline=None, derandomize=True, max_examples=150)
@given(pd_grams())
def test_integral_lll_equals_fraction_reference(g):
    assert _lll(g) == lll_reference(g)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(
    pd_grams(),
    st.builds(Fraction, st.integers(min_value=-3, max_value=12), st.integers(min_value=2, max_value=5)),
    st.booleans(),
)
def test_integer_fincke_pohst_equals_fraction_reference(g, scale, include_zero):
    # radii up to 6 times the shortest reduced basis vector keep the trees small
    reduced, _ = lll_reference(g)
    radius = scale * min(reduced[i][i] for i in range(len(g)))
    red = reduce(g)
    found = _listing_with_zero(red, radius) if include_zero else enumerate_short(red, radius)
    assert found == enumerate_reference(g, radius, include_zero)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(
    pd_grams(),
    st.builds(Fraction, st.integers(min_value=-3, max_value=12), st.just(2)),
)
def test_theta_counts_equal_a_count_over_the_listing(g, scale):
    """theta_counts counts the half-space descent; the listing holds every
    vector.  Radii run from -3/2 to 6 times the shortest reduced vector."""
    red = reduce(g)
    radius = scale * min(reduced_gram(red)[i][i] for i in range(len(g)))
    listed: dict[Fraction, int] = {}
    for _, q in _listing_with_zero(red, radius)[0]:
        listed[q] = listed.get(q, 0) + 1
    assert theta_counts(red, radius) == sorted(listed.items())


@settings(deadline=None, derandomize=True, max_examples=150)
@given(
    pd_grams(),
    st.builds(Fraction, st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60)),
)
def test_lll_commutes_with_scaling(g, c):
    """Integral LLL rounds mu and tests Lovasz's condition, both homogeneous
    in the Gram: c * G reduces by the same U to c times the reduced Gram."""
    reduced, u = _lll(g)
    scaled = [[c * x for x in row] for row in g]
    assert _lll(scaled) == ([[c * x for x in row] for row in reduced], u)


def test_round_half_even_matches_fraction_round():
    for den in range(1, 9):
        for num in range(-40, 41):
            assert _round_half_even(num, den) == round(Fraction(num, den))


@pytest.mark.parametrize(
    "mu, r",
    [
        (Fraction(1, 2), 0),
        (Fraction(-1, 2), 0),
        (Fraction(3, 2), 2),
        (Fraction(-3, 2), -2),
        (Fraction(5, 2), 2),
        (Fraction(-5, 2), -2),
    ],
)
def test_size_reduction_rounds_ties_to_even(mu, r):
    # b_1 . b_0 = mu |b_0|^2 and |b_1|^2 large: one size-reduction step, no swap
    g = [[Fraction(2), 2 * mu], [2 * mu, Fraction(40)]]
    reduced, u = _lll(g)
    assert u == [[1, 0], [-r, 1]]
    assert (reduced, u) == lll_reference(g)


@pytest.mark.parametrize(
    "g",
    [[[1, 2], [2, 1]], [[1, 1], [1, 1]], [[0]], [[-1]], [[4, 0, 0], [0, 1, 3], [0, 3, 1]]],
)
def test_integer_kernels_reject_non_positive_definite(g):
    g = _frac(g)
    with pytest.raises(NotPositiveDefiniteError):
        lll_reduce(g)
    with pytest.raises(NotPositiveDefiniteError):
        reduce(g)


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


@pytest.mark.parametrize(
    "command",
    [
        "minima --cyclotomic 17 --ideal-exp 2",
        "minima --cyclotomic 11 --weights 1,4,16,64,256",
        "theta --circulant 10,1 --max-norm 6",
        "theta --circulant 12,1 --max-norm 4",
        "theta --cyclotomic 11 --max-norm 20",
    ],
)
def test_enumeration_json_is_byte_identical_to_stored_reference(command, capsys):
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


def _outcome(f, *args):
    """f(*args), or the refusal's message when it raises BudgetExceededError."""
    try:
        return f(*args)
    except BudgetExceededError as exc:
        return ("refused", str(exc))


def _on_grid(red, radius):
    """radius floored onto the 1/s grid of the reduction's scale s."""
    return Fraction(radius.numerator * red.s // radius.denominator, red.s)


def _same_descent(red, radius, budgets):
    """The descent to radius and the node-by-node reference to radius
    floored onto the 1/s grid agree, result or refusal, at each budget and
    at one on each side of the reference's node count."""
    reduced, floored = reduced_gram(red), _on_grid(red, radius)
    ref = _outcome(reference_half_space, reduced, floored, 10**5)
    assert _outcome(half_space_listing, red, radius, 10**5) == ref
    if ref[0] != "refused":
        budgets = {*budgets, ref[2] - 1, ref[2]}
    for budget in budgets:
        if budget >= 0:
            want = _outcome(reference_half_space, reduced, floored, budget)
            assert _outcome(half_space_listing, red, radius, budget) == want
    return ref


@st.composite
def rational_grams(draw):
    """A rational Gram of dimension 1 to 12, G = L D L^T with small
    rational L and positive D."""
    n = draw(st.integers(min_value=1, max_value=12))
    l = [
        [draw(small_fractions) if j < i else Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    d = [draw(pivots) for _ in range(n)]
    return [[sum(l[i][t] * d[t] * l[j][t] for t in range(n)) for j in range(n)] for i in range(n)]


def descent_grams():
    """The reduction of a rational_grams Gram."""
    return rational_grams().map(reduce)


@settings(deadline=None, derandomize=True, max_examples=120)
@given(
    descent_grams(),
    st.builds(Fraction, st.integers(min_value=-2, max_value=10), st.integers(min_value=1, max_value=4)),
    st.integers(min_value=0, max_value=400),
)
def test_half_space_equals_the_node_by_node_reference(red, scale, budget):
    """Same vectors in the same order, same m, s and node count as a
    descent that recomputes every center and checks every node, run to the
    radius floored onto the 1/s grid; the same refusal, with the same
    message, at budgets on both sides of the node count.  Radii run up to
    5/2 times the shortest reduced vector."""
    reduced = reduced_gram(red)
    radius = scale * min(reduced[i][i] for i in range(len(reduced))) / 4
    _same_descent(red, radius, [budget, 0, 1])


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    descent_grams(),
    st.integers(min_value=2**127, max_value=2**128),
    st.integers(min_value=0, max_value=8),
)
def test_half_space_equals_the_reference_at_128_bit_radii(red, den, scale):
    """Radii with 128-bit denominators, up to twice the shortest reduced
    vector, as the skewed forms and set E use."""
    reduced = reduced_gram(red)
    radius = scale * min(reduced[i][i] for i in range(len(reduced))) / 4
    radius = Fraction(radius.numerator * den // radius.denominator + 1, den)
    _same_descent(red, radius, [])


@settings(deadline=None, derandomize=True, max_examples=100)
@given(
    descent_grams(),
    st.integers(min_value=-1, max_value=10),
    st.integers(min_value=2, max_value=13).flatmap(
        lambda q: st.tuples(st.just(q), st.integers(min_value=1, max_value=q - 1))
    ),
)
def test_off_grid_radius_lists_what_the_unfloored_reference_lists(red, scale, offset):
    """At a radius strictly between two points of the 1/s grid, so whose
    denominator does not divide s, the descent lists the same vectors in
    the same order, with the same rational values, as the reference run
    to that radius itself on the Gram rescaled by its denominator, and
    visits no more nodes.  Radii run up to 5/2 times the shortest reduced
    vector."""
    q, j = offset
    top = scale * min(row[i] for i, row in enumerate(red.a)) // 4
    radius = Fraction(top * q + j, red.s * q)
    assert red.s % radius.denominator
    half, s, ref_nodes = reference_half_space(reduced_gram(red), radius, 10**6)
    leaves, nodes = lattice._half_space(red, radius, 10**6)
    assert [(c, Fraction(m, red.s)) for c, m in zip(leaves.coords(), leaves.values)] == [
        (c, Fraction(m, s)) for c, m in half
    ]
    assert nodes <= ref_nodes


@settings(deadline=None, derandomize=True, max_examples=50)
@given(descent_grams(), st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2))
def test_half_space_listing_cap_equals_the_reference(red, scale, slack):
    """With MAX_LISTED at, just below or well below twice the vectors
    found, the descent lists or refuses as the reference does, also where
    the node budget runs out near the same point of the walk."""
    reduced = reduced_gram(red)
    radius = scale * min(reduced[i][i] for i in range(len(reduced))) / 2
    half, _, nodes = reference_half_space(reduced, radius, 10**5)
    saved = lattice.MAX_LISTED
    try:
        for cap in {max(2 * len(half) - slack, 1), len(half) + slack + 1, 1 + slack}:
            lattice.MAX_LISTED = cap
            _same_descent(red, radius, [nodes - slack - 1, nodes // 2])
    finally:
        lattice.MAX_LISTED = saved


@settings(deadline=None, derandomize=True, max_examples=100)
@given(
    descent_grams(),
    st.builds(Fraction, st.integers(min_value=-2, max_value=10), st.integers(min_value=1, max_value=4)),
)
def test_theta_counts_equal_the_listing_from_a_values_only_walk(red, scale):
    """theta_counts is a Counter of enumerate_short's values, the zero
    vector counted once, and its descent records no coordinates and visits
    the listing's nodes.  Radii run up to 5/2 times the shortest reduced
    vector."""
    reduced = reduced_gram(red)
    radius = scale * min(reduced[i][i] for i in range(len(reduced))) / 4
    found, nodes = enumerate_short(red, radius)
    listed = Counter(q for _, q in found)
    listed[Fraction(0)] = 1
    assert theta_counts(red, radius) == sorted(listed.items())
    leaves, counted_nodes = lattice._half_space(red, radius, lattice.DEFAULT_BUDGET, coords=False)
    assert counted_nodes == nodes and leaves.firsts == [] and leaves.rows == []


def _walk(red, radius, budget, coords):
    """_half_space with or without coordinates, as (values, red.s, nodes)."""
    leaves, nodes = lattice._half_space(red, radius, budget, coords=coords)
    return leaves.values, red.s, nodes


@pytest.mark.parametrize("seed", range(12))
def test_values_only_walk_refuses_where_the_listing_does(seed, monkeypatch):
    """With node budgets and listing caps on both sides of what the walk
    needs, the values-only descent refuses at the same point, with the
    same message, as the one that records coordinates, or finishes with
    the same values and nodes."""
    rng = random.Random(seed)
    red = reduce(_frac(random_int_gram(rng, 1 + seed % 6)))
    radius = 3 * red.min_diagonal()
    values, _, nodes = _walk(red, radius, lattice.DEFAULT_BUDGET, True)
    refusals = set()
    for cap in {lattice.MAX_LISTED, 2 * len(values), 2 * len(values) - 1, len(values), 1}:
        monkeypatch.setattr(lattice, "MAX_LISTED", cap)
        for budget in {0, 1, nodes // 2, nodes - 1, nodes}:
            want = _outcome(_walk, red, radius, budget, True)
            assert _outcome(_walk, red, radius, budget, False) == want
            if want[0] == "refused":
                refusals.add("listed vectors" in want[1])
    assert refusals == {True, False}


def _reference_values(reduced, radius, budget):
    """reference_half_space as a values-only walk gives it: (values, s,
    nodes)."""
    half, s, nodes = reference_half_space(reduced, radius, budget)
    return [m for _, m in half], s, nodes


@pytest.mark.parametrize("seed", range(32))
def test_small_dimensions_equal_the_reference_at_every_budget(seed, monkeypatch):
    """Dimensions 1 to 4, where the three fused bottom levels meet the top
    of the walk or phantom levels pad it: at every budget from 0 to one
    past the node count, with and without coordinates, under the listing
    cap and a cap of a few vectors, the same vectors, values, s and nodes
    as reference_half_space at the radius floored onto the 1/s grid, or the
    same refusal with the same message.  Radii run from 0 to 21 times the
    shortest reduced vector; the trees have up to 425 nodes."""
    rng = random.Random(seed)
    red = reduce(_frac(random_int_gram(rng, 1 + seed % 4, entry=3)))
    reduced = reduced_gram(red)
    radius = Fraction(3 * (seed // 4), 1 + seed % 3) * red.min_diagonal()
    floored = _on_grid(red, radius)
    _, _, nodes = reference_half_space(reduced, floored, 10**5)
    for cap in (lattice.MAX_LISTED, 1 + seed % 5):
        monkeypatch.setattr(lattice, "MAX_LISTED", cap)
        for budget in range(nodes + 2):
            want = _outcome(reference_half_space, reduced, floored, budget)
            assert _outcome(half_space_listing, red, radius, budget) == want
            want = _outcome(_reference_values, reduced, floored, budget)
            assert _outcome(_walk, red, radius, budget, False) == want


BENCHMARK_VALUES_ONLY_NODES = {
    "theta --circulant 10,1 --max-norm 6": 13192,
    "theta --circulant 12,1 --max-norm 4": 6607,
    "theta --cyclotomic 11 --max-norm 20": 7005,
    "psi --cyclotomic 11 --t 1": 15260,
}


@pytest.mark.parametrize("command", sorted(BENCHMARK_VALUES_ONLY_NODES))
def test_benchmark_values_only_walks_keep_their_node_counts(command, monkeypatch, capsys):
    """The benchmark's theta and psi operations each walk one values-only
    descent, whose node count no output bytes show: it stays pinned."""
    walks = []
    real = lattice._half_space

    def recording(red, radius, budget, coords=True):
        out = real(red, radius, budget, coords)
        walks.append((coords, out[1]))
        return out

    monkeypatch.setattr(lattice, "_half_space", recording)
    assert cli.main(command.split() + ["--json"]) == 0
    capsys.readouterr()
    assert walks == [(False, BENCHMARK_VALUES_ONLY_NODES[command])]


@pytest.mark.parametrize(
    "p, weights, ideal",
    [(5, (3, 1), False), (7, (1, 10, 100), True), (7, (2, 1, 1), False), (11, (1, 2, 3, 4, 5), False)],
)
@pytest.mark.parametrize("scale", [1, 2])
def test_half_space_on_skewed_lower_forms_equals_the_reference(p, weights, ideal, scale):
    """The skewed lower forms of the superset search at the radius it
    takes from the basis_minimum radius and twice it: that radius over
    the Gram's ratio, which the descent floors onto the lower form's 1/s
    grid."""
    field, prec = CMField(p), PrecisionConfig()
    ws = normalize_weights(field, weights)
    kappa = field.one() - field.zeta(1) if ideal else None
    g = svp.gram_matrix(field, ws, kappa, prec)
    red = g.reduction
    radius = scale * svp.basis_minimum(field, ws, kappa, red.u, prec) / g.ratio
    half, _, nodes = _same_descent(red, radius, [1, 17])
    assert half and nodes > len(half)


def _column_extremes(u, top):
    """For each column j of u, the vector with coordinates top * sign(u_ij):
    its image x . U attains the digit bound of _to_basis at j."""
    return [tuple(top if row[j] >= 0 else -top for row in u) for j in range(len(u[0]))]


@settings(deadline=None, derandomize=True, max_examples=150)
@given(data=st.data())
def test_to_basis_equals_the_coordinate_sums(data):
    """_to_basis equals the map one coordinate sum at a time, on integer
    matrices of dimension 1 to 16 and coordinates up to 10^12, also on
    batches whose coordinates reach the digit bound."""
    n = data.draw(st.integers(min_value=1, max_value=16))
    entry = data.draw(st.sampled_from([1, 3, 10**6]))
    u = [data.draw(st.lists(st.integers(-entry, entry), min_size=n, max_size=n)) for _ in range(n)]
    top = data.draw(st.sampled_from([1, 7, 10**12]))
    coords = st.lists(st.integers(-top, top), min_size=n, max_size=n).map(tuple)
    xs = data.draw(st.lists(coords, min_size=1, max_size=12))
    if data.draw(st.booleans()):
        xs += _column_extremes(u, top)
    to_basis = reference_basis_map(u)
    assert lattice._to_basis(u, xs) == [to_basis(x) for x in xs]


def test_to_basis_of_an_empty_batch_is_empty():
    assert lattice._to_basis([[1, 0], [2, 1]], []) == []


def _integral_data(reduced):
    """(s, a, d, lam) of a reduced Gram from scratch: its integer Gram at
    s = lcm of its denominators, and that Gram's integral Gram-Schmidt
    data."""
    s, a = integer_gram(reduced, 1)
    return (s, a, *lattice._integral_gso(a))


@settings(deadline=None, derandomize=True, max_examples=100)
@given(
    rational_grams(),
    st.builds(Fraction, st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60)),
    st.integers(min_value=1, max_value=10**6),
)
def test_reduction_record_is_the_integral_data_of_its_reduced_gram(g, factor, den):
    """The record that LLL ends with is the integer Gram and integral
    Gram-Schmidt data of the reduced Gram at the lcm of its denominators,
    also for the Gram scaled by p/q, whose reduction keeps U; the descent
    on that record to a radius of denominator r, which divides s or not,
    equals the reference at the radius floored onto the 1/s grid."""
    red = reduce(g)
    assert (red.s, red.a, red.d, red.lam) == _integral_data(reduced_gram(red))
    scaled = reduce([[factor * x for x in row] for row in g])
    assert scaled.u == red.u
    assert (scaled.s, scaled.a, scaled.d, scaled.lam) == _integral_data(reduced_gram(scaled))
    for rec in (red, scaled):
        for r in (den, gcd(rec.s, den), rec.s, 2 * rec.s * den):
            radius = Fraction(rec.min_diagonal() * r * 3 // 2, r)
            _same_descent(rec, radius, [])
