"""Shortest-vector ground truth for weighted norms on O_F and its ideals.

This module turns a field, a weight vector, and an optional ideal generator
into a Gram matrix, and answers questions about short vectors exactly:

- for equal rational weights the Gram is exact (half-trace form) and
  enumeration is exact integer arithmetic end to end;
- for unequal or irrational weights the Gram is the exact one of a twisted
  trace form Tr(omega a conj(a)), omega >> 0 in the real subfield, that
  bounds the weighted norm from below up to a certified ratio r
  (Bayer-Fluckiger, "Lattices and number fields", 1999); enumeration runs
  on it in integers to the radius over r, so its candidate set provably
  contains every true short vector, and candidates are kept or discarded by
  certified interval evaluation, with exact algebraic tie-breaking.

On top of the enumerator sit the finite characteristic set E (norm bound
plus the half-open fundamental chamber in log-unit coordinates, which
cmsvp.units decides) and the circulant Craig lattice Grams used for
cross-checking.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul

from . import lattice
from .embeddings import (
    _cos_table,
    _sigma_numerators,
    _weight_numerators,
    _weighted_sum,
    normalize_weights,
    weights_are_equal_rational,
)
from .errors import (
    InputError,
    NonPrimeConductorError,
    PrecisionError,
)
from .field import (
    CMField,
    FieldElement,
    _cyclic_product,
    _fold,
    _poly_divide_exact,
    _real_trace_form,
    is_prime,
    real_norm,
    representatives,
    trace,
    trace_row,
)
from .interval import (
    DEFAULT_PRECISION,
    PrecisionConfig,
    RealInterval,
    climb,
    interval_json,
    root_interval,
)
from .units import UnitBasis, _chamber_exponents, fundamental_domain_vertices

# the lower form's slack for unequal weights: omega's grid is fine enough
# that each sigma_m(omega) is within DELTA/4 of w_m, relatively
DELTA = Fraction(1, 1000)


@dataclass(frozen=True)
class GramMatrix:
    """Exact rational Gram of a positive-definite form, with its reduction.

    For equal rational weights `entries` is the Gram of the weighted norm q
    itself (`exact`).  For any other weights it is the Gram of the twisted
    trace form q_omega(a) = Tr_K+(omega a conj(a)) of a totally positive
    omega in K+ close to the weights (see _weight_element), and q >= ratio *
    q_omega on every vector: a search for q <= R runs on q_omega <= R /
    ratio, and psi's tail counts points through ratio times q_omega's
    pivots.  `ratio` is 1 for an exact Gram.

    Construction LLL-reduces the entries once into `reduction`, which is
    not an argument: the reduction certifies positive definiteness, so a
    Gram that is not positive definite raises NotPositiveDefiniteError
    here.  Every search on the Gram reuses it.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    exact: bool
    reduction: lattice.Reduced = dataclasses.field(init=False, repr=False, compare=False)
    ratio: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "reduction", lattice.reduce(self.rows()))

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def rows(self) -> list[list]:
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class ShortVectorSet:
    """Minimum of the form, its attaining vectors, and the search record."""

    mu: object
    vectors: tuple[tuple[int, ...], ...]
    radius: Fraction
    nodes: int

    @property
    def count(self) -> int:
        return len(self.vectors)

    def to_json(self) -> dict:
        mu = interval_json(self.mu) if isinstance(self.mu, RealInterval) else str(self.mu)
        return {
            "mu": mu,
            "count": self.count,
            "vectors": [list(v) for v in self.vectors],
            "radius": str(self.radius),
            "nodes": self.nodes,
        }


@dataclass(frozen=True)
class CharacteristicSetE:
    """Finite chamber representatives: bounded norm, log coordinates in [0,1)."""

    elements: tuple[FieldElement, ...]
    norm_bound: RealInterval

    @property
    def size(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "elements": [list(e.coords) for e in self.elements],
        }


def _basis_element(field: CMField, kappa, coords) -> FieldElement:
    """kappa times the element with coordinates coords, or that element
    when kappa is None.  coords is a tuple of field.degree ints already,
    so it is not validated again."""
    a = FieldElement(field, coords)
    return a if kappa is None else kappa * a


def gram_matrix(
    field: CMField,
    w=None,
    kappa: FieldElement | None = None,
    prec: PrecisionConfig = DEFAULT_PRECISION,
) -> GramMatrix:
    """Gram of the basis {kappa zeta^i} (or {zeta^i}) under the weighted norm.

    Equal rational weights give the exact entries w0 * Tr(kk~ zeta^(i-j)) /
    2; any other weights give the exact lower form of GramMatrix, whose
    weight element is certified at prec's bits.
    """
    ws = normalize_weights(field, w)
    return climb(prec, lambda cur: _gram(field, ws, kappa, cur))


def _gram(field: CMField, ws: tuple, kappa, prec: PrecisionConfig) -> GramMatrix:
    """gram_matrix at prec's bits, for normalized weights ws.

    Both kinds are the twisted trace form of an omega = big / den with big
    in Z[zeta]: entry (i, j) is Tr(omega kk~ zeta^(i-j)) / 2, so entry j
    of the first row is Tr(x zeta^j) / (2 den) for x = big kk~, read off
    the trace table by field.trace_row.
    Equal weights take omega = w0 exactly."""
    if kappa is not None and kappa.is_zero():
        raise InputError("ideal generator must be nonzero")
    d = field.degree
    kk = field.one() if kappa is None else kappa.times_conj()
    exact = weights_are_equal_rational(ws)
    if exact:
        big, den, ratio = field.one() * ws[0].numerator, ws[0].denominator, Fraction(1)
    else:
        big, den, ratio = _weight_element(field, ws, prec)
    t = [Fraction(tr, 2 * den) for tr in trace_row(big * kk, d)]
    ent = tuple(tuple(t[abs(i - j)] for j in range(d)) for i in range(d))
    return GramMatrix(ent, exact, ratio=ratio)


def _weight_element(field: CMField, ws: tuple, prec: PrecisionConfig) -> tuple[FieldElement, int, Fraction]:
    """(big, den, r): omega = big / den in K+, big in Z[zeta] real, with
    sigma_m(omega) > 0 and r sigma_m(omega) <= w_m for every m, certified
    at prec's bits; an interval weight counts with its lower end.

    omega = sum_j c_j theta_j on the basis theta_0 = 1, theta_j = zeta^j +
    zeta^-j of O_K+, with c = C^-1 w rounded onto the 1/den grid (Babai's
    rounding), C_mj = sigma_m(theta_j).  den is the least power of two
    above 4k / (DELTA min w), so the rounding moves each sigma_m(omega) by
    less than k / den <= DELTA w_m / 4, and r is at least 1 / (1 + DELTA /
    4) up to the enclosures' width.  One sigma enclosure per embedding
    certifies omega >> 0 and gives r, floored onto the 1/den^2 grid.  A
    miss, an enclosure too wide for omega >> 0 and r >= 1 - DELTA, is a
    precision miss: a finer grid scales the numerators and their
    enclosures' width alike.
    """
    n, k = field.conductor, field.k
    lows = [w.lo if isinstance(w, RealInterval) else w for w in ws]
    need = 4 * k / (DELTA * min(lows))
    den = 1 << (need.numerator // need.denominator).bit_length()
    nums = [round(x * den) for x in _cosine_solve(field, lows, den)]
    # sigma_m(den omega) = nums_0 + sum_j 2 nums_j cos(2 pi j m / n)
    sden, sums = _sigma_numerators(n, [nums[0]] + [2 * x for x in nums[1:]], prec.bits)
    miss = PrecisionError(f"_weight_element: weight element not certified at {prec.bits} bits")
    if not all(lo > 0 for lo, _ in sums):
        raise miss
    # w_m / sigma_m(omega) >= low_m den sden / hi_m
    ratio = min(low * den * sden / hi for low, (_, hi) in zip(lows, sums))
    if ratio < 1 - DELTA:
        raise miss
    grid = den * den
    # den omega = nums_0 + sum_j nums_j (zeta^j + zeta^(n-j)), j < k <= n/2
    acc = [nums[0]] + [0] * (n - 1)
    for j in range(1, k):
        acc[j] = acc[n - j] = nums[j]
    return _fold(field, acc), den, Fraction(ratio.numerator * grid // ratio.denominator, grid)


def _cosine_solve(field: CMField, lows, den: int) -> list[Fraction]:
    """c with C c = lows, C_mj = sigma_m(theta_j) = 2 cos(2 pi j m / n) for
    j >= 1 and 1 for j = 0, off by far less than its grid 1/den.

    c solves the normal equations T c = C^T lows, whose matrix T = C^T C
    is the integer trace form Tr_K+(theta_i theta_j) of 1 on the basis
    (field._real_trace_form); so only C^T lows is taken on cosine
    midpoints, at bits that depend on the weights alone, and every rung
    rounds the same c."""
    n, k = field.conductor, field.k
    top = max(lows)
    bits = max(DEFAULT_PRECISION.bits, (den * k * k * (top.numerator // top.denominator + 1)).bit_length() + 64)
    cden, cos_lo, cos_hi = _cos_table(n, bits)
    reps = representatives(n)
    rows = _real_trace_form(field.one())
    rows[0].append(sum(lows))
    for i in range(1, k):
        rows[i].append(sum(low * (cos_lo[i * m % n] + cos_hi[i * m % n]) for m, low in zip(reps, lows)) / cden)
    # Gauss-Jordan; T is the trace form of a basis, so it is invertible
    for col in range(k):
        piv = next(i for i in range(col, k) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        head = rows[col]
        inv = Fraction(1, head[col])
        head[:] = [x * inv for x in head]
        for i, row in enumerate(rows):
            if i != col and row[col]:
                f = row[col]
                row[:] = [x - f * y for x, y in zip(row, head)]
    return [row[k] for row in rows]


def basis_minimum(field: CMField, ws, kappa, u, prec: PrecisionConfig) -> Fraction:
    """Smallest certified upper end of the weighted norm over the rows of U:
    a radius that holds at least one nonzero vector of the form."""
    wnum = _weight_numerators(ws)
    return min(
        _weighted_sum(
            field.conductor, _basis_element(field, kappa, tuple(row)).times_conj().coords, wnum, prec
        ).hi
        for row in u
    )


def _beta_keys(field: CMField, kappa, u, leaves: lattice.Leaves) -> tuple[list[int], int]:
    """One integer key per vector x of reduced coordinates in leaves, equal
    for two vectors exactly when their alpha = kappa * (x . U) have the
    same beta = alpha*conj(alpha); and the digit width b of the keys.

    Kronecker substitution in Z[z]/(z^n - 1), n the conductor: that ring
    is, over Q, the product of the fields Q(zeta_e), e | n.  Psi =
    (z^n - 1)/Phi_n vanishes on every factor but Q(zeta_n), so with b_i
    row i of U as a polynomial, s = sum_i x_i (kappa b_i Psi mod z^n - 1)
    is (alpha Psi(zeta), 0, ..., 0) and s(z) s(1/z) mod z^n - 1 is
    (beta Psi(zeta) Psi(1/zeta), 0, ..., 0): it determines beta and is
    determined by it.  Each polynomial is packed as sum_e c_e 2^(b e), so
    one big-integer product of the packs of s(z) and s(1/z) gives the
    2n - 1 coefficients of the product as balanced base-2^b digits, and
    adding its top n digits to its bottom n folds it mod z^n - 1.  With A
    a bound on every coefficient of s, taken from the largest |x_i| of
    the listing, no coefficient exceeds n A^2 in absolute value, so
    b = bitlen(n A^2) + 2 keeps every digit exact and the folded integer
    is the balanced packing of s(z) s(1/z) mod z^n - 1.  The packs of s
    and of its conjugate sum the head (x_1, ..., x_(d-1)) of each row of
    leaves once, and each vector adds x_0 times the packs of row 0 of U."""
    n = field.conductor
    psi = _poly_divide_exact([-1] + [0] * (n - 1) + [1], list(field.polynomial))
    k_psi = psi if kappa is None else _cyclic_product(kappa.coords, psi, n)
    rows = [_cyclic_product(row, k_psi, n) for row in u]
    firsts = leaves.firsts
    heads = [head for head, _ in leaves.rows]
    cols = [firsts, *zip(*heads)] if firsts else []
    tops = [max(max(col), -min(col)) for col in cols]
    a_bound = max(sum(t * abs(row[e]) for t, row in zip(tops, rows)) for e in range(n))
    b = (n * a_bound * a_bound).bit_length() + 2
    packs = [sum(c << (b * e) for e, c in enumerate(row)) for row in rows]
    conj_packs = [sum(row[-e] << (b * e) for e in range(n)) for row in rows]
    p0, c0 = packs[0], conj_packs[0]
    packs, conj_packs = packs[1:], conj_packs[1:]
    width = b * n
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    keys = []
    pos = 0
    for head, count in leaves.rows:
        h, hc = sum(map(mul, head, packs)), sum(map(mul, head, conj_packs))
        for x0 in firsts[pos : pos + count]:
            prod = (x0 * p0 + h) * (x0 * c0 + hc)
            low, high = prod & mask, prod >> width
            if low >= half:
                # the balanced digits of the bottom n: low - 2^width, carry 1
                low -= mask + 1
                high += 1
            keys.append(low + high)
        pos += count
    return keys, b


class _Members:
    """The vectors of one beta group, as indices into the Leaves of a
    half-space descent: len() is the number of +-pairs, and iterating
    builds their reduced coordinates, in descent order, only then."""

    __slots__ = ("leaves", "indices")

    def __init__(self, leaves: lattice.Leaves, indices: list[int]):
        self.leaves, self.indices = leaves, indices

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.leaves.coords(self.indices))


def _beta_groups(field: CMField, kappa, red: lattice.Reduced, radius, budget):
    """({beta: members}, nodes) over one vector of each +-pair of the
    reduced lower form `red` within `radius`, grouped by the exact
    beta = alpha*conj(alpha) of alpha = kappa * vector.  Members iterate
    as reduced coordinates in descent order (see _Members);
    lattice._to_basis(red.u, ...) maps them to the Gram's own basis.
    beta is the first member's, the one vector of each group mapped
    through U and multiplied out."""
    leaves, nodes = lattice._half_space(red, Fraction(radius), budget)
    keys, _ = _beta_keys(field, kappa, red.u, leaves)
    by_key: dict[int, list[int]] = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, []).append(i)
    reps = lattice._to_basis(red.u, leaves.coords([indices[0] for indices in by_key.values()]))
    return {
        _basis_element(field, kappa, coords).times_conj(): _Members(leaves, indices)
        for coords, indices in zip(reps, by_key.values())
    }, nodes


def superset_search(field, ws, kappa, g: GramMatrix, radius, prec, budget):
    """({beta: (weighted norm enclosure, members)}, nodes) over every
    vector of the Gram g's lower form within radius / g.ratio, grouped by
    the exact value beta = alpha*conj(alpha).  As the form is at least
    g.ratio times its lower form, the groups hold every vector of weighted
    norm <= radius.  The norm depends on alpha only through beta, so one
    weighted sum of beta's sigmas, over weight numerators taken once per
    search, certifies each group.  Members are one vector of each +-alpha
    pair, as both have the same beta: a group stands for twice as many
    vectors.  They are reduced coordinates (see _beta_groups)."""
    red = g.reduction
    groups, nodes = _beta_groups(field, kappa, red, Fraction(radius) / g.ratio, budget)
    n, wnum = field.conductor, _weight_numerators(ws)
    return {
        beta: (_weighted_sum(n, beta.coords, wnum, prec), members)
        for beta, members in groups.items()
    }, nodes


def _interval_minimum(field, ws, kappa, g: GramMatrix, prec, budget):
    """Minimum cluster for unequal weights on their Gram g at prec's bits:
    the superset search from the best reduced basis vector's norm, kept
    when one group separates."""
    red = g.reduction
    radius = basis_minimum(field, ws, kappa, red.u, prec)
    groups, nodes = superset_search(field, ws, kappa, g, radius, prec, budget)
    m_hi = min(v.hi for v, _ in groups.values())
    alive = [(v, c) for v, c in groups.values() if v.lo <= m_hi]
    if len(alive) != 1:
        raise PrecisionError(
            f"_interval_minimum: minimum cluster did not separate at {prec.bits} bits; "
            "weights may tie distinct values exactly"
        )
    value, members = alive[0]
    coords = lattice._to_basis(red.u, list(members))
    coords += [tuple(-x for x in c) for c in coords]
    return value, tuple(sorted(coords)), radius, nodes


def minimal_vectors(
    field: CMField,
    w=None,
    kappa: FieldElement | None = None,
    prec: PrecisionConfig = DEFAULT_PRECISION,
    budget: int = lattice.DEFAULT_BUDGET,
) -> ShortVectorSet:
    """Minimum and all minimizers of the weighted norm on O_F or an ideal.

    The search radius is automatic (norm of the best reduced basis vector),
    so the result is the true minimum shell.
    """
    ws = normalize_weights(field, w)
    return climb(
        prec, lambda cur: _minimal_vectors(field, ws, kappa, _gram(field, ws, kappa, cur), cur, budget)
    )


def _minimal_vectors(field, ws, kappa, g: GramMatrix, prec, budget) -> ShortVectorSet:
    """minimal_vectors at prec's bits on g, the Gram of the weights ws on
    O_F or the ideal, already built there."""
    if g.exact:
        mu, mins, radius, nodes = lattice.minimum_shell(g.reduction, budget)
        return ShortVectorSet(mu, tuple(mins), radius, nodes)
    return ShortVectorSet(*_interval_minimum(field, ws, kappa, g, prec, budget))


def _equal_weight_q(field: CMField, a: FieldElement) -> Fraction:
    return Fraction(trace(a.times_conj()), 2)


def characteristic_set_E(
    field: CMField,
    basis: UnitBasis,
    report,
    prec: PrecisionConfig = DEFAULT_PRECISION,
    budget: int = lattice.DEFAULT_BUDGET,
) -> CharacteristicSetE:
    """All integral points with bounded absolute norm whose log coordinates
    lie in the fundamental chamber cube [0,1)^(k-1).

    Any such point has equal-weight norm at most bound^(1/k) times the
    largest equal-weight norm among the 2^(k-1) chamber vertex units (the
    form is log-convex over the cube, so the maximum sits at a vertex),
    which turns the infinite norm-bounded region into one finite search.
    """
    bound = report.bound
    k = field.k
    q_max = max(_equal_weight_q(field, v) for v in fundamental_domain_vertices(basis))
    radius = (root_interval(RealInterval.point(bound.hi), k, prec.bits) * q_max).hi
    red = gram_matrix(field, None, None, prec).reduction
    # the norm and the chamber coordinates depend on a only through
    # beta = a conj(a), so each group of candidates is tested once; a group
    # holds one a of each +-a pair
    groups, _ = _beta_groups(field, None, red, radius, budget)
    origin = (0,) * (k - 1)
    accepted = []
    for beta, members in groups.items():
        n_abs = real_norm(beta)
        if Fraction(n_abs) > bound.hi:
            continue
        exps = _chamber_exponents(basis.chamber, beta, n_abs, prec)
        if exps == origin:
            accepted.extend(members)
    elements = []
    for coords in lattice._to_basis(red.u, accepted):
        elements.append(FieldElement(field, coords))
        elements.append(FieldElement(field, tuple(-c for c in coords)))
    elements.sort(key=lambda e: e.coords)
    return CharacteristicSetE(tuple(elements), bound)


def craig_circulant(n_ambient: int, r: int) -> GramMatrix:
    """Gram of the circulant lattice: the image of Z^(n+1) under (1-T)^r,
    projected onto the sum-zero hyperplane.

    The generators are (1-T)^r e_j, j = 0..n-1, each minus its coordinate
    mean, in the standard inner product. For r >= 1 the mean is already 0, so
    this is the rank-n image itself (A_n at r = 1). For r = 0 it is the dual
    root lattice A_n^*, Gram I_n - J/(n+1), which is Z[zeta_(n+1)] under
    Tr/(n+1).
    """
    n = n_ambient
    if n < 2 or not is_prime(n + 1):
        raise NonPrimeConductorError(
            f"circulant construction needs n >= 2 with n + 1 prime, got n = {n}"
        )
    if r < 0:
        raise InputError("circulant exponent must be nonnegative")
    vecs = []
    for j in range(n):
        v = [0] * (n + 1)
        for s in range(r + 1):
            v[(j + s) % (n + 1)] += (-1) ** s * comb(r, s)
        # (n+1) times v minus its coordinate mean, kept integral
        total = sum(v)
        vecs.append([(n + 1) * x - total for x in v])
    ent = tuple(
        tuple(
            Fraction(sum(a * b for a, b in zip(vi, vj)), (n + 1) ** 2)
            for vj in vecs
        )
        for vi in vecs
    )
    return GramMatrix(ent, True)
