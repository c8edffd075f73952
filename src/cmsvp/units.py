"""The unit group modulo torsion: bases, simplices and the chamber.

For prime conductor p >= 5 a built-in basis of the cyclotomic units is
provided: the first k-1 members of the Galois orbit of
u = (1 - zeta^g)/(1 - zeta) under sigma: zeta -> zeta^g, with g the smallest
primitive root mod p.  These generate the cyclotomic units modulo torsion
(full rank k-1) and reproduce the classical worked values for small p.
Any other basis can be supplied from a file; it is validated by an exact
unit check and a certified multiplicative-independence check.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .embeddings import _log_sigma
from .errors import DependentUnitsError, InputError, NonPrimeConductorError, PrecisionError
from .field import CMField, FieldElement, _gauss_jordan, exact_divide, is_prime, is_unit, real_norm
from .interval import DEFAULT_PRECISION, PrecisionConfig, RealInterval, climb, log_interval

BUILTIN_CYCLOTOMIC = "builtin-cyclotomic"
USER_SUPPLIED = "user-supplied"


@dataclass(frozen=True)
class UnitBasis:
    """k-1 multiplicatively independent units plus the torsion order."""

    field: CMField
    generators: tuple[FieldElement, ...]
    torsion: int
    provenance: str

    @functools.cached_property
    def chamber(self) -> "_Chamber":
        """The one _Chamber of the generators, built on first use, that the
        independence check and every chamber reduction share."""
        return _Chamber(self.field, self.generators)


@dataclass(frozen=True)
class DeltaSet:
    """One simplex vertex chain: 1, g_{s(1)}, g_{s(1)}g_{s(2)}, ..."""

    perm: tuple[int, ...]
    vertices: tuple[FieldElement, ...]


def smallest_primitive_root(p: int) -> int:
    for g in range(2, p):
        seen = set()
        v = 1
        for _ in range(p - 1):
            v = v * g % p
            seen.add(v)
        if len(seen) == p - 1:
            return g
    raise InputError(f"{p} has no primitive root (not prime?)")


def cyclotomic_unit_basis(field: CMField) -> UnitBasis:
    """Built-in cyclotomic-unit basis for prime conductor p >= 5.

    Generators are sigma^j(u), u = (1 - zeta^g)/(1 - zeta), for
    j = 0..k-2, where sigma: zeta -> zeta^g and g is the smallest primitive
    root mod p: one division, then the Galois orbit, sigma^j = sigma_(g^j).
    Torsion order is 2p.
    """
    p = field.conductor
    if not is_prime(p) or p < 5:
        raise NonPrimeConductorError(
            f"no built-in unit basis for conductor {p}; supply a basis file"
        )
    g = smallest_primitive_root(p)
    one = field.one()
    u = exact_divide(one - field.zeta(g), one - field.zeta(1))
    if not is_unit(u):
        raise InputError("internal error: cyclotomic unit fails the norm check")
    gens = [u.galois(pow(g, j, p)) for j in range(field.k - 1)]
    return UnitBasis(field, tuple(gens), 2 * p, BUILTIN_CYCLOTOMIC)


def independence_certificate(basis: UnitBasis, prec: PrecisionConfig = DEFAULT_PRECISION) -> None:
    """Certify multiplicative independence mod torsion or raise.

    Every matrix in the enclosure of the generators' log matrix L (see
    _Chamber) must be certified nonsingular by _verified_inverse at some
    rung of the precision ladder.
    """

    def attempt(cur):
        if basis.chamber.inverse(cur) is None:
            raise DependentUnitsError(
                "independence_certificate: unit generators are not certifiably independent "
                f"(log matrix not certified nonsingular at {cur.bits} bits)"
            )

    climb(prec, attempt)


def load_unit_basis(field: CMField, path) -> UnitBasis:
    """Read and validate a unit basis from a text file.

    Format: first line 'torsion <t>', then k-1 lines of comma-separated
    power-basis coordinates.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.strip().startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read unit basis file: {exc}") from exc
    if not lines or not lines[0].lower().startswith("torsion"):
        raise InputError("unit basis file must start with a 'torsion <t>' line")
    parts = lines[0].split()
    if len(parts) != 2:
        raise InputError("malformed torsion line")
    try:
        torsion = int(parts[1])
    except ValueError as exc:
        raise InputError("torsion order must be an integer") from exc
    expected = field.torsion_order()
    if torsion != expected:
        raise InputError(
            f"stated torsion order {torsion} does not match the field's ({expected})"
        )
    coord_lines = lines[1:]
    want = field.k - 1
    if len(coord_lines) != want:
        raise InputError(f"expected {want} generator lines, got {len(coord_lines)}")
    gens = []
    for ln in coord_lines:
        u = field.parse(ln)
        if not is_unit(u):
            raise InputError(f"generator {ln!r} is not a unit (norm != 1)")
        gens.append(u)
    basis = UnitBasis(field, tuple(gens), torsion, USER_SUPPLIED)
    independence_certificate(basis)
    return basis


def delta_sets(basis: UnitBasis) -> list[DeltaSet]:
    """All (k-1)! simplex vertex chains Delta_s, each vertex read off the
    subset-product table at its chain's prefix mask."""
    vertices = fundamental_domain_vertices(basis)
    out = []
    for perm in itertools.permutations(range(len(basis.generators))):
        masks = itertools.accumulate(perm, lambda mask, idx: mask | 1 << idx, initial=0)
        out.append(DeltaSet(perm, tuple(vertices[mask] for mask in masks)))
    return out


def fundamental_domain_vertices(basis: UnitBasis) -> list[FieldElement]:
    """The 2^(k-1) products of generators with 0/1 exponents: entry mask is
    the product of the g_j with bit j set, one product each, by doubling."""
    out = [basis.field.one()]
    for gen in basis.generators:
        out += [v * gen for v in out]
    return out


class _Chamber:
    """What every independence check and chamber reduction against one set
    of unit generators g_j shares: each beta_j = g_j conj(g_j) and, per
    precision tried, the verified inverse of the generators' log matrix
    L[m][j] = log sigma_m(beta_j), m < k-1."""

    def __init__(self, field: CMField, generators):
        self.field = field
        self.betas = tuple(g.times_conj() for g in generators)
        self._inverses: dict[int, tuple | None] = {}

    def inverse(self, prec: PrecisionConfig) -> tuple[list[list[Fraction]], list[Fraction]] | None:
        """_verified_inverse(L) at prec's bits, built once per precision."""
        if prec.bits not in self._inverses:
            rows = [_log_sigma(self.field.conductor, beta.coords, prec) for beta in self.betas]
            self._inverses[prec.bits] = _verified_inverse(list(zip(*rows)))
        return self._inverses[prec.bits]

    def coordinates(self, ys, prec: PrecisionConfig) -> list[RealInterval]:
        """Enclosures of the c solving sum_j L[m][j] c_j = ys[m], m < k-1."""
        inverse = self.inverse(prec)
        if inverse is None:
            raise PrecisionError(f"_Chamber: unit log matrix not certified nonsingular at {prec.bits} bits")
        return _verified_solve(*inverse, ys)


def _verified_inverse(m) -> tuple[list[list[Fraction]], list[Fraction]] | None:
    """(R, e) for a square interval matrix m: R = mid(m)^-1, exactly, and
    e_i the i-th row sum of |R| rad(m); None unless mid(m) is nonsingular
    and every e_i < 1.  Then each A in m has |R A - I| <= |R| rad(m), so
    R A is within max e < 1 of the identity in the infinity norm, and A is
    nonsingular (Rump, Acta Numerica 19 (2010), Sec. 10)."""
    n = len(m)
    inv = _gauss_jordan([[x.mid for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
    if inv is None:
        return None
    spread = [sum(x.width for x in row) / 2 for row in m]
    e = [sum(abs(r) * s for r, s in zip(row, spread)) for row in inv]
    return (inv, e) if all(x < 1 for x in e) else None


def _verified_solve(inv, e, ys) -> list[RealInterval]:
    """Enclosures of every x with A x = y, A in the interval matrix m and y
    in the intervals ys, from (R, e) = _verified_inverse(m).  As
    x = R mid(y) + R (y - mid(y)) - R (A - mid(m)) x, each |x_i - (R
    mid(y))_i| is at most (|R| rad(y))_i + e_i |x|, and so |x| is at most
    (|R mid(y)| + ||R| rad(y)|) / (1 - max e), all in the infinity norm."""
    mids = [y.mid for y in ys]
    rads = [y.width / 2 for y in ys]
    centers = [sum(r * y for r, y in zip(row, mids)) for row in inv]
    spreads = [sum(abs(r) * d for r, d in zip(row, rads)) for row in inv]
    top = (max(map(abs, centers), default=0) + max(spreads, default=0)) / (1 - max(e, default=0))
    return [RealInterval(c - s - ei * top, c + s + ei * top) for c, s, ei in zip(centers, spreads, e)]


def _unit_ratio(x: FieldElement, units, exps) -> tuple[FieldElement, FieldElement]:
    """(num, den) with num / den = x / prod units_j^a_j for integer
    exponents a: each negative power multiplies num and each positive one
    den, so no unit is inverted."""
    num, den = x, x.field.one()
    for u, a in zip(units, exps):
        if a > 0:
            den = den * u**a
        elif a < 0:
            num = num * u**-a
    return num, den


def _chamber_exponents(
    chamber: _Chamber,
    beta: FieldElement,
    n_abs: int,
    prec: PrecisionConfig,
) -> tuple[int, ...]:
    """Integer exponents a with w / prod g_j^a_j in the fundamental chamber,
    at the first rung of the precision ladder that decides them.

    beta = w conj(w) and n_abs = |N(w)| > 0; everything here depends on w
    only through them.  Chamber coordinates c solve sum_j c_j log
    sigma_m(g_j conj(g_j)) = log sigma_m(beta) - log n_abs / k over the
    first k-1 embeddings; the answer is floor(c).  An enclosure that
    straddles a wall is decided exactly: c = a/m for integers a and m >= 1
    iff beta^m / prod beta_j^a_j is rational, that is, iff _unit_ratio's
    num is a rational multiple of its den.  Each m up to 2k is tried with
    a = round(m c) wherever m c's enclosure holds a.
    """
    field = chamber.field

    def attempt(cur):
        ys = _log_sigma(field.conductor, beta.coords, cur)
        shift = log_interval(RealInterval.point(Fraction(n_abs)), cur.bits) / field.k
        c = chamber.coordinates([y - shift for y in ys], cur)
        floors = [cj.lo.numerator // cj.lo.denominator for cj in c]
        if floors == [cj.hi.numerator // cj.hi.denominator for cj in c]:
            return tuple(floors)
        power = field.one()
        for m in range(1, 2 * field.k + 1):
            power = power * beta
            a = [round(m * cj.mid) for cj in c]
            if all(m * cj.lo <= aj <= m * cj.hi for aj, cj in zip(a, c)):
                num, den = _unit_ratio(power, chamber.betas, a)
                i = next(i for i, x in enumerate(den.coords) if x)
                if num * den.coords[i] == den * num.coords[i]:
                    # num / den is rational, so c = a/m exactly
                    return tuple(aj // m for aj in a)
        raise PrecisionError(
            f"_chamber_exponents: chamber coordinates not separated from a wall at {cur.bits} bits"
        )

    return climb(prec, attempt)


def reduce_to_chamber(
    field: CMField,
    basis: UnitBasis,
    w: FieldElement,
    prec: PrecisionConfig = DEFAULT_PRECISION,
) -> tuple[FieldElement, tuple[int, ...]]:
    """(w / prod g^a, a) with the quotient's log coordinates in [0,1)^(k-1):
    one exact division, of _unit_ratio's num by its den."""
    beta = w.times_conj()
    n_abs = real_norm(beta)
    if n_abs == 0:
        raise InputError("chamber reduction needs a nonzero element")
    exps = _chamber_exponents(basis.chamber, beta, n_abs, prec)
    return exact_divide(*_unit_ratio(w, basis.generators, exps)), exps
