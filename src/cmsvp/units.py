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
from .field import CMField, FieldElement, exact_divide, is_prime, is_unit, real_norm
from .interval import DEFAULT_PRECISION, PrecisionConfig, RealInterval, adjugate, climb, interval_sum, log_interval

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

    The generators' log matrix L (see _Chamber) must have a determinant
    interval bounded away from zero at some rung of the precision ladder.
    """
    if not basis.generators:
        return

    def attempt(cur):
        if basis.chamber.log_matrix(cur)[1].contains_zero():
            raise DependentUnitsError(
                "independence_certificate: unit generators are not certifiably independent "
                f"(log matrix determinant interval contains zero at {cur.bits} bits)"
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
    precision tried, the adjugate of the generators' log matrix
    L[m][j] = log sigma_m(beta_j), m < k-1."""

    def __init__(self, field: CMField, generators):
        self.field = field
        self.betas = tuple(g.times_conj() for g in generators)
        self._logs: dict[int, tuple] = {}

    def log_matrix(self, prec: PrecisionConfig) -> tuple[list[list[RealInterval]], RealInterval]:
        """(C, det L): the cofactors and determinant of L at prec's bits,
        built once per precision."""
        if prec.bits not in self._logs:
            rows = [_log_sigma(self.field.conductor, beta.coords, prec) for beta in self.betas]
            self._logs[prec.bits] = adjugate(list(zip(*rows)))
        return self._logs[prec.bits]

    def coordinates(self, ys, prec: PrecisionConfig) -> list[RealInterval]:
        """Enclosures of the c solving sum_j L[m][j] c_j = ys[m], m < k-1:
        c_j = sum_m ys[m] C[m][j] / det L."""
        cofactors, det = self.log_matrix(prec)
        if det.contains_zero():
            raise PrecisionError(
                f"_Chamber: unit log matrix determinant contains zero at {prec.bits} bits"
            )
        k1 = len(self.betas)
        return [
            interval_sum(ys[m] * cofactors[m][j] for m in range(k1)) / det
            for j in range(k1)
        ]


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
