"""Unit-group bases modulo torsion and the fundamental-domain simplices.

For prime conductor p >= 5 a built-in basis of the cyclotomic units is
provided: the first k-1 members of the Galois orbit of
u = (1 - zeta^g)/(1 - zeta) under sigma: zeta -> zeta^g, with g the smallest
primitive root mod p.  These generate the cyclotomic units modulo torsion
(full rank k-1) and reproduce the classical worked values for small p.
Any other basis can be supplied from a file; it is validated by an exact
unit check and a certified multiplicative-independence check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DependentUnitsError, InputError, NonPrimeConductorError
from .field import CMField, FieldElement, exact_divide, is_unit, is_prime
from .interval import DEFAULT_PRECISION, PrecisionConfig, climb, det_interval
from .embeddings import _log_sigma

BUILTIN_CYCLOTOMIC = "builtin-cyclotomic"
USER_SUPPLIED = "user-supplied"


@dataclass(frozen=True)
class UnitBasis:
    """k-1 multiplicatively independent units plus the torsion order."""

    field: CMField
    generators: tuple[FieldElement, ...]
    torsion: int
    provenance: str


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


def independence_certificate(
    field: CMField,
    generators,
    prec: PrecisionConfig = DEFAULT_PRECISION,
) -> None:
    """Certify multiplicative independence mod torsion or raise.

    The (k-1)x(k-1) matrix L with L[j][m] = log sigma_m(g_j * conj(g_j))
    (first k-1 embedding coordinates) must have a determinant interval
    bounded away from zero at some rung of the precision ladder.
    """
    k1 = len(generators)
    if k1 == 0:
        return
    betas = [g.times_conj().coords for g in generators]

    def attempt(cur):
        if det_interval([_log_sigma(field.conductor, b, cur)[:k1] for b in betas]).contains_zero():
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
    independence_certificate(field, gens)
    return UnitBasis(field, tuple(gens), torsion, USER_SUPPLIED)


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
