"""Exact arithmetic in the ring of integers Z[zeta_n] of a cyclotomic field.

Elements are integer coordinate vectors in the power basis 1, zeta, ...,
zeta^(d-1) with d = phi(n).  All operations -- multiplication, the Galois
action sigma_h: zeta -> zeta^h (conjugation is sigma_(-1)), norm, trace,
exact division by the divisor's conjugates -- are carried out over Python
integers, with no floating point anywhere.
"""

from __future__ import annotations

import functools
import math
from operator import mul

from .errors import InputError

# Largest field degree phi(n) that CMField accepts.  The table of powers
# zeta^m holds n * phi(n) integers, built in O(n * phi(n)) steps: at this
# degree a field builds in milliseconds, while conductor 1000003 would need
# 10^12 entries.
MAX_DEGREE = 128


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of num/den for integer polynomials dividing exactly.

    Coefficient lists are ascending.  Raises if the division leaves a
    remainder; used only for the cyclotomic-polynomial recursion where
    exactness is guaranteed.
    """
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dd]
        if c % den[dd] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[dd]
        out[i] = q
        if q:
            for j, dc in enumerate(den):
                num[i + j] -= q * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the n-th cyclotomic polynomial."""
    if n < 1:
        raise InputError("conductor must be a positive integer")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def euler_phi(n: int) -> int:
    """Euler's totient of n >= 1, by trial division."""
    out = m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            while m % f == 0:
                m //= f
            out -= out // f
        f += 1
    if m > 1:
        out -= out // m
    return out


@functools.lru_cache(maxsize=None)
def representatives(n: int) -> tuple[int, ...]:
    """Exponent representatives of the k conjugate pairs, ascending."""
    return tuple(m for m in range(1, n // 2 + 1) if math.gcd(m, n) == 1)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class CMField:
    """A cyclotomic field Q(zeta_n), n > 2, with its tables of the powers
    zeta^m and their traces, m < n.

    The field is CM of degree d = phi(n) over Q with maximal real subfield
    of degree k = d/2.
    """

    def __init__(self, conductor: int):
        if conductor < 3:
            # conductors 1 and 2 give Q, which is not CM
            raise InputError("conductor must be an integer >= 3")
        # phi(n) >= sqrt(n / 2), so a huge conductor is refused unfactored
        if conductor > 2 * MAX_DEGREE**2 or euler_phi(conductor) > MAX_DEGREE:
            raise InputError(
                f"conductor {conductor} gives a field of degree above {MAX_DEGREE}, "
                "the largest supported"
            )
        self.conductor = conductor
        phi = cyclotomic_polynomial(conductor)
        self.polynomial = phi
        self.degree = len(phi) - 1
        if self.degree % 2 != 0:
            raise InputError("field is not CM: odd degree")
        self.k = self.degree // 2
        self._zeta_powers = self._build_zeta_powers()
        self._zeta_traces = self._build_zeta_traces()

    def _build_zeta_powers(self) -> tuple[tuple[int, ...], ...]:
        """Coordinates of zeta^m for m = 0..n-1, one shift-and-reduce each:
        shift up, then reduce x^d = -(phi_0 + ... + phi_(d-1) x^(d-1))."""
        cur = [1] + [0] * (self.degree - 1)
        rows = [tuple(cur)]
        for _ in range(self.conductor - 1):
            top, cur = cur[-1], [0, *cur[:-1]]
            if top:
                cur = [s - top * c for s, c in zip(cur, self.polynomial)]
            rows.append(tuple(cur))
        return tuple(rows)

    def _build_zeta_traces(self) -> tuple[int, ...]:
        """Tr(zeta^m) for m = 0..n-1: the diagonal of multiplication by
        zeta^m, whose column i is zeta^(m+i)."""
        n = self.conductor
        rows = self._zeta_powers
        return tuple(
            sum(rows[(m + i) % n][i] for i in range(self.degree)) for m in range(n)
        )

    @functools.cached_property
    def _real_discriminant(self) -> int:
        """det of the trace form of 1, the discriminant of K+, on first use."""
        return _det_bareiss(_real_trace_form(self.one()))

    # -- element constructors ------------------------------------------------

    def element(self, coords) -> "FieldElement":
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.degree:
            raise InputError(
                f"expected {self.degree} coordinates, got {len(coords)}"
            )
        return FieldElement(self, coords)

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.degree)

    def one(self) -> "FieldElement":
        return self.zeta(0)

    def zeta(self, power: int = 1) -> "FieldElement":
        """zeta_n^power as an element, any integer power."""
        return FieldElement(self, self._zeta_powers[power % self.conductor])

    def parse(self, text: str) -> "FieldElement":
        """Element from a comma-separated coordinate string like '3,0,1,1'."""
        try:
            coords = [int(part.strip()) for part in text.split(",")]
        except ValueError as exc:
            raise InputError(f"bad coordinate string {text!r}") from exc
        return self.element(coords)

    def torsion_units(self) -> list["FieldElement"]:
        """All roots of unity in O_F: ±zeta^j (2n elements for odd n)."""
        # dedupe preserving order; even conductors have -1 = zeta^(n/2)
        zetas = map(self.zeta, range(self.conductor))
        return list(dict.fromkeys(u for z in zetas for u in (z, -z)))

    def torsion_order(self) -> int:
        n = self.conductor
        return 2 * n if n % 2 else n

    def __eq__(self, other):
        return isinstance(other, CMField) and other.conductor == self.conductor

    def __hash__(self):
        return hash(("CMField", self.conductor))

    def __repr__(self):
        return f"CMField({self.conductor})"


class FieldElement:
    """Integer coordinate vector in the power basis of Z[zeta_n]."""

    __slots__ = ("field", "coords")

    def __init__(self, field: CMField, coords: tuple[int, ...]):
        self.field = field
        self.coords = coords

    def _check(self, other: "FieldElement"):
        if self.field != other.field:
            raise InputError("elements belong to different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            return FieldElement(self.field, tuple(a * other for a in self.coords))
        self._check(other)
        return _fold(self.field, _cyclic_product(self.coords, other.coords, self.field.conductor))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and other.field == self.field
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((self.field.conductor, self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def galois(self, h: int) -> "FieldElement":
        """sigma_h: zeta -> zeta^h for h coprime to the conductor n, so
        c_j zeta^j goes to c_j zeta^(hj mod n): the coordinates land at
        distinct exponents mod n, and the fold brings them back."""
        field = self.field
        n = field.conductor
        if math.gcd(h, n) != 1:
            raise InputError(f"sigma_{h} is not an automorphism of Q(zeta_{n})")
        acc = [0] * n
        for j, c in enumerate(self.coords):
            acc[h * j % n] = c
        return _fold(field, acc)

    def conj(self) -> "FieldElement":
        """Complex conjugation, sigma_(-1): zeta -> zeta^(-1)."""
        return self.galois(-1)

    def times_conj(self) -> "FieldElement":
        """alpha * conj(alpha) from the cyclic autocorrelation of the
        coordinates: with alpha = sum a_i zeta^i it is r_0 + sum_(s >= 1)
        r_s (zeta^s + zeta^(n-s)), r_s = sum_i a_i a_(i+s), which takes half
        the products of _cyclic_product; the same fold as every product
        brings the powers zeta^e, e >= phi(n), back."""
        field = self.field
        n, d = field.conductor, field.degree
        a = self.coords
        acc = [0] * n
        acc[0] = sum(map(mul, a, a))
        for s in range(1, d):
            r = sum(map(mul, a, a[s:]))
            if r:
                acc[s] += r
                acc[n - s] += r
        return _fold(field, acc)

    def __pow__(self, e: int) -> "FieldElement":
        """self^e for an integer e >= 0, by square-and-multiply over the
        bits of e from the top."""
        if e < 0:
            raise InputError("negative powers need exact_divide")
        if e == 0:
            return self.field.one()
        out = self
        for bit in bin(e)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def format(self) -> str:
        return ",".join(str(c) for c in self.coords)

    def __repr__(self):
        return f"FieldElement({self.field.conductor}; {self.format()})"


def _cyclic_product(a, b, n: int) -> list[int]:
    """a(z) b(z) mod z^n - 1 for ascending coefficient sequences of at most
    n terms: coefficient e is sum_i a_i b_((e - i) mod n), one dot product
    of a with b padded to n terms, reversed and repeated twice."""
    rev = ([0] * (n - len(b)) + list(b)[::-1]) * 2
    return [sum(map(mul, a, rev[s:])) for s in range(n - 1, -1, -1)]


def _fold(field: CMField, acc) -> FieldElement:
    """sum_(e < n) acc[e] zeta^e in the power basis, n the conductor: the
    first phi(n) entries are coordinates already, and each higher power
    adds its row of the zeta-power table.  With _cyclic_product it is the
    one multiplication rule of Z[zeta_n]: multiply in Z[z]/(z^n - 1), then
    send z to zeta_n."""
    d = field.degree
    out = acc[:d]
    rows = field._zeta_powers
    for e in range(d, field.conductor):
        c = acc[e]
        if c:
            out = [o + c * x for o, x in zip(out, rows[e])]
    return FieldElement(field, tuple(out))


def trace_row(a: FieldElement, count: int) -> list[int]:
    """Tr(a zeta^m) = sum_i a_i Tr(zeta^((i+m) mod n)) for m < count <= n,
    n the conductor, as dot products with the trace table repeated twice."""
    zt = a.field._zeta_traces * 2
    return [sum(map(mul, a.coords, zt[m:])) for m in range(count)]


def _real_trace_form(beta: FieldElement) -> list[list[int]]:
    """Tr_K+(beta b_i b_j) for real beta on b = 1, theta_1, ..., theta_(k-1),
    theta_j = zeta^j + zeta^-j: as Tr_K+(beta theta_m) = t_m = Tr(beta zeta^m)
    and theta_i theta_j = theta_(i+j) + theta_|i-j|, theta_0 = 2, entry 00 is
    t_0 / 2, row and column 0 are t_j, and entry ij is t_(i+j) + t_|i-j|."""
    k = beta.field.k
    t = trace_row(beta, 2 * k - 1)
    rows = [[t[i]] + [t[i + j] + t[abs(i - j)] for j in range(1, k)] for i in range(1, k)]
    return [[t[0] // 2, *t[1:k]], *rows]


def _det_bareiss(m: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def real_norm(beta: FieldElement) -> int:
    """N_{K+/Q}(beta) of a real beta, exactly: beta's trace form is that of
    1 times beta's multiplication matrix, so the norm is the quotient of
    their k x k determinants."""
    if beta != beta.conj():
        raise InputError("real_norm needs an element of the real subfield")
    return _det_bareiss(_real_trace_form(beta)) // beta.field._real_discriminant


def field_norm(a: FieldElement) -> int:
    """N_{F/Q}(a) = N_{K+/Q}(a conj(a)), an exact integer >= 0."""
    return real_norm(a.times_conj())


def trace(a: FieldElement) -> int:
    """Tr_{F/Q}(a) as an exact integer."""
    return trace_row(a, 1)[0]


def is_unit(a: FieldElement) -> bool:
    return field_norm(a) == 1


def exact_divide(a: FieldElement, b: FieldElement) -> FieldElement:
    """The unique x in O_F with x*b = a; raises InputError if none exists.

    With beta = b conj(b) and P the product of sigma_h(beta) over the pair
    representatives h != 1, beta P is N(b), all of b's conjugates
    multiplied: x = a conj(b) P / N(b)."""
    if b.is_zero():
        raise InputError("division by zero element")
    field = a.field
    beta = b.times_conj()
    p = field.one()
    for h in representatives(field.conductor)[1:]:
        p = p * beta.galois(h)
    norm = (beta * p).coords[0]
    num = a * b.conj() * p
    if any(c % norm for c in num.coords):
        raise InputError("element is not divisible in the ring of integers")
    x = FieldElement(field, tuple(c // norm for c in num.coords))
    if not (x * b) == a:
        raise InputError("division check failed")
    return x
