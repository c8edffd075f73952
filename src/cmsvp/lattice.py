"""Exact lattice algorithms on rational Gram matrices.

Everything here is Gram based: a lattice is its exact Gram matrix over
`fractions.Fraction`, basis changes are unimodular integer matrices, and no
floating point decides anything.  LLL reduction and Fincke-Pohst
enumeration run on the Gram scaled to an integer matrix, through its
integral Gram-Schmidt data (Cohen 1993, Alg. 2.6.7): the leading minors d
and the integers lam[i][j] = d[j+1] * mu[i][j].  Every division in them is
exact, so every emitted vector and every omission is certain.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import exp, isqrt, lcm, lgamma, log, pi
from operator import mul, neg
from typing import NamedTuple

from .errors import BudgetExceededError, NotPositiveDefiniteError

DEFAULT_BUDGET = 10**8
LLL_DELTA = Fraction(99, 100)
# The half-space descent refuses up front when the Gaussian-heuristic node
# count exceeds the budget by this factor; the exact node counter stays the
# guard.
REFUSE_MARGIN = 100
# The descent finds at most this many vectors, counting both of each +-v
# pair: it refuses up front when the Gaussian heuristic expects more, and
# stops when its exact count passes the limit.  A full listing
# (enumerate_short) costs about 330 bytes per vector, so a run at the cap
# stays near 1.4 GB.  The beta grouping of set-e and the skew searches holds
# one vector per pair and its key, about 270 bytes per pair at its peak, 135
# per listed vector (set-e at p = 11 peaks at 50 MB in all).
MAX_LISTED = 4 * 10**6


def _integer_gram(g) -> tuple[int, list[list[int]]]:
    """(s, s * g as an integer matrix), s the lcm of g's denominators."""
    g = [[Fraction(x) for x in row] for row in g]
    s = lcm(*(x.denominator for row in g for x in row))
    return s, [[x.numerator * (s // x.denominator) for x in row] for row in g]


def _integral_gso(a: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data (d, lam) of an integer Gram a.

    d[m] is the leading m x m minor (d[0] = 1) and lam[i][j] = d[j+1] *
    mu[i][j] for j < i; both are integers and every division is exact.
    """
    n = len(a)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        lk = lam[k]
        for j in range(k + 1):
            lj = lam[j]
            v = a[k][j]
            for i in range(j):
                v = (d[i + 1] * v - lk[i] * lj[i]) // d[i]
            if j < k:
                lk[j] = v
            elif v <= 0:
                raise NotPositiveDefiniteError(
                    f"leading minor {k + 1} of the Gram is not positive"
                )
            else:
                d[k + 1] = v
    return d, lam


def _round_half_even(num: int, den: int) -> int:
    """round(Fraction(num, den)) for den > 0: ties go to the even integer."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        return q + 1
    return q


def lll_reduce(
    g: list[list[Fraction]],
) -> tuple[list[list[int]], int, list[list[int]], list[int], list[list[int]]]:
    """Gram-space LLL reduction with parameter LLL_DELTA.

    Returns (U, s, a, d, lam): the unimodular integer transform U, the
    scale s, the lcm of g's denominators, and the integer Gram
    a = s U G U^T of the reduced basis with its integral Gram-Schmidt data
    (d, lam), which the reduction keeps exact through every step.
    """
    n = len(g)
    dn, dd = LLL_DELTA.numerator, LLL_DELTA.denominator
    s, a = _integer_gram(g)
    d, lam = _integral_gso(a)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    k = 1
    while k < n:
        lk = lam[k]
        for l in range(k - 1, -1, -1):
            r = _round_half_even(lk[l], d[l + 1])
            if not r:
                continue
            # basis_k -= r * basis_l
            ll = lam[l]
            lk[l] -= r * d[l + 1]
            for i in range(l):
                lk[i] -= r * ll[i]
            uk, ul = u[k], u[l]
            ak, al = a[k], a[l]
            for c in range(n):
                uk[c] -= r * ul[c]
                ak[c] -= r * al[c]
            for row in a:
                row[k] -= r * row[l]
        # Lovasz: B_k >= (delta - mu_{k,k-1}^2) B_{k-1}, times dd d[k] d[k-1]
        if dd * d[k + 1] * d[k - 1] >= dn * d[k] ** 2 - dd * lk[k - 1] ** 2:
            k += 1
            continue
        u[k], u[k - 1] = u[k - 1], u[k]
        a[k], a[k - 1] = a[k - 1], a[k]
        for row in a:
            row[k], row[k - 1] = row[k - 1], row[k]
        lp = lam[k - 1]
        for j in range(k - 1):
            lk[j], lp[j] = lp[j], lk[j]
        m = lk[k - 1]
        b = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - m * t) // d[k]
            li[k - 1] = (b * t + m * li[k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)
    return u, s, a, d, lam


class Reduced(NamedTuple):
    """A rational Gram with its LLL reduction, as integers: U gram U^T =
    a / s for the integer Gram a of the reduced basis, with its integral
    Gram-Schmidt data (d, lam).  The scale s is the lcm of the reduced
    Gram's denominators (the input's too, as U is unimodular), so equal
    reductions are equal records.  `reduce` makes each one from its Gram."""

    gram: list[list[Fraction]]
    u: list[list[int]]
    s: int
    a: list[list[int]]
    d: list[int]
    lam: list[list[int]]

    def min_diagonal(self) -> Fraction:
        """The smallest diagonal entry of the reduced Gram: the value of
        its shortest basis vector."""
        return Fraction(min(row[i] for i, row in enumerate(self.a)), self.s)


def reduce(g: list[list[Fraction]]) -> Reduced:
    """LLL-reduce g once.  The reduction's integral Gram-Schmidt data raise
    NotPositiveDefiniteError on a Gram that is not positive definite, so a
    Reduced is also a certificate of positive definiteness."""
    return Reduced(g, *lll_reduce(g))


def _log_node_estimate(d: list[int], top: int) -> tuple[float, float]:
    """Natural logs of the Gaussian-heuristic node count of a Fincke-Pohst
    descent with scaled radius top > 0 over integral pivots d, and of its
    full-dimension term, the expected number of vectors listed.  The node
    count is the sum over k of V_k(sqrt(top)) / sqrt(d[n] / d[n - k]), the
    expected number of points of the projection onto the top k
    coordinates."""
    n = len(d) - 1
    terms = [
        k / 2 * (log(top) + log(pi)) - lgamma(k / 2 + 1) + (log(d[n - k]) - log(d[n])) / 2
        for k in range(1, n + 1)
    ]
    peak = max(terms)
    return peak + log(sum(exp(t - peak) for t in terms)), terms[-1]


class Leaves:
    """The vectors a half-space descent finds, in descent order, without a
    coordinate tuple per vector.

    values[i] is vector i's integer m and firsts[i] its coordinate x_0;
    rows holds (head, count) for each run of consecutive vectors that share
    head = (x_1, ..., x_(n-1)), which is one x_1 of the descent's bottom
    loop and its range of x_0.  A descent run for values only leaves
    firsts and rows empty."""

    __slots__ = ("values", "firsts", "rows", "_ends")

    def __init__(self, values: list[int], firsts: list[int], rows: list[tuple[tuple[int, ...], int]]):
        self.values, self.firsts, self.rows = values, firsts, rows
        self._ends: list[int] | None = None

    def __len__(self) -> int:
        return len(self.values)

    def coords(self, indices=None) -> list[tuple[int, ...]]:
        """Reduced coordinates of the vectors at indices, or of all of them
        in descent order."""
        firsts = self.firsts
        if indices is None:
            out: list[tuple[int, ...]] = []
            pos = 0
            for head, count in self.rows:
                out.extend([(x0,) + head for x0 in firsts[pos : pos + count]])
                pos += count
            return out
        if self._ends is None:
            self._ends = list(accumulate(count for _, count in self.rows))
        ends, rows = self._ends, self.rows
        return [(firsts[i],) + rows[bisect_right(ends, i)][0] for i in indices]


def _half_space(
    red: Reduced, radius: Fraction, budget: int, coords: bool = True
) -> tuple[Leaves, int]:
    """Fincke-Pohst descent over the canonical half-space of a reduction:
    one vector of each +-v pair with q(v) <= radius, zero excluded.

    Returns (Leaves of the vectors in reduced coordinates, nodes visited),
    with q(v) = m / s for each vector's integer m, s = red.s; with coords
    false the Leaves hold the values alone, and the walk, its nodes and
    its refusals are the same.  More than budget nodes raise
    BudgetExceededError, and so do more than MAX_LISTED vectors, counting
    both of each pair, expected or found; when the walk would pass both
    limits, the one it passes first is reported.

    q takes its values in (1/s)Z, so the descent runs to the radius
    floored onto that grid, top / s, which bounds the same vectors, over
    the reduction's integral Gram-Schmidt data as they are.  It carries e =
    d[level+1] times the unspent scaled radius as an integer.  With c =
    -sum_{j>level} lam[j][level] x_j, a coordinate x is admissible iff
    (x d[level+1] - c)^2 <= e d[level].  Levels 2, 1 and 0 run in one
    call: each x_2 takes its range of x_1, and each x_1 its whole range of
    x_0, the leaves, at once, counts their nodes together and records them
    as one row.  Their centers come from running partial sums (Schnorr and
    Euchner 1994): every node above them passes down p_i = -sum_{j>=level}
    lam[j][i] x_j for i = 0, 1, 2, one product each, so no center of those
    levels is summed over the coordinates above it.  A level above them
    sums the part of its children's c that comes from above its own level
    once per call, so a child's c costs one product.  A lattice of
    dimension n < 3 runs as one of dimension 3 whose top 3 - n levels are
    phantoms: basis vectors orthogonal to the lattice and longer than the
    radius, each admitting x = 0 alone, whose nodes are not counted and
    whose zeros are cut from the rows.
    """
    n = len(red.u)
    d, lam = red.d, red.lam
    top = radius.numerator * red.s // radius.denominator
    values: list[int] = []
    firsts: list[int] = []
    rows: list[tuple[tuple[int, ...], int]] = []
    leaves = Leaves(values, firsts, rows)
    if not n or top < 0:
        return leaves, 0
    if top > 0:
        nodes_est, listed_est = _log_node_estimate(d, top)
        if nodes_est > log(REFUSE_MARGIN * max(budget, 1)):
            raise BudgetExceededError(budget, nodes_est / log(10))
        if listed_est > log(MAX_LISTED):
            raise BudgetExceededError(MAX_LISTED, listed_est / log(10), "listed vectors")
    pad = max(3 - n, 0)
    if pad:
        # a phantom pivot top + 1 exceeds the radius, so the level's range
        # is {0} and it passes the radius down unchanged; the count starts
        # at -pad, so its one node is not counted
        d = d + [d[n] * (top + 1) ** k for k in range(1, pad + 1)]
        lam = lam + [[0, 0, 0]] * pad
    dim = n + pad
    x = [0] * dim
    nodes = -pad

    def descend(level: int, e: int, c: int, nonzero_seen: bool, p0: int, p1: int, p2: int):
        """Levels >= 3: one node per admissible x_level; p_i is level i's
        center summed over the levels above this one."""
        nonlocal nodes
        dh = d[level + 1]
        big = e * d[level]
        h = isqrt(big)
        lo = -((h - c) // dh)
        hi = (c + h) // dh
        if not nonzero_seen and lo < 0:
            # restrict to the canonical half-space: topmost nonzero coord > 0
            lo = 0
        row = lam[level]
        m0, m1, m2 = row[0], row[1], row[2]
        below = level - 1
        if below > 2:
            base = 0
            for j in range(level + 1, dim):
                base -= lam[j][below] * x[j]
            step = row[below]
        for xv in range(lo, hi + 1):
            nodes += 1
            if nodes > budget:
                # every x_2 so far has checked the listing cap
                raise BudgetExceededError(budget)
            x[level] = xv
            t = xv * dh - c
            rest = (big - t * t) // dh
            seen = nonzero_seen or xv != 0
            if below > 2:
                descend(below, rest, base - step * xv, seen, p0 - m0 * xv, p1 - m1 * xv, p2 - m2 * xv)
            else:
                bottom(rest, p2 - m2 * xv, seen, p0 - m0 * xv, p1 - m1 * xv)

    def bottom(e: int, c: int, nonzero_seen: bool, p0: int, p1: int):
        """Levels 2, 1 and 0: each admissible x_2, its admissible x_1 and
        their range of x_0; p0 and p1 are the centers of levels 0 and 1
        summed over the levels above 2."""
        nonlocal nodes
        d1, d2, d3 = d[1], d[2], d[3]
        m10, m20, m21 = lam[1][0], lam[2][0], lam[2][1]
        append = values.append
        big2 = e * d2
        h = isqrt(big2)
        lo2 = -((h - c) // d3)
        hi2 = (c + h) // d3
        if not nonzero_seen and lo2 < 0:
            lo2 = 0
        if coords:
            tail = tuple(x[3:])
        for x2 in range(lo2, hi2 + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(budget)
            t = x2 * d3 - c
            big = (big2 - t * t) // d3 * d1
            c1 = p1 - m21 * x2
            base = p0 - m20 * x2
            seen = nonzero_seen or x2 != 0
            h = isqrt(big)
            lo = -((h - c1) // d2)
            hi = (c1 + h) // d2
            if not seen and lo < 0:
                lo = 0
            if coords:
                head = (x2,) + tail
            for x1 in range(lo, hi + 1):
                t = x1 * d2 - c1
                rest = (big - t * t) // d2
                # level 0, where d[0] = 1: x_0 d1 - c0 = u with u^2 <= rest
                c0 = base - m10 * x1
                h0 = isqrt(rest)
                lo0 = -((h0 - c0) // d1)
                hi0 = (c0 + h0) // d1
                first = lo0
                if not (x1 or seen):
                    # c0 = 0 here, so lo0 <= 0 <= hi0: the zero vector is a
                    # node but no leaf
                    lo0, first = 0, 1
                before = nodes
                nodes += hi0 - lo0 + 2  # x_1's node and its leaves'; hi0 >= lo0 - 1
                if nodes > budget:
                    # the walk lists the leaves before the node past the
                    # budget; if they pass the listing cap, that refusal
                    # comes first
                    last = min(hi0, lo0 + budget - before - 2)
                    if 2 * (len(values) + max(last - first + 1, 0)) > MAX_LISTED:
                        raise BudgetExceededError(MAX_LISTED, what="listed vectors")
                    raise BudgetExceededError(budget)
                if first <= hi0:
                    if coords:
                        rows.append(((x1,) + head, hi0 - first + 1))
                        firsts.extend(range(first, hi0 + 1))
                    u = first * d1 - c0
                    for _ in range(first, hi0 + 1):
                        append(top - (rest - u * u) // d1)
                        u += d1
            if 2 * len(values) > MAX_LISTED:
                raise BudgetExceededError(MAX_LISTED, what="listed vectors")

    if dim > 3:
        descend(dim - 1, d[dim] * top, 0, False, 0, 0, 0)
    else:
        bottom(d[3] * top, 0, False, 0, 0)
    if pad:
        rows[:] = [(head[: n - 1], count) for head, count in rows]
    return leaves, nodes


def _to_basis(u: list[list[int]], xs: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Each vector x of reduced coordinates in xs mapped back to the Gram's
    own basis: x . U.

    Row i of U is packed as the integer sum_j u_ij 2^(b j), so x . U is
    the base-2^b digits of one sum of products sum_i x_i pack_i.  With
    A_j = sum_i |u_ij| max|x_i| over the batch, b = bitlen(max_j A_j) + 1
    puts every coordinate in (-2^(b-1), 2^(b-1)), so after adding
    2^(b-1) to every digit each digit lies in [0, 2^b) and is read off
    with no carries, less 2^(b-1)."""
    if not xs:
        return []
    tops = [max(max(col), -min(col)) for col in zip(*xs)]
    b = max(sum(t * abs(c) for t, c in zip(tops, col)) for col in zip(*u)).bit_length() + 1
    shifts = range(0, b * len(u[0]), b)
    packs = [sum(c << k for c, k in zip(row, shifts)) for row in u]
    half = 1 << (b - 1)
    bias = sum(half << k for k in shifts)
    mask = (1 << b) - 1
    packed = [sum(map(mul, x, packs), bias) for x in xs]
    return list(zip(*[[((v >> k) & mask) - half for v in packed] for k in shifts]))


def enumerate_short(
    g: Reduced, radius: Fraction, budget: int = DEFAULT_BUDGET
) -> tuple[list[tuple[tuple[int, ...], Fraction]], int]:
    """All nonzero lattice vectors v with q(v) <= radius, exactly.

    Vectors come in +-v pairs; both are listed.  Returns (sorted list of
    (coordinates, value) pairs, nodes visited).  Coordinates refer to the
    Gram's own basis; ordering is lexicographic.  More than MAX_LISTED
    vectors, expected or found, raise BudgetExceededError.
    """
    leaves, nodes = _half_space(g, Fraction(radius), budget)
    out: list[tuple[tuple[int, ...], Fraction]] = []
    # one Fraction per distinct value, shared by all its vectors
    values: dict[int, Fraction] = {}
    for orig, m in zip(_to_basis(g.u, leaves.coords()), leaves.values):
        val = values.get(m)
        if val is None:
            val = values[m] = Fraction(m, g.s)
        out.append((orig, val))
        out.append((tuple(map(neg, orig)), val))
    out.sort(key=lambda p: p[0])
    return out, nodes


def minimum_shell(
    g: Reduced, budget: int = DEFAULT_BUDGET
) -> tuple[Fraction, list[tuple[int, ...]], Fraction, int]:
    """(minimum q, minimizers, search radius, nodes) for an exact Gram.

    The search radius is the smallest diagonal entry of the LLL-reduced
    Gram, which always contains a nonzero vector.
    """
    radius = g.min_diagonal()
    vectors, nodes = enumerate_short(g, radius, budget)
    mu = min(v for _, v in vectors)
    mins = sorted(c for c, v in vectors if v == mu)
    return mu, mins, radius, nodes


def theta_counts(
    g: Reduced, max_norm: Fraction, budget: int = DEFAULT_BUDGET
) -> list[tuple[Fraction, int]]:
    """Sorted (q, count) pairs for q <= max_norm, including q = 0.

    Counted on the values of the half-space descent, with no coordinates:
    each value found there stands for a +-v pair, and the zero vector
    counts once."""
    leaves, _ = _half_space(g, Fraction(max_norm), budget, coords=False)
    counts = Counter(leaves.values)
    return [(Fraction(0), 1)] + [(Fraction(m, g.s), 2 * c) for m, c in sorted(counts.items())]
