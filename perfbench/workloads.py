"""Workload definitions for the cmsvp CLI benchmark, and the Galois rotation
that the workload seed applies to skew weight vectors.

Each workload is a fixed list of CLI operations. An operation with skew
weights names its prime conductor p and its base weight vector, and runs at
one of the k = (p - 1)/2 Galois rotations of that vector: the seed picks the
rotation of the first pass, and each later pass takes the next one. The
automorphism zeta -> zeta^h with h = g^s (g the smallest primitive root mod
p) permutes the embedding pairs cyclically, so the minimum, the count of
minimal vectors and the psi value are the same for every rotation, while
the minimal vectors themselves are mapped by zeta -> zeta^h.

Rotations are genuinely different inputs: the five rotations of the p = 11
minima weights below cost from about 0.6 to 1.2 times their mean. A run
walks the rotations pass by pass and weighs each rotation it ran equally
(see run.py), so the seed does not decide a run's time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class OpSpec:
    """One CLI operation as listed in a workload; `weights` marks a skew
    weight vector that the seed rotates."""

    argv: tuple[str, ...]
    p: int = 0
    weights: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        """Reference key: the rotation-0 command line."""
        return " ".join(self.argv_for(0))

    @property
    def rotations(self) -> int:
        return (self.p - 1) // 2 if self.weights else 1

    def argv_for(self, rotation: int) -> list[str]:
        argv = list(self.argv)
        if self.weights:
            argv += ["--weights", ",".join(rotate_weights(self.p, self.weights, rotation))]
        return argv


@dataclass(frozen=True)
class Op:
    """An operation with its rotation fixed by the seed."""

    spec: OpSpec
    rotation: int

    @property
    def argv(self) -> list[str]:
        return self.spec.argv_for(self.rotation)

    @property
    def command(self) -> str:
        return self.spec.argv[0]


def _op(text: str, p: int = 0, weights: str = "") -> OpSpec:
    return OpSpec(tuple(text.split()), p, tuple(weights.split(",")) if weights else ())


# Why each workload exists is recorded in BENCHMARK.json. A pass of each
# takes 3-7 s on a 2-CPU machine, so that several passes fit in one run.
WORKLOADS: dict[str, tuple[OpSpec, ...]] = {
    # Bound engine only: interval determinants with growing endpoints, no
    # LLL and no enumeration.
    "certify": (
        _op("bound --cyclotomic 5"),
        _op("bound --cyclotomic 7 --ideal-exp 3"),
        _op("bound --cyclotomic 11"),
    ),
    # LLL and Fincke-Pohst enumeration on big exact and skew forms; the
    # bound engine does not run.
    "enumerate": (
        _op("theta --circulant 10,1 --max-norm 6"),
        _op("theta --circulant 12,1 --max-norm 4"),
        _op("theta --cyclotomic 11 --max-norm 20"),
        _op("minima --cyclotomic 17 --ideal-exp 2"),
        _op("minima --cyclotomic 11", 11, "1,4,16,64,256"),
    ),
    # Many small calls into every layer: repeated reductions, small
    # enumerations, transcendental leaves and small determinants.
    "analytic": (
        _op("psi --cyclotomic 11 --t 1"),
        _op("psi --cyclotomic 11 --t 1/2", 11, "1,2,3,4,5"),
        _op("set-e --cyclotomic 5"),
        _op("set-e --cyclotomic 7"),
        _op("set-e --cyclotomic 7 --bits 256"),
        _op("verify-craig -p 7 -r 1..6"),
    ),
}


def build(workload: str, seed: int, pass_index: int) -> list[Op]:
    """The workload's operations for one pass of a run with this seed."""
    rng = random.Random(seed)
    return [
        Op(spec, (rng.randrange(spec.rotations) + pass_index) % spec.rotations)
        for spec in WORKLOADS[workload]
    ]


def primitive_root(p: int) -> int:
    for g in range(2, p):
        if len({pow(g, e, p) for e in range(1, p)}) == p - 1:
            return g
    raise ValueError(f"{p} is not an odd prime")


def galois_exponent(p: int, rotation: int) -> int:
    """h = g^rotation mod p, the exponent of zeta -> zeta^h."""
    return pow(primitive_root(p), rotation, p)


def _pair_index(p: int, x: int) -> int:
    """Index of the embedding pair {zeta -> zeta^x, zeta -> zeta^-x}; the
    pairs are ordered by their representative 1..k, as the CLI orders
    weights."""
    x %= p
    return min(x, p - x) - 1


def rotate_weights(p: int, weights, rotation: int) -> list[str]:
    """Weights w' with w'(pair m) = w(pair m*h), h = g^rotation.

    Then N_w'(sigma_h(a)) = N_w(a) for every a, so the minimal vectors for
    w' are the images of those for w under sigma_h: zeta -> zeta^h.
    """
    h = galois_exponent(p, rotation)
    return [weights[_pair_index(p, m * h)] for m in range(1, (p - 1) // 2 + 1)]


def map_vector(p: int, coords, h: int) -> list[int]:
    """Power-basis coordinates of sigma_h(a), sigma_h: zeta -> zeta^h, for a
    in Z[zeta_p] given by its p - 1 power-basis coordinates."""
    out = [0] * (p - 1)
    for i, c in enumerate(coords):
        e = i * h % p
        if e == p - 1:
            # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
            for j in range(p - 1):
                out[j] -= c
        else:
            out[e] += c
    return out
