"""Semantic comparison of a CLI operation's output with its stored reference.

Exact fields must match exactly: exit code, rational minima, counts,
vectors, theta coefficients, set-E elements, verdicts and statuses. Every
interval `{"lo", "hi"}` must overlap its reference interval and be no wider
than WIDTH_CAP, or than the reference when the reference itself is wider
(psi tails are). So an enclosure rounded differently passes, while a dropped
vector, a shifted interval or a loosened enclosure fails.

A psi sample is compared through its certified enclosure value + tail,
since a different truncation radius moves value and tail but not the sum.
Search records that describe how an answer was found rather than the
answer (`nodes`, `radius`) are not compared.
"""

from __future__ import annotations

import copy
from fractions import Fraction

from workloads import galois_exponent, map_vector, rotate_weights

WIDTH_CAP = Fraction(1, 10**20)

SEARCH_RECORD_KEYS = frozenset({"nodes", "radius"})


def _is_interval(x) -> bool:
    return isinstance(x, dict) and set(x) == {"lo", "hi"}


def _compare_interval(path: str, ref: dict, got: dict, errors: list[str]) -> None:
    r_lo, r_hi = Fraction(ref["lo"]), Fraction(ref["hi"])
    g_lo, g_hi = Fraction(got["lo"]), Fraction(got["hi"])
    if g_lo > g_hi:
        errors.append(f"{path}: empty interval [{got['lo']}, {got['hi']}]")
    elif g_hi < r_lo or r_hi < g_lo:
        errors.append(f"{path}: [{got['lo']}, {got['hi']}] misses reference [{ref['lo']}, {ref['hi']}]")
    elif g_hi - g_lo > max(WIDTH_CAP, r_hi - r_lo):
        errors.append(f"{path}: width {float(g_hi - g_lo):.3g} exceeds {float(max(WIDTH_CAP, r_hi - r_lo)):.3g}")


def _compare(path: str, ref, got, errors: list[str]) -> None:
    if _is_interval(ref):
        if _is_interval(got):
            _compare_interval(path, ref, got, errors)
        else:
            errors.append(f"{path}: expected an interval, got {got!r}")
    elif isinstance(ref, dict):
        if not isinstance(got, dict):
            errors.append(f"{path}: expected an object, got {got!r}")
            return
        for key in sorted(set(ref) | set(got)):
            if key in SEARCH_RECORD_KEYS:
                continue
            if key not in got or key not in ref:
                errors.append(f"{path}.{key}: present on one side only")
            else:
                _compare(f"{path}.{key}", ref[key], got[key], errors)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            n = len(got) if isinstance(got, list) else "no"
            errors.append(f"{path}: expected {len(ref)} entries, got {n}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare(f"{path}[{i}]", r, g, errors)
    elif ref != got:
        errors.append(f"{path}: expected {ref!r}, got {got!r}")


def _psi_enclosure(payload: dict) -> dict:
    """Replace a psi sample's value and tail by its enclosure value + tail."""
    if payload.get("command") != "psi" or "value" not in payload or "tail" not in payload:
        return payload
    out = {k: v for k, v in payload.items() if k not in ("value", "tail")}
    value, tail = payload["value"], payload["tail"]
    lo = Fraction(value["lo"]) + Fraction(tail["lo"])
    hi = Fraction(value["hi"]) + Fraction(tail["hi"])
    out["enclosure"] = {"lo": str(lo), "hi": str(hi)}
    return out


def rotate_reference(payload: dict, p: int, base_weights, rotation: int) -> dict:
    """The output expected at `rotation`, from the rotation-0 output: minimal
    vectors mapped by zeta -> zeta^(g^rotation), weights rotated."""
    if rotation == 0:
        return payload
    out = copy.deepcopy(payload)
    if "vectors" in out:
        h = galois_exponent(p, rotation)
        out["vectors"] = sorted(map_vector(p, v, h) for v in out["vectors"])
    if "weights" in out:
        out["weights"] = rotate_weights(p, base_weights, rotation)
    return out


def compare(reference: dict, rc: int, payload) -> list[str]:
    """Mismatches between an operation's exit code and parsed --json output
    and the reference {"rc", "json"}; empty when the output is correct."""
    errors: list[str] = []
    if rc != reference["rc"]:
        errors.append(f"exit code {rc}, expected {reference['rc']}")
        return errors
    if payload is None:
        errors.append("no JSON output")
        return errors
    _compare("$", _psi_enclosure(reference["json"]), _psi_enclosure(payload), errors)
    return errors
