"""Tests of the benchmark's own machinery: the reference checker, the Galois
rotation of skew weights, the resource guard, and the span accounting of a
traced run.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import time
from fractions import Fraction

import pytest

import run
from refcheck import WIDTH_CAP, compare, rotate_reference
from workloads import WORKLOADS, Op, OpSpec

REFERENCE = run.load_reference()


def _ref(key: str) -> dict:
    return copy.deepcopy(REFERENCE[key])


def _shift(iv: dict, lo: Fraction, hi: Fraction) -> dict:
    return {"lo": str(Fraction(iv["lo"]) + lo), "hi": str(Fraction(iv["hi"]) + hi)}


def test_every_reference_passes_its_own_check():
    for specs in WORKLOADS.values():
        for spec in specs:
            ref = REFERENCE[spec.key]
            assert compare(ref, ref["rc"], ref["json"]) == [], spec.key
            assert len(ref["sha256"]) == spec.rotations


def test_checker_rejects_a_dropped_minimal_vector():
    ref = _ref("minima --cyclotomic 17 --ideal-exp 2")
    got = copy.deepcopy(ref["json"])
    del got["vectors"][3]
    got["count"] -= 1
    errors = compare(ref, 0, got)
    assert any("vectors" in e for e in errors)
    assert any("count" in e for e in errors)


def test_checker_rejects_a_shifted_interval():
    ref = _ref("bound --cyclotomic 11")
    got = copy.deepcopy(ref["json"])
    got["bound"] = _shift(got["bound"], Fraction(1, 10**25), Fraction(1, 10**25))
    assert any("misses reference" in e for e in compare(ref, 0, got))


def test_checker_rejects_a_widened_interval():
    ref = _ref("bound --cyclotomic 11")
    got = copy.deepcopy(ref["json"])
    got["simplices"][0]["detA"] = _shift(got["simplices"][0]["detA"], -2 * WIDTH_CAP, Fraction(0))
    assert any("width" in e for e in compare(ref, 0, got))


def test_checker_accepts_a_differently_rounded_enclosure():
    ref = _ref("bound --cyclotomic 11")
    got = copy.deepcopy(ref["json"])
    tiny = Fraction(1, 10**36)
    got["bound"] = _shift(got["bound"], tiny, -tiny)
    got["simplices"][1]["value"] = _shift(got["simplices"][1]["value"], -tiny, tiny)
    assert compare(ref, 0, got) == []


def test_checker_rejects_a_wrong_exit_code():
    ref = _ref("set-e --cyclotomic 5")
    assert compare(ref, 1, ref["json"]) != []


def test_checker_compares_psi_through_its_enclosure():
    ref = _ref("psi --cyclotomic 11 --t 1")
    got = copy.deepcopy(ref["json"])
    # a longer truncation moves mass from the tail into the value
    tail_hi = Fraction(got["tail"]["hi"])
    got["value"] = _shift(got["value"], tail_hi / 2, tail_hi / 2)
    got["tail"] = {"lo": "0", "hi": str(tail_hi / 2)}
    assert compare(ref, 0, got) == []
    got["tail"] = {"lo": "0", "hi": str(tail_hi + 2 * WIDTH_CAP)}
    assert any("width" in e for e in compare(ref, 0, got))


def _cli_json(argv: list[str]) -> tuple[int, dict]:
    from cmsvp import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + ["--json"])
    return rc, json.loads(buf.getvalue())


@pytest.mark.parametrize("p, weights", [(5, "1,10"), (7, "1,10,100")])
def test_rotation_map_sends_rotation_0_output_to_rotation_s_output(p, weights):
    spec = OpSpec(("minima", "--cyclotomic", str(p)), p, tuple(weights.split(",")))
    rc, base = _cli_json(spec.argv_for(0))
    for s in range(1, spec.rotations):
        rc_s, got = _cli_json(spec.argv_for(s))
        expected = rotate_reference(base, p, spec.weights, s)
        assert got["vectors"] == expected["vectors"] != base["vectors"]
        assert got["count"] == base["count"]
        assert compare({"rc": rc, "json": expected}, rc_s, got) == []


def test_timeout_and_memory_cap_fail_the_operation(monkeypatch):
    report, _, error = run.execute(["bound", "--cyclotomic", "11"], False, 0.5)
    assert report is None and "timed out" in error
    monkeypatch.setattr(run, "ADDRESS_SPACE_CAP", 16 << 20)
    report, _, error = run.execute(["minima", "--cyclotomic", "5"], False, 60)
    assert report is None and "exited" in error


def test_traced_self_times_and_outside_time_add_up_to_traced_wall():
    spec = next(s for s in WORKLOADS["analytic"] if s.argv[0] == "verify-craig")
    res = run.run_op(Op(spec, 0), REFERENCE, True, time.perf_counter() + 120)
    assert res.ok and res.bytes_same
    m = run.layer_metrics([res])
    layers = sum(m[f"{layer}.self_s"] for layer in run.LAYER_SELF)
    assert layers + m["trace.outside_s"] == pytest.approx(m["trace.wall_s"], abs=1e-6)
    assert 0 <= m["trace.outside_s"] < 0.01 * m["trace.wall_s"]
    for name in ("lattice.lll_reduce.calls", "lattice.enumerate_short.calls", "interval.det_interval.calls",
                 "field.exact_divide.calls", "bound.simplices"):
        assert m[name] > 0, name
    assert 0 < m["lattice.lll_repeat_frac"] < 1
    assert 0 < m["svp.accept_frac"] <= 1
