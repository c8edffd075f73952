"""Every benchmark operation at every Galois rotation against
perfbench/reference.json, through perfbench's own semantic check: exact
vectors, counts and minima, overlapping enclosures no wider than the
reference's, psi's at most 1.001 times as wide.  The equal-weight
operations also keep their --json bytes, and so do the skewed ones, whose
search record (nodes, radius) the semantic check skips: minima at the
reference's digests, psi at PSI_SKEWED_SHA256, as the reference still
holds psi's older tail digits."""

import hashlib

import pytest

from cmsvp import cli
from conftest import BENCHMARK_REFERENCE, perfbench_modules, reference_mismatches

RUNS = [
    (spec, rotation)
    for specs in perfbench_modules()[1].WORKLOADS.values()
    for spec in specs
    for rotation in range(spec.rotations)
]


# sha256 of `psi --cyclotomic 11 --t 1/2 --weights ... --json` at each
# rotation of the weights
PSI_SKEWED_SHA256 = [
    "af7fef83975a3809c3bb50ab60b7d7d60519596f6df5eed3d03acea123073f86",
    "24c81246ab476f67027dd07211b579aee5b1d2d518bbe70adb76bb0f4e5d3966",
    "0c2d521fe134807f9441fab60d7faaa253a30d2100f000600df9d314cd526bee",
    "a71d3b848d58434217983e1cfc3eae34849799f0bd2d47287c621822e0874bad",
    "ad37e77b0e3a0c1256ae31e1557dcb3c004f8039e0206a183070b889bab8b8ef",
]


@pytest.mark.parametrize("spec, rotation", RUNS, ids=[" ".join(spec.argv_for(r)) for spec, r in RUNS])
def test_benchmark_run_passes_the_reference_check(spec, rotation, capsys):
    rc = cli.main(spec.argv_for(rotation) + ["--json"])
    out = capsys.readouterr().out
    assert reference_mismatches(spec, rotation, rc, out) == []
    if spec.argv[0] == "psi" and spec.weights:
        want = PSI_SKEWED_SHA256[rotation]
    else:
        want = BENCHMARK_REFERENCE[spec.key]["sha256"][rotation]
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_the_sweep_covers_all_22_runs():
    assert len(RUNS) == 22
