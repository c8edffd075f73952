"""Every benchmark operation at every Galois rotation against
perfbench/reference.json, through perfbench's own semantic check: exact
vectors, counts and minima, overlapping enclosures no wider than the
reference's, psi's at most 1.001 times as wide.  The equal-weight
operations also keep their --json bytes."""

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


@pytest.mark.parametrize("spec, rotation", RUNS, ids=[" ".join(spec.argv_for(r)) for spec, r in RUNS])
def test_benchmark_run_passes_the_reference_check(spec, rotation, capsys):
    rc = cli.main(spec.argv_for(rotation) + ["--json"])
    out = capsys.readouterr().out
    assert reference_mismatches(spec, rotation, rc, out) == []
    if not spec.weights:
        assert hashlib.sha256(out.encode()).hexdigest() == BENCHMARK_REFERENCE[spec.key]["sha256"][rotation]


def test_the_sweep_covers_all_22_runs():
    assert len(RUNS) == 22
