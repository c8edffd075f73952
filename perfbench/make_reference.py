"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every operation of every workload once per Galois rotation and writes
perfbench/reference.json: for each operation (keyed by its rotation-0
command line) the exit code, the parsed rotation-0 --json output, and the
SHA-256 of the --json bytes at each rotation. Before writing, it checks that
mapping the rotation-0 output through zeta -> zeta^(g^s) reproduces the
rotation-s output. Run it only on a commit whose outputs are known to be
right, since every later run is judged against what it records.
"""

from __future__ import annotations

import hashlib
import json
import sys

from refcheck import compare, rotate_reference
from run import OP_TIMEOUT_S, REFERENCE, execute
from workloads import WORKLOADS


def main() -> int:
    reference = {}
    for specs in WORKLOADS.values():
        for spec in specs:
            entry = None
            for rotation in range(spec.rotations):
                argv = spec.argv_for(rotation)
                report, _, error = execute(argv, False, OP_TIMEOUT_S)
                if report is None:
                    print(f"{' '.join(argv)}: {error}", file=sys.stderr)
                    return 1
                digest = hashlib.sha256(report["stdout"].encode()).hexdigest()
                payload = json.loads(report["stdout"])
                if entry is None:
                    entry = {"rc": report["rc"], "json": payload, "sha256": []}
                expected = {"rc": entry["rc"], "json": rotate_reference(entry["json"], spec.p, spec.weights, rotation)}
                errors = compare(expected, report["rc"], payload)
                if errors:
                    print(f"{' '.join(argv)}: rotation map fails: {errors[0]}", file=sys.stderr)
                    return 1
                entry["sha256"].append(digest)
                print(f"{report['wall_s']:8.3f} s  {' '.join(argv)}")
            reference[spec.key] = entry
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
