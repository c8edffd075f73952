"""Benchmark of the cmsvp command-line interface.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; the program is src/cmsvp. One client
runs the workload's operations one after another in a closed loop. Each
operation runs in a fresh interpreter (perfbench/child.py), which imports
cmsvp.cli and times cli.main(argv + ["--json"]), so every operation pays its
own start-up and no cache survives from one operation to the next. A pass
runs every operation of the workload once; passes repeat until the next one
would end after --seconds (the first always runs). Every output is checked
against perfbench/reference.json (see refcheck.py).

The interpreter of each operation gets an address-space cap and a timeout;
a breach, a wrong exit code or a failed reference check makes the operation
fail.

--trace 0 prints the end-to-end metrics. Each operation's interpreter runs
a fixed reference kernel (kernel.py) just before and just after cli.main;
wall_rel and cpu_rel sum, over the operations of the workload, the wall or
CPU time of cli.main divided by the mean of the two kernel times in the
same interpreter, so that the drift of a shared machine's speed cancels.
Each operation contributes its median over the passes; an operation whose
input differs between passes (a rotated skew weight vector) contributes
the mean over its inputs of those medians, so every input counts once
whatever the seed. setup_s is the number of operations times the median
set-up time (interpreter start until `import cmsvp.cli` returns) of all
operations of the run. peak_rss_mb is the largest peak RSS of any
operation, and ops_ok_frac the share of operations that succeeded.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced passes (spans.py), the summed wall and CPU seconds
and the seconds per CLI command of the untraced passes, the median kernel
time, and the tracing overhead: the traced passes' wall_rel over the
untraced passes' wall_rel, minus 1.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refcheck import compare, rotate_reference
from workloads import WORKLOADS, Op, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

OP_TIMEOUT_S = 60
RUN_LIMIT_S = 170
ADDRESS_SPACE_CAP = 2 << 30

COMMANDS = ("bound", "minima", "theta", "psi", "set-e", "verify-craig")

# Per-layer metrics read from one traced pass; see spans.py.
FUNCTION_CALLS = {
    "interval.det_interval.calls": "interval.det_interval",
    "interval.solve_cramer.calls": "interval.solve_cramer",
    "embeddings.sigma.calls": "embeddings.sigma",
    "field.field_norm.calls": "field.field_norm",
    "field.exact_divide.calls": "field.exact_divide",
    "lattice.lll_reduce.calls": "lattice.lll_reduce",
    "lattice.enumerate_short.calls": "lattice.enumerate_short",
    "bound.simplices": "bound.simplex_data",
}
FUNCTION_SELF = {
    "interval.det_interval.self_s": "interval.det_interval",
    "lattice.lll_reduce.self_s": "lattice.lll_reduce",
    "lattice.enumerate_short.self_s": "lattice.enumerate_short",
}
LAYER_SELF = ("cli", "interval", "field", "embeddings", "units", "bound", "lattice", "svp", "theta")


class OpResult:
    __slots__ = ("op", "ok", "wall_s", "cpu_s", "kernel_wall_s", "kernel_cpu_s", "setup_s", "peak_rss_mb",
                 "bytes_same", "trace")

    def __init__(self, op: Op):
        self.op = op
        self.ok = False
        self.wall_s = self.cpu_s = self.peak_rss_mb = 0.0
        self.kernel_wall_s = self.kernel_cpu_s = None
        self.setup_s = None
        self.bytes_same = False
        self.trace = None


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def execute(argv: list[str], trace: bool, timeout: float) -> tuple[dict | None, float, str]:
    """Run one operation in a capped child: (report or None, spawn time, error)."""
    cmd = [sys.executable, str(HERE / "child.py"), "1" if trace else "0", *argv]
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=_limit_child,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, spawned, f"timed out after {timeout:.0f} s"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return None, spawned, f"child exited {proc.returncode}: {tail[0]}"
    return json.loads(lines[-1]), spawned, ""


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def run_op(op: Op, reference: dict, trace: bool, deadline: float) -> OpResult:
    res = OpResult(op)
    timeout = min(OP_TIMEOUT_S, deadline - time.perf_counter())
    if timeout <= 0:
        print(f"FAIL {' '.join(op.argv)}: run time limit reached", file=sys.stderr)
        return res
    report, spawned, error = execute(op.argv, trace, timeout)
    if report is None:
        print(f"FAIL {' '.join(op.argv)}: {error}", file=sys.stderr)
        return res
    res.wall_s, res.cpu_s = report["wall_s"], report["cpu_s"]
    res.kernel_wall_s, res.kernel_cpu_s = report["kernel_wall_s"], report["kernel_cpu_s"]
    res.setup_s = report["imported_at"] - spawned
    res.peak_rss_mb = report["peak_rss_mb"]
    res.trace = report.get("trace")
    ref = reference[op.spec.key]
    expected = {"rc": ref["rc"], "json": rotate_reference(ref["json"], op.spec.p, op.spec.weights, op.rotation)}
    stdout = report["stdout"]
    res.bytes_same = hashlib.sha256(stdout.encode()).hexdigest() == ref["sha256"][op.rotation]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        payload = None
    errors = compare(expected, report["rc"], payload)
    for e in errors[:5]:
        print(f"FAIL {' '.join(op.argv)}: {e}", file=sys.stderr)
    res.ok = not errors
    return res


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def op_stat(passes: list[list[OpResult]], value) -> list[float]:
    """For each operation, the mean over its distinct inputs (the rotations
    the passes ran) of the median of `value` over the passes that ran that
    input. Operations without a measurement count 0."""
    out = []
    for j in range(len(passes[0])):
        by_input: dict[int, list[float]] = {}
        for p in passes:
            if p[j].kernel_wall_s is not None:
                by_input.setdefault(p[j].op.rotation, []).append(value(p[j]))
        out.append(statistics.mean(statistics.median(v) for v in by_input.values()) if by_input else 0.0)
    return out


def command_seconds(passes: list[list[OpResult]]) -> dict[str, float]:
    """Summed wall time of the operations of each CLI command."""
    out = dict.fromkeys(COMMANDS, 0.0)
    for r, wall in zip(passes[0], op_stat(passes, lambda r: r.wall_s)):
        out[r.op.command] += wall
    return out


def layer_metrics(results: list[OpResult]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layers: dict[str, float] = {}
    totals = dict.fromkeys(
        ("leaf_calls", "leaf_s", "nodes", "vectors_listed", "search_listed", "search_accepted", "lll_repeats"), 0
    )
    bits_max = 0
    outside = wall = 0.0
    for r in results:
        wall += r.wall_s
        t = r.trace
        if t is None:
            continue
        outside += r.wall_s - t["top_s"]
        for name, (n, s) in t["functions"].items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + s
        for layer, s in t["layers"].items():
            layers[layer] = layers.get(layer, 0.0) + s
        for key in totals:
            totals[key] += t[key]
        bits_max = max(bits_max, t["endpoint_bits_max"])
    m: dict[str, float] = {f"{layer}.self_s": layers.get(layer, 0.0) for layer in LAYER_SELF}
    m.update({metric: calls.get(fn, 0) for metric, fn in FUNCTION_CALLS.items()})
    m.update({metric: self_s.get(fn, 0.0) for metric, fn in FUNCTION_SELF.items()})
    m["interval.endpoint_bits_max"] = bits_max
    m["interval.leaf.calls"] = totals["leaf_calls"]
    m["interval.leaf.self_s"] = totals["leaf_s"]
    m["lattice.lll_repeat_frac"] = _ratio(totals["lll_repeats"], m["lattice.lll_reduce.calls"])
    m["lattice.nodes"] = totals["nodes"]
    m["lattice.nodes_per_s"] = _ratio(totals["nodes"], m["lattice.enumerate_short.self_s"])
    m["lattice.vectors_listed"] = totals["vectors_listed"]
    m["svp.accept_frac"] = _ratio(totals["search_accepted"], totals["search_listed"])
    m["cli.json_bytes_same"] = sum(r.bytes_same for r in results)
    m["trace.wall_s"] = wall
    m["trace.outside_s"] = outside
    return m


UNITS = {
    "peak_rss_mb": "MB",
    "calls": "count",
    "simplices": "count",
    "nodes": "count",
    "vectors_listed": "count",
    "json_bytes_same": "count",
    "endpoint_bits_max": "bits",
    "nodes_per_s": "1/s",
}


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in UNITS:
        return UNITS[last]
    if last.endswith(("_frac", "_rel")):
        return "ratio"
    return "s"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="cmsvp CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cmsvp" / "cli.py").is_file():
        print(f"error: no cmsvp sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    reference = load_reference()
    # Compile byte code once, as an installed package has it, so the first
    # operation's set-up time is not inflated.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "cmsvp")], check=True)

    start = time.perf_counter()
    measure_end = start + args.seconds
    deadline = start + RUN_LIMIT_S
    plain: list[list[OpResult]] = []
    traced: list[list[OpResult]] = []
    while True:
        t0 = time.perf_counter()
        ops = build(args.workload, args.seed, len(plain))
        plain.append([run_op(op, reference, False, deadline) for op in ops])
        if args.trace:
            traced.append([run_op(op, reference, True, deadline) for op in ops])
        now = time.perf_counter()
        if now + (now - t0) > measure_end:
            break

    everything = [r for p in plain + traced for r in p]
    attempted = len(everything)
    failed = sum(not r.ok for r in everything)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)}")
    for i, p in enumerate(plain):
        rotations = "".join(f"  {r.op.command} rotation {r.op.rotation}" for r in p if r.op.spec.weights)
        print(f"pass {i} wall_s {sum(r.wall_s for r in p):.3f}{rotations}")
    print(f"ops_failed_frac {failed / attempted:.4f}  ({failed} of {attempted})")

    wall_s = sum(op_stat(plain, lambda r: r.wall_s))
    wall_rel = sum(op_stat(plain, lambda r: r.wall_s / r.kernel_wall_s))
    if args.trace:
        layer = [layer_metrics(p) for p in traced]
        values = {
            "run.wall_s": wall_s,
            "run.cpu_s": sum(op_stat(plain, lambda r: r.cpu_s)),
            "run.kernel_s": _median(r.kernel_wall_s for r in everything if r.kernel_wall_s is not None),
        }
        values.update({f"cli.{c.replace('-', '_')}_s": s for c, s in command_seconds(plain).items()})
        values.update({name: statistics.median(x[name] for x in layer) for name in layer[0]})
        traced_rel = sum(op_stat(traced, lambda r: r.wall_s / r.kernel_wall_s))
        values["trace.overhead_frac"] = _ratio(traced_rel, wall_rel) - 1
    else:
        values = {
            "wall_rel": wall_rel,
            "cpu_rel": sum(op_stat(plain, lambda r: r.cpu_s / r.kernel_cpu_s)),
            "setup_s": len(plain[0]) * _median(r.setup_s for r in everything if r.setup_s is not None),
            "peak_rss_mb": max(r.peak_rss_mb for r in everything),
            "ops_ok_frac": (attempted - failed) / attempted,
        }
    for name, value in values.items():
        print(f"  {name:34s} {value:.6g}")
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
