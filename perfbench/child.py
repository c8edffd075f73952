"""One benchmark operation in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/child.py TRACE ARGV...

Imports cmsvp.cli, then runs cli.main(ARGV + ["--json"]) with its standard
output captured, between two runs of the reference kernel (kernel.py). It
prints one JSON line: the exit code, the captured output, the time `import
cmsvp.cli` returned (time.perf_counter, which every process on the machine
reads from the same clock), the wall and CPU seconds of cli.main and the
mean of the two kernel runs, the peak RSS, and with TRACE = 1 the span
summary.
"""

import sys
import time

import cmsvp.cli as cli

IMPORTED_AT = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import kernel  # noqa: E402


def main() -> None:
    before = kernel.measure()
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:] + ["--json"]
    entry = cli.main
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            rc = entry(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        wall1, cpu1 = time.perf_counter(), time.process_time()
    after = kernel.measure()
    report = {
        "rc": rc,
        "stdout": out.getvalue(),
        "imported_at": IMPORTED_AT,
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "kernel_wall_s": (before[0] + after[0]) / 2,
        "kernel_cpu_s": (before[1] + after[1]) / 2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
