"""Reference kernel that measures how fast the machine runs Python right now.

On a shared machine the speed of the same CPU-bound Python code drifts by
20-40% within seconds to minutes as neighbours come and go: on a 2-CPU Xeon
virtual machine one operation of 0.3 s took 0.28-0.60 s within a minute,
and a 30 ms kernel run 27-69 ms. Each benchmark operation runs the kernel in its
own interpreter just before and just after cli.main, and the benchmark
divides the operation's time by the mean of the two kernel times, which
cancels most of that drift.

The kernel is exact rational LDL^T work of the kind cmsvp does, on a fixed
matrix, and calls nothing in cmsvp, so no change to the program moves it.
"""

from __future__ import annotations

import time
from fractions import Fraction

N = 10
ROUNDS = 48


def _work() -> Fraction:
    g = [[Fraction((i * 7 + j * 3) % 11 + (20 if i == j else 0)) for j in range(N)] for i in range(N)]
    total = Fraction(0)
    for _ in range(ROUNDS):
        low = [[Fraction(0)] * N for _ in range(N)]
        diag = [Fraction(0)] * N
        for i in range(N):
            for j in range(i):
                s = g[i][j]
                for t in range(j):
                    s -= low[i][t] * low[j][t] * diag[t]
                low[i][j] = s / diag[j]
            s = g[i][i]
            for t in range(i):
                s -= low[i][t] * low[i][t] * diag[t]
            diag[i] = s
        total += diag[-1]
        g = [[g[i][j] + diag[(i + j) % N].numerator % 5 for j in range(N)] for i in range(N)]
    return total


def measure() -> tuple[float, float]:
    """(wall seconds, CPU seconds) of one kernel run."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    _work()
    return time.perf_counter() - wall0, time.process_time() - cpu0
