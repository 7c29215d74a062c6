"""Jet kernel microbenchmarks: `Jet.__mul__` and `Jet.d` per call, in µs.

    python3 perfbench/kernels.py SEED

Operands are dense jets built through the public API.  One call of each
kernel runs before timing, so product and derivative tables are warm.
Prints {"jets.mul_us.d4o3": ..., ...} as JSON: the median of five repeats.
"""

import json
import statistics
import sys
from time import perf_counter

import numpy as np

from spraylab import jets

MUL_SIZES = ((4, 3), (6, 4), (8, 4), (8, 5))
D_SIZES = ((8, 4),)
REPEATS = 5
REPEAT_SECONDS = 0.03


def dense_jet(rng, dim: int, order: int):
    """exp of a random linear form: every coefficient up to `order` is set."""
    xs = jets.lift_point(rng.uniform(-0.5, 0.5, dim), order)
    acc = xs[0] * float(rng.normal())
    for x in xs[1:]:
        acc = acc + x * float(rng.normal())
    return acc.exp()


def per_call_us(fn) -> float:
    fn()                                  # warm the tables
    reps = 1
    while True:                           # calibrate the loop length
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        if perf_counter() - t0 >= REPEAT_SECONDS:
            break
        reps *= 2
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        times.append((perf_counter() - t0) / reps)
    return statistics.median(times) * 1e6


def main(argv) -> int:
    rng = np.random.default_rng(int(argv[0]))
    out = {}
    for dim, order in MUL_SIZES:
        a, b = dense_jet(rng, dim, order), dense_jet(rng, dim, order)
        out[f"jets.mul_us.d{dim}o{order}"] = per_call_us(lambda: a * b)
    for dim, order in D_SIZES:
        a = dense_jet(rng, dim, order)
        out[f"jets.d_us.d{dim}o{order}"] = per_call_us(lambda: a.d(dim - 1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
