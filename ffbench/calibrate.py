"""Fixed host-speed probe, run in a fresh interpreter between invocations.

Usage: python3 ffbench/calibrate.py

It does the same kind of work as an ffzeta invocation but none of
ffzeta's code, so no change to the program moves it: start an interpreter and
import numpy (the start-up part), then dense polynomial products over a small
prime field through method calls on a field object, with a few small numpy
array operations (the kernel part).  It prints the kernel's time in seconds;
the benchmark times the whole script from spawn to exit, and takes the rest
as the start-up time.  See ``run.py`` for how the two scale the benchmark's
times.
"""

from __future__ import annotations

import time

import numpy as np

P = 3
ROUNDS = 800
DEGREE = 40


class Field:
    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.add_table = [[(a + b) % p for b in range(p)] for a in range(p)]
        self.mul_table = [[a * b % p for b in range(p)] for a in range(p)]

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]


def mul(F: Field, a: list, b: list) -> list:
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == F.zero:
            continue
        for j, cb in enumerate(b):
            if cb != F.zero:
                out[i + j] = F.add(out[i + j], F.mul(ca, cb))
    while out and out[-1] == F.zero:
        out.pop()
    return out


def kernel() -> int:
    F = Field(P)
    state = 12345
    seen = {}
    arr = np.arange(4096, dtype=np.int64)
    for r in range(ROUNDS):
        a, b = [], []
        for _ in range(DEGREE + 1):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            a.append(state % P)
            b.append((state >> 9) % P)
        key = tuple(mul(F, a, b))
        seen[key] = seen.get(key, 0) + r
        arr = (arr * 7 + len(key)) % 65521
    return len(seen) + int(arr.sum())


def main() -> int:
    t0 = time.monotonic()
    kernel()
    print(time.monotonic() - t0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
