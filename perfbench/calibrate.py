"""Host-speed calibration: a fixed pure-Python loop timed next to each operation.

On a shared virtual machine the effective CPU speed can change by half for
tens of seconds at a time, which moves every wall time of a run together.
The loop below uses none of tlemma's code, so its time tracks only the host:
``run.py`` times it before every operation and scales the operation's wall
time by ``K_REF_S / loop time`` (the local median over five neighbouring
operations).  A change to tlemma moves the operation times and not the loop,
so it shows in full in the scaled figures.  Raw wall times stay in the report.

The loop mixes the kinds of work tlemma does: scanning clause lists against a
bytearray of values (propagation), exact rational arithmetic in dicts
(Fourier-Motzkin rows), and hashing small frozensets (oracle memo keys).
"""

from __future__ import annotations

import time
from fractions import Fraction

# The loop's time on a 2-vCPU Xeon (Sapphire Rapids) KVM guest at its faster
# speed, Python 3.11; scaled times read as seconds on that host.
K_REF_S = 0.010

_CLAUSES = [[(i * 7 + j * 13) % 128 for j in range(3)] for i in range(200)]


def loop_seconds() -> float:
    start = time.perf_counter()
    values = bytearray(64)
    hits = 0
    for _ in range(60):
        for clause in _CLAUSES:
            for lit in clause:
                if values[lit >> 1] ^ (lit & 1):
                    hits += 1
                    break
            values[clause[0] >> 1] ^= 1
    row = {f"x{i}": Fraction(i + 1, 3) for i in range(8)}
    for r in range(60):
        k = Fraction(r % 7 + 1, r % 5 + 2)
        row = {name: c * k - Fraction(1, r + 2) for name, c in row.items()}
    memo = {}
    for i in range(1500):
        key = frozenset((i % 17, (i * 3) % 11, i % 5))
        memo[key] = memo.get(key, 0) + hits
    return time.perf_counter() - start
