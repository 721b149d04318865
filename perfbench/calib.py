"""A fixed piece of pure-Python work that gauges the machine's speed.

The shared virtual machine the benchmark was built on runs the same code
anywhere from 1x to 1.8x its fastest time, in stretches that last from
under a second to minutes (see README.md, "Why job times are scaled").
A job's wall time is therefore scaled by how long this calibration took
right before and right after the job: both slow down together when another
tenant takes the core, and their ratio does not.

The work mimics what ainfty spends its time on: a sparse product of
tuple-keyed dictionaries with exact coefficients, once over the rationals
(``Fraction``) and once modulo 5.  It uses the standard library only, so
that no change to the program can change it.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction

# The speed all scaled times refer to: the calibration takes REF_S seconds.
# On a 2.0 GHz Xeon VM with Python 3.11 it takes 0.75 ms at the fastest
# when run alone, and mostly 1.2 to 1.8 ms between jobs.
REF_S = 0.001

_KEYS = [(i % 3, (i * 7) % 5, (i * 11) % 4) for i in range(16)]
_Q_TABLE = {k: {j: Fraction((i * j) % 7 - 3, j + 1) for j in range(4)}
            for i, k in enumerate(_KEYS)}
_P_TABLE = {k: {j: (i * j + 1) % 5 for j in range(4)}
            for i, k in enumerate(_KEYS)}


def _product(table, add, mul):
    out = {}
    for k1, v1 in table.items():
        for k2, v2 in table.items():
            if k1[2] != k2[0] % 4:
                continue
            key = (k1[0], k2[1])
            vec = out.setdefault(key, {})
            for j, c in v1.items():
                d = v2.get((j + 1) % 4)
                if d:
                    vec[j] = add(vec.get(j, 0), mul(c, d))
    return out


def _work():
    _product(_Q_TABLE, lambda a, b: a + b, lambda a, b: a * b)
    _product(_P_TABLE, lambda a, b: (a + b) % 5, lambda a, b: a * b % 5)


def calibrate() -> float:
    """Wall time of one run of the fixed work, in seconds.  The cyclic
    garbage collector is held off, so that a collection of the program's
    garbage does not fall into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """`seconds` of wall time at the reference speed, given the
    calibrations made right before and right after."""
    return seconds * REF_S / ((cal_before + cal_after) / 2)
