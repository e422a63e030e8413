"""Fixture helpers: nondeterminism sources behind innocent wrappers.

The flow fixtures import these so the planted bugs only surface through
interprocedural, cross-module taint propagation — a purely syntactic
rule looking at the sink file sees nothing.  ``cyc_a``/``cyc_b`` form a
call cycle for the bounded-depth tests.
"""

import os
import time


def jitter():
    return time.time_ns() % 1000


def scale(x):
    return x * 0.5


def env_knob(name):
    return os.environ.get(name, "0")


def cyc_a(x, depth):
    if depth <= 0:
        return x
    return cyc_b(x, depth - 1)


def cyc_b(x, depth):
    return cyc_a(x, depth)


class Halver:
    """``step`` reaches its sibling only through ``self`` dispatch."""

    def step(self, x):
        return self._half(x)

    def _half(self, x):
        return scale(x)


class Pipeline:
    """``run`` reaches ``Halver.step`` only through an attribute whose
    type the constructor assignment in ``__init__`` fixes."""

    def __init__(self):
        self.stage = Halver()

    def run(self, x):
        return self.stage.step(x)
