"""Determinism violations: every DET rule must fire on this module."""

import os
import random
import time


class LeakyBlock:
    def __init__(self):
        self.lines = {1, 2, 3}
        self.stamp = 0.0

    def tick(self, now):
        self.stamp = time.time()  # DET001
        jitter = time.perf_counter()  # DET001
        pick = random.random()  # DET002
        other = random.randint(0, 7)  # DET002
        token = os.urandom(4)  # DET003
        for line in self.lines:  # DET004 (attribute bound to a set literal)
            pick += line
        for line in set((1, 2)):  # DET004 (set constructor)
            other += line
        for line in sorted(self.lines):  # ok: sorted iteration
            jitter += line
        seeded = random.Random(42)  # ok: explicitly seeded instance
        waived = time.monotonic()  # lint: waive=DET001
        return pick, other, token, seeded.random(), waived


def walk_sets(pending):
    flat = [x for s in pending for x in {s}]  # DET004 (set comprehension iter)
    return flat


def bare_clock():
    from time import perf_counter as clock

    return clock()  # DET001 (a name bound by from-import, aliased)
