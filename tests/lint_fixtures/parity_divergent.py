"""Dual-path parity violation: PAR001 must fire here.

``SkewedController.tick`` and ``tick_reference`` are supposed to be the
same behaviour at two speeds, but the fast path bumps a counter the
reference never touches.
"""


class SkewedController:
    def __init__(self, stats):
        self.stats = stats
        self.depth = 0

    def tick(self, now):
        self.stats.bump("issued")
        self.stats.bump("fast_only_counter")  # reference path never bumps this

    def tick_reference(self, now):
        self.stats.bump("issued")
