"""Fast-forward parity violation: PAR003 must fire here.

``SkippyController.bulk_tick`` is supposed to cover idle cycles
exactly, but it forgets the ``occ_read`` occupancy integral the
per-cycle path accumulates.  The ``issued_reads`` work counter is
deliberately tick-only on *both* classes — work counters are not
integrals, so PAR003 must not mention it.  ``CoveringController``
keeps the integrals in sync and stays clean.
"""


class SkippyController:
    def __init__(self, stats):
        self.stats = stats

    def tick(self, now):
        self.stats.bump("ticks")
        self.stats.bump("occ_read")
        self.stats.bump("issued_reads")  # work counter: legitimately tick-only

    def bulk_tick(self, start, cycles):
        self.stats.bump("ticks")  # forgets occ_read


class CoveringController:
    def __init__(self, stats):
        self.stats = stats

    def tick(self, now):
        self.stats.bump("ticks")
        self.stats.bump("occ_read")
        self.stats.bump("issued_reads")  # work counter: legitimately tick-only

    def bulk_tick(self, start, cycles):
        self.stats.bump("ticks")
        self.stats.bump("occ_read")
