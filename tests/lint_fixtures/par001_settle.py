"""Settled-integral parity: PAR001 must fire on ``ForgetfulSettle``.

Both classes keep their occupancy integrals the event path's way:
``tick`` writes none, the queue mutations keep accumulators, and
``settle_integrals`` writes the integrals from the clock.
``ForgetfulSettle.settle_integrals`` forgets ``occ_write`` — an
integral ``tick_reference`` bumps every cycle — so PAR001 reports it.
``FullSettle`` settles every integral and stays clean.
"""


class ForgetfulSettle:
    def __init__(self, stats):
        self.stats = stats
        self.reads = []
        self.writes = []
        self.read_acc = 0
        self.write_acc = 0

    def tick(self, now):
        self.stats.bump("issued")

    def tick_reference(self, now):
        self.stats.bump("issued")
        self.stats.bump("ticks")
        self.stats.bump("occ_read", len(self.reads))
        self.stats.bump("occ_write", len(self.writes))

    def settle_integrals(self, clock):
        values = self.stats.raw()
        values["ticks"] = float(clock)
        values["occ_read"] = float(self.read_acc + len(self.reads) * clock)
        # forgets occ_write


class FullSettle:
    def __init__(self, stats):
        self.stats = stats
        self.reads = []
        self.read_acc = 0

    def tick(self, now):
        self.stats.bump("issued")

    def tick_reference(self, now):
        self.stats.bump("issued")
        self.stats.bump("ticks")
        self.stats.bump("occ_read", len(self.reads))

    def settle_integrals(self, clock):
        self._settle_reads(clock)
        self.stats.set("ticks", float(clock))

    def _settle_reads(self, clock):
        # one self-call level deep still counts for the settle method
        self.stats.set("occ_read", float(self.read_acc + len(self.reads) * clock))
