"""Stat-key fixtures for REG002/REG003."""


class KeyedBlock:
    # lint: stat-prefixes(shape_)
    def __init__(self, stats, shape):
        self.stats = stats
        self.shape = shape

    def record(self, hit, name):
        self.stats.bump("observations")
        self.stats.bump("hits" if hit else "misses")
        self.stats.bump(f"shape_{self.shape}")
        key = "dyn_" + name
        self.stats.bump(key)  # REG002: opaque dynamic key, no waiver

    def batched(self, name):
        values = self.stats.raw()
        values["dyn_" + name] += 1  # lint: stats-dynamic

    def summarize(self):
        seen = self.stats["observations"]
        oops = self.stats["observaitons"]  # REG003: typo'd read, never written
        return seen, oops
