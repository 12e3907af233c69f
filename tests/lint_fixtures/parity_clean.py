"""Dual-path pair that the parity rules must accept.

Exercises the equivalences the rules are expected to see through:

* ``bump`` on one path vs a batched ``raw()`` add on the other;
* a counter bumped directly on one path but via a shared ``self._note``
  helper on the other (one-level self-call expansion).
"""


class BalancedController:
    def __init__(self, stats):
        self.stats = stats
        self._stat_values = self.stats.raw()

    def _note(self, now):
        self.stats.bump("noted")

    def tick(self, now):
        values = self._stat_values
        values["issued"] += 1
        self._note(now)

    def tick_reference(self, now):
        self.stats.bump("issued")
        self.stats.bump("noted")
