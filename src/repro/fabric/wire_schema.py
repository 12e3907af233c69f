"""Wire-schema registry of the fabric JSON protocol.

GENERATED by ``tools/lint.py --write-registry`` — do not edit by hand.
CI regenerates this file and fails on any diff, so every change to a
message's field set lands as an explicit, reviewable line here — and
the PROTO002 lint rule refuses field-set changes that do not also bump
``repro.fabric.protocol.PROTOCOL_VERSION``.

``MESSAGE_KINDS`` maps each message kind to the sorted union of the
envelope fields its producers attach (beyond ``protocol``/``kind``).
``JOB_WIRE_FIELDS`` is the wire form of one job.
"""

from __future__ import annotations

WIRE_PROTOCOL_VERSION = 4

JOB_WIRE_FIELDS = (
    "benchmark",
    "config",
    "accesses",
    "seed",
    "threads",
    "scheduler",
    "fidelity",
)

MESSAGE_KINDS = {
    "complete_ack": (
        "accepted",
        "duplicates",
        "errors",
    ),
    "complete_report": (
        "items",
        "lease",
        "metrics",
        "spans",
        "worker",
    ),
    "heartbeat": (
        "lease",
        "worker",
    ),
    "heartbeat_ack": (
        "alive",
        "lease",
    ),
    "lease_grant": (
        "jobs",
        "lease",
        "lease_seconds",
        "trace",
    ),
    "lease_request": (
        "capacity",
        "worker",
    ),
    "sweep_accepted": (
        "deduped",
        "queued",
        "sweep",
        "total",
    ),
    "sweep_request": (
        "jobs",
        "priority",
        "trace",
    ),
}
