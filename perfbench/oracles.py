"""Output oracles: every run checks what the program returned.

Each check returns a list of failure strings (empty when the output is
right), so one operation can fail several ways and the episode loop can
count it once.  The checks take plain values — bytes, dicts, arrays and
the duck-typed download reports — so tests can feed them tampered
outputs directly.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "check_bytes",
    "check_robust",
    "check_repair",
    "check_feasible",
    "Fingerprint",
]


def check_bytes(label: str, got: bytes, expect: bytes) -> list[str]:
    """The read returned exactly the latest published version."""
    if got == expect:
        return []
    if len(got) != len(expect):
        return [f"{label}: {len(got)} bytes returned, {len(expect)} published"]
    first = next(i for i, (a, b) in enumerate(zip(got, expect)) if a != b)
    return [f"{label}: bytes differ from the published version at offset {first}"]


def check_robust(label: str, reports, polluter: int, refuser: int) -> list[str]:
    """Every chunk completed, the polluter's bytes were discarded before
    the decoder (its failure entry carries ``bytes_discarded``), and the
    refusing peer was classified ``refused`` for every chunk after its
    handshake retries ran out."""
    errors = [
        f"{label}: chunk {i} incomplete" for i, r in enumerate(reports) if not r.complete
    ]
    discarded = sum(
        f.bytes_discarded for r in reports for f in r.failures if f.peer == polluter
    )
    if discarded <= 0:
        errors.append(f"{label}: polluting peer {polluter} has no discarded bytes")
    unrefused = [
        i
        for i, r in enumerate(reports)
        if not any(f.peer == refuser and f.kind == "refused" for f in r.failures)
    ]
    if unrefused:
        errors.append(f"{label}: refusing peer {refuser} not refused on chunk(s) {unrefused}")
    return errors


def check_repair(label: str, k: int, restored, owner_before, owner_after) -> list[str]:
    """Survivor repair restored ``k`` messages of every chunk the target
    lost, and the owner shipped no payload: its upload count, re-seed
    rounds and held messages are unchanged.  The repair summary's own
    ``owner_payload_bytes`` is a constant, so it is not used as evidence.
    """
    errors = []
    short = {i: c for i, c in enumerate(restored) if c != k}
    if short:
        errors.append(f"{label}: target holds {short} messages per chunk, {k} expected")
    if owner_after != owner_before:
        errors.append(f"{label}: owner state changed from {owner_before} to {owner_after}")
    return errors


def check_feasible(label: str, given, capacity) -> list[str]:
    """Eq. 2 feasibility: what peers hand out never exceeds their capacity.

    ``given`` and ``capacity`` are per-peer (outgoing rate sums against
    capacities) or aggregate totals; both sides are sums of the same
    slots, so a relative slack of 1e-9 covers float summation order.
    """
    given = np.atleast_1d(np.asarray(given, dtype=float))
    capacity = np.atleast_1d(np.asarray(capacity, dtype=float))
    over = given > capacity * (1 + 1e-9) + 1e-9
    if not over.any():
        return []
    worst = int(np.argmax(given - capacity))
    return [
        f"{label}: {int(over.sum())} peer(s) over capacity "
        f"(peer {worst}: {given[worst]:.6g} > {capacity[worst]:.6g})"
    ]


class Fingerprint:
    """Digest of simulated statistics that must repeat for one seed."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values) -> None:
        for v in values:
            if isinstance(v, np.ndarray):
                self._h.update(np.ascontiguousarray(v).tobytes())
            else:
                self._h.update(repr(v).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]
