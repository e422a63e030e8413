"""Parallel download orchestration: fill the download pipe from many peers.

The user "would typically contact multiple peers and request encoded
messages comprising the desired (encoded) file" and stop everyone once
``k`` useful messages arrived.  :class:`ParallelDownloader` drives a set
of authenticated serving sessions through one slot loop: each slot a
rate function says how many kbps every peer granted this user (in the
full stack this is the Equation (2) allocation), bytes flow, completed
messages reach the progressive decoder once their in-flight delay has
elapsed, and a stop transmission goes out the moment decoding
completes.

The loop's behaviour is set only by the objects it is given:

* a :class:`~repro.transfer.latency.LatencyModel` adds handshake delay,
  in-flight delay and stop lag; without one every delay is zero slots,
  so messages land in the slot they were served and the stop is heard
  at once;
* a :class:`RobustPolicy` treats peers as *untrusted and unreliable*
  (the paper's actual threat model): every received message is
  digest-verified before it may reach the decoder, a peer is
  quarantined on its first failed digest and its slot budget re-scaled
  across the healthy peers, silent peers trip a stall timeout, crashed
  connections are survived, and the report names every faulty peer
  with a failure taxonomy (crashed / stalled / polluted / refused) plus
  the bytes their misbehaviour cost.  Without a policy nothing is
  verified or re-scaled and a crash propagates;
* a repair trigger is consulted every slot in every configuration.

:meth:`ParallelDownloader.run` steps the loop to completion;
:meth:`~ParallelDownloader.step` lets an outside driver advance several
downloads over one shared timeline.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from ..obs import REGISTRY as _OBS
from ..obs import TRACER as _TRACER
from ..obs import spans as _spans
from ..obs.events import (
    TRANSFER_COMPLETE,
    TRANSFER_DISCARD,
    TRANSFER_FAULT,
    TRANSFER_MESSAGE,
    TRANSFER_START,
    TRANSFER_STOP,
)
from ..rlnc.decoder import ProgressiveDecoder
from ..security.integrity import DigestStore
from .latency import LatencyModel
from .protocol import SessionCrashed, StopTransmission
from .session import ServingSession

__all__ = [
    "ParallelDownloader",
    "DownloadReport",
    "PeerFailure",
    "RobustPolicy",
    "kbps_to_bytes",
]

_XFER_BYTES = _OBS.counter(
    "repro.transfer.bytes_received", "payload bytes granted across all peers"
)
_XFER_WASTED = _OBS.counter(
    "repro.transfer.wasted_bytes",
    "bytes transmitted after decode completion, before the stop arrived",
)
_XFER_MESSAGES = _OBS.counter(
    "repro.transfer.messages", "completed messages offered to the decoder"
)
_XFER_STOP_LAG = _OBS.histogram(
    "repro.transfer.stop_latency_slots",
    "slots between decode completion and a peer honouring the stop",
)
_XFER_DISCARDED = _OBS.counter(
    "repro.transfer.discarded_bytes",
    "bytes of received messages discarded by digest verification",
)
_XFER_POLLUTED = _OBS.counter(
    "repro.transfer.polluted_messages",
    "received messages that failed digest verification (never offered)",
)
_FAULT_COUNTERS = {
    kind: _OBS.counter(
        f"repro.transfer.peers_{kind}",
        f"peers classified as {kind} by the robust download path",
    )
    for kind in ("crashed", "stalled", "polluted", "refused")
}


def kbps_to_bytes(kbps: float, seconds: float = 1.0) -> float:
    """Bytes carried by a ``kbps`` stream over ``seconds`` (1 kb = 1000 b)."""
    return kbps * 1000.0 / 8.0 * seconds


@dataclass(frozen=True)
class PeerFailure:
    """One faulty peer's entry in the download's failure taxonomy.

    ``kind`` is one of ``crashed`` (connection died mid-stream),
    ``stalled`` (granted budget but silent past the stall timeout),
    ``polluted`` (messages failed digest verification; quarantined) or
    ``refused`` (handshake never completed despite retries).
    ``bytes_discarded`` is what the misbehaviour cost: digest-rejected
    wire bytes plus budget wasted on a silent peer.
    """

    peer: int
    kind: str
    slot: int
    bytes_discarded: float = 0.0
    messages_discarded: int = 0
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "peer": self.peer,
            "kind": self.kind,
            "slot": self.slot,
            "bytes_discarded": self.bytes_discarded,
            "messages_discarded": self.messages_discarded,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class RobustPolicy:
    """Failure handling for untrusted peers.

    Two rules are fixed, as the paper's stance: a peer is quarantined on
    its first failed digest (one provably bogus message is proof
    enough), and quarantined peers' slot budget is always re-scaled
    across the remaining healthy peers so the download degrades instead
    of slowing by the faulty peers' share.

    Parameters
    ----------
    digest_store:
        The user's carried digest slice (Section III-C).  When set,
        every received message is verified *before* it may reach the
        decoder; failures are discarded and counted.  ``None`` disables
        pollution filtering (crash/stall/refusal handling still works).
    stall_timeout_slots:
        Quarantine a peer after this many consecutive slots in which it
        was granted budget but completed no message.  Must exceed the
        worst-case slots-per-message at the granted rate, or slow honest
        peers will be misclassified.
    max_handshake_attempts / backoff_slots:
        Bounded retry for failed handshakes (used by
        :meth:`~repro.transfer.session.DownloadSession.handshake_with_retry`).
    """

    digest_store: DigestStore | None = None
    stall_timeout_slots: int = 12
    max_handshake_attempts: int = 3
    backoff_slots: int = 1

    def __post_init__(self):
        if self.stall_timeout_slots < 1:
            raise ValueError(
                f"stall_timeout_slots must be >= 1, got {self.stall_timeout_slots}"
            )
        if self.max_handshake_attempts < 1:
            raise ValueError(
                f"max_handshake_attempts must be >= 1, got {self.max_handshake_attempts}"
            )
        if self.backoff_slots < 0:
            raise ValueError(
                f"backoff_slots cannot be negative: {self.backoff_slots}"
            )


@dataclass(frozen=True)
class DownloadReport:
    """Outcome of one parallel download.

    ``wasted_bytes`` counts bytes peers transmitted after decoding
    completed but before the stop transmission reached them (nonzero
    only under a latency model); ``first_data_slot`` is when the first
    payload byte arrived (after handshakes; ``None`` if none did).
    ``failures`` is the per-peer failure taxonomy collected under a
    :class:`RobustPolicy` (empty without one, or when every peer
    behaved).
    """

    complete: bool
    slots: int
    bytes_received: float
    messages_delivered: int
    messages_rejected: int
    messages_dependent: int
    per_peer_bytes: tuple[float, ...]
    wasted_bytes: float = 0.0
    first_data_slot: int | None = None
    slot_seconds: float = 1.0
    failures: tuple[PeerFailure, ...] = ()

    @property
    def seconds(self) -> float:
        """Wall-clock duration: slots scaled by the slot length."""
        return self.slots * self.slot_seconds

    @property
    def bytes_discarded(self) -> float:
        """Total bytes lost to faulty peers, across the taxonomy."""
        return sum(f.bytes_discarded for f in self.failures)

    @property
    def failed_peers(self) -> tuple[int, ...]:
        return tuple(f.peer for f in self.failures)

    def failure_of(self, peer: int) -> PeerFailure | None:
        for f in self.failures:
            if f.peer == peer:
                return f
        return None

    def effective_rate_kbps(self, slot_seconds: float | None = None) -> float:
        """Average goodput over the whole download.

        ``slot_seconds`` defaults to the report's own slot length (the
        explicit parameter is kept for callers that re-scale).
        """
        if self.slots == 0:
            return 0.0
        seconds = self.slots * (
            self.slot_seconds if slot_seconds is None else slot_seconds
        )
        return self.bytes_received * 8.0 / 1000.0 / seconds

    def to_dict(self) -> dict:
        """JSON-ready form, failure taxonomy included."""
        return {
            "complete": self.complete,
            "slots": self.slots,
            "seconds": self.seconds,
            "slot_seconds": self.slot_seconds,
            "bytes_received": self.bytes_received,
            "messages_delivered": self.messages_delivered,
            "messages_rejected": self.messages_rejected,
            "messages_dependent": self.messages_dependent,
            "per_peer_bytes": list(self.per_peer_bytes),
            "wasted_bytes": self.wasted_bytes,
            "first_data_slot": self.first_data_slot,
            "bytes_discarded": self.bytes_discarded,
            "failures": [f.to_dict() for f in self.failures],
        }


class _RobustState:
    """Per-peer health book-keeping under a :class:`RobustPolicy`.

    Owns the failure taxonomy: who is dead (no further budget), why,
    and what their misbehaviour cost.
    """

    def __init__(
        self,
        n: int,
        policy: RobustPolicy,
        sessions: Sequence,
        peer_spans: list | None = None,
    ):
        self.policy = policy
        self.n = n
        self.dead = [False] * n
        self._peer_spans = peer_spans
        self._failed: dict[int, tuple[str, int, str]] = {}
        self._discard_bytes = [0.0] * n
        self._discard_msgs = [0] * n
        self._stall_run = [0] * n
        self._stall_bytes = [0.0] * n
        for i, session in enumerate(sessions):
            if not getattr(session, "authenticated", True):
                self._fail(
                    i, "refused", 0,
                    "authentication never completed (after bounded retries)",
                )

    def _fail(self, peer: int, kind: str, slot: int, detail: str) -> None:
        if peer in self._failed:
            return
        self._failed[peer] = (kind, slot, detail)
        self.dead[peer] = True
        if _OBS.enabled:
            _FAULT_COUNTERS[kind].inc()
        _TRACER.emit(TRANSFER_FAULT, peer=peer, kind=kind, slot=slot)
        if self._peer_spans is not None:
            # An instantaneous child span marking where the peer's
            # session turned bad — shows up on the causal tree even when
            # the flat event ring has wrapped.
            quarantine = _spans.start_span(
                "transfer.quarantine",
                parent=self._peer_spans[peer],
                kind=kind,
                slot=slot,
            )
            _spans.finish_span(quarantine, status=kind)

    def adjust_rates(self, rates: list[float], sessions: Sequence) -> list[float]:
        """Zero dead peers' shares; re-scale them across healthy peers."""
        out = list(rates)
        lost = 0.0
        for i in range(self.n):
            if self.dead[i]:
                lost += max(out[i], 0.0)
                out[i] = 0.0
        if lost > 0.0:
            healthy = [
                i
                for i in range(self.n)
                if not self.dead[i] and sessions[i].active and out[i] > 0
            ]
            healthy_total = sum(out[i] for i in healthy)
            if healthy_total > 0:
                scale = 1.0 + lost / healthy_total
                for i in healthy:
                    out[i] *= scale
        return out

    def verify(self, peer: int, message, slot: int) -> bool:
        """Digest-check one received message; quarantine on failure."""
        store = self.policy.digest_store
        if store is None:
            return True
        if store.verify(message.file_id, message.message_id, message.payload_bytes()):
            return True
        wire = message.wire_size()
        self._discard_msgs[peer] += 1
        self._discard_bytes[peer] += wire
        if _OBS.enabled:
            _XFER_POLLUTED.inc()
            _XFER_DISCARDED.inc(wire)
        _TRACER.emit(
            TRANSFER_DISCARD,
            slot=slot,
            peer=peer,
            message_id=int(message.message_id),
        )
        self._fail(
            peer, "polluted", slot, "quarantined after failed digest verification"
        )
        return False

    def note_served(self, peer: int, delivered: int, budget: float, slot: int) -> None:
        """Track silence for the stall timeout."""
        if self.dead[peer]:
            return
        if budget > 0 and delivered == 0:
            self._stall_run[peer] += 1
            self._stall_bytes[peer] += budget
            if self._stall_run[peer] >= self.policy.stall_timeout_slots:
                self._fail(
                    peer, "stalled", slot,
                    f"no data for {self._stall_run[peer]} consecutive slots",
                )
        else:
            self._stall_run[peer] = 0
            self._stall_bytes[peer] = 0.0

    def note_crash(self, peer: int, slot: int, exc: SessionCrashed) -> None:
        self._fail(peer, "crashed", slot, str(exc))

    def failures(self) -> tuple[PeerFailure, ...]:
        out = []
        for peer in sorted(self._failed):
            kind, slot, detail = self._failed[peer]
            out.append(
                PeerFailure(
                    peer=peer,
                    kind=kind,
                    slot=slot,
                    bytes_discarded=self._discard_bytes[peer]
                    + self._stall_bytes[peer],
                    messages_discarded=self._discard_msgs[peer],
                    detail=detail,
                )
            )
        return tuple(out)


class ParallelDownloader:
    """Slot-stepped parallel download into a progressive decoder.

    Parameters
    ----------
    sessions:
        Authenticated, request-accepted serving sessions, one per peer.
        With a ``policy``, sessions whose handshake never completed may
        also be passed — they are classified as ``refused`` and granted
        no budget.
    decoder:
        The user's :class:`~repro.rlnc.decoder.ProgressiveDecoder`, or
        any object exposing ``offer``, ``offer_many``, ``is_complete``
        and ``needed`` (e.g. a
        :meth:`~repro.rlnc.chunking.StreamingDecoder.chunk` view).
    rate_fn:
        ``rate_fn(peer_index, t) -> kbps`` granted to this user at slot
        ``t`` — the hook where the allocation engine plugs in.
    download_cap_kbps:
        The user's download-link capacity ``lambda_d``; the paper assumes
        it is not the bottleneck but the cap is enforced anyway (shares
        are scaled down proportionally when the sum exceeds it).
    slot_seconds:
        Wall-clock length of one slot.
    latency:
        Optional :class:`~repro.transfer.latency.LatencyModel`.  ``None``
        is the zero-RTT model: no handshake delay, same-slot delivery,
        an instant stop and therefore no wasted bytes.
    policy:
        Optional :class:`RobustPolicy` for untrusted peers.  ``None``
        trusts every peer: nothing is verified or re-scaled and a
        :class:`~repro.transfer.protocol.SessionCrashed` propagates.
    repair:
        Optional :class:`~repro.repair.monitor.DownloadRepairTrigger`.
        Each slot the downloader compares the undelivered supply across
        live sessions with what the decoder still needs; when supply
        falls below the trigger's threshold it fires the repair hook,
        which restores redundancy out-of-band (survivor recombination —
        fresh messages appear in a live peer's store and flow through
        its open serving cursor).  ``None`` (the default) changes
        nothing: downloads are bit-identical with repair disabled.

    :meth:`run` does everything; an outside driver advancing several
    downloads over one timeline calls :meth:`start`, then :meth:`step`
    once per slot until :attr:`done`, then :meth:`finish`.
    """

    def __init__(
        self,
        sessions: Sequence[ServingSession],
        decoder: ProgressiveDecoder,
        rate_fn: Callable[[int, int], float],
        download_cap_kbps: float = math.inf,
        slot_seconds: float = 1.0,
        latency: LatencyModel | None = None,
        policy: RobustPolicy | None = None,
        repair=None,
    ):
        if not sessions:
            raise ValueError("need at least one serving session")
        if slot_seconds <= 0:
            raise ValueError(f"slot_seconds must be positive, got {slot_seconds}")
        if latency is not None and len(latency) != len(sessions):
            raise ValueError(
                f"latency model covers {len(latency)} peers but there are "
                f"{len(sessions)} sessions"
            )
        self.sessions = list(sessions)
        self.decoder = decoder
        self.rate_fn = rate_fn
        self.download_cap_kbps = download_cap_kbps
        self.slot_seconds = float(slot_seconds)
        self.latency = latency
        self.policy = policy
        self.repair = repair
        n = len(self.sessions)
        model = latency if latency is not None else LatencyModel([0.0] * n)
        self._handshake = [model.handshake_slots(i) for i in range(n)]
        self._delivery = [model.delivery_slots(i) for i in range(n)]
        self._stop_lag = [model.stop_slots(i) for i in range(n)]
        #: Slots stepped so far.
        self.slots = 0
        self._per_peer = [0.0] * n
        self._total_bytes = 0.0
        self._wasted = 0.0
        self._first_data_slot: int | None = None
        self._delivered = self._rejected = self._dependent = 0
        self._inflight: list[tuple[int, int, object]] = []  # (arrival, peer, message)
        self._stop_at: list[int] | None = None  # per-peer stop slot, once complete
        self._finished = False

    def start(self, file_id: int | None = None) -> None:
        """Open the download: ``transfer.start``, its span and one span
        per peer session (quarantine and retry spans attach to these).
        Call once, before the first :meth:`step`."""
        n = len(self.sessions)
        self._stop = StopTransmission(file_id=file_id if file_id is not None else -1)
        _TRACER.emit(TRANSFER_START, peers=n, file_id=self._stop.file_id)
        self._span = _spans.start_span(
            "transfer.download", peers=n, file_id=self._stop.file_id
        )
        self._peer_spans = None
        if self._span is not None:
            self._peer_spans = [
                _spans.start_span("transfer.peer", parent=self._span, peer=i)
                for i in range(n)
            ]
        self._robust = None
        self._dead = [False] * n
        if self.policy is not None:
            self._robust = _RobustState(
                n, self.policy, self.sessions, peer_spans=self._peer_spans
            )
            self._dead = self._robust.dead

    @property
    def done(self) -> bool:
        """Decoded, and every peer has heard the stop."""
        return self._finished or (self._stop_at is None and self.decoder.is_complete)

    def step(self) -> None:
        """Advance one slot: deliver what has arrived, serve every peer's
        grant, and stop everyone once the decode completes."""
        with _spans.activated(self._span):
            self._step()

    def finish(self) -> DownloadReport:
        """Close the download's spans and return its report."""
        report = DownloadReport(
            complete=self.decoder.is_complete,
            slots=self.slots,
            bytes_received=self._total_bytes,
            messages_delivered=self._delivered,
            messages_rejected=self._rejected,
            messages_dependent=self._dependent,
            per_peer_bytes=tuple(self._per_peer),
            wasted_bytes=self._wasted,
            first_data_slot=self._first_data_slot,
            slot_seconds=self.slot_seconds,
            failures=self._robust.failures() if self._robust is not None else (),
        )
        if self._peer_spans is not None:
            kind_of = {f.peer: f.kind for f in report.failures}
            for i, handle in enumerate(self._peer_spans):
                _spans.finish_span(handle, status=kind_of.get(i, "ok"))
        _spans.finish_span(self._span)
        return report

    def run(self, max_slots: int, file_id: int | None = None) -> DownloadReport:
        """Step until decode completes (and every peer heard the stop) or
        ``max_slots`` elapse."""
        self.start(file_id)
        try:
            while not self.done and self.slots < max_slots:
                self.step()
        except Exception:
            _spans.finish_span(self._span, status="error")
            raise
        return self.finish()

    def _step(self) -> None:
        t = self.slots
        self.slots += 1
        self._deliver(t)
        self._check_repair(t)
        rates = [self.rate_fn(i, t) for i in range(len(self.sessions))]
        if self._robust is not None:
            rates = self._robust.adjust_rates(rates, self.sessions)
        total = sum(rates)
        if total > self.download_cap_kbps > 0:
            scale = self.download_cap_kbps / total
            rates = [r * scale for r in rates]
        complete = self._stop_at is not None
        # All peers transmit concurrently within the slot: every granted
        # budget flows even if an earlier peer's messages would already
        # complete the decode (surplus is simply never offered).
        quiet = complete  # nobody handshaking or sending after completion
        for i, (session, rate) in enumerate(zip(self.sessions, rates)):
            if self._dead[i]:
                continue
            if t < self._handshake[i]:
                quiet = False
                continue
            if complete:
                # A peer keeps sending until the stop reaches it.
                if t >= self._stop_at[i]:
                    session.stop(self._stop)
                elif session.active and rate > 0:
                    quiet = False
                    budget = kbps_to_bytes(rate, self.slot_seconds)
                    self._wasted += budget
                    if _OBS.enabled:
                        _XFER_WASTED.inc(budget)
                    self._serve(i, session, budget, t)
                continue
            if not session.active or rate <= 0:
                continue
            budget = kbps_to_bytes(rate, self.slot_seconds)
            self._per_peer[i] += budget
            self._total_bytes += budget
            if _OBS.enabled:
                _XFER_BYTES.inc(budget)
            if self._first_data_slot is None:
                self._first_data_slot = t
            served = self._serve(i, session, budget, t)
            if self._robust is not None:
                self._robust.note_served(i, len(served), budget, t)
            arrival = t + self._delivery[i]
            self._inflight.extend((arrival, i, d.message) for d in served)
        self._deliver(t)
        if self._stop_at is not None:
            self._finished = (quiet and not self._inflight) or all(
                t >= s for s in self._stop_at
            )

    def _serve(self, peer: int, session, budget: float, t: int) -> list:
        """Serve one grant; under a policy a crash is recorded, not raised
        (messages completed before the cut still count)."""
        try:
            return session.serve(budget)
        except SessionCrashed as exc:
            if self._robust is None:
                raise
            self._robust.note_crash(peer, t, exc)
            return list(exc.delivered)

    def _deliver(self, t: int) -> None:
        """Offer in-flight messages that have arrived by slot ``t``, in
        arrival order, until the decode completes."""
        if self.decoder.is_complete or not self._inflight:
            return
        due = [entry for entry in self._inflight if entry[0] <= t]
        if not due:
            return
        self._inflight = [entry for entry in self._inflight if entry[0] > t]
        store = self.policy.digest_store if self.policy is not None else None
        if store is None:
            # One batched elimination pass over everything that arrived.
            outcomes = self.decoder.offer_many([message for _, _, message in due])
            for (_, peer, _), outcome in zip(due, outcomes):
                self._count(outcome, peer, t)
            consumed = len(outcomes)
        else:
            # Per message: a failed digest quarantines its peer, and
            # nothing after completion is verified (post-completion
            # pollution stays out of the taxonomy).
            consumed = 0
            for _, peer, message in due:
                if self.decoder.is_complete:
                    break
                consumed += 1
                if self._robust.verify(peer, message, t):
                    self._count(self.decoder.offer(message), peer, t)
        # Arrivals behind the completing message were sent regardless;
        # they stay in flight and are never offered.
        self._inflight.extend(due[consumed:])
        if self.decoder.is_complete:
            self._complete(t)

    def _count(self, outcome, peer: int, t: int) -> None:
        name = getattr(outcome, "name", str(outcome))
        if _OBS.enabled:
            _XFER_MESSAGES.inc()
        _TRACER.emit(TRANSFER_MESSAGE, slot=t, peer=peer, outcome=name)
        if name in ("ACCEPTED", "COMPLETE"):
            self._delivered += 1
        elif name == "DEPENDENT":
            self._dependent += 1
        else:
            self._rejected += 1

    def _complete(self, t: int) -> None:
        """Step 5: send the stop; each peer hears it after its stop lag."""
        _TRACER.emit(
            TRANSFER_COMPLETE,
            slot=t,
            delivered=self._delivered,
            dependent=self._dependent,
            rejected=self._rejected,
        )
        self._stop_at = [t + lag for lag in self._stop_lag]
        for i, lag in enumerate(self._stop_lag):
            if lag == 0:
                self.sessions[i].stop(self._stop)
            if _OBS.enabled:
                _XFER_STOP_LAG.observe(lag)
            _TRACER.emit(TRANSFER_STOP, peer=i, slot=t + lag, lag_slots=lag)

    def _check_repair(self, slot: int) -> None:
        """Fire the repair trigger when surviving supply can't finish.

        ``supply`` counts undelivered messages across sessions that are
        still alive; duplicates and dependent rows make it an optimistic
        estimate, which is the right bias — repair is a fallback, not a
        first resort.
        """
        if self.repair is None or self.decoder.is_complete:
            return
        needed = getattr(self.decoder, "needed", None)
        if needed is None:
            return
        needed = int(needed)
        supply = sum(
            int(getattr(session, "remaining", 0))
            for i, session in enumerate(self.sessions)
            if not self._dead[i] and session.active
        )
        if self.repair.should_fire(needed, supply, slot):
            self.repair.fire(needed, slot)
