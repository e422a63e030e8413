"""Decoding coded messages back into file bytes (Section III-B).

Two decoders are provided:

* :class:`BlockDecoder` — the paper's description taken literally:
  collect ``k`` messages, regenerate the coefficient sub-matrix from the
  plaintext message-ids, invert, multiply.
* :class:`ProgressiveDecoder` — an online Gauss-Jordan variant that
  consumes messages as they arrive from multiple peers in parallel,
  detects useless (linearly dependent) messages immediately, rejects
  messages failing digest authentication, and reports the instant the
  file is decodable — which is when the user sends the stop-transmission
  of Fig. 4(b).
"""

from __future__ import annotations

import time
from enum import Enum

import numpy as np

from ..gf import GF, BinaryField, SingularMatrixError, solve
from ..obs import REGISTRY as _OBS
from ..obs import TRACER as _TRACER
from ..obs import span as _span
from ..obs import spans as _spans
from ..obs.events import RLNC_OFFER
from ..security.integrity import DigestStore
from .coefficients import CoefficientGenerator, UnknownCoefficientError
from .message import EncodedMessage
from .params import CodingParams
from .symbols import symbols_to_bytes

__all__ = ["BlockDecoder", "ProgressiveDecoder", "Offer", "DecodeError"]

_DEC_INNOVATIVE = _OBS.counter(
    "repro.rlnc.decode.innovative", "offered messages that increased rank"
)
_DEC_DEPENDENT = _OBS.counter(
    "repro.rlnc.decode.dependent", "offered messages that were linearly dependent"
)
_DEC_REJECTED = _OBS.counter(
    "repro.rlnc.decode.rejected", "offered messages rejected (auth/shape/forgery)"
)
_DEC_INCONSISTENT = _OBS.counter(
    "repro.rlnc.decode.inconsistent",
    "rejected rows that contradicted the span of authentic rows (pollution "
    "that slipped past digest checks)",
)
_DEC_ELIM_NS = _OBS.histogram(
    "repro.rlnc.decode.eliminate_ns",
    "nanoseconds of Gaussian elimination per offered message",
)
_DEC_BLOCK_NS = _span(
    "repro.rlnc.decode.block_ns", description="nanoseconds per BlockDecoder.decode()"
)


class DecodeError(Exception):
    """Raised when decoding is impossible with the supplied messages."""


class Offer(Enum):
    """Outcome of offering one message to a :class:`ProgressiveDecoder`."""

    ACCEPTED = "accepted"  # increased rank; progress was made
    DEPENDENT = "dependent"  # authentic but linearly dependent; fetch another
    REJECTED = "rejected"  # failed authentication or wrong file/shape
    COMPLETE = "complete"  # rank was already k; message ignored


class BlockDecoder:
    """One-shot decode from a complete set of messages."""

    def __init__(
        self,
        params: CodingParams,
        coefficients: CoefficientGenerator,
        field: BinaryField | None = None,
    ):
        self.params = params
        self.field = field if field is not None else GF(params.p)
        self.coefficients = coefficients

    def decode(self, messages, length: int | None = None) -> bytes:
        """Recover the file from at least ``k`` messages.

        Uses the first ``k`` messages with distinct ids; raises
        :class:`DecodeError` if fewer are supplied or the coefficient
        sub-matrix is singular (caller should add another message).
        """
        with _DEC_BLOCK_NS:
            k = self.params.k
            unique: dict[int, EncodedMessage] = {}
            for msg in messages:
                if msg.file_id != self.coefficients.file_id:
                    raise DecodeError(
                        f"message for file {msg.file_id:#x} offered to decoder for "
                        f"file {self.coefficients.file_id:#x}"
                    )
                unique.setdefault(msg.message_id, msg)
                if len(unique) == k:
                    break
            if len(unique) < k:
                raise DecodeError(
                    f"need {k} distinct messages to decode, got {len(unique)}"
                )
            chosen = list(unique.values())
            beta = self.coefficients.matrix(m.message_id for m in chosen)
            payloads = np.stack([m.payload for m in chosen])
            try:
                source = solve(self.field, beta, payloads)
            except SingularMatrixError as exc:
                raise DecodeError(
                    "coefficient sub-matrix is singular; supply a different message"
                ) from exc
            data = symbols_to_bytes(source.reshape(-1), self.params.p)
            return data[: length if length is not None else self.params.file_bytes]


class ProgressiveDecoder:
    """Streaming decoder with authentication and dependence detection.

    Elimination runs on the ``k``-wide coefficient rows only.  Each kept
    row is ``[E | T]``: ``E`` is a coefficient row in reduced echelon
    form (a 1 at its pivot, zeros at every other kept pivot) and ``T``
    the ``k``-wide transform that builds it from the original
    coefficient rows of the kept messages, ``E = T · C_kept``.  Arriving
    payloads are stored untouched, in acceptance order, and never
    enter the elimination.  An arriving row is reduced in one step (its
    entries at the kept pivots are the factors), so rank and dependence
    are decided on coefficients alone.  Once the rank reaches ``k``,
    ``E`` sorted by pivot is the identity and ``T`` sorted the same way
    is ``C_kept^-1``: :meth:`result` is one ``field.matmul`` over the
    stored payloads.

    A row whose coefficients reduce to zero is a combination
    ``c = λ · C_kept`` of the kept rows, and its reduced transform part
    carries ``λ``.  It is *dependent* if its payload matches the same
    combination of kept payloads (the residual ``y - λ · P_kept``
    vanishes), and *corrupt* (it contradicts the span of authentic
    rows) otherwise.  The residual is computed only for such rows.  A
    corrupt row can only arrive when authentication is disabled or
    defeated; it is still caught, rejected and counted in
    :attr:`inconsistent`, and its id stays unseen.
    """

    def __init__(
        self,
        params: CodingParams,
        coefficients: CoefficientGenerator,
        digest_store: DigestStore | None = None,
        field: BinaryField | None = None,
    ):
        self.params = params
        self.field = field if field is not None else GF(params.p)
        self.coefficients = coefficients
        self.digest_store = digest_store
        self._kept: np.ndarray | None = None  # (k, 2k) rows [E | T], arrival order
        self._pivots: list[int] = []  # pivot column of kept row i
        self._payloads: list[np.ndarray] = []  # payload of kept row i
        self._seen_ids: set[int] = set()
        self._decoded: bytes | None = None
        self.accepted = 0
        self.dependent = 0
        self.rejected = 0
        #: Rejected rows that *contradicted* the span of authentic rows —
        #: pollution that digests did not catch.  Always <= ``rejected``.
        self.inconsistent = 0

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def needed(self) -> int:
        """How many more useful messages are required."""
        return self.params.k - self.rank

    @property
    def is_complete(self) -> bool:
        return self.rank >= self.params.k

    def offer(self, message: EncodedMessage) -> Offer:
        """Feed one received message; returns what happened to it."""
        if not (_OBS.enabled or _TRACER.enabled):
            return self._offer(message)
        rank_before = self.rank
        outcome = self._offer(message)
        if _OBS.enabled:
            if self.rank > rank_before:
                _DEC_INNOVATIVE.inc()
            elif outcome is Offer.DEPENDENT:
                _DEC_DEPENDENT.inc()
            elif outcome is Offer.REJECTED:
                _DEC_REJECTED.inc()
        _TRACER.emit(
            RLNC_OFFER,
            file_id=int(message.file_id),
            message_id=int(message.message_id),
            outcome=outcome.value,
            rank=self.rank,
        )
        return outcome

    def offer_many(self, messages) -> list[Offer]:
        """Offer ``messages`` in order until the decode completes.

        Returns one :class:`Offer` per *consumed* message (so the list
        may be shorter than the input, and is empty when the decoder is
        already complete).  Outcomes, counters, traces, and the decoded
        bytes are those of calling :meth:`offer` in a loop.
        """
        msgs = list(messages)
        batch_span = None
        if _TRACER.enabled:
            batch_span = _spans.start_span("rlnc.offer_many", count=len(msgs))
        try:
            outcomes: list[Offer] = []
            for msg in msgs:
                if self.is_complete:
                    break
                outcomes.append(self.offer(msg))
            return outcomes
        finally:
            _spans.finish_span(batch_span)

    def _offer(self, message: EncodedMessage) -> Offer:
        if self.is_complete:
            return Offer.COMPLETE
        if message.file_id != self.coefficients.file_id:
            self.rejected += 1
            return Offer.REJECTED
        if message.m != self.params.m or message.p != self.params.p:
            self.rejected += 1
            return Offer.REJECTED
        if message.message_id in self._seen_ids:
            self.dependent += 1
            return Offer.DEPENDENT
        if self.digest_store is not None and not self.digest_store.verify(
            message.file_id, message.message_id, message.payload_bytes()
        ):
            self.rejected += 1
            return Offer.REJECTED
        try:
            coeff_row = self.coefficients.row(message.message_id)
        except UnknownCoefficientError:
            # Repair-range id with no registered repair record: the row
            # cannot be derived, so the message cannot be used (or even
            # checked for consistency).
            self.rejected += 1
            return Offer.REJECTED

        elim_start = time.perf_counter_ns() if _OBS.enabled else None
        try:
            return self._eliminate(message, coeff_row)
        finally:
            if elim_start is not None:
                _DEC_ELIM_NS.observe(time.perf_counter_ns() - elim_start)

    def _eliminate(self, message: EncodedMessage, coeff_row: np.ndarray) -> Offer:
        field = self.field
        k = self.params.k
        rank = self.rank
        if self._kept is None:
            self._kept = np.zeros((k, 2 * k), dtype=field.dtype)
        kept = self._kept[:rank]
        row = np.zeros(2 * k, dtype=field.dtype)
        row[:k] = coeff_row
        row[k + rank] = 1  # this arrival's own column of the transform
        if rank:
            # Kept rows are fully reduced, so the row's entries at their
            # pivots are the elimination factors, all known up front.
            factors = row[self._pivots]
            if factors.any():
                products = np.zeros_like(kept)
                field.addmul(products, factors[:, None], kept)
                row ^= np.bitwise_xor.reduce(products, axis=0)
        nonzero = np.nonzero(row[:k])[0]
        if nonzero.size == 0:
            # c = λ · C_kept with λ = row[k:k+rank] (char 2: the reduced
            # transform is e_new - λ = e_new + λ).
            residual = np.array(message.payload)
            lam = row[k : k + rank]
            for t in np.nonzero(lam)[0]:
                field.addmul(residual, lam[t], self._payloads[t])
            if residual.any():
                # Authentic rows can never contradict the span; this
                # message was forged in a way the digests did not catch.
                # The decoder survives: the row is dropped, state is
                # untouched (the id stays unseen so the authentic message
                # with the same id can still be accepted), and the
                # inconsistency is counted.
                self.rejected += 1
                self.inconsistent += 1
                if _OBS.enabled:
                    _DEC_INCONSISTENT.inc()
                return Offer.REJECTED
            self._seen_ids.add(message.message_id)
            self.dependent += 1
            return Offer.DEPENDENT
        pivot = int(nonzero[0])
        v = row[pivot]
        if v != 1:
            field.scale_rows(row, field.inv(v))
        # Back-substitute so every kept row stays zero at the new pivot.
        factors = kept[:, pivot].copy()
        if factors.any():
            field.addmul(kept, factors[:, None], row[None, :])
        self._kept[rank] = row
        self._pivots.append(pivot)
        self._payloads.append(message.payload)
        self._seen_ids.add(message.message_id)
        self.accepted += 1
        self._decoded = None
        return Offer.COMPLETE if self.is_complete else Offer.ACCEPTED

    def result(self, length: int | None = None) -> bytes:
        """The decoded file bytes; valid once :attr:`is_complete`."""
        if not self.is_complete:
            raise DecodeError(
                f"decode incomplete: rank {self.rank} of {self.params.k}"
            )
        if self._decoded is None:
            k = self.params.k
            # At full rank the reduced coefficient block is a row
            # permutation of the identity; sorting by pivot leaves the
            # transform block equal to the inverse of C_kept.
            order = np.argsort(np.asarray(self._pivots, dtype=np.intp))
            inverse = self._kept[order, k:]
            source = self.field.matmul(inverse, np.stack(self._payloads))
            self._decoded = symbols_to_bytes(source.reshape(-1), self.params.p)
        data = self._decoded
        return data[: length if length is not None else self.params.file_bytes]
