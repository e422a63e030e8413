"""Test-only oracle: the wide-row progressive decoder the package used
before decoding became coefficient-only.

It eliminates each arriving augmented row ``[beta_row | payload]`` of
width ``k + m`` against every kept row, keeps the rows in echelon form
and finishes with one triangular solve.  It has no observability and no
batching; offer outcomes, counters, rank and decoded bytes are what the
coefficient-only :class:`repro.rlnc.ProgressiveDecoder` must reproduce.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from repro.gf import GF, solve
from repro.rlnc import Offer
from repro.rlnc.coefficients import UnknownCoefficientError
from repro.rlnc.symbols import symbols_to_bytes


class WideRowDecoder:
    def __init__(self, params, coefficients, digest_store=None):
        self.params = params
        self.field = GF(params.p)
        self.coefficients = coefficients
        self.digest_store = digest_store
        self._matrix = None
        self._pivots: list[int] = []
        self._order: list[tuple[int, int]] = []
        self._seen_ids: set[int] = set()
        self.accepted = self.dependent = self.rejected = self.inconsistent = 0

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def is_complete(self) -> bool:
        return self.rank >= self.params.k

    def offer(self, message) -> Offer:
        if self.is_complete:
            return Offer.COMPLETE
        if (
            message.file_id != self.coefficients.file_id
            or message.m != self.params.m
            or message.p != self.params.p
        ):
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
        field, k = self.field, self.params.k
        try:
            coeff_row = self.coefficients.row(message.message_id)
        except UnknownCoefficientError:
            self.rejected += 1
            return Offer.REJECTED
        row = np.empty(k + self.params.m, dtype=field.dtype)
        row[:k] = coeff_row
        row[k:] = message.payload
        for pivot, ridx in self._order:
            v = row[pivot]
            if v:
                field.addmul(row[pivot:], v, self._matrix[ridx, pivot:])
        nonzero = np.nonzero(row[:k])[0]
        if nonzero.size == 0:
            if np.any(row[k:]):
                self.rejected += 1
                self.inconsistent += 1
                return Offer.REJECTED
            self._seen_ids.add(message.message_id)
            self.dependent += 1
            return Offer.DEPENDENT
        pivot = int(nonzero[0])
        if row[pivot] != 1:
            field.scale_rows(row[pivot:], field.inv(row[pivot]))
        if self._matrix is None:
            self._matrix = np.zeros((k, k + self.params.m), dtype=field.dtype)
        ridx = len(self._pivots)
        self._matrix[ridx] = row
        self._pivots.append(pivot)
        insort(self._order, (pivot, ridx))
        self._seen_ids.add(message.message_id)
        self.accepted += 1
        return Offer.COMPLETE if self.is_complete else Offer.ACCEPTED

    def result(self, length: int | None = None) -> bytes:
        k = self.params.k
        M = self._matrix[np.argsort(np.asarray(self._pivots, dtype=np.intp))]
        source = solve(self.field, M[:, :k], M[:, k:])
        data = symbols_to_bytes(source.reshape(-1), self.params.p)
        return data[: length if length is not None else self.params.file_bytes]
