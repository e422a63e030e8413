"""The coefficient-only ``ProgressiveDecoder`` against the wide-row oracle.

:mod:`wide_decoder_oracle` is the decoder the package used before
elimination became coefficient-only: it reduces every ``(k + m)``-wide
augmented row.  Fed the same adversarial stream (unscreened ids, so
genuinely dependent rows occur; duplicates; forged payloads, some of
them on ids whose coefficients lie in the kept span; other files'
messages; unknown repair-range ids), both decoders must report the same
outcome per offer, the same counters, rank and ``inconsistent`` count,
and the same decoded bytes, with and without digest authentication.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from wide_decoder_oracle import WideRowDecoder

from repro.rlnc import (
    CodingParams,
    EncodedMessage,
    FileEncoder,
    Offer,
    ProgressiveDecoder,
)
from repro.rlnc.coefficients import REPAIR_ID_BASE
from repro.security import DigestStore


def _stream(p, k, m, seed, with_store, forged, duplicates):
    rng = np.random.default_rng(seed)
    params = CodingParams(p=p, m=m, file_bytes=k * m * p // 8)
    assert params.k == k
    data = rng.bytes(params.file_bytes - int(rng.integers(0, 3)))
    encoder = FileEncoder(params, secret=b"oracle", file_id=0x5EED)
    source = encoder.source_matrix(data)
    # Unscreened sequential ids: small fields give real dependent rows.
    msgs = encoder.encode_ids(source, range(2 * k + 4))
    store = None
    if with_store:
        store = DigestStore()
        for msg in msgs:
            store.record(msg.file_id, msg.message_id, msg.payload_bytes())
    rng.shuffle(msgs)
    # Forgeries on fresh ids that the stream's first k-1 rows already
    # span: without digests they reach elimination, reduce to zero
    # coefficients and must be caught by the payload residual.
    spanned = []
    for extra in encoder.encode_ids(source, range(2 * k + 4, 2 * k + 64)):
        if len(spanned) == forged or k < 2:
            break
        probe = ProgressiveDecoder(params, encoder.coefficients)
        for msg in msgs[: k - 1]:
            probe.offer(msg)
        if probe.offer(extra) is Offer.DEPENDENT and probe.rank < k:
            garbage = np.asarray(extra.payload) ^ 1
            spanned.append(extra.with_payload(garbage))
    msgs[k - 1 : k - 1] = spanned
    for i in range(duplicates):
        msgs.insert(int(rng.integers(len(msgs) + 1)), msgs[i % len(msgs)])
    for _ in range(forged):
        victim = msgs[int(rng.integers(len(msgs)))]
        garbage = rng.integers(0, 1 << p, size=m, dtype=np.uint64)
        msgs.insert(int(rng.integers(len(msgs) + 1)), victim.with_payload(garbage))
    other = FileEncoder(params, secret=b"oracle", file_id=0xD1FF)
    msgs.insert(int(rng.integers(len(msgs) + 1)), other.encode_ids(source, [1])[0])
    repair = EncodedMessage(
        file_id=0x5EED, message_id=REPAIR_ID_BASE + 3,
        payload=np.zeros(m, dtype=np.uint32), p=p,
    )
    msgs.insert(int(rng.integers(len(msgs) + 1)), repair)
    return params, encoder, store, msgs, data


@given(
    p=st.sampled_from([4, 8, 16]),
    k=st.integers(1, 6),
    m=st.sampled_from([4, 8, 24]),
    seed=st.integers(0, 2**32 - 1),
    with_store=st.booleans(),
    forged=st.integers(0, 6),
    duplicates=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_matches_wide_row_oracle(p, k, m, seed, with_store, forged, duplicates):
    params, encoder, store, msgs, data = _stream(
        p, k, m, seed, with_store, forged, duplicates
    )
    new = ProgressiveDecoder(params, encoder.coefficients, store)
    old = WideRowDecoder(params, encoder.coefficients, store)
    for msg in msgs:
        assert new.offer(msg) == old.offer(msg)
        assert new.rank == old.rank
    for attr in ("accepted", "dependent", "rejected", "inconsistent"):
        assert getattr(new, attr) == getattr(old, attr), attr
    assert new.is_complete == old.is_complete
    if new.is_complete:
        assert new.result() == old.result()
        assert new.result(len(data)) == old.result(len(data))
        if not with_store and forged:
            return  # forged rows may have been accepted: same wrong bytes
        assert new.result(len(data)) == data


def test_inconsistent_row_is_rejected_and_id_stays_unseen():
    """A forged payload on an id whose coefficients are already in the
    kept span is caught by the payload residual; the authentic message
    with that id is still accepted as dependent afterwards."""
    params = CodingParams(p=4, m=8, file_bytes=8)  # k = 2
    encoder = FileEncoder(params, secret=b"oracle", file_id=7)
    source = encoder.source_matrix(bytes(range(8)))
    first, *rest = encoder.encode_ids(source, range(400))

    def spans(msg):
        probe = ProgressiveDecoder(params, encoder.coefficients)
        probe.offer(first)
        return probe.offer(msg) is Offer.DEPENDENT

    victim = next(msg for msg in rest if spans(msg))
    dec = ProgressiveDecoder(params, encoder.coefficients)
    assert dec.offer(first) is Offer.ACCEPTED
    forged = victim.with_payload(np.asarray(victim.payload) ^ 1)
    assert dec.offer(forged) is Offer.REJECTED
    assert (dec.rejected, dec.inconsistent, dec.rank) == (1, 1, 1)
    assert dec.offer(victim) is Offer.DEPENDENT
