"""Tests for the latency-aware transfer path."""

import pytest

from repro.repair import DownloadRepairTrigger
from repro.rlnc import CodingParams, FileEncoder, ProgressiveDecoder
from repro.security import DigestStore, generate_keypair
from repro.storage import MessageStore
from repro.transfer import (
    DownloadSession,
    LatencyModel,
    ParallelDownloader,
    ServingSession,
)

PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8
FILE_ID = 0x44


@pytest.fixture(scope="module")
def keys():
    return generate_keypair(bits=512, seed=44)


def build(rng, n_peers, keys):
    data = rng.bytes(500)
    store = DigestStore()
    encoder = FileEncoder(PARAMS, b"s", file_id=FILE_ID)
    encoded = encoder.encode_bundles(data, n_peers=n_peers, digest_store=store)
    sessions = []
    for p in range(n_peers):
        mstore = MessageStore()
        mstore.add_messages(encoded.bundles[p])
        serving = ServingSession(mstore, keys.public)
        DownloadSession(keys).handshake(serving, FILE_ID)
        sessions.append(serving)
    decoder = ProgressiveDecoder(PARAMS, encoder.coefficients, store)
    return data, sessions, decoder


class TestLatencyModel:
    def test_slot_conversions(self):
        model = LatencyModel([0.0, 1.0, 2.5], slot_seconds=1.0)
        assert model.handshake_slots(0) == 0
        assert model.handshake_slots(1) == 2  # 2 RTTs
        assert model.handshake_slots(2) == 5
        assert model.delivery_slots(1) == 1  # ceil(0.5)
        assert model.stop_slots(2) == 2  # ceil(1.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyModel([])
        with pytest.raises(ValueError):
            LatencyModel([-1.0])
        with pytest.raises(ValueError):
            LatencyModel([1.0], slot_seconds=0)

    def test_session_count_checked(self, rng, keys):
        data, sessions, decoder = build(rng, 2, keys)
        with pytest.raises(ValueError):
            ParallelDownloader(
                sessions, decoder, lambda i, t: 1.0, latency=LatencyModel([1.0])
            )


class TestLatencyEffects:
    def test_zero_latency_matches_plain_run(self, rng, keys):
        data, s1, d1 = build(rng, 2, keys)
        plain = ParallelDownloader(s1, d1, lambda i, t: 100.0).run(1000, FILE_ID)
        data2, s2, d2 = build(rng, 2, keys)
        zero = ParallelDownloader(
            s2, d2, lambda i, t: 100.0, latency=LatencyModel([0.0, 0.0])
        ).run(1000, FILE_ID)
        assert zero.complete and plain.complete
        # Zero RTT is exactly the plain run: same-slot delivery, an
        # instant stop, no waste — the whole report matches.
        assert zero.to_dict() == plain.to_dict()
        assert zero.slots == 1 and zero.first_data_slot == 0
        assert zero.wasted_bytes == 0.0

    def test_handshake_delays_first_byte(self, rng, keys):
        data, sessions, decoder = build(rng, 2, keys)
        model = LatencyModel([3.0, 3.0])  # handshake = 6 slots
        report = ParallelDownloader(
            sessions, decoder, lambda i, t: 500.0, latency=model
        ).run(1000, FILE_ID)
        assert report.complete
        assert report.first_data_slot == 6

    def test_latency_extends_download(self, rng, keys):
        data, s1, d1 = build(rng, 2, keys)
        fast = ParallelDownloader(s1, d1, lambda i, t: 50.0).run(1000, FILE_ID)
        data2, s2, d2 = build(rng, 2, keys)
        slow = ParallelDownloader(
            s2, d2, lambda i, t: 50.0, latency=LatencyModel([2.0, 2.0])
        ).run(1000, FILE_ID)
        assert slow.complete
        assert slow.slots > fast.slots

    def test_stop_lag_wastes_bytes(self, rng, keys):
        # Slow rates keep all four peers mid-stream when decoding
        # completes, so the 2-slot stop lag produces measurable waste.
        data, sessions, decoder = build(rng, 4, keys)
        model = LatencyModel([4.0] * 4)
        rate = 0.5  # kbps -> 62.5 B/slot, ~1.3 slots per message
        report = ParallelDownloader(
            sessions, decoder, lambda i, t: rate, latency=model
        ).run(2000, FILE_ID)
        assert report.complete
        assert report.wasted_bytes > 0
        # and the waste is bounded by rate x stop-lag x peers
        bound = 4 * rate * 1000 / 8 * (model.stop_slots(0) + 1)
        assert report.wasted_bytes <= bound

    def test_heterogeneous_rtts(self, rng, keys):
        """A far peer joins late but still contributes."""
        data, sessions, decoder = build(rng, 2, keys)
        model = LatencyModel([0.0, 10.0])
        # 0.2 kbps -> 25 B/slot: peer 0 alone would need ~26 slots, so
        # peer 1 (handshake done at slot 20) still gets to contribute.
        report = ParallelDownloader(
            sessions, decoder, lambda i, t: 0.2, latency=model
        ).run(2000, FILE_ID)
        assert report.complete
        assert report.per_peer_bytes[0] > report.per_peer_bytes[1] > 0

    def test_repair_fires_under_latency(self, rng, keys):
        """Supply short of k: the repair trigger restocks a live peer
        mid-download and the latency run still completes."""
        data = rng.bytes(500)
        store = DigestStore()
        encoder = FileEncoder(PARAMS, b"s", file_id=FILE_ID)
        bundles = encoder.encode_bundles(data, n_peers=3, digest_store=store).bundles
        stores = [MessageStore() for _ in range(2)]
        sessions = []
        for mstore, bundle in zip(stores, bundles):
            mstore.add_messages(bundle, limit=3)  # 2 x 3 < k = 8
            serving = ServingSession(mstore, keys.public)
            DownloadSession(keys).handshake(serving, FILE_ID)
            sessions.append(serving)
        decoder = ProgressiveDecoder(PARAMS, encoder.coefficients, store)
        trigger = DownloadRepairTrigger(
            hook=lambda needed: stores[1].add_messages(bundles[2])
        )
        report = ParallelDownloader(
            sessions,
            decoder,
            lambda i, t: 2.0,
            latency=LatencyModel([1.0, 2.0]),
            repair=trigger,
        ).run(200, FILE_ID)
        assert trigger.fires == 1 and trigger.injected == PARAMS.k
        assert report.complete
        assert decoder.result(len(data)) == data

    def test_incomplete_when_slots_exhausted(self, rng, keys):
        data, sessions, decoder = build(rng, 1, keys)
        model = LatencyModel([5.0])
        report = ParallelDownloader(
            sessions, decoder, lambda i, t: 1000.0, latency=model
        ).run(5, FILE_ID)  # handshake alone takes 10 slots
        assert not report.complete
        assert report.bytes_received == 0.0
