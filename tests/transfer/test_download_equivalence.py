"""The single download slot loop reproduces the loops it replaced.

``ParallelDownloader`` used to run one of three loops (trusting,
robust, latency-aware) depending on its configuration.
``download_goldens.json`` holds ``DownloadReport.to_dict()`` plus a
digest of the decoded bytes for every combination of

    policy {None, RobustPolicy} x latency {None, mixed RTTs}
    x faults {none, pollute, crash, stall, refuse} x repair {off, on}
    x decoder {bare ProgressiveDecoder, StreamingDecoder chunk views}

as produced by those loops.  The one loop must reproduce every golden
bit for bit, except for the two fixes listed below (and checked
explicitly):

* ``first_data_slot`` — the trusting and robust loops left it ``None``;
  every run now records the slot of its first payload byte.
* repair under latency — the latency loop never consulted the repair
  trigger, so a latency run whose supply fell short stayed incomplete;
  it now fires the trigger and completes.

The fixture records the old loops' behaviour; it is not regenerated from
the current code (that would erase the fixes the test checks).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.faults import FaultPlan, PeerFault
from repro.repair import DownloadRepairTrigger
from repro.rlnc import CodingParams, FileEncoder, ProgressiveDecoder
from repro.rlnc.chunking import ChunkedEncoder, StreamingDecoder
from repro.security import DigestStore, generate_keypair
from repro.storage import MessageStore
from repro.transfer import (
    DownloadSession,
    LatencyModel,
    ParallelDownloader,
    RobustPolicy,
    ServingSession,
    SessionCrashed,
)

GOLDENS_PATH = Path(__file__).with_name("download_goldens.json")

PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8, 80-byte wire messages
FILE_ID = 0x77
N_PEERS = 3
RTTS = (0.5, 1.0, 2.5)  # handshakes of 1/2/5 slots, deliveries of 1/1/2
CAP_KBPS = 1.5  # binds on the odd slots of rate()
MAX_SLOTS = 200
REPAIR_LIMIT = 2  # messages per peer when repair is on: 3 x 2 < k

FAULTS = {
    "none": {},
    "pollute": {0: PeerFault("pollute")},
    "crash": {1: PeerFault("crash", at_byte=160)},
    "stall": {0: PeerFault("stall", at_slot=0, duration=10_000)},
    "refuse": {0: PeerFault("refuse")},
}

CASES = [
    (policy, latency, fault, repair, decoder)
    for policy in ("none", "robust")
    for latency in ("none", "mixed")
    for fault in FAULTS
    for repair in ("off", "on")
    for decoder in ("bare", "streaming")
]


def case_id(case) -> str:
    policy, latency, fault, repair, decoder = case
    return f"policy={policy}-latency={latency}-fault={fault}-repair={repair}-{decoder}"


def rate(i: int, t: int) -> float:
    return (0.3 + 0.1 * i) * (1 + t % 2)


def _sessions(stores, file_id, keys, fault):
    plan = FaultPlan(seed=3, faults=FAULTS[fault])
    sessions = plan.wrap([ServingSession(store, keys.public) for store in stores])
    for p, session in enumerate(sessions):
        DownloadSession(keys).handshake_with_retry(session, file_id, peer=p)
    return sessions


def _download(sessions, decoder, case, digests, trigger, file_id):
    policy, latency, _, _, _ = case
    return ParallelDownloader(
        sessions,
        decoder,
        rate,
        download_cap_kbps=CAP_KBPS,
        latency=LatencyModel(RTTS) if latency == "mixed" else None,
        policy=(
            RobustPolicy(digest_store=digests, stall_timeout_slots=3)
            if policy == "robust"
            else None
        ),
        repair=trigger,
    ).run(MAX_SLOTS, file_id=file_id)


def _trigger(stores, reserve, repair):
    """Repair restocks the last (never faulty) peer from a held-back bundle."""
    if repair == "off":
        return None
    return DownloadRepairTrigger(hook=lambda needed: stores[-1].add_messages(reserve))


def run_case(case, keys):
    """Run one scenario; returns ``(reports, decoded bytes)``."""
    _, _, fault, repair, decoder_kind = case
    limit = REPAIR_LIMIT if repair == "on" else None
    digests = DigestStore()
    stores = [MessageStore() for _ in range(N_PEERS)]
    rng = np.random.default_rng(2006)
    if decoder_kind == "bare":
        data = rng.bytes(500)
        encoder = FileEncoder(PARAMS, b"s", file_id=FILE_ID)
        bundles = encoder.encode_bundles(data, N_PEERS + 1, digests).bundles
        for store, bundle in zip(stores, bundles):
            store.add_messages(bundle, limit=limit)
        decoder = ProgressiveDecoder(PARAMS, encoder.coefficients, digests)
        report = _download(
            _sessions(stores, FILE_ID, keys, fault),
            decoder,
            case,
            digests,
            _trigger(stores, bundles[N_PEERS], repair),
            FILE_ID,
        )
        decoded = decoder.result(len(data)) if decoder.is_complete else b""
        return [report], decoded
    data = rng.bytes(900)  # two chunks
    chunked = ChunkedEncoder(PARAMS, b"s", base_file_id=FILE_ID)
    manifest, encoded = chunked.encode_file(data, N_PEERS + 1, digests)
    for chunk in encoded:
        for store, bundle in zip(stores, chunk.bundles):
            store.add_messages(bundle, limit=limit)
    streaming = StreamingDecoder(manifest, chunked, digests)
    reports = []
    for index, chunk_id in enumerate(manifest.chunk_ids):
        report = _download(
            _sessions(stores, chunk_id, keys, fault),
            streaming.chunk(index),
            case,
            digests,
            _trigger(stores, encoded[index].bundles[N_PEERS], repair),
            chunk_id,
        )
        reports.append(report)
        if not report.complete:
            break
    return reports, streaming.result() if streaming.is_complete else b""


def outcome(case, keys) -> dict:
    """JSON-ready record of one scenario, as the fixture stores it."""
    try:
        reports, decoded = run_case(case, keys)
    except SessionCrashed:
        return {"raises": "SessionCrashed"}
    return {
        "reports": [r.to_dict() for r in reports],
        "data_sha256": hashlib.sha256(decoded).hexdigest() if decoded else None,
    }


@pytest.fixture(scope="module")
def keys():
    return generate_keypair(bits=512, seed=12)


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS_PATH.read_text())


def test_fixture_covers_every_case(goldens):
    assert sorted(goldens) == sorted(case_id(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_one_loop_reproduces_golden(case, keys, goldens):
    golden = goldens[case_id(case)]
    got = outcome(case, keys)
    _, latency, _, repair, _ = case
    if "raises" in golden:
        assert got == golden
        return
    if latency == "mixed" and repair == "on":
        # Fix: the latency loop ignored the repair trigger, so the
        # short supply left every golden incomplete.  The trigger now
        # fires and the download completes.
        assert not golden["reports"][-1]["complete"]
        assert all(r["complete"] for r in got["reports"])
        assert got["data_sha256"] is not None
        return
    if latency == "none":
        # Fix: every run records its first payload slot; the trusting
        # and robust loops left it None.
        for old, new in zip(golden["reports"], got["reports"]):
            assert old["first_data_slot"] is None
            assert isinstance(new["first_data_slot"], int)
            old["first_data_slot"] = new["first_data_slot"]
    assert got == golden

