"""The output oracles catch one tampered byte and a skipped discard."""

from types import SimpleNamespace

import numpy as np

from perfbench import oracles


def _report(complete=True, failures=()):
    return SimpleNamespace(complete=complete, failures=tuple(failures))


def _failure(peer, discarded, kind="polluted"):
    return SimpleNamespace(peer=peer, bytes_discarded=discarded, kind=kind)


REFUSED = _failure(7, 0.0, "refused")


def test_check_bytes_passes_identical_and_fails_one_tampered_byte():
    data = bytes(range(256)) * 8
    assert oracles.check_bytes("fetch", data, data) == []
    tampered = bytearray(data)
    tampered[1000] ^= 0x01
    errors = oracles.check_bytes("fetch", bytes(tampered), data)
    assert errors and "offset 1000" in errors[0]
    assert oracles.check_bytes("fetch", data[:-1], data)


def test_check_robust_requires_the_polluter_discard():
    caught = [_report(failures=[_failure(2, 1040.0), REFUSED]), _report(failures=[REFUSED])]
    assert oracles.check_robust("robust", caught, polluter=2, refuser=7) == []
    skipped = [_report(failures=[_failure(5, 1040.0), REFUSED]), _report(failures=[REFUSED])]
    assert oracles.check_robust("robust", skipped, polluter=2, refuser=7)
    zero = [_report(failures=[_failure(2, 0.0), REFUSED])]
    assert oracles.check_robust("robust", zero, polluter=2, refuser=7)


def test_check_robust_requires_the_refusal_on_every_chunk():
    reports = [_report(failures=[_failure(2, 1040.0), REFUSED]), _report()]
    errors = oracles.check_robust("robust", reports, polluter=2, refuser=7)
    assert errors == ["robust: refusing peer 7 not refused on chunk(s) [1]"]


def test_check_robust_flags_an_incomplete_chunk():
    reports = [_report(failures=[_failure(1, 10.0), REFUSED]), _report(complete=False)]
    errors = oracles.check_robust("r", reports, polluter=1, refuser=7)
    assert any("chunk 1 incomplete" in e for e in errors)


def test_check_repair_counts_restored_messages_and_owner_state():
    owner = (4096, 0, [8, 8])
    assert oracles.check_repair("repair", 8, [8, 8], owner, owner) == []
    assert oracles.check_repair("repair", 8, [8, 7], owner, owner)
    assert oracles.check_repair("repair", 8, [8, 8], owner, (8192, 0, [8, 8]))
    assert oracles.check_repair("repair", 8, [8, 8], owner, (4096, 1, [8, 8]))
    assert oracles.check_repair("repair", 8, [8, 8], owner, (4096, 0, [8, 16]))


def test_check_feasible_per_peer_and_total():
    caps = np.array([100.0, 50.0, 0.0])
    assert oracles.check_feasible("slot", np.array([100.0, 49.0, 0.0]), caps) == []
    assert oracles.check_feasible("slot", np.array([100.0, 50.1, 0.0]), caps)
    assert oracles.check_feasible("total", 131072.00000000003, 131072.0) == []
    assert oracles.check_feasible("total", 131073.0, 131072.0)


def test_fingerprint_is_order_and_value_sensitive():
    def digest(*items):
        fp = oracles.Fingerprint()
        for item in items:
            fp.add(*item)
        return fp.hexdigest()

    base = digest(("fetch", 3, 1024.0), ("rates", np.arange(4.0)))
    assert base == digest(("fetch", 3, 1024.0), ("rates", np.arange(4.0)))
    assert base != digest(("fetch", 4, 1024.0), ("rates", np.arange(4.0)))
    assert base != digest(("rates", np.arange(4.0)), ("fetch", 3, 1024.0))
