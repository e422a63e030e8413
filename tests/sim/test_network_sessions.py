"""One authenticated session per (user, peer) per fetch.

A fetch handshakes with each peer the first time one of its chunks needs
that peer and re-requests later chunks over the same session; a new
fetch authenticates again.  Reusing sessions must not change what is
downloaded or any report.
"""

import pytest

from repro import obs
from repro.rlnc import CodingParams
from repro.sim import FileSharingNetwork
from repro.sim import network as network_mod

PARAMS = CodingParams(p=16, m=64, file_bytes=1024)  # k = 8
N_PEERS = 4


def make_net(use_discovery=False):
    return FileSharingNetwork(
        [300.0, 400.0, 500.0, 600.0],
        params=PARAMS,
        seed=21,
        use_discovery=use_discovery,
    )


@pytest.fixture
def blobs(rng):
    return {name: rng.bytes(size) for name, size in (("a", 5000), ("b", 3500))}


def publish(net, blobs):
    net.publish(owner=0, name="a", data=blobs["a"])
    net.publish(owner=1, name="b", data=blobs["b"])


def handshakes(fn):
    """``(fn(), completed handshakes while it ran)``."""
    with obs.observability(reset=True) as registry:
        result = fn()
        return result, registry.get("repro.transfer.handshakes").value


def fresh_sessions_per_chunk(patch):
    """Make every chunk open fresh sessions, one handshake per (chunk,
    peer): the reference that session reuse must reproduce."""
    original = network_mod._Fetch.open_chunk

    def open_chunk(fetch):
        fetch.sessions.clear()
        original(fetch)

    patch.setattr(network_mod._Fetch, "open_chunk", open_chunk)


class TestHandshakeCount:
    @pytest.mark.parametrize("use_discovery", [False, True])
    def test_download_handshakes_each_peer_once(self, blobs, use_discovery):
        net = make_net(use_discovery)
        publish(net, blobs)
        assert net.registry["a"].n_chunks == 5
        result, count = handshakes(lambda: net.download(user=2, name="a"))
        assert result.complete and result.data == blobs["a"]
        assert count == N_PEERS

    def test_explicit_peer_subset(self, blobs):
        net = make_net()
        publish(net, blobs)
        result, count = handshakes(
            lambda: net.download(user=2, name="a", peers=[1, 3])
        )
        assert result.data == blobs["a"]
        assert count == 2

    @pytest.mark.parametrize("use_discovery", [False, True])
    def test_concurrent_handshakes_each_peer_once_per_request(
        self, blobs, use_discovery
    ):
        net = make_net(use_discovery)
        publish(net, blobs)
        requests = [(2, "a"), (3, "b"), (0, "b")]
        results, count = handshakes(lambda: net.download_concurrently(requests))
        for (_, name), got in zip(requests, results):
            assert got.complete and got.data == blobs[name]
        assert count == N_PEERS * len(requests)

    def test_second_download_handshakes_again(self, blobs):
        net = make_net()
        publish(net, blobs)
        _, first = handshakes(lambda: net.download(user=2, name="a"))
        _, second = handshakes(lambda: net.download(user=2, name="a"))
        assert first == second == N_PEERS

    def test_reference_handshakes_every_chunk(self, blobs, monkeypatch):
        fresh_sessions_per_chunk(monkeypatch)
        net = make_net()
        publish(net, blobs)
        _, count = handshakes(lambda: net.download(user=2, name="a"))
        assert count == N_PEERS * net.registry["a"].n_chunks


class TestSameDownloads:
    """Session reuse changes no byte and no report."""

    def run(self, blobs):
        net = make_net()
        publish(net, blobs)
        single = net.download(user=2, name="a")
        concurrent = net.download_concurrently([(2, "a"), (3, "b")])
        repaired = net.download(user=3, name="b", repair_threshold=1.0)
        return [single, *concurrent, repaired]

    def test_equal_to_per_chunk_sessions(self, blobs, monkeypatch):
        reused = self.run(blobs)
        with monkeypatch.context() as patch:
            fresh_sessions_per_chunk(patch)
            fresh = self.run(blobs)
        assert [r.data for r in reused] == [r.data for r in fresh]
        assert reused == fresh
