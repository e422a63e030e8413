"""Unit tests for serving/download session state machines."""

import pytest

from repro.rlnc import CodingParams, FileEncoder
from repro.security import generate_keypair
from repro.storage import MessageStore
from repro.transfer import (
    DownloadSession,
    FileRequest,
    ProtocolError,
    ServingSession,
    StopTransmission,
)

PARAMS = CodingParams(p=16, m=32, file_bytes=512)  # k = 8
FILE_ID = 0x22
OTHER_ID = 0x23
MSG = 16 + PARAMS.message_bytes  # wire bytes of one message


@pytest.fixture(scope="module")
def user_keys():
    return generate_keypair(bits=512, seed=77)


@pytest.fixture
def store(rng):
    encoder = FileEncoder(PARAMS, b"s", file_id=FILE_ID)
    encoded = encoder.encode_bundles(rng.bytes(500), n_peers=1)
    s = MessageStore()
    s.add_messages(encoded.bundles[0])
    other = FileEncoder(PARAMS, b"t", file_id=OTHER_ID)
    s.add_messages(other.encode_bundles(rng.bytes(500), n_peers=1).bundles[0])
    return s


@pytest.fixture
def serving(store, user_keys):
    return ServingSession(store, user_keys.public)


def authed(serving, user_keys, file_id=FILE_ID):
    DownloadSession(user_keys).handshake(serving, file_id)
    return serving


class TestHandshake:
    def test_happy_path(self, serving, user_keys):
        accept = DownloadSession(user_keys).handshake(serving, FILE_ID)
        assert accept.file_id == FILE_ID
        assert accept.available_messages == PARAMS.k
        assert serving.active

    def test_request_before_auth_rejected(self, serving):
        with pytest.raises(ProtocolError):
            serving.accept_request(FileRequest(FILE_ID))
        serving.begin_auth()  # challenged, never answered
        with pytest.raises(ProtocolError):
            serving.accept_request(FileRequest(FILE_ID))

    def test_wrong_key_rejected(self, serving):
        imposter = generate_keypair(bits=512, seed=666)
        with pytest.raises(ProtocolError):
            DownloadSession(imposter).handshake(serving, FILE_ID)
        assert not serving.active

    def test_serve_before_request_rejected(self, serving):
        with pytest.raises(ProtocolError):
            serving.serve(1000)


class TestServing:
    def test_whole_budget_delivers_all(self, serving, user_keys):
        authed(serving, user_keys)
        wire = PARAMS.k * (16 + PARAMS.message_bytes)
        delivered = serving.serve(wire)
        assert len(delivered) == PARAMS.k
        assert not serving.active  # exhausted

    def test_partial_budget_carries_over(self, serving, user_keys):
        authed(serving, user_keys)
        msg_size = 16 + PARAMS.message_bytes
        assert serving.serve(msg_size * 0.6) == []
        # The fractional progress persists: 0.6 + 0.6 > 1 message.
        assert len(serving.serve(msg_size * 0.6)) == 1

    def test_exact_budget_boundary(self, serving, user_keys):
        authed(serving, user_keys)
        msg_size = 16 + PARAMS.message_bytes
        assert len(serving.serve(msg_size)) == 1
        assert len(serving.serve(msg_size * 2)) == 2

    def test_zero_budget_nothing(self, serving, user_keys):
        authed(serving, user_keys)
        assert serving.serve(0) == []

    def test_negative_budget_rejected(self, serving, user_keys):
        authed(serving, user_keys)
        with pytest.raises(ValueError):
            serving.serve(-1)

    def test_stop_halts_stream(self, serving, user_keys):
        authed(serving, user_keys)
        serving.serve(16 + PARAMS.message_bytes)
        serving.stop(StopTransmission(FILE_ID))
        assert not serving.active
        assert serving.serve(10**9) == []

    def test_counters(self, serving, user_keys):
        authed(serving, user_keys)
        serving.serve(2 * (16 + PARAMS.message_bytes))
        assert serving.messages_sent == 2
        assert serving.bytes_sent == pytest.approx(2 * (16 + PARAMS.message_bytes))

    def test_serial_order_matches_store(self, store, user_keys):
        serving = ServingSession(store, user_keys.public)
        authed(serving, user_keys)
        delivered = serving.serve(10**9)
        expected = [m.message_id for m in store.messages(FILE_ID)]
        assert [d.message.message_id for d in delivered] == expected


class TestReRequest:
    """One authenticated session serves file after file: SERVING returns
    to AUTHENTICATED on a stop or an exhausted cursor."""

    def ids(self, delivered):
        return [d.message.message_id for d in delivered]

    def test_after_stop_serves_new_file_from_first_message(
        self, serving, store, user_keys
    ):
        authed(serving, user_keys)
        assert len(serving.serve(1.5 * MSG)) == 1  # half a message pending
        serving.stop(StopTransmission(FILE_ID))
        accept = serving.accept_request(FileRequest(OTHER_ID))
        assert accept.file_id == OTHER_ID
        assert accept.available_messages == PARAMS.k
        assert serving.active
        # The stopped stream's half message is not carried over.
        assert serving.serve(0.6 * MSG) == []
        delivered = serving.serve(0.4 * MSG)
        first = store.messages(OTHER_ID)[0].message_id
        assert self.ids(delivered) == [first]

    def test_after_exhausted_cursor(self, serving, store, user_keys):
        authed(serving, user_keys)
        assert len(serving.serve(10**9)) == PARAMS.k
        assert not serving.active
        serving.accept_request(FileRequest(OTHER_ID))
        assert serving.serve(0.9 * MSG) == []
        expected = [m.message_id for m in store.messages(OTHER_ID)]
        assert self.ids(serving.serve(10**9)) == expected
        # And back to the first file, from its first message again.
        serving.accept_request(FileRequest(FILE_ID))
        expected = [m.message_id for m in store.messages(FILE_ID)]
        assert self.ids(serving.serve(10**9)) == expected

    def test_re_request_while_streaming_rejected(self, serving, user_keys):
        authed(serving, user_keys)
        with pytest.raises(ProtocolError):
            serving.accept_request(FileRequest(OTHER_ID))
        serving.serve(MSG)
        with pytest.raises(ProtocolError):
            serving.accept_request(FileRequest(OTHER_ID))
        assert len(serving.serve(MSG)) == 1  # the open stream is intact

    def test_failed_auth_cannot_be_re_requested(self, serving):
        imposter = generate_keypair(bits=512, seed=666)
        with pytest.raises(ProtocolError):
            DownloadSession(imposter).handshake(serving, FILE_ID)
        for file_id in (FILE_ID, OTHER_ID):
            with pytest.raises(ProtocolError):
                serving.accept_request(FileRequest(file_id))

    def test_fresh_handshake_closes_open_stream(self, serving, store, user_keys):
        authed(serving, user_keys)
        serving.serve(1.5 * MSG)
        authed(serving, user_keys, OTHER_ID)
        assert serving.serve(0.6 * MSG) == []  # no half message carried
        expected = [m.message_id for m in store.messages(OTHER_ID)]
        assert self.ids(serving.serve(10**9)) == expected

    def test_counters_are_cumulative(self, serving, user_keys):
        authed(serving, user_keys)
        serving.serve(2.5 * MSG)
        serving.stop(StopTransmission(FILE_ID))
        serving.accept_request(FileRequest(OTHER_ID))
        serving.serve(10**6)
        assert serving.messages_sent == 2 + PARAMS.k
        assert serving.bytes_sent == pytest.approx(2.5 * MSG + 10**6)
