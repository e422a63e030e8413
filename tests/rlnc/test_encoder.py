"""Unit tests for the file encoder and bundle screening."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF, IncrementalRank, rank
from repro.obs import REGISTRY, observability
from repro.rlnc import CodingParams, FileEncoder
from repro.security import DigestStore

PARAMS = CodingParams(p=16, m=64, file_bytes=1024)  # k = 8


@pytest.fixture
def encoder():
    return FileEncoder(PARAMS, secret=b"owner", file_id=0xABCD)


@pytest.fixture
def data(rng):
    return rng.bytes(1000)


class TestSourceMatrix:
    def test_shape(self, encoder, data):
        X = encoder.source_matrix(data)
        assert X.shape == (PARAMS.k, PARAMS.m)

    def test_too_large_rejected(self, encoder):
        with pytest.raises(ValueError):
            encoder.source_matrix(b"x" * (PARAMS.file_bytes + 1))

    def test_field_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FileEncoder(PARAMS, b"s", 1, field=GF(8))


class TestEncodeMessage:
    def test_equation_1(self, encoder, data):
        """Y_i must equal sum_j beta_ij X_j exactly (Equation (1))."""
        X = encoder.source_matrix(data)
        F = encoder.field
        for mid in (0, 3, 17):
            msg = encoder.encode_message(X, mid)
            beta = encoder.coefficients.row(mid)
            expected = F.zeros(PARAMS.m)
            for j in range(PARAMS.k):
                expected ^= F.mul(beta[j], X[j])
            assert np.array_equal(msg.payload, expected)
            assert msg.file_id == 0xABCD
            assert msg.message_id == mid

    def test_zero_file_encodes_to_zero(self, encoder):
        X = encoder.source_matrix(b"")
        msg = encoder.encode_message(X, 0)
        assert np.all(np.asarray(msg.payload) == 0)

    def test_linearity(self, encoder, rng):
        """Encoding is linear: enc(a ^ b) = enc(a) ^ enc(b)."""
        a = rng.bytes(1024)
        b = rng.bytes(1024)
        ab = bytes(x ^ y for x, y in zip(a, b))
        Xa = encoder.source_matrix(a)
        Xb = encoder.source_matrix(b)
        Xab = encoder.source_matrix(ab)
        ya = encoder.encode_message(Xa, 5).payload
        yb = encoder.encode_message(Xb, 5).payload
        yab = encoder.encode_message(Xab, 5).payload
        assert np.array_equal(np.asarray(ya) ^ np.asarray(yb), yab)


class TestIndependentIds:
    def test_bundles_have_k_ids(self, encoder):
        bundles = encoder.independent_ids(3)
        assert len(bundles) == 3
        assert all(len(b) == PARAMS.k for b in bundles)

    def test_bundles_disjoint_and_increasing(self, encoder):
        bundles = encoder.independent_ids(4)
        flat = [i for b in bundles for i in b]
        assert len(set(flat)) == len(flat)
        assert flat == sorted(flat)

    def test_every_bundle_invertible(self, encoder):
        F = encoder.field
        for ids in encoder.independent_ids(5):
            M = encoder.coefficients.matrix(ids)
            assert rank(F, M) == PARAMS.k

    def test_small_field_bundles_still_invertible(self):
        # GF(2^4) with k = 8: dependent rows are common (k/q = 0.5),
        # so the screening must actually skip some ids.
        params = CodingParams(p=4, m=16, file_bytes=64)
        enc = FileEncoder(params, b"s", 1)
        bundles = enc.independent_ids(200)
        F = enc.field
        for ids in bundles[:20]:  # spot-check invertibility
            assert rank(F, enc.coefficients.matrix(ids)) == params.k
        flat = [i for b in bundles for i in b]
        # Over 200 bundles at q=16 the expected number of rejected
        # candidate ids is ~14; zero rejections would mean the screening
        # is not actually running (P ~ 1e-6).
        assert max(flat) >= len(flat)

    def test_start_id_respected(self, encoder):
        bundles = encoder.independent_ids(1, start_id=1000)
        assert min(bundles[0]) >= 1000


def sequential_ids(encoder, count, start_id):
    """The greedy scan, one candidate row at a time (the reference)."""
    k = encoder.params.k
    bundles, next_id = [], start_id
    for _ in range(count):
        tracker = IncrementalRank(encoder.field, k)
        ids = []
        while len(ids) < k:
            if tracker.offer(encoder.coefficients.row(next_id)):
                ids.append(next_id)
            next_id += 1
        bundles.append(ids)
    return bundles


def params_for(p, k):
    m = 4
    return CodingParams(p=p, m=m, file_bytes=k * m * p // 8)


class TestBatchedScreeningMatchesSequential:
    @given(
        p=st.sampled_from([4, 8, 16, 32]),
        k=st.sampled_from([1, 2, 3, 8, 16]),
        count=st.integers(min_value=0, max_value=24),
        start_id=st.integers(min_value=0, max_value=10**6),
        file_id=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_ids_identical(self, p, k, count, start_id, file_id):
        params = params_for(p, k)
        assert params.k == k
        batched = FileEncoder(params, b"owner", file_id)
        reference = FileEncoder(params, b"owner", file_id)
        assert batched.independent_ids(count, start_id) == sequential_ids(
            reference, count, start_id
        )

    def test_small_field_exercises_fallback(self):
        # GF(2^4), k=8: a random 8x8 block is singular with probability
        # ~7%, so 64 bundles reject candidate rows (P[none] ~ 1e-2 per
        # file id, and this id is pinned), and the result must still be
        # the sequential scan's.
        params = params_for(4, 8)
        batched = FileEncoder(params, b"owner", 3)
        with observability(reset=True):
            bundles = batched.independent_ids(64)
            snap = REGISTRY.snapshot()
        assert bundles == sequential_ids(FileEncoder(params, b"owner", 3), 64, 0)
        flat = [i for b in bundles for i in b]
        rejected = flat[-1] + 1 - len(flat)
        assert rejected >= 1
        fallbacks = snap["repro.rlnc.screen.fallbacks"]["value"]
        assert 1 <= fallbacks <= rejected
        assert snap["repro.rlnc.screen.bundles"]["value"] == 64
        assert snap["repro.rlnc.screen.ns"]["count"] == 1


class TestEncodeBundles:
    def test_structure(self, encoder, data):
        encoded = encoder.encode_bundles(data, n_peers=4)
        assert len(encoded.bundles) == 4
        assert encoded.messages_per_bundle == PARAMS.k
        assert encoded.length == len(data)
        assert len(encoded.all_messages()) == 4 * PARAMS.k

    def test_digests_recorded(self, encoder, data):
        store = DigestStore()
        encoded = encoder.encode_bundles(data, n_peers=3, digest_store=store)
        assert len(store) == 3 * PARAMS.k
        msg = encoded.bundles[1][2]
        assert store.verify(msg.file_id, msg.message_id, msg.payload_bytes())

    def test_needs_at_least_one_peer(self, encoder, data):
        with pytest.raises(ValueError):
            encoder.encode_bundles(data, n_peers=0)

    def test_nk_messages_total(self, encoder, data):
        # Section III-A: nk coded messages for an n-peer network.
        n = 6
        encoded = encoder.encode_bundles(data, n_peers=n)
        assert len(encoded.all_messages()) == n * PARAMS.k

    @pytest.mark.parametrize("p", [4, 16])
    def test_matches_per_bundle_encode_ids(self, p, rng):
        params = params_for(p, 8)
        encoder = FileEncoder(params, b"owner", 9)
        data = rng.bytes(params.file_bytes)
        store = DigestStore()
        encoded = encoder.encode_bundles(data, n_peers=5, digest_store=store,
                                         start_id=40)
        reference = FileEncoder(params, b"owner", 9)
        source = reference.source_matrix(data)
        ref_store = DigestStore()
        for bundle, ids in zip(encoded.bundles, sequential_ids(reference, 5, 40)):
            expected = reference.encode_ids(source, ids)
            assert [m.message_id for m in bundle] == ids
            for got, want in zip(bundle, expected):
                assert np.array_equal(got.payload, want.payload)
                ref_store.record(want.file_id, want.message_id, want.payload_bytes())
        assert store.slice_for_file(9) == ref_store.slice_for_file(9)
        assert list(store.slice_for_file(9)) == list(ref_store.slice_for_file(9))
