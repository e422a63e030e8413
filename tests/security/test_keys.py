"""Unit tests for RSA key material."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.security import generate_keypair, is_probable_prime


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 97, 101, 65537):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 9, 91, 561, 65535):
            assert not is_probable_prime(n), n

    def test_carmichael(self):
        # 561, 1105, 1729 are Carmichael numbers (fool Fermat, not MR).
        for n in (561, 1105, 1729):
            assert not is_probable_prime(n)

    def test_large_known_prime(self):
        assert is_probable_prime(2**127 - 1)  # Mersenne prime
        assert not is_probable_prime(2**128 - 1)


class TestKeyGeneration:
    def test_deterministic_with_seed(self):
        a = generate_keypair(bits=256, seed=7)
        b = generate_keypair(bits=256, seed=7)
        assert a.public.n == b.public.n

    def test_different_seeds_differ(self):
        assert (
            generate_keypair(bits=256, seed=1).public.n
            != generate_keypair(bits=256, seed=2).public.n
        )

    def test_modulus_size(self):
        kp = generate_keypair(bits=256, seed=3)
        assert 250 <= kp.public.n.bit_length() <= 257

    def test_tiny_keys_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(bits=32)


class TestSignVerify:
    @pytest.fixture(scope="class")
    def kp(self):
        return generate_keypair(bits=512, seed=42)

    def test_roundtrip(self, kp):
        sig = kp.private.sign(b"hello world")
        assert kp.public.verify(b"hello world", sig)

    def test_wrong_message_fails(self, kp):
        sig = kp.private.sign(b"hello")
        assert not kp.public.verify(b"HELLO", sig)

    def test_wrong_key_fails(self, kp):
        other = generate_keypair(bits=512, seed=43)
        sig = kp.private.sign(b"msg")
        assert not other.public.verify(b"msg", sig)

    def test_out_of_range_signature(self, kp):
        assert not kp.public.verify(b"msg", 0)
        assert not kp.public.verify(b"msg", kp.public.n)

    def test_signature_deterministic(self, kp):
        assert kp.private.sign(b"m") == kp.private.sign(b"m")


class TestCRT:
    @settings(max_examples=16, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        bits=st.sampled_from([64, 128, 512, 1024]),
        message=st.binary(max_size=64),
        value=st.integers(min_value=0),
    )
    def test_matches_textbook_rsa(self, seed, bits, message, value):
        private = generate_keypair(bits=bits, seed=seed).private
        digest = int.from_bytes(hashlib.sha256(message).digest(), "big")
        n, d = private.n, private.d
        assert private.sign(message) == pow(digest % n, d, n)
        x = value % n
        assert private.decrypt(pow(x, private.e, n)) == x

    def test_faulty_half_raises_instead_of_signing(self):
        private = generate_keypair(bits=512, seed=42).private
        faulty = dataclasses.replace(private, dp=private.dp ^ 1)
        with pytest.raises(ArithmeticError):
            faulty.sign(b"challenge")
        assert private.sign(b"challenge")  # the intact key still signs


class TestEncryptDecrypt:
    @pytest.fixture(scope="class")
    def kp(self):
        return generate_keypair(bits=512, seed=11)

    def test_roundtrip(self, kp):
        value = 123456789
        assert kp.private.decrypt(kp.public.encrypt(value)) == value

    def test_range_enforced(self, kp):
        with pytest.raises(ValueError):
            kp.public.encrypt(kp.public.n)
        with pytest.raises(ValueError):
            kp.private.decrypt(-1)


class TestFingerprint:
    def test_stable_and_short(self):
        kp = generate_keypair(bits=256, seed=5)
        fp = kp.public.fingerprint()
        assert fp == kp.public.fingerprint()
        assert len(fp) == 16

    def test_distinct_keys_distinct_fp(self):
        a = generate_keypair(bits=256, seed=5)
        b = generate_keypair(bits=256, seed=6)
        assert a.public.fingerprint() != b.public.fingerprint()
