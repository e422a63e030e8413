"""Unit tests for the keyed deterministic symbol stream."""

import numpy as np
import pytest

from repro.security import SUPPORTED_SYMBOL_BITS, KeyedStream, derive_key


class TestDeriveKey:
    def test_deterministic(self):
        assert derive_key(b"s", "a", 1) == derive_key(b"s", "a", 1)

    def test_sensitive_to_secret(self):
        assert derive_key(b"s1", "a") != derive_key(b"s2", "a")

    def test_sensitive_to_parts(self):
        assert derive_key(b"s", "a", "b") != derive_key(b"s", "ab")
        assert derive_key(b"s", b"ab", b"c") != derive_key(b"s", b"a", b"bc")

    def test_part_types(self):
        # str parts are UTF-8 encoded (so "1" == b"1"); ints use a fixed
        # 16-byte encoding distinct from their decimal string.
        assert derive_key(b"s", "1") == derive_key(b"s", b"1")
        assert derive_key(b"s", 1) != derive_key(b"s", "1")

    def test_output_is_32_bytes(self):
        assert len(derive_key(b"s", "x")) == 32


class TestKeyedStream:
    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            KeyedStream(b"")

    def test_deterministic_bytes(self):
        s = KeyedStream(b"key")
        assert s.bytes_for("label", 100) == s.bytes_for("label", 100)

    def test_prefix_property(self):
        s = KeyedStream(b"key")
        long = s.bytes_for("label", 200)
        assert s.bytes_for("label", 50) == long[:50]

    def test_labels_independent(self):
        s = KeyedStream(b"key")
        assert s.bytes_for("a", 64) != s.bytes_for("b", 64)

    def test_keys_independent(self):
        assert KeyedStream(b"k1").bytes_for("a", 64) != KeyedStream(b"k2").bytes_for(
            "a", 64
        )

    def test_count_zero(self):
        assert KeyedStream(b"k").bytes_for("a", 0) == b""

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            KeyedStream(b"k").bytes_for("a", -1)


    @pytest.mark.parametrize("label", [0, 7, 2**100, "", "label", b"", b"\x00raw"])
    def test_seed_matches_derive_key(self, label):
        # The stream keys its HMAC once and copies it per label; the
        # seed must stay derive_key(key, label) for every label type.
        s = KeyedStream(b"key")
        assert s._seed(label) == derive_key(b"key", label)

    def test_stream_pinned(self):
        # Coefficient rows (and so message ids and payloads) are derived
        # from this stream; its bytes are part of the on-disk format.
        s = KeyedStream(b"pinned-key")
        assert s.bytes_for(7, 40).hex() == (
            "3222de38ca3e53d3b09689a2de603edbb5a3db57393cac65"
            "5f291f12e6edc441eabdd06d54c82003"
        )
        assert s.bytes_for("label", 40).hex() == (
            "f5be9405832c683666a60a151c222a0441f44d938226cdc2"
            "89d3416c711945b34573c285d21a90cc"
        )
        assert s.bytes_for(b"\x00raw", 40).hex() == (
            "d318046f7921001281cf3e4fa3d189d39901f917fd97019a"
            "185c6310f8dc03295d2c7d03cb8e2632"
        )


class TestSymbols:
    @pytest.mark.parametrize("bits", SUPPORTED_SYMBOL_BITS)
    def test_count_and_range(self, bits):
        s = KeyedStream(b"key")
        out = s.symbols("lbl", 1000, bits)
        assert out.shape == (1000,)
        assert out.dtype == np.uint32
        assert int(out.max()) < (1 << bits)

    def test_odd_count_nibbles(self):
        s = KeyedStream(b"key")
        assert s.symbols("lbl", 7, 4).shape == (7,)

    def test_unsupported_width(self):
        with pytest.raises(ValueError):
            KeyedStream(b"k").symbols("a", 10, 12)

    @pytest.mark.parametrize("bits", SUPPORTED_SYMBOL_BITS)
    def test_roughly_uniform(self, bits):
        s = KeyedStream(b"key")
        out = s.symbols("uniform", 4000, bits).astype(np.float64)
        mean = out.mean() / ((1 << bits) - 1)
        assert 0.45 < mean < 0.55

    def test_deterministic(self):
        a = KeyedStream(b"key").symbols("x", 32, 16)
        b = KeyedStream(b"key").symbols("x", 32, 16)
        assert np.array_equal(a, b)


class TestFloats:
    def test_unit_interval(self):
        out = KeyedStream(b"key").floats("f", 500)
        assert np.all(out >= 0.0) and np.all(out < 1.0)

    def test_mean_near_half(self):
        out = KeyedStream(b"key").floats("f", 5000)
        assert 0.47 < out.mean() < 0.53


class TestSymbolsMany:
    @pytest.mark.parametrize("bits", [4, 8, 16, 32])
    @pytest.mark.parametrize("count", [1, 5, 7, 32])
    def test_identical_to_per_label_calls(self, bits, count):
        s = KeyedStream(b"key")
        labels = [0, 3, "x", 2**40, b"raw"]
        batch = s.symbols_many(labels, count, bits)
        singles = np.stack([s.symbols(lab, count, bits) for lab in labels])
        assert batch.tobytes() == singles.tobytes()

    def test_empty_labels(self):
        out = KeyedStream(b"key").symbols_many([], 9, 8)
        assert out.shape == (0, 9)
        assert out.dtype == np.uint32

    def test_unsupported_width_rejected(self):
        with pytest.raises(ValueError):
            KeyedStream(b"key").symbols_many([1], 4, 12)
