"""Pure-Python RSA key material for the challenge-response handshake.

Section III-B authenticates a downloading user to a serving peer "using
a classic public-key challenge response system".  The paper does not fix
a primitive, so we implement textbook RSA signatures over hashed
challenges — enough to exercise the exact protocol code path.  Key sizes
are configurable; tests use small keys for speed, and nothing in the
protocol depends on the size.

Private-key operations (signing and decryption) use the Chinese
remainder theorem: :func:`generate_keypair` keeps the factors ``p`` and
``q`` with ``d mod (p-1)``, ``d mod (q-1)`` and ``q^-1 mod p``, so one
``x^d mod n`` becomes two half-size exponentiations recombined by
Garner's formula — about 2.7x faster at 512 bits, with results
bit-identical to ``pow(x, d, n)``.  A CRT signature computed with one faulty half lets
anyone who sees it factor ``n`` (Boneh-DeMillo-Lipton), so
:meth:`PrivateKey.sign` re-checks every signature with the public
exponent before releasing it and raises instead of returning a bad one.

This module is a *substrate for the reproduction*, not a hardened
cryptographic library: it implements the textbook algorithms faithfully
(Miller-Rabin generation, hashed-message signatures) but skips padding
schemes (OAEP/PSS) that a production deployment would add.
"""

from __future__ import annotations

import hashlib
import secrets
import struct
from dataclasses import dataclass

from .prng import derive_key

__all__ = [
    "PublicKey",
    "PrivateKey",
    "KeyPair",
    "generate_keypair",
    "is_probable_prime",
]

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)


def is_probable_prime(n: int, rounds: int = 40, rand=None) -> bool:
    """Miller-Rabin primality test with ``rounds`` random witnesses."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rand = rand if rand is not None else secrets.SystemRandom()
    for _ in range(rounds):
        a = rand.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


class _KeyedRandom:
    """The slice of the ``random.Random`` API key generation needs,
    drawn from a keyed SHA-256 counter stream.

    Seeded key generation must be replayable *and* come from the
    repository's one keyed entropy construction (the same counter-mode
    stream as :mod:`repro.security.prng`), not from stdlib ``random`` —
    Mersenne Twister output is predictable from its own history, which
    is exactly the wrong primitive to grow RSA primes from.
    """

    def __init__(self, key: bytes):
        self._key = key
        self._counter = 0
        self._buffer = b""

    def _take(self, count: int) -> bytes:
        while len(self._buffer) < count:
            self._buffer += hashlib.sha256(
                self._key + struct.pack(">Q", self._counter)
            ).digest()
            self._counter += 1
        out, self._buffer = self._buffer[:count], self._buffer[count:]
        return out

    def getrandbits(self, k: int) -> int:
        if k <= 0:
            raise ValueError(f"number of bits must be positive, got {k}")
        nbytes = (k + 7) // 8
        return int.from_bytes(self._take(nbytes), "big") >> (nbytes * 8 - k)

    def randrange(self, start: int, stop: int | None = None) -> int:
        if stop is None:
            start, stop = 0, start
        span = stop - start
        if span <= 0:
            raise ValueError(f"empty range for randrange ({start}, {stop})")
        k = span.bit_length()
        while True:  # rejection sampling keeps the draw exactly uniform
            value = self.getrandbits(k)
            if value < span:
                return start + value


def _random_prime(bits: int, rand) -> int:
    while True:
        candidate = rand.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rand=rand):
            return candidate


@dataclass(frozen=True)
class PublicKey:
    """RSA public key ``(n, e)``; verifies signatures and encrypts."""

    n: int
    e: int

    def verify(self, message: bytes, signature: int) -> bool:
        """Check a signature over ``SHA256(message)``."""
        if not 0 < signature < self.n:
            return False
        digest = int.from_bytes(hashlib.sha256(message).digest(), "big") % self.n
        return pow(signature, self.e, self.n) == digest

    def encrypt(self, value: int) -> int:
        if not 0 <= value < self.n:
            raise ValueError("plaintext out of range for this modulus")
        return pow(value, self.e, self.n)

    def fingerprint(self) -> str:
        """Short stable identifier for logging and peer directories."""
        material = self.n.to_bytes((self.n.bit_length() + 7) // 8, "big")
        return hashlib.sha256(material).hexdigest()[:16]


@dataclass(frozen=True)
class PrivateKey:
    """RSA private key ``(n, d)`` with its CRT components; signs and
    decrypts.

    Built by :func:`generate_keypair`, the one place the factors are
    known.  ``e`` is kept for the fault check on signatures.
    """

    n: int
    d: int
    e: int
    p: int
    q: int
    dp: int  # d mod (p - 1)
    dq: int  # d mod (q - 1)
    q_inv: int  # q^-1 mod p

    def _power(self, value: int) -> int:
        """``value^d mod n`` by CRT: exponentiate mod ``p`` and mod ``q``
        and recombine (Garner)."""
        mp = pow(value, self.dp, self.p)
        mq = pow(value, self.dq, self.q)
        return mq + self.q * ((self.q_inv * (mp - mq)) % self.p)

    def sign(self, message: bytes) -> int:
        digest = int.from_bytes(hashlib.sha256(message).digest(), "big") % self.n
        signature = self._power(digest)
        if pow(signature, self.e, self.n) != digest:
            # Releasing a faulty CRT signature would reveal a factor of n.
            raise ArithmeticError("CRT signature failed its public-key check")
        return signature

    def decrypt(self, value: int) -> int:
        if not 0 <= value < self.n:
            raise ValueError("ciphertext out of range for this modulus")
        return self._power(value)


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    private: PrivateKey


def generate_keypair(bits: int = 1024, seed: int | None = None) -> KeyPair:
    """Generate an RSA key pair with modulus of roughly ``bits`` bits.

    ``seed`` makes generation deterministic (tests and reproducible
    simulations) by keying a SHA-256 counter stream from it; production
    use leaves it ``None`` for OS entropy.
    """
    if bits < 64:
        raise ValueError(f"modulus too small to be meaningful: {bits} bits")
    if seed is not None:
        key = derive_key(b"repro.security.keys", "rsa-keygen", str(seed))
        rand = _KeyedRandom(key)
    else:
        rand = secrets.SystemRandom()
    e = 65537
    while True:
        p = _random_prime(bits // 2, rand)
        q = _random_prime(bits - bits // 2, rand)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        n = p * q
        d = pow(e, -1, phi)
        private = PrivateKey(
            n, d, e, p, q,
            dp=d % (p - 1), dq=d % (q - 1), q_inv=pow(q, -1, p),
        )
        return KeyPair(PublicKey(n, e), private)
