"""Chunk-level file updates (Section VI future work).

In the paper's base design "modifications have to be re-encoded and
re-transmitted to the network" — wholesale.  Because chunks are encoded
independently (Section III-D), the natural refinement implemented here
re-encodes **only the chunks whose content changed**: the owner keeps a
per-chunk content hash in a versioned manifest, diffs a new file version
against it, bumps only the dirty chunks' versions (which rotates their
file-ids and per-version coefficient secrets), and uploads replacement
bundles for exactly those chunks.  For a one-byte edit of a large file
this cuts the re-initialization upload from the whole file to a single
chunk's bundles.

The version is folded into both the chunk id (so stale peer messages
can never be confused with fresh ones) and the coefficient sub-secret
(so coefficients are never reused across versions of the same chunk —
reuse would let an observer XOR two ciphertext generations and learn
the plaintext delta).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..gf import GF, BinaryField
from ..security.integrity import DigestStore
from ..security.prng import derive_key
from .chunking import FileManifest, derive_chunk_id, split_chunks
from .coefficients import CoefficientGenerator
from .decoder import ProgressiveDecoder
from .encoder import EncodedFile, FileEncoder
from .message import EncodedMessage
from .params import CodingParams

__all__ = ["VersionedManifest", "UpdateResult", "VersionedEncoder"]


class _ManifestBound:
    """Couples a :class:`VersionedEncoder` to one manifest version."""

    def __init__(self, encoder: "VersionedEncoder", manifest: "VersionedManifest"):
        self._encoder = encoder
        self._manifest = manifest

    def coefficient_generator(self, index: int):
        return self._encoder.coefficient_generator_for(self._manifest, index)


def _chunk_hash(chunk: bytes) -> bytes:
    return hashlib.sha256(chunk).digest()


def _versioned_chunk_id(base_file_id: int, index: int, version: int) -> int:
    """Chunk file-id for a given content version.

    Version 0 matches :func:`~repro.rlnc.chunking.derive_chunk_id`, so a
    never-updated file is wire-identical to the plain chunked encoding.
    """
    if version == 0:
        return derive_chunk_id(base_file_id, index)
    material = (
        base_file_id.to_bytes(8, "big")
        + index.to_bytes(8, "big")
        + version.to_bytes(8, "big")
    )
    return int.from_bytes(hashlib.sha256(b"v" + material).digest()[:8], "big")


@dataclass(frozen=True)
class VersionedManifest:
    """A :class:`FileManifest` plus per-chunk version and content hash."""

    base_file_id: int
    total_length: int
    chunk_bytes: int
    p: int
    m: int
    version: int
    chunk_versions: tuple[int, ...]
    chunk_lengths: tuple[int, ...]
    chunk_hashes: tuple[bytes, ...]

    def __post_init__(self):
        if not (
            len(self.chunk_versions)
            == len(self.chunk_lengths)
            == len(self.chunk_hashes)
        ):
            raise ValueError("per-chunk fields must align")
        if sum(self.chunk_lengths) != self.total_length:
            raise ValueError("chunk lengths do not sum to the total length")

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_versions)

    @property
    def chunk_ids(self) -> tuple[int, ...]:
        return tuple(
            _versioned_chunk_id(self.base_file_id, i, v)
            for i, v in enumerate(self.chunk_versions)
        )

    def manifest(self) -> FileManifest:
        """The plain manifest view used by streaming decoders."""
        return FileManifest(
            base_file_id=self.base_file_id,
            total_length=self.total_length,
            chunk_bytes=self.chunk_bytes,
            p=self.p,
            m=self.m,
            chunk_ids=self.chunk_ids,
            chunk_lengths=self.chunk_lengths,
        )

    def to_dict(self) -> dict:
        return {
            "base_file_id": self.base_file_id,
            "total_length": self.total_length,
            "chunk_bytes": self.chunk_bytes,
            "p": self.p,
            "m": self.m,
            "version": self.version,
            "chunk_versions": list(self.chunk_versions),
            "chunk_lengths": list(self.chunk_lengths),
            "chunk_hashes": [h.hex() for h in self.chunk_hashes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VersionedManifest":
        return cls(
            base_file_id=data["base_file_id"],
            total_length=data["total_length"],
            chunk_bytes=data["chunk_bytes"],
            p=data["p"],
            m=data["m"],
            version=data["version"],
            chunk_versions=tuple(data["chunk_versions"]),
            chunk_lengths=tuple(data["chunk_lengths"]),
            chunk_hashes=tuple(bytes.fromhex(h) for h in data["chunk_hashes"]),
        )


@dataclass(frozen=True)
class UpdateResult:
    """What an update produced and what it avoided re-sending."""

    manifest: VersionedManifest
    #: Replacement bundles, keyed by chunk index (only dirty chunks).
    reencoded: dict[int, EncodedFile]
    #: Chunk ids whose stored messages peers should now drop.
    stale_chunk_ids: tuple[int, ...]
    changed_chunks: tuple[int, ...]
    unchanged_chunks: tuple[int, ...]
    upload_bytes: int
    full_reencode_bytes: int

    @property
    def upload_savings(self) -> float:
        """Fraction of the naive full re-encode upload avoided."""
        if self.full_reencode_bytes == 0:
            return 0.0
        return 1.0 - self.upload_bytes / self.full_reencode_bytes


class VersionedEncoder:
    """Owner-side encoder with chunk-level incremental updates."""

    def __init__(
        self,
        params: CodingParams,
        secret: bytes,
        base_file_id: int,
        field: BinaryField | None = None,
    ):
        self.params = params
        self.secret = secret
        self.base_file_id = base_file_id
        self.field = field if field is not None else GF(params.p)

    # -- secrets and generators ------------------------------------------

    def _chunk_secret(self, index: int, version: int) -> bytes:
        if version == 0:
            # Wire-compatible with ChunkedEncoder for never-updated files.
            return derive_key(self.secret, "chunk", index)
        return derive_key(self.secret, "chunk", index, "version", version)

    def _encoder_for(self, index: int, version: int) -> FileEncoder:
        return FileEncoder(
            self.params,
            self._chunk_secret(index, version),
            _versioned_chunk_id(self.base_file_id, index, version),
            field=self.field,
        )

    def coefficient_generator_for(
        self, manifest: VersionedManifest, index: int
    ) -> CoefficientGenerator:
        version = manifest.chunk_versions[index]
        return CoefficientGenerator(
            self.field,
            self.params.k,
            self._chunk_secret(index, version),
            _versioned_chunk_id(self.base_file_id, index, version),
        )

    def source_matrix_for(
        self, manifest: VersionedManifest, chunk_data: bytes, chunk_index: int
    ):
        """The ``k x m`` source matrix of one chunk at the manifest's
        version — what the owner needs to recompute repaired payloads
        locally for digest registration (see
        :func:`repro.repair.recombine.register_repair_digests`)."""
        version = manifest.chunk_versions[chunk_index]
        return self._encoder_for(chunk_index, version).source_matrix(chunk_data)

    # -- publish / update --------------------------------------------------

    def publish(
        self, data: bytes, n_peers: int, digest_store: DigestStore | None = None
    ) -> tuple[VersionedManifest, list[EncodedFile]]:
        """Version-0 encoding of the whole file."""
        chunks = split_chunks(data, self.params.file_bytes)
        encoded = [
            self._encoder_for(i, 0).encode_bundles(chunk, n_peers, digest_store)
            for i, chunk in enumerate(chunks)
        ]
        manifest = VersionedManifest(
            base_file_id=self.base_file_id,
            total_length=len(data),
            chunk_bytes=self.params.file_bytes,
            p=self.params.p,
            m=self.params.m,
            version=0,
            chunk_versions=tuple(0 for _ in chunks),
            chunk_lengths=tuple(len(c) for c in chunks),
            chunk_hashes=tuple(_chunk_hash(c) for c in chunks),
        )
        return manifest, encoded

    def update(
        self,
        old: VersionedManifest,
        new_data: bytes,
        n_peers: int,
        digest_store: DigestStore | None = None,
    ) -> UpdateResult:
        """Re-encode only the chunks whose content changed.

        Handles growth (new chunks appended), shrinkage (trailing chunks
        retired), and in-place edits.  Every touched chunk gets version
        ``old.version + 1``; untouched chunks keep their version, id and
        peer-stored messages.
        """
        if old.base_file_id != self.base_file_id:
            raise ValueError("manifest belongs to a different file")
        new_chunks = split_chunks(new_data, self.params.file_bytes)
        new_version = old.version + 1
        versions: list[int] = []
        changed: list[int] = []
        unchanged: list[int] = []
        reencoded: dict[int, EncodedFile] = {}
        stale: list[int] = []
        upload_bytes = 0

        for i, chunk in enumerate(new_chunks):
            same = (
                i < old.n_chunks
                and old.chunk_lengths[i] == len(chunk)
                and old.chunk_hashes[i] == _chunk_hash(chunk)
            )
            if same:
                versions.append(old.chunk_versions[i])
                unchanged.append(i)
                continue
            versions.append(new_version)
            changed.append(i)
            if i < old.n_chunks:
                stale.append(_versioned_chunk_id(
                    self.base_file_id, i, old.chunk_versions[i]
                ))
            encoded = self._encoder_for(i, new_version).encode_bundles(
                chunk, n_peers, digest_store
            )
            reencoded[i] = encoded
            upload_bytes += sum(
                m.wire_size() for bundle in encoded.bundles for m in bundle
            )

        # Trailing chunks removed by shrinkage become stale.
        for i in range(len(new_chunks), old.n_chunks):
            stale.append(
                _versioned_chunk_id(self.base_file_id, i, old.chunk_versions[i])
            )

        manifest = VersionedManifest(
            base_file_id=self.base_file_id,
            total_length=len(new_data),
            chunk_bytes=self.params.file_bytes,
            p=self.params.p,
            m=self.params.m,
            version=new_version,
            chunk_versions=tuple(versions),
            chunk_lengths=tuple(len(c) for c in new_chunks),
            chunk_hashes=tuple(_chunk_hash(c) for c in new_chunks),
        )
        per_message = EncodedMessage(
            file_id=0, message_id=0,
            payload=self.field.zeros(self.params.m), p=self.params.p,
        ).wire_size()
        full = len(new_chunks) * n_peers * self.params.k * per_message
        return UpdateResult(
            manifest=manifest,
            reencoded=reencoded,
            stale_chunk_ids=tuple(stale),
            changed_chunks=tuple(changed),
            unchanged_chunks=tuple(unchanged),
            upload_bytes=upload_bytes,
            full_reencode_bytes=full,
        )

    def reseed_bundle(
        self,
        manifest: VersionedManifest,
        chunk_data: bytes,
        chunk_index: int,
        start_id: int,
        digest_store: DigestStore | None = None,
    ) -> tuple[EncodedMessage, ...]:
        """Regenerate one fresh decodable bundle for a chunk.

        Because coded messages are interchangeable, a peer that lost its
        cache (disk failure, churn) is repaired by simply generating a
        *new* bundle of ``k`` messages under unused ids — no need to
        remember or reproduce what the lost peer held.  ``start_id``
        must be beyond every id previously issued for this chunk so the
        fresh rows are (almost surely) new linear combinations.
        """
        version = manifest.chunk_versions[chunk_index]
        encoder = self._encoder_for(chunk_index, version)
        return encoder.encode_bundles(
            chunk_data, 1, digest_store, start_id=start_id
        ).bundles[0]

    # -- decode -------------------------------------------------------------

    def bound(self, manifest: VersionedManifest) -> "_ManifestBound":
        """Adapter usable wherever a :class:`ChunkedEncoder` feeds a
        :class:`~repro.rlnc.chunking.StreamingDecoder` (same
        ``coefficient_generator(index)`` interface, pinned to one
        manifest version)."""
        return _ManifestBound(self, manifest)

    def decoders_for(
        self, manifest: VersionedManifest, digest_store: DigestStore | None = None
    ) -> list[ProgressiveDecoder]:
        """One progressive decoder per chunk of the given version."""
        return [
            ProgressiveDecoder(
                CodingParams(
                    p=manifest.p, m=manifest.m, file_bytes=manifest.chunk_bytes
                ),
                self.coefficient_generator_for(manifest, i),
                digest_store=digest_store,
            )
            for i in range(manifest.n_chunks)
        ]

    def decode_all(
        self,
        manifest: VersionedManifest,
        messages,
        digest_store: DigestStore | None = None,
    ) -> bytes:
        """Convenience: decode a whole versioned file from a message pool."""
        decoders = self.decoders_for(manifest, digest_store)
        by_id = {cid: d for cid, d in zip(manifest.chunk_ids, decoders)}
        for msg in messages:
            decoder = by_id.get(msg.file_id)
            if decoder is not None and not decoder.is_complete:
                decoder.offer(msg)
        parts = []
        for i, decoder in enumerate(decoders):
            parts.append(decoder.result(manifest.chunk_lengths[i]))
        return b"".join(parts)
