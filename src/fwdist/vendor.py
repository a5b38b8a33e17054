"""Vendor-side firmware preparation: linear chunking, signed manifests,
per-chunk truncated HMAC tags, and the versioned repository.

Chunks are fixed length except the last, so receivers reassemble by offset
without ordering state. Tags bind the base name and chunk index in addition
to the payload, which defeats cross-image and reordering splices; they are
recomputable from the pre-shared class key and are never persisted.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .naming import BaseName

TRUNCATION_LENGTHS = (8, 16, 32)
SIGNATURE_BYTES = 64
DIGEST_BYTES = 32


class EmptyImage(ValueError):
    pass


class InvalidChunkSize(ValueError):
    pass


class InvalidTruncation(ValueError):
    pass


class InconsistentPublication(ValueError):
    pass


class DuplicateEpoch(ValueError):
    pass


class MalformedManifest(ValueError):
    pass


class InvalidSigningKey(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class FirmwareImage:
    data: bytes
    device_class: str
    epoch: int

    def __post_init__(self) -> None:
        if len(self.data) == 0:
            raise EmptyImage("firmware images must be non-empty")


@dataclass(frozen=True, slots=True)
class Chunk:
    index: int
    payload: bytes
    tag: bytes


def chunk_image(image: FirmwareImage, chunk_size: int) -> list[bytes]:
    """Split an image into fixed-length payloads; the last one may be short."""
    if chunk_size <= 0:
        raise InvalidChunkSize(f"chunk size must be positive, got {chunk_size}")
    data = image.data
    return [data[off : off + chunk_size] for off in range(0, len(data), chunk_size)]


def _encode_component(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw


@lru_cache(maxsize=1024)
def _tag_prefix(base: BaseName) -> bytes:
    """The part of a tagged message that depends on the base name only."""
    return (
        _encode_component(base.deployment)
        + _encode_component(base.vendor)
        + _encode_component(base.device_class)
        + struct.pack(">Q", base.epoch)
    )


@lru_cache(maxsize=1024)
def _keyed_hmac(psk: bytes):
    """HMAC-SHA256 state with the key absorbed; callers update a copy, never this."""
    return hmac.new(psk, None, hashlib.sha256)


def tag_chunk(base: BaseName, index: int, payload: bytes, psk: bytes, trunc_len: int = 8) -> bytes:
    """Truncated HMAC-SHA256 over (base name, index, payload).

    The message is the base name's components, each length-prefixed, then the
    epoch as 8 and the index as 4 big-endian bytes, then the payload.
    """
    if trunc_len not in TRUNCATION_LENGTHS:
        raise InvalidTruncation(f"truncation length must be one of {TRUNCATION_LENGTHS}")
    mac = _keyed_hmac(psk).copy()
    mac.update(_tag_prefix(base) + struct.pack(">I", index) + payload)
    return mac.digest()[:trunc_len]


def make_chunks(
    image: FirmwareImage, base: BaseName, chunk_size: int, psk: bytes, trunc_len: int = 8
) -> list[Chunk]:
    payloads = chunk_image(image, chunk_size)
    return [
        Chunk(i, payload, tag_chunk(base, i, payload, psk, trunc_len))
        for i, payload in enumerate(payloads)
    ]


# ---------------------------------------------------------------------------
# manifest


@dataclass(frozen=True, slots=True)
class Manifest:
    base: BaseName
    image_size: int
    image_digest: bytes
    chunk_size: int
    chunk_count: int
    signature: bytes

    def body(self) -> bytes:
        """Deterministic field-ordered encoding of everything but the signature."""
        return (
            _encode_component(self.base.deployment)
            + _encode_component(self.base.vendor)
            + _encode_component(self.base.device_class)
            + struct.pack(
                ">QQ", self.base.epoch, self.image_size
            )
            + self.image_digest
            + struct.pack(">II", self.chunk_size, self.chunk_count)
        )

    def to_bytes(self) -> bytes:
        return self.body() + self.signature

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Manifest":
        try:
            offset = 0
            comps = []
            for _ in range(3):
                (n,) = struct.unpack_from(">H", raw, offset)
                offset += 2
                comps.append(raw[offset : offset + n].decode("utf-8"))
                offset += n
            epoch, image_size = struct.unpack_from(">QQ", raw, offset)
            offset += 16
            digest = raw[offset : offset + DIGEST_BYTES]
            offset += DIGEST_BYTES
            chunk_size, chunk_count = struct.unpack_from(">II", raw, offset)
            offset += 8
            signature = raw[offset : offset + SIGNATURE_BYTES]
            if len(digest) != DIGEST_BYTES or len(signature) != SIGNATURE_BYTES:
                raise MalformedManifest("truncated manifest")
            if len(raw) != offset + SIGNATURE_BYTES:
                raise MalformedManifest("trailing bytes after manifest")
            base = BaseName(comps[0], comps[1], comps[2], epoch)
            return cls(base, image_size, digest, chunk_size, chunk_count, signature)
        except (struct.error, UnicodeDecodeError, ValueError) as exc:
            raise MalformedManifest(str(exc)) from exc

    def verify(self, public_key: Ed25519PublicKey) -> bool:
        try:
            public_key.verify(self.signature, self.body())
            return True
        except InvalidSignature:
            return False


def image_digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def build_manifest(
    image: FirmwareImage,
    chunk_size: int,
    signing_key: Ed25519PrivateKey,
    deployment: str,
    vendor: str,
) -> Manifest:
    """Chunk-parameterize and sign the metadata for one firmware version."""
    payloads = chunk_image(image, chunk_size)
    base = BaseName(deployment, vendor, image.device_class, image.epoch)
    unsigned = Manifest(
        base=base,
        image_size=len(image.data),
        image_digest=image_digest(image.data),
        chunk_size=chunk_size,
        chunk_count=len(payloads),
        signature=b"\x00" * SIGNATURE_BYTES,
    )
    signature = signing_key.sign(unsigned.body())
    return Manifest(
        base, unsigned.image_size, unsigned.image_digest, chunk_size, len(payloads), signature
    )


def signing_key_from_seed(seed: bytes) -> Ed25519PrivateKey:
    if len(seed) != 32:
        raise InvalidSigningKey(f"Ed25519 seeds are 32 bytes, got {len(seed)}")
    return Ed25519PrivateKey.from_private_bytes(seed)


# ---------------------------------------------------------------------------
# repository


@dataclass(slots=True)
class Publication:
    manifest: Manifest
    chunks: list[Chunk]


class Repository:
    """Versioned firmware store keyed by (deployment, vendor, class) and epoch."""

    def __init__(self):
        self._store: dict[tuple[str, str, str], dict[int, Publication]] = {}

    def publish(self, manifest: Manifest, chunks: list[Chunk], psk: bytes | None = None) -> None:
        expected_count = -(-manifest.image_size // manifest.chunk_size)
        if manifest.chunk_count != expected_count or len(chunks) != manifest.chunk_count:
            raise InconsistentPublication(
                f"chunk count {len(chunks)} does not match manifest {manifest.chunk_count}"
            )
        total = 0
        for i, chunk in enumerate(chunks):
            if chunk.index != i:
                raise InconsistentPublication(f"chunk {i} carries index {chunk.index}")
            expected_len = (
                manifest.chunk_size
                if i < manifest.chunk_count - 1
                else manifest.image_size - manifest.chunk_size * (manifest.chunk_count - 1)
            )
            if len(chunk.payload) != expected_len:
                raise InconsistentPublication(f"chunk {i} has length {len(chunk.payload)}")
            if psk is not None:
                trunc = len(chunk.tag)
                if chunk.tag != tag_chunk(manifest.base, i, chunk.payload, psk, trunc):
                    raise InconsistentPublication(f"chunk {i} tag does not verify")
            total += len(chunk.payload)
        if total != manifest.image_size:
            raise InconsistentPublication("payload total does not match image size")
        versions = self._store.setdefault(manifest.base.class_key(), {})
        if manifest.base.epoch in versions:
            raise DuplicateEpoch(f"epoch {manifest.base.epoch} already published")
        versions[manifest.base.epoch] = Publication(manifest, list(chunks))

    def lookup_manifest(self, base: BaseName) -> Manifest | None:
        pub = self._store.get(base.class_key(), {}).get(base.epoch)
        return pub.manifest if pub else None

    def lookup_chunk(self, base: BaseName, index: int) -> Chunk | None:
        pub = self._store.get(base.class_key(), {}).get(base.epoch)
        if pub is None or not 0 <= index < len(pub.chunks):
            return None
        return pub.chunks[index]

    def epochs(self, class_key: tuple[str, str, str]) -> list[int]:
        return sorted(self._store.get(class_key, {}))


# ---------------------------------------------------------------------------
# on-disk layout: <repo>/<deployment>/<vendor>/<class>/<epoch>/
#   manifest.bin   signed manifest encoding
#   chunks.bin     fixed-length payload records (last record zero-padded)


def publication_dir(root: Path, base: BaseName) -> Path:
    return Path(root) / base.deployment / base.vendor / base.device_class / str(base.epoch)


def write_publication(root: Path, manifest: Manifest, chunks: list[Chunk]) -> Path:
    out = publication_dir(root, manifest.base)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.bin").write_bytes(manifest.to_bytes())
    records = bytearray()
    for chunk in chunks:
        records += chunk.payload
        records += b"\x00" * (manifest.chunk_size - len(chunk.payload))
    (out / "chunks.bin").write_bytes(bytes(records))
    return out


def read_publication(root: Path, base: BaseName, psk: bytes, vendor_key: Ed25519PublicKey,
                     trunc_len: int = 8) -> Publication:
    """Load a publication; tags are recomputed from the class key.

    Raises InconsistentPublication if ``chunks.bin`` does not hold exactly
    ``chunk_count`` records of ``chunk_size`` bytes, if the image they hold
    does not match the manifest's digest, or if the manifest's signature does
    not verify under ``vendor_key``.
    """
    src = publication_dir(root, base)
    manifest = Manifest.from_bytes((src / "manifest.bin").read_bytes())
    records = (src / "chunks.bin").read_bytes()
    size = manifest.chunk_size
    if size <= 0 or manifest.chunk_count != -(-manifest.image_size // size):
        raise InconsistentPublication("manifest chunk count does not match its image size")
    if len(records) != manifest.chunk_count * size:
        raise InconsistentPublication(
            f"chunks.bin holds {len(records)} bytes, expected {manifest.chunk_count * size}"
        )
    image = records[: manifest.image_size]
    if image_digest(image) != manifest.image_digest:
        raise InconsistentPublication("chunks.bin does not match the manifest's image digest")
    if not manifest.verify(vendor_key):
        raise InconsistentPublication("manifest signature does not verify under the vendor key")
    chunks = []
    for i in range(manifest.chunk_count):
        payload = image[i * size : (i + 1) * size]
        chunks.append(Chunk(i, payload, tag_chunk(manifest.base, i, payload, psk, trunc_len)))
    return Publication(manifest, chunks)
