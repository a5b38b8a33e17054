"""Vendor-side firmware preparation: linear chunking, signed manifests,
per-chunk truncated HMAC tags, and the versioned repository.

Chunks are fixed length except the last, so receivers reassemble by offset
without ordering state. Tags bind the base name and chunk index in addition
to the payload, which defeats cross-image and reordering splices; they are
recomputable from the pre-shared class key and are never persisted.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .naming import CHUNK, BaseName, FirmwareName, MalformedName
from .packets import Data, HmacTag, ManifestSignature

TRUNCATION_LENGTHS = (8, 16, 32)
MIN_PSK_BYTES = 32  # RFC 2104, section 3: no shorter than the hash output
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


class ShortKey(ValueError):
    pass


_LAYOUT_MISMATCH = "manifest chunk count does not match its image size"


def _check_psk(psk: bytes) -> None:
    """Raise ShortKey unless ``psk`` holds at least ``MIN_PSK_BYTES`` bytes."""
    if len(psk) < MIN_PSK_BYTES:
        raise ShortKey(f"a class key needs at least {MIN_PSK_BYTES} bytes, got {len(psk)}")


@dataclass(frozen=True, slots=True)
class FirmwareImage:
    base: BaseName
    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) == 0:
            raise EmptyImage("firmware images must be non-empty")


def _check_chunk_size(chunk_size: int) -> None:
    if not 0 < chunk_size < 2**32:  # the manifest carries it in 4 bytes
        raise InvalidChunkSize(f"chunk size must be in [1, 2**32), got {chunk_size}")


def chunk_image(image: FirmwareImage, chunk_size: int) -> list[bytes]:
    """Split an image into fixed-length payloads; the last one may be short."""
    _check_chunk_size(chunk_size)
    data = image.data
    return [data[off : off + chunk_size] for off in range(0, len(data), chunk_size)]


def _encode_base(base: BaseName) -> bytes:
    """``base`` as three length-prefixed UTF-8 components and an 8-byte epoch."""
    parts = [value.encode("utf-8") for value in base.class_key()]
    return b"".join(struct.pack(">H", len(raw)) + raw for raw in parts) + struct.pack(">Q", base.epoch)


# RFC 2104's key pads, as byte translation tables
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
_SHA256_BLOCK = 64
_INDEX = struct.Struct(">I")


def keyed_states(base: BaseName, psk: bytes) -> tuple:
    """HMAC-SHA256's keyed inner and outer states under ``psk`` (RFC 2104,
    section 4), with the base-name part of a tag message absorbed into the
    inner one. Copying an ``hmac.HMAC`` instead made publishing 30 images of
    400 chunks take 67 ms rather than 47 ms on CPython 3.11."""
    key = hashlib.sha256(psk).digest() if len(psk) > _SHA256_BLOCK else psk
    key = key.ljust(_SHA256_BLOCK, b"\x00")
    inner = hashlib.sha256(key.translate(_IPAD))
    inner.update(_encode_base(base))
    return inner, hashlib.sha256(key.translate(_OPAD))


def tag_chunk(base: BaseName, index: int, payload: bytes, psk: bytes, trunc_len: int = 8,
              keyed: tuple | None = None) -> bytes:
    """Truncated HMAC-SHA256 over (base name, index, payload).

    The message is the base name's components, each length-prefixed, then the
    epoch as 8 and the index as 4 big-endian bytes, then the payload.
    ``keyed``, if given, is ``keyed_states(base, psk)``, shared by the chunks
    of one base name so that each tag costs one copy of each state.
    """
    if trunc_len not in TRUNCATION_LENGTHS:
        raise InvalidTruncation(f"truncation length must be one of {TRUNCATION_LENGTHS}")
    inner, outer = keyed_states(base, psk) if keyed is None else keyed
    mac = inner.copy()
    mac.update(_INDEX.pack(index) + payload)
    out = outer.copy()
    out.update(mac.digest())
    return out.digest()[:trunc_len]


def tag_chunks(base: BaseName, payloads: Iterable[bytes], psk: bytes, trunc_len: int = 8) -> list[bytes]:
    """``tag_chunk`` for payload ``i`` at index ``i`` under one base name, keyed once."""
    keyed = keyed_states(base, psk)
    return [tag_chunk(base, index, payload, psk, trunc_len, keyed)
            for index, payload in enumerate(payloads)]


def make_chunks(image: FirmwareImage, chunk_size: int, psk: bytes, trunc_len: int = 8) -> list[bytes]:
    """Set-up's tagging step: the tag of each ``chunk_size`` chunk of ``image``, tag ``i``
    for chunk ``i``. A publication is its manifest, ``image.data`` and these tags."""
    return tag_chunks(image.base, chunk_image(image, chunk_size), psk, trunc_len)


# ---------------------------------------------------------------------------
# manifest


def _manifest_body(base: BaseName, image_size: int, image_digest: bytes, chunk_size: int,
                   chunk_count: int) -> bytes:
    """The signed encoding of a manifest's fields, in field order."""
    return (_encode_base(base) + struct.pack(">Q", image_size) + image_digest
            + struct.pack(">II", chunk_size, chunk_count))


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
        return _manifest_body(self.base, self.image_size, self.image_digest, self.chunk_size,
                              self.chunk_count)

    def to_bytes(self) -> bytes:
        return self.body() + self.signature

    def layout_consistent(self) -> bool:
        """Whether both sizes are positive and chunk_count = ceil(image_size / chunk_size)."""
        return (self.image_size > 0 and self.chunk_size > 0
                and self.chunk_count == -(-self.image_size // self.chunk_size))

    def chunk_length(self, index: int) -> int:
        """Length of chunk ``index``: every chunk is full except the last."""
        if index < self.chunk_count - 1:
            return self.chunk_size
        return self.image_size - self.chunk_size * (self.chunk_count - 1)

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


def build_manifest(image: FirmwareImage, chunk_size: int, signing_key: Ed25519PrivateKey) -> Manifest:
    """Chunk-parameterize and sign the metadata for one firmware version."""
    _check_chunk_size(chunk_size)
    size = len(image.data)
    fields = (image.base, size, image_digest(image.data), chunk_size, -(-size // chunk_size))
    return Manifest(*fields, signing_key.sign(_manifest_body(*fields)))


def signing_key_from_seed(seed: bytes) -> Ed25519PrivateKey:
    if len(seed) != 32:
        raise InvalidSigningKey(f"Ed25519 seeds are 32 bytes, got {len(seed)}")
    return Ed25519PrivateKey.from_private_bytes(seed)


# ---------------------------------------------------------------------------
# repository


@dataclass(slots=True)
class Publication:
    """One firmware version as it is served: its manifest, its image and tag ``i`` for chunk
    ``i``. A chunk whose tag is None is not stored, so it is not served."""

    manifest: Manifest
    image: bytes | bytearray
    tags: list[bytes | None]

    def data(self, name: FirmwareName) -> Data | None:
        """The Data that answers ``name``, a name under this publication's base name, built
        on each call and not kept; None for a chunk that is not stored."""
        if name.kind == CHUNK:
            index, tags = name.chunk_id, self.tags
            if index < len(tags) and tags[index]:  # a chunk id is never negative
                size = self.manifest.chunk_size
                start = index * size
                return Data(name, bytes(self.image[start : start + size]), HmacTag(tags[index]))
            return None
        manifest = self.manifest
        return Data(name, manifest.to_bytes(), ManifestSignature(manifest.signature))


class Repository:
    """Versioned firmware store keyed by base name: (deployment, vendor, class, epoch),
    holding each publication with one checked tag per chunk."""

    def __init__(self):
        self._store: dict[BaseName, Publication] = {}

    def publish(self, manifest: Manifest, image: bytes, tags: list[bytes], psk: bytes) -> None:
        """Store ``image`` itself, with tag ``i`` for chunk ``i``, once every tag is checked."""
        if len(tags) != manifest.chunk_count:
            raise InconsistentPublication(
                f"chunk count {len(tags)} does not match manifest {manifest.chunk_count}"
            )
        if not manifest.layout_consistent():
            raise InconsistentPublication(_LAYOUT_MISMATCH)
        if len(image) != manifest.image_size:
            raise InconsistentPublication(f"image has {len(image)} bytes, manifest {manifest.image_size}")
        # an agent checks every tag of a publication against one truncation length
        trunc = len(tags[0])
        for i, tag in enumerate(tags):
            if len(tag) != trunc or trunc not in TRUNCATION_LENGTHS:
                raise InconsistentPublication(f"chunk {i} has a tag of {len(tag)} bytes; every tag must have "
                                              f"chunk 0's length, one of {TRUNCATION_LENGTHS}")
        _check_psk(psk)
        # every tag binds its index, so a chunk out of place fails here
        payloads = chunk_image(FirmwareImage(manifest.base, image), manifest.chunk_size)
        expected = tag_chunks(manifest.base, payloads, psk, trunc)
        for i, (tag, want) in enumerate(zip(tags, expected)):
            if tag != want:
                raise InconsistentPublication(f"chunk {i} tag does not verify")
        if manifest.base in self._store:
            raise DuplicateEpoch(f"epoch {manifest.base.epoch} already published")
        self._store[manifest.base] = Publication(manifest, image, expected)

    def get(self, base: BaseName) -> Publication | None:
        """The publication of ``base``, or None."""
        return self._store.get(base)


# ---------------------------------------------------------------------------
# on-disk layout: <repo>/<deployment>/<vendor>/<class>/<epoch>/
#   manifest.bin   signed manifest encoding
#   chunks.bin     fixed-length payload records (last record zero-padded)


NAME_MAX = 255  # bytes in a file name, on common file systems


def check_path_component(value: str, field: str) -> None:
    """Raise MalformedName unless ``value`` names one directory inside its parent: the naming
    rule allows "." and "..", and components of up to 65,535 bytes."""
    if value in (".", ".."):
        raise MalformedName(f"{field} must not be {value!r}: it names no directory of its own")
    size = len(value.encode("utf-8", "surrogatepass"))  # a lone surrogate is the naming rule's to reject
    if size > NAME_MAX:
        raise MalformedName(f"{field} must be at most {NAME_MAX} UTF-8 bytes to name a directory, got {size}")


def publication_dir(root: Path, base: BaseName) -> Path:
    for field in ("deployment", "vendor", "device_class"):
        check_path_component(getattr(base, field), field)
    return Path(root) / base.deployment / base.vendor / base.device_class / str(base.epoch)


def write_publication(root: Path, manifest: Manifest, image: bytes) -> Path:
    """Write ``image`` and its manifest into a new directory for the epoch and return it; raise
    DuplicateEpoch if that directory exists. The files go into a temporary sibling that is then
    renamed into place, so a write that fails leaves nothing under the epoch's name."""
    out = publication_dir(root, manifest.base)
    if out.exists():
        raise DuplicateEpoch(f"epoch {manifest.base.epoch} already published: {out} exists")
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = out.with_name(f".{out.name}-{os.urandom(4).hex()}")
    staging.mkdir()
    try:
        (staging / "manifest.bin").write_bytes(manifest.to_bytes())
        (staging / "chunks.bin").write_bytes(image.ljust(manifest.chunk_count * manifest.chunk_size, b"\x00"))
        staging.rename(out)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return out


def read_publication(root: Path, base: BaseName, psk: bytes, vendor_key: Ed25519PublicKey,
                     trunc_len: int = 8) -> Publication:
    """Load the publication of ``base``, with its tags recomputed from the class key. Raises
    InconsistentPublication if the manifest names another base name, if ``chunks.bin`` does not
    hold exactly ``chunk_count`` records of ``chunk_size`` bytes, if the bytes after the image are
    not all zero, if the image does not match the manifest's digest or if the signature does not
    verify under ``vendor_key``;
    MalformedManifest if ``manifest.bin`` does not decode; ShortKey if ``psk`` is too short."""
    _check_psk(psk)
    src = publication_dir(root, base)
    manifest = Manifest.from_bytes((src / "manifest.bin").read_bytes())
    if manifest.base != base:
        raise InconsistentPublication(f"{src} holds the manifest of {manifest.base}, not of {base}")
    records = (src / "chunks.bin").read_bytes()
    size = manifest.chunk_size
    if not manifest.layout_consistent():
        raise InconsistentPublication(_LAYOUT_MISMATCH)
    expected = manifest.chunk_count * size
    if len(records) != expected:
        raise InconsistentPublication(f"chunks.bin holds {len(records)} bytes, expected {expected}")
    if any(records[manifest.image_size :]):
        raise InconsistentPublication("chunks.bin's padding after the image is not all zero")
    image = records[: manifest.image_size]
    if image_digest(image) != manifest.image_digest:
        raise InconsistentPublication("chunks.bin does not match the manifest's image digest")
    if not manifest.verify(vendor_key):
        raise InconsistentPublication("manifest signature does not verify under the vendor key")
    return Publication(manifest, image, make_chunks(FirmwareImage(base, image), size, psk, trunc_len))
