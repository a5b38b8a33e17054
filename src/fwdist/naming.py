"""Hierarchical firmware namespace: structured names, epoch alignment, size model.

Names address firmware artifacts as
``/<deployment>/<vendor>/<device-class>/<epoch>/<suffix...>`` where the suffix
is ``manifest`` or ``chunk/<id>``.  The epoch component is a
Unix timestamp quantized to a per-device-class granularity so that pollers can
construct "the latest version" name without a directory service.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache


class MalformedName(ValueError):
    """The fields given do not make a valid firmware name."""


SEPARATOR = "/"

MANIFEST = "manifest"
CHUNK = "chunk"


# The manifest and the tag message prefix each component with a 2-byte length
# and carry the epoch in 8 bytes.
MAX_COMPONENT_BYTES = 2**16 - 1


def _check_identifier(value: str, field: str) -> None:
    if not isinstance(value, str) or not value:
        raise MalformedName(f"{field} must be a non-empty string")
    if SEPARATOR in value:
        raise MalformedName(f"{field} must not contain {SEPARATOR!r}: {value!r}")
    try:
        size = len(value.encode("utf-8"))
    except UnicodeEncodeError:  # lone surrogates, which JSON escapes can carry
        raise MalformedName(f"{field} must be valid Unicode text: {value!r}") from None
    if size > MAX_COMPONENT_BYTES:
        raise MalformedName(f"{field} must encode in at most {MAX_COMPONENT_BYTES} UTF-8 bytes, got {size}")


class BaseName(namedtuple("BaseName", "deployment vendor device_class epoch")):
    """Suffix-free name prefix identifying one firmware version.

    Names key every PIT, content-store and cache lookup, so they are tuples:
    hashing and equality run in C. Every constructor, ``_make`` and
    ``_replace`` included, runs the checks in ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, deployment: str, vendor: str, device_class: str, epoch: int):
        _check_identifier(deployment, "deployment")
        _check_identifier(vendor, "vendor")
        _check_identifier(device_class, "device class")
        if not isinstance(epoch, int) or isinstance(epoch, bool) or not 0 <= epoch < 2**64:
            raise MalformedName(f"epoch must be an integer in [0, 2**64), got {epoch!r}")
        return tuple.__new__(cls, (deployment, vendor, device_class, epoch))

    @classmethod
    def _make(cls, iterable) -> "BaseName":
        return cls(*iterable)

    def components(self) -> tuple[str, ...]:
        return (self.deployment, self.vendor, self.device_class, str(self.epoch))

    def class_key(self) -> tuple[str, str, str]:
        return (self.deployment, self.vendor, self.device_class)

    def manifest(self) -> "FirmwareName":
        return FirmwareName(self, MANIFEST)

    def chunk(self, index: int) -> "FirmwareName":
        return FirmwareName(self, CHUNK, index)

    def __str__(self) -> str:
        return SEPARATOR + SEPARATOR.join(self.components())


class FirmwareName(namedtuple("FirmwareName", "base kind chunk_id")):
    """Full name of a manifest or of a single chunk.

    A tuple of three, so it never equals a ``BaseName`` (a tuple of four).
    """

    __slots__ = ()

    def __new__(cls, base: BaseName, kind: str, chunk_id: int | None = None):
        if not isinstance(base, BaseName):
            raise MalformedName(f"base must be a BaseName, got {base!r}")
        if kind == CHUNK:
            if not isinstance(chunk_id, int) or isinstance(chunk_id, bool) or chunk_id < 0:
                raise MalformedName(f"chunk id must be a non-negative integer, got {chunk_id!r}")
        elif kind != MANIFEST:
            raise MalformedName(f"unknown suffix kind {kind!r}")
        elif chunk_id is not None:
            raise MalformedName(f"{kind} names carry no chunk id")
        return tuple.__new__(cls, (base, kind, chunk_id))

    @classmethod
    def _make(cls, iterable) -> "FirmwareName":
        return cls(*iterable)

    def components(self) -> tuple[str, ...]:
        if self.kind == CHUNK:
            return self.base.components() + (CHUNK, str(self.chunk_id))
        return self.base.components() + (self.kind,)

    def __str__(self) -> str:
        return SEPARATOR + SEPARATOR.join(self.components())


@dataclass(frozen=True, slots=True)
class Granularity:
    """Epoch quantization: period in seconds plus a signed phase shift.

    The aligned epochs are exactly {k * period + offset}. A negative offset
    expresses a timezone ahead of UTC (local midnight lies before UTC
    midnight), e.g. offset -7200 for UTC+2 with a daily period.
    """

    period: int = 86400
    offset: int = 0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("granularity period must be positive")
        if abs(self.offset) >= self.period:
            raise ValueError("granularity offset must satisfy |offset| < period")


def align_epoch(t: int, g: Granularity) -> int:
    """Greatest aligned epoch <= t, i.e. greatest k*period + offset <= t."""
    if t < 0:
        raise ValueError("wall-clock time must be non-negative")
    return (t - g.offset) // g.period * g.period + g.offset


@dataclass(frozen=True, slots=True)
class EncodingModel:
    """Per-component and per-name structural overhead of the wire encoding.

    The default (2 bytes per component, 2 per name) mimics a TLV layout with
    one-byte types and lengths; under it the default experiment names come out
    at 45 bytes.
    """

    component_overhead: int = 2
    name_overhead: int = 2


DEFAULT_ENCODING = EncodingModel()


@lru_cache(maxsize=1024)
def _base_size(base: BaseName, component_overhead: int, name_overhead: int) -> int:
    return name_overhead + sum(len(comp.encode("utf-8")) + component_overhead
                               for comp in base.components())


def encoded_size(name: FirmwareName, model: EncodingModel = DEFAULT_ENCODING) -> int:
    """Modeled wire size of a name in bytes (size model, not a serializer).

    The base's size is cached per base and overheads, one entry per device
    class and epoch; the suffix is sized on each call, so no full name is
    kept past its run.
    """
    overhead = model.component_overhead
    # every suffix kind is ASCII, so its length is its UTF-8 length
    size = _base_size(name.base, overhead, model.name_overhead) + len(name.kind) + overhead
    if name.chunk_id is not None:
        size += len(str(name.chunk_id)) + overhead
    return size
