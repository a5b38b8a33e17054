"""Hierarchical firmware namespace: structured names, epoch alignment, size model.

Names address firmware artifacts as
``/<deployment>/<vendor>/<device-class>/<epoch>/<suffix...>`` where the suffix
is ``manifest``, ``firmware``, or ``chunk/<id>``.  The epoch component is a
Unix timestamp quantized to a per-device-class granularity so that pollers can
construct "the latest version" name without a directory service.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache


class MalformedName(ValueError):
    """A component sequence does not describe a valid firmware name."""


SEPARATOR = "/"

MANIFEST = "manifest"
FIRMWARE = "firmware"
CHUNK = "chunk"

_SUFFIX_KINDS = (MANIFEST, FIRMWARE, CHUNK)


def _check_identifier(value: str, field: str) -> None:
    if not isinstance(value, str) or not value:
        raise MalformedName(f"{field} must be a non-empty string")
    if SEPARATOR in value:
        raise MalformedName(f"{field} must not contain {SEPARATOR!r}: {value!r}")


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
        if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
            raise MalformedName(f"epoch must be a non-negative integer, got {epoch!r}")
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

    def firmware(self) -> "FirmwareName":
        return FirmwareName(self, FIRMWARE)

    def chunk(self, index: int) -> "FirmwareName":
        return FirmwareName(self, CHUNK, index)

    def __str__(self) -> str:
        return SEPARATOR + SEPARATOR.join(self.components())


class FirmwareName(namedtuple("FirmwareName", "base kind chunk_id")):
    """Full name of a manifest, image, or single chunk.

    A tuple of three, so it never equals a ``BaseName`` (a tuple of four).
    """

    __slots__ = ()

    def __new__(cls, base: BaseName, kind: str, chunk_id: int | None = None):
        if not isinstance(base, BaseName):
            raise MalformedName(f"base must be a BaseName, got {base!r}")
        if kind not in _SUFFIX_KINDS:
            raise MalformedName(f"unknown suffix kind {kind!r}")
        if kind == CHUNK:
            if not isinstance(chunk_id, int) or isinstance(chunk_id, bool) or chunk_id < 0:
                raise MalformedName(f"chunk id must be a non-negative integer, got {chunk_id!r}")
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


def _parse_uint(text: str, field: str) -> int:
    # int() tolerates "+5", "_", whitespace; names do not.
    if not text.isdigit():
        raise MalformedName(f"{field} must be a decimal integer, got {text!r}")
    return int(text)


def parse_name(components) -> FirmwareName:
    """Parse a component sequence into a FirmwareName.

    Accepts 5 components (manifest/firmware) or 6 (chunk/<id>).
    """
    comps = list(components)
    if len(comps) < 5:
        raise MalformedName(f"expected at least 5 components, got {len(comps)}")
    base = BaseName(comps[0], comps[1], comps[2], _parse_uint(comps[3], "epoch"))
    suffix = comps[4]
    if suffix == CHUNK:
        if len(comps) != 6:
            raise MalformedName("chunk names have exactly 6 components")
        return base.chunk(_parse_uint(comps[5], "chunk id"))
    if suffix in (MANIFEST, FIRMWARE):
        if len(comps) != 5:
            raise MalformedName(f"{suffix} names have exactly 5 components")
        return FirmwareName(base, suffix)
    raise MalformedName(f"unknown suffix {suffix!r}")


def format_name(name: FirmwareName) -> tuple[str, ...]:
    """Inverse of parse_name; parse_name(format_name(n)) == n."""
    return name.components()


def parse_text(text: str) -> FirmwareName:
    """Parse the canonical textual form "/dep/vendor/class/epoch/suffix...". """
    if not text.startswith(SEPARATOR):
        raise MalformedName(f"textual names start with {SEPARATOR!r}")
    return parse_name(text[1:].split(SEPARATOR))


@dataclass(frozen=True, slots=True)
class Granularity:
    """Epoch quantization: period in seconds plus a signed phase shift.

    The aligned epochs are exactly {k * period + offset}. A negative offset
    expresses a timezone ahead of UTC (local midnight lies before UTC
    midnight), e.g. offset -7200 for UTC+2 with a daily period.
    """

    period: int
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


@lru_cache(maxsize=65536)
def _encoded_size(name: FirmwareName, component_overhead: int, name_overhead: int) -> int:
    total = name_overhead
    for comp in name.components():
        total += len(comp.encode("utf-8")) + component_overhead
    return total


def encoded_size(name: FirmwareName, model: EncodingModel = DEFAULT_ENCODING) -> int:
    """Modeled wire size of a name in bytes (size model, not a serializer).

    Cached per name and overheads, so a name's components are built once, not
    on every send, and the cache key hashes no model object.
    """
    return _encoded_size(name, model.component_overhead, model.name_overhead)
