"""Interest/Data/Nack wire units and their size model.

Packets are immutable named tuples; the simulator never serializes them.
Equality is by fields, as for any tuple, so code tells packet and auth kinds
apart with ``isinstance``. Sizes are computed from the name encoding model
plus fixed structural overheads, calibrated so the default experiment
configuration yields 92-byte chunk Data packets (115-byte frames with the
23-byte link header).
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .naming import DEFAULT_ENCODING, EncodingModel, FirmwareName, encoded_size

# Structural bytes per packet beyond the name: outer packet framing, payload
# and auth field headers, freshness/lifetime fields (sized, not modelled).
DATA_STRUCT_BYTES = 7
INTEREST_STRUCT_BYTES = 7
NACK_STRUCT_BYTES = 8
NONCE_BYTES = 4


class HmacTag(NamedTuple):
    """Truncated keyed-hash tag carried by chunk Data."""

    tag: bytes


class ManifestSignature(NamedTuple):
    """Asymmetric signature carried by manifest Data."""

    signature: bytes


Auth = HmacTag | ManifestSignature


class Interest(namedtuple("Interest", "name nonce")):
    """Request for one name; every constructor, ``_make`` included, checks the nonce."""

    __slots__ = ()

    def __new__(cls, name: FirmwareName, nonce: int):
        if not 0 <= nonce < 2**32:
            raise ValueError("nonce must fit 32 bits")
        return tuple.__new__(cls, (name, nonce))

    @classmethod
    def _make(cls, iterable) -> "Interest":
        return cls(*iterable)


class Data(NamedTuple):
    name: FirmwareName
    payload: bytes
    auth: Auth


class Nack(NamedTuple):
    name: FirmwareName
    reason: str


Packet = Interest | Data | Nack


def _auth_size(auth: Auth) -> int:
    if isinstance(auth, HmacTag):
        return len(auth.tag)
    return len(auth.signature)


def packet_size(packet: Packet, model: EncodingModel = DEFAULT_ENCODING) -> int:
    """Modeled network-layer size of a packet in bytes."""
    name_bytes = encoded_size(packet.name, model)
    if isinstance(packet, Interest):
        return name_bytes + INTEREST_STRUCT_BYTES + NONCE_BYTES
    if isinstance(packet, Data):
        return name_bytes + DATA_STRUCT_BYTES + len(packet.payload) + _auth_size(packet.auth)
    return name_bytes + NACK_STRUCT_BYTES
