"""Device-side update agent: version polling, manifest verification, stop-and-
wait chunk retrieval with per-chunk HMAC verification and early abort, image
reassembly, installation, and downstream serving.

The agent owns no timers of its own; the hosting node queries
``next_action_at`` and drives it. All timestamps are simulated microseconds;
wall-clock seconds enter only through ``poll_version``.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import random
from dataclasses import dataclass

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from .naming import CHUNK, MANIFEST, BaseName, FirmwareName, Granularity, align_epoch
from .packets import Data, HmacTag, Interest, ManifestSignature, Nack
from .vendor import Manifest, MalformedManifest, tag_chunk

CONCURRENT = "concurrent"
CASCADING = "cascading"

IDLE = "Idle"
AWAIT_MANIFEST = "AwaitManifest"
FETCHING = "Fetching"
VERIFYING = "VerifyingImage"
INSTALLING = "Installing"
SERVING = "Serving"

MAX_TAG_FAILURES = 3


@dataclass(slots=True)
class InstalledFirmware:
    """The device's flash regions: current image plus the retained backup."""

    data: bytes
    epoch: int
    previous: bytes | None = None


@dataclass(frozen=True, slots=True)
class AgentConfig:
    turnaround_us: int = 2000
    flash_write_us: int = 0
    verify_delay_us: int = 2000
    install_delay_us: int = 2000
    app_retx_base_us: int = 10_000_000
    app_retx_jitter_us: int = 5_000_000
    manifest_retries: int = 3
    digest_retries: int = 1
    poll_period_us: int = 3_600_000_000
    trunc_len: int = 8


class UpdateAgent:
    def __init__(
        self,
        *,
        deployment: str,
        vendor: str,
        device_class: str,
        psk: bytes,
        vendor_key: Ed25519PublicKey,
        strategy: str,
        granularity: Granularity,
        installed: InstalledFirmware,
        rng: random.Random,
        config: AgentConfig = AgentConfig(),
        emit=None,
    ):
        if strategy not in (CONCURRENT, CASCADING):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.deployment = deployment
        self.vendor = vendor
        self.device_class = device_class
        self.psk = psk
        self.vendor_key = vendor_key
        self.strategy = strategy
        self.granularity = granularity
        self.installed = installed
        self.installed_manifest: Manifest | None = None
        # verified chunk tags of the installed image, served without re-tagging
        self.installed_tags: list[bytes] | None = None
        self.rng = rng
        self.config = config
        self._emit = emit or (lambda event, chunk_id, detail: None)

        self.phase = IDLE
        self.active_manifest: Manifest | None = None
        self.buffer: bytearray | None = None
        # per chunk: its verified HMAC tag once stored, else None
        self.received: list[bytes | None] | None = None
        self.received_count = 0
        self.fail_counts: dict[int, int] = {}
        self.irrecoverable: set[int] = set()
        self.digest_attempts = 0
        self._scan_cursor = 0

        self.outstanding: int | None = None
        self.outstanding_name: FirmwareName | None = None
        self.awaited_manifest: FirmwareName | None = None
        self.manifest_retries_left = 0
        self.manifest_retry_at: int | None = None
        self.pending_retry_idx: int | None = None
        self.ready_at = 0
        self.phase_deadline: int | None = None
        self.poll_at: int | None = 0

        self.first_chunk_recv_us: int | None = None
        self.last_chunk_recv_us: int | None = None
        self.install_time_us: int | None = None

    # -- helpers -------------------------------------------------------------

    def class_key(self) -> tuple[str, str, str]:
        return (self.deployment, self.vendor, self.device_class)

    def _set_phase(self, phase: str, detail: str = "") -> None:
        old = self.phase
        self.phase = phase
        note = f"{old}->{phase}"
        if detail:
            note += f";{detail}"
        self._emit("PhaseChange", None, note)

    def _nonce(self) -> int:
        return self.rng.getrandbits(32)

    def _app_retx_delay(self) -> int:
        base, jitter = self.config.app_retx_base_us, self.config.app_retx_jitter_us
        return self.rng.randint(base - jitter, base + jitter)

    def _clear_transfer(self) -> None:
        self.active_manifest = None
        self.buffer = None
        self.received = None
        self.received_count = 0
        self.fail_counts = {}
        self._scan_cursor = 0
        self.outstanding = None
        self.outstanding_name = None
        self.pending_retry_idx = None
        self.phase_deadline = None

    # -- version discovery ----------------------------------------------------

    def poll_version(self, now: int, wall_s: int) -> Interest | None:
        """Request the manifest of the newest epoch, skipping obsolete ones."""
        if self.phase not in (IDLE, SERVING):
            return None
        target = align_epoch(wall_s, self.granularity)
        if target <= self.installed.epoch or target in self.irrecoverable:
            return None
        base = BaseName(self.deployment, self.vendor, self.device_class, target)
        self.awaited_manifest = base.manifest()
        self.manifest_retries_left = self.config.manifest_retries
        self.manifest_retry_at = None
        self._set_phase(AWAIT_MANIFEST, f"poll:{target}")
        return Interest(self.awaited_manifest, self._nonce())

    def due_poll(self, now: int, wall_s: int) -> Interest | None:
        if self.poll_at is None or now < self.poll_at:
            return None
        while self.poll_at <= now:
            self.poll_at += self.config.poll_period_us
        return self.poll_version(now, wall_s)

    def wants_implicit(self, interest: Interest) -> bool:
        """Piggyback on a forwarded same-class manifest request for a newer epoch."""
        name = interest.name
        if name.kind != MANIFEST:
            return False
        if name.base.class_key() != self.class_key():
            return False
        if name.base.epoch <= self.installed.epoch or name.base.epoch in self.irrecoverable:
            return False
        if self.phase not in (IDLE, SERVING):
            return False
        self.awaited_manifest = name
        self.manifest_retries_left = self.config.manifest_retries
        self.manifest_retry_at = None
        self._set_phase(AWAIT_MANIFEST, "implicit")
        return True

    def on_manifest(self, data: Data, now: int) -> None:
        if self.phase != AWAIT_MANIFEST or data.name != self.awaited_manifest:
            return
        manifest = self._validate_manifest(data)
        if manifest is None:
            self._emit("Abort", None, "manifest-rejected;vendor-report")
            self.awaited_manifest = None
            self._set_phase(IDLE, "manifest-rejected")
            return
        if manifest.base.epoch <= self.installed.epoch:
            self.awaited_manifest = None
            self._set_phase(IDLE, "already-current")
            return
        self.active_manifest = manifest
        self.buffer = bytearray(manifest.image_size)
        self.received = [None] * manifest.chunk_count
        self.received_count = 0
        self.fail_counts = {}
        self.digest_attempts = 0
        self._scan_cursor = 0
        self.awaited_manifest = None
        self.ready_at = now + self.config.turnaround_us
        self._set_phase(FETCHING, f"epoch:{manifest.base.epoch}")

    def _validate_manifest(self, data: Data) -> Manifest | None:
        try:
            manifest = Manifest.from_bytes(data.payload)
        except MalformedManifest:
            return None
        if manifest.base != data.name.base:
            return None
        if not isinstance(data.auth, ManifestSignature) or data.auth.signature != manifest.signature:
            return None
        if manifest.image_size <= 0 or manifest.chunk_size <= 0:
            return None
        if manifest.chunk_count != -(-manifest.image_size // manifest.chunk_size):
            return None
        if not manifest.verify(self.vendor_key):
            return None
        return manifest

    # -- chunk retrieval -------------------------------------------------------

    def _smallest_missing(self) -> int | None:
        received = self.received
        cursor = self._scan_cursor
        while cursor < len(received) and received[cursor]:
            cursor += 1
        self._scan_cursor = cursor
        return cursor if cursor < len(received) else None

    def take_request(self, now: int):
        """Next Interest to emit, or None. Returns (interest, is_app_retx)."""
        if self.phase == AWAIT_MANIFEST:
            if (
                self.manifest_retry_at is not None
                and now >= self.manifest_retry_at
                and self.awaited_manifest is not None
            ):
                self.manifest_retry_at = None
                return Interest(self.awaited_manifest, self._nonce()), True
            return None
        if self.phase != FETCHING or self.outstanding is not None or now < self.ready_at:
            return None
        idx = self._smallest_missing()
        if idx is None:
            return None
        self.outstanding = idx
        self.outstanding_name = self.active_manifest.base.chunk(idx)
        is_retry = self.pending_retry_idx == idx
        self.pending_retry_idx = None
        return Interest(self.outstanding_name, self._nonce()), is_retry

    def _expected_length(self, idx: int) -> int:
        m = self.active_manifest
        if idx < m.chunk_count - 1:
            return m.chunk_size
        return m.image_size - m.chunk_size * (m.chunk_count - 1)

    def on_chunk(self, data: Data, now: int, diverted: bool = False) -> None:
        """Verify and store a chunk; count failures of the requested index."""
        if self.phase != FETCHING or data.name.kind != CHUNK:
            return
        m = self.active_manifest
        if data.name.base != m.base:
            return
        idx = data.name.chunk_id
        if not 0 <= idx < m.chunk_count:
            return
        if self.received[idx]:
            if idx == self.outstanding:
                self.outstanding = None
                self.outstanding_name = None
                self.ready_at = now + self.config.turnaround_us
            return
        valid = (
            isinstance(data.auth, HmacTag)
            and len(data.payload) == self._expected_length(idx)
            and len(data.auth.tag) == self.config.trunc_len
            and hmac_mod.compare_digest(
                data.auth.tag, tag_chunk(m.base, idx, data.payload, self.psk, self.config.trunc_len)
            )
        )
        if valid:
            offset = idx * m.chunk_size
            self.buffer[offset : offset + len(data.payload)] = data.payload
            self.received[idx] = data.auth.tag
            self.received_count += 1
            self.fail_counts.pop(idx, None)
            self._emit("ChunkStored", idx, "diverted" if diverted else "")
            if self.first_chunk_recv_us is None:
                self.first_chunk_recv_us = now
            self.last_chunk_recv_us = now
            if idx == self.outstanding:
                self.outstanding = None
                self.outstanding_name = None
                self.ready_at = now + self.config.turnaround_us + self.config.flash_write_us
            if self.received_count == m.chunk_count:
                self.outstanding = None
                self.outstanding_name = None
                self.phase_deadline = now + self.config.verify_delay_us
                self._set_phase(VERIFYING, "")
            return
        self._emit("TagFail", idx, "diverted" if diverted else "")
        if diverted or idx != self.outstanding:
            return
        count = self.fail_counts.get(idx, 0) + 1
        self.fail_counts[idx] = count
        if count >= MAX_TAG_FAILURES:
            self._abort(f"irrecoverable:chunk-{idx};vendor-report", idx)
        else:
            # Repeat the request for the invalid chunk right away.
            self.outstanding = None
            self.outstanding_name = None
            self.ready_at = now + self.config.turnaround_us

    def divert_wanted(self, data: Data) -> bool:
        if self.strategy != CONCURRENT or self.phase != FETCHING:
            return False
        name = data.name
        if name.kind != CHUNK or name.base != self.active_manifest.base:
            return False
        return 0 <= name.chunk_id < self.active_manifest.chunk_count and not self.received[name.chunk_id]

    def on_timeout(self, name: FirmwareName, now: int) -> None:
        if self.phase == FETCHING and name == self.outstanding_name:
            idx = self.outstanding
            self.outstanding = None
            self.outstanding_name = None
            self.pending_retry_idx = idx
            self.ready_at = now + self._app_retx_delay()
            return
        if self.phase == AWAIT_MANIFEST and name == self.awaited_manifest:
            if self.manifest_retries_left > 0:
                self.manifest_retries_left -= 1
                self.manifest_retry_at = now + self._app_retx_delay()
            else:
                self.awaited_manifest = None
                self._set_phase(IDLE, "manifest-timeout")

    def on_nack(self, nack: Nack, now: int) -> None:
        if self.phase == AWAIT_MANIFEST and nack.name == self.awaited_manifest:
            self.awaited_manifest = None
            self._set_phase(IDLE, f"nack:{nack.reason}")

    def _abort(self, detail: str, chunk_id: int | None) -> None:
        if self.active_manifest is not None:
            self.irrecoverable.add(self.active_manifest.base.epoch)
        self._emit("Abort", chunk_id, detail)
        self._clear_transfer()
        self._set_phase(IDLE, "aborted")

    # -- verification and install ----------------------------------------------

    def handle_deadlines(self, now: int) -> None:
        if self.phase == VERIFYING and self.phase_deadline is not None and now >= self.phase_deadline:
            self._finish_verification(now)
        if self.phase == INSTALLING and self.phase_deadline is not None and now >= self.phase_deadline:
            self._install(now)

    def _finish_verification(self, now: int) -> None:
        m = self.active_manifest
        if hashlib.sha256(bytes(self.buffer)).digest() == m.image_digest:
            self.phase_deadline = now + self.config.install_delay_us
            self._set_phase(INSTALLING, "")
            return
        self.digest_attempts += 1
        if self.digest_attempts > self.config.digest_retries:
            self._abort("irrecoverable:digest;vendor-report", None)
            return
        # One full re-retrieval before giving up.
        self.received = [None] * m.chunk_count
        self.received_count = 0
        self.buffer = bytearray(m.image_size)
        self.fail_counts = {}
        self._scan_cursor = 0
        self.phase_deadline = None
        self.ready_at = now + self.config.turnaround_us
        self._set_phase(FETCHING, "digest-retry")
        self._emit("TagFail", None, "digest-mismatch")

    def _install(self, now: int) -> None:
        m = self.active_manifest
        self.installed.previous = self.installed.data
        self.installed.data = bytes(self.buffer)
        self.installed.epoch = m.base.epoch
        self.installed_manifest = m
        self.installed_tags = self.received
        self._clear_transfer()
        self.poll_at = now + self.config.poll_period_us
        self.install_time_us = now
        self._set_phase(SERVING, f"epoch:{m.base.epoch}")
        self._emit("InstallComplete", None, f"epoch:{m.base.epoch}")

    # -- serving ----------------------------------------------------------------

    def _chunk_data(self, name: FirmwareName, source: bytes, manifest: Manifest,
                    tags: list[bytes | None]) -> Data | None:
        idx = name.chunk_id
        if not 0 <= idx < manifest.chunk_count or not tags[idx]:
            return None
        start = idx * manifest.chunk_size
        end = min(start + manifest.chunk_size, manifest.image_size)
        return Data(name, bytes(source[start:end]), HmacTag(tags[idx]))

    def serve_lookup(self, name: FirmwareName) -> Data | None:
        """Serve chunks from flash or the in-progress buffer, and manifests.

        A chunk is served with the tag it was verified against on arrival;
        chunks that failed verification were never stored and are not served.
        """
        if name.kind == CHUNK:
            im = self.installed_manifest
            if im is not None and name.base == im.base:
                return self._chunk_data(name, self.installed.data, im, self.installed_tags)
            am = self.active_manifest
            if am is not None and self.phase == FETCHING and name.base == am.base:
                return self._chunk_data(name, self.buffer, am, self.received)
            return None
        if name.kind == MANIFEST:
            for m in (self.installed_manifest, self.active_manifest):
                if m is not None and name.base == m.base:
                    return Data(name, m.to_bytes(), ManifestSignature(m.signature))
        return None

    def deny(self, interest: Interest) -> bool:
        """Cascading mode: refuse same-class chunk delivery until updated."""
        if self.strategy != CASCADING:
            return False
        name = interest.name
        return (
            name.kind == CHUNK
            and name.base.class_key() == self.class_key()
            and name.base.epoch > self.installed.epoch
        )

    # -- scheduling ---------------------------------------------------------------

    def next_action_at(self) -> int | None:
        # Each phase has at most one pending timer.
        phase = self.phase
        if phase == FETCHING:
            return self.ready_at if self.outstanding is None else None
        if phase == IDLE or phase == SERVING:
            return self.poll_at
        if phase == AWAIT_MANIFEST:
            return self.manifest_retry_at
        return self.phase_deadline  # VerifyingImage or Installing
