"""Device-side update agent: version polling, manifest verification, stop-and-
wait chunk retrieval with per-chunk HMAC verification and early abort, image
reassembly, installation, and downstream serving.

The agent owns no timers of its own; the hosting node queries
``next_action_at`` and drives it. Its parameters come from the scenario: the
names and strategy, ``trunc_len``, ``poll_period_s``, the device timings of
``node`` and the retry budgets of ``agent``. All timestamps are simulated
microseconds; wall-clock seconds enter only through ``poll_version``.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import random

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from .naming import CHUNK, MANIFEST, BaseName, FirmwareName, align_epoch
from .packets import Data, HmacTag, Interest, ManifestSignature, Nack
from .scenario import Scenario
from .vendor import Manifest, MalformedManifest, Publication, keyed_states, tag_chunk

CONCURRENT = "concurrent"
CASCADING = "cascading"

IDLE = "Idle"
AWAIT_MANIFEST = "AwaitManifest"
FETCHING = "Fetching"
VERIFYING = "VerifyingImage"
INSTALLING = "Installing"
SERVING = "Serving"

MAX_TAG_FAILURES = 3


class UpdateAgent:
    def __init__(
        self,
        scenario: Scenario,
        *,
        device_class: str,
        psk: bytes,
        vendor_key: Ed25519PublicKey,
        installed_epoch: int,
        rng: random.Random,
        emit=None,
    ):
        if scenario.strategy not in (CONCURRENT, CASCADING):
            raise ValueError(f"unknown strategy {scenario.strategy!r}")
        self.class_key = (scenario.deployment, scenario.vendor, device_class)
        self.psk = psk
        self.vendor_key = vendor_key
        self.strategy = scenario.strategy
        self.granularity = scenario.granularity
        self.trunc_len = scenario.trunc_len
        node, params = scenario.node, scenario.agent
        self.turnaround_us = node.turnaround_us
        self.flash_write_us = node.flash_write_us
        self.verify_delay_us = node.verify_delay_us
        self.install_delay_us = node.install_delay_us
        self.manifest_retries = params.manifest_retries
        self.digest_retries = params.digest_retries
        self.app_retx_base_us = int(params.app_retx_base_s * 1_000_000)
        self.app_retx_jitter_us = int(params.app_retx_jitter_s * 1_000_000)
        self.poll_period_us = int(scenario.poll_period_s * 1_000_000)
        self.installed_epoch = installed_epoch
        # the installed image with the tags it was verified against, served without re-tagging;
        # None while the device runs the image it shipped with, which it never serves
        self.serving: Publication | None = None
        self.rng = rng
        self._emit = emit or (lambda event, chunk_id, detail: None)

        self.phase = IDLE
        # the image being fetched: a buffer of its size, and per chunk its
        # verified HMAC tag once stored, else None
        self.transfer: Publication | None = None
        # HMAC states keyed with the class key for the transfer's base name
        self._keyed: tuple | None = None
        # Stop-and-wait: the only chunk ever requested is the smallest one not
        # yet stored, so a request, its retry mark and its tag failures are
        # all about the cursor, and moving the cursor clears them.
        self.cursor = 0
        self.retrying = False
        self.tag_failures = 0
        self.irrecoverable: set[int] = set()
        self.digest_attempts = 0

        self.awaited_manifest: FirmwareName | None = None
        self.manifest_retries_left = 0
        # The one timer of the current phase: the manifest retry, the next
        # chunk request (None while one is in flight), or the end of
        # verification or installation. Polling runs across phases.
        self.due_at: int | None = None
        self.poll_at = 0

        self.first_chunk_recv_us: int | None = None
        self.last_chunk_recv_us: int | None = None
        self.install_time_us: int | None = None

    # -- helpers -------------------------------------------------------------

    def _set_phase(self, phase: str, detail: str = "") -> None:
        note = f"{self.phase}->{phase};{detail}" if detail else f"{self.phase}->{phase}"
        self.phase = phase
        self._emit("PhaseChange", None, note)

    def _nonce(self) -> int:
        return self.rng.getrandbits(32)

    def _app_retx_delay(self) -> int:
        base, jitter = self.app_retx_base_us, self.app_retx_jitter_us
        return self.rng.randint(base - jitter, base + jitter)

    def _clear_transfer(self) -> None:
        self.transfer = None
        self._keyed = None
        self.cursor = 0
        self.retrying = False
        self.tag_failures = 0
        self.due_at = None

    # -- version discovery ----------------------------------------------------

    def poll_version(self, wall_s: int) -> Interest | None:
        """Request the manifest of the newest epoch, skipping obsolete ones."""
        if self.phase not in (IDLE, SERVING):
            return None
        target = align_epoch(wall_s, self.granularity)
        if target <= self.installed_epoch or target in self.irrecoverable:
            return None
        base = BaseName(*self.class_key, target)
        self._await_manifest(base.manifest(), f"poll:{target}")
        return Interest(self.awaited_manifest, self._nonce())

    def due_poll(self, now: int, wall_s: int) -> Interest | None:
        if now < self.poll_at:
            return None
        while self.poll_at <= now:
            self.poll_at += self.poll_period_us
        return self.poll_version(wall_s)

    def wants_implicit(self, interest: Interest) -> bool:
        """Piggyback on a forwarded same-class manifest request for a newer epoch."""
        name = interest.name
        if name.kind != MANIFEST:
            return False
        if name.base.class_key() != self.class_key:
            return False
        if name.base.epoch <= self.installed_epoch or name.base.epoch in self.irrecoverable:
            return False
        if self.phase not in (IDLE, SERVING):
            return False
        self._await_manifest(name, "implicit")
        return True

    def _await_manifest(self, name: FirmwareName, detail: str) -> None:
        self.awaited_manifest = name
        self.manifest_retries_left = self.manifest_retries
        self.due_at = None
        self._set_phase(AWAIT_MANIFEST, detail)

    def on_manifest(self, data: Data, now: int) -> None:
        if self.phase != AWAIT_MANIFEST or data.name != self.awaited_manifest:
            return
        manifest = self._validate_manifest(data)
        self.awaited_manifest = None
        if manifest is None:
            self._emit("Abort", None, "manifest-rejected;vendor-report")
            self._set_phase(IDLE, "manifest-rejected")
            return
        self.digest_attempts = 0
        self._start_fetch(manifest, now, f"epoch:{manifest.base.epoch}")

    def _start_fetch(self, manifest: Manifest, now: int, detail: str) -> None:
        """Fetch every chunk of ``manifest`` into an empty buffer."""
        self._clear_transfer()
        self.transfer = Publication(manifest, bytearray(manifest.image_size), [None] * manifest.chunk_count)
        self._keyed = keyed_states(manifest.base, self.psk)
        self.due_at = now + self.turnaround_us
        self._set_phase(FETCHING, detail)

    def _validate_manifest(self, data: Data) -> Manifest | None:
        try:
            manifest = Manifest.from_bytes(data.payload)
        except MalformedManifest:
            return None
        if manifest.base != data.name.base:
            return None
        if not isinstance(data.auth, ManifestSignature) or data.auth.signature != manifest.signature:
            return None
        if not manifest.layout_consistent():
            return None
        if not manifest.verify(self.vendor_key):
            return None
        return manifest

    # -- chunk retrieval -------------------------------------------------------

    def _advance(self) -> None:
        """Move the cursor past stored chunks, dropping its request state."""
        tags, cursor = self.transfer.tags, self.cursor
        while cursor < len(tags) and tags[cursor]:
            cursor += 1
        self.cursor = cursor
        self.retrying = False
        self.tag_failures = 0

    def take_request(self, now: int):
        """Next Interest to emit, or None. Returns (interest, is_app_retx)."""
        if self.phase not in (AWAIT_MANIFEST, FETCHING) or self.due_at is None or now < self.due_at:
            return None
        self.due_at = None
        if self.phase == AWAIT_MANIFEST:
            return Interest(self.awaited_manifest, self._nonce()), True
        is_retry, self.retrying = self.retrying, False
        return Interest(self.transfer.manifest.base.chunk(self.cursor), self._nonce()), is_retry

    def on_chunk(self, data: Data, now: int, diverted: bool = False) -> None:
        """Verify and store a chunk; count failures of the requested index."""
        if self.phase != FETCHING or data.name.kind != CHUNK:
            return
        transfer = self.transfer
        m = transfer.manifest
        if data.name.base != m.base:
            return
        idx = data.name.chunk_id
        if not 0 <= idx < m.chunk_count or transfer.tags[idx]:
            return
        valid = (
            isinstance(data.auth, HmacTag)
            and len(data.payload) == m.chunk_length(idx)
            and len(data.auth.tag) == self.trunc_len
            and hmac_mod.compare_digest(
                data.auth.tag, tag_chunk(m.base, idx, data.payload, self.psk, self.trunc_len, self._keyed))
        )
        if valid:
            offset = idx * m.chunk_size
            transfer.image[offset : offset + len(data.payload)] = data.payload
            transfer.tags[idx] = data.auth.tag
            self._emit("DataRecv", idx, "diverted" if diverted else "")
            if self.first_chunk_recv_us is None:
                self.first_chunk_recv_us = now
            self.last_chunk_recv_us = now
            if idx != self.cursor:
                return
            if self.due_at is None:  # the requested chunk arrived
                self.due_at = now + self.turnaround_us + self.flash_write_us
            self._advance()
            if self.cursor == m.chunk_count:
                self.due_at = now + self.verify_delay_us
                self._set_phase(VERIFYING, "")
            return
        self._emit("TagFail", idx, "diverted" if diverted else "")
        if diverted or idx != self.cursor or self.due_at is not None:
            return
        self.tag_failures += 1
        if self.tag_failures >= MAX_TAG_FAILURES:
            self._abort(f"irrecoverable:chunk-{idx};vendor-report", idx)
        else:
            # Repeat the request for the invalid chunk right away.
            self.due_at = now + self.turnaround_us

    def divert_wanted(self, data: Data) -> bool:
        if self.strategy != CONCURRENT or self.phase != FETCHING:
            return False
        name, transfer = data.name, self.transfer
        if name.kind != CHUNK or name.base != transfer.manifest.base:
            return False
        return 0 <= name.chunk_id < len(transfer.tags) and not transfer.tags[name.chunk_id]

    def on_timeout(self, name: FirmwareName, now: int) -> None:
        if (self.phase == FETCHING and self.due_at is None
                and name == self.transfer.manifest.base.chunk(self.cursor)):
            self.retrying = True
            self.due_at = now + self._app_retx_delay()
            return
        if self.phase == AWAIT_MANIFEST and name == self.awaited_manifest:
            if self.manifest_retries_left > 0:
                self.manifest_retries_left -= 1
                self.due_at = now + self._app_retx_delay()
            else:
                self.awaited_manifest = None
                self._set_phase(IDLE, "manifest-timeout")

    def on_nack(self, nack: Nack) -> None:
        if self.phase == AWAIT_MANIFEST and nack.name == self.awaited_manifest:
            self.awaited_manifest = None
            self._set_phase(IDLE, f"nack:{nack.reason}")

    def _abort(self, detail: str, chunk_id: int | None) -> None:
        if self.transfer is not None:
            self.irrecoverable.add(self.transfer.manifest.base.epoch)
        self._emit("Abort", chunk_id, detail)
        self._clear_transfer()
        self._set_phase(IDLE, "aborted")

    # -- verification and install ----------------------------------------------

    def handle_deadlines(self, now: int) -> None:
        if self.phase == VERIFYING and now >= self.due_at:
            self._finish_verification(now)
        if self.phase == INSTALLING and now >= self.due_at:
            self._install(now)

    def _finish_verification(self, now: int) -> None:
        m = self.transfer.manifest
        if hashlib.sha256(self.transfer.image).digest() == m.image_digest:
            self.due_at = now + self.install_delay_us
            self._set_phase(INSTALLING, "")
            return
        self.digest_attempts += 1
        if self.digest_attempts > self.digest_retries:
            self._abort("irrecoverable:digest;vendor-report", None)
            return
        # One full re-retrieval before giving up.
        self._start_fetch(m, now, "digest-retry")
        self._emit("TagFail", None, "digest-mismatch")

    def _install(self, now: int) -> None:
        self.serving = self.transfer
        m = self.serving.manifest
        self.installed_epoch = m.base.epoch
        self._clear_transfer()
        self.poll_at = now + self.poll_period_us
        self.install_time_us = now
        self._set_phase(SERVING, f"epoch:{m.base.epoch}")
        self._emit("InstallComplete", None, f"epoch:{m.base.epoch}")

    # -- serving ----------------------------------------------------------------

    def serve_lookup(self, name: FirmwareName) -> Data | None:
        """Serve a name of the installed image from flash, or of the transfer.

        A chunk is served with the tag it was verified against on arrival;
        chunks that failed verification were never stored and are not served.
        The transfer's chunks are served only while it is fetched, its
        manifest in any phase.
        """
        base, serving, transfer = name.base, self.serving, self.transfer
        if serving is not None and base == serving.manifest.base:
            return serving.data(name)
        if (transfer is not None and base == transfer.manifest.base
                and (self.phase == FETCHING or name.kind == MANIFEST)):
            return transfer.data(name)
        return None

    def deny(self, interest: Interest) -> bool:
        """Cascading mode: refuse same-class chunk delivery until updated."""
        if self.strategy != CASCADING:
            return False
        name = interest.name
        return (
            name.kind == CHUNK
            and name.base.class_key() == self.class_key
            and name.base.epoch > self.installed_epoch
        )

    # -- scheduling ---------------------------------------------------------------

    def next_action_at(self) -> int | None:
        """The agent's next deadline; None only in AwaitManifest or Fetching while its
        request is in flight, and then the request holds a PIT entry with a local
        consumer for the awaited name, so the node's forwarder has a deadline."""
        return self.poll_at if self.phase in (IDLE, SERVING) else self.due_at
