import hashlib
import random

from fwdist import agent as agent_mod
from fwdist.agent import (
    AWAIT_MANIFEST,
    AgentConfig,
    CASCADING,
    CONCURRENT,
    FETCHING,
    IDLE,
    SERVING,
    VERIFYING,
    InstalledFirmware,
    UpdateAgent,
)
from fwdist.naming import BaseName, Granularity
from fwdist.packets import Data, HmacTag, Interest, ManifestSignature
from fwdist.vendor import FirmwareImage, build_manifest, make_chunks, signing_key_from_seed, tag_chunk

KEY = signing_key_from_seed(bytes(range(32)))
PUB = KEY.public_key()
PSK = hashlib.sha256(b"agent-psk").digest()
DAY = Granularity(86400, 0)
EPOCH = 86400 * 100
PREV = EPOCH - 86400

CFG = AgentConfig(turnaround_us=0, verify_delay_us=0, install_delay_us=0)


def make_agent(strategy=CONCURRENT, installed_epoch=PREV, seed=5, events=None, config=CFG):
    sink = events if events is not None else []
    agent = UpdateAgent(
        deployment="d", vendor="v", device_class="c",
        psk=PSK, vendor_key=PUB, strategy=strategy, granularity=DAY,
        installed=InstalledFirmware(b"factory", installed_epoch),
        rng=random.Random(seed), config=config,
        emit=lambda ev, cid, detail: sink.append((ev, cid, detail)),
    )
    return agent, sink


def make_firmware(size=96, chunk_size=32, epoch=EPOCH):
    img = FirmwareImage(bytes((i * 7) % 256 for i in range(size)), "c", epoch)
    manifest = build_manifest(img, chunk_size, KEY, "d", "v")
    chunks = make_chunks(img, manifest.base, chunk_size, PSK)
    return img, manifest, chunks


def manifest_data(manifest):
    return Data(manifest.base.manifest(), manifest.to_bytes(), ManifestSignature(manifest.signature))


def chunk_packet(manifest, chunk):
    return Data(manifest.base.chunk(chunk.index), chunk.payload, HmacTag(chunk.tag))


def start_fetch(agent, manifest):
    agent.poll_version(now=0, wall_s=manifest.base.epoch)
    agent.on_manifest(manifest_data(manifest), now=0)
    assert agent.phase == FETCHING


# -- polling ------------------------------------------------------------------------

def test_poll_targets_latest_epoch_skipping_missed_versions():
    agent, _ = make_agent(installed_epoch=EPOCH - 2 * 86400)
    interest = agent.poll_version(now=0, wall_s=EPOCH + 7200)
    assert interest.name.base.epoch == EPOCH  # not EPOCH - 86400


def test_poll_at_exact_boundary():
    agent, _ = make_agent()
    interest = agent.poll_version(now=0, wall_s=EPOCH)
    assert interest.name.base.epoch == EPOCH


def test_poll_no_interest_when_current():
    agent, _ = make_agent(installed_epoch=EPOCH)
    assert agent.poll_version(now=0, wall_s=EPOCH + 100) is None
    assert agent.phase == IDLE


def test_poll_skips_irrecoverable_epoch():
    agent, _ = make_agent()
    agent.irrecoverable.add(EPOCH)
    assert agent.poll_version(now=0, wall_s=EPOCH + 100) is None


# -- implicit discovery ----------------------------------------------------------------

def test_implicit_registration_same_class_newer_epoch():
    agent, _ = make_agent()
    assert agent.wants_implicit(Interest(BaseName("d", "v", "c", EPOCH).manifest(), nonce=1))
    assert agent.phase == AWAIT_MANIFEST


def test_implicit_rejects_equal_epoch_and_other_class():
    agent, _ = make_agent()
    assert not agent.wants_implicit(Interest(BaseName("d", "v", "c", PREV).manifest(), nonce=1))
    assert not agent.wants_implicit(Interest(BaseName("d", "v", "other", EPOCH).manifest(), nonce=1))
    assert not agent.wants_implicit(Interest(BaseName("d", "v", "c", EPOCH).chunk(0), nonce=1))
    assert agent.phase == IDLE


def test_implicit_requires_idle_or_serving():
    agent, _ = make_agent()
    _, manifest, _ = make_firmware()
    agent.poll_version(now=0, wall_s=EPOCH)
    agent.on_manifest(manifest_data(manifest), now=0)
    assert agent.phase == FETCHING
    assert not agent.wants_implicit(Interest(BaseName("d", "v", "c", EPOCH + 86400).manifest(), nonce=1))


# -- manifest handling -------------------------------------------------------------------

def test_valid_manifest_starts_fetch_at_zero():
    agent, _ = make_agent()
    _, manifest, _ = make_firmware()
    agent.poll_version(now=0, wall_s=EPOCH)
    agent.on_manifest(manifest_data(manifest), now=10)
    assert agent.phase == FETCHING
    interest, is_retry = agent.take_request(now=10)
    assert interest.name.chunk_id == 0 and not is_retry


def test_tampered_manifest_reported_and_idle():
    agent, events = make_agent()
    _, manifest, _ = make_firmware()
    agent.poll_version(now=0, wall_s=EPOCH)
    payload = bytearray(manifest.to_bytes())
    payload[3] ^= 0xFF
    tampered = Data(manifest.base.manifest(), bytes(payload), ManifestSignature(manifest.signature))
    agent.on_manifest(tampered, now=10)
    assert agent.phase == IDLE
    assert any(ev == "Abort" and "vendor-report" in detail for ev, _, detail in events)
    # not marked irrecoverable: the next poll may retry this epoch
    assert EPOCH not in agent.irrecoverable


def test_equal_epoch_manifest_is_noop():
    agent, _ = make_agent(installed_epoch=EPOCH)
    _, manifest, _ = make_firmware()
    agent.awaited_manifest = manifest.base.manifest()
    agent.phase = AWAIT_MANIFEST
    agent.on_manifest(manifest_data(manifest), now=0)
    assert agent.phase == IDLE and agent.active_manifest is None


# -- stop-and-wait retrieval ----------------------------------------------------------------

def test_single_outstanding_request():
    agent, _ = make_agent()
    _, manifest, _ = make_firmware()
    start_fetch(agent, manifest)
    first = agent.take_request(now=0)
    assert first is not None
    assert agent.take_request(now=10) is None  # stop-and-wait


def test_smallest_missing_rule_covers_diverted_chunks():
    agent, _ = make_agent()
    _, manifest, chunks = make_firmware(size=13 * 32)
    start_fetch(agent, manifest)
    for i in list(range(10)) + [12]:
        agent.on_chunk(chunk_packet(manifest, chunks[i]), now=5, diverted=True)
    interest, _ = agent.take_request(now=10)
    assert interest.name.chunk_id == 10


def test_timeout_schedules_jittered_app_retx():
    agent, _ = make_agent()
    _, manifest, _ = make_firmware()
    start_fetch(agent, manifest)
    interest, _ = agent.take_request(now=0)
    t = 8_000_000
    agent.on_timeout(interest.name, now=t)
    assert agent.outstanding is None
    assert t + 5_000_000 <= agent.ready_at <= t + 15_000_000
    assert agent.take_request(now=t) is None  # blocked until the retry time
    retry, is_retry = agent.take_request(now=agent.ready_at)
    assert is_retry and retry.name.chunk_id == interest.name.chunk_id


def test_jitter_draws_are_seeded():
    delays = []
    for _ in range(2):
        agent, _ = make_agent(seed=99)
        _, manifest, _ = make_firmware()
        start_fetch(agent, manifest)
        interest, _ = agent.take_request(now=0)
        agent.on_timeout(interest.name, now=0)
        delays.append(agent.ready_at)
    assert delays[0] == delays[1]


# -- chunk verification ------------------------------------------------------------------------

def test_valid_chunk_stored_and_next_requested():
    agent, events = make_agent()
    _, manifest, chunks = make_firmware()
    start_fetch(agent, manifest)
    agent.take_request(now=0)
    agent.on_chunk(chunk_packet(manifest, chunks[0]), now=10)
    assert agent.received[0] and agent.received_count == 1
    nxt, _ = agent.take_request(now=10)
    assert nxt.name.chunk_id == 1
    assert ("DataRecv", 0, "") in [("DataRecv" if e == "ChunkStored" else e, c, d) for e, c, d in events]


def test_three_tag_failures_abort_irrecoverable():
    agent, events = make_agent()
    _, manifest, chunks = make_firmware()
    start_fetch(agent, manifest)
    bad = Data(manifest.base.chunk(0), b"\x00" * 32, HmacTag(bytes(8)))
    for attempt in range(3):
        req, _ = agent.take_request(now=attempt)
        assert req.name.chunk_id == 0  # repeats the invalid chunk only
        agent.on_chunk(bad, now=attempt)
    assert agent.phase == IDLE
    assert EPOCH in agent.irrecoverable
    assert agent.buffer is None  # discarded
    aborts = [(c, d) for e, c, d in events if e == "Abort"]
    assert aborts == [(0, "irrecoverable:chunk-0;vendor-report")]
    assert sum(1 for e, _, _ in events if e == "TagFail") == 3
    assert agent.take_request(now=100) is None  # no further chunk interests


def test_failure_counter_resets_on_success_and_is_per_index():
    agent, _ = make_agent()
    _, manifest, chunks = make_firmware()
    start_fetch(agent, manifest)
    bad0 = Data(manifest.base.chunk(0), b"\x00" * 32, HmacTag(bytes(8)))
    agent.take_request(now=0)
    agent.on_chunk(bad0, now=0)
    agent.on_chunk(bad0, now=1)  # not counted: no longer awaited? re-request first
    agent.take_request(now=1)
    agent.on_chunk(bad0, now=2)
    assert agent.fail_counts[0] == 2
    agent.take_request(now=3)
    agent.on_chunk(chunk_packet(manifest, chunks[0]), now=4)
    assert 0 not in agent.fail_counts  # reset on success
    # failures on another index start from zero
    agent.take_request(now=5)
    bad1 = Data(manifest.base.chunk(1), b"\x00" * 32, HmacTag(bytes(8)))
    agent.on_chunk(bad1, now=6)
    assert agent.fail_counts[1] == 1
    assert agent.phase == FETCHING


def test_diverted_tag_failures_not_counted():
    agent, _ = make_agent()
    _, manifest, _ = make_firmware()
    start_fetch(agent, manifest)
    bad = Data(manifest.base.chunk(2), b"\x00" * 32, HmacTag(bytes(8)))
    agent.on_chunk(bad, now=0, diverted=True)
    assert agent.fail_counts == {}
    assert not agent.received[2]


def test_overheard_chunk_stored_out_of_order():
    agent, _ = make_agent()
    _, manifest, chunks = make_firmware()
    start_fetch(agent, manifest)
    agent.take_request(now=0)  # awaiting chunk 0
    assert agent.divert_wanted(chunk_packet(manifest, chunks[2]))
    agent.on_chunk(chunk_packet(manifest, chunks[2]), now=5, diverted=True)
    assert agent.received[2] and not agent.received[0]
    # offset write: buffer slice holds the payload
    assert bytes(agent.buffer[64:96]) == chunks[2].payload


def test_divert_requires_concurrent_mode():
    agent, _ = make_agent(strategy=CASCADING)
    _, manifest, chunks = make_firmware()
    start_fetch(agent, manifest)
    assert not agent.divert_wanted(chunk_packet(manifest, chunks[1]))


# -- finalize ------------------------------------------------------------------------------------

def complete_fetch(agent, manifest, chunks, now=0):
    for chunk in chunks:
        agent.take_request(now=now)
        agent.on_chunk(chunk_packet(manifest, chunk), now=now)
    assert agent.phase == VERIFYING
    agent.handle_deadlines(now)  # zero-delay config: verify and install together
    assert agent.phase == SERVING


def test_install_retains_backup_and_serves():
    agent, events = make_agent()
    img, manifest, chunks = make_firmware()
    start_fetch(agent, manifest)
    complete_fetch(agent, manifest, chunks)
    assert agent.phase == SERVING
    assert agent.installed.data == img.data
    assert agent.installed.previous == b"factory"
    assert agent.installed.epoch == EPOCH
    assert ("InstallComplete", None, f"epoch:{EPOCH}") in events


def test_digest_mismatch_triggers_one_refetch_then_abort():
    agent, events = make_agent()
    img, manifest, chunks = make_firmware()
    # poisoned manifest digest: retrieval succeeds but verification fails
    from fwdist.vendor import Manifest
    poisoned = Manifest(manifest.base, manifest.image_size, bytes(32),
                        manifest.chunk_size, manifest.chunk_count, manifest.signature)
    agent.active_manifest = poisoned
    agent.buffer = bytearray(poisoned.image_size)
    agent.received = [None] * poisoned.chunk_count
    agent.received_count = 0
    agent.phase = FETCHING
    for chunk in chunks:
        agent.take_request(now=0)
        agent.on_chunk(chunk_packet(manifest, chunk), now=0)
    agent.handle_deadlines(0)
    assert agent.phase == FETCHING  # one full re-retrieval
    assert agent.received_count == 0
    for chunk in chunks:
        agent.take_request(now=1)
        agent.on_chunk(chunk_packet(manifest, chunk), now=1)
    agent.handle_deadlines(1)
    assert agent.phase == IDLE
    assert any(e == "Abort" and "digest" in d for e, _, d in events)


def test_post_verification_fault_injection_detected():
    agent, _ = make_agent()
    img, manifest, chunks = make_firmware()
    start_fetch(agent, manifest)
    for chunk in chunks[:-1]:
        agent.take_request(now=0)
        agent.on_chunk(chunk_packet(manifest, chunk), now=0)
    agent.take_request(now=0)
    agent.on_chunk(chunk_packet(manifest, chunks[-1]), now=0)
    agent.buffer[5] ^= 0xFF  # flip one byte after the HMAC gate
    agent.handle_deadlines(0)
    assert agent.phase == FETCHING  # digest caught it; re-retrieval begins


# -- serving ----------------------------------------------------------------------------------------

def install_agent(strategy=CONCURRENT):
    agent, _ = make_agent(strategy=strategy)
    img, manifest, chunks = make_firmware(size=7 * 32 + 9)
    start_fetch(agent, manifest)
    complete_fetch(agent, manifest, chunks)
    return agent, img, manifest, chunks


def test_serve_chunk_slices_flash_at_offset():
    agent, img, manifest, chunks = install_agent()
    data = agent.serve_lookup(manifest.base.chunk(5))
    assert data.payload == img.data[160:192]


def test_served_tags_recomputed_equal_vendor_tags():
    agent, _, manifest, chunks = install_agent()
    for chunk in chunks:
        served = agent.serve_lookup(manifest.base.chunk(chunk.index))
        assert served.auth.tag == chunk.tag


def test_served_chunks_from_flash_equal_recomputed_tags():
    agent, img, manifest, _ = install_agent()
    for idx in range(manifest.chunk_count):
        served = agent.serve_lookup(manifest.base.chunk(idx))
        payload = agent.installed.data[idx * 32 : (idx + 1) * 32]
        assert served.payload == payload
        assert served.auth == HmacTag(tag_chunk(manifest.base, idx, payload, PSK))


def test_served_chunks_from_buffer_equal_recomputed_tags():
    agent, _ = make_agent()
    _, manifest, chunks = make_firmware(size=5 * 32 + 3)
    start_fetch(agent, manifest)
    for chunk in (chunks[4], chunks[5], chunks[1]):  # overheard, out of order
        agent.on_chunk(chunk_packet(manifest, chunk), now=0, diverted=True)
    assert agent.phase == FETCHING
    for idx in range(manifest.chunk_count):
        served = agent.serve_lookup(manifest.base.chunk(idx))
        if idx not in (1, 4, 5):
            assert served is None
            continue
        payload = bytes(agent.buffer[idx * 32 : min((idx + 1) * 32, manifest.image_size)])
        assert served.payload == payload == chunks[idx].payload
        assert served.auth == HmacTag(tag_chunk(manifest.base, idx, payload, PSK))


def test_serve_lookup_does_not_tag(monkeypatch):
    agent, _, manifest, _ = install_agent()
    fetching, _ = make_agent()
    _, manifest2, chunks2 = make_firmware()
    start_fetch(fetching, manifest2)
    fetching.take_request(now=0)
    fetching.on_chunk(chunk_packet(manifest2, chunks2[0]), now=0)
    calls = []
    monkeypatch.setattr(agent_mod, "tag_chunk", lambda *a, **k: calls.append(a))
    for idx in range(manifest.chunk_count):
        assert agent.serve_lookup(manifest.base.chunk(idx)) is not None
    assert fetching.serve_lookup(manifest2.base.chunk(0)) is not None
    assert calls == []


def test_chunk_failing_tag_check_never_served():
    agent, _ = make_agent()
    _, manifest, chunks = make_firmware()
    start_fetch(agent, manifest)
    good = chunk_packet(manifest, chunks[0])
    forged_tag = Data(good.name, good.payload, HmacTag(bytes(8)))
    tampered = Data(good.name, bytes([good.payload[0] ^ 0xFF]) + good.payload[1:], good.auth)
    for bad in (forged_tag, tampered):
        agent.take_request(now=0)
        agent.on_chunk(bad, now=0)
        assert agent.serve_lookup(good.name) is None
    agent.on_chunk(chunk_packet(manifest, chunks[1]), now=0, diverted=True)
    agent.on_chunk(Data(good.name, tampered.payload, good.auth), now=0, diverted=True)
    assert agent.serve_lookup(good.name) is None
    assert agent.serve_lookup(manifest.base.chunk(1)).payload == chunks[1].payload
    agent.take_request(now=0)
    agent.on_chunk(good, now=0)
    assert agent.serve_lookup(good.name) == good


def test_serve_manifest_after_install():
    agent, _, manifest, _ = install_agent()
    served = agent.serve_lookup(manifest.base.manifest())
    assert served is not None
    assert served.payload == manifest.to_bytes()


def test_serve_last_short_chunk():
    agent, img, manifest, _ = install_agent()
    data = agent.serve_lookup(manifest.base.chunk(7))
    assert data.payload == img.data[224:]
    assert len(data.payload) == 9


def test_buffer_serving_mid_fetch_concurrent():
    agent, _ = make_agent()
    _, manifest, chunks = make_firmware()
    start_fetch(agent, manifest)
    agent.take_request(now=0)
    agent.on_chunk(chunk_packet(manifest, chunks[0]), now=0)
    served = agent.serve_lookup(manifest.base.chunk(0))
    assert served.payload == chunks[0].payload
    assert agent.serve_lookup(manifest.base.chunk(1)) is None  # not yet held


def test_cascading_denies_same_class_newer_epoch_only():
    agent, _ = make_agent(strategy=CASCADING)
    newer = BaseName("d", "v", "c", EPOCH)
    assert agent.deny(Interest(newer.chunk(0), nonce=1))
    assert not agent.deny(Interest(newer.manifest(), nonce=1))  # manifests flow
    other_class = BaseName("d", "v", "x", EPOCH)
    assert not agent.deny(Interest(other_class.chunk(0), nonce=1))
    installed = BaseName("d", "v", "c", PREV)
    assert not agent.deny(Interest(installed.chunk(0), nonce=1))


def test_cascading_stops_denying_after_install():
    agent, _, manifest, chunks = install_agent(strategy=CASCADING)
    assert not agent.deny(Interest(manifest.base.chunk(0), nonce=1))
    served = agent.serve_lookup(manifest.base.chunk(0))
    assert served.payload == chunks[0].payload


def test_poll_rearmed_after_install():
    agent, _, _, _ = install_agent()
    assert agent.phase == SERVING
    assert agent.poll_at is not None
    # Serving agents poll for future versions
    nxt = agent.poll_version(now=agent.poll_at, wall_s=EPOCH + 86400)
    assert nxt is not None and nxt.name.base.epoch == EPOCH + 86400
