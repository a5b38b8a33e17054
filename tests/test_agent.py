import hashlib
import random
from dataclasses import replace

from hypothesis import given, strategies as st

from fwdist import agent as agent_mod
from fwdist.agent import (
    AWAIT_MANIFEST,
    CASCADING,
    CONCURRENT,
    FETCHING,
    IDLE,
    INSTALLING,
    SERVING,
    VERIFYING,
    UpdateAgent,
)
from fwdist.forwarder import UPSTREAM, Drop, Forward, Forwarder
from fwdist.naming import BaseName, Granularity
from fwdist.packets import Data, HmacTag, Interest, ManifestSignature
from fwdist.scenario import NodeParams, Scenario
from fwdist.vendor import (
    FirmwareImage,
    build_manifest,
    chunk_image,
    make_chunks,
    signing_key_from_seed,
    tag_chunk,
)

KEY = signing_key_from_seed(bytes(range(32)))
PUB = KEY.public_key()
PSK = hashlib.sha256(b"agent-psk").digest()
DAY = Granularity(86400, 0)
EPOCH = 86400 * 100
PREV = EPOCH - 86400

NODE = NodeParams(turnaround_us=0, verify_delay_us=0, install_delay_us=0)


def make_agent(strategy=CONCURRENT, installed_epoch=PREV, seed=5, events=None):
    sink = events if events is not None else []
    scenario = Scenario(strategy=strategy, image_size=96, deployment="d", vendor="v",
                        granularity=DAY, node=NODE)
    agent = UpdateAgent(
        scenario, device_class="c", psk=PSK, vendor_key=PUB,
        installed_epoch=installed_epoch,
        rng=random.Random(seed),
        emit=lambda ev, cid, detail: sink.append((ev, cid, detail)),
    )
    return agent, sink


def make_firmware(size=96, chunk_size=32, epoch=EPOCH, cls="c", psk=PSK, step=7, trunc_len=8):
    img = FirmwareImage(BaseName("d", "v", cls, epoch), bytes((i * step) % 256 for i in range(size)))
    manifest = build_manifest(img, chunk_size, KEY)
    chunks = list(zip(chunk_image(img, chunk_size), make_chunks(img, chunk_size, psk, trunc_len)))
    return img, manifest, chunks  # chunks[i] is chunk i's (payload, tag)


def manifest_data(manifest):
    return Data(manifest.base.manifest(), manifest.to_bytes(), ManifestSignature(manifest.signature))


def chunk_packet(manifest, chunks, index):
    """The Data packet of ``chunks[index]``, chunk ``index`` of ``manifest``."""
    payload, tag = chunks[index]
    return Data(manifest.base.chunk(index), payload, HmacTag(tag))


def start_fetch(agent, manifest):
    agent.poll_version(wall_s=manifest.base.epoch)
    agent.on_manifest(manifest_data(manifest), now=0)
    assert agent.phase == FETCHING


# -- polling ------------------------------------------------------------------------

def test_poll_targets_latest_epoch_skipping_missed_versions():
    agent, _ = make_agent(installed_epoch=EPOCH - 2 * 86400)
    interest = agent.poll_version(wall_s=EPOCH + 7200)
    assert interest.name.base.epoch == EPOCH  # not EPOCH - 86400


def test_poll_at_exact_boundary():
    agent, _ = make_agent()
    interest = agent.poll_version(wall_s=EPOCH)
    assert interest.name.base.epoch == EPOCH


def test_poll_no_interest_when_current():
    agent, _ = make_agent(installed_epoch=EPOCH)
    assert agent.poll_version(wall_s=EPOCH + 100) is None
    assert agent.phase == IDLE


def test_poll_skips_irrecoverable_epoch():
    agent, _ = make_agent()
    agent.irrecoverable.add(EPOCH)
    assert agent.poll_version(wall_s=EPOCH + 100) is None


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
    agent.poll_version(wall_s=EPOCH)
    agent.on_manifest(manifest_data(manifest), now=0)
    assert agent.phase == FETCHING
    assert not agent.wants_implicit(Interest(BaseName("d", "v", "c", EPOCH + 86400).manifest(), nonce=1))


def test_implicit_registration_not_taken_on_refused_pit_insert():
    agent, _ = make_agent()
    fwd = Forwarder(nonce_source=lambda: 7, node=NodeParams(pit_capacity=1),
                    implicit=agent.wants_implicit)
    foreign = Interest(BaseName("d", "v", "other", EPOCH).manifest(), nonce=1)
    assert fwd.on_interest(1, foreign, now=0) == [Forward(UPSTREAM, foreign)]
    own = Interest(BaseName("d", "v", "c", EPOCH).manifest(), nonce=2)
    assert fwd.on_interest(2, own, now=0) == [Drop("pit-full")]
    # no entry, so no manifest and no timeout would ever reach an awaiting agent
    assert agent.phase == IDLE and agent.awaited_manifest is None
    assert agent.poll_version(wall_s=EPOCH) is not None


# -- manifest handling -------------------------------------------------------------------

def test_valid_manifest_starts_fetch_at_zero():
    agent, _ = make_agent()
    _, manifest, _ = make_firmware()
    agent.poll_version(wall_s=EPOCH)
    agent.on_manifest(manifest_data(manifest), now=10)
    assert agent.phase == FETCHING
    interest, is_retry = agent.take_request(now=10)
    assert interest.name.chunk_id == 0 and not is_retry


def test_tampered_manifest_reported_and_idle():
    agent, events = make_agent()
    _, manifest, _ = make_firmware()
    agent.poll_version(wall_s=EPOCH)
    payload = bytearray(manifest.to_bytes())
    payload[3] ^= 0xFF
    tampered = Data(manifest.base.manifest(), bytes(payload), ManifestSignature(manifest.signature))
    agent.on_manifest(tampered, now=10)
    assert agent.phase == IDLE
    assert any(ev == "Abort" and "vendor-report" in detail for ev, _, detail in events)
    # not marked irrecoverable: the next poll may retry this epoch
    assert EPOCH not in agent.irrecoverable


def test_equal_epoch_manifest_is_noop():
    # neither a poll nor an implicit registration awaits the installed epoch, so its
    # manifest is ignored like any manifest the agent did not ask for
    agent, _ = make_agent(installed_epoch=EPOCH)
    _, manifest, _ = make_firmware()
    assert agent.poll_version(wall_s=EPOCH) is None
    assert not agent.wants_implicit(Interest(manifest.base.manifest(), nonce=1))
    agent.on_manifest(manifest_data(manifest), now=0)
    assert agent.phase == IDLE and agent.awaited_manifest is None and agent.transfer is None


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
        agent.on_chunk(chunk_packet(manifest, chunks, i), now=5, diverted=True)
    interest, _ = agent.take_request(now=10)
    assert interest.name.chunk_id == 10


def test_timeout_schedules_jittered_app_retx():
    agent, _ = make_agent()
    _, manifest, _ = make_firmware()
    start_fetch(agent, manifest)
    interest, _ = agent.take_request(now=0)
    t = 8_000_000
    agent.on_timeout(interest.name, now=t)
    assert agent.retrying and agent.cursor == interest.name.chunk_id
    assert t + 5_000_000 <= agent.due_at <= t + 15_000_000
    assert agent.take_request(now=t) is None  # blocked until the retry time
    retry, is_retry = agent.take_request(now=agent.due_at)
    assert is_retry and retry.name.chunk_id == interest.name.chunk_id
    assert not agent.retrying and agent.due_at is None  # in flight again


def test_jitter_draws_are_seeded():
    delays = []
    for _ in range(2):
        agent, _ = make_agent(seed=99)
        _, manifest, _ = make_firmware()
        start_fetch(agent, manifest)
        interest, _ = agent.take_request(now=0)
        agent.on_timeout(interest.name, now=0)
        delays.append(agent.due_at)
    assert delays[0] == delays[1]


# -- chunk verification ------------------------------------------------------------------------

def test_valid_chunk_stored_and_next_requested():
    agent, events = make_agent()
    _, manifest, chunks = make_firmware()
    start_fetch(agent, manifest)
    agent.take_request(now=0)
    agent.on_chunk(chunk_packet(manifest, chunks, 0), now=10)
    assert agent.transfer.tags[0] and agent.cursor == 1
    nxt, _ = agent.take_request(now=10)
    assert nxt.name.chunk_id == 1
    assert ("DataRecv", 0, "") in events


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
    assert agent.transfer is None  # discarded
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
    assert (agent.cursor, agent.tag_failures) == (0, 2)
    agent.take_request(now=3)
    agent.on_chunk(chunk_packet(manifest, chunks, 0), now=4)
    assert (agent.cursor, agent.tag_failures) == (1, 0)  # reset on success
    # failures on another index start from zero
    agent.take_request(now=5)
    bad1 = Data(manifest.base.chunk(1), b"\x00" * 32, HmacTag(bytes(8)))
    agent.on_chunk(bad1, now=6)
    assert (agent.cursor, agent.tag_failures) == (1, 1)
    assert agent.phase == FETCHING


def test_diverted_tag_failures_not_counted():
    agent, _ = make_agent()
    _, manifest, _ = make_firmware()
    start_fetch(agent, manifest)
    bad = Data(manifest.base.chunk(2), b"\x00" * 32, HmacTag(bytes(8)))
    agent.on_chunk(bad, now=0, diverted=True)
    assert agent.tag_failures == 0
    assert not agent.transfer.tags[2]


def test_overheard_chunk_stored_out_of_order():
    agent, _ = make_agent()
    _, manifest, chunks = make_firmware()
    start_fetch(agent, manifest)
    agent.take_request(now=0)  # awaiting chunk 0
    assert agent.divert_wanted(chunk_packet(manifest, chunks, 2))
    agent.on_chunk(chunk_packet(manifest, chunks, 2), now=5, diverted=True)
    assert agent.transfer.tags[2] and not agent.transfer.tags[0]
    # offset write: buffer slice holds the payload
    assert bytes(agent.transfer.image[64:96]) == chunks[2][0]


def test_divert_requires_concurrent_mode():
    agent, _ = make_agent(strategy=CASCADING)
    _, manifest, chunks = make_firmware()
    start_fetch(agent, manifest)
    assert not agent.divert_wanted(chunk_packet(manifest, chunks, 1))


STEPS = st.one_of(
    st.tuples(st.just("request"), st.just(0), st.just(False)),
    st.tuples(st.sampled_from(["valid", "tampered", "timeout"]), st.integers(0, 5), st.booleans()),
)


@given(st.lists(STEPS, max_size=60))
def test_the_cursor_is_the_smallest_unstored_chunk_and_the_only_one_requested(steps):
    agent, events = make_agent()
    _, manifest, chunks = make_firmware(size=5 * 32 + 7)
    start_fetch(agent, manifest)
    stored = set()
    for step, (kind, idx, diverted) in enumerate(steps, start=1):
        now = step * 20_000_000  # past any turnaround or app-layer retry delay
        if kind == "request":
            request = agent.take_request(now)
            if request is not None:
                assert request[0].name == manifest.base.chunk(agent.cursor)
        elif kind == "timeout":
            agent.on_timeout(manifest.base.chunk(idx), now)
        else:
            packet = chunk_packet(manifest, chunks, idx)
            if kind == "tampered":
                packet = Data(packet.name, bytes([packet.payload[0] ^ 1]) + packet.payload[1:], packet.auth)
            agent.on_chunk(packet, now, diverted=diverted)
            if kind == "valid":
                stored.add(idx)
        if agent.phase == IDLE:  # the third tag failure of a requested chunk
            assert kind == "tampered" and not diverted and idx == min(set(range(6)) - stored)
            return
        assert [bool(tag) for tag in agent.transfer.tags] == [i in stored for i in range(6)]
        assert (agent.phase == VERIFYING) == (len(stored) == 6)
        if agent.phase == VERIFYING:
            return
        assert agent.cursor == min(set(range(6)) - stored)
    assert sum(1 for e, _, d in events if d == "Fetching->VerifyingImage") == 0


# -- accepted and refused deliveries --------------------------------------------------------------

OTHER_PSK = hashlib.sha256(b"agent-psk-other").digest()
_, PUBLISHED, PUBLISHED_CHUNKS = make_firmware(size=80)
STALE_CHUNKS = make_firmware(size=80, epoch=PREV, step=11)[2]
OTHER_CHUNKS = make_firmware(size=80, cls="other", psk=OTHER_PSK, step=13)[2]


def delivery(kind, idx, pos):
    """Data for chunk ``idx`` of the current epoch, made as ``kind`` says."""
    payload, tag = PUBLISHED_CHUNKS[idx]
    if kind == "flipped":
        at = pos % len(payload)
        payload = payload[:at] + bytes([payload[at] ^ 0x01]) + payload[at + 1:]
    elif kind == "forged":
        tag = bytes([tag[0] ^ 0x80]) + tag[1:]
    elif kind == "long-tag":
        tag = tag + b"\x00"
    elif kind == "short-payload":
        payload = payload[:-1]
    elif kind == "stale":
        payload, tag = STALE_CHUNKS[idx]
    elif kind == "other-class":
        payload, tag = OTHER_CHUNKS[idx]
    return Data(PUBLISHED.base.chunk(idx), payload, HmacTag(tag))


DELIVERY_KINDS = ["published", "flipped", "forged", "long-tag", "short-payload", "stale", "other-class"]


@given(st.lists(st.tuples(st.sampled_from(DELIVERY_KINDS), st.integers(0, 2), st.integers(0, 31),
                          st.booleans()), min_size=1, max_size=25))
def test_a_fetching_agent_accepts_exactly_the_published_chunks(deliveries):
    agent, events = make_agent()
    start_fetch(agent, PUBLISHED)
    for now, (kind, idx, pos, diverted) in enumerate(deliveries, start=1):
        agent.take_request(now)
        checked = agent.phase == FETCHING and not agent.transfer.tags[idx]
        before = len(events)
        agent.on_chunk(delivery(kind, idx, pos), now=now, diverted=diverted)
        outcome = [ev for ev in events[before:] if ev[0] in ("DataRecv", "TagFail")]
        if not checked:
            assert outcome == []
            continue
        verdict = "DataRecv" if kind == "published" else "TagFail"
        assert outcome == [(verdict, idx, "diverted" if diverted else "")]
        if verdict == "DataRecv":
            assert agent.transfer.tags[idx] == PUBLISHED_CHUNKS[idx][1]


# -- finalize ------------------------------------------------------------------------------------

def complete_fetch(agent, manifest, chunks, now=0):
    for i in range(len(chunks)):
        agent.take_request(now=now)
        agent.on_chunk(chunk_packet(manifest, chunks, i), now=now)
    assert agent.phase == VERIFYING
    agent.handle_deadlines(now)  # zero-delay config: verify and install together
    assert agent.phase == SERVING


def test_install_serves_the_installed_image():
    agent, events = make_agent()
    assert agent.serving is None  # the image a device ships with is never served
    img, manifest, chunks = make_firmware()
    start_fetch(agent, manifest)
    complete_fetch(agent, manifest, chunks)
    assert agent.phase == SERVING
    assert agent.serving.image == img.data
    assert agent.installed_epoch == EPOCH
    assert ("InstallComplete", None, f"epoch:{EPOCH}") in events


def poisoned(manifest):
    """``manifest`` with a wrong image digest, validly signed: every chunk
    passes its tag check but the image fails verification."""
    unsigned = replace(manifest, image_digest=bytes(32))
    return replace(unsigned, signature=KEY.sign(unsigned.body()))


def test_digest_mismatch_triggers_one_refetch_then_abort():
    agent, events = make_agent()
    img, manifest, chunks = make_firmware()
    start_fetch(agent, poisoned(manifest))
    for i in range(len(chunks)):
        agent.take_request(now=0)
        agent.on_chunk(chunk_packet(manifest, chunks, i), now=0)
    agent.handle_deadlines(0)
    assert agent.phase == FETCHING  # one full re-retrieval
    assert agent.cursor == 0 and not any(agent.transfer.tags) and agent.tag_failures == 0
    assert ("TagFail", None, "digest-mismatch") in events
    for i in range(len(chunks)):
        agent.take_request(now=1)
        agent.on_chunk(chunk_packet(manifest, chunks, i), now=1)
    agent.handle_deadlines(1)
    assert agent.phase == IDLE
    assert any(e == "Abort" and "digest" in d for e, _, d in events)


def test_a_digest_refetch_starts_with_no_retry_mark():
    agent, events = make_agent()
    _, manifest, chunks = make_firmware()
    start_fetch(agent, poisoned(manifest))
    first, _ = agent.take_request(now=0)
    agent.on_timeout(first.name, now=1)  # chunk 0 is marked for an app-layer retry
    assert agent.retrying
    for i in (1, 2, 0):  # then every chunk is overheard
        agent.on_chunk(chunk_packet(manifest, chunks, i), now=2, diverted=True)
    assert agent.phase == VERIFYING and not agent.retrying
    agent.handle_deadlines(2)
    assert agent.phase == FETCHING
    # the re-fetch's first request is a fresh one, not an app-layer retry
    request, is_retry = agent.take_request(now=2)
    assert request.name.chunk_id == 0 and not is_retry


def test_post_verification_fault_injection_detected():
    agent, _ = make_agent()
    img, manifest, chunks = make_firmware()
    start_fetch(agent, manifest)
    for i in range(len(chunks) - 1):
        agent.take_request(now=0)
        agent.on_chunk(chunk_packet(manifest, chunks, i), now=0)
    agent.take_request(now=0)
    agent.on_chunk(chunk_packet(manifest, chunks, len(chunks) - 1), now=0)
    agent.transfer.image[5] ^= 0xFF  # flip one byte after the HMAC gate
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
    for i, (_, tag) in enumerate(chunks):
        served = agent.serve_lookup(manifest.base.chunk(i))
        assert served.auth.tag == tag


def test_served_chunks_from_flash_equal_recomputed_tags():
    agent, img, manifest, _ = install_agent()
    for idx in range(manifest.chunk_count):
        served = agent.serve_lookup(manifest.base.chunk(idx))
        payload = agent.serving.image[idx * 32 : (idx + 1) * 32]
        assert served.payload == payload
        assert served.auth == HmacTag(tag_chunk(manifest.base, idx, payload, PSK))


def test_served_chunks_from_buffer_equal_recomputed_tags():
    agent, _ = make_agent()
    _, manifest, chunks = make_firmware(size=5 * 32 + 3)
    start_fetch(agent, manifest)
    for i in (4, 5, 1):  # overheard, out of order
        agent.on_chunk(chunk_packet(manifest, chunks, i), now=0, diverted=True)
    assert agent.phase == FETCHING
    for idx in range(manifest.chunk_count):
        served = agent.serve_lookup(manifest.base.chunk(idx))
        if idx not in (1, 4, 5):
            assert served is None
            continue
        payload = bytes(agent.transfer.image[idx * 32 : min((idx + 1) * 32, manifest.image_size)])
        assert served.payload == payload == chunks[idx][0]
        assert served.auth == HmacTag(tag_chunk(manifest.base, idx, payload, PSK))


def test_serve_lookup_does_not_tag(monkeypatch):
    agent, _, manifest, _ = install_agent()
    fetching, _ = make_agent()
    _, manifest2, chunks2 = make_firmware()
    start_fetch(fetching, manifest2)
    fetching.take_request(now=0)
    fetching.on_chunk(chunk_packet(manifest2, chunks2, 0), now=0)
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
    good = chunk_packet(manifest, chunks, 0)
    forged_tag = Data(good.name, good.payload, HmacTag(bytes(8)))
    tampered = Data(good.name, bytes([good.payload[0] ^ 0xFF]) + good.payload[1:], good.auth)
    for bad in (forged_tag, tampered):
        agent.take_request(now=0)
        agent.on_chunk(bad, now=0)
        assert agent.serve_lookup(good.name) is None
    agent.on_chunk(chunk_packet(manifest, chunks, 1), now=0, diverted=True)
    agent.on_chunk(Data(good.name, tampered.payload, good.auth), now=0, diverted=True)
    assert agent.serve_lookup(good.name) is None
    assert agent.serve_lookup(manifest.base.chunk(1)).payload == chunks[1][0]
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
    agent.on_chunk(chunk_packet(manifest, chunks, 0), now=0)
    served = agent.serve_lookup(manifest.base.chunk(0))
    assert served.payload == chunks[0][0]
    assert agent.serve_lookup(manifest.base.chunk(1)) is None  # not yet held


def test_the_transfer_serves_its_manifest_in_every_phase_and_its_chunks_only_while_fetching():
    agent, _ = make_agent()
    agent.install_delay_us = 10
    _, manifest, chunks = make_firmware()
    names = [manifest.base.chunk(i) for i in range(len(chunks))]
    start_fetch(agent, manifest)
    for i in range(len(chunks)):
        assert agent.serve_lookup(manifest.base.manifest()) == manifest_data(manifest)
        agent.on_chunk(chunk_packet(manifest, chunks, i), now=0, diverted=True)
        if agent.phase == FETCHING:
            assert agent.serve_lookup(names[i]) == chunk_packet(manifest, chunks, i)
    for phase, now in ((VERIFYING, 0), (INSTALLING, 10)):
        assert agent.phase == phase
        assert agent.serve_lookup(manifest.base.manifest()) == manifest_data(manifest)
        assert [agent.serve_lookup(name) for name in names] == [None] * len(names)
        agent.handle_deadlines(now)
    assert agent.phase == SERVING  # and now from flash
    assert [agent.serve_lookup(name) for name in names] == [
        chunk_packet(manifest, chunks, i) for i in range(len(chunks))]


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
    assert served.payload == chunks[0][0]


def test_poll_rearmed_after_install():
    agent, _, _, _ = install_agent()
    assert agent.phase == SERVING
    assert agent.poll_at is not None
    # Serving agents poll for future versions
    nxt = agent.poll_version(wall_s=EPOCH + 86400)
    assert nxt is not None and nxt.name.base.epoch == EPOCH + 86400
