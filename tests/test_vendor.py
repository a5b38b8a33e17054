import hashlib
import hmac as hmac_mod
import json
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fwdist.naming import BaseName
from fwdist.vendor import (
    Chunk,
    DuplicateEpoch,
    EmptyImage,
    FirmwareImage,
    InconsistentPublication,
    InvalidChunkSize,
    InvalidTruncation,
    MalformedManifest,
    Manifest,
    Repository,
    build_manifest,
    chunk_image,
    make_chunks,
    read_publication,
    signing_key_from_seed,
    tag_chunk,
    write_publication,
)

KEY = signing_key_from_seed(bytes(range(32)))
PUB = KEY.public_key()
PSK = hashlib.sha256(b"test-psk").digest()
BASE = BaseName("d", "v", "c", 1000)


def image(size, cls="c", epoch=1000):
    return FirmwareImage(bytes(i % 251 for i in range(size)), cls, epoch)


# -- chunking ----------------------------------------------------------------------

def test_paper_chunk_count_128kb():
    payloads = chunk_image(image(128_000), 32)
    assert len(payloads) == 4000


def test_single_chunk_image():
    payloads = chunk_image(image(32), 32)
    assert payloads == [image(32).data]


def test_uneven_tail():
    payloads = chunk_image(image(70), 32)
    assert [len(p) for p in payloads] == [32, 32, 6]
    assert b"".join(payloads) == image(70).data


def test_chunking_errors():
    with pytest.raises(EmptyImage):
        FirmwareImage(b"", "c", 0)
    with pytest.raises(InvalidChunkSize):
        chunk_image(image(10), 0)


@given(size=st.integers(min_value=1, max_value=4096), chunk=st.integers(min_value=1, max_value=256))
def test_reassembly_identity(size, chunk):
    img = image(size)
    payloads = chunk_image(img, chunk)
    assert b"".join(payloads) == img.data
    assert all(len(p) == chunk for p in payloads[:-1])
    assert 0 <= len(payloads) * chunk - size < chunk


# -- tags --------------------------------------------------------------------------

def test_tag_vector_against_stdlib_oracle():
    # layout: len-prefixed deployment/vendor/class, epoch u64, index u32, payload
    def comp(s):
        raw = s.encode()
        return struct.pack(">H", len(raw)) + raw

    base = BaseName("d", "v", "c", 0)
    message = comp("d") + comp("v") + comp("c") + struct.pack(">QI", 0, 0) + b""
    expected = hmac_mod.new(bytes(32), message, hashlib.sha256).digest()
    assert tag_chunk(base, 0, b"", bytes(32), 32) == expected
    # frozen value, independently computed
    assert expected.hex() == "916c41a84781d99d2e0fa8a3a5f500681dc67f404481b37b843939c1273abe1a"
    assert tag_chunk(base, 0, b"", bytes(32), 8).hex() == "916c41a84781d99d"


def test_tag_full_truncation_is_identity():
    full = tag_chunk(BASE, 3, b"payload", PSK, 32)
    assert len(full) == 32


@given(trunc=st.sampled_from([8, 16]), payload=st.binary(max_size=64), index=st.integers(0, 1 << 20))
def test_tag_prefix_property(trunc, payload, index):
    assert tag_chunk(BASE, index, payload, PSK, trunc) == tag_chunk(BASE, index, payload, PSK, 32)[:trunc]


def test_tag_invalid_truncation():
    with pytest.raises(InvalidTruncation):
        tag_chunk(BASE, 0, b"", PSK, 12)


def _oracle_tag(base, index, payload, psk, trunc):
    def comp(s):
        raw = s.encode()
        return struct.pack(">H", len(raw)) + raw

    message = (comp(base.deployment) + comp(base.vendor) + comp(base.device_class)
               + struct.pack(">QI", base.epoch, index) + payload)
    return hmac_mod.new(psk, message, hashlib.sha256).digest()[:trunc]


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1),
                          st.binary(max_size=40), st.sampled_from([8, 16, 32])),
                min_size=1, max_size=30))
def test_tag_interleaved_keys_and_bases_match_fresh_hmac(calls):
    # tag_chunk keeps keyed state per PSK and a name prefix per base: no state
    # may leak from one PSK or base into the next call
    psks = [hashlib.sha256(bytes([i])).digest() for i in range(3)] + [b"short key"]
    bases = [BASE, BaseName("d", "v", "c", 1001), BaseName("dep", "ven", "cls", 7),
             BaseName("d\u00e9", "v", "c", 2**63)]
    for psk_i, base_i, index, payload, trunc in calls:
        base, psk = bases[base_i], psks[psk_i]
        assert tag_chunk(base, index, payload, psk, trunc) == _oracle_tag(base, index, payload, psk, trunc)


def test_tag_binds_base_name_and_index():
    t = tag_chunk(BASE, 0, b"p", PSK, 32)
    assert t != tag_chunk(BASE, 1, b"p", PSK, 32)
    other = BaseName("d", "v", "c", 1001)
    assert t != tag_chunk(other, 0, b"p", PSK, 32)


# -- manifests -----------------------------------------------------------------------

def test_manifest_digest_and_signature_verify():
    img = image(1000)
    m = build_manifest(img, 32, KEY, "d", "v")
    assert m.image_digest == hashlib.sha256(img.data).digest()
    assert m.verify(PUB)
    assert Manifest.from_bytes(m.to_bytes()) == m


def test_manifest_flipped_signature_bit_fails():
    m = build_manifest(image(100), 32, KEY, "d", "v")
    bad_sig = bytes([m.signature[0] ^ 1]) + m.signature[1:]
    tampered = Manifest(m.base, m.image_size, m.image_digest, m.chunk_size, m.chunk_count, bad_sig)
    assert not tampered.verify(PUB)


def test_manifest_ceil_division():
    m = build_manifest(image(128_000), 32, KEY, "d", "v")
    assert m.chunk_count == 4000
    assert m.image_size == 128_000


@pytest.mark.parametrize("mutation", [
    {"image_size": 101},
    {"image_digest": bytes(32)},
    {"chunk_size": 16},
    {"chunk_count": 9},
    {"base": BaseName("d", "v", "c", 2000)},
])
def test_manifest_rejects_any_field_mutation(mutation):
    m = build_manifest(image(100), 32, KEY, "d", "v")
    fields = {
        "base": m.base, "image_size": m.image_size, "image_digest": m.image_digest,
        "chunk_size": m.chunk_size, "chunk_count": m.chunk_count, "signature": m.signature,
    }
    fields.update(mutation)
    assert not Manifest(**fields).verify(PUB)


# -- repository ---------------------------------------------------------------------

def publish_version(repo, epoch, size=100):
    img = image(size, epoch=epoch)
    m = build_manifest(img, 32, KEY, "d", "v")
    chunks = make_chunks(img, m.base, 32, PSK)
    repo.publish(m, chunks, PSK)
    return m, chunks


def test_publish_then_lookup_round_trip():
    repo = Repository()
    m, chunks = publish_version(repo, 1000)
    got = repo.lookup_chunk(m.base, 0)
    assert got.payload == chunks[0].payload and got.tag == chunks[0].tag
    assert repo.lookup_manifest(m.base) == m


def test_lookup_missing_epoch_returns_none():
    repo = Repository()
    publish_version(repo, 1000)
    assert repo.lookup_manifest(BaseName("d", "v", "c", 2000)) is None
    assert repo.lookup_chunk(BaseName("d", "v", "c", 2000), 0) is None


def test_versioned_keying():
    repo = Repository()
    m1, _ = publish_version(repo, 1000, size=96)
    m2, _ = publish_version(repo, 2000, size=128)
    assert repo.lookup_manifest(m1.base).image_size == 96
    assert repo.lookup_manifest(m2.base).image_size == 128
    assert repo.epochs(("d", "v", "c")) == [1000, 2000]


def test_duplicate_epoch_rejected():
    repo = Repository()
    m, chunks = publish_version(repo, 1000)
    with pytest.raises(DuplicateEpoch):
        repo.publish(m, chunks, PSK)


def test_inconsistent_publication_rejected():
    repo = Repository()
    img = image(100)
    m = build_manifest(img, 32, KEY, "d", "v")
    chunks = make_chunks(img, m.base, 32, PSK)
    with pytest.raises(InconsistentPublication):
        repo.publish(m, chunks[:-1], PSK)
    bad_tag = [Chunk(c.index, c.payload, bytes(len(c.tag))) for c in chunks]
    with pytest.raises(InconsistentPublication):
        repo.publish(m, bad_tag, PSK)


# -- on-disk layout and fwpub -----------------------------------------------------------

def test_publication_dir_round_trip(tmp_path):
    img = image(70)
    m = build_manifest(img, 32, KEY, "d", "v")
    chunks = make_chunks(img, m.base, 32, PSK)
    out = write_publication(tmp_path, m, chunks)
    assert (out / "manifest.bin").exists() and (out / "chunks.bin").exists()
    # fixed-length records: 3 chunks of 32 bytes (last zero-padded)
    assert len((out / "chunks.bin").read_bytes()) == 96
    loaded = read_publication(tmp_path, m.base, PSK, PUB)
    assert loaded.manifest == m
    assert [c.payload for c in loaded.chunks] == [c.payload for c in chunks]
    assert [c.tag for c in loaded.chunks] == [c.tag for c in chunks]


def test_read_publication_rejects_truncated_chunks_file(tmp_path):
    img = image(7 * 32 + 4)
    m = build_manifest(img, 32, KEY, "d", "v")
    out = write_publication(tmp_path, m, make_chunks(img, m.base, 32, PSK))
    records = (out / "chunks.bin").read_bytes()
    (out / "chunks.bin").write_bytes(records[:100])
    with pytest.raises(InconsistentPublication, match="chunks.bin holds 100 bytes"):
        read_publication(tmp_path, m.base, PSK, PUB)


def test_read_publication_rejects_image_digest_mismatch(tmp_path):
    img = image(7 * 32 + 4)
    m = build_manifest(img, 32, KEY, "d", "v")
    out = write_publication(tmp_path, m, make_chunks(img, m.base, 32, PSK))
    records = bytearray((out / "chunks.bin").read_bytes())
    records[40] ^= 0xFF  # same length, one flipped byte
    (out / "chunks.bin").write_bytes(bytes(records))
    with pytest.raises(InconsistentPublication, match="digest"):
        read_publication(tmp_path, m.base, PSK, PUB)


def test_read_publication_rejects_chunk_count_beyond_image(tmp_path):
    img = image(3 * 32)
    m = build_manifest(img, 32, KEY, "d", "v")
    out = write_publication(tmp_path, m, make_chunks(img, m.base, 32, PSK))
    extra = Manifest(m.base, m.image_size, m.image_digest, 32, m.chunk_count + 1, m.signature)
    (out / "manifest.bin").write_bytes(extra.to_bytes())
    (out / "chunks.bin").write_bytes((out / "chunks.bin").read_bytes() + bytes(32))
    with pytest.raises(InconsistentPublication, match="chunk count"):
        read_publication(tmp_path, m.base, PSK, PUB)


def test_read_publication_rejects_forged_manifest(tmp_path):
    # zeroed chunks.bin plus a manifest carrying the zeros' digest and the old
    # signature: length and digest are consistent, only the signature is not
    img = image(3 * 32)
    m = build_manifest(img, 32, KEY, "d", "v")
    out = write_publication(tmp_path, m, make_chunks(img, m.base, 32, PSK))
    zeros = bytes(3 * 32)
    forged = Manifest(m.base, m.image_size, hashlib.sha256(zeros).digest(), 32, 3, m.signature)
    (out / "chunks.bin").write_bytes(zeros)
    (out / "manifest.bin").write_bytes(forged.to_bytes())
    with pytest.raises(InconsistentPublication, match="signature"):
        read_publication(tmp_path, m.base, PSK, PUB)


def test_read_publication_rejects_other_vendor_key(tmp_path):
    img = image(3 * 32)
    m = build_manifest(img, 32, KEY, "d", "v")
    write_publication(tmp_path, m, make_chunks(img, m.base, 32, PSK))
    other = signing_key_from_seed(bytes(32)).public_key()
    with pytest.raises(InconsistentPublication, match="signature"):
        read_publication(tmp_path, m.base, PSK, other)


def test_fwpub_cli_publishes(tmp_path):
    img_file = tmp_path / "fw.bin"
    img_file.write_bytes(bytes(range(256)) * 3)
    psk_file = tmp_path / "psk.bin"
    psk_file.write_bytes(PSK)
    key_file = tmp_path / "key.bin"
    key_file.write_bytes(bytes(range(32)))
    repo_dir = tmp_path / "repo"
    cmd = [
        sys.executable, "-c", "import sys; from fwdist.cli import fwpub_main; sys.exit(fwpub_main())",
        "--image", str(img_file), "--deployment", "oilrig", "--vendor", "acme",
        "--class", "valve", "--epoch", "1632261600", "--chunk-size", "32",
        "--psk-file", str(psk_file), "--key-file", str(key_file), "--repo", str(repo_dir),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout)
    assert info["chunk_count"] == 24
    base = BaseName("oilrig", "acme", "valve", 1632261600)
    expected = repo_dir / "oilrig" / "acme" / "valve" / "1632261600"
    assert expected.is_dir()
    loaded = read_publication(repo_dir, base, PSK, PUB)
    assert b"".join(c.payload for c in loaded.chunks) == img_file.read_bytes()
    assert loaded.manifest.verify(PUB)


def _fwpub_small(tmp_path, chunk_size="32", key=bytes(range(32))):
    img_file = tmp_path / "fw.bin"
    img_file.write_bytes(b"xyz")
    psk_file = tmp_path / "psk.bin"
    psk_file.write_bytes(PSK)
    key_file = tmp_path / "key.bin"
    key_file.write_bytes(key)
    cmd = [
        sys.executable, "-c", "import sys; from fwdist.cli import fwpub_main; sys.exit(fwpub_main())",
        "--image", str(img_file), "--deployment", "d", "--vendor", "v",
        "--class", "c", "--epoch", "10", "--chunk-size", chunk_size,
        "--psk-file", str(psk_file), "--key-file", str(key_file), "--repo", str(tmp_path / "r"),
    ]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_fwpub_cli_rejects_bad_chunk_size(tmp_path):
    proc = _fwpub_small(tmp_path, chunk_size="0")
    assert proc.returncode == 2


def test_fwpub_cli_rejects_a_signing_key_of_the_wrong_length(tmp_path):
    proc = _fwpub_small(tmp_path, key=bytes(31))
    assert proc.returncode == 2
    assert "32 bytes" in proc.stderr and "Traceback" not in proc.stderr


# -- manifest decoding of arbitrary bytes ----------------------------------------------

VALID_MANIFEST = build_manifest(image(100), 32, KEY, "d", "v").to_bytes()
spliced_manifests = st.tuples(st.integers(0, len(VALID_MANIFEST)), st.binary(max_size=8),
                              st.integers(0, len(VALID_MANIFEST))).map(
    lambda t: VALID_MANIFEST[:t[0]] + t[1] + VALID_MANIFEST[t[2]:])


@settings(max_examples=300)
@given(raw=st.binary(max_size=200) | spliced_manifests)
def test_manifest_from_bytes_gives_a_manifest_or_malformed_manifest(raw):
    try:
        manifest = Manifest.from_bytes(raw)
    except MalformedManifest:
        return
    assert isinstance(manifest.base, BaseName)
    assert manifest.to_bytes() == raw
