import hashlib
import hmac as hmac_mod
import json
import shutil
import struct
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from fwdist.naming import BaseName, MalformedName
from fwdist.packets import Data, HmacTag, ManifestSignature
from fwdist.vendor import (
    DuplicateEpoch,
    EmptyImage,
    FirmwareImage,
    InconsistentPublication,
    InvalidChunkSize,
    InvalidTruncation,
    MalformedManifest,
    Manifest,
    Publication,
    Repository,
    ShortKey,
    build_manifest,
    chunk_image,
    make_chunks,
    publication_dir,
    read_publication,
    signing_key_from_seed,
    tag_chunk,
    tag_chunks,
    write_publication,
)

KEY = signing_key_from_seed(bytes(range(32)))
PUB = KEY.public_key()
PSK = hashlib.sha256(b"test-psk").digest()
BASE = BaseName("d", "v", "c", 1000)


def image(size, cls="c", epoch=1000):
    return FirmwareImage(BaseName("d", "v", cls, epoch), bytes(i % 251 for i in range(size)))


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
        FirmwareImage(BASE, b"")
    with pytest.raises(InvalidChunkSize):
        chunk_image(image(10), 0)
    with pytest.raises(InvalidChunkSize):  # the manifest carries it in 4 bytes
        chunk_image(image(10), 2**32)
    assert chunk_image(image(10), 2**32 - 1) == [image(10).data]


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


# from the empty key to keys longer than SHA-256's 64-byte block, which are hashed first
KEY_LENGTHS = (0, 1, 31, 32, 63, 64, 65, 200)
TAG_BASES = [BASE, BaseName("d", "v", "c", 1001), BaseName("dep", "ven", "cls", 7),
             BaseName("d\u00e9", "v", "c", 2**63)]


def _key(length):
    return bytes((length + i) % 256 for i in range(length))


@given(st.lists(st.tuples(st.sampled_from(KEY_LENGTHS), st.integers(0, 3), st.integers(0, 2**32 - 1),
                          st.binary(max_size=40), st.sampled_from([8, 16, 32])),
                min_size=1, max_size=30))
def test_tag_interleaved_keys_and_bases_match_fresh_hmac(calls):
    # no state may leak from one PSK or base into the next call
    for key_len, base_i, index, payload, trunc in calls:
        base, psk = TAG_BASES[base_i], _key(key_len)
        assert tag_chunk(base, index, payload, psk, trunc) == _oracle_tag(base, index, payload, psk, trunc)


@given(st.sampled_from(KEY_LENGTHS), st.integers(0, 3), st.sampled_from([8, 16, 32]),
       st.lists(st.binary(max_size=100), max_size=20))
def test_tag_chunks_equals_tag_chunk_per_item_and_fresh_hmac(key_len, base_i, trunc, payloads):
    base, psk = TAG_BASES[base_i], _key(key_len)
    batch = tag_chunks(base, payloads, psk, trunc)
    assert batch == [tag_chunk(base, index, payload, psk, trunc) for index, payload in enumerate(payloads)]
    assert batch == [_oracle_tag(base, index, payload, psk, trunc) for index, payload in enumerate(payloads)]


def test_tag_binds_base_name_and_index():
    t = tag_chunk(BASE, 0, b"p", PSK, 32)
    assert t != tag_chunk(BASE, 1, b"p", PSK, 32)
    other = BaseName("d", "v", "c", 1001)
    assert t != tag_chunk(other, 0, b"p", PSK, 32)


# -- manifests -----------------------------------------------------------------------

def test_manifest_digest_and_signature_verify():
    img = image(1000)
    m = build_manifest(img, 32, KEY)
    assert m.image_digest == hashlib.sha256(img.data).digest()
    assert m.verify(PUB)
    assert Manifest.from_bytes(m.to_bytes()) == m


def test_manifest_flipped_signature_bit_fails():
    m = build_manifest(image(100), 32, KEY)
    bad_sig = bytes([m.signature[0] ^ 1]) + m.signature[1:]
    tampered = Manifest(m.base, m.image_size, m.image_digest, m.chunk_size, m.chunk_count, bad_sig)
    assert not tampered.verify(PUB)


def test_manifest_ceil_division():
    m = build_manifest(image(128_000), 32, KEY)
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
    m = build_manifest(image(100), 32, KEY)
    fields = {
        "base": m.base, "image_size": m.image_size, "image_digest": m.image_digest,
        "chunk_size": m.chunk_size, "chunk_count": m.chunk_count, "signature": m.signature,
    }
    fields.update(mutation)
    assert not Manifest(**fields).verify(PUB)


# -- repository ---------------------------------------------------------------------

def publish_version(repo, epoch, size=100):
    img = image(size, epoch=epoch)
    m = build_manifest(img, 32, KEY)
    tags = make_chunks(img, 32, PSK)
    repo.publish(m, img.data, tags, PSK)
    return m, img, tags


def test_publish_then_lookup_round_trip():
    repo = Repository()
    m, img, tags = publish_version(repo, 1000)
    publication = repo.get(m.base)
    assert publication.data(m.base.chunk(0)) == Data(m.base.chunk(0), img.data[:32], HmacTag(tags[0]))
    assert publication.data(m.base.chunk(3)) == Data(m.base.chunk(3), img.data[96:], HmacTag(tags[3]))
    assert publication.manifest == m
    assert publication.image is img.data


def test_a_publication_answers_its_manifest_and_its_stored_chunks_only():
    img = image(100)
    m = build_manifest(img, 32, KEY)
    tags = make_chunks(img, 32, PSK)
    held = Publication(m, bytearray(img.data), [tags[0], None, None, tags[3]])
    assert held.data(m.base.manifest()) == Data(m.base.manifest(), m.to_bytes(), ManifestSignature(m.signature))
    assert held.data(m.base.chunk(0)) == Data(m.base.chunk(0), img.data[:32], HmacTag(tags[0]))
    assert held.data(m.base.chunk(3)) == Data(m.base.chunk(3), img.data[96:], HmacTag(tags[3]))
    assert type(held.data(m.base.chunk(3)).payload) is bytes  # not a view of the buffer
    for name in (m.base.chunk(1), m.base.chunk(4)):
        assert held.data(name) is None


def test_lookup_missing_epoch_returns_none():
    repo = Repository()
    publish_version(repo, 1000)
    assert repo.get(BaseName("d", "v", "c", 2000)) is None


def test_versioned_keying():
    repo = Repository()
    m1, _, _ = publish_version(repo, 1000, size=96)
    m2, _, _ = publish_version(repo, 2000, size=128)
    assert repo.get(m1.base).manifest.image_size == 96
    assert repo.get(m2.base).manifest.image_size == 128


def test_duplicate_epoch_rejected():
    repo = Repository()
    m, img, tags = publish_version(repo, 1000)
    with pytest.raises(DuplicateEpoch):
        repo.publish(m, img.data, tags, PSK)


def test_inconsistent_publication_rejected():
    repo = Repository()
    img = image(100)
    m = build_manifest(img, 32, KEY)
    tags = make_chunks(img, 32, PSK)
    with pytest.raises(InconsistentPublication, match="chunk count 3"):
        repo.publish(m, img.data, tags[:-1], PSK)
    with pytest.raises(InconsistentPublication, match="chunk 0 tag does not verify"):
        repo.publish(m, img.data, [bytes(len(tag)) for tag in tags], PSK)
    assert repo.get(m.base) is None


def test_publish_refuses_two_swapped_chunks_of_equal_length():
    # every tag binds its index, so a chunk out of place fails the tag check
    img = image(100)
    m = build_manifest(img, 32, KEY)
    tags = make_chunks(img, 32, PSK)
    data = img.data
    swapped = data[32:64] + data[:32] + data[64:]
    assert swapped != data and len(swapped) == len(data)
    repo = Repository()
    with pytest.raises(InconsistentPublication, match="chunk 0 tag does not verify"):
        repo.publish(m, swapped, tags, PSK)
    with pytest.raises(InconsistentPublication, match="chunk 0 tag does not verify"):
        repo.publish(m, data, [tags[1], tags[0], *tags[2:]], PSK)
    assert repo.get(m.base) is None
    repo.publish(m, data, tags, PSK)
    assert repo.get(m.base).data(m.base.chunk(1)) == Data(m.base.chunk(1), data[32:64], HmacTag(tags[1]))


@pytest.mark.parametrize("length", [99, 101, 96, 128, 0])
def test_publish_refuses_an_image_of_another_length_than_the_manifest(length):
    # a longer or shorter image whose chunk count still matches, or one that is empty
    img = image(100)
    m = build_manifest(img, 32, KEY)
    tags = make_chunks(img, 32, PSK)
    data = (img.data * 2)[:length]
    repo = Repository()
    with pytest.raises(InconsistentPublication, match=f"image has {length} bytes, manifest 100"):
        repo.publish(m, data, tags, PSK)
    assert repo.get(m.base) is None


@given(size=st.integers(min_value=1, max_value=2048), chunk=st.integers(min_value=1, max_value=128),
       base_i=st.integers(0, 3), trunc=st.sampled_from([8, 16, 32]))
def test_make_chunks_tags_payload_i_at_index_i_and_the_payloads_join_to_the_image(size, chunk, base_i,
                                                                                  trunc):
    img = FirmwareImage(TAG_BASES[base_i], bytes((7 * i + size) % 256 for i in range(size)))
    tags = make_chunks(img, chunk, PSK, trunc)
    payloads = chunk_image(img, chunk)
    assert b"".join(payloads) == img.data
    assert tags == [tag_chunk(img.base, i, payload, PSK, trunc) for i, payload in enumerate(payloads)]


@settings(max_examples=60, deadline=None)
@given(size=st.integers(min_value=1, max_value=600), chunk=st.integers(min_value=1, max_value=64),
       trunc=st.sampled_from([8, 16, 32]))
def test_the_repository_serves_each_chunk_as_make_chunks_cuts_it(size, chunk, trunc):
    img = FirmwareImage(BASE, bytes((5 * i + size) % 256 for i in range(size)))
    payloads = chunk_image(img, chunk)
    tags = make_chunks(img, chunk, PSK, trunc)
    repo = Repository()
    repo.publish(build_manifest(img, chunk, KEY), img.data, tags, PSK)
    assert repo.get(BaseName("d", "v", "c", BASE.epoch + 1)) is None
    publication = repo.get(BASE)
    for i in range(len(tags) + 2):
        name = BASE.chunk(i)
        published = Data(name, payloads[i], HmacTag(tags[i])) if i < len(tags) else None
        assert publication.data(name) == published


def _retagged(img, trunc_of):
    """Valid tags of ``img``'s chunks, tag ``i`` truncated to ``trunc_of(i)`` bytes."""
    return [tag[:trunc_of(i)] for i, tag in enumerate(make_chunks(img, 32, PSK, 32))]


@pytest.mark.parametrize("trunc_of, fault", [
    (lambda i: 12, "chunk 0 has a tag of 12 bytes"),  # raised InvalidTruncation from the tag check
    (lambda i: 8 if i % 2 == 0 else 16, "chunk 1 has a tag of 16 bytes"),  # accepted
    (lambda i: 16 if i < 3 else 8, "chunk 3 has a tag of 8 bytes"),  # accepted
], ids=["12-byte", "alternating-8-16", "last-8"])
@pytest.mark.parametrize("psk", [PSK, None], ids=["checked", "unchecked"])
def test_publish_requires_one_tag_length_from_the_truncation_lengths(trunc_of, fault, psk):
    img = image(100)
    m = build_manifest(img, 32, KEY)
    repo = Repository()
    with pytest.raises(InconsistentPublication, match=fault):
        repo.publish(m, img.data, _retagged(img, trunc_of), psk)
    assert repo.get(m.base) is None


@pytest.mark.parametrize("trunc", [8, 16, 32])
def test_publish_accepts_each_truncation_length(trunc):
    img = image(100)
    m = build_manifest(img, 32, KEY)
    repo = Repository()
    repo.publish(m, img.data, make_chunks(img, 32, PSK, trunc), PSK)
    assert len(repo.get(m.base).data(m.base.chunk(3)).auth.tag) == trunc


def test_publish_rejects_zero_chunk_size_and_empty_image():
    img = image(100)
    m = build_manifest(img, 32, KEY)
    tags = make_chunks(img, 32, PSK)
    zero_chunk = Manifest(m.base, m.image_size, m.image_digest, 0, m.chunk_count, m.signature)
    with pytest.raises(InconsistentPublication, match="chunk count"):  # was ZeroDivisionError
        Repository().publish(zero_chunk, img.data, tags, PSK)
    empty = Manifest(m.base, 0, hashlib.sha256(b"").digest(), 32, 0, m.signature)
    with pytest.raises(InconsistentPublication, match="chunk count"):  # was accepted
        Repository().publish(empty, b"", [], PSK)


@pytest.mark.parametrize("chunk_size", [0, -1, 2**32])
def test_build_manifest_rejects_a_chunk_size_the_manifest_cannot_carry(chunk_size):
    with pytest.raises(InvalidChunkSize):
        build_manifest(image(100), chunk_size, KEY)


@pytest.mark.parametrize("size", [1, 31, 32, 33, 96, 100])
def test_manifest_chunk_layout_matches_make_chunks(size):
    m = build_manifest(image(size), 32, KEY)
    assert m.layout_consistent()
    assert [m.chunk_length(i) for i in range(len(make_chunks(image(size), 32, PSK)))] == [
        len(p) for p in chunk_image(image(size), 32)]


# -- on-disk layout and fwpub -----------------------------------------------------------

def test_publication_dir_round_trip(tmp_path):
    img = image(70)
    m = build_manifest(img, 32, KEY)
    out = write_publication(tmp_path, m, img.data)
    assert sorted(p.name for p in out.iterdir()) == ["chunks.bin", "manifest.bin"]
    # fixed-length records: 3 chunks of 32 bytes (last zero-padded)
    assert (out / "chunks.bin").read_bytes() == img.data + bytes(26)
    assert read_publication(tmp_path, m.base, PSK, PUB) == Publication(m, img.data, make_chunks(img, 32, PSK))


@pytest.mark.parametrize("psk", [b"", bytes(range(31))], ids=["empty", "31-byte"])
def test_publish_and_read_publication_refuse_a_short_psk(tmp_path, psk):
    # both were accepted: every chunk tagged under a key anyone can recompute
    img = image(70)
    m = build_manifest(img, 32, KEY)
    tags = make_chunks(img, 32, psk)  # tagging itself takes a key of any length
    repo = Repository()
    with pytest.raises(ShortKey, match="at least 32 bytes, got"):
        repo.publish(m, img.data, tags, psk)
    assert repo.get(m.base) is None
    write_publication(tmp_path, m, img.data)
    with pytest.raises(ShortKey, match="at least 32 bytes, got"):
        read_publication(tmp_path, m.base, psk, PUB)
    assert read_publication(tmp_path, m.base, PSK, PUB).manifest == m


def test_read_publication_rejects_truncated_chunks_file(tmp_path):
    img = image(7 * 32 + 4)
    m = build_manifest(img, 32, KEY)
    out = write_publication(tmp_path, m, img.data)
    records = (out / "chunks.bin").read_bytes()
    (out / "chunks.bin").write_bytes(records[:100])
    with pytest.raises(InconsistentPublication, match="chunks.bin holds 100 bytes"):
        read_publication(tmp_path, m.base, PSK, PUB)


def test_read_publication_rejects_image_digest_mismatch(tmp_path):
    img = image(7 * 32 + 4)
    m = build_manifest(img, 32, KEY)
    out = write_publication(tmp_path, m, img.data)
    records = bytearray((out / "chunks.bin").read_bytes())
    records[40] ^= 0xFF  # same length, one flipped byte
    (out / "chunks.bin").write_bytes(bytes(records))
    with pytest.raises(InconsistentPublication, match="digest"):
        read_publication(tmp_path, m.base, PSK, PUB)


def test_read_publication_rejects_chunk_count_beyond_image(tmp_path):
    img = image(3 * 32)
    m = build_manifest(img, 32, KEY)
    out = write_publication(tmp_path, m, img.data)
    extra = Manifest(m.base, m.image_size, m.image_digest, 32, m.chunk_count + 1, m.signature)
    (out / "manifest.bin").write_bytes(extra.to_bytes())
    (out / "chunks.bin").write_bytes((out / "chunks.bin").read_bytes() + bytes(32))
    with pytest.raises(InconsistentPublication, match="chunk count"):
        read_publication(tmp_path, m.base, PSK, PUB)


def test_read_publication_rejects_forged_manifest(tmp_path):
    # zeroed chunks.bin plus a manifest carrying the zeros' digest and the old
    # signature: length and digest are consistent, only the signature is not
    img = image(3 * 32)
    m = build_manifest(img, 32, KEY)
    out = write_publication(tmp_path, m, img.data)
    zeros = bytes(3 * 32)
    forged = Manifest(m.base, m.image_size, hashlib.sha256(zeros).digest(), 32, 3, m.signature)
    (out / "chunks.bin").write_bytes(zeros)
    (out / "manifest.bin").write_bytes(forged.to_bytes())
    with pytest.raises(InconsistentPublication, match="signature"):
        read_publication(tmp_path, m.base, PSK, PUB)


def test_read_publication_rejects_other_vendor_key(tmp_path):
    img = image(3 * 32)
    m = build_manifest(img, 32, KEY)
    write_publication(tmp_path, m, img.data)
    other = signing_key_from_seed(bytes(32)).public_key()
    with pytest.raises(InconsistentPublication, match="signature"):
        read_publication(tmp_path, m.base, PSK, other)


def test_fwpub_cli_publishes(tmp_path):
    img_file = tmp_path / "fw.bin"
    img_file.write_bytes(bytes(range(256)) * 3)
    key_file = tmp_path / "key.bin"
    key_file.write_bytes(bytes(range(32)))
    repo_dir = tmp_path / "repo"
    cmd = [
        sys.executable, "-c", "import sys; from fwdist.cli import fwpub_main; sys.exit(fwpub_main())",
        "--image", str(img_file), "--deployment", "oilrig", "--vendor", "acme",
        "--class", "valve", "--epoch", "1632261600", "--chunk-size", "32",
        "--key-file", str(key_file), "--repo", str(repo_dir),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout)
    assert info["chunk_count"] == 24
    base = BaseName("oilrig", "acme", "valve", 1632261600)
    expected = repo_dir / "oilrig" / "acme" / "valve" / "1632261600"
    assert expected.is_dir()
    loaded = read_publication(repo_dir, base, PSK, PUB)
    assert loaded.image == img_file.read_bytes() and len(loaded.tags) == 24
    assert loaded.manifest.verify(PUB)


def _fwpub_small(tmp_path, chunk_size="32", key=bytes(range(32)), directory_for=None, extra=(), image=b"xyz"):
    """Run fwpub on a 3-byte image; ``directory_for`` names an option to point at the wrong kind
    of path: a directory for a file option, a file for ``--repo``. ``extra`` options come last,
    so they override the defaults."""
    files = {"--image": ("fw.bin", image), "--key-file": ("key.bin", key)}
    paths = []
    for option, (name, data) in files.items():
        (tmp_path / name).write_bytes(data)
        paths += [option, str(tmp_path if option == directory_for else tmp_path / name)]
    repo = tmp_path / "fw.bin" if directory_for == "--repo" else tmp_path / "r"
    cmd = [
        sys.executable, "-c", "import sys; from fwdist.cli import fwpub_main; sys.exit(fwpub_main())",
        *paths, "--deployment", "d", "--vendor", "v",
        "--class", "c", "--epoch", "10", "--chunk-size", chunk_size, "--repo", str(repo), *extra,
    ]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_fwpub_cli_rejects_bad_chunk_size(tmp_path):
    proc = _fwpub_small(tmp_path, chunk_size="0")
    assert proc.returncode == 2


def test_fwpub_cli_rejects_a_signing_key_of_the_wrong_length(tmp_path):
    proc = _fwpub_small(tmp_path, key=bytes(31))
    assert proc.returncode == 2
    assert "32 bytes" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("option, value", [
    ("--epoch", str(2**64)),  # manifest: 8 bytes
    ("--chunk-size", str(2**32)),  # manifest: 4 bytes
    ("--deployment", "d" * 70_000),  # a 2-byte length prefix
    ("--deployment", "\udcff"),  # the byte 0xff in argv: not UTF-8 text
], ids=["epoch", "chunk-size", "deployment", "not-utf-8"])
def test_fwpub_cli_rejects_values_the_wire_format_cannot_carry(tmp_path, option, value):
    # each was a struct.error traceback, exit 1
    proc = _fwpub_small(tmp_path, extra=[option, value])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("option, value", [
    ("--deployment", ".."),  # wrote <repo>/../v/c/10, outside the repository, exit 0
    ("--vendor", "."),  # wrote <repo>/d/v/c/10, where deployment "d" and vendor "v" go, exit 0
    ("--class", "é" * 128),  # 256 UTF-8 bytes: OSError "File name too long" after signing, exit 1
], ids=["dot-dot", "dot", "256-bytes"])
def test_fwpub_cli_rejects_a_component_that_is_no_directory_name(tmp_path, option, value):
    proc = _fwpub_small(tmp_path, extra=[option, value])
    assert proc.returncode == 2
    assert option in proc.stderr and "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["fw.bin", "key.bin"]


def test_fwpub_cli_accepts_a_255_byte_component(tmp_path):
    proc = _fwpub_small(tmp_path, extra=["--class", "c" * 255])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "r" / "d" / "v" / ("c" * 255) / "10" / "chunks.bin").is_file()


def test_read_publication_refuses_a_component_that_leaves_the_repository(tmp_path):
    img = image(100)
    m = build_manifest(img, 32, KEY)
    write_publication(tmp_path, m, img.data)
    repo = tmp_path / "d" / "repo"
    repo.mkdir()
    # <repo>/../v/c/1000 is the publication of d/v/c/1000, which loaded
    with pytest.raises(MalformedName, match="deployment"):
        read_publication(repo, BaseName("..", "v", "c", 1000), PSK, PUB)


@pytest.mark.parametrize("option", ["--image", "--key-file", "--repo"])
def test_fwpub_cli_rejects_a_directory_for_a_file_option(tmp_path, option):
    # and a file for --repo; each was an IsADirectoryError or NotADirectoryError traceback, exit 1
    proc = _fwpub_small(tmp_path, directory_for=option)
    assert proc.returncode == 2
    assert option in proc.stderr and "Traceback" not in proc.stderr


# -- manifest decoding of arbitrary bytes ----------------------------------------------

VALID_MANIFEST = build_manifest(image(100), 32, KEY).to_bytes()
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


# -- on-disk publications keep the repository's rules --------------------------------

@pytest.mark.parametrize("copied", [BaseName("d", "v", "c", 100), BaseName("d", "v", "x", 200)],
                         ids=["older-epoch", "other-class"])
def test_read_publication_refuses_a_copy_of_another_publication(tmp_path, copied):
    # a copy of epoch 100's directory loaded as epoch 200: the disk form of a stale replay
    img = FirmwareImage(copied, bytes(range(70)))
    m = build_manifest(img, 32, KEY)
    wanted = BaseName("d", "v", "c", 200)
    shutil.copytree(write_publication(tmp_path, m, img.data), publication_dir(tmp_path, wanted))
    with pytest.raises(InconsistentPublication, match=f"manifest of {copied}, not of {wanted}"):
        read_publication(tmp_path, wanted, PSK, PUB)
    assert read_publication(tmp_path, copied, PSK, PUB).image == img.data


def test_write_publication_refuses_a_published_epoch_and_keeps_its_bytes(tmp_path):
    first = image(70)
    second = FirmwareImage(first.base, bytes(reversed(first.data)))
    out = write_publication(tmp_path, build_manifest(first, 32, KEY), first.data)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with pytest.raises(DuplicateEpoch, match="epoch 1000 already published"):
        write_publication(tmp_path, build_manifest(second, 32, KEY), second.data)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert read_publication(tmp_path, first.base, PSK, PUB).image == first.data


def test_a_write_that_fails_partway_leaves_no_epoch_directory(tmp_path, monkeypatch):
    img = image(70)
    m = build_manifest(img, 32, KEY)
    real = type(tmp_path).write_bytes
    calls = []

    def fail_second(path, data):
        calls.append(path.name)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return real(path, data)

    monkeypatch.setattr(type(tmp_path), "write_bytes", fail_second)
    with pytest.raises(OSError, match="No space left"):
        write_publication(tmp_path, m, img.data)
    monkeypatch.undo()
    assert calls == ["manifest.bin", "chunks.bin"]
    class_dir = publication_dir(tmp_path, m.base).parent
    assert list(class_dir.iterdir()) == []  # neither the epoch nor its staging directory
    write_publication(tmp_path, m, img.data)
    assert read_publication(tmp_path, m.base, PSK, PUB).image == img.data


def test_fwpub_cli_refuses_an_epoch_already_published(tmp_path):
    # the second run exited 0 and replaced the first image
    assert _fwpub_small(tmp_path, image=b"xyz").returncode == 0
    out = tmp_path / "r" / "d" / "v" / "c" / "10"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    proc = _fwpub_small(tmp_path, image=b"abcdef")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "already published" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert read_publication(tmp_path / "r", BaseName("d", "v", "c", 10), PSK, PUB).image == b"xyz"


# three publications of uneven length: the one loaded, and one of another epoch and of another class
ON_DISK = [FirmwareImage(BaseName("d", "v", cls, epoch), bytes((13 * i + epoch) % 256 for i in range(size)))
           for cls, epoch, size in (("c", 1000, 150), ("c", 2000, 150), ("x", 1000, 150))]


@pytest.fixture(scope="module")
def on_disk(tmp_path_factory):
    """(repository holding ``ON_DISK``, {base name: (manifest.bin, chunks.bin) bytes})."""
    root = tmp_path_factory.mktemp("published")
    files = {}
    for img in ON_DISK:
        out = write_publication(root, build_manifest(img, 32, KEY), img.data)
        files[img.base] = ((out / "manifest.bin").read_bytes(), (out / "chunks.bin").read_bytes())
    return root, files


def _swap_records(raw: bytes, i: int, j: int, size: int = 32) -> bytes:
    records = [raw[k : k + size] for k in range(0, len(raw), size)]
    i, j = i % len(records), j % len(records)
    records[i], records[j] = records[j], records[i]
    return b"".join(records)


MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1), st.integers(0, 300)),
    st.tuples(st.just("extend"), st.integers(0, 1), st.binary(min_size=1, max_size=40)),
    st.tuples(st.just("flip"), st.integers(0, 1), st.integers(0, 8 * 160 - 1)),
    st.tuples(st.just("swap-records"), st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.just("swap-manifest"), st.integers(1, 2), st.booleans()),
)


@settings(max_examples=150, deadline=None)
@given(mutation=MUTATIONS)
@example(mutation=("flip", 1, 8 * 150))  # the first padding byte after the 150-byte image
@example(mutation=("swap-records", 0, 0))  # changes nothing
def test_a_mutated_publication_loads_as_published_or_not_at_all(on_disk, mutation):
    root, files = on_disk
    img = ON_DISK[0]
    raw = list(files[img.base])
    kind, a, b = mutation
    if kind == "truncate":
        raw[a] = raw[a][: b % len(raw[a])]
    elif kind == "extend":
        raw[a] += b
    elif kind == "flip":
        pos = b % (8 * len(raw[a]))
        raw[a] = raw[a][: pos // 8] + bytes([raw[a][pos // 8] ^ (1 << pos % 8)]) + raw[a][pos // 8 + 1 :]
    elif kind == "swap-records":
        raw[1] = _swap_records(raw[1], a, b)
    else:  # another epoch's or another class's manifest, and its records too if b
        other = files[ON_DISK[a].base]
        raw = [other[0], other[1] if b else raw[1]]
    mutated = root / "mutated"
    out = publication_dir(mutated, img.base)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.bin").write_bytes(raw[0])
    (out / "chunks.bin").write_bytes(raw[1])
    if raw != list(files[img.base]):  # a changed byte anywhere is refused
        with pytest.raises((InconsistentPublication, MalformedManifest)):
            read_publication(mutated, img.base, PSK, PUB)
        return
    loaded = read_publication(mutated, img.base, PSK, PUB)
    assert loaded.manifest.base == img.base
    assert (loaded.image, loaded.tags) == (img.data, make_chunks(img, 32, PSK))
