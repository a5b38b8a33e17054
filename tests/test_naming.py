import pickle

import pytest
from hypothesis import given, strategies as st

from fwdist.naming import (
    MAX_COMPONENT_BYTES,
    BaseName,
    EncodingModel,
    FirmwareName,
    Granularity,
    MalformedName,
    align_epoch,
    encoded_size,
)
from fwdist.vendor import Manifest

PAPER_EXAMPLE = ["OilRig-3", "IoTCompany-5", "Valve-7", "1632261600", "manifest"]


def test_paper_example_components():
    name = BaseName("OilRig-3", "IoTCompany-5", "Valve-7", 1632261600).manifest()
    assert name.components() == tuple(PAPER_EXAMPLE)
    assert str(name) == "/" + "/".join(PAPER_EXAMPLE)


def test_minimal_chunk_name_components():
    assert BaseName("D", "V", "C", 0).chunk(0).components() == ("D", "V", "C", "0", "chunk", "0")


MALFORMED = {
    "negative-chunk-id": lambda: BaseName("D", "V", "C", 10).chunk(-1),
    "non-integer-epoch": lambda: BaseName("D", "V", "C", "1"),
    "unknown-suffix": lambda: FirmwareName(BaseName("D", "V", "C", 1), "blob"),
    "firmware-suffix": lambda: FirmwareName(BaseName("D", "V", "C", 1), "firmware"),
    "chunk-without-id": lambda: FirmwareName(BaseName("D", "V", "C", 1), "chunk"),
    "manifest-with-id": lambda: FirmwareName(BaseName("D", "V", "C", 1), "manifest", 0),
    "empty-identifier": lambda: BaseName("", "V", "C", 1),
    "separator-in-identifier": lambda: BaseName("D/e", "V", "C", 1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_constructors_reject_malformed(case):
    with pytest.raises(MalformedName):
        MALFORMED[case]()


def test_format_suffixes():
    base = BaseName("d", "v", "c", 5)
    assert base.chunk(42).components()[-2:] == ("chunk", "42")
    assert base.manifest().components()[-1] == "manifest"


identifiers = st.text(
    alphabet=st.characters(blacklist_characters="/", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=12,
)


@given(
    deployment=identifiers,
    vendor=identifiers,
    device_class=identifiers,
    epoch=st.integers(min_value=0, max_value=2**48),
    suffix=st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
)
def test_round_trip(deployment, vendor, device_class, epoch, suffix):
    base = BaseName(deployment, vendor, device_class, epoch)
    name = base.manifest() if suffix is None else base.chunk(suffix)
    tail = ("manifest",) if suffix is None else ("chunk", str(suffix))
    assert name.components() == (deployment, vendor, device_class, str(epoch)) + tail
    # no component holds the separator, so the text splits back into the components
    assert str(name).split("/") == ["", *name.components()]


def test_text_round_trip():
    name = BaseName("oilrig", "acme", "valve", 1632261600).chunk(7)
    assert str(name) == "/oilrig/acme/valve/1632261600/chunk/7"
    assert tuple(str(name).split("/")[1:]) == name.components()


# -- equality and hashing ------------------------------------------------------
# Names hash once at construction and compare by identity first; these pin
# that equality still follows the fields, whichever way a name was built.

short_identifiers = st.text(alphabet="ab/é", min_size=1, max_size=2).filter(lambda s: "/" not in s)
suffixes = st.one_of(st.just(("manifest", None)), st.tuples(st.just("chunk"), st.integers(0, 3)))
name_fields = st.tuples(short_identifiers, short_identifiers, short_identifiers,
                        st.integers(0, 2), suffixes)


def _build(fields, route):
    deployment, vendor, device_class, epoch, (kind, chunk_id) = fields
    if route == "direct":
        return FirmwareName(BaseName(deployment, vendor, device_class, epoch), kind, chunk_id)
    manifest = Manifest(BaseName(deployment, vendor, device_class, epoch), 64, bytes(32), 32, 2,
                        bytes(64))
    return FirmwareName(Manifest.from_bytes(manifest.to_bytes()).base, kind, chunk_id)


ROUTES = st.sampled_from(["direct", "manifest"])


@given(a=name_fields, b=name_fields, route_a=ROUTES, route_b=ROUTES)
def test_names_equal_exactly_when_fields_equal(a, b, route_a, route_b):
    for fb in (a, b):  # the same fields by another route, and other fields
        x, y = _build(a, route_a), _build(fb, route_b)
        assert (x == y) == (a == fb) and (x != y) == (a != fb)
        assert (x.base == y.base) == (a[:4] == fb[:4])
        # components and text tell names apart exactly as equality does
        assert (x.components() == y.components()) == (a == fb)
        assert (str(x) == str(y)) == (a == fb)
        if x == y:
            assert hash(x) == hash(y) and hash(x.base) == hash(y.base)
            assert {x: 1}[y] == 1 and {x.base: 1}[y.base] == 1


@given(a=name_fields, b=name_fields)
def test_names_of_different_kinds_or_bases_never_compare_equal(a, b):
    x, y = _build(a, "direct"), _build(b, "direct")
    if a[4][0] != b[4][0] or a[:4] != b[:4]:
        assert x != y and not x == y
    # a base name (a tuple of four) never equals a full name (a tuple of three)
    assert x.base != y and y != x.base and not x.base == y


# -- names are checked, immutable tuples ----------------------------------------

NAME = BaseName("oilrig", "acme", "valve", 1632261600).chunk(7)


def test_names_are_immutable():
    for name, field in ((NAME, "chunk_id"), (NAME, "base"), (NAME.base, "epoch")):
        with pytest.raises(AttributeError):
            setattr(name, field, 1)
    with pytest.raises(AttributeError):
        NAME.base.extra = 1


def test_make_and_replace_run_the_checks():
    assert NAME._replace(chunk_id=8) == NAME.base.chunk(8)
    assert BaseName._make(["d", "v", "c", 5]) == BaseName("d", "v", "c", 5)
    for build in (lambda: NAME._replace(chunk_id=-1),
                  lambda: NAME._replace(kind="manifest"),
                  lambda: NAME._replace(base=("oilrig", "acme", "valve", 1632261600)),
                  lambda: NAME.base._replace(vendor="a/b"),
                  lambda: BaseName._make(["d", "v", "c", True]),
                  lambda: FirmwareName._make([NAME.base, "blob", None])):
        with pytest.raises(MalformedName):
            build()


def test_names_fit_the_manifest_encoding():
    # each component takes a 2-byte length prefix, the epoch 8 bytes
    widest = "é" * (MAX_COMPONENT_BYTES // 2) + "x"
    assert len(widest.encode("utf-8")) == MAX_COMPONENT_BYTES
    base = BaseName(widest, "v", "c", 2**64 - 1)
    manifest = Manifest(base, 64, bytes(32), 32, 2, bytes(64))
    assert Manifest.from_bytes(manifest.to_bytes()).base == base
    for build in (lambda: BaseName(widest + "x", "v", "c", 1),
                  lambda: BaseName("d", "\ud800", "c", 1),
                  lambda: BaseName("d", "v", "c", 2**64)):
        with pytest.raises(MalformedName):
            build()


def test_names_hash_as_their_field_tuples_and_survive_pickle():
    assert hash(NAME.base) == hash(("oilrig", "acme", "valve", 1632261600))
    assert hash(NAME) == hash((NAME.base, "chunk", 7))
    for name in (NAME, NAME.base, NAME.base.manifest()):
        copy = pickle.loads(pickle.dumps(name))
        assert type(copy) is type(name) and copy == name and hash(copy) == hash(name)


def test_name_str_and_repr():
    assert str(NAME) == "/oilrig/acme/valve/1632261600/chunk/7"
    assert str(NAME.base) == "/oilrig/acme/valve/1632261600"
    assert repr(NAME) == ("FirmwareName(base=BaseName(deployment='oilrig', vendor='acme', "
                          "device_class='valve', epoch=1632261600), kind='chunk', chunk_id=7)")
    assert repr(NAME.base.manifest()).endswith("kind='manifest', chunk_id=None)")


# -- epoch alignment ---------------------------------------------------------

DAY = Granularity(86400, -7200)  # daily, local midnight at UTC+2


def test_align_paper_value():
    # 2021-09-22 13:47 local (UTC+2) is 1632311220; local midnight is 1632261600.
    assert align_epoch(1632311220, DAY) == 1632261600


def test_align_boundary_and_floor():
    g = Granularity(86400, 0)
    assert align_epoch(86400, g) == 86400
    assert align_epoch(86399, g) == 0


@given(
    t=st.integers(min_value=0, max_value=2**40),
    period=st.integers(min_value=1, max_value=10**6),
    offset_frac=st.floats(min_value=-0.99, max_value=0.99),
)
def test_align_properties(t, period, offset_frac):
    g = Granularity(period, int(period * offset_frac))
    aligned = align_epoch(t, g)
    assert aligned <= t
    assert (aligned - g.offset) % period == 0
    # greatest such value: one more period would overshoot
    assert aligned + period > t
    # idempotence (skip when the aligned value dips below the time axis)
    if aligned >= 0:
        assert align_epoch(aligned, g) == aligned


@given(
    t1=st.integers(min_value=0, max_value=2**32),
    delta=st.integers(min_value=0, max_value=2**20),
    period=st.integers(min_value=1, max_value=10**5),
)
def test_align_monotone(t1, delta, period):
    g = Granularity(period, 0)
    assert align_epoch(t1, g) <= align_epoch(t1 + delta, g)


def test_granularity_validation():
    with pytest.raises(ValueError):
        Granularity(0, 0)
    with pytest.raises(ValueError):
        Granularity(100, 100)


# -- size model ---------------------------------------------------------------

EXPERIMENT_BASE = BaseName("oilrig", "acme", "valve", 1632261600)


def test_experiment_names_are_45_bytes():
    assert encoded_size(EXPERIMENT_BASE.chunk(0)) == 45
    assert encoded_size(EXPERIMENT_BASE.manifest()) == 45


def test_empty_overhead_model_sums_raw_lengths():
    model = EncodingModel(component_overhead=0, name_overhead=0)
    name = BaseName("a", "b", "c", 0).manifest()
    # 1 + 1 + 1 + 1 + 8
    assert encoded_size(name, model) == 12


def test_size_model_linearity():
    name = EXPERIMENT_BASE.chunk(3)
    base_model = EncodingModel(component_overhead=1, name_overhead=4)
    bumped = EncodingModel(component_overhead=2, name_overhead=4)
    assert encoded_size(name, bumped) - encoded_size(name, base_model) == len(name.components())


def test_chunk_names_share_base_prefix():
    names = [EXPERIMENT_BASE.chunk(i) for i in range(5)]
    prefixes = {n.components()[:4] for n in names}
    assert prefixes == {EXPERIMENT_BASE.components()}


overheads = st.integers(min_value=0, max_value=64)
# one-, two-, three- and four-byte UTF-8 characters
sized_identifiers = st.one_of(identifiers, st.text(alphabet="a\u00e9\u20ac\U0001F600", min_size=1, max_size=6))


@given(
    deployment=sized_identifiers,
    vendor=sized_identifiers,
    device_class=sized_identifiers,
    epoch=st.one_of(st.sampled_from([0, 9, 10, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    suffix=st.one_of(st.just("manifest"),
                     st.sampled_from([0, 9, 10, 99, 100, 2**32 - 2]),
                     st.integers(0, 2**32 - 2)),
    model=st.one_of(st.just(EncodingModel()), st.builds(EncodingModel, overheads, overheads)),
)
def test_encoded_size_counts_every_component(deployment, vendor, device_class, epoch, suffix, model):
    base = BaseName(deployment, vendor, device_class, epoch)
    name = FirmwareName(base, suffix) if isinstance(suffix, str) else base.chunk(suffix)
    expected = model.name_overhead + sum(len(c.encode("utf-8")) + model.component_overhead
                                         for c in name.components())
    assert encoded_size(name, model) == expected
