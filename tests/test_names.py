import copy
import pickle

from hypothesis import given
from hypothesis import strategies as st

from expanderseq.names import (
    VertexName,
    format_name,
    is_all_zeros,
    locus,
    parse_name,
    partner,
    strip_identity,
)

names = st.builds(
    VertexName,
    base=st.integers(min_value=0, max_value=9),
    bits=st.lists(st.integers(0, 1), max_size=6).map(tuple),
)


def test_format_examples():
    assert format_name(VertexName(0)) == "0:"
    assert format_name(VertexName(2, (1, 0, 1))) == "2:101"


def test_parse_rejects_garbage():
    for bad in ("3", "a:01", "1:012", "-1:0", "+1:", "01:", "\u0661:", "1_0:", " 1:"):
        try:
            parse_name(bad)
        except ValueError:
            continue
        raise AssertionError(f"{bad!r} should not parse")


@given(names)
def test_parse_roundtrip(name):
    assert parse_name(format_name(name)) == name


def test_children_and_partner():
    v = VertexName(1, (0,))
    assert v.child(0) == VertexName(1, (0, 0))
    assert v.child(1).parent() == v
    assert partner(VertexName(1, (0, 1))) == VertexName(1, (0, 0))


@given(names)
def test_strip_identity_idempotent(name):
    s = strip_identity(name)
    assert strip_identity(s) == s
    assert not s.bits or s.bits[-1] == 1


def test_strip_identity_follows_zero_suffix():
    v = VertexName(3, (1, 0))
    assert strip_identity(v) == VertexName(3, (1,))
    assert strip_identity(v.child(0)) == strip_identity(v)
    assert strip_identity(v.child(1)) == v.child(1)


def test_all_zeros():
    assert is_all_zeros(VertexName(0))
    assert is_all_zeros(VertexName(0, (0, 0)))
    assert not is_all_zeros(VertexName(0, (0, 1)))
    assert not is_all_zeros(VertexName(1))


def canonical(v):
    return (len(v.bits), v.base, v.bits)


@given(names, names)
def test_natural_order_is_canonical(a, b):
    assert (a < b) == (canonical(a) < canonical(b))
    assert (a == b) == (canonical(a) == canonical(b))
    assert sorted([a, b]) == sorted([a, b], key=canonical)
    twin = VertexName(a.base, tuple(list(a.bits)))
    assert twin == a and hash(twin) == hash(a)


@given(names)
def test_copy_and_pickle_roundtrip(name):
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    pickled = [pickle.loads(pickle.dumps(name, p)) for p in protocols]
    for back in (copy.copy(name), copy.deepcopy(name), *pickled):
        assert back == name and hash(back) == hash(name)
        assert type(back) is VertexName
        assert (back.base, back.bits, back.depth) == (name.base, name.bits, name.depth)


def test_repr_reads_base_and_bits():
    assert repr(VertexName(2, (1, 0))) == "VertexName(2, (1, 0))"
    assert repr(VertexName(0)) == "VertexName(0, ())"


def covers_oracle(name, ref_vertex, level):
    """Reference coverage test: whether ``name`` stands for ``ref_vertex`` at
    ``level``, written out case by case."""
    if name.base != ref_vertex.base:
        return False
    if name.depth >= level:
        return name.bits[:level] == ref_vertex.bits
    return ref_vertex.bits[: name.depth] == name.bits


def image_oracle(name, i):
    """The level-i vertex carrying this name's identity (pad 0s or project)."""
    return VertexName(name.base, (name.bits + (0,) * i)[:i])


@st.composite
def name_and_level_vertex(draw):
    """A name, a level and a level-deep name that often shares its prefix."""
    name = draw(names)
    level = draw(st.integers(0, 7))
    related = draw(st.booleans())
    base = name.base if related else draw(st.integers(0, 9))
    prefix = name.bits[:level] if related else ()
    tail = draw(st.lists(st.integers(0, 1), min_size=level - len(prefix),
                         max_size=level - len(prefix)))
    return name, level, VertexName(base, prefix + tuple(tail))


@given(name_and_level_vertex())
def test_locus_matches_covers_and_image(case):
    name, level, w = case
    assert (w in locus(name, level)) == covers_oracle(name, w, level)
    assert min(locus(name, level)) == image_oracle(name, level)
    assert all(v.depth == level for v in locus(name, level))
    assert len(locus(name, level)) == 1 << max(0, level - name.depth)
