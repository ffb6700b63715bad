"""Split-history vertex names and their canonical order.

A name is a base symbol in {0, ..., d/2} plus a bit string recording the
doublings the vertex has survived.  When a vertex splits, the surviving half
appends a 0 bit and the newly created half appends a 1 bit, so the 0-suffixed
name continues the identity of its parent.  Stripping trailing zeros therefore
yields a persistent identity that is stable across the whole life of a vertex;
``expansion_cost`` compares graphs under that identity while structural
equality stays on raw names.  ``locus`` tells which names of another depth
a name stands for.

Names compare in the canonical order (bit length, base, bits), which every
deterministic choice of the construction follows: split order, edge order,
routing ties and delivery order.  ``VertexName`` is a tuple stored in that
order, so ``<``, ``sorted`` and ``min`` need no key.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from operator import itemgetter


class VertexName(tuple):
    """A name stored as ``(depth, base, bits)``: tuple order is canonical."""

    __slots__ = ()

    def __new__(cls, base: int, bits: tuple[int, ...] = ()) -> "VertexName":
        return tuple.__new__(cls, (len(bits), base, bits))

    def __getnewargs__(self) -> tuple[int, tuple[int, ...]]:
        return self[1], self[2]

    def __repr__(self) -> str:
        return f"VertexName({self[1]!r}, {self[2]!r})"

    depth = property(itemgetter(0), doc="Number of doublings survived.")
    base = property(itemgetter(1), doc="Base symbol in {0, ..., d/2}.")
    bits = property(itemgetter(2), doc="Split history, oldest bit first.")

    def child(self, bit: int) -> "VertexName":
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        return VertexName(self.base, self.bits + (bit,))

    def parent(self) -> "VertexName":
        """Drop the final bit (the projection onto the previous doubling)."""
        if not self.bits:
            raise ValueError(f"name {format_name(self)} has no parent")
        return VertexName(self.base, self.bits[:-1])


def partner(name: VertexName) -> VertexName:
    """The other half of the same split: same name with the last bit flipped."""
    if not name.bits:
        raise ValueError(f"name {format_name(name)} has no partner")
    return VertexName(name.base, name.bits[:-1] + (1 - name.bits[-1],))


@cache
def locus(name: VertexName, level: int) -> frozenset[VertexName]:
    """The depth-``level`` names that ``name`` stands for: its ancestor there,
    or, if ``name`` is shallower, every descendant (its future copies)."""
    if name.depth >= level:
        return frozenset([VertexName(name.base, name.bits[:level])])
    tails = product((0, 1), repeat=level - name.depth)
    return frozenset(VertexName(name.base, name.bits + t) for t in tails)


@cache
def strip_identity(name: VertexName) -> VertexName:
    """Persistent identity: the name with trailing 0 bits removed."""
    bits = name.bits
    k = len(bits)
    while k and bits[k - 1] == 0:
        k -= 1
    return VertexName(name.base, bits[:k])


def is_all_zeros(name: VertexName) -> bool:
    """True for the coordinator identity (base 0, only 0 bits)."""
    return name.base == 0 and all(b == 0 for b in name.bits)


@cache
def format_name(name: VertexName) -> str:
    """Serialize as ``base:bitstring`` (empty bit string allowed)."""
    return f"{name.base}:{''.join(['01'[b] for b in name.bits])}"


def parse_name(text: str) -> VertexName:
    """The name ``format_name`` writes as ``text``; any other spelling fails."""
    base_part, sep, bit_part = text.partition(":")
    if not sep:
        raise ValueError(f"malformed vertex name {text!r}: missing ':'")
    digits = base_part.isascii() and base_part.isdigit()
    if not digits or str(int(base_part)) != base_part:
        raise ValueError(f"malformed vertex name {text!r}: bad base")
    if bit_part.strip("01"):
        raise ValueError(f"malformed vertex name {text!r}: bits must be 0/1")
    return VertexName(int(base_part), tuple(int(b) for b in bit_part))
