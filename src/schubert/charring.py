"""Formal characters and Demazure operators on the weight lattice.

A Character is a finite integer combination of exponentials e^lam, stored
as a dict keyed by packed integers with zero terms pruned: fw coordinate j
of lam is the digit ``fw_j + 2^31`` in bits [32j, 32j + 32) of the key.
``Weight`` appears only where a caller hands one in or asks for one back:
``e``, the constructor and ``multiplicity`` pack, ``items``,
``char_sorted_terms`` and ``repr`` unpack.  The Demazure operator is
implemented by the closed string formula, never as a rational-function
quotient, so every value is exact:

    on e^lam with m = <lam, alpha_vee>:
        m >= 0:  e^lam + e^{lam-alpha} + ... + e^{lam-m*alpha}
        m == -1: 0
        m <= -2: -(e^{lam+alpha} + ... + e^{lam+(-m-1)*alpha})

On packed keys a string step is one integer subtraction of the packed
simple root, and m is read off digit i.  No step borrows
across digits: every term of D_w f lies in the convex hull of W.supp(f),
and an fw coordinate of a W-image is at most (h-1) * max|fw_j| of the
weight, as the simple-coroot coefficients of a coroot sum to at most h-1.
Packing therefore refuses, with ValueError, a weight with
(h-1) * max|fw_j| >= 2^31.  A character does not know its type, so h is
the largest Coxeter number of its rank.

For a word (i1,...,ik) the operator of the LAST letter applies first; this
orientation is pinned by regression tests and by the agreement of the full
w0 composition with the Freudenthal construction of irreducible characters
(a test oracle).
"""

from __future__ import annotations

from functools import lru_cache
from struct import Struct
from typing import Iterator, Sequence

from .rootsys import CartanType, RootSystem, Weight

__all__ = [
    "Character",
    "e",
    "demazure_op",
    "demazure_along_word",
    "adjoint_character",
    "char_sorted_terms",
    "char_to_str",
]

_DIGIT = 32
_OFF = 1 << (_DIGIT - 1)
_MASK = (1 << _DIGIT) - 1


@lru_cache(maxsize=None)
def _pack_limit(rank: int) -> int:
    """Largest max|fw_j| a packed weight of this rank may have."""
    coxeter_numbers = []
    for family in "ABCDEFG":
        try:
            coxeter_numbers.append(CartanType(family, rank).coxeter_number)
        except ValueError:  # the family has no type of this rank
            pass
    return (_OFF - 1) // (max(coxeter_numbers) - 1)


@lru_cache(maxsize=None)
def _layout(rank: int) -> tuple[Struct, int]:
    """rank little-endian int32s, and the mask of their sign bits.

    The digit fw_j + 2^31 is the int32 fw_j with its sign bit flipped.
    """
    return Struct(f"<{rank}i"), sum(_OFF << (_DIGIT * j) for j in range(rank))


def _pack_unchecked(fw: Sequence[int]) -> int:
    layout, flip = _layout(len(fw))
    return int.from_bytes(layout.pack(*fw), "little") ^ flip


def _pack(fw: Sequence[int]) -> int:
    """The key of fw; ValueError past the (h-1) * max|fw_j| < 2^31 bound."""
    limit = _pack_limit(len(fw))
    if max(map(abs, fw)) > limit:
        raise ValueError(
            f"weight {list(fw)} is out of range: a character of rank {len(fw)} "
            f"takes fw coordinates within +-{limit}, so that "
            f"(h-1) * max|fw_j| < 2^31 for every Coxeter number h of that rank")
    return _pack_unchecked(fw)


def _unpack(key: int) -> tuple[int, ...]:
    # every digit is positive, so the top digit ends the bit length
    layout, flip = _layout((key.bit_length() + _DIGIT - 1) // _DIGIT)
    return layout.unpack((key ^ flip).to_bytes(layout.size, "little"))


@lru_cache(maxsize=None)
def _packed_simple_roots(rs: RootSystem) -> tuple[int, ...]:
    """alpha_i as a packed difference: key(lam) - step = key(lam - alpha_i).

    One tuple per root system; ``build`` keeps those for the process anyway.
    """
    return tuple(sum(a << (_DIGIT * j) for j, a in enumerate(r.weight.fw))
                 for r in rs.simple_roots)


class Character:
    """Finite formal sum of weight exponentials with integer multiplicities."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Weight, int] | None = None):
        self._terms = {_pack(k.fw): v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def zero(cls) -> "Character":
        return cls()

    @classmethod
    def _from_packed(cls, terms: dict[int, int]) -> "Character":
        """A character that takes over a fresh packed-key dict, zeros dropped."""
        out = cls.__new__(cls)
        if 0 in terms.values():
            terms = {k: v for k, v in terms.items() if v}
        out._terms = terms
        return out

    def items(self) -> Iterator[tuple[Weight, int]]:
        return ((Weight(_unpack(k)), v) for k, v in self._terms.items())

    def multiplicity(self, lam: Weight) -> int:
        # a weight outside the digit range is never a term
        if max(map(abs, lam.fw)) >= _OFF:
            return 0
        return self._terms.get(_pack_unchecked(lam.fw), 0)

    def dimension(self) -> int:
        """Sum of multiplicities (the virtual dimension)."""
        return sum(self._terms.values())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def is_effective(self) -> bool:
        """True iff every multiplicity is nonnegative."""
        return all(v >= 0 for v in self._terms.values())

    def termwise_leq(self, other: "Character") -> bool:
        theirs = other._terms
        return all(v <= theirs.get(k, 0) for k, v in self._terms.items())

    def add(self, other: "Character", sign: int = 1) -> None:
        """self += sign * other in place, zero terms pruned: an accumulator
        takes each addend without a copy of itself.  other is not self."""
        terms = self._terms
        for k, v in other._terms.items():
            terms[k] = v = terms.get(k, 0) + sign * v
            if not v:
                del terms[k]

    def _combine(self, other: "Character", sign: int) -> "Character":
        out = Character._from_packed(dict(self._terms))
        out.add(other, sign)
        return out

    def __add__(self, other: "Character") -> "Character":
        return self._combine(other, 1)

    def __sub__(self, other: "Character") -> "Character":
        return self._combine(other, -1)

    def __neg__(self) -> "Character":
        return self * -1

    def __mul__(self, k: int) -> "Character":
        return Character._from_packed({w: k * v for w, v in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Character) and self._terms == other._terms

    def __hash__(self):  # pragma: no cover - characters are not dict keys
        raise TypeError("Character is unhashable")

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "Character(0)"
        parts = [f"{v}*e{list(_unpack(k))}" for k, v in list(self._terms.items())[:6]]
        more = "" if len(self._terms) <= 6 else f" ... ({len(self._terms)} terms)"
        return "Character(" + " + ".join(parts) + more + ")"


def e(lam: Weight, mult: int = 1) -> Character:
    """The exponential e^lam as a character."""
    return Character({lam: mult})


def demazure_op(rs: RootSystem, i: int, f: Character) -> Character:
    """Demazure operator for the i-th simple root, extended additively.

    A string step subtracts or adds the packed alpha_i.  The zero
    character comes back as it is.
    """
    rs._check_index(i)
    if f.is_zero:
        return f
    shift = _DIGIT * (i - 1)
    step = _packed_simple_roots(rs)[i - 1]
    out: dict[int, int] = {}
    get = out.get
    for key, c in f._terms.items():
        m = ((key >> shift) & _MASK) - _OFF
        if m >= 0:
            out[key] = get(key, 0) + c
            for _ in range(m):
                key -= step
                out[key] = get(key, 0) + c
        else:
            # nothing for m == -1
            for _ in range(-1 - m):
                key += step
                out[key] = get(key, 0) - c
    return Character._from_packed(out)


def demazure_along_word(rs: RootSystem, word: Sequence[int], f: Character) -> Character:
    """Composite operator for a word; the last letter acts first.

    For reduced words the result depends only on the group element, which
    the word-independence tests check on random elements.

    A seed c*e^lam with lam dominant applies only the letters that move
    its weight.  The operators satisfy D_i^2 = D_i and the braid
    relations, so D_i D_v = D_v when s_i v < v, for any word, reduced or
    not.  Walking the word from the right, f = D_v e^lam with v minimal
    in v W_lam, and mu = v lam (fw coordinates) is kept up to date:
      mu_i > 0:  s_i v > v and s_i v is again minimal; apply D_i and
                 set mu = s_i mu.
      mu_i < 0:  s_i v < v, so D_i f = f.
      mu_i == 0: either s_i v < v, or s_i v = v s_j with s_j in the
                 stabilizer W_lam, so D_i f = D_v D_j e^lam = f, as
                 D_j e^lam = e^lam when <lam, alpha_j_vee> = 0.
    A dominant seed thus costs as much as the coset of the word's
    Demazure product in W/W_lam, not as its letters.  Any other seed
    takes every letter.
    """
    for i in word:
        rs._check_index(i)
    if len(f._terms) == 1:
        mu = list(_unpack(next(iter(f._terms))))
        if min(mu) >= 0:
            cols = rs._simple_columns
            for i in reversed(word):
                m = mu[i - 1]
                if m > 0:
                    f = demazure_op(rs, i, f)
                    for j, c in cols[i - 1]:
                        mu[j] -= c * m
            return f
    for i in reversed(word):
        f = demazure_op(rs, i, f)
    return f


def adjoint_character(rs: RootSystem) -> Character:
    """Character of the adjoint representation: all roots plus rank * e^0."""
    terms = {r.weight: 1 for r in rs.roots}
    terms[rs.zero()] = rs.rank
    return Character(terms)


def char_sorted_terms(rs: RootSystem, f: Character) -> list[tuple[Weight, int]]:
    """Terms in the canonical report order: by height, then fw coordinates.

    The first sort key is D times the height (``RootSystem.scaled_height``),
    an integer with the same order as the rational height.  Every key is
    unpacked by one iter_unpack over the joined digit bytes, and the
    (height, fw, mult) rows sort as plain tuples: fw is unique, so mult
    never decides.
    """
    layout, flip = _layout(rs.rank)
    size, height = layout.size, rs.scaled_height
    digits = b"".join([(k ^ flip).to_bytes(size, "little") for k in f._terms])
    rows = sorted([(height(fw), fw, m)
                   for fw, m in zip(layout.iter_unpack(digits), f._terms.values())])
    return [(Weight(fw), m) for _, fw, m in rows]


def char_to_str(rs: RootSystem, f: Character) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for w, m in char_sorted_terms(rs, f):
        parts.append(f"{m}*e{list(w.fw)}")
    return " + ".join(parts)
