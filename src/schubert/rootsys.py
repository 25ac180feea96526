"""Finite crystallographic root systems with exact integer arithmetic.

Everything downstream (Weyl groups, Demazure operators, cohomology
verifiers) sits on the data built here.  Simple roots are numbered 1..n in
the Bourbaki convention; see the README for the per-family tables.  The
Cartan matrix is stored as ``C[i][j] = <alpha_j, alpha_i_vee>`` so that the
fundamental-weight coordinates of ``alpha_j`` are exactly column ``j``.

Weights live in fundamental-weight coordinates (``fw[i] = <lam,
alpha_i_vee>``), which makes coroot pairings O(1) lookups.  The engine
works on the bare ``fw`` tuples; ``Weight`` wraps them at the API edge.
Heights and root coordinates go through D * C^-1, the inverse Cartan
matrix scaled by the smallest common denominator D of its entries, so
they stay in the integers, and ``build`` finds D * C^-1 by fraction-free
Gauss-Jordan elimination.  ``Fraction`` appears only at the API edge:
``root_coords`` gives exact rational values.  No floats anywhere.

The enumeration guard lives here too, next to the |W| it bounds
(``CartanType.weyl_order``): ``resolve_guard`` reads it, and ``weyl`` and
``report`` raise ``GuardExceeded`` when a universe is larger.  ``build``
raises it too, before any work, for a type with more than
``BUILD_ROOT_BOUND`` roots.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "CartanType",
    "Weight",
    "Root",
    "RootSystem",
    "build",
    "DEFAULT_GUARD",
    "BUILD_ROOT_BOUND",
    "GUARD_ENV_VAR",
    "GuardExceeded",
    "resolve_guard",
]

_FAMILIES = {"A", "B", "C", "D", "E", "F", "G"}

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_EXCEPTIONAL_ROOT_COUNTS = {("E", 6): 72, ("E", 7): 126, ("E", 8): 240,
                            ("F", 4): 48, ("G", 2): 12}

_EXCEPTIONAL_WEYL_ORDERS = {("E", 6): 51840, ("E", 7): 2903040,
                            ("E", 8): 696729600, ("F", 4): 1152, ("G", 2): 12}


class Record:
    """A slotted record: its fields are its slots, in order.

    Equal only to a record of the same class with equal fields, unhashable
    unless a subclass says otherwise, and shown as Class(field=value, ...).
    """

    __slots__ = ()
    __hash__ = None

    def __init__(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._fields())
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"


class _Value(Record):
    """A frozen record.  Unpickling would assign the slots, so an instance
    pickles as a call of its class on its fields."""

    __slots__ = ()

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()


class CartanType(_Value):
    """Family letter plus rank, e.g. D4.  Validates on construction."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int) -> None:
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        lo, hi = _RANK_BOUNDS[family]
        if rank < lo or (hi is not None and rank > hi):
            raise ValueError(f"rank {rank} out of range for type {family}")
        super().__init__(family, rank)

    def __hash__(self) -> int:
        return hash((self.family, self.rank))

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        text = text.strip()
        family, digits = text[:1].upper(), text[1:]
        # ASCII digits only: str.isdigit takes '²', which int refuses, and '٣', read as 3
        if family not in _FAMILIES or not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"cannot parse Cartan type from {text!r}")
        return cls(family, int(digits))

    @property
    def simply_laced(self) -> bool:
        return self.family in ("A", "D", "E")

    @property
    def root_count(self) -> int:
        n = self.rank
        if self.family == "A":
            return n * (n + 1)
        if self.family in ("B", "C"):
            return 2 * n * n
        if self.family == "D":
            return 2 * n * (n - 1)
        return _EXCEPTIONAL_ROOT_COUNTS[(self.family, n)]

    @property
    def coxeter_number(self) -> int:
        """h = |R| / rank, one more than the height of the highest root."""
        return self.root_count // self.rank

    @property
    def weyl_order(self) -> int:
        n = self.rank
        if self.family == "A":
            return factorial(n + 1)
        if self.family in ("B", "C"):
            return 2 ** n * factorial(n)
        if self.family == "D":
            return 2 ** (n - 1) * factorial(n)
        return _EXCEPTIONAL_WEYL_ORDERS[(self.family, n)]

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


DEFAULT_GUARD = 10 ** 6
GUARD_ENV_VAR = "SCHUBERT_GUARD"
# A fixed bound, not an option: A140 (19,740 roots) builds in about 1.4 s
# on a 2-core x86-64 host, and A141 is refused at once.
BUILD_ROOT_BOUND = 20_000


class GuardExceeded(RuntimeError):
    """Raised when a requested enumeration would exceed the |W| guard, or a
    root system would exceed BUILD_ROOT_BOUND."""


def resolve_guard(explicit: int | None = None) -> int:
    """The guard given, else $SCHUBERT_GUARD, else DEFAULT_GUARD; a negative
    one is a ValueError naming where it came from."""
    guard, source = explicit, "--guard"
    if guard is None:
        env = os.environ.get(GUARD_ENV_VAR)
        if env is None:
            return DEFAULT_GUARD
        try:
            guard, source = int(env), GUARD_ENV_VAR
        except ValueError as exc:
            raise ValueError(f"{GUARD_ENV_VAR} must be an integer, got {env!r}") from exc
    if guard < 0:
        raise ValueError(f"{source} must be a nonnegative integer, got {guard}")
    return guard


class Weight(_Value):
    """Integral weight in fundamental-weight coordinates."""

    __slots__ = ("fw",)

    def __init__(self, fw: tuple[int, ...]) -> None:
        object.__setattr__(self, "fw", fw)

    def __hash__(self) -> int:
        return hash((self.fw,))

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.fw, other.fw)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.fw, other.fw)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.fw))

    def __mul__(self, k: int) -> "Weight":
        return Weight(tuple(k * a for a in self.fw))

    __rmul__ = __mul__

    @property
    def is_dominant(self) -> bool:
        return all(a >= 0 for a in self.fw)

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.fw)

    def __repr__(self) -> str:
        return f"Weight{self.fw}"


class Root(_Value):
    """A root together with both coordinate views and length data.

    coords are the (integer) simple-root coordinates; weight is the same
    vector in fundamental-weight coordinates.  d is half the squared length
    in the normalization where short simple roots have d = 1.
    """

    __slots__ = ("coords", "weight", "positive", "height", "d", "is_long", "is_short")

    def __hash__(self) -> int:
        return hash((self.coords, self.weight, self.positive, self.height, self.d,
                     self.is_long, self.is_short))

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords), -self.weight,
                    not self.positive, -self.height, self.d,
                    self.is_long, self.is_short)

    def __repr__(self) -> str:
        return f"Root{self.coords}"


def _dynkin(ct: CartanType) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Bourbaki's Dynkin diagram of ct (Lie, ch. VI, Plates I-IX): its edges
    (i, k), i < k, 1-based, in lexicographic order, and the symmetrizers d,
    half the squared length of each simple root, 1 on the short ones."""
    n = ct.rank
    edges = [(k, k + 1) for k in range(1, n)]
    if ct.family == "D":
        edges[-1] = (n - 2, n)
    elif ct.family == "E":
        edges[:3] = [(1, 3), (2, 4), (3, 4)]
    d = {"B": (2,) * (n - 1) + (1,), "C": (1,) * (n - 1) + (2,),
         "F": (2, 2, 1, 1), "G": (1, 3)}.get(ct.family, (1,) * n)
    return tuple(edges), d


def _cartan_matrix(edges: Sequence[tuple[int, int]],
                   d: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Bourbaki Cartan matrix with C[i][j] = <alpha_j, alpha_i_vee>, 0-based,
    read off the diagram by one rule: (alpha_i, alpha_i) = 2 d_i, and an
    edge {i, j} has (alpha_i, alpha_j) = -max(d_i, d_j), so C[i][j] =
    (alpha_i, alpha_j) / d_i."""
    c = [[2 * (i == j) for j in range(len(d))] for i in range(len(d))]
    for i, j in edges:
        m = -max(d[i - 1], d[j - 1])
        c[i - 1][j - 1], c[j - 1][i - 1] = m // d[i - 1], m // d[j - 1]
    return tuple(map(tuple, c))


def _scaled_inverse(cartan: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, D * C^-1) for the smallest D that makes D * C^-1 integral.

    Fraction-free Gauss-Jordan on [C | I]: rows combine with integer
    multipliers and are divided by the gcd of their entries.  Every leading
    principal minor of a finite-type Cartan matrix is positive, so every
    pivot is, and row i ends as p_i x_i = r_i with p_i > 0 coprime to r_i:
    p_i is the common denominator of row i of C^-1, and D = lcm(p_i).
    """
    n = len(cartan)
    a = [list(cartan[i]) + [1 if i == k else 0 for k in range(n)] for i in range(n)]
    for col in range(n):
        p = a[col][col]
        for r in range(n):
            f = a[r][col]
            if r != col and f != 0:
                row = [p * x - f * y for x, y in zip(a[r], a[col])]
                g = gcd(*row)
                a[r] = [x // g for x in row]
    den = lcm(*(a[i][i] for i in range(n)))
    return den, tuple(tuple(x * (den // a[i][i]) for x in a[i][n:]) for i in range(n))


class RootSystem:
    """Immutable root-system data for one Cartan type.

    Build through :func:`build`, which caches instances per type.  All
    attributes are fixed after construction, so no table grows with the
    weights a process has seen.
    """

    def __init__(self, ct: CartanType):
        self.ct = ct
        self.rank = ct.rank
        self._edges, self.d = _dynkin(ct)
        self.cartan = _cartan_matrix(self._edges, self.d)
        # D * C^-1 over the integers; its column sums give D * height
        self._den, self._scaled_inv = _scaled_inverse(self.cartan)
        self._height_vec = tuple(map(sum, zip(*self._scaled_inv)))
        # column k of C as its nonzero (j, C[j][k]): alpha_k = sum_j C[j][k] omega_j
        self._simple_columns = tuple(
            tuple((j, row[k]) for j, row in enumerate(self.cartan) if row[k])
            for k in range(ct.rank))
        # (j, -C[j][k]) for the Dynkin neighbours j of k: the left step
        # s_k tau adds these multiples of row k of tau's matrix to row j
        self._neighbours = tuple(tuple((j, -c) for j, c in col if j != k)
                                 for k, col in enumerate(self._simple_columns))
        # row d of C as its nonzero (k, C[d][k]): on x_k = D ht w(alpha_k),
        # w -> w s_d is x_k -= C[d][k] x_d, which negates x_d
        self._simple_rows = tuple(
            tuple((k, c) for k, c in enumerate(row) if c) for row in self.cartan)
        self.rho = Weight((1,) * ct.rank)
        self.fundamental_weights = tuple(
            Weight(tuple(1 if k == i else 0 for k in range(ct.rank)))
            for i in range(ct.rank))
        self._build_roots()

    # -- construction -----------------------------------------------------

    def _build_roots(self) -> None:
        # close the simple roots under simple reflections in fw coordinates:
        # s_i beta = beta - fw_i alpha_i, and beta keeps the d of the simple
        # root it came from, since a reflection preserves the invariant form
        n, cols = self.rank, self._simple_columns
        found = {tuple(int(j == k) for j in range(n)): (tuple(row[k] for row in self.cartan), d)
                 for k, d in enumerate(self.d)}
        frontier = list(found.items())
        while frontier:
            nxt = []
            for c, (fw, d) in frontier:
                for i, a in enumerate(fw):
                    if a:
                        img = list(c)
                        img[i] -= a
                        img = tuple(img)
                        if img not in found:
                            f = list(fw)
                            for j, x in cols[i]:
                                f[j] -= a * x
                            found[img] = value = (tuple(f), d)
                            nxt.append((img, value))
            frontier = nxt
        if len(found) != self.ct.root_count:
            raise AssertionError(
                f"{self.ct}: generated {len(found)} roots, expected {self.ct.root_count}")

        max_d = max(self.d)
        positives = []
        for c, (fw, d) in found.items():
            # <beta, beta_vee> = 2: sum_j c_j d_j fw_j is twice beta's d
            if sum(map(mul, c, map(mul, self.d, fw))) != 2 * d:
                raise AssertionError(f"root {c}: squared length is not 2d for d = {d}")
            pos, neg = min(c) >= 0, max(c) <= 0
            if pos == neg:
                raise AssertionError(f"root {c} is neither positive nor negative")
            if pos:
                positives.append(Root(c, Weight(fw), True, sum(c), d, d == max_d, d == 1))
        positives.sort(key=lambda r: (r.height, r.coords))
        self.positive_roots: tuple[Root, ...] = tuple(positives)
        self.roots: tuple[Root, ...] = tuple(positives) + tuple(-r for r in positives)
        # the height-1 roots are the unit vectors, sorted as e_n, ..., e_1
        self.simple_roots: tuple[Root, ...] = tuple(reversed(positives[:n]))
        self._by_fw = {r.weight.fw: r for r in self.roots}

        dominant = [r for r in self.roots if r.weight.is_dominant]
        if not 1 <= len(dominant) <= 2:
            raise AssertionError(f"{self.ct}: {len(dominant)} dominant roots")
        self.highest_root: Root = max(dominant, key=lambda r: r.height)
        shorts = [r for r in dominant if r.is_short]
        self.highest_short_root: Root = max(shorts, key=lambda r: r.height)

    # -- weights ----------------------------------------------------------

    def weight(self, fw: Iterable[int]) -> Weight:
        fw = tuple(int(x) for x in fw)
        if len(fw) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(fw)}")
        return Weight(fw)

    def zero(self) -> Weight:
        return Weight((0,) * self.rank)

    def weight_from_root_coords(self, coords: Iterable[int]) -> Weight:
        coords = tuple(int(x) for x in coords)
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        n = self.rank
        return Weight(tuple(sum(self.cartan[i][j] * coords[j] for j in range(n))
                            for i in range(n)))

    def root_coords(self, lam: Weight) -> tuple[Fraction, ...]:
        """Coordinates of lam in the simple-root basis (rational, exact)."""
        from fractions import Fraction
        return tuple(Fraction(sum(map(mul, row, lam.fw)), self._den)
                     for row in self._scaled_inv)

    def scaled_height(self, fw: tuple[int, ...]) -> int:
        """D times the height of the weight with fw coordinates ``fw``."""
        return sum(map(mul, self._height_vec, fw))

    def root_of(self, lam: Weight) -> Root | None:
        return self._by_fw.get(lam.fw)

    # -- pairings and reflections -----------------------------------------

    def pairing(self, lam: Weight, i: int) -> int:
        """<lam, alpha_i_vee> for the i-th simple root, i in 1..rank."""
        self._check_index(i)
        return lam.fw[i - 1]

    def pairing_root(self, lam: Weight, beta: Root) -> int:
        """<lam, beta_vee> for an arbitrary root beta.

        beta_vee = sum_j c_j (d_j / d_beta) alpha_j_vee, so the pairing is
        sum_j c_j d_j fw_j over the integers, divided exactly by d_beta.
        """
        total = sum(c * d * x for c, d, x in zip(beta.coords, self.d, lam.fw))
        q, r = divmod(total, beta.d)
        if r:
            from fractions import Fraction
            raise AssertionError(
                f"non-integral coroot pairing {Fraction(total, beta.d)}")
        return q

    def reflect_simple(self, lam: Weight, i: int) -> Weight:
        self._check_index(i)
        return lam - lam.fw[i - 1] * self.simple_roots[i - 1].weight

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple-root index {i} out of range 1..{self.rank}")

    @property
    def simply_laced(self) -> bool:
        return self.ct.simply_laced

    def __repr__(self) -> str:
        return f"RootSystem({self.ct})"


@lru_cache(maxsize=None)
def _build_cached(ct: CartanType) -> RootSystem:
    return RootSystem(ct)


def build(ct: CartanType | str) -> RootSystem:
    """Build (or fetch the cached) root system for the given Cartan type.

    A type with more than BUILD_ROOT_BOUND roots is refused with
    GuardExceeded before any root is closed: the closure grows about as
    |R| * rank, n^3 on A_n.
    """
    if isinstance(ct, str):
        ct = CartanType.parse(ct)
    if ct.root_count > BUILD_ROOT_BOUND:
        raise GuardExceeded(
            f"{ct} has {ct.root_count} roots; a root system with more than "
            f"{BUILD_ROOT_BOUND} is not built")
    return _build_cached(ct)
