"""Root data computed without the engine: the benchmark's independent oracle.

Everything here is derived from the Dynkin diagram alone, so a Demazure
result the engine prints can be checked against facts the engine did not
compute: the Weyl dimension formula, invariance under the simple
reflections, and the order of the Weyl group.  Conventions follow the
engine's README: Bourbaki numbering, weights in fundamental-weight
coordinates, and cartan[i][j] = <alpha_j, alpha_i_vee> (0-based).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

_EXCEPTIONAL_ORDERS = {"E6": 51840, "E7": 2903040, "E8": 696729600,
                       "F4": 1152, "G2": 12}


def _parse(type_str: str) -> tuple[str, int]:
    return type_str[0], int(type_str[1:])


def _diagram(type_str: str) -> tuple[list[tuple[int, int]], tuple[int, int, int] | None]:
    """Single bonds as 1-based node pairs, and the multiple bond as
    (long node, short node, multiplicity) when there is one."""
    family, n = _parse(type_str)
    if family == "E":
        return [(1, 3), (3, 4), (4, 5), (2, 4)] + [(k, k + 1) for k in range(5, n)], None
    if family == "D":
        return [(k, k + 1) for k in range(1, n - 1)] + [(n - 2, n)], None
    chain = [(k, k + 1) for k in range(1, n)]
    multiple = {"A": None, "B": (n - 1, n, 2), "C": (n, n - 1, 2),
                "F": (2, 3, 2), "G": (2, 1, 3)}[family]
    if multiple is not None:
        chain.remove(tuple(sorted(multiple[:2])))
    return chain, multiple


def cartan(type_str: str) -> tuple[tuple[int, ...], ...]:
    _, n = _parse(type_str)
    single, multiple = _diagram(type_str)
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for p, q in single:
        a[p - 1][q - 1] = a[q - 1][p - 1] = -1
    if multiple is not None:
        long, short, m = multiple
        a[short - 1][long - 1] = -m     # <alpha_long, alpha_short_vee>
        a[long - 1][short - 1] = -1
    return tuple(map(tuple, a))


def weyl_order(type_str: str) -> int:
    family, n = _parse(type_str)
    if family == "A":
        return factorial(n + 1)
    if family in "BC":
        return 2 ** n * factorial(n)
    if family == "D":
        return 2 ** (n - 1) * factorial(n)
    return _EXCEPTIONAL_ORDERS[type_str]


def positive_roots(a) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates: the closure of the simple
    roots under the simple reflections, positive half."""
    n = len(a)
    simple = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(n):
                p = sum(a[i][j] * beta[j] for j in range(n))
                img = tuple(b - p * (k == i) for k, b in enumerate(beta))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return sorted(r for r in seen if min(r) >= 0)


def weyl_dim(a, lam: tuple[int, ...]) -> int:
    """Weyl dimension formula over the positive coroots, which are the
    positive roots of the transposed Cartan matrix."""
    transposed = tuple(zip(*a))
    out = Fraction(1)
    for c in positive_roots(transposed):
        out *= Fraction(sum(cj * (lj + 1) for cj, lj in zip(c, lam)), sum(c))
    if out.denominator != 1:
        raise AssertionError(f"non-integral Weyl dimension {out}")
    return int(out)


def reflect(a, mu: tuple[int, ...], i: int) -> tuple[int, ...]:
    """s_i on fw coordinates (0-based i): mu - mu_i alpha_i."""
    return tuple(m - mu[i] * a[k][i] for k, m in enumerate(mu))


def random_w0_word(a, rng: random.Random) -> tuple[int, ...]:
    """A reduced word of w0 (1-based letters), built by random ascents.

    w is held as the images w(alpha_j) in simple-root coordinates; s_i is
    an ascent of w exactly when w(alpha_i) is positive, and the walk stops
    at w0, the only element without ascents.
    """
    n = len(a)
    images = [[int(k == j) for k in range(n)] for j in range(n)]
    word = []
    while True:
        ascents = [i for i in range(n) if min(images[i]) >= 0]
        if not ascents:
            return tuple(word)
        i = rng.choice(ascents)
        wi = images[i]
        images = [[x - a[i][j] * y for x, y in zip(images[j], wi)] for j in range(n)]
        word.append(i + 1)
