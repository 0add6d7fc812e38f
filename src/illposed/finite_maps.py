"""Identifiability and generalized inverses of maps between finite index sets.

Every map is a total function ``{0..m-1} -> {0..c-1}`` stored as a lookup
table, so statements such as "an estimator exists iff the forward map is
injective" can be checked by exhaustive enumeration instead of proof.  So
can the generalized inverse G o P o G that :func:`promote_to_generalized`
builds from an inner inverse G of P (:func:`verify_outer_inverse`).

Both theorem checks sweep kernel classes, not tables: every test here
compares table entries only for equality, so a verdict depends only on the
kernel partitions of the maps (an injective relabelling of a codomain
relabels a constructed estimator with it).  Each check runs once per
partition, or pair of partitions, and counts it for every table it stands for.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache

from .errors import CompositionError, InvalidInputError
from .records import ValueRecord


class FiniteMap(ValueRecord):
    """Total function between finite index sets.

    ``table[i]`` is the image of domain element ``i``; every entry must lie
    in ``[0, codomain_size)``.  Maps compare and hash by their three fields.
    """

    __slots__ = ("domain_size", "codomain_size", "table")

    def __init__(self, domain_size: int, codomain_size: int, table: tuple[int, ...]):
        table = tuple(int(v) for v in table)
        if domain_size < 1:
            raise InvalidInputError(f"domain_size must be >= 1, got {domain_size}")
        if codomain_size < 1:
            raise InvalidInputError(f"codomain_size must be >= 1, got {codomain_size}")
        if len(table) != domain_size:
            raise InvalidInputError(f"table length {len(table)} != domain_size {domain_size}")
        for v in table:
            if not 0 <= v < codomain_size:
                raise InvalidInputError(f"table entry {v} outside codomain [0, {codomain_size})")
        super().__init__(domain_size, codomain_size, table)

    # maps key the cache of enumerate_sections: one tuple, built directly
    def _values(self) -> tuple:
        return (self.domain_size, self.codomain_size, self.table)

    @classmethod
    def identity(cls, n: int) -> "FiniteMap":
        return cls(n, n, tuple(range(n)))

    def after(self, inner: "FiniteMap") -> "FiniteMap":
        """Composite ``self o inner`` (apply ``inner`` first)."""
        if inner.codomain_size != self.domain_size:
            raise CompositionError(
                f"cannot compose: inner codomain {inner.codomain_size} "
                f"!= outer domain {self.domain_size}"
            )
        return FiniteMap(
            inner.domain_size, self.codomain_size, tuple(self.table[v] for v in inner.table)
        )


def parse_finite_map(text: str) -> FiniteMap:
    """Parse the one-line text format ``domain_size codomain_size : t0,t1,...``."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise InvalidInputError(f"missing ':' in finite map {text!r}")
    sizes = head.split()
    if len(sizes) != 2:
        raise InvalidInputError(f"expected 'domain_size codomain_size :', got {head!r}")
    try:
        dom, cod = int(sizes[0]), int(sizes[1])
        table = tuple(int(t) for t in tail.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"malformed finite map {text!r}: {exc}") from exc
    return FiniteMap(dom, cod, table)


def format_finite_map(m: FiniteMap) -> str:
    return f"{m.domain_size} {m.codomain_size} : {','.join(str(v) for v in m.table)}"


def is_injective(m: FiniteMap) -> bool:
    """True iff no two distinct domain indices share an image."""
    return len(set(m.table)) == m.domain_size


def _check_inverse_shapes(p: FiniteMap, g: FiniteMap) -> None:
    if g.domain_size != p.codomain_size or g.codomain_size != p.domain_size:
        raise CompositionError(
            f"G must map the codomain of P to its domain: P is "
            f"{p.domain_size}->{p.codomain_size}, G is {g.domain_size}->{g.codomain_size}"
        )


def construct_inner_inverse(p: FiniteMap) -> FiniteMap:
    """Build a map G with ``P o G o P = P``.

    Codomain points with several preimages get the smallest one; points
    outside the range of P get domain index 0.  The choice is arbitrary in
    principle, so the smallest index is fixed for determinism.
    """
    # no list holds more than sys.maxsize entries: past it, MemoryError as below it
    table = [0] * min(p.codomain_size, sys.maxsize)
    for i in range(p.domain_size - 1, -1, -1):
        table[p.table[i]] = i
    return FiniteMap(p.codomain_size, p.domain_size, tuple(table))


def verify_inner_inverse(p: FiniteMap, g: FiniteMap) -> bool:
    """True iff ``P o G o P = P`` elementwise."""
    _check_inverse_shapes(p, g)
    return all(p.table[g.table[v]] == v for v in set(p.table))


def verify_outer_inverse(p: FiniteMap, g: FiniteMap) -> bool:
    """True iff ``G o P o G = G`` elementwise."""
    _check_inverse_shapes(p, g)
    return all(g.table[p.table[g.table[y]]] == g.table[y] for y in range(g.domain_size))


def promote_to_generalized(p: FiniteMap, g: FiniteMap) -> FiniteMap:
    """Turn an inner inverse into a generalized (inner and outer) inverse.

    Returns ``G o P o G``, which is always both an inner and an outer
    inverse of P when G is an inner inverse.
    """
    if not verify_inner_inverse(p, g):
        raise InvalidInputError("G is not an inner inverse of P")
    return g.after(p.after(g))


def fisher_consistent_estimator(p: FiniteMap) -> FiniteMap | None:
    """Return some T with ``T o P = identity``, or None when none exists.

    Such a T exists iff P is injective, and then the inner inverse of
    :func:`construct_inner_inverse` is one: off the range of P it takes the
    smallest domain index.
    """
    return construct_inner_inverse(p) if is_injective(p) else None


def _check_same_domain(p: FiniteMap, q: FiniteMap) -> None:
    if p.domain_size != q.domain_size:
        raise InvalidInputError(f"P and q must share a domain: {p.domain_size} != {q.domain_size}")


def parameter_identifiable_standard(p: FiniteMap, q: FiniteMap) -> bool:
    """True iff ``P(t1) = P(t2)`` implies ``q(t1) = q(t2)`` for all t1, t2.

    Equivalently: q is constant on each fiber of P.
    """
    _check_same_domain(p, q)
    seen: dict[int, int] = {}
    for pv, qv in zip(p.table, q.table):
        if seen.setdefault(pv, qv) != qv:
            return False
    return True


def restrict_to_range(q: FiniteMap) -> FiniteMap:
    """Re-index the codomain of q to its range, making q surjective.

    Range values keep their relative order.
    """
    values = sorted(set(q.table))
    rank = {v: k for k, v in enumerate(values)}
    return FiniteMap(q.domain_size, len(values), tuple(rank[v] for v in q.table))


@lru_cache(maxsize=None)
def enumerate_sections(q: FiniteMap) -> tuple[FiniteMap, ...]:
    """All right inverses s of q, i.e. every s with ``q o s = identity``.

    q must be surjective onto its recorded codomain; each section picks one
    representative per fiber, so there are exactly prod(fiber sizes) of them.
    """
    fibers: list[list[int]] = [[] for _ in range(q.codomain_size)]
    for i, v in enumerate(q.table):
        fibers[v].append(i)
    if any(not f for f in fibers):
        raise InvalidInputError(
            "q is not surjective onto its codomain; restrict the codomain to "
            "the range first (see restrict_to_range)"
        )
    return tuple(
        FiniteMap(q.codomain_size, q.domain_size, choice)
        for choice in itertools.product(*fibers)
    )


def parameter_identifiable_sections(p: FiniteMap, q: FiniteMap) -> bool:
    """Identifiability of q via choices of representatives.

    For every section s of q and all t1, t2, demands that
    ``P(s(q(t1))) = P(s(q(t2)))`` implies ``s(q(t1)) = s(q(t2))``.
    Agrees with :func:`parameter_identifiable_standard` on every input
    (verified exhaustively by :func:`check_parameter_equivalence_theorem`).
    """
    _check_same_domain(p, q)
    for s in enumerate_sections(q):
        u = tuple(s.table[v] for v in q.table)  # s o q on the domain
        seen: dict[int, int] = {}
        for ui in u:
            if seen.setdefault(p.table[ui], ui) != ui:
                return False
    return True


def restricted_growth_strings(n: int):
    """Yield every set partition of ``{0..n-1}`` once, as a restricted growth string.

    A string ``a`` has ``a[0] = 0`` and ``a[i] <= 1 + max(a[:i])``: element i
    lies in block ``a[i]``, and blocks are numbered in order of their
    smallest element, so each partition has exactly one string (Knuth,
    TAOCP 4A, 7.2.1.5).  Strings come in lexicographic order; there are
    Bell(n) of them, all held in memory at once: each string of length i + 1
    extends one of length i.  Read as a table, a string with k blocks is the
    canonical map ``n -> k`` with that kernel, and it is onto its codomain.
    """
    if n < 1:
        raise InvalidInputError(f"need n >= 1 elements, got {n}")
    strings = [(0,)]
    for _ in range(n - 1):
        strings = [a + (b,) for a in strings for b in range(max(a) + 2)]
    yield from strings


def _kernel_classes(domain_size: int, max_codomain: int):
    """Yield ``(canonical map, weight)`` for each kernel partition of the domain.

    The map is the partition's restricted growth string as a table; a partition
    with k blocks is the kernel of ``sum(c! / (c - k)!)`` tables over
    c = 1..max_codomain, its weight.  Partitions of weight 0 are skipped.
    """
    for rgs in restricted_growth_strings(domain_size):
        k = max(rgs) + 1
        weight = sum(math.perm(c, k) for c in range(1, max_codomain + 1))
        if weight:
            yield FiniteMap(domain_size, k, rgs), weight


def check_fisher_consistency_theorem(max_domain: int, max_codomain: int) -> tuple[int, int]:
    """Exhaustively test: a Fisher-consistent estimator exists iff P is injective.

    Returns (maps checked, counterexamples) over every table with domain <= max_domain and
    codomain <= max_codomain.  Existence is decided by is_injective, so only ``T o P = id``
    can fail here; the tests check the "only if" by searching every T: c -> d.
    """
    checked = counterexamples = 0
    for d in range(1, max_domain + 1):
        ident = FiniteMap.identity(d)
        for p, weight in _kernel_classes(d, max_codomain):
            checked += weight
            t = fisher_consistent_estimator(p)
            if t is not None and t.after(p) != ident:
                counterexamples += weight
    return checked, counterexamples


def check_parameter_equivalence_theorem(max_domain: int, max_codomain: int) -> tuple[int, int]:
    """Exhaustively compare the standard and sections identifiability tests.

    Returns (pairs checked, disagreements) over every (P, q) pair of tables
    with a common domain <= max_domain and codomains <= max_codomain.
    """
    pairs = disagreements = 0
    for d in range(1, max_domain + 1):
        kernels = list(_kernel_classes(d, max_codomain))
        for q, wq in kernels:
            for p, wp in kernels:
                pairs += wp * wq
                if parameter_identifiable_standard(p, q) != parameter_identifiable_sections(p, q):
                    disagreements += wp * wq
    return pairs, disagreements
