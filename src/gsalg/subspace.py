"""Homogeneous subspaces of the free algebra.

A Subspace lives inside the degree-k component A(k) over d letters.
Three storage forms:

* monomial: a set of word indices; the space they span.  Valid over any
  coefficient field, and every set operation (sum, intersection,
  complement, product) stays a set operation.
* co-monomial: the span of every degree-k word except a stored set.
  It is the complement of a monomial space, kept on the small side:
  dim, membership, sum, intersection, inclusion and complement are set
  operations on the excluded words.  Only ``monomials()``, ``product``
  and the rows promotion materialize the 2^k-sized word set, under a
  capacity guard.  It serializes as the materialized monomial form.
* rows: a reduced GF(2) basis (:class:`gsalg.linalg.BitBasis`) with bit
  j standing for word j.  Used for spans of genuine word sums; only
  supported over GF(2) and kept to modest degrees by capacity guards.

All the built-in constructions produce (co-)monomial spaces; the rows
backend exists so externally supplied spans can be checked too.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from .elements import Element
from .fields import GF2, Field
from .limits import CapacityError, require_capacity
from .linalg import BitBasis, bit_indices, intersect_bitspaces, product_bits
from .words import concat, num_words, word_str

__all__ = ["Subspace"]

# general (rows) backend is meant for validating hand-made spans, not
# for bulk computation; beyond this degree promote/materialize refuses
GENERAL_DEGREE_CAP = 12


def _guard_set(n: int, what: str):
    require_capacity(n * 64, what)


class Subspace:
    __slots__ = ("d", "k", "mono", "rows", "co")

    def __init__(self, d: int, k: int, mono: Optional[frozenset] = None,
                 rows: Optional[BitBasis] = None, co: Optional[frozenset] = None):
        """Exactly one of ``mono`` (spanning words), ``rows`` (a GF(2)
        basis) or ``co`` (the excluded words, all inside A(k))."""
        if (mono is None) + (rows is None) + (co is None) != 2:
            raise ValueError("exactly one backend expected")
        self.d = d
        self.k = k
        self.mono = mono
        self.rows = rows
        self.co = co

    # -- constructors ---------------------------------------------------
    @staticmethod
    def monomial_span(d: int, k: int, indices: Iterable[int]) -> "Subspace":
        idx = frozenset(indices)
        n = num_words(d, k)
        for i in idx:
            if not 0 <= i < n:
                raise ValueError(f"word index {i} out of range for degree {k}")
        return Subspace(d, k, mono=idx)

    @staticmethod
    def zero_space(d: int, k: int) -> "Subspace":
        return Subspace(d, k, mono=frozenset())

    @staticmethod
    def full_space(d: int, k: int) -> "Subspace":
        return Subspace(d, k, co=frozenset())

    @staticmethod
    def span_elements(d: int, k: int, elements: Iterable[Element],
                      field: Field = GF2) -> "Subspace":
        """Span of homogeneous degree-k elements.

        Plain word lists give a monomial space over any field; genuine
        sums are reduced over GF(2) (other fields are not supported for
        the rows backend).
        """
        elems = list(elements)
        singles = []
        for e in elems:
            if e.is_zero():
                continue
            if not e.is_homogeneous() or e.degree() != k:
                raise ValueError("spanning elements must be homogeneous of the stated degree")
            if len(e.coeffs) == 1:
                singles.append(next(iter(e.coeffs))[1])
            else:
                singles = None
                break
        if singles is not None:
            return Subspace.monomial_span(d, k, singles)
        if field != GF2:
            raise NotImplementedError("non-monomial spans are only supported over GF(2)")
        if k > GENERAL_DEGREE_CAP:
            raise CapacityError(
                f"general spans limited to degree {GENERAL_DEGREE_CAP}, got {k}")
        basis = BitBasis()
        for e in elems:
            v = 0
            for (deg, idx), c in e.coeffs.items():
                if field.coerce(c):
                    v |= 1 << idx
            basis.insert(v)
        return Subspace(d, k, rows=basis)

    # -- basic structure -------------------------------------------------
    @property
    def is_monomial(self) -> bool:
        """Spanned by words: the monomial or the co-monomial form."""
        return self.rows is None

    @property
    def dim(self) -> int:
        if self.co is not None:
            return self.ambient_dim - len(self.co)
        return len(self.mono) if self.is_monomial else self.rows.rank

    @property
    def ambient_dim(self) -> int:
        return num_words(self.d, self.k)

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim

    def monomials(self) -> frozenset:
        if not self.is_monomial:
            raise ValueError("not a monomial subspace")
        if self.co is None:
            return self.mono
        n = self.ambient_dim
        _guard_set(n, f"degree-{self.k} word set")
        return frozenset(range(n)) - self.co

    def _as_basis(self) -> BitBasis:
        if not self.is_monomial:
            return self.rows
        if self.k > GENERAL_DEGREE_CAP:
            raise CapacityError(
                f"cannot promote a degree-{self.k} monomial space to the rows backend")
        return BitBasis({1 << i: 1 << i for i in self.monomials()})

    def _check(self, other: "Subspace", same_degree=True):
        if self.d != other.d:
            raise ValueError("mixed alphabets")
        if same_degree and self.k != other.k:
            raise ValueError("mixed degrees")

    # -- membership -------------------------------------------------------
    def contains_word(self, idx: int) -> bool:
        if self.co is not None:
            return 0 <= idx < self.ambient_dim and idx not in self.co
        if self.is_monomial:
            return idx in self.mono
        return self.rows.contains(1 << idx)

    def contains_element(self, e: Element, field: Field = GF2) -> bool:
        if e.is_zero():
            return True
        if not e.is_homogeneous() or e.degree() != self.k:
            return False
        if self.is_monomial:
            return all(self.contains_word(idx)
                       for (deg, idx), c in e.coeffs.items() if field.coerce(c))
        if field != GF2:
            raise NotImplementedError("rows backend is GF(2) only")
        v = 0
        for (deg, idx), c in e.coeffs.items():
            if field.coerce(c):
                v |= 1 << idx
        return self.rows.contains(v)

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._check(other)
        if self.is_monomial and other.is_monomial:
            if self.co is None:
                return (self.mono <= other.mono if other.co is None
                        else self.mono.isdisjoint(other.co))
            # every word outside self.co must be one of other's words
            return (other.co <= self.co if other.co is not None
                    else len(other.mono - self.co) == self.dim)
        if self.is_monomial:
            return all(other.rows.contains(1 << i) for i in self.monomials())
        target = other._as_basis()
        return all(target.contains(row) for row in self.rows.basis())

    def equals(self, other: "Subspace") -> bool:
        return self.is_subspace_of(other) and other.is_subspace_of(self)

    # -- lattice operations -------------------------------------------------
    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        a, b = (self, other) if self.co is not None else (other, self)
        if a.co is not None and b.is_monomial:
            # the co-form's missing words, less those the other supplies
            return Subspace(self.d, self.k,
                            co=a.co & b.co if b.co is not None else a.co - b.mono)
        if self.is_monomial and other.is_monomial:
            return Subspace(self.d, self.k, mono=self.mono | other.mono)
        a, b = self._as_basis().copy(), other._as_basis()
        a.extend(b.basis())
        return Subspace(self.d, self.k, rows=a)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check(other)
        a, b = (self, other) if self.mono is not None else (other, self)
        if a.mono is not None and b.is_monomial:
            return Subspace(self.d, self.k,
                            mono=a.mono & b.mono if b.mono is not None else a.mono - b.co)
        if self.co is not None and other.co is not None:
            return Subspace(self.d, self.k, co=self.co | other.co)
        out = intersect_bitspaces(self._as_basis(), other._as_basis(),
                                  self.ambient_dim)
        return Subspace(self.d, self.k, rows=out)

    def complement(self) -> "Subspace":
        """A monomial complement: spanned by the words missing from a basis.

        For a (co-)monomial space this is the set complement, kept on
        the small side; for a rows space the non-pivot words work (pivot
        words hit each basis row exactly once).
        """
        if self.co is not None:
            return Subspace(self.d, self.k, mono=self.co)
        if self.is_monomial:
            # a set built unchecked may hold words outside A(k); they span nothing
            n = self.ambient_dim
            return Subspace(self.d, self.k,
                            co=frozenset(i for i in self.mono if 0 <= i < n))
        return Subspace(self.d, self.k, co=frozenset(self.rows.pivots()))

    def product(self, other: "Subspace") -> "Subspace":
        """Span of pairwise concatenations, in degree k1 + k2."""
        self._check(other, same_degree=False)
        if self.is_monomial and other.is_monomial:
            _guard_set(self.dim * other.dim,
                       f"product of degrees {self.k} and {other.k}")
            d, ka, kb = self.d, self.k, other.k
            block = num_words(d, kb)
            right = other.monomials()
            out = frozenset(i * block + j for i in self.monomials() for j in right)
            return Subspace(d, ka + kb, mono=out)
        if self.d != 2:
            raise NotImplementedError("rows-backend products need d = 2")
        if self.k + other.k > GENERAL_DEGREE_CAP:
            raise CapacityError(
                f"rows-backend product degree {self.k + other.k} over the cap")
        basis = BitBasis()
        for u in self._as_basis().basis():
            for w in other._as_basis().basis():
                basis.insert(product_bits(u, w, other.k))
        return Subspace(2, self.k + other.k, rows=basis)

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        if self.is_monomial:
            return {"d": self.d, "degree": self.k, "kind": "monomial",
                    "monomials": sorted(self.monomials())}
        return {"d": self.d, "degree": self.k, "kind": "rows",
                "field": "gf2",
                "rows": [format(r, "x") for r in self.rows.basis()]}

    @staticmethod
    def from_json(data: dict) -> "Subspace":
        d, k = int(data["d"]), int(data["degree"])
        if data.get("kind", "monomial") == "monomial":
            return Subspace.monomial_span(d, k, (int(i) for i in data["monomials"]))
        basis = BitBasis()
        for r in data["rows"]:
            basis.insert(int(r, 16))
        return Subspace(d, k, rows=basis)

    def describe(self, limit: int = 8) -> str:
        kind = "monomial" if self.is_monomial else "gf2-span"
        head = f"{kind} subspace of A({self.k}), dim {self.dim}"
        if self.is_monomial and self.dim <= limit:
            words = ", ".join(word_str(self.d, self.k, i) for i in sorted(self.monomials()))
            return f"{head}: {{{words}}}" if words else f"{head} (zero)"
        return head

    def __repr__(self) -> str:
        return f"Subspace({self.describe()})"
