"""Connected graded algebras over GF(p), tabulated through a degree cap.

An algebra is stored as a degreewise basis (degree 0 is spanned by "1")
plus a multiplication table for every pair of positive degrees whose sum
stays within the cap.  Degree-0 multiplication is scalar action and is
not tabulated.  Nothing here assumes commutativity.

Every structure-constant table of the package, an algebra's ``mult`` and
a module's ``action`` (``gmodule``), has one storage: the table of
degrees (m, n), with dims (A, B, C) = (dim m, dim n, dim m+n), is a
``linalg.Matrix`` of shape (A * B, C) whose row a * B + b holds the
product of basis elements a and b over the target basis.  ``linalg``'s
storage rule then keeps a small factor-ring table as a dense block and
a large, nearly empty Ext table as its nonzero entries.  ``read_table``
takes a table in, and every reader goes through a few products written
once: ``left_product`` (rows over the first factor times the table),
``right_product`` (the table times columns over the second factor) and
``difference``; ``linalg.Matrix.placed_tables`` sets tables at offsets in
a larger one, and ``GradedAlgebra.by_right_factor`` is the view
``gmodule.extend`` multiplies coefficients by.  Each is exact int64 mod
p: a term is below p^2 and is reduced before it meets another factor.
No reader branches on a table's storage, so a table that ``linalg``
keeps as its entries is never made dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .series import PowerSeries

DEFAULT_CHAR = 32003

# Every characteristic p must be a prime below MAX_CHAR.  Then
# (p - 1)^2 * n < 2^63 for any n < 2^31 terms, so an int64 dot product of
# reduced entries cannot overflow.
MAX_CHAR = 1 << 16

__all__ = [
    "DEFAULT_CHAR",
    "MAX_CHAR",
    "Element",
    "GradedAlgebra",
    "MonomialQuotientPresentation",
    "build_monomial_quotient",
    "FiberProductAlgebra",
    "fiber_product",
    "read_table",
    "left_product",
    "right_product",
    "difference",
    "scalar_matrix",
]


class AlgebraError(ValueError):
    pass


def _power(factor: str, where: str) -> tuple[str, int]:
    """``factor`` as ``(name, exponent)``: ``name^e`` or a bare name (e =
    1).  An exponent that is not a nonnegative integer in ASCII digits
    raises AlgebraError naming ``where``."""
    name, caret, exp = factor.partition("^")
    if not caret:
        return name, 1
    if not (exp.isascii() and exp.isdigit()):
        raise AlgebraError(f"exponent {exp!r} in {where!r} is not a nonnegative integer")
    return name, int(exp)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def read_table(arr, dims, p: int, error) -> linalg.Matrix:
    """A product or action table of ``dims`` (A, B, C) in the one storage,
    a ``linalg.Matrix`` of shape (A * B, C).  ``arr`` is such a Matrix,
    held as it is, or an (A, B, C) tensor (an array or nested lists),
    read mod p; a JSON round trip flattens degenerate axes, so an empty
    tensor fits any dims with a zero.  Any other shape raises
    ``error(shape)``."""
    A, B, C = dims
    if not isinstance(arr, (list, tuple, np.ndarray)):  # a Matrix
        if arr.shape != (A * B, C):
            raise error(arr.shape)
        return arr
    tensor = np.asarray(arr, dtype=np.int64)
    if tensor.shape != tuple(dims) and (tensor.size or 0 not in dims):
        raise error(tensor.shape)
    return linalg.Matrix.read(tensor.reshape(A * B, C), p)


def left_product(table: linalg.Matrix, dims, left, p: int) -> linalg.Matrix:
    """The rows of ``left`` (A wide) times ``table`` of ``dims`` (A, B, C)
    on its first axis: row i, column b * C + c holds the sum over a of
    left[i, a] * table[a, b, c].  One product with the table read as an
    A x (B * C) matrix."""
    A, B, C = dims
    return linalg.matmul(left, table.reshape((A, B * C)), p)


def right_product(table: linalg.Matrix, dims, right, p: int) -> linalg.Matrix:
    """``table`` of ``dims`` (A, B, C) times the columns of ``right`` (B
    tall) on its middle axis: row a, column n * C + c holds the sum over
    b of table[a, b, c] * right[b, n].  One product with the table read as
    an A x (B * C) matrix and right (x) I_C, placed from right's nonzero
    entries."""
    A, B, C = dims
    right = linalg.Matrix.read(right, p)
    r, c, v = right.nonzero()
    k = np.arange(C)
    kron = linalg.Matrix.placed(
        [((r[:, None] * C + k).ravel(), (c[:, None] * C + k).ravel(), np.repeat(v, C))],
        (B * C, right.shape[1] * C), p)
    return linalg.matmul(table.reshape((A, B * C)), kron, p)


def difference(a: linalg.Matrix, b: linalg.Matrix, p: int) -> linalg.Matrix:
    """``a - b`` mod p, for two matrices of one shape."""
    r, c, v = b.nonzero()
    return linalg.Matrix.summed([a.nonzero(), (r, c, p - v)], a.shape, p)


def scalar_matrix(n: int, c: int, p: int) -> linalg.Matrix:
    """c times the n x n identity."""
    unit = np.arange(n)
    return linalg.Matrix.placed([(unit, unit, np.full(n, c % p, dtype=np.int64))], (n, n), p)


class Element:
    """Homogeneous element: a degree and a coefficient vector over the
    basis of that degree."""

    __slots__ = ("algebra", "degree", "vec")

    def __init__(self, algebra: "GradedAlgebra", degree: int, vec):
        self.algebra = algebra
        self.degree = degree
        self.vec = np.asarray(vec, dtype=np.int64) % algebra.p
        if self.vec.shape != (algebra.dim(degree),):
            raise AlgebraError(f"coefficient vector of shape {self.vec.shape} in degree "
                               f"{degree}, which has dimension {algebra.dim(degree)}")

    def is_zero(self) -> bool:
        return not np.any(self.vec)

    def scale(self, c: int) -> "Element":
        return Element(self.algebra, self.degree, self.vec * (int(c) % self.algebra.p))

    def _same_space(self, other: "Element") -> None:
        if other.algebra is not self.algebra:
            raise AlgebraError("elements of different algebras")
        if other.degree != self.degree:
            raise AlgebraError(f"elements of degrees {self.degree} and {other.degree}")

    def __add__(self, other: "Element") -> "Element":
        self._same_space(other)
        return Element(self.algebra, self.degree, self.vec + other.vec)

    def __sub__(self, other: "Element") -> "Element":
        self._same_space(other)
        return Element(self.algebra, self.degree, self.vec - other.vec)

    def __mul__(self, other: "Element") -> "Element":
        return self.algebra.multiply(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.degree == other.degree
            and np.array_equal(self.vec, other.vec)
        )

    def __repr__(self) -> str:
        terms = []
        for i in np.nonzero(self.vec)[0]:
            c = int(self.vec[i])
            lab = self.algebra.labels(self.degree)[i]
            terms.append(lab if c == 1 else f"{c}*{lab}")
        return " + ".join(terms) if terms else "0"


class GradedAlgebra:
    def __init__(self, p: int, cap: int, basis: list[list[str]], mult: dict,
                 generators: dict[str, tuple[int, int]] | None = None):
        if not (p < MAX_CHAR and _is_prime(p)):
            raise AlgebraError(f"field characteristic p = {p} is not a prime "
                               f"below {MAX_CHAR}")
        if cap < 0 or len(basis) != cap + 1:
            raise AlgebraError(f"cap {cap} with {len(basis)} basis degrees; need cap + 1")
        if basis[0] != ["1"]:
            raise AlgebraError("degree 0 must be spanned by the unit")
        self.p = p
        self.cap = cap
        self.basis = [list(b) for b in basis]
        # mult[(m, n)]: the table of degrees (m, n) for m, n >= 1, m+n <= cap
        # (see read_table)
        self.mult: dict[tuple[int, int], linalg.Matrix] = {}
        for (m, n), arr in mult.items():
            expected = (self.dim(m), self.dim(n), self.dim(m + n))
            self.mult[(m, n)] = read_table(arr, expected, p, lambda shape: AlgebraError(
                f"product tensor for degrees {(m, n)} has shape {shape}; "
                f"expected {expected}"))
        for m in range(1, cap):
            for n in range(1, cap + 1 - m):
                if (m, n) not in self.mult:
                    raise AlgebraError(f"missing product tensor for degrees {(m, n)}")
        self.generators = dict(generators or {})
        for name, gen in self.generators.items():
            if not (len(gen) == 2 and 0 <= gen[0] <= cap and 0 <= gen[1] < self.dim(gen[0])):
                raise AlgebraError(f"generator {name!r} at {list(gen)}: need [degree, index] "
                                   f"with 0 <= degree <= {cap} and index below its dimension")
        self._by_right: dict[tuple[int, int], linalg.Matrix] = {}

    def _owns(self, el: Element) -> None:
        if el.algebra is not self:
            raise AlgebraError("element of another algebra")

    def dim(self, n: int) -> int:
        if n < 0 or n > self.cap:
            return 0
        return len(self.basis[n])

    def labels(self, n: int) -> list[str]:
        return self.basis[n]

    def table_dims(self, m: int, n: int) -> tuple[int, int, int]:
        """(dim m, dim n, dim m+n): the dims of the table of degrees (m, n)."""
        return self.dim(m), self.dim(n), self.dim(m + n)

    def unit(self) -> Element:
        return Element(self, 0, [1])

    def zero(self, degree: int) -> Element:
        return Element(self, degree, np.zeros(self.dim(degree), dtype=np.int64))

    def basis_element(self, n: int, i: int) -> Element:
        v = np.zeros(self.dim(n), dtype=np.int64)
        v[i] = 1
        return Element(self, n, v)

    def generator(self, name: str) -> Element:
        if name not in self.generators:
            raise AlgebraError(f"unknown generator {name!r}")
        deg, idx = self.generators[name]
        return self.basis_element(deg, idx)

    def multiply(self, a: Element, b: Element) -> Element:
        self._owns(a)
        self._owns(b)
        m, n = a.degree, b.degree
        if m + n > self.cap:
            raise AlgebraError(f"product degree {m + n} beyond cap {self.cap}")
        if m == 0:
            return b.scale(int(a.vec[0]))
        if n == 0:
            return a.scale(int(b.vec[0]))
        return Element(self, m + n, linalg.matmul(b.vec, self.left_mult_matrix(a, n),
                                                  self.p).dense()[0])

    def right_mult_matrix(self, da: int, c: Element) -> linalg.Matrix:
        """Matrix of x -> x*c from degree da to degree da + c.degree,
        rows indexed by the source basis."""
        e = c.degree
        if e == 0:
            return scalar_matrix(self.dim(da), int(c.vec[0]), self.p)
        if da == 0:
            return linalg.Matrix.read(c.vec.reshape(1, -1), self.p)
        return right_product(self.mult[(da, e)], self.table_dims(da, e), c.vec.reshape(-1, 1),
                             self.p)

    def left_mult_matrix(self, c: Element, db: int) -> linalg.Matrix:
        """Matrix of x -> c*x from degree db to degree c.degree + db."""
        e = c.degree
        if e == 0:
            return scalar_matrix(self.dim(db), int(c.vec[0]), self.p)
        if db == 0:
            return linalg.Matrix.read(c.vec.reshape(1, -1), self.p)
        dims = self.table_dims(e, db)
        return left_product(self.mult[(e, db)], dims, c.vec, self.p).reshape(dims[1:])

    def by_right_factor(self, da: int, e: int) -> linalg.Matrix:
        """The products x * y of the basis elements x of degree da and y of
        degree e, as a dim(e) x (dim(da) * dim(da + e)) matrix: row y,
        column x * dim(da + e) + z holds the coefficient of basis element z
        in x * y; a unit factor multiplies by the identity.  Both degrees
        must have nonzero products.  Kept once read: ``gmodule.extend``
        multiplies a term group's coefficients by it at every degree."""
        view = self._by_right.get((da, e))
        if view is None:
            dx, dy = self.dim(da), self.dim(da + e)
            if not da:
                view = linalg.Matrix.identity(dy)
            elif not e:
                view = linalg.Matrix.identity(dx).reshape((1, dx * dx))
            else:
                view = self.mult[(da, e)].side_by_side(dx)
            self._by_right[da, e] = view
        return view

    def hilbert_series(self) -> PowerSeries:
        return PowerSeries([self.dim(n) for n in range(self.cap + 1)], self.cap)

    @cached_property
    def dims(self) -> np.ndarray:
        """dim A_n for n = 0..cap and a 0 after them, as an int64 array,
        so index -1 reads the 0 (shared; do not modify)."""
        return np.array([self.dim(n) for n in range(self.cap + 1)] + [0], dtype=np.int64)

    @cached_property
    def indecomposables(self) -> list[tuple[int, int]]:
        """``(degree, index)`` of basis elements spanning a complement of
        A+^2 in A+ through the cap: in each degree n, those at the
        non-pivot columns of the echelon form of all products
        A_m * A_(n-m), the tables' rows stacked.  They generate A+ as an
        algebra, in whatever degrees the presentation's generators have."""
        out = []
        for n in range(1, self.cap + 1):
            dim = self.dim(n)
            if dim == 0:
                continue
            prods = [linalg.Matrix.zeros((0, dim))] + [self.mult[(m, n - m)] for m in range(1, n)]
            pivots = set(linalg.echelon(linalg.Matrix.stack(prods), self.p)[1])
            out.extend((n, i) for i in range(dim) if i not in pivots)
        return out

    def check_associativity(self) -> list[tuple]:
        """All basis triples with total degree within cap; returns the
        list of violating degree triples (empty means pass).  Both sides
        are read as (dim l) x (dim m * dim n * dim l+m+n) matrices: (ab)c
        is one product of two tables, a(bc) the table (l, m+n) times the
        table (m, n) on its middle axis."""
        bad = []
        p = self.p
        for l in range(1, self.cap - 1):
            for m in range(1, self.cap - l):
                for n in range(1, self.cap + 1 - l - m):
                    dl, dm, dn = self.dim(l), self.dim(m), self.dim(n)
                    dlm, dd = self.dim(l + m), self.dim(l + m + n)
                    lhs = linalg.matmul(self.mult[(l, m)],
                                        self.mult[(l + m, n)].reshape((dlm, dn * dd)), p)
                    rhs = right_product(self.mult[(l, m + n)], self.table_dims(l, m + n),
                                        self.mult[(m, n)].T, p)
                    if difference(lhs.reshape((dl, dm * dn * dd)), rhs, p).nnz:
                        bad.append((l, m, n))
        return bad

    # -- polynomial-string parsing -------------------------------------

    def element_from_string(self, s: str) -> Element | None:
        """Parse a homogeneous polynomial in the registered generators.

        Returns None for the zero polynomial.  Raises on inhomogeneous
        input or unknown names.
        """
        parts = self._poly_terms(s)
        by_degree: dict[int, Element] = {}
        for sign, term in parts:
            el = self._eval_term(term).scale(sign)
            if el.is_zero():
                continue
            if el.degree in by_degree:
                by_degree[el.degree] = by_degree[el.degree] + el
            else:
                by_degree[el.degree] = el
        by_degree = {d: e for d, e in by_degree.items() if not e.is_zero()}
        if not by_degree:
            return None
        if len(by_degree) > 1:
            raise AlgebraError(f"inhomogeneous element: {s!r}")
        return next(iter(by_degree.values()))

    @staticmethod
    def _poly_terms(s: str) -> list[tuple[int, str]]:
        s = s.replace(" ", "")
        if not s:
            raise AlgebraError("empty polynomial string")
        terms = []
        sign, cur = 1, ""
        depth_guard = s[0]
        if depth_guard in "+-":
            sign = -1 if depth_guard == "-" else 1
            s = s[1:]
        for ch in s:
            if ch in "+-":
                if not cur:
                    raise AlgebraError("misplaced sign in polynomial string")
                terms.append((sign, cur))
                sign = -1 if ch == "-" else 1
                cur = ""
            else:
                cur += ch
        if not cur:
            raise AlgebraError("trailing sign in polynomial string")
        terms.append((sign, cur))
        return terms

    def _eval_term(self, term: str) -> Element:
        out = self.unit()
        for factor in term.split("*"):
            if not factor:
                raise AlgebraError(f"empty factor in term {term!r}")
            if factor.isascii() and factor.lstrip("-").isdigit():
                out = out.scale(int(factor))
                continue
            name, exp = _power(factor, term)
            g = self.generator(name)
            for _ in range(exp):
                out = out * g
        return out

    # -- serialization --------------------------------------------------

    def to_table_json(self) -> dict:
        mult = {f"{m}|{n}": np.asarray(table).reshape(self.table_dims(m, n)).tolist()
                for (m, n), table in sorted(self.mult.items())}
        return {
            "kind": "table",
            "char": self.p,
            "cap": self.cap,
            "basis": self.basis,
            "mult": mult,
            "generators": {k: list(v) for k, v in sorted(self.generators.items())},
        }


# -- monomial quotient presentations ------------------------------------


@dataclass
class MonomialQuotientPresentation:
    """Variables with positive degrees and monomial relations.

    Relations are parsed from strings like "x^2" or "x*y".  In the
    commutative case a monomial is an exponent vector; otherwise it is a
    word in the variables and relations are forbidden contiguous
    subwords.
    """

    var_names: list[str]
    var_degs: list[int]
    rels: list[str] = field(default_factory=list)
    commutative: bool = True

    def __post_init__(self):
        if len(self.var_names) != len(set(self.var_names)):
            raise AlgebraError(f"duplicate variable in {self.var_names}")
        if not all(d >= 1 for d in self.var_degs):
            raise AlgebraError(f"variable degrees {self.var_degs} must be positive")

    def parse_runs(self, s: str) -> list[tuple[int, int]]:
        """The monomial ``s`` as runs ``(variable index, exponent)`` in
        order, zero exponents left out.  An exponent stays a number: it
        is never expanded into that many letters."""
        index = {n: i for i, n in enumerate(self.var_names)}
        runs: list[tuple[int, int]] = []
        for factor in s.replace(" ", "").split("*"):
            name, exp = _power(factor, s)
            if name not in index:
                raise AlgebraError(f"unknown variable {name!r} in monomial {s!r}")
            if exp:
                runs.append((index[name], exp))
        if not runs:
            raise AlgebraError(f"empty monomial {s!r}")
        return runs


def _relations(pres: MonomialQuotientPresentation, cap: int) -> list[tuple[int, ...]]:
    """The relations as exponent vectors (commutative) or words.  A
    relation of weighted degree above ``cap`` is left out before it is
    expanded: it divides no monomial of degree <= cap, so the ring
    through the cap is the same."""
    out = []
    for r in pres.rels:
        runs = pres.parse_runs(r)
        if sum(e * pres.var_degs[i] for i, e in runs) > cap:
            continue
        if pres.commutative:
            expo = [0] * len(pres.var_names)
            for i, e in runs:
                expo[i] += e
            out.append(tuple(expo))
        else:
            out.append(tuple(i for i, e in runs for _ in range(e)))
    return out


def _commutative_monomials(degs: list[int], total: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the given weighted degree, descending lex."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == len(degs):
            if remaining == 0:
                out.append(prefix)
            return
        top = remaining // degs[i]
        for e in range(top, -1, -1):
            rec(i + 1, remaining - e * degs[i], prefix + (e,))

    rec(0, total, ())
    return out


def _divides(rel: tuple[int, ...], expo: tuple[int, ...]) -> bool:
    return all(r <= e for r, e in zip(rel, expo))


def _subword(rel: tuple[int, ...], word: tuple[int, ...]) -> bool:
    k = len(rel)
    return any(word[i : i + k] == rel for i in range(len(word) - k + 1))


def _expo_label(names: list[str], expo: tuple[int, ...]) -> str:
    parts = []
    for name, e in zip(names, expo):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _word_label(names: list[str], word: tuple[int, ...]) -> str:
    if not word:
        return "1"
    parts = []
    for i in word:
        if parts and parts[-1][0] == i:
            parts[-1][1] += 1
        else:
            parts.append([i, 1])
    return "*".join(names[i] if e == 1 else f"{names[i]}^{e}" for i, e in parts)


def build_monomial_quotient(
    p: int, cap: int, pres: MonomialQuotientPresentation
) -> GradedAlgebra:
    """Tabulate the quotient of the free (or polynomial) algebra on the
    presentation's variables by its monomial relations, through ``cap``."""
    names, degs = pres.var_names, pres.var_degs
    rels = _relations(pres, cap)

    monomials: list[list[tuple[int, ...]]] = []
    index: list[dict[tuple[int, ...], int]] = []
    if pres.commutative:
        for n in range(cap + 1):
            mono = [e for e in _commutative_monomials(degs, n)
                    if not any(_divides(r, e) for r in rels)]
            monomials.append(mono)
            index.append({e: i for i, e in enumerate(mono)})
        labels = [[_expo_label(names, e) for e in monomials[n]] for n in range(cap + 1)]
    else:
        # breadth-first: extend shorter words by one letter on the right
        by_degree: list[list[tuple[int, ...]]] = [[] for _ in range(cap + 1)]
        by_degree[0] = [()]
        frontier = [((), 0)]
        while frontier:
            nxt = []
            for word, wdeg in frontier:
                for v in range(len(names)):
                    nd = wdeg + degs[v]
                    if nd > cap:
                        continue
                    cand = word + (v,)
                    if any(_subword(r, cand) for r in rels):
                        continue
                    by_degree[nd].append(cand)
                    nxt.append((cand, nd))
            frontier = nxt
        monomials = [sorted(by_degree[n], key=lambda w: (len(w), w)) for n in range(cap + 1)]
        index = [{w: i for i, w in enumerate(monomials[n])} for n in range(cap + 1)]
        labels = [[_word_label(names, w) for w in monomials[n]] for n in range(cap + 1)]

    mult = {}
    for m in range(1, cap):
        for n in range(1, cap + 1 - m):
            arr = np.zeros((len(monomials[m]), len(monomials[n]), len(monomials[m + n])),
                           dtype=np.int64)
            for i, a in enumerate(monomials[m]):
                for j, b in enumerate(monomials[n]):
                    if pres.commutative:
                        prod = tuple(x + y for x, y in zip(a, b))
                        if any(_divides(r, prod) for r in rels):
                            continue
                    else:
                        prod = a + b
                        if any(_subword(r, prod) for r in rels):
                            continue
                    arr[i, j, index[m + n][prod]] = 1
            mult[(m, n)] = arr

    generators = {}
    for v, (name, d) in enumerate(zip(names, degs)):
        if pres.commutative:
            key = tuple(1 if i == v else 0 for i in range(len(names)))
        else:
            key = (v,)
        if d <= cap and key in index[d]:
            generators[name] = (d, index[d][key])
    return GradedAlgebra(p, cap, labels, mult, generators)


# -- fiber products ------------------------------------------------------


class FiberProductAlgebra(GradedAlgebra):
    """Fiber product over the residue field: degreewise S_n + T_n for
    n >= 1, with cross products of the two augmentation ideals zero."""

    def __init__(self, s_algebra: GradedAlgebra, t_algebra: GradedAlgebra, cap: int):
        if s_algebra.p != t_algebra.p:
            raise AlgebraError(f"factors over GF({s_algebra.p}) and GF({t_algebra.p}); "
                               "they must share the prime field")
        p = s_algebra.p
        if cap > min(s_algebra.cap, t_algebra.cap):
            raise AlgebraError(f"cap {cap} above a factor's cap "
                               f"{min(s_algebra.cap, t_algebra.cap)}")
        self.s_algebra = s_algebra
        self.t_algebra = t_algebra
        basis = [["1"]]
        for n in range(1, cap + 1):
            basis.append(
                [f"S:{lab}" for lab in s_algebra.labels(n)]
                + [f"T:{lab}" for lab in t_algebra.labels(n)]
            )
        mult = {}
        for m in range(1, cap):
            for n in range(1, cap + 1 - m):
                mult[(m, n)] = linalg.Matrix.placed_tables(
                    [(s_algebra.mult[(m, n)], s_algebra.dim(n), (0, 0, 0)),
                     (t_algebra.mult[(m, n)], t_algebra.dim(n),
                      (s_algebra.dim(m), s_algebra.dim(n), s_algebra.dim(m + n)))],
                    [s_algebra.dim(k) + t_algebra.dim(k) for k in (m, n, m + n)], p)
        generators = {}
        for tag, alg in (("S", s_algebra), ("T", t_algebra)):
            for name, (d, idx) in alg.generators.items():
                if d > cap:
                    continue
                off = 0 if tag == "S" else s_algebra.dim(d)
                generators[f"{tag}:{name}"] = (d, off + idx)
                if name not in generators and (
                    name not in (t_algebra if tag == "S" else s_algebra).generators
                ):
                    generators[name] = (d, off + idx)
        super().__init__(p, cap, basis, mult, generators)

    def factor(self, side: str) -> GradedAlgebra:
        """The factor on ``side``: "S" (the first) or "T" (the second)."""
        if side not in ("S", "T"):
            raise AlgebraError(f"side must be 'S' or 'T', not {side!r}")
        return self.s_algebra if side == "S" else self.t_algebra

    def part(self, side: str, n: int) -> slice:
        """Coordinates of the ``side`` factor's basis in degree n of the
        fiber product; in degree 0, the unit's."""
        if n == 0:
            return slice(0, 1)
        start = 0 if side == "S" else self.s_algebra.dim(n)
        return slice(start, start + self.factor(side).dim(n))

    def embed(self, side: str, el: Element) -> Element:
        """A factor element as an element of the fiber product."""
        self.factor(side)._owns(el)
        v = np.zeros(self.dim(el.degree), dtype=np.int64)
        v[self.part(side, el.degree)] = el.vec
        return Element(self, el.degree, v)


def fiber_product(
    s_algebra: GradedAlgebra, t_algebra: GradedAlgebra, cap: int | None = None
) -> FiberProductAlgebra:
    if cap is None:
        cap = min(s_algebra.cap, t_algebra.cap)
    return FiberProductAlgebra(s_algebra, t_algebra, cap)
