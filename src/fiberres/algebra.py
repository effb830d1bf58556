"""Connected graded algebras over GF(p), tabulated through a degree cap.

An algebra is stored as a degreewise basis (degree 0 is spanned by "1")
plus multiplication tensors for every pair of positive degrees whose sum
stays within the cap.  Degree-0 multiplication is scalar action and is
not tabulated.  Nothing here assumes commutativity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .series import PowerSeries

DEFAULT_CHAR = 32003

# Every characteristic p must be a prime below MAX_CHAR.  Then
# (p - 1)^2 * n < 2^63 for any n < 2^31 terms, so an int64 dot product of
# reduced entries cannot overflow; and a float64 kernel, exact while
# (p - 1)^2 * n < 2^53, keeps n up to 2^21 terms of headroom.
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
]


class AlgebraError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))


class Element:
    """Homogeneous element: a degree and a coefficient vector over the
    basis of that degree."""

    __slots__ = ("algebra", "degree", "vec")

    def __init__(self, algebra: "GradedAlgebra", degree: int, vec):
        self.algebra = algebra
        self.degree = degree
        self.vec = np.asarray(vec, dtype=np.int64) % algebra.p
        assert self.vec.shape == (algebra.dim(degree),)

    def is_zero(self) -> bool:
        return not np.any(self.vec)

    def scale(self, c: int) -> "Element":
        return Element(self.algebra, self.degree, self.vec * (int(c) % self.algebra.p))

    def __add__(self, other: "Element") -> "Element":
        assert self.algebra is other.algebra and self.degree == other.degree
        return Element(self.algebra, self.degree, self.vec + other.vec)

    def __sub__(self, other: "Element") -> "Element":
        assert self.algebra is other.algebra and self.degree == other.degree
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
        assert cap >= 0 and len(basis) == cap + 1
        assert basis[0] == ["1"], "degree 0 must be spanned by the unit"
        self.p = p
        self.cap = cap
        self.basis = [list(b) for b in basis]
        # mult[(m, n)]: ndarray (dim_m, dim_n, dim_{m+n}) for m, n >= 1, m+n <= cap
        self.mult = {}
        for (m, n), arr in mult.items():
            a = np.asarray(arr, dtype=np.int64) % p
            expected = (self.dim(m), self.dim(n), self.dim(m + n))
            if a.shape != expected:
                # JSON round trips flatten degenerate axes
                assert a.size == 0 and 0 in expected, (a.shape, expected)
                a = a.reshape(expected)
            self.mult[(m, n)] = a
        for m in range(1, cap):
            for n in range(1, cap + 1 - m):
                assert (m, n) in self.mult, f"missing product tensor for degrees {(m, n)}"
        self.generators = dict(generators or {})

    def dim(self, n: int) -> int:
        if n < 0 or n > self.cap:
            return 0
        return len(self.basis[n])

    def labels(self, n: int) -> list[str]:
        return self.basis[n]

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
        assert a.algebra is self and b.algebra is self
        m, n = a.degree, b.degree
        if m + n > self.cap:
            raise AlgebraError(f"product degree {m + n} beyond cap {self.cap}")
        if m == 0:
            return b.scale(int(a.vec[0]))
        if n == 0:
            return a.scale(int(b.vec[0]))
        out = np.einsum("i,j,ijk->k", a.vec, b.vec, self.mult[(m, n)]) % self.p
        return Element(self, m + n, out)

    def right_mult_matrix(self, da: int, c: Element) -> np.ndarray:
        """Matrix of x -> x*c from degree da to degree da + c.degree,
        rows indexed by the source basis."""
        e = c.degree
        if e == 0:
            return (np.eye(self.dim(da), dtype=np.int64) * int(c.vec[0])) % self.p
        if da == 0:
            return c.vec.reshape(1, -1).copy()
        return np.einsum("ijk,j->ik", self.mult[(da, e)], c.vec) % self.p

    def left_mult_matrix(self, c: Element, db: int) -> np.ndarray:
        """Matrix of x -> c*x from degree db to degree c.degree + db."""
        e = c.degree
        if e == 0:
            return (np.eye(self.dim(db), dtype=np.int64) * int(c.vec[0])) % self.p
        if db == 0:
            return c.vec.reshape(1, -1).copy()
        return np.einsum("ijk,i->jk", self.mult[(e, db)], c.vec) % self.p

    def hilbert_series(self) -> PowerSeries:
        return PowerSeries([self.dim(n) for n in range(self.cap + 1)], self.cap)

    def check_associativity(self) -> list[tuple]:
        """All basis triples with total degree within cap; returns the
        list of violating degree triples (empty means pass)."""
        bad = []
        p = self.p
        for l in range(1, self.cap - 1):
            for m in range(1, self.cap - l):
                for n in range(1, self.cap + 1 - l - m):
                    lhs = np.einsum(
                        "abk,kcd->abcd", self.mult[(l, m)], self.mult[(l + m, n)]
                    ) % p
                    rhs = np.einsum(
                        "bcj,ajd->abcd", self.mult[(m, n)], self.mult[(l, m + n)]
                    ) % p
                    if not np.array_equal(lhs, rhs):
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
            if factor.lstrip("-").isdigit():
                out = out.scale(int(factor))
                continue
            if "^" in factor:
                name, _, exp_s = factor.partition("^")
                exp = int(exp_s)
            else:
                name, exp = factor, 1
            g = self.generator(name)
            for _ in range(exp):
                out = out * g
        return out

    # -- serialization --------------------------------------------------

    def to_table_json(self) -> dict:
        mult = {
            f"{m}|{n}": arr.tolist() for (m, n), arr in sorted(self.mult.items())
        }
        return {
            "kind": "table",
            "char": self.p,
            "cap": self.cap,
            "basis": self.basis,
            "mult": mult,
            "generators": {k: list(v) for k, v in sorted(self.generators.items())},
        }

    @classmethod
    def from_table_json(cls, obj: dict) -> "GradedAlgebra":
        mult = {}
        for key, arr in obj.get("mult", {}).items():
            m, n = key.split("|")
            mult[(int(m), int(n))] = np.asarray(arr, dtype=np.int64)
        gens = {k: (int(v[0]), int(v[1])) for k, v in obj.get("generators", {}).items()}
        return cls(int(obj["char"]), int(obj["cap"]), obj["basis"], mult, gens)


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
        assert len(self.var_names) == len(set(self.var_names)), "duplicate variable"
        assert all(d >= 1 for d in self.var_degs), "variable degrees must be positive"

    def parse_word(self, s: str) -> tuple[int, ...]:
        index = {n: i for i, n in enumerate(self.var_names)}
        word: list[int] = []
        for factor in s.replace(" ", "").split("*"):
            if "^" in factor:
                name, _, exp_s = factor.partition("^")
                exp = int(exp_s)
            else:
                name, exp = factor, 1
            if name not in index:
                raise AlgebraError(f"unknown variable {name!r} in monomial {s!r}")
            word.extend([index[name]] * exp)
        if not word:
            raise AlgebraError(f"empty monomial {s!r}")
        return tuple(word)

    def rel_monomials(self) -> list[tuple[int, ...]]:
        out = []
        for r in self.rels:
            word = self.parse_word(r)
            if self.commutative:
                expo = [0] * len(self.var_names)
                for i in word:
                    expo[i] += 1
                out.append(tuple(expo))
            else:
                out.append(word)
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
    rels = pres.rel_monomials()

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
        assert s_algebra.p == t_algebra.p, "factors must share the prime field"
        p = s_algebra.p
        assert cap <= min(s_algebra.cap, t_algebra.cap)
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
                ds_m, dt_m = s_algebra.dim(m), t_algebra.dim(m)
                ds_n, dt_n = s_algebra.dim(n), t_algebra.dim(n)
                ds_o, dt_o = s_algebra.dim(m + n), t_algebra.dim(m + n)
                arr = np.zeros((ds_m + dt_m, ds_n + dt_n, ds_o + dt_o), dtype=np.int64)
                arr[:ds_m, :ds_n, :ds_o] = s_algebra.mult[(m, n)]
                arr[ds_m:, ds_n:, ds_o:] = t_algebra.mult[(m, n)]
                mult[(m, n)] = arr
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

    def s_slice(self, n: int) -> slice:
        if n == 0:
            return slice(0, 1)
        return slice(0, self.s_algebra.dim(n))

    def t_slice(self, n: int) -> slice:
        if n == 0:
            return slice(0, 1)
        return slice(self.s_algebra.dim(n), self.dim(n))

    def embed_s(self, el: Element) -> Element:
        assert el.algebra is self.s_algebra
        if el.degree == 0:
            return Element(self, 0, el.vec)
        v = np.zeros(self.dim(el.degree), dtype=np.int64)
        v[self.s_slice(el.degree)] = el.vec
        return Element(self, el.degree, v)

    def embed_t(self, el: Element) -> Element:
        assert el.algebra is self.t_algebra
        if el.degree == 0:
            return Element(self, 0, el.vec)
        v = np.zeros(self.dim(el.degree), dtype=np.int64)
        v[self.t_slice(el.degree)] = el.vec
        return Element(self, el.degree, v)

    def project_s(self, el: Element) -> Element:
        assert el.algebra is self
        if el.degree == 0:
            return Element(self.s_algebra, 0, el.vec)
        return Element(self.s_algebra, el.degree, el.vec[self.s_slice(el.degree)])

    def project_t(self, el: Element) -> Element:
        assert el.algebra is self
        if el.degree == 0:
            return Element(self.t_algebra, 0, el.vec)
        return Element(self.t_algebra, el.degree, el.vec[self.t_slice(el.degree)])


def fiber_product(
    s_algebra: GradedAlgebra, t_algebra: GradedAlgebra, cap: int | None = None
) -> FiberProductAlgebra:
    if cap is None:
        cap = min(s_algebra.cap, t_algebra.cap)
    return FiberProductAlgebra(s_algebra, t_algebra, cap)
