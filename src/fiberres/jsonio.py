"""JSON input schemas for algebras, modules, and series, plus
deterministic report serialization.

Algebra files: ``{"field": {"char": p}, "cap": N, "algebra": {...}}``
where the algebra object has kind ``monomial_quotient`` (vars, rels as
a list of monomial strings, an optional JSON boolean commutative),
``table`` (explicit basis and structure constants with their own
char/cap), or ``fiber`` (nested ``s`` and ``t`` algebra objects sharing
the file's field and cap).

Module files, interpreted against a given algebra: ``{"kind":
"residue"}``, ``{"kind": "free", "gens": [degrees]}``, or ``{"kind":
"coker", "matrix": [[polynomial strings]], "gens": [target degrees]}``
(target degrees default to 0; column degrees are inferred from the
entries, which must be homogeneous).

Degrees, the characteristic, the cap and the entries of a table are
integers; a fraction or a boolean raises ``InputError`` rather than
being truncated.  A table's basis is a list of degrees, each a list of
label strings, and a table generator is ``[degree, index]`` of a basis
element within the cap.

Series files follow ``PowerSeries.to_json``: decimal coefficient
strings plus a truncation.

Reports serialize with sorted keys, two-space indentation, and a
trailing newline, so equal inputs produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import (DEFAULT_CHAR, AlgebraError, GradedAlgebra,
                      MonomialQuotientPresentation, build_monomial_quotient,
                      fiber_product)
from .gmodule import (AlgMatrix, FreeModule, GradedModule, cokernel_module,
                      free_module_table, residue_module)
from .series import PowerSeries


class InputError(ValueError):
    """Malformed or inconsistent input file."""


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _integer(x) -> int:
    """``x`` as an int.  ``int`` alone would truncate a fraction and take
    a bool as 0 or 1, so both raise ValueError."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def _table_algebra(obj: dict) -> GradedAlgebra:
    """The algebra of a ``table`` object.  Each entry is read by
    ``_integer`` and reduced mod p as a Python int, so none overflows."""
    p = _integer(obj["char"])

    def reduced(x):
        return [reduced(v) for v in x] if isinstance(x, list) else _integer(x) % p

    mult = {}
    for key, arr in obj.get("mult", {}).items():
        m, n = key.split("|")
        mult[(int(m), int(n))] = np.array(reduced(arr), dtype=np.int64)
    gens = {name: tuple(_integer(x) for x in (gen if isinstance(gen, list) else [gen]))
            for name, gen in obj.get("generators", {}).items()}
    basis = obj["basis"]
    if not isinstance(basis, list):
        raise ValueError(f"'basis' must be a list of degrees, not {basis!r}")
    for n, labels in enumerate(basis):
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ValueError(f"basis degree {n} must be a list of strings, not {labels!r}")
    return GradedAlgebra(p, _integer(obj["cap"]), basis, mult, gens)


def algebra_from_obj(obj: dict, char: int, cap: int) -> GradedAlgebra:
    if not isinstance(obj, dict):
        raise InputError(f"an algebra must be a JSON object, not {obj!r}")
    kind = obj.get("kind")
    if kind == "monomial_quotient":
        try:
            names = [v["name"] for v in obj["vars"]]
            degs = [_integer(v["deg"]) for v in obj["vars"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad monomial_quotient object: {exc}") from exc
        bad = [name for name in names if not isinstance(name, str) or not name]
        if bad:
            raise InputError(f"bad monomial_quotient object: a variable name must be "
                             f"a nonempty string, not {bad[0]!r}")
        rels = obj.get("rels", [])
        if not isinstance(rels, list) or not all(isinstance(r, str) for r in rels):
            raise InputError(f"bad monomial_quotient object: 'rels' must be a list "
                             f"of strings, not {rels!r}")
        commutative = obj.get("commutative", True)
        if not isinstance(commutative, bool):
            raise InputError(f"bad monomial_quotient object: 'commutative' must be "
                             f"true or false, not {commutative!r}")
        try:
            pres = MonomialQuotientPresentation(names, degs, rels, commutative)
            return build_monomial_quotient(char, cap, pres)
        except AlgebraError as exc:
            raise InputError(f"bad presentation: {exc}") from exc
    if kind == "table":
        table = dict(obj)
        table.setdefault("char", char)
        table.setdefault("cap", cap)
        try:
            return _table_algebra(table)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad table object: {exc}") from exc
    if kind == "fiber":
        try:
            s = algebra_from_obj(obj["s"], char, cap)
            t = algebra_from_obj(obj["t"], char, cap)
        except KeyError as exc:
            raise InputError(f"fiber object needs 's' and 't': {exc}") from exc
        return fiber_product(s, t)
    raise InputError(f"unknown algebra kind {kind!r}")


def load_algebra(path: str, default_char: int | None = None) -> GradedAlgebra:
    obj = load_json(path)
    if not isinstance(obj, dict) or "algebra" not in obj:
        raise InputError(f"{path}: expected an object with an 'algebra' field")
    field = obj.get("field", {})
    if not isinstance(field, dict):
        raise InputError(f"{path}: 'field' must be an object with a 'char' entry, "
                         f"not {field!r}")
    if "cap" not in obj:
        raise InputError(f"{path}: missing 'cap'")
    try:
        char = _integer(field.get("char", default_char or DEFAULT_CHAR))
        cap = _integer(obj["cap"])
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: 'char' and 'cap' must be integers: {exc}") from exc
    if char < 2 or cap < 0:
        raise InputError(f"{path}: need char >= 2 and cap >= 0")
    return algebra_from_obj(obj["algebra"], char, cap)


def _module_gens(obj: dict, kind: str, default: list | None = None) -> list[int]:
    """The generator degrees of a free or coker module object: a JSON list
    read by ``_integer``; a string or an object is not read element by
    element."""
    try:
        gens = obj["gens"] if default is None else obj.get("gens", default)
        if not isinstance(gens, list):
            raise TypeError(f"expected a list, not {gens!r}")
        return [_integer(d) for d in gens]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{kind} module needs integer 'gens': {exc}") from exc


def module_from_obj(obj: dict, algebra: GradedAlgebra) -> GradedModule:
    kind = obj.get("kind")
    if kind == "residue":
        return residue_module(algebra)
    if kind == "free":
        return free_module_table(algebra, _module_gens(obj, kind))
    if kind == "coker":
        rows = obj.get("matrix")
        if not isinstance(rows, list) or not rows:
            raise InputError("coker module needs a nonempty 'matrix'")
        if not all(isinstance(r, list) for r in rows):
            raise InputError("coker 'matrix' must be a list of rows")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows) or ncols == 0:
            raise InputError("coker matrix must be rectangular and nonempty")
        tgt_degs = _module_gens(obj, kind, [0] * len(rows))
        if len(tgt_degs) != len(rows):
            raise InputError("coker 'gens' must match the number of rows")
        entries: dict[tuple[int, int], object] = {}
        col_degs: list[int | None] = [None] * ncols
        for i, row in enumerate(rows):
            for j, s in enumerate(row):
                if not str(s).strip() or str(s).strip() == "0":
                    continue
                try:
                    el = algebra.element_from_string(str(s))
                except AlgebraError as exc:
                    raise InputError(f"matrix entry ({i},{j}): {exc}") from exc
                if el is None:  # terms cancelled to zero
                    continue
                d = tgt_degs[i] + el.degree
                if col_degs[j] is None:
                    col_degs[j] = d
                elif col_degs[j] != d:
                    raise InputError(f"column {j} mixes degrees "
                                     f"{col_degs[j]} and {d}")
                entries[(i, j)] = el
        if any(d is None for d in col_degs):
            raise InputError("every matrix column needs a nonzero entry")
        tgt = FreeModule(algebra, tgt_degs)
        src = FreeModule(algebra, [int(d) for d in col_degs])
        return cokernel_module(AlgMatrix(algebra, src, tgt, entries))
    raise InputError(f"unknown module kind {kind!r}")


def load_module(path: str, algebra: GradedAlgebra) -> GradedModule:
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a module object")
    return module_from_obj(obj, algebra)


def load_series(path: str) -> PowerSeries:
    obj = load_json(path)
    try:
        return PowerSeries.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad series object: {exc}") from exc


def plain(x):
    """Recursively coerce report payloads to JSON-safe builtins."""
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, np.ndarray):
        return [plain(v) for v in x.tolist()]
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    raise TypeError(f"non-serializable report value of type {type(x)!r}")


def report_bytes(report: dict) -> bytes:
    return (json.dumps(plain(report), indent=2, sort_keys=True) + "\n").encode()


def write_report(path: str, report: dict) -> None:
    with open(path, "wb") as fh:
        fh.write(report_bytes(report))
