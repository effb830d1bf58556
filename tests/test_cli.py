"""End-to-end checks of the command-line interface: exit codes,
deterministic reports, input validation, and the bundled suite."""

import json
import os
import pathlib

import numpy as np
import pytest

from fiberres import cli, cohomology, extalg, resolve
from fiberres.cli import main
from fiberres.jsonio import load_algebra

MANIFESTS = os.path.join(os.path.dirname(__file__), os.pardir, "manifests")


def algebra_obj(vars_degs, rels, cap=8, char=32003):
    return {
        "field": {"char": char},
        "cap": cap,
        "algebra": {
            "kind": "monomial_quotient",
            "vars": [{"name": n, "deg": d} for n, d in vars_degs],
            "rels": rels,
        },
    }


def fiber_obj(s_rels, t_rels, cap=8, char=32003):
    return {
        "field": {"char": char},
        "cap": cap,
        "algebra": {
            "kind": "fiber",
            "s": {"kind": "monomial_quotient",
                  "vars": [{"name": "x", "deg": 1}], "rels": s_rels},
            "t": {"kind": "monomial_quotient",
                  "vars": [{"name": "y", "deg": 1}], "rels": t_rels},
        },
    }


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# -- happy paths ---------------------------------------------------------------


def test_resolve_writes_passing_report(tmp_path):
    a = write(tmp_path, "a.json", algebra_obj([("x", 1)], ["x^2"]))
    m = write(tmp_path, "m.json", {"kind": "residue"})
    out = tmp_path / "rep.json"
    rc = main(["resolve", "--algebra", a, "--module", m, "--hmax", "4",
               "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["command"] == "resolve"
    assert rep["char"] == 32003
    assert rep["data"]["ranks"] == [1, 1, 1, 1, 1]
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_resolve_over_a_noncommutative_algebra_passes(tmp_path, capsys):
    """Over k<x, y>/(x^2, y^2, y*x), where x*y != y*x, every d o d check
    passes: the composite's entries multiply in evaluate's order."""
    obj = algebra_obj([("x", 1), ("y", 1)], ["x^2", "y^2", "y*x"], cap=6, char=5)
    obj["algebra"]["commutative"] = False
    a = write(tmp_path, "nc.json", obj)
    m = write(tmp_path, "m.json", {"kind": "residue"})
    assert main(["resolve", "--algebra", a, "--module", m, "--hmax", "3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] resolution: d1 o d2 = 0" in out and "[FAIL]" not in out


def test_reports_are_byte_identical_across_runs(tmp_path):
    a = write(tmp_path, "a.json", fiber_obj(["x^2"], ["y^2"]))
    m = write(tmp_path, "m.json", {"kind": "residue"})
    out1, out2 = tmp_path / "rep1.json", tmp_path / "rep2.json"
    args = ["resolve", "--algebra", a, "--module", m, "--hmax", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_coker_module_from_polynomial_strings(tmp_path):
    a = write(tmp_path, "a.json", algebra_obj([("x", 1)], ["x^3"]))
    m = write(tmp_path, "m.json", {"kind": "coker", "matrix": [["x^2"]]})
    out = tmp_path / "rep.json"
    assert main(["resolve", "--algebra", a, "--module", m, "--hmax", "4",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["data"]["ranks"] == [1, 1, 1, 1, 1]
    assert rep["data"]["betti"]["1,2"] == 1  # presented by x^2


def test_poincare_formula_mode(tmp_path):
    ones = {"coefficients": ["1"] * 7, "truncation": 6}
    sm = write(tmp_path, "sm.json", ones)
    sk = write(tmp_path, "sk.json", ones)
    tk = write(tmp_path, "tk.json", ones)
    out = tmp_path / "rep.json"
    assert main(["poincare", "--formula", "--s-m", sm, "--s-k", sk,
                 "--t-k", tk, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["data"]["series"]["coefficients"] == \
        ["1", "2", "4", "8", "16", "32", "64"]


def test_poincare_cross_check(tmp_path):
    s = write(tmp_path, "s.json", algebra_obj([("x", 1)], ["x^2"]))
    t = write(tmp_path, "t.json",
              algebra_obj([("y", 1)], ["y^2"], char=32003))
    m = write(tmp_path, "m.json", {"kind": "residue"})
    assert main(["poincare", "--s", s, "--t", t, "--m", m,
                 "--hmax", "5"]) == 0


def test_wordres_verified(tmp_path):
    s = write(tmp_path, "s.json", algebra_obj([("x", 1)], ["x^3"], cap=12))
    t = write(tmp_path, "t.json", algebra_obj([("y", 1)], ["y^2"], cap=12))
    m = write(tmp_path, "m.json", {"kind": "residue"})
    out = tmp_path / "rep.json"
    assert main(["wordres", "--s", s, "--t", t, "--m", m, "--hmax", "4",
                 "--verify", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["data"]["word_counts"] == [1, 2, 4, 8, 16]


def test_verify_phi(tmp_path):
    s = write(tmp_path, "s.json", algebra_obj([("x", 1)], ["x^2"]))
    t = write(tmp_path, "t.json", algebra_obj([("y", 1)], ["y^2"]))
    assert main(["verify", "phi", "--s", s, "--t", t, "--window", "4"]) == 0


def test_verify_theta_needs_module(tmp_path):
    s = write(tmp_path, "s.json", algebra_obj([("x", 1)], ["x^2"]))
    t = write(tmp_path, "t.json", algebra_obj([("y", 1)], ["y^2"]))
    assert main(["verify", "theta", "--s", s, "--t", t, "--window", "4"]) == 1


def test_koszul_exit_zero_either_way(tmp_path):
    good = write(tmp_path, "good.json", algebra_obj([("x", 1)], ["x^2"]))
    bad = write(tmp_path, "bad.json", algebra_obj([("x", 1)], ["x^3"]))
    out = tmp_path / "rep.json"
    assert main(["koszul", "--algebra", good, "--imax", "4"]) == 0
    assert main(["koszul", "--algebra", bad, "--imax", "4",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["data"]["koszul"]["diagonal_in_window"] is False
    assert rep["data"]["koszul"]["certificate"] == [2, 3]


def test_depth_certificate_report(tmp_path):
    r = write(tmp_path, "r.json", fiber_obj(["x^2"], ["y^2"]))
    m = write(tmp_path, "m.json", {"kind": "residue"})
    out = tmp_path / "rep.json"
    assert main(["depth", "--r", r, "--m", m, "--jmax", "1", "--hmax", "5",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    cert = rep["data"]["certificate"]
    assert cert["case"] == "module-not-free"
    assert cert["interval"] == [1, 1]
    assert cert["witnesses"][0]["internal_degree"] == -1


def test_depth_upper_bound_free_module(tmp_path):
    r = write(tmp_path, "r.json", fiber_obj(["x^2"], ["y^2"]))
    l = write(tmp_path, "l.json", {"kind": "free", "gens": [0]})
    out = tmp_path / "rep.json"
    assert main(["depth", "--r", r, "--l", l, "--hmax", "4",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["data"]["upper bound"]["depth"] == 0


def test_syzygy_split_line_quotient(tmp_path):
    r = write(tmp_path, "r.json", fiber_obj(["x^2"], ["y^2"]))
    l = write(tmp_path, "l.json", {"kind": "coker", "matrix": [["x+y"]]})
    out = tmp_path / "rep.json"
    assert main(["syzygy-split", "--r", r, "--l", l, "--hmax", "5",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["data"]["split"]["dims"][2] == [2, 1, 1]


def test_fiber_module_command(tmp_path):
    s = write(tmp_path, "s.json", algebra_obj([("x", 1)], ["x^2"]))
    t = write(tmp_path, "t.json", algebra_obj([("y", 1)], ["y^2"]))
    m = write(tmp_path, "m.json", {"kind": "free", "gens": [0]})
    n = write(tmp_path, "n.json", {"kind": "free", "gens": [0]})
    assert main(["fiber-module", "--s", s, "--t", t, "--m", m, "--n", n,
                 "--hmax", "5"]) == 0


# -- the suite -----------------------------------------------------------------


def test_bundled_suite_passes():
    manifest = os.path.join(MANIFESTS, "suite.json")
    assert main(["suite", "--manifest", manifest]) == 0


def test_bundled_suite_passes_at_a_wider_window(tmp_path):
    """The shipped manifest at hmax 5, dmax 8, read from a copy that
    names its files by absolute path: every entry comes out as shipped,
    the tensor control as the expected failure."""
    shipped = json.loads(pathlib.Path(MANIFESTS, "suite.json").read_text())
    entries = [{k: os.path.abspath(os.path.join(MANIFESTS, v)) if k in ("s", "t", "m") else v
                for k, v in entry.items()} for entry in shipped["entries"]]
    manifest = write(tmp_path, "suite.json", {
        "window": {**shipped["window"], "hmax": 5, "dmax": 8}, "entries": entries})
    out = tmp_path / "suite_rep.json"
    assert main(["suite", "--manifest", manifest, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["window"]["hmax"] == 5 and rep["window"]["dmax"] == 8
    assert [(c["name"], c["status"]) for c in rep["checks"]] == [
        (entry["name"], "pass") for entry in shipped["entries"]]
    assert [c["detail"] for c in rep["checks"]] == [
        f"expected {entry.get('expect', 'pass')}, got {entry.get('expect', 'pass')}"
        for entry in shipped["entries"]]


def test_a_suite_entry_restricts_each_module_once_per_side(tmp_path, monkeypatch):
    """Inside an entry's sharing scope ``restrict_to_fiber`` builds each
    (ring, module, side) once, however many checks ask for it."""
    shipped = json.loads(pathlib.Path(MANIFESTS, "suite.json").read_text())
    entry = next(e for e in shipped["entries"] if e["name"] == "cube-square truncated module")
    manifest = write(tmp_path, "suite.json", {"window": shipped["window"], "entries": [
        {k: os.path.abspath(os.path.join(MANIFESTS, v)) if k in ("s", "t", "m") else v
         for k, v in entry.items()}]})
    asked, built, real = [], [], resolve.shared

    def recording(key, build):
        if isinstance(key, tuple) and key[0] == "restriction":
            asked.append(key)
            return real(key, lambda: (built.append(key), build())[1])
        return real(key, build)

    monkeypatch.setattr(resolve, "shared", recording)
    assert main(["suite", "--manifest", manifest]) == 0
    assert sorted(built) == sorted(set(asked)) and len(asked) > len(built)


def test_empty_suite_passes(tmp_path):
    manifest = write(tmp_path, "suite.json",
                     {"window": {"hmax": 3}, "entries": []})
    assert main(["suite", "--manifest", manifest]) == 0


def test_suite_unexpected_outcome_exits_two(tmp_path):
    s = write(tmp_path, "s.json", algebra_obj([("x", 1)], ["x^2"]))
    t = write(tmp_path, "t.json", algebra_obj([("y", 1)], ["y^2"]))
    manifest = write(tmp_path, "suite.json", {
        "window": {"hmax": 3},
        "entries": [{"name": "control", "kind": "tensor-control",
                     "s": "s.json", "t": "t.json", "degree": 2}],
    })
    assert main(["suite", "--manifest", manifest]) == 2


def test_suite_failing_entry_writes_fail_status(tmp_path):
    s = write(tmp_path, "s.json", algebra_obj([("x", 1)], ["x^2"]))
    t = write(tmp_path, "t.json", algebra_obj([("y", 1)], ["y^2"]))
    manifest = write(tmp_path, "suite.json", {
        "window": {"hmax": 3},
        "entries": [{"name": "control", "kind": "tensor-control",
                     "s": "s.json", "t": "t.json", "degree": 2}],
    })
    out = tmp_path / "rep.json"
    assert main(["suite", "--manifest", manifest, "--out", str(out)]) == 2
    rep = json.loads(out.read_text())
    assert rep["checks"] == [{"name": "control", "status": "fail",
                              "detail": "expected pass, got fail"}]


def test_suite_entry_that_raises_is_never_the_expected_failure(tmp_path, capsys):
    """A tensor control naming a missing file computes nothing, so its
    error does not meet "expect": "fail"."""
    manifest = write(tmp_path, "suite.json", {
        "window": {"hmax": 3},
        "entries": [{"name": "control", "kind": "tensor-control",
                     "s": os.path.join(MANIFESTS, "s_x2_TYPO.json"),
                     "t": os.path.join(MANIFESTS, "t_y2.json"), "expect": "fail"}],
    })
    out = tmp_path / "rep.json"
    assert main(["suite", "--manifest", manifest, "--out", str(out)]) == 2
    rep = json.loads(out.read_text())
    assert rep["checks"] == [{"name": "control", "status": "fail",
                              "detail": "expected fail, got error"}]
    assert "s_x2_TYPO.json" in rep["data"]["control"]["error"]
    assert "[FAIL] control" in capsys.readouterr().out


def test_suite_unknown_kind_exits_one_before_any_entry_runs(tmp_path, capsys):
    """The manifest with a misspelt file and a misspelt kind: the kind is
    rejected first, and nothing is printed as passed or failed."""
    manifest = write(tmp_path, "suite.json", {
        "window": {"hmax": 3},
        "entries": [{"name": "typo file", "kind": "tensor-control",
                     "s": os.path.join(MANIFESTS, "s_x2_TYPO.json"),
                     "t": os.path.join(MANIFESTS, "t_y2.json"), "expect": "fail"},
                    {"name": "typo kind", "kind": "tensor-contrl",
                     "s": os.path.join(MANIFESTS, "s_x2.json"),
                     "t": os.path.join(MANIFESTS, "t_y2.json"), "expect": "fail"}],
    })
    assert main(["suite", "--manifest", manifest]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: suite entry kind 'tensor-contrl' is not one of")
    assert "PASS" not in out and "FAIL" not in out


def test_suite_needs_window(tmp_path):
    manifest = write(tmp_path, "suite.json", {"entries": []})
    assert main(["suite", "--manifest", manifest]) == 1


# -- input and usage errors ----------------------------------------------------


def test_malformed_json_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"cap": 4, ')
    assert main(["algebra", "--algebra", str(path)]) == 1


@pytest.mark.parametrize("vars_degs, message", [
    ([("x", 1), ("x", 1)], "duplicate variable"),
    ([("x", 0)], "must be positive"),
])
def test_bad_presentation_exits_one(tmp_path, capsys, vars_degs, message):
    a = write(tmp_path, "a.json", algebra_obj(vars_degs, ["x^2"]))
    assert main(["algebra", "--algebra", a]) == 1
    err = capsys.readouterr().err
    assert "bad presentation: " in err and message in err


RESIDUE = {"kind": "residue"}


def table(**edit):
    """A cap-2 table algebra with basis 1, x, y and x * x = y, edited."""
    return {"algebra": {"kind": "table", "cap": 2, "basis": [["1"], ["x"], ["y"]],
                        "mult": {"1|1": [[[1]]]}, "generators": {"x": [1, 0]}, **edit}}


GENERATOR_AT = "bad table object: generator 'x' at {at}: need [degree, index] with 0 <= degree <= 2"


@pytest.mark.parametrize("algebra_edit, module, message", [
    ({"vars": [{"name": "x", "deg": "a"}]}, RESIDUE,
     "bad monomial_quotient object: invalid literal"),
    ({}, {"kind": "coker", "matrix": [["x"]], "gens": ["a"]},
     "coker module needs integer 'gens': invalid literal"),
    ({}, {"kind": "coker", "matrix": [["x"]], "gens": 5},
     "coker module needs integer 'gens': expected a list, not 5"),
    ({}, {"kind": "coker", "matrix": [1]},
     "coker 'matrix' must be a list of rows"),
    ({"cap": "six"}, RESIDUE,
     "{path}: 'char' and 'cap' must be integers: invalid literal"),
    ({"field": 7}, RESIDUE,
     "{path}: 'field' must be an object with a 'char' entry, not 7"),
    ({"vars": [{"name": "x", "deg": 1.5}]}, RESIDUE,
     "bad monomial_quotient object: 1.5 is not an integer"),
    ({"vars": [{"name": "x", "deg": True}]}, RESIDUE,
     "bad monomial_quotient object: True is not an integer"),
    ({"vars": [{"name": [], "deg": 1}]}, RESIDUE,
     "bad monomial_quotient object: a variable name must be a nonempty string, not []"),
    ({"vars": [{"name": 5, "deg": 1}]}, RESIDUE,
     "bad monomial_quotient object: a variable name must be a nonempty string, not 5"),
    ({"vars": [{"name": "", "deg": 1}]}, RESIDUE,
     "bad monomial_quotient object: a variable name must be a nonempty string, not ''"),
    ({}, {"kind": "free", "gens": [0.5, 1]},
     "free module needs integer 'gens': 0.5 is not an integer"),
    ({}, {"kind": "coker", "matrix": [["x"]], "gens": [0.7]},
     "coker module needs integer 'gens': 0.7 is not an integer"),
    ({"rels": ["x^a"]}, RESIDUE,
     "bad presentation: exponent 'a' in 'x^a' is not a nonnegative integer"),
    ({"rels": "x^2"}, RESIDUE,
     "bad monomial_quotient object: 'rels' must be a list of strings, not 'x^2'"),
    ({}, {"kind": "coker", "matrix": [["x^b"]]},
     "matrix entry (0,0): exponent 'b' in 'x^b' is not a nonnegative integer"),
    ({}, {"kind": "coker", "matrix": [["x^-1"]]},
     "matrix entry (0,0): exponent '' in 'x^' is not a nonnegative integer"),
    ({}, {"kind": "coker", "matrix": [["\u00b2"]]},
     "matrix entry (0,0): unknown generator '\u00b2'"),
    ({"algebra": {"kind": "table", "basis": [["1"]], "generators": 5}}, RESIDUE,
     "bad table object: 'int' object has no attribute 'items'"),
    ({"commutative": "false"}, RESIDUE,
     "bad monomial_quotient object: 'commutative' must be true or false, not 'false'"),
    ({"algebra": {"kind": "fiber", "s": 5, "t": 5}}, RESIDUE,
     "an algebra must be a JSON object, not 5"),
    (table(generators={"x": [1]}), RESIDUE, GENERATOR_AT.format(at=[1])),
    (table(generators={"x": [5, 0]}), {"kind": "coker", "matrix": [["x"]]},
     GENERATOR_AT.format(at=[5, 0])),
    (table(generators={"x": [1, -1]}), RESIDUE, GENERATOR_AT.format(at=[1, -1])),
    (table(mult={"1|1": [[[1.5]]]}), RESIDUE, "bad table object: 1.5 is not an integer"),
    (table(mult={"1|1": [[[True]]]}), RESIDUE, "bad table object: True is not an integer"),
    (table(cap=1, basis=[["1"], "xy"], mult={}, generators={}), RESIDUE,
     "bad table object: basis degree 1 must be a list of strings, not 'xy'"),
    ({}, {"kind": "free", "gens": "12"},
     "free module needs integer 'gens': expected a list, not '12'"),
    ({}, {"kind": "free", "gens": {"1": 0}},
     "free module needs integer 'gens': expected a list, not {{'1': 0}}"),
    ({}, {"kind": "coker", "matrix": [["x"]], "gens": "0"},
     "coker module needs integer 'gens': expected a list, not '0'"),
], ids=["deg-string", "gens-string", "gens-number", "matrix-row-number", "cap-string",
        "field-number", "deg-fraction", "deg-bool", "name-list", "name-number", "name-empty",
        "free-gens-fraction",
        "coker-gens-fraction", "rel-exponent-letter", "rels-string",
        "coker-exponent-letter", "coker-exponent-negative", "coker-superscript-digit",
        "table-generators-number",
        "commutative-string", "fiber-factor-number", "table-generator-short",
        "table-generator-above-cap", "table-generator-negative-index",
        "table-entry-fraction", "table-entry-bool", "table-basis-degree-string",
        "free-gens-string", "free-gens-object", "coker-gens-string"])
def test_malformed_input_file_exits_one(tmp_path, capsys, algebra_edit, module, message):
    """A value of the wrong type in an algebra or module file is an input
    error (exit 1, one error line), not a traceback; a fractional or
    boolean degree is not truncated to an integer, and a string is not
    read as a flag or as a list of relations."""
    obj = algebra_obj([("x", 1)], ["x^3"])
    for key, value in algebra_edit.items():
        (obj["algebra"] if key in ("vars", "rels", "commutative") else obj)[key] = value
    a = write(tmp_path, "a.json", obj)
    m = write(tmp_path, "m.json", module)
    assert main(["resolve", "--algebra", a, "--module", m, "--hmax", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message.format(path=a)}") and err.count("\n") == 1


def test_a_table_entry_is_read_mod_p_as_an_integer(tmp_path, capsys):
    """A table entry beyond int64 is an integer, read as its residue mod
    p, not an overflow: x * x = 10^30 y is x * x = (10^30 mod p) y."""
    obj = algebra_obj([("x", 1)], ["x^3"])
    obj.update(table(mult={"1|1": [[[10 ** 30]]]}))
    a = write(tmp_path, "a.json", obj)
    assert main(["algebra", "--algebra", a]) == 0
    assert not capsys.readouterr().err
    assert np.asarray(load_algebra(a).mult[(1, 1)]).tolist() == [[10 ** 30 % 32003]]


def test_unknown_module_kind_exits_one(tmp_path):
    a = write(tmp_path, "a.json", algebra_obj([("x", 1)], ["x^2"]))
    m = write(tmp_path, "m.json", {"kind": "wat"})
    assert main(["resolve", "--algebra", a, "--module", m, "--hmax", "3"]) == 1


def test_missing_required_flag_exits_one(tmp_path):
    a = write(tmp_path, "a.json", algebra_obj([("x", 1)], ["x^2"]))
    assert main(["resolve", "--algebra", a]) == 1


def test_unknown_command_exits_one():
    assert main(["nosuchcommand"]) == 1


def test_char_mismatch_exits_one(tmp_path):
    s = write(tmp_path, "s.json", algebra_obj([("x", 1)], ["x^2"], char=7))
    t = write(tmp_path, "t.json", algebra_obj([("y", 1)], ["y^2"], char=11))
    assert main(["fiber", "--s", s, "--t", t]) == 1


def manifest_args(*args):
    """A command line with each ``name.json`` read from the manifests."""
    return [os.path.join(MANIFESTS, a) if a.endswith(".json") else a for a in args]


ABOVE_CAP = "dmax 50 beyond tabulated degrees; largest valid dmax is 12"


@pytest.mark.parametrize("argv, message", [
    (["resolve", "--algebra", "r_square_zero.json", "--module", "m_k.json",
      "--hmax", "-1"], "hmax -1 is negative; the smallest valid hmax is 0"),
    (["resolve", "--algebra", "s_x2.json", "--module", "m_k.json",
      "--hmax", "2", "--dmax", "-1"], "dmax -1 is negative; the smallest valid dmax is 0"),
    (["koszul", "--algebra", "s_x2.json", "--imax", "2", "--dmax", "-1"],
     "dmax -1 is negative; the smallest valid dmax is 0"),
    (["fiber-module", "--s", "s_x2.json", "--t", "t_y2.json", "--m", "m_k.json",
      "--n", "m_k.json", "--hmax", "2", "--dmax", "-1"],
     "dmax -1 is negative; the smallest valid dmax is 0"),
    (["syzygy-split", "--r", "r_square_zero.json", "--l", "m_k.json",
      "--hmax", "3", "--dmax", "-2"], "dmax -2 is negative; the smallest valid dmax is 0"),
    (["ext", "--algebra", "s_x2.json", "--imax", "2", "--dmax", "-3"],
     "dmax -3 is negative; the smallest valid dmax is 0"),
    (["poincare", "--s", "s_x2.json", "--t", "t_y2.json", "--m", "m_k.json",
      "--hmax", "3", "--dmax", "-1"], "dmax -1 is negative; the smallest valid dmax is 0"),
    (["resolve", "--algebra", "r_square_zero.json", "--module", "m_k.json",
      "--hmax", "3", "--dmax", "50"], ABOVE_CAP),
    (["poincare", "--s", "s_x2.json", "--t", "t_y2.json", "--m", "m_k.json",
      "--hmax", "3", "--dmax", "50"], ABOVE_CAP),
    (["wordres", "--s", "s_x2.json", "--t", "t_y2.json", "--m", "m_k.json",
      "--hmax", "3", "--dmax", "50"], ABOVE_CAP),
    (["ext", "--algebra", "s_x2.json", "--imax", "3", "--dmax", "50"], ABOVE_CAP),
    (["verify", "phi", "--s", "s_x2.json", "--t", "t_y2.json", "--window", "3",
      "--dmax", "50"], ABOVE_CAP),
    (["verify", "theta", "--s", "s_x2.json", "--t", "t_y2.json", "--m", "m_k.json",
      "--window", "3", "--dmax", "50"], ABOVE_CAP),
    (["koszul", "--algebra", "s_x2.json", "--imax", "3", "--dmax", "50"], ABOVE_CAP),
    (["fiber-module", "--s", "s_x2.json", "--t", "t_y2.json", "--m", "m_k.json",
      "--n", "m_k.json", "--hmax", "3", "--dmax", "50"], ABOVE_CAP),
    (["syzygy-split", "--r", "r_square_zero.json", "--l", "m_k.json",
      "--hmax", "3", "--dmax", "50"], ABOVE_CAP),
    (["depth", "--r", "r_square_zero.json", "--m", "m_k.json", "--hmax", "3",
      "--dmax", "50"], ABOVE_CAP),
    (["depth", "--r", "r_square_zero.json", "--l", "l_line.json", "--hmax", "3",
      "--dmax", "50"], ABOVE_CAP),
], ids=["resolve-hmax", "resolve-dmax", "koszul-dmax", "fiber-module-dmax",
        "syzygy-split-dmax", "ext-dmax", "poincare-dmax", "resolve-above-cap",
        "poincare-above-cap", "wordres-above-cap", "ext-above-cap", "phi-above-cap",
        "theta-above-cap", "koszul-above-cap", "fiber-module-above-cap",
        "syzygy-split-above-cap", "depth-m-above-cap", "depth-l-above-cap"])
def test_resolve_negative_hmax_exits_one(capsys, argv, message):
    """A negative window bound, or a dmax above the ring's cap, is
    refused before any check runs, with the valid limit named."""
    rc = main(manifest_args(*argv))
    out, err = capsys.readouterr()
    assert rc == 1
    assert err == f"error: {message}\n"
    assert "PASS" not in out


@pytest.mark.parametrize("m_gens, n_file, dims", [([0, 0], "m_free.json", "2 vs 1"),
                                                  ([1], "m_k.json", "0 vs 1")])
def test_fiber_module_degree_zero_mismatch_exits_one(tmp_path, capsys, m_gens, n_file,
                                                    dims):
    """The pullback glues M and N along V = M_0 = N_0: degree-0 pieces of
    different dimensions are an input error naming both (exit 1, one
    error line), refused before any check runs."""
    m = write(tmp_path, "m.json", {"kind": "free", "gens": m_gens})
    rc = main(manifest_args("fiber-module", "--s", "s_x2.json", "--t", "t_y2.json",
                            "--m", m, "--n", n_file, "--hmax", "3"))
    out, err = capsys.readouterr()
    assert rc == 1
    assert err == f"error: fiber module precondition failed: dim M_0 = dim N_0 {dims}\n"
    assert "PASS" not in out and "FAIL" not in out


def test_syzygy_split_hmax_below_two_exits_one(capsys):
    rc = main(["syzygy-split", "--r", os.path.join(MANIFESTS, "r_square_zero.json"),
               "--l", os.path.join(MANIFESTS, "m_k.json"), "--hmax", "1"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "hmax 1" in err
    assert "2 <= n <= 1" not in out


@pytest.mark.parametrize("what, window, products_to, smallest", [
    ("phi", "3", "1", 2), ("phi", "3", "0", 2), ("phi", "3", "-2", 2),
    ("theta", "3", "0", 1), ("theta", "3", "-1", 1), ("theta", "0", "4", 1)])
def test_verify_products_window_that_tests_nothing_exits_one(capsys, what, window,
                                                             products_to, smallest):
    """A product check needs a letter times a class of the lowest degree
    (1 for phi, 0 for theta) inside min(products-to, window); a smaller
    window is refused, not passed with nothing tested."""
    module = ["--m", "m_k.json"] if what == "theta" else []
    rc = main(manifest_args("verify", what, "--s", "s_x2.json", "--t", "t_y2.json",
                            *module, "--window", window, "--products-to", products_to))
    out, err = capsys.readouterr()
    assert rc == 1
    assert err.count("error:") == 1
    assert f"window {window} with products-to {products_to} tests no product" in err
    assert f"smallest valid products-to and window are {smallest}" in err
    assert "PASS" not in out and "FAIL" not in out


@pytest.mark.parametrize("window", ["0", "1"])
def test_verify_phi_window_below_two_exits_one(capsys, window):
    """Below degree 2 the tensor-product control agrees with Ext (both
    are s_1 + t_1), so it cannot disagree: the window is refused."""
    rc = main(manifest_args("verify", "phi", "--s", "s_x2.json", "--t", "t_y2.json",
                            "--window", window))
    out, err = capsys.readouterr()
    assert rc == 1
    assert f"window {window} is too small" in err
    assert "smallest valid window is 2" in err
    assert "PASS" not in out and "FAIL" not in out


@pytest.mark.parametrize("window, message", [
    (["--m", "m_k.json", "--hmax", "6", "--jmax", "0"], "jmax 0 asks for no witness; "
     "the smallest valid jmax is 1"),
    (["--m", "m_k.json", "--hmax", "6", "--jmax", "-1"], "jmax -1 asks for no witness; "
     "the smallest valid jmax is 1"),
    (["--m", "m_k.json", "--hmax", "2", "--jmax", "1"], "hmax 2 is too small for the "
     "depth certificate; the smallest valid hmax is 3"),
    (["--l", "l_line.json", "--hmax", "1"], "hmax 1 is too small for the depth upper "
     "bound; the smallest valid hmax is 2"),
], ids=["jmax-0", "jmax-negative", "certificate-hmax-2", "upper-bound-hmax-1"])
def test_depth_window_that_certifies_nothing_exits_one(capsys, monkeypatch, window, message):
    """A depth window with no witness or too few steps is refused before
    any cohomology is built, not passed with an empty certificate."""
    def no_setup(*args, **kwargs):
        raise AssertionError("set-up built for a refused window")
    for name in ("_phi_setup", "minimal_resolution"):
        monkeypatch.setattr(cohomology, name, no_setup)
    rc = main(manifest_args("depth", "--r", "r_square_zero.json", *window))
    out, err = capsys.readouterr()
    assert rc == 1
    assert err.count("error:") == 1 and message in err
    assert "certified depth interval" not in out and "PASS" not in out


def test_syzygy_split_bad_window_prints_no_table(capsys):
    rc = main(["syzygy-split", "--r", os.path.join(MANIFESTS, "r_square_zero.json"),
               "--l", os.path.join(MANIFESTS, "m_k.json"), "--hmax", "1"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "hmax 1" in err
    assert "degree (kernel" not in out


def count_syzygy_splits(monkeypatch) -> list:
    """Wrap ``syzygy_split`` wherever the CLI reaches it; the returned
    list gets one entry per call."""
    calls = []
    real = cohomology.syzygy_split

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cohomology, "syzygy_split", counted)
    monkeypatch.setattr(cli, "syzygy_split", counted)
    return calls


def test_syzygy_split_command_splits_once(monkeypatch, capsys):
    calls = count_syzygy_splits(monkeypatch)
    rc = main(["syzygy-split", "--r", os.path.join(MANIFESTS, "r_square_zero.json"),
               "--l", os.path.join(MANIFESTS, "m_k.json"), "--hmax", "4"])
    assert rc == 0
    assert len(calls) == 1
    assert "degree (kernel" in capsys.readouterr().out


def test_suite_syzygy_split_entry_splits_once(tmp_path, monkeypatch):
    s = write(tmp_path, "s.json", algebra_obj([("x", 1)], ["x^2"]))
    t = write(tmp_path, "t.json", algebra_obj([("y", 1)], ["y^2"]))
    m = write(tmp_path, "m.json", {"kind": "residue"})
    manifest = write(tmp_path, "suite.json", {
        "window": {"hmax": 4},
        "entries": [{"name": "split", "kind": "triple", "s": "s.json",
                     "t": "t.json", "m": "m.json", "checks": ["syzygy-split"]}],
    })
    calls = count_syzygy_splits(monkeypatch)
    assert main(["suite", "--manifest", manifest]) == 0
    assert len(calls) == 1


def first_triple(tmp_path, checks=None):
    """The bundled manifest's window and first triple, with its file
    paths made absolute and, given ``checks``, that check order."""
    bundled = json.loads(pathlib.Path(MANIFESTS, "suite.json").read_text())
    entry = dict(bundled["entries"][0])
    for key in "stm":
        entry[key] = os.path.join(MANIFESTS, entry[key])
    if checks is not None:
        entry["checks"] = checks
    return write(tmp_path, "suite.json", {"window": bundled["window"],
                                          "entries": [entry]})


def test_suite_entry_builds_each_resolution_once(tmp_path, monkeypatch):
    """Inside one entry, every (algebra, module content, hmax, dmax) is
    resolved once and the Ext-layer set-up is built once, though several
    checks ask for them; phi, theta and depth read one set of its
    objects: three Ext algebras (S, T and R), one free product and one
    induced module."""
    built, setups = [], []
    real_build, real_setup = resolve._minimal_resolution, extalg._build_phi_setup

    def build(algebra, module, hmax, dmax=None):
        built.append((id(algebra), resolve._module_content(module), hmax, dmax))
        return real_build(algebra, module, hmax, dmax)

    def setup(*args):
        setups.append(args)
        return real_setup(*args)

    monkeypatch.setattr(resolve, "_minimal_resolution", build)
    monkeypatch.setattr(extalg, "_build_phi_setup", setup)
    made = {cls: [] for cls in (extalg.ExtAlgebra, extalg.FreeProductAlgebra,
                                extalg.FreeProductModule)}
    for cls, calls in made.items():
        def init(self, *args, _real=cls.__init__, _calls=calls):
            _calls.append(args)
            _real(self, *args)
        monkeypatch.setattr(cls, "__init__", init)
    assert main(["suite", "--manifest", first_triple(tmp_path)]) == 0
    assert len(built) == len(set(built)) > 0
    assert len(setups) == 1
    assert [len(calls) for calls in made.values()] == [3, 1, 1]


def test_suite_summaries_do_not_depend_on_the_check_order(tmp_path):
    runs = []
    for checks in (list(cli.SUITE_CHECKS), list(reversed(cli.SUITE_CHECKS))):
        out = tmp_path / f"rep{len(runs)}.json"
        assert main(["suite", "--manifest", first_triple(tmp_path, checks),
                     "--out", str(out)]) == 0
        runs.append(json.loads(out.read_text())["data"])
    assert runs[0] == runs[1]
    assert sorted(runs[0]["square-square residue"]) == sorted(cli.SUITE_CHECKS)


def first_failure(rep, prefix):
    """A command report's first failing check, as the library records it."""
    bad = [c for c in rep["checks"] if c["status"] == "fail"]
    return {"name": bad[0]["name"].removeprefix(f"{prefix}: "), "ok": False,
            "detail": bad[0]["detail"]} if bad else None


def diagonal(rep):
    return rep["data"]["koszul"]["diagonal_in_window"]


# check -> (its outcome at the window, the matching subcommands, and
# (suite fields, the same fields from the subcommands' (rc, report, stderr)))
AGREEMENT = {
    "poincare": ("fail", ["poincare --s S --t T --m M --hmax 4 --dmax 2"],
                 lambda e, c: (
                     (e["ok"], [str(v) for v in e["formula"] + e["direct"]]),
                     (c[0][0] == 0, c[0][1]["data"]["formula"]["coefficients"]
                      + c[0][1]["data"]["direct"]["coefficients"]))),
    "wordres": ("pass", ["wordres --s S --t T --m M --hmax 4 --dmax 2 "
                         "--verify"],
                lambda e, c: (
                    (e["ok"], e["counts"], e["first_failure"]),
                    (c[0][0] == 0, c[0][1]["data"]["word_counts"],
                     first_failure(c[0][1], "word resolution")))),
    "phi": ("fail", ["verify phi --s S --t T --window 4 --dmax 2"],
            lambda e, c: ((e["ok"], f"error: {e['error']}\n"),
                          (c[0][0] == 0, c[0][2]))),
    "theta": ("fail", ["verify theta --s S --t T --m M --window 4 --dmax 2"],
              lambda e, c: ((e["ok"], f"error: {e['error']}\n"),
                            (c[0][0] == 0, c[0][2]))),
    "koszul": ("pass", [f"koszul --algebra {a} --imax 4 --dmax 2"
                        for a in "STR"],
               lambda e, c: (
                   (e["ok"], e["factors"], e["fiber"], e["offenders"]),
                   (diagonal(c[2][1]) == (diagonal(c[0][1])
                                          and diagonal(c[1][1])),
                    [diagonal(c[0][1]), diagonal(c[1][1])], diagonal(c[2][1]),
                    {k: run[1]["data"]["koszul"]["offenders"]
                     for k, run in zip("str", c)}))),
    "fiber-module": ("pass", ["fiber-module --s S --t T --m N --n N --hmax 4 "
                              "--dmax 2"],
                     lambda e, c: (
                         (e["ok"], e["first_failure"]),
                         (c[0][0] == 0, first_failure(c[0][1],
                                                      "fiber module")))),
    "syzygy-split": ("fail", ["syzygy-split --r R --l M --hmax 4 --dmax 2"],
                     lambda e, c: (
                         (e["ok"], e["dims"], e["ext_dims"]),
                         (c[0][0] == 0, c[0][1]["data"]["split"]["dims"],
                          c[0][1]["data"]["ext sequence"]["ext_dims"]))),
    "depth": ("pass", ["depth --r R --m M --jmax 1 --hmax 4 --dmax 2"],
              lambda e, c: (
                  (e["ok"], {k: v for k, v in e.items() if k != "ok"}),
                  (c[0][0] == 0, c[0][1]["data"]["certificate"]))),
}


def agreement_files(tmp_path) -> dict:
    """The AGREEMENT commands' file names: factors, modules and their
    fiber product ring R, all tabulated to 12."""
    files = {k: os.path.join(MANIFESTS, f) for k, f in (
        ("S", "s_x3.json"), ("T", "t_y2.json"), ("M", "m_k.json"),
        ("N", "m_free.json"))}
    s, t = (json.loads(pathlib.Path(files[k]).read_text()) for k in "ST")
    files["R"] = write(tmp_path, "r.json", {
        "field": s["field"], "cap": s["cap"],
        "algebra": {"kind": "fiber", "s": s["algebra"], "t": t["algebra"]}})
    return files


@pytest.mark.parametrize("check", list(AGREEMENT))
def test_suite_uses_the_command_window(check, tmp_path, capsys):
    """Each suite check runs its subcommand's code in the same window.
    At hmax 4, dmax 2 the factor k[x]/(x^3) has syzygy generators above
    dmax (degrees 3, 4, 6, ...), so a suite check that cut a ring at
    another window than its command would disagree with it."""
    expect, commands, shared = AGREEMENT[check]
    files = agreement_files(tmp_path)
    suite = write(tmp_path, "suite.json", {
        "window": {"hmax": 4, "dmax": 2, "jmax": 1},
        "entries": [{"name": "e", "kind": "triple", "s": files["S"],
                     "t": files["T"], "m": files["M"], "checks": [check],
                     "expect": expect}]})
    out = tmp_path / "suite_rep.json"
    assert main(["suite", "--manifest", suite, "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["data"]["e"][check]
    runs = []
    for n, command in enumerate(commands):
        rep = tmp_path / f"cmd{n}.json"
        capsys.readouterr()
        rc = main([files.get(a, a) for a in command.split()]
                  + ["--out", str(rep)])
        runs.append((rc, json.loads(rep.read_text()) if rep.exists() else None,
                     capsys.readouterr().err))
    suite_side, command_side = shared(entry, runs)
    assert suite_side == command_side


def test_suite_refuses_a_dmax_above_the_cap_as_its_commands_do(tmp_path, capsys):
    """At dmax 50, above the rings' cap 12, every suite check fails with
    the error that its subcommands print when they exit 1."""
    files = agreement_files(tmp_path)
    suite = write(tmp_path, "suite.json", {
        "window": {"hmax": 4, "dmax": 50, "jmax": 1},
        "entries": [{"name": "e", "kind": "triple", "s": files["S"],
                     "t": files["T"], "m": files["M"]}]})
    out = tmp_path / "suite_rep.json"
    assert main(["suite", "--manifest", suite, "--out", str(out)]) == 2
    entry = json.loads(out.read_text())["data"]["e"]
    assert sorted(entry) == sorted(AGREEMENT)
    for check, (_, commands, _) in AGREEMENT.items():
        for command in commands:
            capsys.readouterr()
            argv = command.replace("--dmax 2", "--dmax 50").split()
            assert main([files.get(a, a) for a in argv]) == 1
            err = capsys.readouterr().err
            assert entry[check] == {"ok": False,
                                    "error": err.removeprefix("error: ").rstrip("\n")}
            assert "largest valid dmax is 12" in err


@pytest.mark.parametrize("window, entry", [
    ({"hmax": "x"}, {}),
    ({"hmax": None}, {}),
    ({"hmax": 3, "dmax": "six"}, {}),
    ({"hmax": 3, "jmax": [1]}, {}),
    ({"hmax": 3}, {"checks": "phi"}),
    ({"hmax": 3}, "oops"),
    (4, {}),
    ({"hmax": 3}, {"kind": "tensor-contrl"}),
    ({"hmax": 3}, {"expect": "error"}),
], ids=["hmax-string", "hmax-null", "dmax-string", "jmax-list",
        "checks-string", "entry-string", "window-number", "kind-typo",
        "expect-error"])
def test_malformed_suite_manifest_exits_one(tmp_path, capsys, window, entry):
    """A manifest the suite cannot read is an input error (exit 1, no
    traceback), found before any entry runs."""
    if isinstance(entry, dict):
        entry = {"name": "e", "kind": "triple", "s": "s.json", "t": "t.json",
                 "m": "m.json", "checks": ["koszul"], **entry}
    write(tmp_path, "s.json", algebra_obj([("x", 1)], ["x^2"]))
    write(tmp_path, "t.json", algebra_obj([("y", 1)], ["y^2"]))
    write(tmp_path, "m.json", {"kind": "residue"})
    manifest = write(tmp_path, "suite.json",
                     {"window": window, "entries": [entry]})
    assert main(["suite", "--manifest", manifest]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: suite ")
    assert "PASS" not in out and "FAIL" not in out


@pytest.mark.parametrize("module, window", [
    (["--m", "m.json", "--jmax", "1"], {"hmax": 4, "jmax": 1, "dmax": 3}),
    (["--l", "l.json"], {"hmax": 4, "dmax": 3}),
], ids=["certificate", "upper-bound"])
def test_depth_report_records_its_dmax(tmp_path, module, window):
    r = write(tmp_path, "r.json", fiber_obj(["x^2"], ["y^2"]))
    write(tmp_path, "m.json", {"kind": "residue"})
    write(tmp_path, "l.json", {"kind": "free", "gens": [0]})
    out = tmp_path / "rep.json"
    assert main(["depth", "--r", r, "--hmax", "4", "--dmax", "3", "--out",
                 str(out)] + [str(tmp_path / a) if a.endswith(".json") else a
                              for a in module]) == 0
    assert json.loads(out.read_text())["window"] == window


@pytest.mark.parametrize("s_k, message", [
    ({"coefficients": ["0", "1", "1"], "truncation": 2},
     "series not applicable: algebra series must be connected"),
    ({"coefficients": ["1"], "truncation": -1},
     "bad series object: truncation must be nonnegative"),
])
def test_poincare_formula_rejects_bad_series(tmp_path, capsys, s_k, message):
    sm = write(tmp_path, "sm.json", {"coefficients": ["1", "1", "1"],
                                     "truncation": 2})
    sk = write(tmp_path, "sk.json", s_k)
    rc = main(["poincare", "--formula", "--s-m", sm, "--s-k", sk,
               "--t-k", sm])
    out, err = capsys.readouterr()
    assert rc == 1
    assert message in err
    assert "coefficients" not in out


def test_syzygy_split_requires_fiber_ring(tmp_path):
    r = write(tmp_path, "r.json", algebra_obj([("x", 1)], ["x^2"]))
    l = write(tmp_path, "l.json", {"kind": "residue"})
    assert main(["syzygy-split", "--r", r, "--l", l]) == 1


def test_depth_requires_exactly_one_module(tmp_path):
    r = write(tmp_path, "r.json", fiber_obj(["x^2"], ["y^2"]))
    m = write(tmp_path, "m.json", {"kind": "residue"})
    assert main(["depth", "--r", r, "--hmax", "4"]) == 1
    assert main(["depth", "--r", r, "--m", m, "--l", m, "--hmax", "4"]) == 1


# -- environment-variable characteristic ---------------------------------------


def test_env_char_used_when_file_has_none(tmp_path, monkeypatch):
    obj = algebra_obj([("x", 1)], ["x^2"])
    del obj["field"]
    a = write(tmp_path, "a.json", obj)
    out = tmp_path / "rep.json"
    monkeypatch.setenv("FIBERRES_CHAR", "7")
    assert main(["algebra", "--algebra", a, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["char"] == 7


def test_file_char_beats_env(tmp_path, monkeypatch):
    a = write(tmp_path, "a.json", algebra_obj([("x", 1)], ["x^2"], char=13))
    out = tmp_path / "rep.json"
    monkeypatch.setenv("FIBERRES_CHAR", "7")
    assert main(["algebra", "--algebra", a, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["char"] == 13


def test_invalid_env_char_exits_one(tmp_path, monkeypatch):
    a = write(tmp_path, "a.json", algebra_obj([("x", 1)], ["x^2"]))
    monkeypatch.setenv("FIBERRES_CHAR", "banana")
    assert main(["algebra", "--algebra", a]) == 1


@pytest.mark.parametrize("char", ["6", "4", "4294967311"])
def test_env_char_that_is_not_a_small_prime_exits_one(tmp_path, monkeypatch,
                                                      capsys, char):
    """A non-field (6, 4) or a prime past int64-safe products (2^32 + 15)
    is rejected before any check runs."""
    paths = []
    for name, var, rel in (("s.json", "x", "x^2"), ("t.json", "y", "y^2")):
        obj = algebra_obj([(var, 1)], [rel])
        del obj["field"]
        paths.append(write(tmp_path, name, obj))
    m = write(tmp_path, "m.json", {"kind": "residue"})
    monkeypatch.setenv("FIBERRES_CHAR", char)
    rc = main(["wordres", "--s", paths[0], "--t", paths[1], "--m", m,
               "--hmax", "4", "--verify"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert f"p = {char}" in err
    assert "checks" not in out
