"""End-to-end checks of the command-line interface: exit codes,
deterministic reports, input validation, and the bundled suite."""

import json
import os

import pytest

from fiberres.cli import main

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


def test_suite_needs_window(tmp_path):
    manifest = write(tmp_path, "suite.json", {"entries": []})
    assert main(["suite", "--manifest", manifest]) == 1


# -- input and usage errors ----------------------------------------------------


def test_malformed_json_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"cap": 4, ')
    assert main(["algebra", "--algebra", str(path)]) == 1


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


def test_resolve_negative_hmax_exits_one(capsys):
    rc = main(["resolve", "--algebra", os.path.join(MANIFESTS, "r_square_zero.json"),
               "--module", os.path.join(MANIFESTS, "m_k.json"), "--hmax", "-1"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "hmax -1" in err
    assert "PASS" not in out


def test_syzygy_split_hmax_below_two_exits_one(capsys):
    rc = main(["syzygy-split", "--r", os.path.join(MANIFESTS, "r_square_zero.json"),
               "--l", os.path.join(MANIFESTS, "m_k.json"), "--hmax", "1"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "hmax 1" in err
    assert "2 <= n <= 1" not in out


def test_syzygy_split_bad_window_prints_no_table(capsys):
    rc = main(["syzygy-split", "--r", os.path.join(MANIFESTS, "r_square_zero.json"),
               "--l", os.path.join(MANIFESTS, "m_k.json"), "--hmax", "1"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "hmax 1" in err
    assert "degree (kernel" not in out


def test_suite_poincare_uses_the_command_window(tmp_path):
    """A factor generator above dmax (x^3 has syzygies in degrees 3, 4,
    6, ...) must be cut by the same window in the suite as in
    ``fiberres poincare``."""
    s = write(tmp_path, "s.json", algebra_obj([("x", 1)], ["x^3"], cap=8))
    t = write(tmp_path, "t.json", algebra_obj([("y", 1)], ["y^2"], cap=8))
    m = write(tmp_path, "m.json", {"kind": "residue"})
    suite = write(tmp_path, "suite.json", {
        "window": {"hmax": 4, "dmax": 2},
        "entries": [{"name": "e", "kind": "triple", "s": "s.json",
                     "t": "t.json", "m": "m.json", "checks": ["poincare"]}]})
    suite_out, cmd_out = tmp_path / "suite_rep.json", tmp_path / "cmd_rep.json"
    main(["suite", "--manifest", suite, "--out", str(suite_out)])
    main(["poincare", "--s", s, "--t", t, "--m", m, "--hmax", "4",
          "--dmax", "2", "--out", str(cmd_out)])
    entry = json.loads(suite_out.read_text())["data"]["e"]["poincare"]
    cmd = json.loads(cmd_out.read_text())["data"]
    assert [str(c) for c in entry["formula"]] == cmd["formula"]["coefficients"]
    assert [str(c) for c in entry["direct"]] == cmd["direct"]["coefficients"]


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
