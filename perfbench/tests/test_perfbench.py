"""Tests of the benchmark's own machinery, on inputs small enough to run
in seconds:

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def small_ops():
    """Operations shaped like the library workloads' on a tiny window:
    a resolution and its verifier, and the two lifting calls."""
    from fiberres import algebra, gmodule
    p = workloads.PRIMES[0]
    S = workloads._ring(p, 6, ["x"], ["x^2"])
    T = workloads._ring(p, 6, ["y"], ["y^2"])
    R = algebra.fiber_product(S, T)
    phi = gmodule.AlgMatrix(R, gmodule.FreeModule(R, [1]), gmodule.FreeModule(R, [0]),
                            {(0, 0): R.element_from_string("x+y")})
    lift_inputs = {"R": R, "M": gmodule.free_module_table(S, [0, 0]),
                   "N": gmodule.free_module_table(T, [0, 0]),
                   "L": gmodule.cokernel_module(phi), "hmax": 3}
    return (workloads.operations("resolve", [("square_square", R, gmodule.residue_module(R), 4)])
            + workloads.operations("lift", lift_inputs))


S = 10 ** 9  # span times are in nanoseconds


def span(parent, fn, t0, t1, outermost=True, ext=None, done=None):
    return (parent, fn, t0 * S, t1 * S, (t1 if done is None else done) * S, outermost, ext)


def test_self_time_on_synthetic_span_tree():
    # f [0, 10] calls g [1, 4] and h [5, 6]; g calls h [2, 3]; h [2, 3]
    # itself calls h [2.2, 2.5], which must not be counted twice in h's
    # inclusive time.
    dump = {"functions": ["a.f", "b.g", "a.h"],
            "spans": [span(-1, 0, 0, 10),
                      span(0, 1, 1, 4),
                      span(1, 2, 2, 3),
                      span(2, 2, 2.2, 2.5, outermost=False),
                      span(0, 2, 5, 6)]}
    st = tracer.span_stats(dump)
    f, g, h = (st["functions"][n] for n in ("a.f", "b.g", "a.h"))
    assert f["self_s"] == pytest.approx(10 - 3 - 1)
    assert g["self_s"] == pytest.approx(3 - 1)
    assert h["self_s"] == pytest.approx(0.7 + 0.3 + 1.0)
    assert (f["calls"], g["calls"], h["calls"]) == (1, 1, 3)
    assert h["total_s"] == pytest.approx(2.0)
    assert st["modules"]["a"] == pytest.approx(6 + 2)
    assert st["modules"]["b"] == pytest.approx(2)
    # self times partition the root span
    assert sum(st["modules"].values()) == pytest.approx(10)


def test_counter_time_is_charged_to_no_span():
    # g [1, 4] spends [4, 4.5] computing its counters inside f [0, 10]:
    # that half second is neither g's nor f's self time.
    dump = {"functions": ["a.f", "b.g"],
            "spans": [span(-1, 0, 0, 10), span(0, 1, 1, 4, ext=(1,), done=4.5)]}
    st = tracer.span_stats(dump)
    assert st["functions"]["a.f"]["self_s"] == pytest.approx(10 - 3.5)
    assert st["functions"]["b.g"]["self_s"] == pytest.approx(3)
    assert st["functions"]["b.g"]["total_s"] == pytest.approx(3)


def test_counter_ratios():
    dump = {"functions": ["linalg.solve", "linalg.rref"],
            "spans": [span(-1, 0, 0, 1, ext=(1, 0)),
                      span(-1, 0, 1, 2, ext=(3, 1)),
                      span(-1, 1, 2, 3, ext=(20, 5))]}
    flat = tracer.flat_metrics(tracer.span_stats(dump))
    assert flat["linalg.solve.rhs_cols"] == 2
    assert flat["linalg.solve.repeat_frac"] == 0.5
    assert flat["linalg.rref.cells"] == 20
    assert flat["linalg.rref.nnz_frac"] == 0.25


def test_corrupted_output_is_counted_as_failed():
    expected = {"op_a": "aa", "op_b": "bb"}
    passes = [{"ops": [{"op": "op_a", "digest": "aa"}, {"op": "op_b", "digest": "bb"}]},
              {"ops": [{"op": "op_a", "digest": "aa"}, {"op": "op_b", "digest": "bX"}]},
              {"ops": [{"op": "op_a", "error": "ValueError: boom"}]}]
    failures = run.check_passes(passes, expected)
    assert [p["ok"] for p in passes] == [True, False, False]
    # one corrupted digest, one exception and one operation never run
    assert len(failures) == 3


def test_failed_operation_makes_the_command_exit_nonzero(monkeypatch, capsys):
    def fake(workload, seed, seconds, trace):
        return {"environment": {"seed": seed, "prime": 1, "nproc": 1, "python": "",
                                "numpy": "", "blas": "", "blas_threads": 1},
                "correct": False, "attempted": 2, "failed": 1, "ops_failed_frac": 0.5,
                "failures": ["pass 0 op: output differs from the reference"],
                "passes": [{}], "metrics": {}}
    monkeypatch.setattr(run, "run_workload", fake)
    assert run.main(["--workload", "lift", "--seed", "1", "--seconds", "1"]) == 1
    assert '"correct": false' in capsys.readouterr().out.splitlines()[-1]


def test_traced_digests_equal_untraced_and_wrappers_are_removed():
    import fiberres
    from fiberres import cli, cohomology, extalg, linalg, resolve
    before = {"resolve.minimal_resolution": resolve.minimal_resolution,
              "extalg.minimal_resolution": extalg.minimal_resolution,
              "cli.minimal_resolution": cli.minimal_resolution,
              "fiberres.minimal_resolution": fiberres.minimal_resolution,
              "linalg.Span.add": linalg.Span.__dict__["add"],
              "cohomology.comparison_chain_map": cohomology.comparison_chain_map}
    ops = small_ops()
    plain = workloads.run_pass(ops)
    assert all("digest" in r for r in plain), plain

    tr = tracer.Tracer()
    with tr:
        # names imported by other modules are rebound too
        assert getattr(extalg.minimal_resolution, tracer.MARK, False)
        assert getattr(cli.minimal_resolution, tracer.MARK, False)
        assert getattr(fiberres.minimal_resolution, tracer.MARK, False)
        traced = workloads.run_pass(ops)
    assert traced == plain

    assert tracer.installed_wrappers() == []
    after = {"resolve.minimal_resolution": resolve.minimal_resolution,
             "extalg.minimal_resolution": extalg.minimal_resolution,
             "cli.minimal_resolution": cli.minimal_resolution,
             "fiberres.minimal_resolution": fiberres.minimal_resolution,
             "linalg.Span.add": linalg.Span.__dict__["add"],
             "cohomology.comparison_chain_map": cohomology.comparison_chain_map}
    assert all(after[k] is before[k] for k in before)

    flat = tracer.mean_metrics([tr.dump()])
    for name in ("resolve.minimal_resolution.calls", "extalg.lift_dual.calls",
                 "cohomology.comparison_chain_map.calls", "linalg.solve.calls"):
        assert flat[name] > 0, name
    assert "algebra.GradedAlgebra.dim.calls" not in flat


def test_primes_are_odd_primes_within_range():
    for p in workloads.PRIMES:
        assert p % 2 == 1 and p <= 32003
        assert all(p % q for q in range(3, int(p ** 0.5) + 1, 2))
    assert workloads.prime_for_seed(3) == workloads.prime_for_seed(3 + len(workloads.PRIMES))


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil
    import subprocess
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_child_past_its_time_is_killed():
    with pytest.raises(run.BenchError):
        run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], timeout=0.5)
    child = run.spawn([sys.executable, "-c", "print('ok')"], timeout=30)
    assert (child["code"], child["stdout"].strip()) == (0, "ok")
    assert child["max_rss_kb"] > 0
