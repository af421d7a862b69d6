"""Tests of the benchmark itself: generators, checks and tracing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import cProfile
import pathlib
import pstats
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def pkg():
    return run.import_package()


def _inputs_digest(name, seed, workdir):
    code = (
        "import sys, pathlib; sys.path[:0] = [%r, %r]\n"
        "import run, workloads\n"
        "run.SETUP_REPEATS = 1\n"
        "_, _, _, d = run.setup(workloads.WORKLOADS[%r], %d, pathlib.Path(%r), run.SpeedProbe())\n"
        "print(d[0])\n" % (str(HERE), str(HERE.parent / "src"), name, seed, str(workdir)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_across_processes_and_change_with_seed(name, tmp_path):
    first = _inputs_digest(name, 3, tmp_path / "a")
    again = _inputs_digest(name, 3, tmp_path / "b")
    other = _inputs_digest(name, 4, tmp_path / "c")
    assert first == again
    assert first != other


def _small(pkg, name, tmp_path, count):
    wl = workloads.WORKLOADS[name](pkg, 5, str(tmp_path))
    wl.ops = wl.ops[:count]
    return wl


@pytest.mark.parametrize("name,count", [("registry_sweep", 34), ("fp_deep_walks", 20),
                                        ("cli_queries", 30), ("integer_backend", 50)])
def test_traced_and_untraced_outputs_agree(pkg, name, count, tmp_path):
    wl = _small(pkg, name, tmp_path, count)
    plain, _ = run.one_pass(wl)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = run.one_pass(wl, tracer)
    finally:
        tracer.uninstall()
    assert plain.failed == traced.failed == 0, plain.errors + traced.errors
    assert plain.digest() == traced.digest()
    assert tracer.layer_metrics()["bench.op.calls"] == count


def test_malformed_document_is_one_failed_op(pkg, tmp_path):
    bad = tmp_path / "bad_module.json"
    bad.write_text('{"kind": "action", "dim": 1, "action": {"e1": [1]}}')
    op = workloads.cli_op(pkg, "spd on a malformed module", "spd",
                          ["spd", "--ring", "example36.json", "--multset", "S1s.json",
                           "--module", str(bad), "--bound", "4", "--json"])
    wl = workloads.Workload(pkg, [op], True, 1)
    tally, _ = run.one_pass(wl)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "exit 2" in tally.errors[0]


def test_failed_check_counts_as_failed_op(pkg):
    op = workloads.cli_op(pkg, "spd with a wrong expectation", "spd",
                          ["spd", "--ring", "example36.json", "--multset", "S1s.json",
                           "--module", "m2.json", "--bound", "8", "--json"],
                          workloads._expect_fields(value=1))
    wl = workloads.Workload(pkg, [op], True, 1)
    assert run.one_pass(wl)[0].failed == 1


def test_tracer_counts_match_cprofile(pkg, tmp_path):
    """Every call to a traced function is seen, whichever name it went through."""
    wl = _small(pkg, "registry_sweep", tmp_path, 51)
    profiler = cProfile.Profile()
    profiler.enable()
    run.one_pass(wl)
    profiler.disable()
    by_code = {(f, line, fn): calls for (f, line, fn), (_, calls, *_)
               in pstats.Stats(profiler).stats.items()}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.one_pass(wl, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    checked = 0
    for name, modname, path, *_ in tracing.TARGETS:
        owner = sys.modules[modname]
        for part in path.split("."):
            cls, owner = owner, getattr(owner, part)
        code = owner.__code__
        if code.co_filename.startswith("<"):
            # generated dataclass __init__s share one profile key; each
            # calls its class's __post_init__ exactly once
            code = cls.__post_init__.__code__
        want = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert metrics[name + ".calls"] == want, name
        checked += want > 0
    assert checked >= 10


def test_invariant_factors_and_gcd_rule():
    assert workloads.invariant_factors([2, 4, 3]) == (2, 12)
    assert workloads.invariant_factors([6, 10]) == (2, 30)
    assert workloads.ext_closed_form((0, [4]), (0, [6]), 1) == (0, (2,))
    assert workloads.ext_closed_form((1, [4]), (1, []), 0) == (1, ())
    assert workloads.ext_closed_form((0, [3]), (2, []), 1) == (0, (3, 3))


def test_missing_sources_exit_nonzero(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for src in HERE.glob("*.py"):
        (copy / src.name).write_text(src.read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_queries",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
