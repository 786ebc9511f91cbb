"""Tests of the benchmark itself: the reference computations, the output
checks, the tracer and the result line.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402
from linnik_lab import arith, charsums, group, multfunc, pipeline  # noqa: E402
from run import Launcher  # noqa: E402

SV = orc.Sieve(20_000)


def test_R_of_liouville_small_moduli():
    R3, table = orc.witnesses(SV, SV.liouville, 3, 100)
    assert R3 == 14 and table[2] == {"+": 14, "-": 2} and table[1] == {"+": 1, "-": 7}
    assert orc.witnesses(SV, SV.liouville, 1, 10)[0] == 2


def test_R_is_none_when_the_cap_is_too_low():
    assert orc.witnesses(SV, SV.liouville, 3, 13)[0] is None
    # chi_7 is constant on classes mod 7, so it never changes sign inside one
    assert orc.witnesses(SV, orc.sign_table(SV, "character:7:1"), 7, 2000)[0] is None


def test_sieve_tables_match_factorization():
    for n in range(1, 3000):
        f = arith.factorize(n)
        assert SV.squarefree[n] == f.is_squarefree
        assert SV.liouville[n] == f.liouville
        assert n == 1 or SV.spf[n] == f.primes[0]


def test_real_characters_match_the_library():
    for q in itertools.chain(range(3, 60), (64, 120, 840)):
        ns = np.arange(q)
        mine = sorted(tuple(c.tolist()) for c in orc.real_characters(q, ns))
        lib = sorted(tuple(int(round(chi(int(n)).real)) for n in ns)
                     for chi in group.real_characters(q))
        assert mine == lib, q


def test_pretend_min_matches_the_library():
    mu = multfunc.mobius_fn()
    for q in range(3, 120):
        lib = min(multfunc.pretend_sum(mu, chi, math.sqrt(q)) for chi in group.real_characters(q))
        assert orc.pretend_min(q, -1, math.sqrt(q)) == pytest.approx(lib, rel=1e-12, abs=0), q


def test_character_sums_and_pv_match_the_library():
    q = 31
    dlog = orc.dlog_table(q)
    ns = [2, 3, 5, 7, 11, 13, 40, 77]
    mine = np.sort(np.abs(orc.dual_sums(q, dlog, ns)))
    lib = np.sort(np.abs(charsums.all_char_sums(group.build_unit_group(q), ns)))
    assert np.allclose(mine, lib, atol=1e-9)
    lib_pv = max(charsums.pv_max_window(c)[0] for c in group.characters(q) if not c.is_principal)
    assert orc.pv_max_window(q) == pytest.approx(lib_pv, abs=1e-9)


def test_count_products_matches_brute_force():
    rng = np.random.default_rng(5)
    q = 13
    lists = [rng.integers(1, 200, size=k).tolist() for k in (4, 5, 3)]
    for a in range(1, q):
        brute = sum(1 for x, y, z in itertools.product(*lists) if x * y * z % q == a)
        assert orc.count_products(lists, q, a) == brute


def test_checks_reject_wrong_outputs():
    t = wl.Thresholds()
    t.rfunc_rows = [{"q": 3, "R": 14, "cap": wl.rfunc_cap(3), "verified": True}]
    good = json.dumps({"result": {"table": t.rfunc_rows}}).encode()
    t.check_rfunc_table(good)
    bad = json.dumps({"result": {"table": [dict(t.rfunc_rows[0], R=15)]}}).encode()
    with pytest.raises(AssertionError):
        t.check_rfunc_table(bad)

    k = wl.Spectral()
    row = {"|AB|": 100, "|AH|+|BH|-|H|": 90, "|A|+|B|-|H|": 80, "|H|": 2}
    ok = {"result": {"trials": 100, "all_pass": True, "sample": [row]}}
    k.check_kneser(json.dumps(ok).encode())
    ok["result"]["sample"] = [dict(row, **{"|A|+|B|-|H|": 95})]
    with pytest.raises(AssertionError):
        k.check_kneser(json.dumps(ok).encode())


def test_s_easy_reference_matches_the_library_route():
    spec = dict(wl.S_EASY, q=35, R=20.0, a=2, deltas=[-1, -1, -1])
    tuples, count, value = wl.s_easy_reference(orc.Sieve(1000), spec)
    params = pipeline.ParamSet.from_q(35, 0.1, easy_mode=True, R=20.0, Q1=16.0, z=3.0)
    ctx = pipeline.build_context(multfunc.liouville_fn(), 35, params)
    lib_value, extras = pipeline.s_function_easy(ctx, 2, None, None, (-1, -1, -1))
    assert (tuples, count) == (extras["tuples"], extras["count"])
    assert value == pytest.approx(lib_value, rel=1e-12)


def test_traced_operation_reports_layers(tmp_path):
    launcher = Launcher(tmp_path)
    run = launcher.run("cli", ["batch", "--what", "rfunc", "--qmin", "3", "--qmax", "12",
                               "--threads", "2"], traced=True)
    assert run.code == 0 and run.setup_s > 0 and run.latency_s > 0
    assert len(run.trace) == 3  # the command's process and its two pool workers
    counters = sum((Counter(t["counters"]) for t in run.trace), Counter())
    assert counters["group.unit_groups_built"] == 10
    assert counters["pipeline.witnesses_verified"] > 0
    main = next(t for t in run.trace if t["self_s"]["pool"] > 0)
    assert all(main["self_s"][layer] > 0 for layer in ("arith", "cli"))  # imports at least
    untraced = launcher.run("cli", ["batch", "--what", "rfunc", "--qmin", "3", "--qmax", "12"])
    assert json.loads(untraced.stdout)["result"] == json.loads(run.stdout)["result"]


def test_result_line_follows_the_benchmark_file(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "ladder",
                               "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec[section]}
        for m in spec[section]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ladder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
