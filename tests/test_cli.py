import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from linnik_lab import cli


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor(capsys):
    code, out, _ = run_cli(capsys, "factor", "--n", "12")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "linnik-lab/1"
    assert data["result"]["factors"] == [[2, 2], [3, 1]]
    assert "audit" in data and "params" in data


def test_rfunc_example(capsys):
    code, out, _ = run_cli(capsys, "rfunc", "--h", "liouville", "--q", "3",
                           "--cap", "1000")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["R"] == 14
    assert data["result"]["witnesses"]["2"]["+"] == 14
    assert data["result"]["witnesses_verified"] is True


def test_pretend_example(capsys):
    code, out, _ = run_cli(capsys, "pretend", "--h", "liouville", "--q", "4",
                           "--cutoff", "10", "--chi", "principal")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["sum"] == pytest.approx(0.676190476, abs=1e-6)


def test_exit_codes(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    code, _, err = run_cli(capsys, "lofq", "--q", "2")
    assert code == 2 and "precondition" in err
    # resource error path: a sieve too large to enumerate
    from linnik_lab import sieve
    monkeypatch.setattr(sieve, "_SUPPORT_BUDGET", 100)
    code, _, err = run_cli(capsys, "sieve", "--z", "100", "--D", "1e30")
    assert code == 3 and "resource" in err
    # a ladder override whose prime table would pass the table limit
    code, _, err = run_cli(capsys, "ramare", "--q", "101", "--Q1", "10", "--M", "2000",
                           "--j", "3", "--overrides", "10:100,150:1e12")
    assert code == 3 and "resource" in err and "Traceback" not in err, err
    # a rough count past the cap limit, refused before anything is allocated
    code, _, err = run_cli(capsys, "rough", "--q", "35", "--cap", "100000000000", "--z", "3")
    assert code == 3 and "resource" in err and "Traceback" not in err, err
    assert "up to 100000000000 exceeds" in err, err
    # a decomposition window past the window limit, refused before anything
    # is allocated
    code, _, err = run_cli(capsys, "ramare", "--q", "101", "--Q1", "10", "--M", "1e11",
                           "--j", "2", "--overrides", "10:100")
    assert code == 3 and "resource" in err and "Traceback" not in err, err
    # a batch whose witness tables would pass the byte budget, refused before
    # any scan: the scans and the sieve are replaced by a failure here
    from linnik_lab import arith, pipeline

    def refused(*args, **kwargs):
        raise AssertionError("a refused batch reached the scan")

    with monkeypatch.context() as m:
        for mod, name in ((pipeline, "R_block"), (pipeline, "audit_block"),
                          (arith, "factor_window")):
            m.setattr(mod, name, refused)
        # rfunc and audit hold the same bytes per modulus: both take q = 3..5055
        for argv in (("batch", "--qmin", "3", "--qmax", "10000000"),
                     ("batch", "--what", "audit", "--qmin", "3", "--qmax", "5056")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "" and "resource" in err and "budget" in err, err
            assert "Traceback" not in err, err
        m.setattr(cli._BatchWorker, "__call__", lambda self, qs: [])
        for what in ("rfunc", "audit"):
            code, _, err = run_cli(capsys, "batch", "--what", what, "--qmin", "3",
                                   "--qmax", "5055")
            assert code == 0, err
    code, _, _ = run_cli(capsys)
    assert code == 1
    # malformed h specs, character indices, ladder overrides, batch ranges
    # and charsum scales are domain errors
    for argv in (("rfunc", "--h", "character:7", "--q", "8", "--cap", "100"),
                 ("rfunc", "--h", "character:7:9", "--q", "8", "--cap", "100"),
                 ("rfunc", "--h", "character:7:-1", "--q", "8", "--cap", "100"),
                 ("rough", "--q", "35", "--cap", "1000", "--z", "3", "--psi", "9"),
                 ("rough", "--q", "35", "--cap", "1000", "--z", "3", "--psi", "-1"),
                 # the coset representative 0 is no unit
                 ("rough", "--q", "8", "--cap", "100", "--z", "3", "--psi", "0", "--b", "0"),
                 ("ramare", "--q", "101", "--Q1", "10", "--M", "2000", "--j", "2",
                  "--overrides", "10:100,150:1500", "--psi", "0", "--b", "0"),
                 ("pretend", "--q", "5", "--cutoff", "10", "--chi", "-1"),
                 ("ladder", "--Q1", "10", "--q", "101", "--overrides", "10-100"),
                 ("batch", "--qmin", "0", "--qmax", "3"),
                 ("--format", "csv", "batch", "--qmin", "5", "--qmax", "3"),
                 ("stcompare", "--q", "35", "--a", "7"),
                 # (R/e, R] = (2.39, 6.5] holds no unit mod 30
                 ("densemodel", "--q", "30", "--R", "6.5"),
                 ("charsum", "halmon", "--q", "101", "--N", "0"),
                 ("charsum", "halmon", "--q", "101", "--N", "-5"),
                 ("charsum", "halmon", "--q", "1", "--N", "5"),
                 # no non-principal character: a max over an empty set
                 ("charsum", "pv", "--q", "1"),
                 ("charsum", "pv", "--q", "2"),
                 ("charsum", "amplify", "--q", "11", "--Y1", "1"),
                 ("charsum", "amplify", "--q", "11", "--Y1", "0.5"),
                 ("charsum", "amplify", "--q", "11", "--Y2", "0.001"),
                 # the shapes q^(1/C) and 1/H need C > 0 and H > 0
                 ("charsum", "large", "--q", "101", "--C", "0"),
                 ("charsum", "moments", "--q", "35", "--N", "2000", "--H", "0"),
                 # no set size s with (2/5 + eps) phi < s <= phi, or eps <= 0
                 ("triple", "--q", "1009", "--epsilon", "0.7"),
                 ("triple", "--q", "1009", "--epsilon", "-1"),
                 ("triple", "--q", "101", "--trials", "-1"),
                 ("kneser", "--q", "101", "--trials", "-3"),
                 # every p divides 0: no coprimality modulus r < 1
                 ("distance", "--x", "100", "--r", "0"),
                 ("distance", "--x", "100", "--r", "-2"),
                 # non-finite floats, refused before any command runs; JSON
                 # has no inf or nan
                 ("distance", "--x", "inf"),
                 ("distance", "--x", "nan"),
                 ("pretend", "--q", "5", "--cutoff", "inf"),
                 ("pretend", "--q", "5", "--cutoff", "nan"),
                 ("ladder", "--Q1", "nan", "--q", "101"),
                 ("ladder", "--Q1", "10", "--q", "101", "--overrides", "10:inf"),
                 ("rough", "--q", "35", "--cap", "1000", "--z", "nan"),
                 ("charsum", "large", "--q", "101", "--P", "nan"),
                 ("charsum", "amplify", "--q", "11", "--Y1", "nan"),
                 ("sieve", "--z", "100", "--D", "inf"),
                 ("sieve", "--z", "100", "--D=-inf")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "Traceback" not in err, (argv, err)


def test_determinism(capsys):
    args = ("charsum", "mvt", "--q", "101", "--N", "300", "--seed", "7")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# sha256 of the product-set audit reports: their convolutions are exact integer
# counts, so any convolution kernel must reproduce them byte for byte
PRODUCT_SET_DIGESTS = [
    (("triple", "--q", "1009", "--seed", "1"),
     "12ce65ebabe9b640a7bd9b59279608a3c8b0df92bd672a483eb1abbd547a7186"),
    (("kneser", "--q", "211", "--seed", "1"),
     "d49589cb2429782dcc33588c9e947d11cf5bf0deaebbbcfb9211667dc88a68e5"),
    (("triple", "--q", "105", "--seed", "3"),
     "caddaca2686124d35b1421412b250e18c6809d065cb66ab6592c19aa2d1e9b75"),
    (("kneser", "--q", "720", "--seed", "2"),
     "b2e78a7b6f0f6b7345e58a67ed3770dec5c4207150b5b2bf4782c29992d8526a"),
]


# sha256 of dense-model and S/T reports: every f_hat comes from the class
# collapse of an f-support, which adds the normalizer once per point (a
# count times the normalizer can differ in the last bit).  The reports hold
# FFT floats; the digests were taken with numpy 2.4.
DENSE_MODEL_DIGESTS = [
    (("densemodel", "--q", "4001"),
     "27759172dff53b8682dc61e00f738ed9616f06e200276efaeec4446f5a068490"),
    (("densemodel", "--q", "101", "--R", "101"),
     "921fa6c5c9afe35a6d79b25ce2553b7603a891eefbbbb7d5b38065b8e9145e3b"),
    (("densemodel", "--q", "1009", "--R", "20000"),
     "cfd210c588b54c9e1c1bd81b07c2d1c4d571c4c7bdde42a15e2201eac365f95f"),
    (("stcompare", "--q", "101"),
     "d3b6d3db8bc4f77d111222110ce8d030988c29f36b37bffae518920d013191b0"),
    (("stcompare", "--q", "101", "--variant", "general"),
     "505c92087e514e50b96c376b79d6aba612473397690e6c514fa19713eac25a0a"),
    (("stcompare", "--q", "211", "--a", "5"),
     "009cf45fbfbe30082035ad6d5dd42108ba2862e81e29da36741049702ef73755"),
]


# sha256 of the Polya-Vinogradov sweep over every non-principal character and
# of the Halasz-Montgomery report, recorded with the per-character convex-hull
# sweep and the report that built every character before drawing ten
CHARSUM_DIGESTS = [
    (("charsum", "pv", "--q", "101"),
     "fe52e208ba851524d73ea5c82da31a4ec5545daa881fea435d829ec9bbe49a1a"),
    (("charsum", "pv", "--q", "307"),
     "8f13d3adf1e5f0ee176b2d7941a436314536db9e677d0b406a86fc4cbcc48d35"),
    (("charsum", "pv", "--q", "720"),
     "8c240deb59abf55d8adf9c8d0b92ecb1415305f44b65757c0eb1dc89c3e3ae38"),
    (("charsum", "halmon", "--q", "4001"),
     "7efc328633cf5271b4506a5e62f79a6d79940461264f67209f6dbdffb8878d44"),
    (("charsum", "halmon", "--q", "4001", "--seed", "7"),
     "7f1f932b8def11ec1dacc6a2d87e140e081248554a462ebf96d12dc157098747"),
]


@pytest.mark.parametrize("argv,digest", CHARSUM_DIGESTS)
def test_charsum_reports_are_unchanged(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", PRODUCT_SET_DIGESTS)
def test_product_set_reports_are_unchanged(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", DENSE_MODEL_DIGESTS)
def test_dense_model_reports_are_unchanged(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "factor", "--n", "9991", "--out", str(out_path))
    assert code == 0 and out == ""
    data = json.loads(out_path.read_text())
    assert data["result"]["factors"] == [[97, 1], [103, 1]]


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": "linnik-lab/1",
                               "rfunc": {"q": 3, "cap": 1000}}))
    # required flags may come entirely from the config file
    code, out, _ = run_cli(capsys, "--config", str(cfg), "rfunc")
    assert code == 0
    assert json.loads(out)["result"]["R"] == 14
    # flags on the command line win over the file
    code, out, _ = run_cli(capsys, "--config", str(cfg), "rfunc", "--q", "5")
    assert code == 0
    assert json.loads(out)["result"]["q"] == 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "other/9"}))
    code, _, err = run_cli(capsys, "--config", str(bad), "factor", "--n", "4")
    assert code == 2
    code, _, err = run_cli(capsys, "rfunc", "--q", "3")
    assert code == 1 and "--cap" in err


def test_bad_config_files_are_precondition_errors(tmp_path, capsys):
    def config(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def body(**sections):
        return json.dumps({"schema": "linnik-lab/1", **sections})

    cases = [
        (config("malformed.json", "{bad"), "rfunc"),
        (config("list.json", "[1, 2]"), "rfunc"),
        (config("defaults.json", body(defaults=[1])), "rfunc"),
        (config("section.json", body(rfunc=3)), "rfunc"),
        (str(tmp_path / "missing.json"), "rfunc"),
        # values of the wrong type for their flag, and a flag rfunc does not take
        (config("q.json", body(rfunc={"q": "abc", "cap": 100})), "rfunc"),
        (config("cap.json", body(rfunc={"q": 3, "cap": "x"})), "rfunc"),
        (config("bool.json", body(rfunc={"q": 3, "cap": True})), "rfunc"),
        (config("float.json", body(rfunc={"q": 3.5, "cap": 100})), "rfunc"),
        (config("h.json", body(rfunc={"q": 3, "cap": 100, "h": 3})), "rfunc"),
        (config("null.json", body(rfunc={"q": None, "cap": 100})), "rfunc"),
        (config("unknown.json", body(rfunc={"q": 3, "cap": 100, "qq": 5})), "rfunc"),
        (config("choice.json", body(batch={"what": "other"})), "batch"),
        (config("z.json", body(rough={"q": 35, "cap": 1000, "z": "inf"})), "rough"),
    ]
    for path, command in cases:
        code, out, err = run_cli(capsys, "--config", path, command)
        assert code == 2 and out == "" and "precondition" in err, (path, err)
        assert "Traceback" not in err, err


def test_config_values_pass_through_the_flag_types(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": "linnik-lab/1",
                               "defaults": {"h": "mobius", "kappa": 2.0},
                               "rough": {"q": "35", "cap": 1000, "z": "3"}}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "rough")
    assert code == 0, err
    params = json.loads(out)["params"]
    # a shared default that names no flag of rough is left out
    assert "h" not in params and "kappa" not in params
    assert (params["q"], params["cap"], params["z"]) == (35, 1000.0, 3.0)
    code, direct, _ = run_cli(capsys, "rough", "--q", "35", "--cap", "1000", "--z", "3")
    assert json.loads(direct) == json.loads(out)


def test_config_gives_the_common_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": "linnik-lab/1",
                               "charsum": {"seed": 5, "threads": 2}}))
    argv = ("charsum", "mvt", "--q", "101", "--N", "300")
    code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert code == 0, err
    report = json.loads(out)
    assert report["params"]["seed"] == 5 and report["params"]["threads"] == 2
    code, seeded, _ = run_cli(capsys, *argv, "--seed", "5")
    assert json.loads(seeded)["result"] == report["result"]
    # a flag on the command line wins, even at its default value, before or
    # after the command
    for given in ((*argv, "--seed", "0"), ("--seed", "0", *argv)):
        code, out, _ = run_cli(capsys, "--config", str(cfg), *given)
        assert code == 0 and json.loads(out)["params"]["seed"] == 0
    code, out, _ = run_cli(capsys, *argv)
    assert json.loads(out)["params"]["seed"] == 0


def test_out_to_a_missing_directory(tmp_path, capsys):
    code, out, err = run_cli(capsys, "factor", "--n", "12",
                             "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2 and out == "" and "precondition" in err and "Traceback" not in err, err


def test_charsum_draws_random_numbers_only_where_it_uses_them():
    # numpy.random (~20 ms to import) is loaded by the variants that draw
    code = ("import sys, contextlib, io, linnik_lab.cli as c\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    c.run(sys.argv[1:])\n"
            "print('numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    for variant, drawn in (("pv", False), ("large", False), ("amplify", False),
                           ("mvt", True)):
        out = subprocess.run([sys.executable, "-c", code, "charsum", variant, "--q", "101",
                              "--N", "100"], env=env, capture_output=True, text=True,
                             timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == str(drawn), variant


def test_more_subcommands_smoke(capsys):
    checks = [
        (("esets", "--q", "3", "--x", "14"), lambda d: d["result"]["both_full"]),
        (("distance", "--f", "liouville", "--g", "one", "--x", "10"),
         lambda d: abs(d["result"]["distance"] - 1.53375) < 1e-4),
        (("lofq", "--q", "4"), lambda d: abs(d["result"]["L"] - 3 / math.pi) < 1e-6),
        (("sieve", "--z", "30", "--D", "1000"), lambda d: d["result"]["max_abs"] <= 1),
        (("rough", "--q", "5", "--cap", "20", "--z", "2", "--psi", "0", "--b", "2"),
         lambda d: d["result"]["count"] == 8),
        (("kneser", "--q", "24", "--trials", "50"), lambda d: d["result"]["all_pass"]),
        (("triple", "--q", "101", "--trials", "5", "--seed", "1"),
         lambda d: sum(d["result"]["outcomes"].values()) == 5),
        (("ladder", "--Q1", "10", "--q", "101", "--overrides", "10:100", "--n", "77"),
         lambda d: d["result"]["in_S"] is True),
        (("ramare", "--q", "35", "--Q1", "10", "--M", "600", "--overrides", "10:100"),
         lambda d: d["result"]["identity_holds"]),
        (("charsum", "pv", "--q", "101"), lambda d: d["result"]["bound"] > 0),
        (("charsum", "large", "--q", "101", "--P", "500"),
         lambda d: d["result"]["lhs"] >= 0),
        (("charsum", "amplify", "--q", "101"), lambda d: d["result"]["lhs"] >= 0),
        (("charsum", "halmon", "--q", "101", "--N", "300"),
         lambda d: d["result"]["lhs"] >= 0),
        (("charsum", "moments", "--q", "35", "--N", "2000"),
         lambda d: d["result"]["squares"]["lhs"] >= 0),
        (("stcompare", "--q", "35", "--a", "1"), lambda d: d["result"]["lhs"] >= 0),
        (("stcompare", "--q", "35", "--variant", "general"),
         lambda d: d["result"]["extra"]["S"] > 0),
        (("audit", "--q", "3", "--Q1", "10"),
         lambda d: d["result"]["verdict"] in ("branch1", "both")),
        (("densemodel", "--q", "101", "--R", "101"),
         lambda d: d["result"]["models"]["plus"]["verify"]["asserted"]["ii"]),
        (("batch", "--qmin", "3", "--qmax", "8"),
         lambda d: len(d["result"]["table"]) == 6),
    ]
    for argv, check in checks:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert check(json.loads(out)), argv


def test_batch_csv(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "batch", "--qmin", "3",
                           "--qmax", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("q,")
    assert len(lines) == 5


def test_batch_threads_matches_serial(capsys):
    for args in (("--qmin", "3", "--qmax", "10"),
                 ("--h", "character:7:1", "--qmin", "3", "--qmax", "50"),
                 ("--what", "audit", "--h", "mobius", "--qmin", "3", "--qmax", "40")):
        serial = run_cli(capsys, "batch", *args)
        parallel = run_cli(capsys, "batch", *args, "--threads", "2")
        assert serial[0] == parallel[0] == 0, parallel[2]
        assert json.loads(serial[1])["result"] == json.loads(parallel[1])["result"]


def test_worker_count_is_clamped_to_the_cpus():
    cpus = os.cpu_count() or 1
    assert cli._worker_count(10**6) == cpus
    assert cli._worker_count(2) == min(2, cpus)
    assert cli._worker_count(0) == cli._worker_count(-3) == 1


def test_rfunc_character_vanishing_on_earlier_members(capsys):
    # chi_7 vanishes on 7 and 21, squarefree members of the classes 7 and 5 mod 8
    # below their witnesses 15, 31 and 29: no witness of either sign there
    code, out, err = run_cli(capsys, "rfunc", "--h", "character:7:1", "--q", "8",
                             "--cap", "1000")
    assert code == 0, err
    assert json.loads(out)["result"]["witnesses_verified"] is True


def test_transforms_past_the_dense_matrix_scale(capsys):
    # one phi x phi complex matrix at q = 20011 would take 6.4 GB
    for argv in (("charsum", "large", "--q", "20011"), ("densemodel", "--q", "20011")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


def test_cli_import_leaves_mpmath_out():
    # mpmath (~30 ms to import) is loaded only when an L(1, chi) is evaluated
    code = "import sys, linnik_lab.cli; print('mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_lofq_report_with_lazy_mpmath(capsys):
    code, out, err = run_cli(capsys, "lofq", "--q", "15", "--prime-cutoff", "100")
    assert code == 0, err
    res = json.loads(out)["result"]
    # the report as it was while mpmath was imported with multfunc
    assert res["L"] == 1.064583766044008
    assert [(r["character"], r["L1"], r["L1_euler_truncated"], r["value"])
            for r in res["per_character"]] == [
        ("chi[q=15;0,2]", 0.5738785879520054, 0.5832839683007696, 1.0382567773780822),
        ("chi[q=15;1,0]", 0.7255197456936872, 0.7382743368524755, 1.064583766044008),
        ("chi[q=15;1,2]", 1.6223114703894448, 1.6226704017398998, 0.9181857864666092)]
    # the odd character mod 15: L(1, chi_-15) = 2 pi / sqrt(15) (class number 2)
    assert res["per_character"][2]["L1"] == pytest.approx(2 * math.pi / math.sqrt(15),
                                                          rel=1e-12)
