"""Exit codes, determinism, and file formats of the batch front door."""

import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from apspec import construction, trigpoly
from apspec.cli import run
from apspec.frequency import ExactFrequency as EF
from apspec.serialize import dumps, load_path, trigpoly_to_json
from apspec.trigpoly import TrigPoly


def write_poly(path, terms):
    path.write_text(dumps(trigpoly_to_json(TrigPoly(terms))))
    return str(path)


@pytest.fixture
def f_2p2cos(tmp_path):
    return write_poly(tmp_path / "f.json", [(EF(-1), 1.0), (EF(0), 2.0), (EF(1), 1.0)])


@pytest.fixture
def f_3p2cos(tmp_path):
    return write_poly(tmp_path / "g.json", [(EF(-1), 1.0), (EF(0), 3.0), (EF(1), 1.0)])


def test_growth_table_stdout(capsys):
    assert run(["growth-table", "--n", "2,4"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "n,wiener_norm"
    assert float(lines[1].split(",")[1]) == pytest.approx(1 / (4 * math.log(2)), rel=1e-15)
    assert len(lines) == 3


def test_growth_table_rejects_bad_indices(tmp_path):
    assert run(["growth-table", "--n", "2,banana"]) == 1
    assert run(["growth-table", "--n", "1"]) == 1
    assert run(["growth-table", "--n", ""]) == 1


def test_factor_roots_and_verify(f_2p2cos, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert run(["factor", "--method", "roots", "--input", f_2p2cos, "--out", str(out)]) == 0
    bundle = load_path(str(out))
    assert bundle["kind"] == "factor" and bundle["method"] == "roots"
    assert bundle["report"]["residual_sup"] == 0.0
    assert all(c["passed"] for c in bundle["report"]["checks"])
    assert run(["verify", "--report", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "PASS residual" in printed and "FAIL" not in printed


def test_factor_roots_residual_tiny(f_2p2cos, tmp_path):
    out = tmp_path / "rep.json"
    run(["factor", "--method", "roots", "--input", f_2p2cos, "--out", str(out)])
    assert load_path(str(out))["report"]["residual_sup"] <= 1e-12


def test_factor_outputs_byte_identical(f_2p2cos, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["factor", "--method", "roots", "--input", f_2p2cos, "--out", str(a)])
    run(["factor", "--method", "roots", "--input", f_2p2cos, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_factor_csv_samples(f_2p2cos, tmp_path):
    out, csv_path = tmp_path / "rep.json", tmp_path / "s.csv"
    rc = run(
        ["factor", "--method", "roots", "--input", f_2p2cos, "--out", str(out),
         "--csv", str(csv_path), "--window-halfwidth", "3.14", "--step", "0.01"]
    )
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == round(2 * 3.14 / 0.01) + 2


def test_factor_rejects_negative(tmp_path):
    # 2 + 2cos - 0.1 dips below zero
    path = write_poly(tmp_path / "neg.json", [(EF(-1), 1.0), (EF(0), 1.9), (EF(1), 1.0)])
    assert run(["factor", "--method", "roots", "--input", path]) == 2


def test_factor_rejects_incommensurable(tmp_path):
    path = write_poly(
        tmp_path / "irr.json",
        [
            (EF(-1), 0.5),
            (EF.sqrt_of(2, -1), 0.5),
            (EF(0), 3.0),
            (EF.sqrt_of(2), 0.5),
            (EF(1), 0.5),
        ],
    )
    assert run(["factor", "--method", "roots", "--input", path]) == 2


def test_malformed_inputs_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run(["factor", "--method", "roots", "--input", str(bad)]) == 1
    assert run(["factor", "--method", "roots", "--input", str(tmp_path / "missing.json")]) == 1
    assert run(["factor", "--method", "warp", "--input", str(bad)]) == 1  # argparse remap
    assert run(["no-such-command"]) == 1
    assert run(["--help"]) == 0


def test_cepstral_flow(f_3p2cos, tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc = run(
        ["factor", "--method", "cepstral", "--input", f_3p2cos, "--m", "0.9",
         "--window-halfwidth", str(64 * math.pi), "--out", str(out)]
    )
    assert rc == 0
    bundle = load_path(str(out))
    assert bundle["m"] == 0.9
    assert bundle["report"]["factor"]["kind"] == "sampled"
    assert run(["verify", "--report", str(out)]) == 0
    capsys.readouterr()


def test_cepstral_requires_margin(f_2p2cos):
    # touches zero: no certificate at any positive m, and --m is mandatory
    assert run(["factor", "--method", "cepstral", "--input", f_2p2cos, "--m", "0.5"]) == 2
    assert run(["factor", "--method", "cepstral", "--input", f_2p2cos]) == 1


def test_zeros_flow(tmp_path, capsys):
    zs = tmp_path / "zs.json"
    zs.write_text(
        json.dumps(
            {
                "m": 0,
                "a": 0.0,
                "b": 0.0,
                "p": 0,
                "zeros": [
                    {"re": 0.0, "im": 1.0, "mult": 1},
                    {"re": 0.0, "im": -1.0, "mult": 1},
                ],
            }
        )
    )
    out = tmp_path / "rep.json"
    assert run(["factor", "--method", "zeros", "--input", str(zs), "--out", str(out)]) == 0
    bundle = load_path(str(out))
    assert bundle["report"]["residual_sup"] <= 1e-12
    assert run(["verify", "--report", str(out)]) == 0
    capsys.readouterr()


def test_zeros_real_zero_on_grid_point(tmp_path, capsys):
    # 2 + 2cos: double zeros at odd multiples of pi; the default [-pi, pi]
    # window starts exactly on the zero at -pi
    zeros = [{"re": (2 * k + 1) * math.pi, "im": 0.0, "mult": 2} for k in range(-20, 20)]
    zs = tmp_path / "cos.json"
    zs.write_text(json.dumps({"m": 0, "a": 0.0, "b": math.log(2.0), "p": 1, "zeros": zeros}))
    out = tmp_path / "rep.json"
    assert run(["factor", "--method", "zeros", "--input", str(zs), "--out", str(out)]) == 0
    factor = load_path(str(out))["report"]["factor"]
    values = factor["re"] + factor["im"]
    assert all(math.isfinite(v) for v in values)
    assert factor["re"][0] == 0.0 and factor["im"][0] == 0.0
    assert run(["verify", "--report", str(out)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "zero_set, message",
    [
        (
            {"b": 0.0, "zeros": [{"re": math.nan, "im": 1.0, "mult": 1}, {"re": math.nan, "im": -1.0, "mult": 1}]},
            "zero (nan+1j) is not finite",
        ),
        ({"b": 0.0, "zeros": [{"re": math.inf, "im": 0.0, "mult": 2}]}, "zero (inf+0j) is not finite"),
        (
            {"b": 0.0, "zeros": [{"re": 1e-320, "im": 1e-320, "mult": 1}, {"re": 1e-320, "im": -1e-320, "mult": 1}]},
            "zero (1e-320+1e-320j) is too close to the origin: 1/z overflows",
        ),
        ({"b": math.nan, "zeros": [{"re": 0.0, "im": 1.0, "mult": 1}, {"re": 0.0, "im": -1.0, "mult": 1}]},
         "a and b must be finite, got a=0.0, b=nan"),
    ],
)
def test_zeros_unrepresentable_input_refused(tmp_path, capsys, zero_set, message):
    zs = tmp_path / "zs.json"
    zs.write_text(json.dumps({"m": 0, "a": 0.0, "p": 0, **zero_set}))
    out = tmp_path / "rep.json"
    assert run(["factor", "--method", "zeros", "--input", str(zs), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _poly_with_constant(tmp_path, literal: str) -> str:
    # 3 + 2cos with the constant term replaced by a raw JSON literal
    path = tmp_path / "f.json"
    text = dumps(trigpoly_to_json(TrigPoly([(EF(-1), 1.0), (EF(0), 3.0), (EF(1), 1.0)])))
    path.write_text(text.replace('"re": 3.0', f'"re": {literal}'))
    return str(path)


@pytest.mark.parametrize(
    "literal, argv",
    [
        # before: exit 2, "NotBoundedBelow: could not certify f >= 0.5"
        ("NaN", ["factor", "--method", "cepstral", "--m", "0.5"]),
        # before: exit 2
        ("NaN", ["analyze", "--m", "0.5"]),
        # before: numpy RuntimeWarnings, then "conjugate needs a real-valued input"
        ("Infinity", ["factor", "--method", "cepstral", "--m", "0.5"]),
        # before: numpy's "Array must not contain infs or NaNs"
        ("NaN", ["factor", "--method", "roots"]),
        ("-Infinity", ["factor", "--method", "roots"]),
        ("1e400", ["factor", "--method", "cepstral", "--m", "0.5"]),
    ],
)
def test_nonfinite_coefficient_refused(tmp_path, capsys, literal, argv):
    path = _poly_with_constant(tmp_path, literal)
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--input", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: bad trig polynomial payload: coefficients must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
def test_verify_refuses_nonfinite_sample(f_3p2cos, tmp_path, capsys, literal):
    out = tmp_path / "rep.json"
    rc = run(
        ["factor", "--method", "cepstral", "--input", f_3p2cos, "--m", "0.9",
         "--window-halfwidth", str(16 * math.pi), "--out", str(out)]
    )
    assert rc == 0
    bundle = load_path(str(out))
    bundle["report"]["factor"]["im"][3] = 7777777.25
    text = json.dumps(bundle)
    assert text.count("7777777.25") == 1
    out.write_text(text.replace("7777777.25", literal))
    capsys.readouterr()
    assert run(["verify", "--report", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: bad sample payload: samples, halfwidth and step must be finite\n"
    )


def test_verify_prints_failed_check_detail(tmp_path, capsys):
    zs = tmp_path / "zs.json"
    zeros = [{"re": 0.0, "im": 1.0, "mult": 1}, {"re": 0.0, "im": -1.0, "mult": 1}]
    zs.write_text(json.dumps({"m": 0, "a": 0.0, "b": 0.0, "p": 0, "zeros": zeros}))
    out = tmp_path / "rep.json"
    assert run(["factor", "--method", "zeros", "--input", str(zs), "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", "--report", str(out)]) == 0
    passed = capsys.readouterr().out.splitlines()
    assert all(line.startswith("PASS ") and " -- " not in line for line in passed)
    bundle = load_path(str(out))
    bundle["report"]["factor"]["re"][7] += 1e-3
    out.write_text(dumps(bundle))
    assert run(["verify", "--report", str(out)]) == 3
    lines = capsys.readouterr().out.splitlines()
    (failed,) = [line for line in lines if line.startswith("FAIL ")]
    assert failed.startswith("FAIL deterministic_replay value=")
    assert failed.endswith(" -- stored samples vs recomputed factor")
    assert [line for line in lines if line.startswith("PASS ")] == passed[:-1]


def test_verify_flags_tampering(f_2p2cos, tmp_path, capsys):
    out = tmp_path / "rep.json"
    run(["factor", "--method", "roots", "--input", f_2p2cos, "--out", str(out)])
    bundle = load_path(str(out))
    bundle["report"]["factor"]["terms"][0]["re"] += 0.05
    out.write_text(dumps(bundle))
    assert run(["verify", "--report", str(out)]) == 3
    assert "FAIL residual" in capsys.readouterr().out


def test_verify_bare_report_uses_stored_flags(f_2p2cos, tmp_path, capsys):
    out = tmp_path / "rep.json"
    run(["factor", "--method", "roots", "--input", f_2p2cos, "--out", str(out)])
    report = load_path(str(out))["report"]
    bare = tmp_path / "bare.json"
    bare.write_text(dumps(report))
    assert run(["verify", "--report", str(bare)]) == 0
    report["checks"][0]["passed"] = False
    bare.write_text(dumps(report))
    assert run(["verify", "--report", str(bare)]) == 3
    capsys.readouterr()


def test_construct_then_verify_small(tmp_path, capsys):
    out = tmp_path / "cons.json"
    rc = run(["construct", "--m", "1", "--blocks", "1", "--oracle-n", "128", "--out", str(out)])
    assert rc == 0
    bundle = load_path(str(out))
    assert bundle["kind"] == "construction"
    # f is never written out, only its pair-count marker
    assert bundle["f"]["omitted"] is True
    assert bundle["f"]["pairs"] == 249
    assert run(["verify", "--report", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "PASS exact_factorization" in printed
    # determinism of the construction bundle
    out2 = tmp_path / "cons2.json"
    run(["construct", "--m", "1", "--blocks", "1", "--oracle-n", "128", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_construct_verify_catches_corruption(tmp_path, capsys):
    out = tmp_path / "cons.json"
    run(["construct", "--m", "1", "--blocks", "1", "--oracle-n", "128", "--out", str(out)])
    bundle = load_path(str(out))
    bundle["s"]["terms"][3]["im"] += 1e-3
    out.write_text(dumps(bundle))
    assert run(["verify", "--report", str(out)]) == 3
    capsys.readouterr()


def test_construct_verify_refuses_tampered_rho(tmp_path, capsys):
    out = tmp_path / "cons.json"
    run(["construct", "--m", "1", "--blocks", "1", "--oracle-n", "128", "--out", str(out)])
    bundle = load_path(str(out))
    rad = bundle["rho"][0]["rad"]
    assert rad[0][0] == "2"
    rad[0][0] = "5"  # sqrt(5) in place of sqrt(2): s no longer fits rho * Z
    out.write_text(dumps(bundle))
    assert run(["verify", "--report", str(out)]) == 2
    assert "SpectraCollision" in capsys.readouterr().err


def _shift_rat(freq: dict, by: Fraction) -> None:
    freq["rat"] = str(Fraction(freq["rat"]) + by)


@pytest.mark.parametrize("tamper", ["delta", "s"])
def test_construct_verify_refuses_off_lattice_factor(tmp_path, capsys, monkeypatch, tamper):
    # a spectrum off rho * Z does not fit the stored rho: verify refuses the
    # bundle with SpectraCollision before any product is built
    out = tmp_path / "cons.json"
    run(["construct", "--m", "1", "--blocks", "2", "--oracle-n", "256", "--out", str(out)])
    bundle = load_path(str(out))
    if tamper == "delta":
        _shift_rat(bundle["delta"], Fraction(1, 7))
    else:
        for term in bundle["s"]["terms"]:
            _shift_rat(term["freq"], Fraction(1, 7))
    out.write_text(dumps(bundle))
    built = []
    real_product = construction.ProductPoly
    monkeypatch.setattr(construction, "ProductPoly", lambda h: built.append(h) or real_product(h))
    assert run(["verify", "--report", str(out)]) == 2
    assert "SpectraCollision" in capsys.readouterr().err
    assert built == []


def test_construct_and_verify_build_one_product_each(tmp_path, capsys, monkeypatch):
    # exact_factorization reads s against f's factor, so it builds no product of its own
    out = tmp_path / "cons.json"
    built = []
    real_product = construction.ProductPoly
    monkeypatch.setattr(construction, "ProductPoly", lambda h: built.append(h) or real_product(h))
    assert run(["construct", "--m", "1", "--blocks", "2", "--oracle-n", "64", "--out", str(out)]) == 0
    assert len(built) == 1
    assert run(["verify", "--report", str(out)]) == 0
    assert "PASS exact_factorization" in capsys.readouterr().out
    assert len(built) == 2


def _count_partitions(monkeypatch) -> list:
    calls = []
    real = trigpoly._partition
    monkeypatch.setattr(trigpoly, "_partition", lambda f: calls.append(f) or real(f))
    return calls


def test_roots_factor_partitions_f_and_s_once_each(f_2p2cos, tmp_path, monkeypatch):
    # the sup certificates, the Bernstein checks, the residual's product and
    # commensurable_base all read the one split kept on f or s
    calls = _count_partitions(monkeypatch)
    assert run(["factor", "--method", "roots", "--input", f_2p2cos, "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 2


def test_construction_verify_partitions_once(tmp_path, capsys, monkeypatch):
    # _check_rays and the rebuilt ProductPoly share the split of the centred h
    out = tmp_path / "cons.json"
    assert run(["construct", "--m", "1", "--blocks", "2", "--oracle-n", "256", "--out", str(out)]) == 0
    calls = _count_partitions(monkeypatch)
    assert run(["verify", "--report", str(out)]) == 0
    assert len(calls) == 1


def test_tampered_construction_fails_its_checks(tmp_path, capsys):
    # a changed coefficient of s is a failed check, not a crash: every check prints
    out = tmp_path / "cons.json"
    assert run(["construct", "--m", "1", "--blocks", "2", "--oracle-n", "1024", "--out", str(out)]) == 0
    bundle = load_path(str(out))
    bundle["s"]["terms"][3]["re"] += 1e-3
    out.write_text(dumps(bundle))
    capsys.readouterr()
    assert run(["verify", "--report", str(out)]) == 3
    printed = capsys.readouterr().out
    assert "FAIL modulation_consistent" in printed
    assert "FAIL exact_factorization" in printed
    names = [line.split()[1] for line in printed.splitlines()]
    assert names == [
        "delta_matches_spectrum", "modulation_consistent", "analytic_spectrum", "halved_bandwidth",
        "exact_factorization", "lower_bound_certified", "halfplane_real_part",
    ]


def test_huge_radicand_refused(tmp_path, capsys):
    # trial division of a 31-digit radicand would not finish
    big = str(10**30 + 57)
    inp = tmp_path / "big.json"
    inp.write_text(json.dumps({"terms": [
        {"freq": {"rat": "0", "rad": [[big, "1"]]}, "re": 1.0, "im": 0.0},
        {"freq": {"rat": "0", "rad": []}, "re": 3.0, "im": 0.0},
    ]}))
    assert run(["factor", "--method", "roots", "--input", str(inp)]) == 1
    assert run(["construct", "--blocks", "1", "--oracle-n", "32", "--primes", f"2,{big}"]) == 1
    assert "exceeds" in capsys.readouterr().err


def test_cepstral_grid_too_large_refused(f_3p2cos, capsys):
    argv = ["factor", "--method", "cepstral", "--input", f_3p2cos, "--m", "0.9"]
    assert run(argv + ["--step", "1e-9"]) == 1
    assert run(argv + ["--window-halfwidth", "inf"]) == 1
    assert "samples" in capsys.readouterr().err


def test_sample_grid_too_large_refused(f_2p2cos, tmp_path, capsys):
    csv = str(tmp_path / "s.csv")
    out = str(tmp_path / "rep.json")
    argv = ["factor", "--method", "roots", "--input", f_2p2cos, "--out", out, "--csv", csv]
    assert run(argv + ["--step", "1e-9"]) == 1
    zs = tmp_path / "zs.json"
    zeros = [{"re": 0.0, "im": 1.0, "mult": 1}, {"re": 0.0, "im": -1.0, "mult": 1}]
    zs.write_text(json.dumps({"m": 0, "a": 0.0, "b": 0.0, "p": 0, "zeros": zeros}))
    assert run(["factor", "--method", "zeros", "--input", str(zs), "--step", "1e-9"]) == 1
    assert "samples" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [["--step", "1e-9"], ["--window-halfwidth", "1", "--step", "1e-6"]])
def test_refused_csv_leaves_no_bundle(f_2p2cos, tmp_path, capsys, grid):
    # a grid over the span cap, or over the CSV row cap without --allow-large
    out, csv = tmp_path / "rep.json", tmp_path / "s.csv"
    argv = ["factor", "--method", "roots", "--input", f_2p2cos, "--out", str(out), "--csv", str(csv)]
    assert run(argv + grid) == 1
    assert not out.exists() and not csv.exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        # before: exit 2, "NotBoundedBelow: could not certify f >= nan"
        ["factor", "--method", "cepstral", "--input", "F", "--m", "nan"],
        ["factor", "--method", "cepstral", "--input", "F", "--m", "inf"],
        # before: the whole half-log and scan ran, then exit 1 inside dumps
        ["analyze", "--input", "F", "--m", "0.9", "--eps", "nan"],
        # before: "grid of nan steps exceeds 8388608 samples"
        ["factor", "--method", "cepstral", "--input", "F", "--m", "0.9", "--window-halfwidth", "nan"],
        ["factor", "--method", "cepstral", "--input", "F", "--m", "0.9", "--step", "nan"],
        ["analyze", "--input", "F", "--m", "0.9", "--window-halfwidth", "1e400"],
        ["factor", "--method", "roots", "--input", "F", "--csv", "S", "--step=-inf"],
        # before: the full pipeline ran with numpy RuntimeWarnings, then exit 1 inside dumps
        ["construct", "--m", "inf", "--blocks", "1", "--oracle-n", "32"],
    ],
)
def test_nonfinite_float_flag_refused(f_3p2cos, tmp_path, capsys, argv):
    out, csv = tmp_path / "out.json", tmp_path / "s.csv"
    argv = [{"F": f_3p2cos, "S": str(csv)}.get(a, a) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--out", str(out)]) == 1
    assert "must be a finite number" in capsys.readouterr().err
    assert not out.exists() and not csv.exists()


def test_construct_rejects_bad_params():
    assert run(["construct", "--m", "-1"]) == 1
    assert run(["construct", "--blocks", "0"]) == 1
    assert run(["construct", "--oracle-n", "4", "--blocks", "5"]) == 2  # OracleTooSmall


def test_analyze_flow(f_3p2cos, tmp_path):
    out = tmp_path / "an.json"
    rc = run(
        ["analyze", "--input", f_3p2cos, "--m", "0.9", "--eps", "0.5",
         "--window-halfwidth", str(16 * math.pi), "--out", str(out)]
    )
    assert rc == 0
    obj = load_path(str(out))
    assert obj["kind"] == "analysis"
    # 3+2cos is already positive and periodic: slope ~ 0, verdict dense
    assert abs(obj["arg_slope"]) <= 1e-2
    assert obj["verdict"] is True
    assert obj["epsilon_period_count"] >= 1


def test_analyze_rejects_bad_flags(f_3p2cos, f_2p2cos):
    assert run(["analyze", "--input", f_3p2cos, "--m", "-2"]) == 1
    assert run(["analyze", "--input", f_3p2cos, "--m", "0.9", "--eps", "0"]) == 1
    assert run(["analyze", "--input", f_2p2cos, "--m", "0.5"]) == 2


def test_cli_import_skips_scipy_integrate():
    # only quadrature-mode checks need scipy.integrate, and importing it is most of start-up
    code = "import sys, apspec.cli; sys.exit(int('scipy.integrate' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "apspec.cli", "growth-table", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,wiener_norm")


def test_python_dash_m_apspec_help():
    proc = subprocess.run([sys.executable, "-m", "apspec", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: apspec")


def test_construct_exits_3_when_its_own_battery_fails(tmp_path, capsys):
    # the lift sqrt(m) + sum U_j rounds to sqrt(m) = 1e154, so the certified
    # lower bound f >= m fails on the instance construct just built
    out = tmp_path / "cons.json"
    rc = run(["construct", "--m", "1e308", "--blocks", "1", "--oracle-n", "32", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert "lower_bound_certified" in capsys.readouterr().err
