"""Exit codes, determinism, and file formats of the batch front door."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from apspec import cli, construction, trigpoly
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


def test_factor_exits_3_when_its_own_checks_fail(tmp_path, capsys):
    # |S|^2 with 40 zeros at modulus 1.01: the cepstrum decays too slowly for
    # the FFT kernel, and the Laurent roots miss the residual bound
    rng = np.random.default_rng(3)
    zeros = 1.01 * np.exp(2j * np.pi * (np.arange(40) + rng.uniform(0.15, 0.85, 40)) / 40)
    c = np.poly(zeros)[::-1]
    c = c / np.max(np.abs(c))
    terms = [(EF(0), float(np.sum(np.abs(c) ** 2)))]
    for k in range(1, 41):
        fk = complex(np.sum(c[k:] * np.conj(c[: 41 - k])))
        terms += [(EF(k), fk), (EF(-k), fk.conjugate())]
    inp = write_poly(tmp_path / "f40.json", terms)
    out, csv_out = tmp_path / "rep.json", tmp_path / "s.csv"
    argv = ["factor", "--method", "roots", "--input", inp, "--out", str(out), "--csv", str(csv_out)]
    assert run(argv) == 3
    assert not out.exists() and not csv_out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: factorization failed its own checks: residual\n"


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
    assert bundle["f"]["pairs"] == 245
    assert run(["verify", "--report", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "PASS exact_factorization" in printed
    # determinism of the construction bundle
    out2 = tmp_path / "cons2.json"
    run(["construct", "--m", "1", "--blocks", "1", "--oracle-n", "128", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def _shift_rat(freq: dict, by: Fraction) -> None:
    freq["rat"] = str(Fraction(freq["rat"]) + by)


def _record_products(monkeypatch) -> list:
    built = []
    real_product = construction.ProductPoly
    monkeypatch.setattr(construction, "ProductPoly", lambda h: built.append(h) or real_product(h))
    return built


def test_construct_and_verify_build_one_product_each(tmp_path, capsys, monkeypatch):
    # exact_factorization reads s against f's factor, so it builds no product of its own
    out = tmp_path / "cons.json"
    built = _record_products(monkeypatch)
    assert run(["construct", "--m", "1", "--blocks", "2", "--oracle-n", "64", "--out", str(out)]) == 0
    assert len(built) == 1
    assert run(["verify", "--report", str(out)]) == 0
    assert "PASS exact_factorization" in capsys.readouterr().out
    assert len(built) == 2


def test_construction_runs_no_autocorrelation(tmp_path, capsys, monkeypatch):
    # f is never materialized: construct counts the bundle's "pairs" from
    # the keys, verify reads f only through its factor, and neither forms a product
    calls = []
    for name in ("_convolve_rays", "_outer_rays"):
        real = getattr(trigpoly, name)
        monkeypatch.setattr(trigpoly, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    out = tmp_path / "cons.json"
    assert run(["construct", "--m", "1", "--blocks", "2", "--oracle-n", "64", "--out", str(out)]) == 0
    assert calls == []
    assert run(["verify", "--report", str(out)]) == 0
    assert calls == []
    capsys.readouterr()


def _count_partitions(monkeypatch) -> list:
    """The polynomials grouped by ray (`TrigPoly.from_coordinates`: the JSON reader and `ray_partition`)."""
    calls = []
    real = TrigPoly.from_coordinates.__func__

    def recorded(cls, items):
        calls.append(real(cls, items))
        return calls[-1]

    monkeypatch.setattr(TrigPoly, "from_coordinates", classmethod(recorded))
    return calls


def test_roots_factor_partitions_f_and_s_once_each(f_2p2cos, tmp_path, monkeypatch):
    # the sup certificates, the Bernstein checks, the residual's product and
    # commensurable_base all read the one split kept on f or s; factor builds
    # s by its ray, so it splits f alone, and verify splits the stored f and s
    calls = _count_partitions(monkeypatch)
    out = tmp_path / "r.json"
    assert run(["factor", "--method", "roots", "--input", f_2p2cos, "--out", str(out)]) == 0
    assert [p.term_count() for p in calls] == [3]
    calls.clear()
    assert run(["verify", "--report", str(out)]) == 0
    assert sorted(p.term_count() for p in calls) == [2, 3]


def test_construction_verify_partitions_once(tmp_path, capsys, monkeypatch):
    # the bundle stores s by ray, so construct and verify partition nothing
    out = tmp_path / "cons.json"
    calls = _count_partitions(monkeypatch)
    assert run(["construct", "--m", "1", "--blocks", "2", "--oracle-n", "256", "--out", str(out)]) == 0
    assert run(["verify", "--report", str(out)]) == 0
    assert calls == []
    capsys.readouterr()


# the checks verify prints for a construction bundle, in order; construct's
# own battery is the last five
FORMAT3_CHECKS = [
    "delta_matches_spectrum", "factor_rebuilt", "analytic_spectrum", "halved_bandwidth",
    "exact_factorization", "lower_bound_certified", "halfplane_real_part",
]


# -- format 3: s stored once, by ray ------------------------------------------------


@pytest.fixture(scope="module")
def format3_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("f3") / "cons.json"
    assert run(["construct", "--m", "1", "--blocks", "2", "--oracle-n", "256", "--out", str(out)]) == 0
    return load_path(str(out))


def _verify_bundle(tmp_path, bundle) -> int:
    out = tmp_path / "tampered.json"
    out.write_text(dumps(bundle))
    return run(["verify", "--report", str(out)])


def test_format3_bundle_keeps_s_once(format3_bundle, capsys):
    b = format3_bundle
    assert b["format"] == 3 and b["kind"] == "construction"
    assert not {"g", "h1", "h", "certificates"} & set(b)
    assert len(b["s"]) == len(b["rho"]) == len(b["n_seq"]) - 1 == 2
    assert [c["name"] for c in b["checks"]] == FORMAT3_CHECKS[2:]
    # ray j: keys of the block's lattice rho_j * Z, c merged at the lowest key of one ray
    for ray, n_hi in zip(b["s"], (b["n_seq"][0], b["n_seq"][2])):
        assert ray["keys"] == list(range(-n_hi, -1)) + list(range(2, n_hi + 1))
        assert len(ray["re"]) == len(ray["im"]) == len(ray["keys"])
    assert sorted(x for ray in b["s"] for x in ray["re"] if x != 0.0) == [b["c"]]
    capsys.readouterr()


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("ray", [0, 1])
def test_format3_tampered_coefficient_fails_its_checks(format3_bundle, tmp_path, capsys, ray, part):
    # a changed coefficient of s, in either ray and either part, is a failed
    # check, not a crash: every check prints
    bundle = json.loads(json.dumps(format3_bundle))
    bundle["s"][ray][part][3] += 1e-3
    capsys.readouterr()
    assert _verify_bundle(tmp_path, bundle) == 3
    printed = capsys.readouterr().out
    assert [line.split()[1] for line in printed.splitlines()] == FORMAT3_CHECKS
    assert "FAIL factor_rebuilt" in printed
    assert "FAIL exact_factorization" in printed


def test_format3_commensurable_rho_refused_before_any_product(format3_bundle, tmp_path, capsys, monkeypatch):
    bundle = json.loads(json.dumps(format3_bundle))
    assert bundle["rho"][1]["rad"][0][0] == "3"
    bundle["rho"][1]["rad"][0][0] = "2"  # both rays on sqrt(2) * Q: their spectra could collide
    built = _record_products(monkeypatch)
    assert _verify_bundle(tmp_path, bundle) == 2
    assert "SpectraCollision" in capsys.readouterr().err
    assert built == []


def test_format3_changed_delta_fails_delta_matches_spectrum(format3_bundle, tmp_path, capsys):
    bundle = json.loads(json.dumps(format3_bundle))
    _shift_rat(bundle["delta"], Fraction(1, 7))
    capsys.readouterr()
    assert _verify_bundle(tmp_path, bundle) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == FORMAT3_CHECKS
    assert lines[0].startswith("FAIL delta_matches_spectrum")


def test_construct_verify_refuses_tampered_rho(format3_bundle, tmp_path, capsys, monkeypatch):
    # sqrt(5) in place of sqrt(2): the rays stay incommensurable, so verify
    # rebuilds the instance and the rebuilt rho differs from the stored one
    bundle = json.loads(json.dumps(format3_bundle))
    rad = bundle["rho"][0]["rad"]
    assert rad[0][0] == "2"
    rad[0][0] = "5"
    capsys.readouterr()
    assert _verify_bundle(tmp_path, bundle) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == FORMAT3_CHECKS
    assert lines[1].startswith("FAIL factor_rebuilt value=0.0 -- ")


def test_verify_names_the_lift_bound_when_it_fails(format3_bundle, tmp_path, capsys):
    # lower the stored c, and the lift in s, by sum U_j: lower_bound_certified
    # reads the stored c against the rebuilt B_j, so c - sum_j B_j < sqrt(m)
    def lower_lift(b):
        drop = math.fsum(b["q_norms"])
        ray = next(r for r in b["s"] if b["c"] in r["re"])
        ray["re"][ray["re"].index(b["c"])] -= drop
        b["c"] -= drop

    assert _verify_bundle(tmp_path, _edited(format3_bundle, lower_lift)) == 3
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    lift = next(line for line in fails if "lower_bound_certified" in line)
    assert lift.startswith("FAIL lower_bound_certified value=1.0 -- f = |u|^2, |u| >= bound = ")
    assert "on R; bound^2 - m = -" in lift


def _set_format(b, v):
    b["format"] = v


@pytest.mark.parametrize(
    "tamper",
    [
        lambda b: b["s"][0]["keys"].__setitem__(0, b["s"][0]["keys"][0] - 0.5),
        lambda b: b["s"][0]["keys"].__setitem__(0, True),
        lambda b: b["s"][0]["keys"].__setitem__(0, 10**30),
        lambda b: b["s"][0]["keys"].__setitem__(0, 0),
        lambda b: b["s"][1]["re"].__setitem__(5, math.nan),
        lambda b: b["s"][1]["im"].__setitem__(5, math.inf),
        lambda b: b["s"][0]["re"].pop(),
        lambda b: b["s"][0]["keys"].reverse(),
        lambda b: b["n_seq"].__setitem__(1, b["n_seq"][0]),
        lambda b: b["n_seq"].__setitem__(0, 1),
        lambda b: b["n_seq"].append(b["n_seq"][-1] + 5),
        lambda b: b["n_seq"].__setitem__(2, b["n_seq"][2] + 5),
        lambda b: b["s"].pop(),
        lambda b: b["rho"].pop(),
        lambda b: b["rho"][0]["rad"][0].__setitem__(1, "-1/100"),
        lambda b: b.pop("s"),
        lambda b: _set_format(b, 4),
        lambda b: _set_format(b, "2"),
        lambda b: _set_format(b, 2.0),
        # formats 1 (no "format" key) and 2, which older versions wrote, are refused
        lambda b: b.pop("format"),
        lambda b: _set_format(b, 1),
        lambda b: _set_format(b, 2),
    ],
)
def test_format3_malformed_bundle_exits_1(format3_bundle, tmp_path, capsys, tamper):
    bundle = json.loads(json.dumps(format3_bundle))
    tamper(bundle)
    out = tmp_path / "bad.json"
    # json writes NaN and Infinity literals, which the reader must refuse
    out.write_text(json.dumps(bundle))
    assert run(["verify", "--report", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    fmt = bundle.get("format", 1)
    if type(fmt) is int and fmt < 3:
        assert f"construction format {fmt} is no longer read; rebuild the bundle with `apspec construct`" in captured.err


def _format1_shape(b):
    # format 1 had no "format" key and stored g, h1, h and s term by term
    del b["format"]
    s = TrigPoly([(EF(2), 0.5), (EF(-2), 0.5j)])
    b.update({name: trigpoly_to_json(s) for name in ("g", "h1", "h", "s")})


def _keep_only(b, *keys):
    for k in set(b) - set(keys):
        del b[k]


@pytest.mark.parametrize(
    "shape",
    [
        _format1_shape,
        lambda b: _set_format(b, 2),
        # the refusal reads the format alone: the rest of the payload is never read
        lambda b: _keep_only(b, "kind"),
        lambda b: (_keep_only(b, "kind"), _set_format(b, 2)),
    ],
    ids=["format1", "format2", "format1_bare", "format2_bare"],
)
def test_retired_format_refused_before_any_rebuild(format3_bundle, tmp_path, capsys, monkeypatch, shape):
    bundle = _edited(format3_bundle, shape)
    fmt = bundle.get("format", 1)
    built, partitions = _record_products(monkeypatch), _count_partitions(monkeypatch)
    capsys.readouterr()
    assert _verify_bundle(tmp_path, bundle) == 1
    assert built == [] and partitions == []
    assert capsys.readouterr() == (
        "", f"error: construction format {fmt} is no longer read; rebuild the bundle with `apspec construct`\n"
    )


# -- stored numbers: verify rebuilds the instance from params and n_seq ---------------


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    """The (1, 32) instance, as construct writes it."""
    out = tmp_path_factory.mktemp("small") / "cons.json"
    assert run(["construct", "--m", "1", "--blocks", "1", "--oracle-n", "32", "--out", str(out)]) == 0
    return load_path(str(out))


@pytest.fixture(scope="module", params=["small_bundle", "format3_bundle"], ids=["blocks1", "blocks2"])
def any_bundle(request):
    """The (1, 32) instance and the two-block (1, 256) one, as construct writes them."""
    return request.getfixturevalue(request.param)


def _halve_rho(b):
    # rho_1/2 still puts every frequency of s on rho_1 * Z, so no SpectraCollision
    rad = b["rho"][0]["rad"][0]
    rad[1] = str(Fraction(rad[1]) / 2)


STORED_EDITS = {
    "rho": _halve_rho,
    "q_norms": lambda b: b["q_norms"].__setitem__(0, 123.0),
    "wiener_norms": lambda b: b["wiener_norms"].__setitem__(0, 0.5),
    "c": lambda b: b.__setitem__("c", b["c"] + 1e-9),
    "primes": lambda b: b["params"].__setitem__("primes", [97, 101][: b["params"]["blocks"]]),
}


def _edited(bundle: dict, *edits) -> dict:
    b = json.loads(json.dumps(bundle))
    for edit in edits:
        edit(b)
    return b


def test_edited_norms_and_primes_fail_the_rebuild(any_bundle, tmp_path, capsys):
    # these three edits together once verified all PASS with exit 0
    bundle = _edited(any_bundle, *(STORED_EDITS[k] for k in ("q_norms", "wiener_norms", "primes")))
    capsys.readouterr()
    assert _verify_bundle(tmp_path, bundle) == 3
    assert "FAIL factor_rebuilt" in capsys.readouterr().out


@pytest.mark.parametrize("field", sorted(STORED_EDITS))
def test_stored_number_edited_alone_fails_the_rebuild(any_bundle, tmp_path, capsys, field):
    capsys.readouterr()
    assert _verify_bundle(tmp_path, any_bundle) == 0
    capsys.readouterr()
    assert _verify_bundle(tmp_path, _edited(any_bundle, STORED_EDITS[field])) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert lines[1].startswith("FAIL factor_rebuilt value=0.0 -- ")


@pytest.mark.parametrize(
    "edit",
    [
        lambda b: b["params"].__setitem__("oracle_n", 7),
        lambda b: b["params"].__setitem__("oracle_n", b["n_seq"][-1] - 1),
        lambda b: b["params"].__setitem__("blocks", 2),
        lambda b: b["params"].__setitem__("blocks", 0),
        lambda b: b["params"].__setitem__("primes", [10**30 + 57]),
        lambda b: b["params"].__setitem__("m", -1.0),
    ],
    ids=["oracle_n_7", "oracle_n_below_n_seq", "blocks_2", "blocks_0", "huge_prime", "negative_m"],
)
def test_params_that_do_not_fit_n_seq_exit_1(small_bundle, tmp_path, capsys, edit):
    # n_seq makes one block; construct would refuse the last three params
    assert _verify_bundle(tmp_path, _edited(small_bundle, edit)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_format3_n_seq_that_misses_the_ray_length_exits_1_at_once(small_bundle, tmp_path, capsys):
    # the ray holds 38 keys; n_seq [2, 10^9] gives its one block 2, and is refused before any rebuild
    bundle = _edited(small_bundle, lambda b: b.__setitem__("n_seq", [2, 10**9]))
    bundle["params"]["oracle_n"] = 10**9
    start = time.perf_counter()
    assert _verify_bundle(tmp_path, bundle) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: bad construction payload: n_seq needs 1 rho and rays of s of [2] keys\n"
    )


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


_ONE = '"re": 1.0, "im": 0.0'
_BIG_KEYS = '{"terms": [%s, {"freq": {"rat": "0", "rad": []}, "re": 3.0, "im": 0.0}]}' % ", ".join(
    '{"freq": {"rat": "%d", "rad": []}, %s}' % (k, _ONE) for k in (-(10**30), -1, 1, 10**30)
)
# each malformed polynomial payload, with the line `factor` prints and its exit code
POLY_REFUSALS = [
    ('{"terms": [{%s}]}' % _ONE, "bad trig polynomial payload: 'freq'"),
    (
        '{"terms": [{"freq": {"rat": "x", "rad": []}, %s}]}' % _ONE,
        "bad trig polynomial payload: malformed frequency object: {'rat': 'x', 'rad': []}",
    ),
    (
        '{"terms": [{"freq": {"rat": "0", "rad": [["2"]]}, %s}]}' % _ONE,
        "bad trig polynomial payload: malformed frequency object: {'rat': '0', 'rad': [['2']]}",
    ),
    (
        '{"terms": [{"freq": {"rat": "0", "rad": [["2", "1", "3"]]}, %s}]}' % _ONE,
        "bad trig polynomial payload: malformed frequency object: {'rat': '0', 'rad': [['2', '1', '3']]}",
    ),
    ('{"terms": [{"freq": {"rat": "0", "rad": [["1000001", "1"]]}, %s}]}' % _ONE, "radicand 1000001 exceeds 1000000"),
    (
        '{"terms": [{"freq": {"rat": "0", "rad": [["-2", "1"]]}, %s}]}' % _ONE,
        "bad trig polynomial payload: radicand must be positive, got -2",
    ),
    (
        '{"terms": [{"freq": {"rat": "0", "rad": []}, "re": 1e400, "im": 0.0}]}',
        "bad trig polynomial payload: coefficients must be finite",
    ),
    (
        '{"terms": [{"freq": {"rat": "0", "rad": []}, "re": 1.0, "im": NaN}]}',
        "bad trig polynomial payload: coefficients must be finite",
    ),
    # a malformed term after a NaN one: the parse error comes first
    (
        '{"terms": [{"freq": {"rat": "0", "rad": []}, "re": NaN, "im": 0.0}, {"freq": {"rat": "x"}, %s}]}' % _ONE,
        "bad trig polynomial payload: malformed frequency object: {'rat': 'x'}",
    ),
    ('{"terms": 5}', "bad trig polynomial payload: 'int' object is not iterable"),
    ('{"terms": null}', "bad trig polynomial payload: 'NoneType' object is not iterable"),
    # non-finite frequency coordinates, as json reads Infinity, NaN and 1e400
    (
        '{"terms": [{"freq": {"rat": Infinity, "rad": []}, %s}]}' % _ONE,
        "bad trig polynomial payload: malformed frequency object: {'rat': inf, 'rad': []}",
    ),
    (
        '{"terms": [{"freq": {"rat": -Infinity, "rad": []}, %s}]}' % _ONE,
        "bad trig polynomial payload: malformed frequency object: {'rat': -inf, 'rad': []}",
    ),
    (
        '{"terms": [{"freq": {"rat": 1e400, "rad": []}, %s}]}' % _ONE,
        "bad trig polynomial payload: malformed frequency object: {'rat': inf, 'rad': []}",
    ),
    (
        '{"terms": [{"freq": {"rat": NaN, "rad": []}, %s}]}' % _ONE,
        "bad trig polynomial payload: malformed frequency object: {'rat': nan, 'rad': []}",
    ),
    (
        '{"terms": [{"freq": {"rat": "0", "rad": [[Infinity, "1"]]}, %s}]}' % _ONE,
        "bad trig polynomial payload: malformed frequency object: {'rat': '0', 'rad': [[inf, '1']]}",
    ),
    (
        '{"terms": [{"freq": {"rat": "0", "rad": [[NaN, "1"]]}, %s}]}' % _ONE,
        "bad trig polynomial payload: malformed frequency object: {'rat': '0', 'rad': [[nan, '1']]}",
    ),
    (
        '{"terms": [{"freq": {"rat": "0", "rad": [["2", -Infinity]]}, %s}]}' % _ONE,
        "bad trig polynomial payload: malformed frequency object: {'rat': '0', 'rad': [['2', -inf]]}",
    ),
    (
        '{"terms": [{"freq": {"rat": "0", "rad": [["2", NaN]]}, %s}]}' % _ONE,
        "bad trig polynomial payload: malformed frequency object: {'rat': '0', 'rad': [['2', nan]]}",
    ),
    # a zero denominator, in either coordinate
    (
        '{"terms": [{"freq": {"rat": "0", "rad": [["2", "1/0"]]}, %s}]}' % _ONE,
        "bad trig polynomial payload: malformed frequency object: {'rat': '0', 'rad': [['2', '1/0']]}",
    ),
    (
        '{"terms": [{"freq": {"rat": "-3/0", "rad": []}, %s}]}' % _ONE,
        "bad trig polynomial payload: malformed frequency object: {'rat': '-3/0', 'rad': []}",
    ),
    # terms on one ray whose keys leave int64: 1 and 10**30, and sqrt(2)/10**30 and sqrt(2)
    (_BIG_KEYS, "a ray of the polynomial needs a key past int64: %d" % 10**30),
    (
        '{"terms": [{"freq": {"rat": "0", "rad": [["2", "1/%d"]]}, %s}, {"freq": {"rat": "0", "rad": [["2", "-1"]]}, %s}]}'
        % (10**30, _ONE, _ONE),
        "a ray of the polynomial needs a key past int64: %d" % 10**30,
    ),
]


@pytest.mark.parametrize("payload, message", POLY_REFUSALS)
def test_malformed_polynomials_keep_their_refusals(payload, message, tmp_path, capsys):
    inp, out = tmp_path / "f.json", tmp_path / "s.json"
    inp.write_text(payload)
    assert run(["factor", "--method", "roots", "--input", str(inp), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--m", "0.5", "--eps", "0.2"], ["factor", "--method", "cepstral", "--m", "0.5"]],
    ids=["analyze", "cepstral"],
)
def test_keys_past_int64_refused_by_analyze_and_cepstral(argv, tmp_path, capsys):
    inp, out = tmp_path / "f.json", tmp_path / "out.json"
    inp.write_text(_BIG_KEYS)
    assert run(argv + ["--input", str(inp), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: a ray of the polynomial needs a key past int64: %d\n" % 10**30
    assert not out.exists()


def _real_term(rat: str, rad: list, re: float) -> dict:
    return {"freq": {"rat": rat, "rad": rad}, "re": re, "im": 0.0}


# 1.5e308 + 5e307 cos x, and the same plus 5e307 cos(sqrt(2) x): every
# coefficient is finite, but the Wiener norm (2.0e308 and 2.5e308) passes
# the largest float; each route once ended in an OverflowError traceback or
# a NaN
_COS_X = [_real_term("-1", [], 2.5e307), _real_term("0", [], 1.5e308), _real_term("1", [], 2.5e307)]
_COS_SQRT2X = [_real_term("0", [["2", "-1"]], 2.5e307), _real_term("0", [["2", "1"]], 2.5e307)]
HUGE_NORMS = {"cos_x": {"terms": _COS_X}, "cos_x_cos_sqrt2x": {"terms": _COS_X + _COS_SQRT2X}}


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "--method", "roots"],
        ["factor", "--method", "cepstral", "--m", "0.5"],
        ["analyze", "--m", "0.5", "--eps", "0.2"],
    ],
    ids=["roots", "cepstral", "analyze"],
)
@pytest.mark.parametrize("name", sorted(HUGE_NORMS))
def test_wiener_norm_past_the_largest_float_refused(argv, name, tmp_path, capsys):
    inp, out = tmp_path / "f.json", tmp_path / "out.json"
    inp.write_text(json.dumps(HUGE_NORMS[name]))
    assert run(argv + ["--input", str(inp), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: bad trig polynomial payload: the sum of |coefficients| exceeds the largest float\n"
    )
    assert not out.exists()


def test_zero_denominator_refused_by_analyze(tmp_path, capsys):
    inp = tmp_path / "f.json"
    inp.write_text('{"terms": [{"freq": {"rat": "0", "rad": [["2", "1/0"]]}, %s}]}' % _ONE)
    assert run(["analyze", "--input", str(inp), "--m", "0.5", "--eps", "0.2", "--out", str(tmp_path / "a.json")]) == 1
    assert capsys.readouterr().err == (
        "error: bad trig polynomial payload: malformed frequency object: {'rat': '0', 'rad': [['2', '1/0']]}\n"
    )


@pytest.mark.parametrize(
    "edit",
    [
        lambda b: b["rho"][0]["rad"][0].__setitem__(1, "1/0"),
        lambda b: b["delta"].__setitem__("rat", "1/0"),
    ],
    ids=["rho", "delta"],
)
def test_construction_zero_denominator_exits_1(any_bundle, tmp_path, capsys, edit):
    capsys.readouterr()
    assert _verify_bundle(tmp_path, _edited(any_bundle, edit)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_nonpositive_primes_refused(small_bundle, tmp_path, capsys):
    capsys.readouterr()
    assert run(["construct", "--blocks", "1", "--oracle-n", "32", "--primes=-3", "--out", str(tmp_path / "c.json")]) == 1
    assert run(["construct", "--blocks", "2", "--oracle-n", "32", "--primes=5,0", "--out", str(tmp_path / "c.json")]) == 1
    assert capsys.readouterr().err == "error: primes must be positive\n" * 2
    assert _verify_bundle(tmp_path, _edited(small_bundle, lambda b: b["params"].__setitem__("primes", [-3]))) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: primes must be positive\n"


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


def test_cli_import_skips_mpmath():
    # only ExactFrequency.sign's precision escalation needs mpmath
    code = "import sys, apspec.cli; sys.exit(int('mpmath' in sys.modules))"
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


def test_construct_exits_3_when_its_own_battery_fails(tmp_path, capsys, monkeypatch):
    # a lift of sqrt(m) alone leaves no room for the blocks, so the certified
    # lower bound f >= m fails on the instance construct just built
    monkeypatch.setattr(construction, "lift_constant", lambda m, bound: math.sqrt(m))
    out = tmp_path / "cons.json"
    rc = run(["construct", "--m", "2", "--blocks", "1", "--oracle-n", "32", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert "lower_bound_certified" in capsys.readouterr().err


def test_construct_m_1e308_verifies(tmp_path, capsys):
    # c, the least float with c - sum_j B_j >= sqrt(m) = 1e154, is certified
    # exactly; before, the lift rounded to sqrt(m) and construct exited 3
    out = tmp_path / "cons.json"
    assert run(["construct", "--m", "1e308", "--blocks", "1", "--oracle-n", "32", "--out", str(out)]) == 0
    assert load_path(str(out))["c"] >= math.sqrt(1e308)
    capsys.readouterr()
    assert run(["verify", "--report", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7 and all(line.startswith("PASS ") for line in lines)
    assert "PASS lower_bound_certified value=1e+308" in lines


_PARSE_ARGV = (
    [[name, "--help"] for name in cli.SUBCOMMANDS]
    + [
        [],
        ["--help"],
        ["bogus"],
        ["verify"],
        ["construct", "--blocks", "two"],
        ["factor", "--method", "nope", "--input", "f.json"],
        ["factor", "--method", "roots", "--input", "f.json", "--bogus"],
        ["analyze", "--input", "f.json", "--m", "nan"],
    ]
)


@pytest.mark.parametrize("argv", _PARSE_ARGV, ids=" ".join)
def test_one_subparser_reads_as_the_full_parser(argv, capsys, monkeypatch):
    # help text, usage errors and exit codes of a run that builds only the
    # subcommand it names equal those of the parser with every subcommand
    rc = run(argv)
    got = capsys.readouterr()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert run(argv) == rc
    assert capsys.readouterr() == got


@pytest.mark.parametrize("argv", [["growth-table", "--n", "2"], ["growth-table", "--help"], [], ["bogus"]], ids=" ".join)
def test_a_run_builds_only_the_subparser_it_names(argv, capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(real(command)) or built[-1])
    run(argv)
    (sub,) = built[0]._subparsers._group_actions
    named = argv[0] if argv and argv[0] in cli.SUBCOMMANDS else None
    assert list(sub.choices) == ([named] if named else list(cli.SUBCOMMANDS))


# Bundles and verify lines of `construct` (format 3); construct and verify
# must reproduce them byte for byte
CONSTRUCT_FIXTURES = Path(__file__).parent / "data" / "construct"
CONSTRUCT_CASES = {
    "blocks1_oracle64": ["--m", "1.25", "--blocks", "1", "--oracle-n", "64", "--primes", "3,7"],
    "blocks2_oracle1024": ["--m", "1.625", "--blocks", "2", "--oracle-n", "1024", "--primes", "3,7"],
}


@pytest.mark.parametrize("name", sorted(CONSTRUCT_CASES))
def test_construct_bundles_match_the_fixtures(name, tmp_path, capsys):
    out, bundle = tmp_path / "cons.json", CONSTRUCT_FIXTURES / f"{name}.bundle.json"
    assert run(["construct", *CONSTRUCT_CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == bundle.read_bytes()
    capsys.readouterr()
    assert run(["verify", "--report", str(bundle)]) == 0
    want = (CONSTRUCT_FIXTURES / f"{name}.verify.txt").read_text().splitlines()
    assert capsys.readouterr().out.splitlines() == want


def test_construct_refuses_an_oversized_oracle_at_once(tmp_path, capsys):
    # the margin's grid is refused before the oracle's log table is built
    out = tmp_path / "cons.json"
    start = time.perf_counter()
    assert run(["construct", "--oracle-n", "1000000000", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"error: NonConvergence: degree 2000000000 needs more than {1 << 24} certification points\n"
    assert not out.exists()


# Bundles, verify lines, verify --out reports and --csv text of the sampled
# routes, written when every float went through float.__repr__ one at a
# time; factor and verify must reproduce them byte for byte
SAMPLED_FIXTURES = Path(__file__).parent / "data" / "sampled"
SAMPLED_CASES = {
    "cepstral": ["--method", "cepstral", "--m", "0.66", "--window-halfwidth", "16"],
    "zeros": ["--method", "zeros"],
}


@pytest.mark.parametrize("name", sorted(SAMPLED_CASES))
def test_sampled_outputs_match_the_fixtures(name, tmp_path, capsys):
    inp, bundle = SAMPLED_FIXTURES / f"{name}.input.json", SAMPLED_FIXTURES / f"{name}.bundle.json"
    out, csv_path, report = tmp_path / "s.json", tmp_path / "s.csv", tmp_path / "report.json"
    assert run(["factor", *SAMPLED_CASES[name], "--input", str(inp), "--out", str(out), "--csv", str(csv_path)]) == 0
    assert out.read_bytes() == bundle.read_bytes()
    assert csv_path.read_bytes() == (SAMPLED_FIXTURES / f"{name}.csv").read_bytes()
    capsys.readouterr()
    assert run(["verify", "--report", str(bundle), "--out", str(report)]) == 0
    assert capsys.readouterr().out == (SAMPLED_FIXTURES / f"{name}.verify.txt").read_text()
    assert report.read_bytes() == (SAMPLED_FIXTURES / f"{name}.report.json").read_bytes()


# analyze --eps 0.2 on the cepstral fixture's input, at its window and at the
# default one (32769 samples, kmax 16384), written when the almost-period scan
# screened with one probe set; every later scan must reproduce them
SAMPLED_ANALYSES = {
    "cepstral": ["--window-halfwidth", "16"],
    "cepstral.default": [],
}


@pytest.mark.parametrize("name", sorted(SAMPLED_ANALYSES))
def test_analyze_matches_the_fixtures(name, tmp_path):
    out = tmp_path / "analysis.json"
    inp = SAMPLED_FIXTURES / "cepstral.input.json"
    argv = ["analyze", "--input", str(inp), "--m", "0.66", "--eps", "0.2", "--out", str(out)]
    assert run([*argv, *SAMPLED_ANALYSES[name]]) == 0
    assert out.read_bytes() == (SAMPLED_FIXTURES / f"{name}.analysis.json").read_bytes()


@pytest.mark.parametrize("name", sorted(SAMPLED_ANALYSES))
def test_analyze_matches_the_fixtures_on_one_blas_thread(name, tmp_path):
    # the slope's dot products are summed by fsum, so a BLAS that splits them
    # across threads, or does not, writes the same bytes
    out = tmp_path / "analysis.json"
    inp = SAMPLED_FIXTURES / "cepstral.input.json"
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = ["analyze", "--input", str(inp), "--m", "0.66", "--eps", "0.2", "--out", str(out), *SAMPLED_ANALYSES[name]]
    proc = subprocess.run([sys.executable, "-m", "apspec", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (SAMPLED_FIXTURES / f"{name}.analysis.json").read_bytes()


def _run_limited(argv, tmp_path, timeout=60):
    """The CLI in a fresh process with 4 GB of address space (the shell's ulimit), one BLAS thread and a timeout."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(filter(None, path))}
    limited = ["/bin/sh", "-c", 'ulimit -v 4000000 && exec "$0" "$@"', sys.executable, "-m", "apspec", *argv]
    return subprocess.run(limited, env=env, capture_output=True, text=True, timeout=timeout, cwd=tmp_path)


def test_verify_of_a_factor_with_a_wide_sparse_ray_ends_in_a_fail(tmp_path):
    # one term at 250000 on the factor's lattice 1/2: |s|^2 is 9 coefficient
    # pairs, not one convolution over 5e5 keys, and the bandwidth check fails
    bundle = load_path(str(Path(__file__).parent / "data" / "roots" / "three_plus_two_cos.bundle.json"))
    bundle["report"]["factor"]["terms"].append({"freq": {"rat": "250000", "rad": []}, "re": 1e-9, "im": 0.0})
    path = tmp_path / "wide.bundle.json"
    path.write_text(dumps(bundle))
    proc = _run_limited(["verify", "--report", str(path)], tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout.startswith("FAIL halved_bandwidth") and proc.stderr == ""


def test_roots_factor_refuses_a_degree_past_the_period_grid(tmp_path):
    # 3 + cos x + 0.1 cos(1e7 x): degree 1e7 needs a period grid of 2**28 points
    inp, out = tmp_path / "f.json", tmp_path / "s.json"
    write_poly(inp, [(EF(0), 3.0)] + [(EF(s * k), a) for k, a in ((1, 0.5), (10**7, 0.05)) for s in (-1, 1)])
    proc = _run_limited(["factor", "--method", "roots", "--input", str(inp), "--out", str(out)], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: grid of") and proc.stderr.count("\n") == 1
    assert proc.stdout == "" and not out.exists()
