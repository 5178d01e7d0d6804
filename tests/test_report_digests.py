"""Pinned sha256 digests of small reports.

Reports are byte-identical for the same config and seed, and a change to
the code that is not meant to change a report must leave these bytes alone.
A change that is meant to alter a report updates its digest here and says
so in CHANGES.md.
"""

import hashlib
import json

import pytest

from darbocert.cli import run

UNIT_BOX = {"tailLo": {"terms": [], "beta": -1.0}, "tailHi": {"terms": [], "beta": 1.0}}
HALF_SCALING = {"dTail": {"terms": [], "beta": 0.5}, "eTail": {"terms": [], "beta": 0.0}}
# d = 0.9 + 0.01*0.9**i: a 197-step chain, and a witness solved
# numerically up to the horizon
SLOW_SCALING = {
    "dTail": {"terms": [{"alpha": 0.01, "rho": 0.9}], "beta": 0.9},
    "eTail": {"terms": [], "beta": 0.0},
}
# d and e with head values and e with a two-term tail: each step adds e's
# terms to envelopes whose ratio sets partly overlap them
SHIFTED_SCALING = {
    "dHead": [0.5, -0.25],
    "dTail": {"terms": [{"alpha": 0.01, "rho": 0.9}], "beta": 0.8},
    "eHead": [0.125, -0.5],
    "eTail": {"terms": [{"alpha": 0.25, "rho": 0.5}, {"alpha": -0.125, "rho": 0.75}], "beta": 0.0},
}
# d = 0.98 + 0.01*0.9**i: the 1026-step chain the benchmark times
LONG_SCALING = {
    "dTail": {"terms": [{"alpha": 0.01, "rho": 0.9}], "beta": 0.98},
    "eTail": {"terms": [], "beta": 0.0},
}
# d = 0.3 - 0.5*0.999**i: its rounded step-13 nesting form is negative at
# coordinate 511, so a chain that re-decided nesting at every step refuted it
ROUNDED_NESTING_SCALING = {
    "dTail": {"terms": [{"alpha": -0.5, "rho": 0.999}], "beta": 0.3},
    "eTail": {"terms": [], "beta": 0.0},
}
DEMO_PAIR = {
    "psiSeq": "(2*n*(1+t)+2*t+1)/(n+1)",
    "phiSeq": "(n*(2+t)+1)/n",
    "psiLimit": "2+2*t",
    "phiLimit": "2+t",
}
BROKEN_PAIR = {"psiSeq": "t", "phiSeq": "t+1", "psiLimit": "t", "phiLimit": "t+1"}
WEAK_PAIR = {"psiSeq": "t", "phiSeq": "t/2", "psiLimit": "t", "phiLimit": "t/2"}
SMALL_AXIOMS = {"m1": 20, "m2": 40, "m3": 20, "m4": 40, "m5": 40,
                "m6Chains": 4, "m6Depth": 20, "oracle": 5, "homogeneity": 20}
# the default counts, as the benchmark's axiom_suite workload writes them
DEFAULT_AXIOMS = {"m1": 500, "m2": 1000, "m3": 1000, "m4": 1000, "m5": 1000,
                  "m6Chains": 100, "m6Depth": 50, "oracle": 100,
                  "oracleCut": 1_000_000, "homogeneity": 500}

# name: (argv before --config/--out, config or None, exit code, sha256 of the report)
CASES = {
    "demo": (
        ["demo"], None, 0,
        "da0ccc0990fec3c37b7de4143a8a87b18b5600e9daa917e340b1d4a5c8eb6600",
    ),
    "check_pair_demo": (
        ["check-pair"], {"pair": DEMO_PAIR, "grid": {"step": 0.5}}, 0,
        "d7c7471aab5e8d0d186997d0177e0cc87dc50650a33ee156d0bd478cf1c68952",
    ),
    "check_pair_broken": (
        ["check-pair"], {"pair": BROKEN_PAIR, "grid": {"step": 0.5}}, 1,
        "fb04eb63ce8f5107bfaf45038db6389993cdc9ea0a5eb63d0a65286d4a0ea850",
    ),
    "certify_classic": (
        ["certify", "--mode", "classic"],
        {"set": UNIT_BOX, "operator": HALF_SCALING, "classicK": 0.6}, 0,
        "a596961295c3a1d448fdbe40defca9d5a27ccaccfaddb7d08584c9aa990b7a86",
    ),
    "certify_classic_long": (
        ["certify", "--mode", "classic"],
        {"set": UNIT_BOX, "operator": SLOW_SCALING, "classicK": 0.95}, 0,
        "862beb316b816c04a65fe9f211eff5a78c4f23bbb852dcc69634dbf9d430c8ea",
    ),
    "certify_classic_shifted": (
        ["certify", "--mode", "classic"],
        {"set": UNIT_BOX, "operator": SHIFTED_SCALING, "classicK": 0.9}, 0,
        "304a33c561788b1aa6d92b522cc45bb888bb2b8cfdd9ebda72553d5a00928997",
    ),
    "certify_classic_chain_long": (
        ["certify", "--mode", "classic"],
        {"set": UNIT_BOX, "operator": LONG_SCALING, "classicK": 0.99}, 0,
        "70c6590376f9bd2ded69217cb79f75944325606c4546d32b89e829a32cf1d79c",
    ),
    "certify_classic_rounded_nesting": (
        ["certify", "--mode", "classic"],
        {"set": UNIT_BOX, "operator": ROUNDED_NESTING_SCALING, "classicK": 0.5}, 0,
        "dad7a63c4d6f6212b06055c09911e931af097c27f2f6aea8c93ff83b82bfafd5",
    ),
    "certify_weak": (
        ["certify", "--mode", "weak"],
        {"set": UNIT_BOX, "operator": HALF_SCALING, "pair": WEAK_PAIR}, 0,
        "a338f832920b0ae56b17e1ccd5fad77deca537d97eacdd8b3b088bf5c567169f",
    ),
    "check_axioms": (
        ["check-axioms", "--seed", "42"], {"axioms": SMALL_AXIOMS}, 0,
        "de77d36eb282288f400808c3a303c22c2d34de1df11b359b06b452816227b009",
    ),
    "check_axioms_default_counts": (
        ["check-axioms", "--seed", "7"], {"axioms": DEFAULT_AXIOMS}, 0,
        "141544d421bc9e446c66a4773bc0a7fe7db74558ded707b63f6715523038f3c4",
    ),
}


def report_bytes(name, tmp_path, capsys):
    argv, config, code, _ = CASES[name]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == code
    capsys.readouterr()
    return out.read_bytes()


@pytest.mark.parametrize("name", list(CASES))
def test_report_digest(name, tmp_path, capsys):
    report = report_bytes(name, tmp_path, capsys)
    digest = hashlib.sha256(report).hexdigest()
    assert digest == CASES[name][3], f"{name}: the report is now {len(report)} bytes, sha256 {digest}"


def test_chain_long_report_size(tmp_path, capsys):
    # 1026 steps of one margin each; with a margin per ladder entry and the
    # limit, and per-step estimates, it was 525,333 bytes
    assert len(report_bytes("certify_classic_chain_long", tmp_path, capsys)) <= 150_000
