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
        "5b68f2ef6ef35181394256ac3e26ef215602ddd05d6f7c86682095a698a572ba",
    ),
    "check_pair_demo": (
        ["check-pair"], {"pair": DEMO_PAIR, "grid": {"step": 0.5}}, 0,
        "280fd33603798ed58ebd114c2bebad8d4a9e0589e8e0ced18bc5480aa8d76a80",
    ),
    "check_pair_broken": (
        ["check-pair"], {"pair": BROKEN_PAIR, "grid": {"step": 0.5}}, 1,
        "2db5d461ef0190b75ce0e036c4e280fcffe0cfddd87f52296c0c6db5b693c496",
    ),
    "certify_classic": (
        ["certify", "--mode", "classic"],
        {"set": UNIT_BOX, "operator": HALF_SCALING, "classicK": 0.6}, 0,
        "800851c3d0df309b4b421357b696596be195cd2d427577ecad0540ac811e076f",
    ),
    "certify_classic_long": (
        ["certify", "--mode", "classic"],
        {"set": UNIT_BOX, "operator": SLOW_SCALING, "classicK": 0.95}, 0,
        "1bb8b20ae6a896fc056329a460273651b4473e7df67849df42960d293b31c720",
    ),
    "certify_classic_shifted": (
        ["certify", "--mode", "classic"],
        {"set": UNIT_BOX, "operator": SHIFTED_SCALING, "classicK": 0.9}, 0,
        "504de134aef0402edf123a5fa7cb3ade7b990f7ef44fbb9254ae9e57cd22acf6",
    ),
    "certify_classic_chain_long": (
        ["certify", "--mode", "classic"],
        {"set": UNIT_BOX, "operator": LONG_SCALING, "classicK": 0.99}, 0,
        "bdbe2327aef4b62bacd56c4542d231275d0147494561a9f18222546ef68f3062",
    ),
    "certify_classic_rounded_nesting": (
        ["certify", "--mode", "classic"],
        {"set": UNIT_BOX, "operator": ROUNDED_NESTING_SCALING, "classicK": 0.5}, 0,
        "9527c9b90a62e4fc869be43b26e8ab2c6deded67bf487b100df680c5688c2b81",
    ),
    "certify_weak": (
        ["certify", "--mode", "weak"],
        {"set": UNIT_BOX, "operator": HALF_SCALING, "pair": WEAK_PAIR}, 0,
        "6dd036265933c071e159d53fe9e08e2b869fd1b1b15618afc65e1491686ffe87",
    ),
    "check_axioms": (
        ["check-axioms", "--seed", "42"], {"axioms": SMALL_AXIOMS}, 0,
        "3a9ad3e4bb4889a897f0adcdd78ce1f6df5a292798855789161ed6de3b35f298",
    ),
    "check_axioms_default_counts": (
        ["check-axioms", "--seed", "7"], {"axioms": DEFAULT_AXIOMS}, 0,
        "c0e239465425a5d7d09f53ff803c8a407c1713a76c710f3b4946a5b7294cd17d",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_report_digest(name, tmp_path, capsys):
    argv, config, code, digest = CASES[name]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
