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
# d = 0.9 + 0.01*0.9**i: a 197-step chain whose nesting scans forms of
# hundreds of terms
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
        "0b9468a1ffec8c91076b21346b36c06306b0dc7234a1095864f00e68068c9af5",
    ),
    "certify_classic_shifted": (
        ["certify", "--mode", "classic"],
        {"set": UNIT_BOX, "operator": SHIFTED_SCALING, "classicK": 0.9}, 0,
        "8acd14123d3aa976eae322b0895792bc7eb79549beeb04a923356e54e80301a6",
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
