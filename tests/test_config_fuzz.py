"""Fuzz the config boundary: whatever JSON config a command is given, it
ends in a documented exit code (0/1/2/3) without a traceback, a refutation
or failure (exit 1) always comes with a report, and an input error (exit 3)
comes with an ``error:`` line and no report.

Half the examples are well-formed configs; the other half are the same
configs with one value, at any depth, replaced by junk.  The strategy stays
small so every example runs in milliseconds: at most 50 iterations,
coarse grids and a handful of axiom instances.  Grids and
junk also take non-finite, tiny and huge values; such a grid must be
rejected (exit 3) before any table is sized by it, so no example starts a
huge run.  The truncation oracle's cut also takes negative values and
values past int64, and ladders take entries past the float range, which
must be rejected the same way.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from darbocert.cli import EXIT_CONFIG, EXIT_FAIL, run

reals = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False),
    st.sampled_from([0.0, 0.5, 1.0, -1.0, 1e300, -1e300, 1e-300]),
)
ratios = st.sampled_from([0.0, 0.25, 0.5, 0.9, 0.99])
negative, positive = reals.map(lambda x: -abs(x)), reals.map(abs)


def tail_forms(betas=reals, alphas=reals):
    term = st.fixed_dictionaries({"alpha": alphas, "rho": ratios})
    return st.fixed_dictionaries({"terms": st.lists(term, max_size=2)}, optional={"beta": betas})


def ordered_box(heads, lo, hi):
    return {
        "headLo": [min(p) for p in heads],
        "headHi": [max(p) for p in heads],
        "tailLo": lo,
        "tailHi": hi,
    }


# asymptotic values on their own side of zero; ordered heads and
# envelopes, or equal heads and envelopes that may cross
boxes = st.one_of(
    st.just({"tailLo": {"beta": -1.0}, "tailHi": {"beta": 1.0}}),
    st.builds(
        ordered_box,
        st.lists(st.tuples(reals, reals), max_size=2),
        tail_forms(negative, negative),
        tail_forms(positive, positive),
    ),
    st.builds(
        ordered_box,
        st.lists(reals.map(lambda x: (x, x)), max_size=2),
        tail_forms(negative),
        tail_forms(positive),
    ),
)
heads = st.lists(reals, max_size=2)
operators = st.one_of(
    st.just({"dTail": {"beta": 0.5}}),
    st.fixed_dictionaries(
        {},
        optional={
            "dHead": heads,
            "dTail": tail_forms(),
            "eHead": heads,
            "eTail": tail_forms(st.just(0.0)),
        },
    ),
)
operators = st.one_of(
    operators,
    st.builds(lambda ops: {"compose": ops}, st.lists(operators, min_size=1, max_size=2)),
)
texts = st.sampled_from(
    ["t", "t/2", "2*t", "t+1", "t*n", "2*t*n", "t/n", "1/t", "1", "(n*(2+t)+1)/n",
     "(2*n*(1+t)+2*t+1)/(n+1)", "2+2*t", "2+t"]
)
pairs = st.fixed_dictionaries(
    {"psiSeq": texts, "phiSeq": texts}, optional={"psiLimit": texts, "phiLimit": texts}
)
# entries past the float range (2**1100) must be refused while parsing
ladders = st.lists(
    st.one_of(st.integers(1, 10**6), st.integers(2**1023, 2**1100)),
    min_size=1, max_size=3, unique=True,
).map(sorted)
grids = st.fixed_dictionaries(
    {},
    optional={
        "tMax": st.sampled_from([0.5, 1.0, 2.0, 5.0, 1e300, math.inf]),
        "step": st.sampled_from([0.25, 0.5, 1.0, 1e-9, math.nan]),
        "nLadder": ladders,
    },
)
# every count is given, so check-axioms never runs at the default counts
axioms = st.fixed_dictionaries(
    {
        name: st.integers(0, 2)
        for name in ("m1", "m2", "m3", "m4", "m5", "m6Chains", "oracle", "homogeneity")
    },
    optional={
        "m6Depth": st.integers(1, 3),
        # negative cuts and cuts past int64 must be refused while parsing
        "oracleCut": st.one_of(
            st.integers(0, 10**4), st.integers(-(10**4), -1), st.integers(2**62, 10**30)
        ),
    },
)
configs = st.fixed_dictionaries(
    {
        "axioms": axioms,
        "set": boxes,
        "operator": operators,
        "pair": pairs,
        # negative budgets and budgets past the cap must be refused while parsing
        "maxIter": st.one_of(
            st.integers(1, 50), st.integers(-(10**4), 0), st.integers(10**5 + 1, 10**30)
        ),
        "classicK": st.sampled_from([0.0, 0.5, 0.6, 0.95]),
        "enforcePairChecks": st.booleans(),
    },
    optional={
        # unread, and echoed in the report
        "space": st.fixed_dictionaries({}, optional={"horizon": st.integers(1, 10**4)}),
        "grid": grids,
        "tol": st.sampled_from([1e-9, 1e-3, 0.1]),
        "uniformTol": st.sampled_from([1e-6, 0.5]),
        "nLadder": ladders,
    },
)
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2),
    st.sampled_from([-1, 0, 1.0, -0.5, 1e300, -1e300, 1e-9, math.nan, math.inf, "t*", "x"]),
)


@st.composite
def corrupted(draw, config):
    """``config`` with one value, at any depth, replaced by junk; the
    ``axioms`` counts are left alone so that check-axioms stays small."""
    root = {"config": copy.deepcopy(config)}
    parent, key = root, "config"
    while True:
        value = parent[key]
        if isinstance(value, dict):
            children = [k for k in value if k != "axioms"]
        else:
            children = list(range(len(value))) if isinstance(value, list) else []
        if not children or (parent is not root and draw(st.booleans())):
            break
        parent, key = value, draw(st.sampled_from(children))
    parent[key] = draw(junk)
    return root["config"]


commands = st.sampled_from(
    [
        ["check-pair"],
        ["certify", "--mode", "main"],
        ["certify", "--mode", "weak"],
        ["certify", "--mode", "classic"],
        ["certify", "--mode", "identity"],
        ["check-axioms", "--seed", "3"],
    ]
)


@settings(deadline=None, max_examples=100)
@given(commands, st.one_of(configs, configs.flatmap(corrupted)))
def test_every_config_ends_in_a_documented_exit_code(argv, config):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = run(argv + ["--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if code == EXIT_FAIL:
            assert out.exists()
        if code == EXIT_CONFIG:
            assert err.getvalue().startswith("error: ")
            assert not out.exists()


# values that iterate as something other than a list of numbers
not_lists = st.one_of(
    st.text(max_size=3),
    st.dictionaries(st.sampled_from(["1", "5", "6"]), st.integers(0, 9), max_size=2),
    reals,
    st.none(),
    st.booleans(),
)
list_places = st.sampled_from(
    [("set", "headLo"), ("set", "headHi"), ("operator", "dHead"), ("operator", "eHead"),
     ("grid", "nLadder"), (None, "nLadder")]
)


@settings(deadline=None, max_examples=100)
@given(commands, list_places, not_lists, st.data())
def test_a_head_or_ladder_that_is_not_a_list_is_config_error(argv, place, value, data):
    section, key = place
    config, target, where = {}, None, ""
    if section is None:
        config[key] = value
    else:
        body = copy.deepcopy(data.draw({"set": boxes, "operator": operators, "grid": grids}[section]))
        config[section] = target = body
        where = section
        if "compose" in body:
            target, where = body["compose"][0], f"{section}.compose[0]"
        target[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv + ["--config", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG and not out.exists()
        prefix = f"{where}: " if where else ""
        assert err.getvalue() == f"error: {prefix}{key} must be a list\n"


not_booleans = st.one_of(
    st.none(), st.integers(-1, 2), st.floats(allow_nan=False), st.text(max_size=5),
    st.lists(st.booleans(), max_size=1), st.dictionaries(st.text(max_size=1), st.booleans(), max_size=1),
)


@settings(deadline=None, max_examples=50)
@given(commands, not_booleans)
def test_an_enforce_pair_checks_that_is_not_a_boolean_is_config_error(argv, value):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        path.write_text(json.dumps({"enforcePairChecks": value}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv + ["--config", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG and not out.exists()
        assert err.getvalue() == "error: enforcePairChecks must be true or false\n"
