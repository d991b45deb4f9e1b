import json
import math

import numpy as np
import pytest

from weaklp.errors import InvalidParameterError
from weaklp.reporting import Report, format_cell, verdict_state, write_csv


def test_verdict_requires_tolerance():
    rep = Report("limit", {}, 1)
    with pytest.raises(InvalidParameterError):
        rep.add_verdict("x", 0.0, None, "<=")


@pytest.mark.parametrize("compare, target", [("<", None), ("band", None), (None, None)])
def test_verdict_requires_a_known_comparison(compare, target):
    rep = Report("limit", {}, 1)
    with pytest.raises(InvalidParameterError):
        rep.add_verdict("x", 0.0, 0.1, compare, target=target)


def test_a_state_string_is_not_a_verdict():
    # a misspelt state once went into report.json and exited 0
    rep = Report("limit", {}, 1)
    with pytest.raises(ValueError):
        rep.add_verdict("x", "inconclusve", 0.1, "<=")
    with pytest.raises(InvalidParameterError):
        rep.add_verdict("x", 0.0, 0.1, "inconclusive")
    assert rep.verdicts == {}


# (observed, error, tolerance, compare, target) -> state; each kind meets its
# tolerance at the edge, straddles it with its error, and misses it
RULE_CASES = [
    (0.1, 0.0, 0.1, "<=", None, True),
    (0.05, 0.05, 0.1, "<=", None, True),
    (0.09, 0.02, 0.1, "<=", None, "inconclusive"),
    (0.0, math.inf, 0.1, "<=", None, "inconclusive"),
    (0.15, 0.02, 0.1, "<=", None, False),
    (math.nan, 0.0, 0.1, "<=", None, False),
    (0.95, 0.0, 0.95, ">=", None, True),
    (1.0, 0.05, 0.95, ">=", None, True),
    (0.96, 0.02, 0.95, ">=", None, "inconclusive"),
    (2.0, math.inf, 0.95, ">=", None, "inconclusive"),
    (0.9, 0.02, 0.95, ">=", None, False),
    (math.nan, math.inf, 0.95, ">=", None, False),
    (2.5, 0.0, 0.25, "band", 2.0, True),
    (1.5, 0.0, 0.25, "band", 2.0, True),
    (2.2, 0.3, 0.25, "band", 2.0, True),
    (2.4, 0.2, 0.25, "band", 2.0, "inconclusive"),
    (1.6, 0.2, 0.25, "band", 2.0, "inconclusive"),
    (2.0, math.inf, 0.25, "band", 2.0, "inconclusive"),
    (2.7, 0.1, 0.25, "band", 2.0, False),
    (1.2, 0.1, 0.25, "band", 2.0, False),
    (math.nan, 0.0, 0.25, "band", 2.0, False),
    (-2.2, 0.1, 0.25, "band", -2.0, True),
    (0.0, 0.0, 0.25, "band", 0.0, True),
    (1e-12, 0.0, 0.25, "band", 0.0, False),
]


@pytest.mark.parametrize("observed, error, tol, compare, target, state", RULE_CASES)
def test_verdict_rule(observed, error, tol, compare, target, state):
    rep = Report("limit", {}, 1)
    rep.add_verdict("k", observed, tol, compare, target=target, error=error)
    v = rep.verdicts["k"]
    assert v["pass"] == state and type(v["pass"]) is type(state)
    assert verdict_state(v) == {True: "pass", False: "fail"}.get(state, state)
    assert v["error"] == error or math.isnan(error)


@pytest.mark.parametrize("observed, error, tol, compare, target, state", RULE_CASES)
def test_verdict_rule_takes_numpy_scalars(observed, error, tol, compare, target, state):
    rep = Report("limit", {}, 1)
    rep.add_verdict("k", np.float64(observed), np.float64(tol), compare,
                    target=None if target is None else np.float64(target), error=np.float64(error))
    assert rep.verdicts["k"]["pass"] == state
    assert isinstance(rep.verdicts["k"]["pass"], (bool, str))


def test_worst_exit_code_ordering():
    rep = Report("limit", {}, 1)
    rep.add_verdict("a", 0.0, 0.1, "<=")
    assert rep.worst_exit_code() == 0
    rep.add_verdict("b", 0.0, 0.1, "<=", error=math.inf)
    assert rep.worst_exit_code() == 3
    rep.add_verdict("c", 0.2, 0.1, "<=")
    assert rep.worst_exit_code() == 2


def test_a_numpy_false_verdict_is_a_failure():
    # np.False_ is not False: a failed numpy comparison used to exit 0
    rep = Report("rotation", {}, 1)
    rep.add_verdict("a", np.float64(0.15), 0.1, "<=")
    rep.add_verdict("b", np.int64(3), 0, "<=")
    assert rep.worst_exit_code() == 2
    assert rep.verdicts["a"]["pass"] is False and rep.verdicts["b"]["pass"] is False


def test_json_round_trips_numpy_scalars():
    rep = Report("limit", {"x": np.float64(1.5)}, 1)
    rep.results["arr"] = np.array([1.0, 2.0])
    rep.results["flag"] = np.bool_(True)
    rep.add_verdict("k", np.int64(3), np.float64(5.0), "<=", error=np.float64(0.5))
    doc = json.loads(rep.to_json())
    assert doc["schema"] == 2
    assert doc["results"]["arr"] == [1.0, 2.0]
    assert doc["verdicts"]["k"] == {"pass": True, "tolerance": 5.0, "observed": 3, "error": 0.5,
                                    "target": None, "detail": ""}
    assert doc["tool"]["name"] == "weaklp"


def test_json_writes_non_finite_floats_as_strings():
    rep = Report("failure", {"eps": [math.inf]}, 1)
    rep.results["x"] = [math.inf, -math.inf, math.nan, np.float64(-np.inf), np.float32(np.nan)]
    rep.add_verdict("k", math.inf, 0.25, "<=", error=np.float64(np.inf))

    def strict(name):
        raise ValueError(f"non-JSON constant {name}")

    doc = json.loads(rep.to_json(), parse_constant=strict)
    assert doc["config"] == {"eps": ["inf"]}
    assert doc["results"]["x"] == ["inf", "-inf", "nan", "-inf", "nan"]
    assert (doc["verdicts"]["k"]["observed"], doc["verdicts"]["k"]["error"]) == ("inf", "inf")


def test_csv_float_format_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(0.1 + 0.2, 1)])
    text = path.read_text()
    assert text.splitlines()[1] == "0.30000000000000004,1"
    assert format_cell(np.float64(2.5)) == "2.5"
