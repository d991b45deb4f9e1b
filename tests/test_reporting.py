import json

import numpy as np
import pytest

from weaklp.errors import InvalidParameterError
from weaklp.reporting import Report, format_cell, write_csv


def test_verdict_requires_tolerance():
    rep = Report("limit", {}, 1)
    with pytest.raises(InvalidParameterError):
        rep.add_verdict("x", True, None)


def test_worst_exit_code_ordering():
    rep = Report("limit", {}, 1)
    rep.add_verdict("a", True, 0.1)
    assert rep.worst_exit_code() == 0
    rep.add_verdict("b", "inconclusive", 0.1)
    assert rep.worst_exit_code() == 3
    rep.add_verdict("c", False, 0.1)
    assert rep.worst_exit_code() == 2


def test_a_numpy_false_verdict_is_a_failure():
    # np.False_ is not False: a failed numpy comparison used to exit 0
    rep = Report("rotation", {}, 1)
    rep.add_verdict("a", np.float64(0.15) <= 0.1, 0.1)
    assert rep.worst_exit_code() == 2
    assert rep.verdicts["a"]["pass"] is False


def test_json_round_trips_numpy_scalars():
    rep = Report("limit", {"x": np.float64(1.5)}, 1)
    rep.results["arr"] = np.array([1.0, 2.0])
    rep.results["flag"] = np.bool_(True)
    rep.add_verdict("k", True, np.float64(0.05), observed=np.int64(3))
    doc = json.loads(rep.to_json())
    assert doc["schema"] == 1
    assert doc["results"]["arr"] == [1.0, 2.0]
    assert doc["verdicts"]["k"]["observed"] == 3
    assert doc["tool"]["name"] == "weaklp"


def test_csv_float_format_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(0.1 + 0.2, 1)])
    text = path.read_text()
    assert text.splitlines()[1] == "0.30000000000000004,1"
    assert format_cell(np.float64(2.5)) == "2.5"
