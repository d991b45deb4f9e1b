"""Report assembly and deterministic CSV/JSON writers.

Reports are reproducible byte for byte for a fixed (config, seed): floats are
written with repr (shortest round-trip), keys are sorted, and wall-clock
timings go to a separate sidecar file excluded from the determinism contract.
report.json is strict JSON: a non-finite float is written as the string
"inf", "-inf" or "nan".
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import InvalidParameterError

SCHEMA_VERSION = 2
COMPARES = ("<=", ">=", "band")


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json emits repr floats, and
    non-finite floats to their repr strings."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@dataclass
class Report:
    """Per-run record: config echo, results, keyed verdicts."""

    experiment: str
    config: dict
    seed: int
    results: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    def add_verdict(self, key, observed, tolerance, compare, target=None, error=0.0, detail=""):
        """Decide and record the verdict `key` on the interval observed +- error.

        `compare` is "<=" (observed <= tolerance), ">=" (observed >= tolerance)
        or "band" (|observed - target| <= tolerance * |target|).  The verdict
        passes when all of the interval meets it, fails when none of it does
        or observed is NaN, and is inconclusive otherwise, as for an
        unconverged estimate, whose error is inf.
        """
        if tolerance is None or compare not in COMPARES or (compare == "band" and target is None):
            raise InvalidParameterError(f"verdict {key} needs a tolerance, a compare in {COMPARES} and, "
                                        f"for a band, a target; got {tolerance!r}, {compare!r}, {target!r}")
        tol, ref = float(tolerance), float(target) if compare == "band" else 0.0
        a, b = {"<=": (-math.inf, tol), ">=": (tol, math.inf),
                "band": (ref - tol * abs(ref), ref + tol * abs(ref))}[compare]
        x, e = float(observed), float(error)
        state = (True if a <= x - e and x + e <= b else
                 False if math.isnan(x) or x + e < a or x - e > b else "inconclusive")
        self.verdicts[key] = {
            "pass": state,
            "tolerance": tolerance,
            "observed": observed,
            "error": error,
            "target": target,
            "detail": detail,
        }

    def worst_exit_code(self):
        """A definite failure outranks an inconclusive verdict."""
        states = {verdict_state(v) for v in self.verdicts.values()}
        return 2 if "fail" in states else 3 if "inconclusive" in states else 0

    def to_json(self):
        doc = {
            "schema": SCHEMA_VERSION,
            "tool": {"name": "weaklp", "version": __version__},
            "experiment": self.experiment,
            "config": _plain(self.config),
            "seed": self.seed,
            "results": _plain(self.results),
            "verdicts": _plain(self.verdicts),
        }
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"

    def write(self, path):
        path.write_text(self.to_json())


def verdict_state(verdict):
    """'pass', 'fail' or 'inconclusive': the word for a verdict's `pass` value."""
    return {True: "pass", False: "fail"}.get(verdict["pass"], "inconclusive")


def format_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


PROFILE_HEADER = ["lambda", "mu_hat", "error_estimate", "lambda_pow_p_mu", "estimator"]
CONSTANTS_HEADER = ["N", "p", "k_closed", "k_quad", "sigma"]
COVER_HEADER = ["left", "right", "selected_flag"]
LADDER_HEADER = ["delta_or_s", "value"]
COROLLARY_HEADER = ["field", "params", "lhs", "rhs", "ratio", "verdict"]
