"""Report assembly and deterministic CSV/JSON writers.

Reports are reproducible byte for byte for a fixed (config, seed): floats are
written with repr (shortest round-trip), keys are sorted, and wall-clock
timings go to a separate sidecar file excluded from the determinism contract.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import InvalidParameterError

SCHEMA_VERSION = 1


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json emits repr floats."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@dataclass
class Report:
    """Per-run record: config echo, results, constants, keyed verdicts."""

    experiment: str
    config: dict
    seed: int
    results: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    def add_verdict(self, key, passed, tolerance, observed=None, target=None, detail=""):
        """Every verdict cites its tolerance; `passed` may be 'inconclusive'."""
        if tolerance is None:
            raise InvalidParameterError(f"verdict {key} needs a tolerance")
        self.verdicts[key] = {
            "pass": passed if isinstance(passed, str) else bool(passed),
            "tolerance": tolerance,
            "observed": observed,
            "target": target,
            "detail": detail,
        }

    def worst_exit_code(self):
        """A definite failure outranks an inconclusive verdict."""
        states = [v["pass"] for v in self.verdicts.values()]
        if any(s is False for s in states):
            return 2
        if any(s == "inconclusive" for s in states):
            return 3
        return 0

    def to_json(self):
        doc = {
            "schema": SCHEMA_VERSION,
            "tool": {"name": "weaklp", "version": __version__},
            "experiment": self.experiment,
            "config": _plain(self.config),
            "seed": self.seed,
            "results": _plain(self.results),
            "constants": _plain(self.constants),
            "verdicts": _plain(self.verdicts),
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def write(self, path):
        path.write_text(self.to_json())


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
