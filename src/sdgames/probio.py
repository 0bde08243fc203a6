"""Problem and report file formats.

Problems are JSON documents with entries that are numbers or exact rationals
written as "p/q" strings; matrices must be literally symmetric (asymmetric
input is rejected, never silently symmetrized).  Reports are JSON and round
trip losslessly.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from .bounds import SolutionBoundM
from .model import SdpPair, SymMat
from .reduction import Outcome


class ProblemFormatError(ValueError):
    """Malformed problem file."""


_HUGE_EXPONENT = re.compile(r"[eE][-+]?0*\d{5}")


def _parse_entry(v, where: str):
    if isinstance(v, bool):
        raise ProblemFormatError(f"{where}: booleans are not valid entries")
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ProblemFormatError(f"{where}: non-finite entry {v!r}")
        return v
    if isinstance(v, int):
        value = Fraction(v)
    elif isinstance(v, str):
        # Fraction expands 10**exponent in full, so a five-digit exponent would
        # stall the parse; such a literal lies outside the float range anyway
        if _HUGE_EXPONENT.search(v.replace("_", "")):
            raise ProblemFormatError(f"{where}: entry beyond the float range")
        try:
            value = Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemFormatError(f"{where}: bad rational literal {v!r}") from exc
    else:
        raise ProblemFormatError(f"{where}: unsupported entry {v!r}")
    try:
        float(value)  # the solver works in floats
    except OverflowError as exc:
        raise ProblemFormatError(f"{where}: entry beyond the float range") from exc
    return value


def _parse_matrix(rows, n: int, where: str) -> SymMat:
    if not isinstance(rows, list) or len(rows) != n:
        raise ProblemFormatError(f"{where}: expected {n} rows")
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ProblemFormatError(f"{where}, row {i}: expected {n} entries")
        parsed.append([_parse_entry(v, f"{where}[{i}]") for v in row])
    for i in range(n):
        for j in range(i):
            if parsed[i][j] != parsed[j][i]:
                raise ProblemFormatError(
                    f"{where}: entry ({i},{j}) != ({j},{i}); asymmetric input is rejected"
                )
    try:
        return SymMat(parsed)
    except ValueError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc


def problem_from_dict(doc: dict) -> Tuple[SdpPair, dict]:
    """Parse a problem document; returns the pair and its metadata."""
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be an object")
    for key in ("n", "m", "C", "A", "b"):
        if key not in doc:
            raise ProblemFormatError(f"missing field {key!r}")
    n, m = doc["n"], doc["m"]
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in (n, m)):
        raise ProblemFormatError("n and m must be positive integers")
    C = _parse_matrix(doc["C"], n, "C")
    if not isinstance(doc["A"], list) or len(doc["A"]) != m:
        raise ProblemFormatError(f"A: expected a list of {m} matrices")
    A = tuple(_parse_matrix(Ai, n, f"A[{i}]") for i, Ai in enumerate(doc["A"]))
    if not isinstance(doc["b"], list) or len(doc["b"]) != m:
        raise ProblemFormatError(f"b: expected {m} entries")
    b = tuple(_parse_entry(v, f"b[{i}]") for i, v in enumerate(doc["b"]))
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ProblemFormatError("name must be a string")
    metadata = {k: doc[k] for k in doc if k not in ("n", "m", "C", "A", "b")}
    return SdpPair(C=C, A=A, b=b, name=name), metadata


def _emit_entry(v):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return f"{v.numerator}/{v.denominator}"
    return float(v)


def _emit_matrix(M: SymMat):
    return [[_emit_entry(v) for v in row] for row in M.rows()]


def problem_to_dict(pair: SdpPair, metadata: Optional[dict] = None) -> dict:
    doc = {
        "name": pair.name,
        "n": pair.n,
        "m": pair.m,
        "C": _emit_matrix(pair.C),
        "A": [_emit_matrix(Ai) for Ai in pair.A],
        "b": [_emit_entry(v) for v in pair.b],
    }
    if metadata:
        doc.update(metadata)
    return doc


def load_problem(path: Union[str, Path]) -> Tuple[SdpPair, dict]:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than int() accepts
        raise ProblemFormatError(f"{path}: {exc}") from exc
    try:
        return problem_from_dict(doc)
    except ProblemFormatError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc


def save_problem(path: Union[str, Path], pair: SdpPair, metadata: Optional[dict] = None) -> None:
    Path(path).write_text(json.dumps(problem_to_dict(pair, metadata), indent=2) + "\n")


def _emit_float(v) -> Optional[float]:
    if v is None:
        return None
    v = float(v)
    return v if np.isfinite(v) else None


def _emit_array(a) -> Optional[list]:
    if a is None:
        return None
    if isinstance(a, SymMat):
        return [[float(v) for v in row] for row in a.array]
    return [float(v) for v in np.asarray(a).ravel()]


def bound_to_dict(M: SolutionBoundM) -> dict:
    return {
        "mode": M.mode,
        "value": _emit_float(M.value),
        "certified_log2": None,  # sdgames reduce fills in the exponent of an exact pair
    }


def report_to_dict(outcome: Outcome, timings: Optional[dict] = None) -> dict:
    """ReportFile document for a pipeline outcome; JSON round trips losslessly."""

    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
            return bool(obj)
        if isinstance(obj, (np.floating, float)):
            return _emit_float(obj)
        if isinstance(obj, (np.integer, int)):
            return int(obj)
        return obj

    return {
        "outcome": outcome.kind,
        "game_value": float(outcome.game_value),
        "M": bound_to_dict(outcome.M_used),
        "X": _emit_array(outcome.X_opt),
        "y": _emit_array(outcome.y_opt),
        "direction_X": _emit_array(outcome.direction_X),
        "direction_y": _emit_array(outcome.direction_y),
        "implied_w_bar": _emit_float(outcome.implied_w_bar),
        "residuals": clean(outcome.verification),
        "diagnostics": clean(outcome.diagnostics),
        "notes": list(outcome.notes),
        "timings": clean(timings or {}),
    }
