"""Exception taxonomy shared across the package, and the readers of JSON
input files: load_json_object for a file, json_reals for its numbers
(json_float for one number).

The CLI maps these onto stable exit codes: parse failures (FormatError
among them) -> 2, DomainError/PreconditionError/ShapeError -> 3,
CapacityError -> 4, CoherenceError -> 5.
"""
import json

import numpy as np


class FormatError(ValueError):
    """An input file is structurally malformed (wrong nesting or count)."""


class ShapeError(ValueError):
    """Operand dimensions are inconsistent."""


class DomainError(ValueError):
    """Input violates a mathematical precondition (not just a shape)."""


class PreconditionError(ValueError):
    """A structural precondition fails (e.g. a singleton energy block)."""


class CapacityError(RuntimeError):
    """A configured size cap would be exceeded."""


class CoherenceError(ValueError):
    """An incoherent (diagonal) input was required but coherence was found."""


def load_json_object(path_or_obj, what: str) -> dict:
    """The JSON object in the file at a path, or an already parsed value;
    any other top-level value is a FormatError naming `what`."""
    obj = path_or_obj
    if isinstance(path_or_obj, str):
        with open(path_or_obj) as f:
            obj = json.load(f)
        what = f"{path_or_obj}: {what}"
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def json_float(value) -> float:
    """One JSON number as a float: an int (a bool counts as its integer) or
    a float.  Anything else raises TypeError, and an integer beyond the
    float range OverflowError."""
    if not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a JSON number")
    return float(value)


def json_reals(value, name: str) -> np.ndarray:
    """A JSON value as a float array, by one np.array call.  Ragged nesting
    is a FormatError; an entry that is not a JSON number (json_float: a
    string, null or an object, or an integer beyond the float range) is a
    DomainError.  An integer beyond int64 counts as its float."""
    try:
        a = np.array(value)
    except ValueError:  # an inhomogeneous shape
        raise FormatError(f"'{name}' is a ragged array") from None
    if a.dtype.kind in "biuf":
        return a.astype(float, copy=False)
    try:  # an object or string array: each entry by json_float
        return np.array([json_float(v) for v in a.flat], dtype=float).reshape(a.shape)
    except (TypeError, OverflowError):
        raise DomainError(f"'{name}' holds an entry that is not a JSON number") from None
