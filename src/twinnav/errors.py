"""Exception types, the JSON file reader and the JSON integer and number
rules shared across the package."""

import json
import math


class ConfigError(Exception):
    """Invalid network/scenario configuration. CLI maps this to exit code 2."""


class ContractError(ValueError):
    """A caller violated an API precondition (bad argument, unknown id)."""


class DegenerateRouteRequest(ContractError):
    """Route requested with identical start and destination nodes."""


def json_int(value) -> int:
    """`value` if it is a JSON integer; TypeError for anything else, booleans,
    integral floats and strings included, so no id or count is truncated or
    coerced."""
    if type(value) is not int:
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def json_number(value) -> float:
    """`value` as a float if it is a finite JSON number (an integer or a
    float); TypeError for anything else, booleans and numeric strings
    included, and ValueError for NaN, the infinities and integers past float
    range, all of which a JSON reader hands over."""
    kind = type(value)
    if kind is not float and kind is not int:
        raise TypeError(f"expected a JSON number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"number out of float range: {value}") from None
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {x}")
    return x


def read_json(path: str, what: str):
    """The JSON document in the file at `path`; ConfigError naming the
    `what` file when it cannot be read, or the line and column of invalid
    JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
