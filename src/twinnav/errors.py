"""Exception types, the JSON rules, and the one reader of each input:
`decode_json` decodes every file and service line; `json_field` reads one
field, naming the file, the block and the key when the field's rule rejects
it; `json_fields` reads a whole block by its table of key rules, so a key
outside the table is an error; and `json_params` builds a parameter class
from a block, each field not given left at the class's default."""

import dataclasses
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


def json_str(value) -> str:
    """`value` if it is a JSON string; TypeError for anything else."""
    if type(value) is not str:
        raise TypeError(f"expected a JSON string, got {value!r:.40}")
    return value


def json_field(doc: dict, key: str, read, where: str):
    """`doc[key]` as `read` takes it: a JSON rule, or a block type (dict for
    an object, list for an array), which returns the value itself.
    ConfigError `where: key: reason` when `doc` is not an object, the key is
    missing, or `read` rejects the value."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {doc!r:.40}")
    if key not in doc:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return _read(doc[key], read, key, where)


def _read(value, read, key: str, where: str):
    """`value`, the value of `key`, as `read` takes it (see `json_field`)."""
    try:
        if read is dict or read is list:
            if not isinstance(value, read):
                kind = "object" if read is dict else "array"
                raise TypeError(f"expected a JSON {kind}, got {value!r:.40}")
            return value
        return read(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {key}: {exc}") from exc


def json_fields(doc, where: str, **rules) -> dict:
    """The keys the object `doc` gives, each read by its rule in `rules` as
    `json_field` reads it. ConfigError `where: unknown keys [...]` for a key
    outside `rules`, so a misspelled key is an error, not a default."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {doc!r:.40}")
    if not doc.keys() <= rules.keys():
        raise ConfigError(f"{where}: unknown keys {sorted(doc.keys() - rules.keys())}")
    return {key: _read(value, rules[key], key, where) for key, value in doc.items()}


def json_params(cls, doc, where: str, **rules):
    """`cls` built (`build_params`) from the fields the object `doc` gives,
    read by `json_fields`; a JSON key is the name of its field."""
    return build_params(cls, where, **json_fields(doc, where, **rules))


def build_params(cls, where: str, **fields):
    """`cls(**fields)`, each field not given left at its class default:
    ConfigError `where: missing required key 'k'` for a field with no
    default, and its range-check error (ConfigError or ValueError) re-raised
    as ConfigError `where: reason`."""
    for f in dataclasses.fields(cls):
        if f.name not in fields and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where}: missing required key {f.name!r}")
    try:
        return cls(**fields)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def decode_json(data: bytes):
    """The JSON value in the UTF-8 bytes `data`; ValueError for bytes that are
    not UTF-8, invalid JSON (json.JSONDecodeError), an integer literal past
    the interpreter's digit limit and nesting too deep for the decoder."""
    try:
        return json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def read_json(path: str, what: str):
    """The JSON document in the file at `path`; ConfigError naming the
    `what` file when it cannot be read, the line and column of a syntax
    error, or the file and reason of any other `decode_json` failure."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return decode_json(data)
    except ValueError as exc:
        if isinstance(exc, json.JSONDecodeError):
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: "
                              f"{exc.msg}") from exc
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
