"""Exception types and the JSON-integer rule shared across the package."""


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
