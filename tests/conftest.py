import json
import warnings

import pytest

# When a hypothesis test fails, hypothesis imports its patch writer, whose
# libcst import raises a DeprecationWarning (from mypy_extensions.TypedDict).
# The suite turns that warning into an error, which ended the whole session
# with an INTERNALERROR and hid the failing test. Importing the writer here,
# with the warning ignored for this import only, keeps the filters as they
# are for every test. libcst is optional: without it hypothesis never runs
# the writer, and there is nothing to import.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from twinnav.network import network_from_dict
from twinnav.scenario import scenario_from_dict


def link(from_node, to_node, length_m=100.0, v_free_mps=10.0, k_max=0.2):
    return {
        "from": from_node,
        "to": to_node,
        "length_m": length_m,
        "v_free_mps": v_free_mps,
        "k_max_veh_per_m": k_max,
    }


def grid_nodes(ids_xy):
    return [{"id": i, "x_m": x, "y_m": y} for i, x, y in ids_xy]


def diamond_doc():
    """1 -> {2, 3} -> 4 plus the 2 -> 3 chord used by re-planning tests."""
    return {
        "nodes": grid_nodes(
            [(1, 0, 0), (2, 100, 100), (3, 100, -100), (4, 200, 0)]
        ),
        "links": [
            link(1, 2),
            link(2, 4),
            link(1, 3),
            link(3, 4, length_m=120.0),
            link(2, 3, length_m=150.0),
        ],
    }


def corridor_doc(n=4, k_max=0.2):
    """A one-way chain 1 -> 2 -> ... -> n."""
    return {
        "nodes": grid_nodes([(i, 100.0 * i, 0.0) for i in range(1, n + 1)]),
        "links": [link(i, i + 1, k_max=k_max) for i in range(1, n)],
    }


@pytest.fixture
def diamond_net():
    return network_from_dict(diamond_doc())


@pytest.fixture
def corridor_net():
    return network_from_dict(corridor_doc())


def make_scenario(net_doc, **overrides):
    doc = {
        "network": net_doc,
        "sim": {"dt_s": 1.0, "t_sim_s": 120.0, "seed": 1},
        "traffic": {"n_vel": 10, "p_user": 0.0},
        "latency": {"pdr_ssms": 1.0, "pdr_info": 1.0},
    }
    doc.update(overrides)
    return scenario_from_dict(doc)


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)
