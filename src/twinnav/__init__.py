"""twinnav: mesoscopic traffic simulation with a cloud traffic twin,
event-triggered cooperative route planning, and a stochastic V2X latency
model."""

from .comms import (
    FlowLatency,
    FlowStreams,
    KpiBudget,
    LatencyModel,
    check_deadline,
    deliver,
    kpi_report,
    sample_dt_latency,
    sample_service_latency,
)
from .errors import ConfigError, ContractError, DegenerateRouteRequest
from .nav import (
    PlanningInput,
    Route,
    dijkstra_fastest,
    mask_events,
    plan_new_users,
    replan_affected,
    request_distance,
)
from .network import (
    Link,
    Node,
    TrafficNetwork,
    build_journey_matrix,
    journey_speed,
    journey_time,
    load_network,
    traffic_density,
)
from .scenario import Scenario, load_scenario, scenario_from_dict
from .sim import Engine, MetricsSummary, Vehicle, run
from .twin import (
    EventThresholds,
    TwinState,
    detect_accident,
    detect_pedestrian_gathering,
    ingest_readings,
)

__version__ = "0.1.0"
