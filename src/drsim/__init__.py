"""Divide-and-Rule WSN routing simulator with LEACH / LEACH-C baselines."""

from .geometry import FieldPartition, Point, Rect, Region, RegionKind, build_partition
from .protocols import ProtocolKind
from .radio import RadioParams
from .sim import RoundMetrics, RunSummary, SimConfig, experiment, run

__all__ = [
    "FieldPartition", "Point", "Rect", "Region", "RegionKind", "build_partition",
    "ProtocolKind", "RadioParams",
    "RoundMetrics", "RunSummary", "SimConfig", "experiment", "run",
]

__version__ = "0.1.0"
