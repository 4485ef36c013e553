"""SLAM with dual-quadric object landmarks.

Jointly estimates planar robot poses and 9-parameter dual quadrics from
odometry and bounding-box detections, with an optional relative-position
channel, plus the synthetic evaluation harness around it.
"""

from .geometry import (
    CameraExtrinsics,
    CameraIntrinsics,
    DualConic,
    DualQuadric,
    ProjectionMatrix,
    RobotPose,
)
from .factors import FactorGraph, Measurements
from .initialization import InitStrategy
from .metrics import TrialResult
from .pipeline import GraphNoiseConfig, build_graph, run_trial
from .simulator import Dataset, SensorConfig, WorldConfig, generate_dataset
from .solver import SolveReport, SolverConfig, solve

__version__ = "0.1.0"
