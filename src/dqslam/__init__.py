"""SLAM with dual-quadric object landmarks.

Jointly estimates planar robot poses and 9-parameter dual quadrics from
odometry and bounding-box detections, with an optional relative-position
channel, plus the synthetic evaluation harness around it.

Poses are (x, y, theta) rows and quadrics 9-parameter rows throughout.
The geometry values exported here are the ones the commands build:
CameraIntrinsics, CameraExtrinsics (the camera mount) and DualQuadric (one
landmark's quadric).
"""

from .geometry import CameraExtrinsics, CameraIntrinsics, DualQuadric
from .factors import FactorGraph, Measurements
from .initialization import InitStrategy
from .metrics import TrialResult
from .pipeline import GraphNoiseConfig, build_graph, run_trial
from .simulator import Dataset, SensorConfig, WorldConfig, generate_dataset
from .solver import SolveReport, SolverConfig, solve

__version__ = "0.1.0"
