from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import dqslam

MODULES = sorted(
    f"dqslam.{info.name}" for info in pkgutil.iter_modules(dqslam.__path__)
) + ["dqslam"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A name left in __all__ after its definition is deleted breaks
    # `from module import *` and misdocuments the API.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_definition_lives_in_its_module(name):
    # Each exported function or class has one home: a module re-exporting
    # another module's definition (a kernel left behind after a move) lists
    # a second name for it.
    module = importlib.import_module(name)
    exported = [getattr(module, attr) for attr in getattr(module, "__all__", ())]
    foreign = [
        obj.__name__
        for obj in exported
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ != name
    ]
    assert not foreign, f"{name}.__all__ re-exports {foreign}"


@pytest.mark.parametrize(
    "module, name",
    [
        ("dqslam.factors", "se2_boxminus"),
        ("dqslam.factors", "odometry_residual"),
        ("dqslam.factors", "prior_residual"),
        ("dqslam.factors", "bbox_factor_residual"),
        ("dqslam.factors", "relpos_residual"),
        ("dqslam.factors", "graph_residual"),
        ("dqslam.factors", "graph_jacobian"),
        ("dqslam.factors", "motion_model"),
        ("dqslam.geometry", "tangency_residual"),
        ("dqslam.geometry", "dual_conic_bbox"),
        ("dqslam.pipeline", "ground_truth_graph"),
        ("dqslam.geometry", "RobotPose"),
        ("dqslam.geometry", "ProjectionMatrix"),
        ("dqslam.geometry", "DualConic"),
        ("dqslam.geometry", "rotz"),
        ("dqslam.geometry", "projection_matrix"),
        ("dqslam.geometry", "project_quadric"),
        ("dqslam.geometry", "CameraExtrinsics.identity"),
        ("dqslam.geometry", "DualQuadric.centroid"),
        ("dqslam.geometry", "DualQuadric.from_matrix"),
        ("dqslam.geometry", "wrap_angle"),
        ("dqslam", "RobotPose"),
        ("dqslam", "ProjectionMatrix"),
        ("dqslam", "DualConic"),
    ],
)
def test_scalar_references_live_only_in_the_test_oracle(module, name):
    # The package evaluates each factor one way, through GraphEvaluator and
    # the array kernels; their scalar references live in tests/oracle.py (or
    # were wrappers, and are gone), so a second implementation beside the
    # vectorized one does not grow back. Likewise the single-item value
    # classes and wrappers that only tests called (one pose, one projection
    # matrix, one conic) are gone: poses are rows, P = K [R | t] has one
    # home in projection_matrices and C* = P Q* P^T one in project_quadrics.
    # A dotted name is resolved one attribute at a time, so a method counts.
    *path, attr = name.split(".")
    owner = importlib.import_module(module)
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, attr)
