"""Shared fixtures and the acceptance-criterion result summary."""

import gc

import numpy as np
import pytest

from pdsr import CanonicalPoseSet, GenSpec, generate


def make_canon(joints, visibility=None) -> CanonicalPoseSet:
    """A canon from (M, k, 2) joints, or a list of M (k, 2) arrays; every joint visible by default."""
    joints = np.asarray(joints, dtype=np.float64)
    if visibility is None:
        visibility = np.ones(joints.shape[:2], dtype=bool)
    return CanonicalPoseSet(joints, visibility)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): tag a test as one acceptance criterion"
    )
    config._criterion_results = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, title = marker.args
    if report.when == "call":
        status = "PASS" if report.passed else "FAIL"
        item.config._criterion_results[num] = (status, title)
    elif report.when == "setup" and report.skipped:
        item.config._criterion_results[num] = ("SKIP", title)
    elif report.when == "setup" and report.failed:
        item.config._criterion_results[num] = ("FAIL", title)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_criterion_results", {})
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        status, title = results[num]
        terminalreporter.write_line(f"criterion {num}: {status} - {title}")


@pytest.fixture(autouse=True)
def _unfreeze_heap():
    """Hand back to the collector whatever an in-process CLI command froze during the test."""
    yield
    gc.unfreeze()


@pytest.fixture(scope="session")
def small_gen():
    """A small zero-noise planted dataset shared by read-only tests."""
    return generate(
        GenSpec(
            identities=4,
            cameras=2,
            num_poses=3,
            feature_dim=16,
            pose_effect_scale=0.3,
            noise_sigma=0.0,
            seed=7,
            distractors=2,
        )
    )


@pytest.fixture(scope="session")
def noisy_gen():
    """A noisier planted dataset with per-camera pose subsets."""
    return generate(
        GenSpec(
            identities=5,
            cameras=2,
            num_poses=4,
            feature_dim=24,
            pose_effect_scale=0.5,
            noise_sigma=0.2,
            pose_jitter=0.01,
            pose_visibility=((1, 2, 3), (2, 3, 4)),
            seed=13,
            distractors=3,
        )
    )
