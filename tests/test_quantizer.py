"""Keypoint distance, nearest-pose assignment, and pose pooling bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_canon
from naive_reference import naive_assign, naive_groups, naive_keypoint_distance
from pdsr import AllFramesUnassignableError, Tracklet
from pdsr.model import FrameRecord, PoseVector
from pdsr.quantizer import _BLOCK_FRAMES, MIN_COMMON_JOINTS, assignment_distances, nearest_poses
from pdsr.regulation import pose_normalize
from pdsr.seeding import rng_for


def random_pose(rng, k=8, visible_prob=1.0):
    return PoseVector(
        joints=rng.uniform(0, 1, (k, 2)),
        visibility=rng.uniform(0, 1, k) < visible_prob,
    )


def canon_of(*poses):
    """The canon whose row j - 1 is the j-th pose given."""
    return make_canon([p.joints for p in poses], [p.visibility for p in poses])


def random_canon(rng, m=4, k=8):
    return canon_of(*(random_pose(rng, k) for _ in range(m)))


def pose_distances(poses, canon):
    """The batched quantizer's distances for a list of PoseVectors, packed."""
    return assignment_distances(np.stack([p.joints for p in poses]),
                                np.stack([p.visibility for p in poses]), canon)


def distance(a, b):
    """Distance between two poses through the batched quantizer."""
    return pose_distances([a], canon_of(b))[0, 0]


def assign(frame, canon):
    """(pose, distance) of one frame through the batched quantizer."""
    poses, distances = nearest_poses(pose_distances([frame], canon))
    return poses[0], distances[0]


def test_unit_x_offset_gives_distance_one():
    # every joint shifted by (+1, 0): mean squared per-joint distance is 1.
    k = 7
    a = PoseVector(joints=np.random.default_rng(0).uniform(0, 1, (k, 2)),
                   visibility=np.ones(k, dtype=bool))
    b = PoseVector(joints=a.joints + np.array([1.0, 0.0]), visibility=a.visibility)
    assert distance(a, b) == 1.0


def test_distance_zero_on_identical_pose():
    rng = rng_for(1, "dist")
    a = random_pose(rng)
    assert distance(a, a) == 0.0


@settings(max_examples=50)
@given(st.integers(0, 10_000))
def test_distance_symmetry(seed):
    rng = rng_for(seed, "sym")
    a, b = random_pose(rng, visible_prob=0.8), random_pose(rng, visible_prob=0.8)
    d_ab = distance(a, b)
    assert d_ab == distance(b, a) or (math.isinf(d_ab) and math.isinf(distance(b, a)))


@settings(max_examples=50)
@given(st.integers(0, 10_000))
def test_distance_matches_naive(seed):
    rng = rng_for(seed, "naive-dist")
    a, b = random_pose(rng, visible_prob=0.7), random_pose(rng, visible_prob=0.7)
    naive = naive_keypoint_distance(a.joints, a.visibility, b.joints, b.visibility)
    if naive is None:
        assert math.isinf(distance(a, b))
    else:
        assert distance(a, b) == pytest.approx(naive, abs=1e-12)


def test_too_few_common_joints_gives_infinite_distance():
    a = PoseVector(joints=np.zeros((6, 2)),
                   visibility=np.array([1, 1, 1, 0, 0, 0], dtype=bool))
    b = PoseVector(joints=np.zeros((6, 2)),
                   visibility=np.array([0, 0, 1, 1, 1, 1], dtype=bool))
    assert math.isinf(distance(a, b))  # one common joint, the minimum is 4


def test_four_common_joints_give_finite_distance():
    a = PoseVector(joints=np.zeros((6, 2)),
                   visibility=np.array([1, 1, 1, 1, 1, 0], dtype=bool))
    b = PoseVector(joints=np.ones((6, 2)),
                   visibility=np.array([0, 1, 1, 1, 1, 1], dtype=bool))
    assert MIN_COMMON_JOINTS == 4
    assert distance(a, b) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    one_fewer = PoseVector(joints=np.ones((6, 2)),
                           visibility=np.array([0, 0, 1, 1, 1, 1], dtype=bool))
    assert math.isinf(distance(a, one_fewer))


def test_joint_count_mismatch_raises():
    a = PoseVector(joints=np.zeros((6, 2)), visibility=np.ones(6, dtype=bool))
    b = PoseVector(joints=np.zeros((5, 2)), visibility=np.ones(5, dtype=bool))
    with pytest.raises(ValueError):
        distance(a, b)


def test_exact_tie_breaks_to_lowest_index():
    rng = rng_for(2, "tie")
    shared = random_pose(rng)
    canon = canon_of(random_pose(rng), shared, shared)
    assert assign(shared, canon) == (2, 0.0)  # distance 0 to both 2 and 3


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_assignment_matches_exhaustive_scan(seed):
    rng = rng_for(seed, "scan")
    canon = random_canon(rng, m=8)
    for _ in range(6):
        frame = random_pose(rng, visible_prob=0.8)
        assert assign(frame, canon)[0] == (naive_assign(frame, canon) or 0)


def test_unassignable_frame_has_none_pose_and_inf_distance():
    blind = PoseVector(joints=np.zeros((6, 2)), visibility=np.zeros(6, dtype=bool))
    canon = make_canon(np.zeros((1, 6, 2)))
    poses, distances = nearest_poses(pose_distances([blind], canon))
    assert np.issubdtype(poses.dtype, np.integer)
    assert poses.tolist() == [0]  # pose 0: unassignable
    assert math.isinf(distances[0])


def test_assignment_permutation_invariance():
    rng = rng_for(3, "perm")
    poses = tuple(random_pose(rng) for _ in range(5))
    canon = canon_of(*poses)
    perm = [2, 0, 4, 1, 3]
    permuted = canon_of(*(poses[i] for i in perm))
    for _ in range(10):
        frame = random_pose(rng)
        original = assign(frame, canon)[0]
        mapped = assign(frame, permuted)[0]
        assert perm[mapped - 1] + 1 == original


def test_vectorized_distances_match_scalar_bitwise():
    # A frame gets the same distances whether it is scored alone or inside
    # a batch spanning several blocks, so quantize and the pooling pass agree.
    rng = rng_for(4, "vec")
    canon = random_canon(rng, m=5)
    frames = [random_pose(rng, visible_prob=0.6) for _ in range(_BLOCK_FRAMES + 20)]
    matrix = pose_distances(frames, canon)
    for i, f in enumerate(frames):
        assert np.array_equal(matrix[i], pose_distances([f], canon)[0])


def reference_distances(joints, visibility, canon):
    """The whole-tensor expression the blocked quantizer must reproduce bit for bit."""
    common = visibility[:, None, :] & canon.visibility[None, :, :]  # (L, M, k)
    dx = joints[:, None, :, 0] - canon.joints[None, :, :, 0]
    dy = joints[:, None, :, 1] - canon.joints[None, :, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    sq = np.where(common, dx, 0.0)
    counts = np.count_nonzero(common, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        dist = np.sqrt(sq.sum(axis=-1) / counts)
    dist[counts < MIN_COMMON_JOINTS] = np.inf
    return dist


SPECIAL_COORDINATES = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, _BLOCK_FRAMES + 40), st.integers(1, 10),
       st.integers(1, 6), st.floats(0.0, 1.0), st.floats(0.0, 0.3))
def test_distances_are_bitwise_the_reference_expression(seed, n, k, m, visible_prob, special_share):
    # Visible or hidden, frame or canon, NaN and infinite joints included.
    rng = rng_for(seed, "bitwise")
    joints = rng.uniform(-1, 2, (n, k, 2))
    canon_joints = rng.uniform(-1, 2, (m, k, 2))
    for a in (joints, canon_joints):
        special = rng.uniform(size=a.shape) < special_share
        a[special] = rng.choice(SPECIAL_COORDINATES, size=int(special.sum()))
    canon = make_canon(canon_joints, rng.uniform(size=(m, k)) < visible_prob)
    visibility = rng.uniform(size=(n, k)) < visible_prob
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 1e300 squared
        got = assignment_distances(joints, visibility, canon)
        want = reference_distances(joints, visibility, canon)
    assert got.tobytes() == want.tobytes()


def make_tracklet(rng, n_frames, k=8, d=4, visible_prob=1.0):
    frames = tuple(
        FrameRecord(frame_id=i, feature=rng.normal(size=d),
                    pose=random_pose(rng, k, visible_prob))
        for i in range(n_frames)
    )
    return Tracklet(tracklet_id="t", identity="x", camera=0, frames=frames)


@settings(max_examples=30)
@given(st.integers(0, 10_000), st.integers(1, 12))
def test_group_frequencies_sum_to_one(seed, n_frames):
    rng = rng_for(seed, "freq")
    canon = random_canon(rng)
    tracklet = make_tracklet(rng, n_frames, visible_prob=0.8)
    try:
        record = pose_normalize([tracklet], canon, 0)
    except AllFramesUnassignableError:
        return
    assert abs(record.frequencies.sum() - 1.0) < 1e-12
    _, freqs = naive_groups(tracklet, canon)
    assert record.frequencies[0].tolist() == [freqs.get(j, 0.0) for j in canon.indices]
    assert record.observed[0].tolist() == [j in freqs for j in canon.indices]


def test_group_membership_and_unassignable_bookkeeping():
    rng = rng_for(5, "members")
    canon = random_canon(rng, m=3)
    good = [FrameRecord(i, rng.normal(size=4), random_pose(rng)) for i in range(4)]
    blind_pose = PoseVector(joints=np.zeros((8, 2)), visibility=np.zeros(8, dtype=bool))
    blind = FrameRecord(99, rng.normal(size=4), blind_pose)
    tracklet = Tracklet("t", "x", 0, tuple(good) + (blind,))
    record = pose_normalize([tracklet], canon, 0)
    # the blind frame counts toward the real mean but toward no pose
    assert np.allclose(record.real_means[0], np.mean([f.feature for f in good + [blind]], axis=0))
    for j in canon.indices:
        members = [f.feature for f in good if naive_assign(f.pose, canon) == j]
        assert record.frequencies[0, j - 1] == len(members) / len(good)
        if members:
            assert np.allclose(record.vectors[0, j - 1], np.mean(members, axis=0))


def test_all_frames_unassignable_raises():
    blind_pose = PoseVector(joints=np.zeros((8, 2)), visibility=np.zeros(8, dtype=bool))
    tracklet = Tracklet("t", "x", 0, (FrameRecord(0, np.ones(4), blind_pose),))
    rng = rng_for(6, "blind")
    with pytest.raises(AllFramesUnassignableError):
        pose_normalize([tracklet], random_canon(rng), 0)
    with pytest.raises(AllFramesUnassignableError):
        pose_normalize([Tracklet("t", "x", 0, ())], random_canon(rng), 0)
