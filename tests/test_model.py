"""Domain types and the validate_dataset invariant checker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_canon
from pdsr import CanonicalPoseSet, Dataset, Tracklet, validate_dataset
from pdsr.model import FrameRecord, PackedFrames, PoseVector, _frame_defects, pack
from pdsr.regulation import pose_normalize, tracklet_means


def pose(k=6, fill=0.5, visible=True):
    return PoseVector(
        joints=np.full((k, 2), fill, dtype=np.float64),
        visibility=np.full(k, visible, dtype=bool),
    )


def frame(frame_id, feature, k=6, fill=0.5):
    return FrameRecord(frame_id=frame_id, feature=np.asarray(feature, dtype=np.float64),
                       pose=pose(k=k, fill=fill))


def grid_pose(k, offset):
    joints = np.stack([np.linspace(0, 1, k) + offset, np.full(k, 0.5)], axis=1)
    return PoseVector(joints=np.clip(joints, 0.0, 1.0), visibility=np.ones(k, dtype=bool))


def tracklet_of(*frames):
    return Tracklet(tracklet_id="t7", identity="a", camera=0, frames=frames)


def test_pose_vector_shape_validation():
    with pytest.raises(ValueError, match="tracklet 't7'"):
        bad = PoseVector(joints=np.zeros((4, 3)), visibility=np.ones(4, dtype=bool))
        tracklet_of(FrameRecord(frame_id=0, feature=np.ones(3), pose=bad))
    with pytest.raises(ValueError, match="tracklet 't7'"):
        bad = PoseVector(joints=np.zeros((4, 2)), visibility=np.ones(5, dtype=bool))
        tracklet_of(FrameRecord(frame_id=0, feature=np.ones(3), pose=bad))


def test_frame_feature_must_be_1d():
    with pytest.raises(ValueError, match="tracklet 't7'"):
        tracklet_of(FrameRecord(frame_id=0, feature=np.zeros((2, 2)), pose=pose()))


@pytest.mark.parametrize("other", [frame(1, [1.0, 2.0, 3.0]), frame(1, [1.0, 2.0], k=5)],
                         ids=["feature-dim", "joint-count"])
def test_frames_whose_shapes_differ_name_the_tracklet(other):
    with pytest.raises(ValueError, match="tracklet 't7'"):
        tracklet_of(frame(0, [1.0, 2.0]), other)


def test_tracklet_holds_frames_by_ascending_id_with_duplicates_in_storage_order():
    stored = (frame(2, [1.0, 0.0]), frame(0, [0.0, 1.0]), frame(2, [0.0, 2.0]), frame(1, [1.0, 1.0]))
    t = Tracklet(tracklet_id="t", identity="a", camera=0, frames=stored)
    assert isinstance(t.frames, PackedFrames)
    assert t.frames.frame_ids.tolist() == [0, 1, 2, 2]
    assert t.frames.features.tolist() == [[0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 2.0]]


def packed(frame_ids, k=6, d=3):
    """PackedFrames with the given ids, in that storage order; row i's values derive from i."""
    n = len(frame_ids)
    rows = np.arange(n, dtype=np.float64)
    features = np.sin(rows[:, None] * 1.3 + np.arange(1, d + 1)) + 1.5  # sums that depend on their order
    joints = np.broadcast_to((rows / (n + 1))[:, None, None], (n, k, 2)).copy()
    return PackedFrames(np.array(frame_ids, dtype=np.int64), features, joints, np.ones((n, k), dtype=bool))


def test_tracklet_sorts_packed_frames_by_a_stable_argsort_of_their_ids():
    stored = packed([2, 1, 0])
    t = Tracklet("t", "a", 0, stored)
    assert t.frames.frame_ids.tolist() == [0, 1, 2]
    assert np.array_equal(t.frames.features, stored.features[[2, 1, 0]])
    assert t.frames.joints[:, 0, 0].tolist() == [0.5, 0.25, 0.0]
    stored = packed([1, 2, 1])
    t = Tracklet("t", "a", 0, stored)
    assert t.frames.frame_ids.tolist() == [1, 1, 2]
    assert np.array_equal(t.frames.features, stored.features[[0, 2, 1]])  # the two 1s keep storage order


def test_tracklet_keeps_ascending_packed_frames_as_given():
    block = packed([0, 1, 1, 3, 0, 2])
    a, b = Tracklet("a", "x", 0, block.rows(0, 4)), Tracklet("b", "x", 0, block.rows(4, 6))
    assert a.frames.base is block and b.frames.base is block
    frames, _ = pack([a, b])
    assert np.shares_memory(frames.features, block.features)


def test_duplicate_frame_id_in_unsorted_packed_frames_is_reported():
    tracklets, canon = clean_setup()
    tracklets.append(Tracklet("c", "id2", 0, packed([1, 2, 1])))
    assert codes(validate_dataset(tracklets, canon)) == ["duplicate_frame_id"]


def test_pooled_means_do_not_depend_on_storage_order():
    ids = [4, 0, 9, 3, 11, 1, 7, 2, 10, 5, 8, 6]
    order = np.argsort(ids)
    shuffled = packed(ids)
    ascending = PackedFrames(shuffled.frame_ids[order], shuffled.features[order],
                             shuffled.joints[order], shuffled.visibility[order])
    canon = make_canon([np.full((6, 2), x) for x in (0.0, 0.3, 0.6)])
    a, b = Tracklet("t", "x", 0, shuffled), Tracklet("t", "x", 0, ascending)
    assert np.array_equal(tracklet_means([a], 0).real_means, tracklet_means([b], 0).real_means)
    ra, rb = pose_normalize([a], canon, 0), pose_normalize([b], canon, 0)
    assert np.array_equal(ra.vectors, rb.vectors) and np.array_equal(ra.frequencies, rb.frequencies)
    assert ra.observed.sum() > 1  # the frames spread over more than one pose


def test_pack_concatenates_tracklets_not_cut_from_one_block_and_skips_empty_ones():
    a = Tracklet("a", "x", 0, (frame(1, [1.0, 0.0]), frame(0, [0.0, 1.0])))
    empty = Tracklet("b", "x", 0, ())
    c = Tracklet("c", "x", 1, (frame(0, [2.0, 2.0], fill=0.25),))
    frames, offsets = pack([a, empty, c])
    assert offsets.tolist() == [0, 2, 2, 3]
    assert frames.frame_ids.tolist() == [0, 1, 0]
    assert frames.features.tolist() == [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]
    assert frames.joints.shape == (3, 6, 2) and frames.joints[2, 0].tolist() == [0.25, 0.25]
    assert frames.visibility.shape == (3, 6) and frames.visibility.all()


def test_dataset_holds_tracklets_by_ascending_id():
    ids = ["c", "a", "d", "b"]
    tracklets = [Tracklet(tid, "x", 0, (frame(0, [1.0, 0.0]),)) for tid in ids]
    dataset = Dataset("d", 2, 6, 1, 1, tracklets)
    assert [t.tracklet_id for t in dataset.tracklets] == ["a", "b", "c", "d"]
    assert isinstance(dataset.tracklets, tuple)


def test_canonical_pose_indexing_is_one_based():
    canon = make_canon([pose(fill=0.1).joints, pose(fill=0.9).joints])
    assert len(canon) == 2
    assert np.allclose(canon.joints[0], 0.1)  # pose 1
    assert np.allclose(canon.joints[1], 0.9)  # pose 2
    assert list(canon.indices) == [1, 2]


def test_canonical_pose_set_refuses_empty_ragged_and_mismatched_shapes():
    with pytest.raises(ValueError, match="at least one pose"):
        CanonicalPoseSet(np.zeros((0, 6, 2)), np.zeros((0, 6), dtype=bool))
    with pytest.raises(ValueError):  # ragged: poses of 6 and 5 joints
        CanonicalPoseSet([np.zeros((6, 2)), np.zeros((5, 2))], [np.ones(6, bool), np.ones(5, bool)])
    with pytest.raises(ValueError, match="are not"):
        CanonicalPoseSet(np.zeros((2, 6, 2)), np.ones((2, 5), dtype=bool))
    with pytest.raises(ValueError, match="are not"):
        CanonicalPoseSet(np.zeros((2, 6, 3)), np.ones((2, 6), dtype=bool))
    with pytest.raises(ValueError, match="are not"):
        CanonicalPoseSet(np.zeros((6, 2)), np.ones(6, dtype=bool))  # one pose, unstacked


def test_canonical_pose_set_holds_float_joints_and_bool_visibility():
    canon = CanonicalPoseSet([[[0, 1]] * 4], [[1, 0, 1, 1]])
    assert canon.joints.dtype == np.float64 and canon.joints.shape == (1, 4, 2)
    assert canon.visibility.dtype == bool and canon.visibility.tolist() == [[True, False, True, True]]


def test_embedding_entries_iterate_in_increasing_pose_order():
    # Frames stored at poses 3 then 1 land on rows 2 and 0: rows follow the
    # canonical pose index, not frame order.
    canon = make_canon([grid_pose(6, x).joints for x in (0.0, 0.2, 0.4)])
    frames = (
        FrameRecord(0, np.array([1.0, 0.0]), grid_pose(6, 0.4)),
        FrameRecord(1, np.array([0.0, 1.0]), grid_pose(6, 0.0)),
    )
    record = pose_normalize([Tracklet("t", "a", 0, frames)], canon, 0)
    assert record.observed.tolist() == [[True, False, True]]
    assert record.vectors.tolist() == [[[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]]
    assert record.frequencies.tolist() == [[0.5, 0.0, 0.5]]


def clean_setup():
    canon = make_canon([grid_pose(6, 0.0).joints, grid_pose(6, 0.2).joints])
    tracklets = [
        Tracklet("a", "id1", 0, (frame(0, [1.0, 0.0, 0.0]), frame(1, [0.0, 1.0, 0.0]))),
        Tracklet("b", "id1", 1, (frame(0, [0.0, 0.0, 1.0]),)),
    ]
    return tracklets, canon


def test_clean_dataset_has_no_issues(small_gen):
    tracklets, canon = clean_setup()
    assert validate_dataset(tracklets, canon) == []
    assert (
        validate_dataset(
            small_gen.dataset.tracklets,
            small_gen.canon,
            expected_dim=small_gen.dataset.feature_dim,
            expected_joints=small_gen.dataset.joint_count,
        )
        == []
    )


def codes(issues):
    return [i.code for i in issues]


def test_single_dimension_mismatch_yields_one_finding():
    tracklets, canon = clean_setup()
    tracklets.append(Tracklet("c", "id2", 0, (frame(0, np.zeros(64) + 1.0),)))
    issues = validate_dataset(tracklets, canon, expected_dim=3)
    assert codes(issues) == ["dimension_mismatch"]


def test_duplicate_tracklet_id_detected():
    tracklets, canon = clean_setup()
    tracklets.append(tracklets[0])
    assert "duplicate_tracklet_id" in codes(validate_dataset(tracklets, canon))


def test_empty_tracklet_detected():
    tracklets, canon = clean_setup()
    tracklets.append(Tracklet("c", "id2", 0, ()))
    assert "empty_tracklet" in codes(validate_dataset(tracklets, canon))


def test_duplicate_frame_id_detected():
    tracklets, canon = clean_setup()
    tracklets.append(Tracklet("c", "id2", 0, (frame(0, [1.0, 0, 0]), frame(0, [0, 1.0, 0]))))
    assert "duplicate_frame_id" in codes(validate_dataset(tracklets, canon))


def test_nonfinite_and_zero_features_detected():
    tracklets, canon = clean_setup()
    tracklets.append(Tracklet("c", "id2", 0, (frame(0, [np.nan, 0, 0]),)))
    tracklets.append(Tracklet("d", "id2", 1, (frame(0, [0.0, 0.0, 0.0]),)))
    found = codes(validate_dataset(tracklets, canon))
    assert "nonfinite_feature" in found
    assert "zero_feature" in found


def test_joint_count_mismatch_detected():
    tracklets, canon = clean_setup()
    tracklets.append(Tracklet("c", "id2", 0, (frame(0, [1.0, 0, 0], k=4),)))
    assert "joint_count_mismatch" in codes(validate_dataset(tracklets, canon))


def test_visible_coordinate_out_of_range_detected():
    tracklets, canon = clean_setup()
    bad = PoseVector(joints=np.full((6, 2), 1.5), visibility=np.ones(6, dtype=bool))
    tracklets.append(
        Tracklet("c", "id2", 0, (FrameRecord(0, np.array([1.0, 0, 0]), bad),))
    )
    assert "coordinate_out_of_range" in codes(validate_dataset(tracklets, canon))


def test_invisible_out_of_range_coordinates_are_fine():
    tracklets, canon = clean_setup()
    hidden = PoseVector(joints=np.full((6, 2), 9.0), visibility=np.zeros(6, dtype=bool))
    tracklets.append(
        Tracklet("c", "id2", 0, (FrameRecord(0, np.array([1.0, 0, 0]), hidden),))
    )
    assert "coordinate_out_of_range" not in codes(validate_dataset(tracklets, canon))


#: Coordinates at and beyond the edges of [0, 1], and values no comparison holds for.
EDGE_COORDINATES = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 0.5, np.nextafter(1.0, 2.0),
                                    np.nextafter(0.0, -1.0), 5e-324, -5e-324, 2.0, -2.0])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), k=st.integers(1, 4))
def test_out_of_range_flags_are_those_of_the_per_coordinate_rule(data, n, k):
    """A frame is flagged iff a visible joint has a coordinate that is not in [0, 1] (NaN included)."""
    def drawn(values, size):
        return np.array(data.draw(st.lists(values, min_size=size, max_size=size)))

    joints = drawn(EDGE_COORDINATES, n * k * 2).reshape(n, k, 2)
    visibility = drawn(st.booleans(), n * k).reshape(n, k)
    frames = PackedFrames(np.arange(n, dtype=np.int64), np.ones((n, 3)), joints, visibility)
    inside = ((joints >= 0.0) & (joints <= 1.0)).all(axis=2)
    expected = [any(v and not ok for v, ok in zip(vis, row)) for vis, row in zip(visibility, inside)]
    assert _frame_defects(frames)[0][:, 2].tolist() == expected


def test_duplicate_canonical_poses_detected():
    tracklets, _ = clean_setup()
    canon = make_canon([grid_pose(6, 0.0).joints, grid_pose(6, 0.0).joints])
    assert "canon_duplicate" in codes(validate_dataset(tracklets, canon))


def test_canon_duplicates_compare_common_visible_joints_pair_by_pair():
    tracklets, _ = clean_setup()
    joints = np.array([grid_pose(6, x).joints for x in (0.0, 0.2, 0.0, 0.2, 0.4)])
    joints[4, :3] = joints[0, :3]  # pose 5 shares pose 1's visible joints only
    visibility = np.ones((5, 6), dtype=bool)
    visibility[4, 3:] = False
    joints[3, 5] = 0.9  # pose 4 differs from pose 2 on a joint that pose 2 hides
    visibility[1, 5] = False
    issues = validate_dataset(tracklets, make_canon(joints, visibility))
    assert [str(i) for i in issues] == [
        "[canon_duplicate] canonical poses 1 and 3 coincide on their common joints",
        "[canon_duplicate] canonical poses 1 and 5 coincide on their common joints",
        "[canon_duplicate] canonical poses 2 and 4 coincide on their common joints",
        "[canon_duplicate] canonical poses 3 and 5 coincide on their common joints",
    ]
    blind = visibility.copy()
    blind[0], blind[2] = [True] * 3 + [False] * 3, [False] * 3 + [True] * 3  # no common joint
    assert "poses 1 and 3" not in str(validate_dataset(tracklets, make_canon(joints, blind)))


def test_canon_joint_mismatch_detected():
    tracklets, canon = clean_setup()
    assert "canon_joint_mismatch" in codes(
        validate_dataset(tracklets, canon, expected_joints=5)
    )


def test_every_defect_is_reported_once_in_order():
    # One dataset with every defect at once: the exact report pins which
    # findings validate_dataset emits and in what order.
    hidden = PoseVector(joints=np.full((6, 2), 9.0), visibility=np.zeros(6, dtype=bool))
    stray = PoseVector(joints=np.full((6, 2), 0.5), visibility=np.ones(6, dtype=bool))
    stray.joints[2] = (0.5, 1.25)
    tracklets = [
        Tracklet("a", "id1", 0, (frame(0, [1.0, 0.0, 0.0]), frame(1, [0.0, 1.0, 0.0]))),
        Tracklet("a", "id1", 1, (frame(0, [0.0, 0.0, 1.0]),)),
        Tracklet("b", "id2", 0, ()),
        Tracklet("c", "id2", 1, (frame(3, [1.0, 1.0, 0.0]), frame(3, [1.0, 0.0, 1.0]),
                                 frame(4, [np.nan, 0.0, 0.0]), frame(5, [0.0, 0.0, 0.0]))),
        Tracklet("d", "id3", 0, (frame(0, [1.0, 2.0, 3.0, 4.0]), frame(1, [np.inf, 0.0, 0.0, 0.0]))),
        Tracklet("e", "id3", 1, (frame(7, [1.0, 0.0, 0.0], k=4, fill=-0.5),)),
        Tracklet("f", "id4", 0, (FrameRecord(0, np.array([1.0, 0.0, 0.0]), hidden),
                                 FrameRecord(1, np.array([0.0, 1.0, 0.0]), stray))),
    ]
    canon = make_canon([grid_pose(6, 0.0).joints, grid_pose(6, 0.0).joints])
    issues = validate_dataset(tracklets, canon, expected_dim=3, expected_joints=6)
    assert [str(i) for i in issues] == [
        "[canon_duplicate] canonical poses 1 and 2 coincide on their common joints",
        "[duplicate_tracklet_id] tracklet id 'a' appears more than once",
        "[empty_tracklet] tracklet 'b' has no frames",
        "[duplicate_frame_id] tracklet 'c' has duplicate frame ids",
        "[nonfinite_feature] tracklet 'c' frame 4: feature contains NaN or Inf",
        "[zero_feature] tracklet 'c' frame 5: all-zero feature vector",
        "[dimension_mismatch] tracklet 'd' frame 0: feature dim 4 != 3",
        "[dimension_mismatch] tracklet 'd' frame 1: feature dim 4 != 3",
        "[nonfinite_feature] tracklet 'd' frame 1: feature contains NaN or Inf",
        "[joint_count_mismatch] tracklet 'e' frame 7: k=4 != 6",
        "[coordinate_out_of_range] tracklet 'e' frame 7: visible joint outside [0, 1] x [0, 1]",
        "[coordinate_out_of_range] tracklet 'f' frame 1: visible joint outside [0, 1] x [0, 1]",
    ]
