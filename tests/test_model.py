"""Domain types and the validate_dataset invariant checker."""

import numpy as np
import pytest

from pdsr import CanonicalPoseSet, Dataset, FrameRecord, PoseVector, Tracklet, validate_dataset
from pdsr.model import PackedFrames, pack
from pdsr.regulation import pose_normalize


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


def test_pose_vector_shape_validation():
    with pytest.raises(ValueError):
        PoseVector(joints=np.zeros((4, 3)), visibility=np.ones(4, dtype=bool))
    with pytest.raises(ValueError):
        PoseVector(joints=np.zeros((4, 2)), visibility=np.ones(5, dtype=bool))


def test_frame_feature_must_be_1d():
    with pytest.raises(ValueError):
        FrameRecord(frame_id=0, feature=np.zeros((2, 2)), pose=pose())


def test_tracklet_holds_frames_by_ascending_id_with_duplicates_in_storage_order():
    stored = (frame(2, [1.0, 0.0]), frame(0, [0.0, 1.0]), frame(2, [0.0, 2.0]), frame(1, [1.0, 1.0]))
    t = Tracklet(tracklet_id="t", identity="a", camera=0, frames=stored)
    assert isinstance(t.frames, PackedFrames)
    assert t.frames.frame_ids.tolist() == [0, 1, 2, 2]
    assert t.frames.features.tolist() == [[0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 2.0]]


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
    canon = CanonicalPoseSet(poses=(pose(fill=0.1), pose(fill=0.9)))
    assert np.allclose(canon.pose(1).joints, 0.1)
    assert np.allclose(canon.pose(2).joints, 0.9)
    assert list(canon.indices) == [1, 2]
    with pytest.raises(IndexError):
        canon.pose(0)
    with pytest.raises(IndexError):
        canon.pose(3)
    with pytest.raises(ValueError):
        CanonicalPoseSet(poses=())


def test_embedding_entries_iterate_in_increasing_pose_order():
    # Frames stored at poses 3 then 1 land on rows 2 and 0: rows follow the
    # canonical pose index, not frame order.
    canon = CanonicalPoseSet(poses=tuple(grid_pose(6, x) for x in (0.0, 0.2, 0.4)))
    frames = (
        FrameRecord(0, np.array([1.0, 0.0]), grid_pose(6, 0.4)),
        FrameRecord(1, np.array([0.0, 1.0]), grid_pose(6, 0.0)),
    )
    record = pose_normalize([Tracklet("t", "a", 0, frames)], canon, 0)
    assert record.observed.tolist() == [[True, False, True]]
    assert record.vectors.tolist() == [[[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]]
    assert record.frequencies.tolist() == [[0.5, 0.0, 0.5]]


def clean_setup():
    canon = CanonicalPoseSet(poses=(grid_pose(6, 0.0), grid_pose(6, 0.2)))
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


def test_duplicate_canonical_poses_detected():
    tracklets, _ = clean_setup()
    canon = CanonicalPoseSet(poses=(grid_pose(6, 0.0), grid_pose(6, 0.0)))
    assert "canon_duplicate" in codes(validate_dataset(tracklets, canon))


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
    canon = CanonicalPoseSet(poses=(grid_pose(6, 0.0), grid_pose(6, 0.0), grid_pose(5, 0.1)))
    issues = validate_dataset(tracklets, canon, expected_dim=3, expected_joints=6)
    assert [str(i) for i in issues] == [
        "[canon_joint_mismatch] canonical pose 3 has k=5, expected 6",
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
