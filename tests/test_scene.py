import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracksfm.scene import (
    CoverageError,
    DegenerateViewError,
    DuplicateObservationError,
    IndexRangeError,
    InfeasibleVisibilityError,
    MalformedSceneError,
    Scene,
    SceneError,
    SceneGenConfig,
    SingularIntrinsicsError,
    EmptySubsceneError,
    generate_synthetic,
    load_scene,
    normalize_euclidean,
    normalize_hartley,
    save_scene,
    subsample_views,
)

from conftest import make_scene, gt_reconstruction
from tracksfm.objective import loss
from tracksfm.train import inject_outliers


def write_scene_json(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


MINIMAL = {
    "num_views": 2,
    "num_points": 2,
    "mode": "euclidean",
    "observations": [[0, 0, 0.1, 0.2], [0, 1, 0.3, 0.4],
                     [1, 0, 0.5, 0.6], [1, 1, 0.7, 0.8]],
}


class TestLoadScene:
    def test_minimal_valid(self, tmp_path):
        scene = load_scene(write_scene_json(tmp_path, MINIMAL))
        assert scene.num_observations == 4
        assert scene.num_views == 2 and scene.num_points == 2

    def test_duplicate_observation(self, tmp_path):
        doc = dict(MINIMAL)
        doc["observations"] = MINIMAL["observations"] + [[0, 0, 9.0, 9.0]]
        with pytest.raises(DuplicateObservationError):
            load_scene(write_scene_json(tmp_path, doc))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MalformedSceneError):
            load_scene(path)

    def test_index_out_of_range(self, tmp_path):
        doc = dict(MINIMAL)
        doc["observations"] = MINIMAL["observations"][:3] + [[1, 2, 0.7, 0.8]]
        with pytest.raises(IndexRangeError):
            load_scene(write_scene_json(tmp_path, doc))

    def test_undercovered_point(self, tmp_path):
        doc = {
            "num_views": 2, "num_points": 3, "mode": "euclidean",
            "observations": [[0, 0, 0.0, 0.0], [0, 1, 1.0, 0.0], [0, 2, 2.0, 0.0],
                             [1, 0, 0.0, 1.0], [1, 1, 1.0, 1.0]],
        }
        with pytest.raises(CoverageError):
            load_scene(write_scene_json(tmp_path, doc))

    def test_missing_field(self, tmp_path):
        doc = dict(MINIMAL)
        del doc["mode"]
        with pytest.raises(MalformedSceneError):
            load_scene(write_scene_json(tmp_path, doc))

    def test_observation_not_a_list(self, tmp_path):
        doc = dict(MINIMAL, observations=[1, 2, 3])
        with pytest.raises(MalformedSceneError, match="observations"):
            load_scene(write_scene_json(tmp_path, doc))

    @pytest.mark.parametrize("poses", [[1, 2], [[1, 0, 0, 0], [0, 0, 0]], 7],
                             ids=["numbers", "lists", "number"])
    def test_gt_poses_not_objects(self, tmp_path, poses):
        doc = dict(MINIMAL, gt_poses=poses)
        with pytest.raises(MalformedSceneError, match="gt_poses"):
            load_scene(write_scene_json(tmp_path, doc))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_observation(self, tmp_path, bad):
        doc = dict(MINIMAL)
        doc["observations"] = MINIMAL["observations"][:3] + [[1, 1, 0.7, bad]]
        with pytest.raises(MalformedSceneError, match="finite"):
            load_scene(write_scene_json(tmp_path, doc))

    @pytest.mark.parametrize("field", ["intrinsics", "gt_quats", "gt_centers", "gt_points"])
    def test_nonfinite_field(self, field):
        _, raw, _ = make_scene(seed=1)
        bad = getattr(raw, field).copy()
        bad.flat[-1] = np.nan
        with pytest.raises(MalformedSceneError, match=f"{field} must be finite"):
            replace(raw, **{field: bad})

    @pytest.mark.parametrize("field", ["num_views", "num_points"])
    def test_negative_size(self, tmp_path, field):
        doc = dict(MINIMAL, observations=[], **{field: -1})
        with pytest.raises(MalformedSceneError, match="negative"):
            load_scene(write_scene_json(tmp_path, doc))

    @pytest.mark.parametrize("field", ["num_views", "num_points"])
    def test_size_beyond_observations(self, tmp_path, field):
        """A size that four observations cannot cover is rejected before
        anything is allocated for it."""
        with pytest.raises(CoverageError, match="need at least"):
            load_scene(write_scene_json(tmp_path, dict(MINIMAL, **{field: 10**30})))

    @pytest.mark.parametrize("value", [[2], None, 2.7, "2", True],
                             ids=["list", "null", "float", "string", "bool"])
    @pytest.mark.parametrize("field", ["num_views", "num_points"])
    def test_size_of_wrong_type(self, tmp_path, field, value):
        doc = dict(MINIMAL, **{field: value})
        with pytest.raises(MalformedSceneError, match=f"{field} must be a non-negative integer"):
            load_scene(write_scene_json(tmp_path, doc))


# A JSON value of each type that no scene field takes in this form: the
# array fields take lists of lists of numbers, not of numbers.
WRONG_VALUES = {"list": [1, 2], "null": None, "string": "euclidean?", "float": 2.5,
                "bool": True, "object": {"q": [1, 0, 0, 0]}}
OPTIONAL_FIELDS = ("intrinsics", "gt_poses", "gt_points")


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        """Observation multiset, intrinsics, and ground truth survive a
        save/load cycle bit-exactly."""
        for seed in range(5):
            scene = generate_synthetic(
                SceneGenConfig(num_views=4, num_points=15, visibility=0.8,
                               noise_sigma=0.01), seed=seed)
            path = tmp_path / f"s{seed}.json"
            save_scene(scene, path)
            back = load_scene(path)
            np.testing.assert_array_equal(back.view_idx, scene.view_idx)
            np.testing.assert_array_equal(back.point_idx, scene.point_idx)
            np.testing.assert_array_equal(back.xy, scene.xy)
            np.testing.assert_array_equal(back.intrinsics, scene.intrinsics)
            np.testing.assert_array_equal(back.gt_quats, scene.gt_quats)
            np.testing.assert_array_equal(back.gt_centers, scene.gt_centers)
            np.testing.assert_array_equal(back.gt_points, scene.gt_points)


class TestNormalizeEuclidean:
    def test_identity_calibration(self):
        _, raw, _ = make_scene(seed=1)
        normalized, _ = normalize_euclidean(raw)
        np.testing.assert_array_equal(normalized.xy, raw.xy)

    def test_diagonal_scaling(self):
        doc = dict(MINIMAL)
        doc["observations"] = [[0, 0, 4.0, 6.0], [0, 1, 2.0, 2.0],
                               [1, 0, 0.0, 0.0], [1, 1, 1.0, 1.0]]
        doc["intrinsics"] = [[2.0, 0, 0, 0, 2.0, 0, 0, 0, 1.0]] * 2
        scene = Scene(num_views=2, num_points=2,
                      view_idx=[0, 0, 1, 1], point_idx=[0, 1, 0, 1],
                      xy=[[4.0, 6.0], [2.0, 2.0], [0.0, 0.0], [1.0, 1.0]],
                      intrinsics=np.array(doc["intrinsics"]).reshape(2, 3, 3))
        normalized, _ = normalize_euclidean(scene)
        np.testing.assert_allclose(normalized.xy[0], [2.0, 3.0])

    def test_inverse_round_trip(self, rng):
        """Applying K to normalized points recovers the originals."""
        _, raw, _ = make_scene(num_views=4, num_points=10, seed=2)
        K = np.tile(np.eye(3), (4, 1, 1))
        K[:, 0, 0] = rng.uniform(500, 1500, size=4)
        K[:, 1, 1] = rng.uniform(500, 1500, size=4)
        K[:, 0, 2] = rng.uniform(-50, 50, size=4)
        K[:, 1, 2] = rng.uniform(-50, 50, size=4)
        from dataclasses import replace
        scene = replace(raw, intrinsics=K)
        normalized, record = normalize_euclidean(scene)
        restored = record.to_pixels(normalized.view_idx, normalized.xy)
        np.testing.assert_allclose(restored, scene.xy, atol=1e-10)

    def test_singular_intrinsics(self):
        _, raw, _ = make_scene(seed=1)
        K = np.tile(np.eye(3), (raw.num_views, 1, 1))
        K[0, 0, 0] = 0.0
        from dataclasses import replace
        with pytest.raises(SingularIntrinsicsError):
            normalize_euclidean(replace(raw, intrinsics=K))

    def test_requires_intrinsics(self):
        scene, _, _ = make_scene(seed=1)   # already normalized, K dropped
        with pytest.raises(SceneError):
            normalize_euclidean(scene)


class TestNormalizeHartley:
    def test_hand_computed(self):
        """Two points (0,0), (2,0): centroid (1,0), mean distance 1, so the
        normalized points are (-sqrt2, 0) and (sqrt2, 0)."""
        scene = Scene(num_views=2, num_points=2,
                      view_idx=[0, 0, 1, 1], point_idx=[0, 1, 0, 1],
                      xy=[[0.0, 0.0], [2.0, 0.0], [5.0, 1.0], [7.0, 3.0]],
                      mode="projective")
        normalized, _ = normalize_hartley(scene)
        s2 = np.sqrt(2.0)
        np.testing.assert_allclose(normalized.xy[0], [-s2, 0.0], atol=1e-12)
        np.testing.assert_allclose(normalized.xy[1], [s2, 0.0], atol=1e-12)

    def test_fixed_point(self):
        scene, _, _ = make_scene(num_views=3, num_points=12, seed=4, mode="projective")
        once, _ = normalize_hartley(scene)
        twice, record = normalize_hartley(once)
        np.testing.assert_allclose(record.transforms,
                                   np.tile(np.eye(3), (3, 1, 1)), atol=1e-12)

    def test_property(self):
        """Per view: centroid within 1e-12, mean radius sqrt2 within 1e-10."""
        for seed in range(10):
            scene, _, _ = make_scene(num_views=4, num_points=20, seed=seed,
                                     mode="projective")
            normalized, _ = normalize_hartley(scene)
            for i in range(scene.num_views):
                pts = normalized.xy[normalized.view_idx == i]
                assert np.abs(pts.mean(axis=0)).max() <= 1e-12
                mean_r = np.linalg.norm(pts, axis=1).mean()
                assert abs(mean_r - np.sqrt(2.0)) <= 1e-10

    def test_coincident_points(self):
        scene = Scene(num_views=2, num_points=2,
                      view_idx=[0, 0, 1, 1], point_idx=[0, 1, 0, 1],
                      xy=[[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [1.0, 0.0]],
                      mode="projective")
        with pytest.raises(DegenerateViewError):
            normalize_hartley(scene)

    def test_wrong_mode(self):
        scene, _, _ = make_scene(seed=0)
        with pytest.raises(SceneError):
            normalize_hartley(scene)


class TestGenerateSynthetic:
    def test_zero_noise_zero_reprojection(self):
        scene, raw, _ = make_scene(num_views=5, num_points=30, seed=9)
        _, report = loss(scene, gt_reconstruction(raw))
        assert report.mean_reprojection <= 1e-10
        assert report.hinge_count == 0

    def test_determinism(self):
        cfg = SceneGenConfig(num_views=5, num_points=30, visibility=0.7)
        a = generate_synthetic(cfg, seed=77)
        b = generate_synthetic(cfg, seed=77)
        np.testing.assert_array_equal(a.xy, b.xy)
        np.testing.assert_array_equal(a.gt_points, b.gt_points)
        np.testing.assert_array_equal(a.gt_quats, b.gt_quats)

    def test_coverage_constraints(self):
        """Every point in >= 2 views and every view >= 8 points, across
        100 seeds at 60% visibility."""
        cfg = SceneGenConfig(num_views=10, num_points=100, visibility=0.6)
        for seed in range(100):
            scene = generate_synthetic(cfg, seed=seed)
            assert np.bincount(scene.point_idx, minlength=100).min() >= 2
            assert np.bincount(scene.view_idx, minlength=10).min() >= 8

    def test_infeasible_requests(self):
        with pytest.raises(InfeasibleVisibilityError):
            generate_synthetic(SceneGenConfig(num_views=1, num_points=20), seed=0)
        with pytest.raises(InfeasibleVisibilityError):
            generate_synthetic(SceneGenConfig(num_views=5, num_points=4), seed=0)
        with pytest.raises(InfeasibleVisibilityError):
            generate_synthetic(SceneGenConfig(visibility=0.0), seed=0)


class TestSubsampleViews:
    def test_full_subset_is_identity(self):
        scene, _, _ = make_scene(num_views=6, num_points=20, visibility=0.8, seed=5)
        sub, maps = subsample_views(scene, np.arange(6))
        np.testing.assert_array_equal(maps.view_map, np.arange(6))
        np.testing.assert_array_equal(sub.xy, scene.xy)

    def test_drops_undercovered_points(self):
        scene = Scene(num_views=3, num_points=3,
                      view_idx=[0, 0, 0, 1, 1, 2, 2, 1, 2],
                      point_idx=[0, 1, 2, 0, 1, 0, 1, 2, 2],
                      xy=np.arange(18, dtype=float).reshape(9, 2))
        # dropping view 0 leaves point 2 in views {1, 2}: fine;
        # dropping views {0, 1} leaves every point in one view only
        sub, maps = subsample_views(scene, [1, 2])
        assert sub.num_points == 3
        with pytest.raises(EmptySubsceneError):
            subsample_views(scene, [0])

    def test_random_subsets_keep_invariants(self, rng):
        """Scene construction enforces the invariants, so surviving
        construction is the property under test."""
        scene, _, _ = make_scene(num_views=8, num_points=40, visibility=0.6, seed=6)
        for _ in range(25):
            k = int(rng.integers(2, 8))
            subset = rng.choice(8, size=k, replace=False)
            try:
                sub, maps = subsample_views(scene, subset)
            except EmptySubsceneError:
                continue
            assert sub.num_views == len(maps.view_map)
            assert sub.num_points == len(maps.point_map)
            # provenance maps point at the original coordinates
            orig_xy = scene.xy[(scene.view_idx == maps.view_map[0])
                               & (scene.point_idx == maps.point_map[0])]
            sub_xy = sub.xy[(sub.view_idx == 0) & (sub.point_idx == 0)]
            if len(orig_xy) and len(sub_xy):
                np.testing.assert_array_equal(orig_xy, sub_xy)

    def test_bad_subsets(self):
        scene, _, _ = make_scene(seed=0)
        with pytest.raises(EmptySubsceneError):
            subsample_views(scene, [])
        with pytest.raises(IndexRangeError):
            subsample_views(scene, [0, 99])
        with pytest.raises(IndexRangeError):
            subsample_views(scene, [1, 1])


class TestImmutability:
    def test_arrays_frozen(self):
        scene, _, _ = make_scene(seed=0)
        with pytest.raises(ValueError):
            scene.xy[0, 0] = 9.9


class TestCanonicalOrder:
    def test_sorted_input_skips_the_sort(self, monkeypatch):
        """Observations already in strictly increasing (view, point) order
        are taken as given, with no lexsort, and writable inputs are
        copied; shuffled ones are sorted. Both give the same arrays."""
        scene, _, _ = make_scene(num_views=6, num_points=30, visibility=0.7, seed=2)
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
        vi, pi, xy = scene.view_idx.copy(), scene.point_idx.copy(), scene.xy.copy()
        same = replace(scene, view_idx=vi, point_idx=pi, xy=xy)
        assert sorts == []
        vi[0] = 5                                    # the caller's array stays its own
        assert same.view_idx[0] == scene.view_idx[0]
        assert not same.view_idx.flags.writeable
        perm = np.random.default_rng(0).permutation(scene.num_observations)
        shuffled = replace(scene, view_idx=scene.view_idx[perm],
                           point_idx=scene.point_idx[perm], xy=scene.xy[perm])
        assert sorts == [1]
        for got in (same, shuffled):
            np.testing.assert_array_equal(got.view_idx, scene.view_idx)
            np.testing.assert_array_equal(got.point_idx, scene.point_idx)
            np.testing.assert_array_equal(got.xy, scene.xy)

    def test_duplicate_in_sorted_input_rejected(self):
        scene, _, _ = make_scene(num_views=4, num_points=12, seed=1)
        rows = np.insert(np.arange(scene.num_observations), 2, 1)
        with pytest.raises(DuplicateObservationError):
            replace(scene, view_idx=scene.view_idx[rows], point_idx=scene.point_idx[rows],
                    xy=scene.xy[rows])


class TestIncidence:
    @staticmethod
    def check(scene):
        inc = scene.incidence
        np.testing.assert_array_equal(inc.point_order,
                                      np.argsort(scene.point_idx, kind="stable"))
        for bounds, idx, size in ((inc.view_bounds, scene.view_idx, scene.num_views),
                                  (inc.point_bounds, scene.point_idx, scene.num_points)):
            np.testing.assert_array_equal(np.diff(bounds), np.bincount(idx, minlength=size))
            assert bounds[0] == 0
        for i in range(scene.num_views):
            lo, hi = inc.view_bounds[i], inc.view_bounds[i + 1]
            assert (scene.view_idx[lo:hi] == i).all()
        for j in range(scene.num_points):
            lo, hi = inc.point_bounds[j], inc.point_bounds[j + 1]
            assert (scene.point_idx[inc.point_order[lo:hi]] == j).all()

    def test_matches_sort_and_counts(self):
        scene, _, _ = make_scene(num_views=7, num_points=50, visibility=0.6, seed=3)
        self.check(scene)
        assert scene.incidence is scene.incidence          # computed once
        with pytest.raises(ValueError):
            scene.incidence.point_order[0] = 1

    def test_derived_scenes_carry_their_own(self, rng):
        scene, _, _ = make_scene(num_views=8, num_points=60, visibility=0.7, seed=4)
        scene.incidence                                   # cache it on the parent
        derived = [
            replace(scene, point_idx=scene.num_points - 1 - scene.point_idx),
            subsample_views(scene, [0, 2, 3, 5, 7])[0],
            inject_outliers(scene, 0.1, rng)[0],
        ]
        for sub in derived:
            assert sub.incidence is not scene.incidence
            self.check(sub)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(views=st.integers(2, 6), points=st.integers(8, 20), visibility=st.floats(0.3, 1.0),
       noise=st.sampled_from([0.0, 0.01]), mode=st.sampled_from(["euclidean", "projective"]),
       ground_truth=st.booleans(), seed=st.integers(0, 2**32 - 1),
       field=st.sampled_from(["num_views", "num_points", "mode", "observations",
                              *OPTIONAL_FIELDS]),
       kind=st.sampled_from(sorted(WRONG_VALUES)))
def test_scene_json_round_trip_property(views, points, visibility, noise, mode, ground_truth,
                                        seed, field, kind):
    """save_scene then load_scene returns bit-equal arrays; the file with one
    top-level field replaced by a value of the wrong JSON type raises
    MalformedSceneError and nothing else."""
    scene = generate_synthetic(SceneGenConfig(views, points, visibility, noise, mode=mode),
                               seed=seed)
    if not ground_truth:
        scene = replace(scene, gt_quats=None, gt_centers=None, gt_points=None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        save_scene(scene, path)
        back = load_scene(path)
        doc = json.loads(path.read_text())
        if not (kind == "null" and field in OPTIONAL_FIELDS):     # null: field absent
            doc[field] = WRONG_VALUES[kind]
            path.write_text(json.dumps(doc))
            with pytest.raises(MalformedSceneError):
                load_scene(path)
    assert (back.num_views, back.num_points, back.mode) == (views, points, mode)
    for name in ("view_idx", "point_idx", "xy", "intrinsics", "gt_quats", "gt_centers",
                 "gt_points"):
        a, b = getattr(scene, name), getattr(back, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


SCENE_ARRAYS = ("view_idx", "point_idx", "xy", "intrinsics", "gt_quats", "gt_centers",
                "gt_points")


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(views=st.integers(2, 8), points=st.integers(8, 24), visibility=st.floats(0.3, 1.0),
       mode=st.sampled_from(["euclidean", "projective"]), ground_truth=st.booleans(),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_subsample_views_property(views, points, visibility, mode, ground_truth, seed, data):
    """For any scene and any subset of its views (in any order),
    subsample_views raises EmptySubsceneError and nothing else, or returns
    a scene whose view map is the kept part of the subset in subset order,
    whose point map is sorted, whose observations are exactly the
    original's between the kept views and points, and whose per-view and
    per-point arrays are the original rows at the mapped indices.
    Subsampling that scene with all of its views gives it back with
    identity maps."""
    scene = generate_synthetic(SceneGenConfig(views, points, visibility, mode=mode), seed=seed)
    if not ground_truth:
        scene = replace(scene, gt_quats=None, gt_centers=None, gt_points=None)
    subset = data.draw(st.lists(st.integers(0, views - 1), min_size=1, max_size=views,
                                unique=True))
    try:
        sub, maps = subsample_views(scene, subset)
    except EmptySubsceneError:
        return
    view_map, point_map = maps.view_map, maps.point_map
    assert view_map.tolist() == [v for v in subset if v in view_map]
    assert (np.diff(point_map) > 0).all()
    assert (sub.num_views, sub.num_points) == (view_map.size, point_map.size)
    kept = np.isin(scene.view_idx, view_map) & np.isin(scene.point_idx, point_map)
    original = {(v, p): xy for v, p, xy in
                zip(scene.view_idx[kept], scene.point_idx[kept], scene.xy[kept].tolist())}
    mapped = {(v, p): xy for v, p, xy in
              zip(view_map[sub.view_idx], point_map[sub.point_idx], sub.xy.tolist())}
    assert mapped == original
    for name, rows in (("intrinsics", view_map), ("gt_quats", view_map),
                       ("gt_centers", view_map), ("gt_points", point_map)):
        a, b = getattr(scene, name), getattr(sub, name)
        assert (a is None) == (b is None), name
        if a is not None:
            np.testing.assert_array_equal(b, a[rows], err_msg=name)
    again, identity = subsample_views(sub, np.arange(sub.num_views))
    np.testing.assert_array_equal(identity.view_map, np.arange(sub.num_views))
    np.testing.assert_array_equal(identity.point_map, np.arange(sub.num_points))
    assert (again.num_views, again.num_points, again.mode) == (
        sub.num_views, sub.num_points, sub.mode)
    for name in SCENE_ARRAYS:
        a, b = getattr(sub, name), getattr(again, name)
        assert (a is None) == (b is None), name
        if a is not None:
            np.testing.assert_array_equal(b, a, err_msg=name)
