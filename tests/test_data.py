"""Synthetic generation, file formats, proposals, labeling, pooling."""

import itertools
import json
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import label_proposals_oracle, pool_k_parts_oracle, prototype_at, tiou
from utal.data import (
    DataConfig,
    Dataset,
    ProposalConfig,
    UnitFeatureSequence,
    VideoItem,
    build_training_set,
    class_prototypes,
    class_ramp_directions,
    compute_offsets,
    generate_synthetic_dataset,
    label_proposals,
    load_dataset,
    pairwise_tiou,
    pool_k_parts,
    sliding_windows,
)
from utal.detect import apply_offsets
from utal.errors import ConfigError


def _hash_tree(root):
    import hashlib

    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestGeneration:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = DataConfig(num_videos=6, t_range=(64, 96))
        generate_synthetic_dataset(cfg, 21, tmp_path / "a")
        generate_synthetic_dataset(cfg, 21, tmp_path / "b")
        assert _hash_tree(tmp_path / "a") == _hash_tree(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        cfg = DataConfig(num_videos=4)
        generate_synthetic_dataset(cfg, 1, tmp_path / "a")
        generate_synthetic_dataset(cfg, 2, tmp_path / "b")
        assert _hash_tree(tmp_path / "a") != _hash_tree(tmp_path / "b")

    def test_zero_noise_interior_units_equal_prototype_pattern(self, tmp_path):
        cfg = DataConfig(num_videos=3, noise_level=0.0, boundary_jitter=0.0)
        dataset, _ = generate_synthetic_dataset(cfg, 5, tmp_path)
        protos = class_prototypes(5, cfg.num_classes, cfg.d_feat)
        ramp_dirs = class_ramp_directions(5, protos)
        checked = 0
        for item in dataset.videos:
            for class_id, start, end in item.annotations:
                s, e = int(start), int(end)
                for u in range(s, e):
                    rel = (u + 0.5 - s) / (e - s)
                    expected = prototype_at(protos, ramp_dirs, int(class_id), rel).astype(np.float32)
                    np.testing.assert_array_equal(item.sequence.features[u], expected)
                    checked += 1
        assert checked > 0

    def test_background_is_zero_at_zero_noise(self, tmp_path):
        cfg = DataConfig(num_videos=2, noise_level=0.0, boundary_jitter=0.0)
        dataset, _ = generate_synthetic_dataset(cfg, 5, tmp_path)
        item = dataset.videos[0]
        inside = np.zeros(item.sequence.num_units, dtype=bool)
        for _, start, end in item.annotations:
            inside[int(start) : int(end)] = True
        assert not item.sequence.features[~inside].any()

    def test_nearest_prototype_classifier_on_interior_units(self, tmp_path):
        cfg = DataConfig(num_videos=20, boundary_jitter=0.0)
        dataset, _ = generate_synthetic_dataset(cfg, 9, tmp_path)
        protos = class_prototypes(9, cfg.num_classes, cfg.d_feat)
        correct = total = 0
        for item in dataset.videos:
            for class_id, start, end in item.annotations:
                units = item.sequence.features[int(start) : int(end)]
                dists = np.linalg.norm(units[:, None, :] - protos[None, :, :], axis=2)
                correct += int((dists.argmin(axis=1) == class_id).sum())
                total += units.shape[0]
        assert total > 500
        assert correct / total > 0.99

    def test_invalid_config_names_field(self):
        with pytest.raises(ConfigError, match="num_videos"):
            DataConfig(num_videos=0).validate()
        with pytest.raises(ConfigError, match="d_feat"):
            DataConfig(d_feat=4).validate()
        with pytest.raises(ConfigError, match="noise_level"):
            DataConfig(noise_level=-1.0).validate()

    @pytest.mark.parametrize("t_range", [(64,), (64, 128, 3)])
    def test_t_range_of_other_than_two_values_names_field(self, t_range):
        with pytest.raises(ConfigError, match="t_range"):
            DataConfig(t_range=t_range).validate()

    @given(
        n=st.integers(1, 12),
        quotient=st.integers(11, 15),
        rest=st.integers(0, 11),
        extra=st.integers(0, 6),
        seed=st.integers(0, 2**16),
    )
    @example(n=5, quotient=12, rest=1, extra=0, seed=0)  # t_range 61, 61: 61 // 5 is 12
    @settings(max_examples=60, deadline=None)
    def test_every_accepted_config_generates(self, n, quotient, rest, extra, seed):
        """Slot bounds round inward and can cost a slot one unit, so validate
        refuses t_range lo // instances_per_video below 13; every config it
        accepts generates, the slots that lose a unit included."""
        lo = max(16, n * quotient + rest % n)
        cfg = DataConfig(num_videos=3, t_range=(lo, lo + extra), d_feat=8, instances_per_video=n)
        try:
            cfg.validate()
        except ConfigError:
            assert lo // n < 13
            return
        with tempfile.TemporaryDirectory() as out:
            dataset, _ = generate_synthetic_dataset(cfg, seed, out)
        assert all(len(item.annotations) == n for item in dataset.videos)

    def test_jittered_annotation_keeps_majority_overlap(self, tmp_path):
        cfg = DataConfig(num_videos=40, boundary_jitter=1.0)
        dataset, _ = generate_synthetic_dataset(cfg, 3, tmp_path)
        clean, _ = generate_synthetic_dataset(
            DataConfig(num_videos=40, boundary_jitter=0.0), 3, tmp_path / "clean"
        )
        moved = 0
        for jit_item, cl_item in zip(dataset.videos, clean.videos):
            for ja, ca in zip(jit_item.annotations, cl_item.annotations):
                assert ja[0] == ca[0]
                t = tiou((ja[1], ja[2]), (ca[1], ca[2]))
                assert 0.54 <= t <= 1.0
                if t < 1.0:
                    moved += 1
        assert moved > 50  # jitter fraction 1.0 affects nearly every instance

    def test_videos_come_back_in_id_order(self, tmp_path):
        """Index order is id order only up to vid9999: vid10000 sorts right after
        vid1000. The manifest keeps index order."""
        cfg = DataConfig(num_videos=10_001, t_range=(16, 16), d_feat=8, instances_per_video=1)
        dataset, manifest = generate_synthetic_dataset(cfg, 7, tmp_path)
        ids = [item.sequence.video_id for item in dataset.videos]
        assert ids == sorted(ids) and ids[1000:1003] == ["vid1000", "vid10000", "vid1001"]
        assert json.loads(manifest.read_text())["videos"][-1]["video_id"] == "vid10000"


class TestManifestRoundTrip:
    def test_loader_accepts_generated_manifest(self, tmp_path):
        cfg = DataConfig(num_videos=4)
        dataset, manifest = generate_synthetic_dataset(cfg, 13, tmp_path)
        loaded = load_dataset(manifest)
        assert loaded.num_videos == dataset.num_videos
        assert loaded.d_feat == dataset.d_feat
        assert loaded.class_names == dataset.class_names
        assert loaded.num_classes == dataset.num_classes == 5
        for a, b in zip(loaded.videos, dataset.videos):
            assert a.sequence.video_id == b.sequence.video_id
            np.testing.assert_array_equal(a.sequence.features, b.sequence.features)
            assert np.array_equal(a.annotations, b.annotations)

    def test_generated_dataset_is_the_loaded_one(self, tmp_path):
        """Features are float32 in memory as on disk, so both give the same training set."""
        generated, manifest = generate_synthetic_dataset(DataConfig(num_videos=8), 7, tmp_path)
        loaded = load_dataset(manifest)
        for a, b in zip(generated.videos, loaded.videos, strict=True):
            assert a.sequence.features.dtype == b.sequence.features.dtype == np.float32
            assert a.sequence.features.tobytes() == b.sequence.features.tobytes()
            assert b.sequence.features.flags.writeable
            assert a.annotations.dtype == b.annotations.dtype == np.float64
            assert np.array_equal(a.annotations, b.annotations)
        sets = [build_training_set(d, ProposalConfig(), 4) for d in (generated, loaded)]
        for name in ("x", "t_c", "t_off"):
            a, b = (getattr(s, name) for s in sets)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_loaded_annotations_are_float64_rows(self, tmp_path):
        """A video's annotations load as one [A x 3] float64 array of rows
        (class_id, start, end); a record with none gives (0, 3)."""
        cfg = DataConfig(num_videos=2, instances_per_video=2)
        _, manifest = generate_synthetic_dataset(cfg, 13, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["videos"][1]["annotations"] = []
        manifest.write_text(json.dumps(doc))
        first, second = load_dataset(manifest).videos
        records = doc["videos"][0]["annotations"]
        assert first.annotations.dtype == second.annotations.dtype == np.float64
        assert first.annotations.shape == (2, 3) and second.annotations.shape == (0, 3)
        assert first.annotations.tolist() == [[r["class_id"], r["start"], r["end"]] for r in records]

    def test_loader_rejects_corrupt_features(self, tmp_path):
        cfg = DataConfig(num_videos=2)
        _, manifest = generate_synthetic_dataset(cfg, 13, tmp_path)
        victim = next((tmp_path / "features").glob("*.f32"))
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(ConfigError, match="feature file") as err:
            load_dataset(manifest)
        assert str(err.value).startswith(f"manifest {manifest}: video record ")
        assert str(victim) in str(err.value)

    @pytest.mark.parametrize(
        "damage",
        [
            "format_version-1", "T-zero", "T-too-large", "three-extra-bytes", "non-finite",
            "d_feat-zero", "class_names-one", "class_names-non-string", "d_feat-float",
            "class_names-string", "T-float", "T-bool", "class_id-float", "start-string",
            "end-bool", "start-beyond-float", "video_id-list", "video_id-int", "feature_file-int",
            "feature_file-list", "videos-string", "annotations-object", "annotation-past-T",
            "class_id-out-of-range",
        ],
    )
    def test_loader_errors_name_manifest_record_and_file(self, tmp_path, damage):
        _, manifest = generate_synthetic_dataset(DataConfig(num_videos=2), 13, tmp_path)
        doc = json.loads(manifest.read_text())
        record, where = doc["videos"][1], "video record 1"
        feature_file = tmp_path / record["feature_file"]
        if damage == "format_version-1":  # a set written before class_names replaced classes.txt
            doc["format_version"], where = 1, "top level"
            named = "format_version must be 2; regenerate the set with utal gen-data"
        elif damage == "T-zero":
            record["T"], named = 0, "video vid0001: T must be >= 1"
        elif damage == "T-too-large":
            record["T"], named = record["T"] + 1, f"feature file {feature_file} holds"
        elif damage == "three-extra-bytes":  # less than one float more than T x d_feat
            feature_file.write_bytes(feature_file.read_bytes() + b"\0\0\0")
            size = 4 * record["T"] * doc["d_feat"]
            named = f"feature file {feature_file} holds {size + 3} bytes, expected {size}"
        elif damage == "non-finite":
            feats = np.frombuffer(feature_file.read_bytes(), "<f4").copy()
            feats[5] = np.nan
            feature_file.write_bytes(feats.tobytes())
            named = f"non-finite values in feature file {feature_file}"
        elif damage == "d_feat-zero":  # every feature file agrees with it
            doc["d_feat"] = 0
            for rec in doc["videos"]:
                (tmp_path / rec["feature_file"]).write_bytes(b"")
            where, named = "top level", "d_feat must be >= 1, got 0"
        elif damage in ("class_names-one", "class_names-non-string"):
            doc["class_names"] = ["class_00"] if damage == "class_names-one" else ["a", 1, "c"]
            where, named = "top level", "class_names must be a list of two or more strings"
        elif damage == "start-beyond-float":  # a JSON number, but no float holds it
            record["annotations"][0]["start"] = 10**400
            named = "int too large to convert to float"
        elif damage == "annotation-past-T":
            annotation, t_units = record["annotations"][0], record["T"]
            annotation["end"] = t_units + 1
            named = (f"video vid0001: annotation [{float(annotation['start'])}, "
                     f"{float(t_units + 1)}] outside [0, {t_units}]")
        elif damage == "class_id-out-of-range":  # ids index class_names
            record["annotations"][0]["class_id"] = len(doc["class_names"])
            named = f"video vid0001: class_id {len(doc['class_names'])} out of range"
        else:  # a JSON value of the wrong type, which int(), float() or a loop would let through
            annotation = record["annotations"][0]
            owner, key, value, kind = {
                "d_feat-float": (doc, "d_feat", 64.9, "int"),
                "class_names-string": (doc, "class_names", "class_00", "list"),
                "T-float": (record, "T", 94.5, "int"),
                "T-bool": (record, "T", True, "int"),
                "class_id-float": (annotation, "class_id", 3.7, "int"),
                "start-string": (annotation, "start", "1.5", "int or float"),
                "end-bool": (annotation, "end", True, "int or float"),
                "video_id-list": (record, "video_id", ["vid0001"], "str"),
                "video_id-int": (record, "video_id", 1, "str"),
                "feature_file-int": (record, "feature_file", 1, "str"),
                "feature_file-list": (record, "feature_file", [record["feature_file"]], "str"),
                "videos-string": (doc, "videos", "", "list"),
                "annotations-object": (record, "annotations", {}, "list"),
            }[damage]
            owner[key] = value
            if owner is doc:
                where = "top level"
            named = f"{key} must be {kind}, got {value!r}"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_dataset(manifest)
        assert str(err.value).startswith(f"manifest {manifest}: {where}: ")
        assert named in str(err.value)

    def test_manifest_without_class_names_is_config_error(self, tmp_path):
        """The class names come from the manifest alone; there are no default names."""
        _, manifest = generate_synthetic_dataset(DataConfig(num_videos=2), 13, tmp_path)
        doc = json.loads(manifest.read_text())
        del doc["class_names"]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_dataset(manifest)
        assert str(err.value) == f"manifest {manifest}: top level lacks key 'class_names'"

    def test_loader_returns_videos_in_id_order(self, tmp_path):
        """Training, inference and AP walk a dataset's videos as given, so a
        manifest listing its records in reverse loads to the same dataset."""
        dataset, manifest = generate_synthetic_dataset(DataConfig(num_videos=4), 13, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["videos"].reverse()
        manifest.write_text(json.dumps(doc))
        loaded = load_dataset(manifest)
        assert [item.sequence.video_id for item in loaded.videos] == [
            "vid0000", "vid0001", "vid0002", "vid0003"
        ]
        for a, b in zip(loaded.videos, dataset.videos, strict=True):
            assert a.sequence.features.tobytes() == b.sequence.features.tobytes()
            assert a.annotations.tobytes() == b.annotations.tobytes()

    def test_loader_rejects_repeated_video_id(self, tmp_path):
        _, manifest = generate_synthetic_dataset(DataConfig(num_videos=3), 13, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["videos"][2]["video_id"] = doc["videos"][0]["video_id"]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_dataset(manifest)
        assert str(manifest) in str(err.value)
        assert "video record 2 repeats video_id 'vid0000' of video record 0" in str(err.value)

    def test_loader_rejects_missing_manifest(self, tmp_path):
        with pytest.raises(ConfigError):
            load_dataset(tmp_path / "manifest.json")


def _spans(starts, ends):
    return list(zip(starts.tolist(), ends.tolist()))


class TestSlidingWindows:
    def test_hand_enumeration(self):
        assert _spans(*sliding_windows(32, [16], 0.5)) == [(0, 16), (8, 24), (16, 32)]

    def test_zero_overlap_tiles(self):
        spans = _spans(*sliding_windows(64, [16], 0.0))
        assert spans == [(0, 16), (16, 32), (32, 48), (48, 64)]

    def test_scale_longer_than_video(self):
        assert _spans(*sliding_windows(8, [16], 0.5)) == [(0, 8)]

    def test_tail_clamp_window(self):
        spans = _spans(*sliding_windows(33, [16], 0.5))
        assert spans[-1] == (17.0, 33.0)

    def test_last_window_within_slack_of_the_end_gets_no_tail(self):
        # stride 10 * (1 - 0.9) rounds to 1 - 2**-52: the 31st window ends
        # 7e-15 short of T, inside the 1e-9 slack, so no [30, 40] follows it
        starts, ends = sliding_windows(40, [10], 0.9)
        assert starts.size == 31 and 40.0 - 1e-9 < ends[-1] < 40.0

    def test_full_coverage(self):
        for t_units in (17, 32, 63, 100):
            starts, ends = sliding_windows(t_units, [8, 16, 32, 64], 0.75)
            smallest = min(8, t_units)
            covered = np.zeros(t_units)
            for start, end in zip(starts, ends):
                if end - start <= smallest + 1e-9:
                    covered[int(np.floor(start)) : int(np.ceil(end))] = 1
            assert covered.all()

    def test_ordered_by_start_then_scale(self):
        for scales, t_units in itertools.product([(8, 16, 32, 64), (32, 8, 64, 16)], (17, 33, 100)):
            per_scale = [sliding_windows(t_units, [length], 0.75) for length in scales]
            expected = sorted(
                (start, scale_id, end)
                for scale_id, (starts, ends) in enumerate(per_scale)
                for start, end in zip(starts.tolist(), ends.tolist())
            )
            starts, ends = sliding_windows(t_units, scales, 0.75)
            assert _spans(starts, ends) == [(s, e) for s, _, e in expected]


class TestTiou:
    def test_examples(self):
        assert tiou((0, 10), (0, 10)) == 1.0
        assert tiou((0, 5), (6, 10)) == 0.0
        assert tiou((0, 10), (5, 15)) == pytest.approx(1.0 / 3.0)

    @given(
        st.floats(0, 100),
        st.floats(0.1, 50),
        st.floats(0, 100),
        st.floats(0.1, 50),
    )
    @settings(max_examples=300, deadline=None)
    def test_symmetric_and_bounded(self, a0, alen, b0, blen):
        a = (a0, a0 + alen)
        b = (b0, b0 + blen)
        v = tiou(a, b)
        assert v == tiou(b, a)
        assert 0.0 <= v <= 1.0
        if v == 1.0:
            assert a[0] == pytest.approx(b[0]) and a[1] == pytest.approx(b[1])

    def test_pairwise_equals_scalar_exactly(self):
        rng = np.random.default_rng(5)
        starts = rng.uniform(-5, 50, 400)
        ends = starts + rng.uniform(-2, 30, 400)
        starts[::2], ends[::2] = np.round(starts[::2]), np.round(ends[::2])  # shared boundaries
        starts[:20], ends[:20] = starts[20:40], ends[20:40]  # exact duplicates
        matrix = pairwise_tiou(starts[:, None], ends[:, None], starts[None, :], ends[None, :])
        for i in range(len(starts)):
            for j in range(len(starts)):
                assert matrix[i, j] == tiou((starts[i], ends[i]), (starts[j], ends[j]))


def _windows(*spans):
    return np.array([w[0] for w in spans], float), np.array([w[1] for w in spans], float)


def _gt(annotations, windows: int):
    """One video's annotation rows (class_id, start, end), repeated for each of
    its `windows` windows: the [N x A x 3] `label_proposals` takes."""
    rows = np.array(annotations, float).reshape(1, -1, 3)
    return np.broadcast_to(rows, (windows, *rows.shape[1:]))


class TestOffsets:
    def test_hand_example(self):
        assert compute_offsets(*_windows((10.0, 20.0)), np.array([[12.0, 22.0]])).tolist() == [
            [0.2, 0.2]
        ]

    def test_identity(self):
        t_off = compute_offsets(*_windows((5.0, 9.0), (1.0, 3.0)), np.array([[5.0, 9.0], [1.0, 3.0]]))
        assert t_off.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_round_trip_through_apply(self):
        rng = np.random.default_rng(0)
        starts = rng.uniform(0, 50, 100)
        ends = starts + rng.uniform(1, 30, 100)
        gt_starts = rng.uniform(0, 60, 100)
        gt_ends = gt_starts + rng.uniform(1, 30, 100)
        t_off = compute_offsets(starts, ends, np.stack((gt_starts, gt_ends), axis=1))
        assert t_off.shape == (100, 2)
        out_s, out_e = apply_offsets(starts, ends, t_off, 100.0)
        np.testing.assert_allclose(out_s, gt_starts, rtol=0, atol=1e-9)
        np.testing.assert_allclose(out_e, gt_ends, rtol=0, atol=1e-9)


# windows and annotations on a half-unit grid, so ties, shared boundaries
# and exact matches are common
_grid_span = st.tuples(st.integers(0, 40), st.integers(0, 12)).map(
    lambda p: (p[0] / 2.0, (p[0] + p[1]) / 2.0)
)
_thresholds = st.sampled_from([0.0, 0.1, 0.3, 1.0 / 3.0, 0.35, 0.5, 0.7, 1.0])


@st.composite
def _labelling_videos(draw):
    """Videos of different lengths, each with 0, 1 or 3 annotations on a
    half-unit grid inside [0, T] (repeats and shared boundaries included)."""
    videos = []
    for count in draw(st.lists(st.sampled_from([0, 1, 3]), min_size=1, max_size=5)):
        t_units = draw(st.integers(8, 40))
        annotations = []
        for _ in range(count):
            start = draw(st.integers(0, 2 * t_units - 1))
            end = draw(st.integers(start + 1, 2 * t_units))
            annotations.append((draw(st.integers(0, 4)), start / 2, end / 2))
        videos.append((t_units, np.array(annotations, float).reshape(-1, 3)))
    return videos


class TestLabeling:
    def _annotations(self):
        return [(2, 10.0, 20.0), (1, 40.0, 60.0)]

    def _label(self, spans, annotations, pos_thr=0.5, neg_thr=0.3):
        starts, ends = _windows(*spans)
        gt = _gt(annotations, starts.size)
        keep, t_c, t_off = label_proposals(starts, ends, gt, pos_thr, neg_thr)
        return keep.tolist(), t_c.tolist(), t_off.tolist()

    def test_exact_match_is_positive_with_zero_offsets(self):
        assert self._label([(10.0, 20.0)], self._annotations()) == ([0], [2], [[0.0, 0.0]])

    def test_disjoint_is_negative(self):
        assert self._label([(25.0, 35.0)], self._annotations()) == ([0], [-1], [[0.0, 0.0]])

    def test_above_positive_threshold_gets_offsets(self):
        # tIoU 8/12 = 0.667 with [10, 20]
        keep, t_c, t_off = self._label([(12.0, 22.0)], self._annotations())
        assert keep == [0] and t_c == [2]
        assert t_off == [[pytest.approx(-0.2), pytest.approx(-0.2)]]

    def test_band_between_thresholds_is_discarded(self):
        # tIoU 6/16 = 0.375 with [10, 20]
        assert self._label([(14.0, 26.0)], self._annotations()) == ([], [], [])

    def test_tie_matches_earlier_annotation(self):
        anns = [(0, 0.0, 10.0), (1, 10.0, 20.0)]
        # tIoU 1/3 with both
        _, t_c, _ = self._label([(5.0, 15.0)], anns, pos_thr=1.0 / 3.0, neg_thr=0.1)
        assert t_c == [0]

    @given(
        spans=st.lists(_grid_span, max_size=30),
        gts=st.lists(st.tuples(st.integers(0, 4), _grid_span), max_size=5),
        thresholds=st.tuples(_thresholds, _thresholds),
    )
    @example(  # a tie between two annotations, both touching the window's ends
        spans=[(5.0, 15.0)], gts=[(0, (0.0, 10.0)), (1, (10.0, 20.0))],
        thresholds=(1.0 / 3.0, 0.1),
    )
    @example(  # touching and disjoint windows: tIoU 0, never positive
        spans=[(0.0, 10.0), (20.0, 30.0), (12.0, 14.0)], gts=[(3, (10.0, 20.0))],
        thresholds=(0.0, 0.0),
    )
    @example(spans=[(0.0, 8.0), (4.0, 4.0)], gts=[], thresholds=(0.5, 0.3))
    @example(  # pos_thr == neg_thr
        spans=[(0.0, 10.0), (5.0, 10.0), (0.0, 5.0)], gts=[(1, (0.0, 10.0))],
        thresholds=(0.5, 0.5),
    )
    @example(  # pos_thr 1: only exact matches are positive
        spans=[(0.0, 10.0), (0.0, 10.5)], gts=[(2, (0.0, 10.0)), (4, (0.0, 10.0))],
        thresholds=(1.0, 0.2),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_oracle(self, spans, gts, thresholds):
        neg_thr, pos_thr = sorted(thresholds)
        annotations = [(c, s, e) for c, (s, e) in gts if e > s]
        starts, ends = _windows(*spans)
        got = label_proposals(starts, ends, _gt(annotations, starts.size), pos_thr, neg_thr)
        expected = label_proposals_oracle(
            starts.tolist(), ends.tolist(), annotations, pos_thr, neg_thr
        )
        assert [col.tolist() for col in got] == list(expected)

    @given(videos=_labelling_videos(), thresholds=st.tuples(_thresholds, _thresholds))
    @example(
        videos=[
            (20, np.zeros((0, 3))),
            (33, np.array([[1, 4.0, 12.0]])),
            (9, np.array([[0, 0.0, 4.0], [2, 4.0, 8.0], [4, 0.0, 4.0]])),
        ],
        thresholds=(0.3, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_windows_of_many_videos_match_per_video_oracle(self, videos, thresholds):
        """`build_training_set` labels videos with 0, 1 and 3 annotations as the
        oracle labels each video alone; the pooled rows name the kept windows."""
        neg_thr, pos_thr = sorted(thresholds)
        pcfg = ProposalConfig(scales=(4, 8, 16), overlap=0.5, pos_thr=pos_thr, neg_thr=neg_thr)
        feats = np.random.default_rng(0).standard_normal((40, 2))
        items = [VideoItem(UnitFeatureSequence(f"v{i}", feats[:t_units]), annotations)
                 for i, (t_units, annotations) in enumerate(videos)]
        tset = build_training_set(Dataset(items, [f"c{c}" for c in range(5)], 2, 5), pcfg, 1)
        x, expected = [], [[], []]
        for item in items:
            starts, ends = sliding_windows(item.sequence.num_units, pcfg.scales, pcfg.overlap)
            keep, *labels = label_proposals_oracle(
                starts.tolist(), ends.tolist(), item.annotations, pos_thr, neg_thr
            )
            x.append(_pool(item.sequence, [(starts[i], ends[i]) for i in keep], 1))
            for column, values in zip(expected, labels):
                column += values
        assert [tset.t_c.tolist(), tset.t_off.tolist()] == expected
        np.testing.assert_array_equal(tset.x, np.concatenate(x).astype(np.float32))

    def test_positive_offsets_round_trip_to_matched_annotation(self, small_dataset):
        dataset, _ = small_dataset
        pcfg = ProposalConfig()
        for item in dataset.videos[:4]:
            starts, ends = sliding_windows(item.sequence.num_units, (8, 16, 32), 0.5)
            keep, t_c, t_off = label_proposals(
                starts, ends, _gt(item.annotations, starts.size), pcfg.pos_thr, pcfg.neg_thr
            )
            pos = keep[t_c >= 0]
            assert pos.size
            out_s, out_e = apply_offsets(
                starts[pos], ends[pos], t_off[t_c >= 0], float(item.sequence.num_units)
            )
            for start, end in zip(out_s, out_e):
                err = min(max(abs(start - s), abs(end - e)) for _, s, e in item.annotations)
                assert err < 1e-9


def _pool(video, windows, k):
    """pool_k_parts over a list of (start, end) windows."""
    return pool_k_parts(
        video, np.array([w[0] for w in windows]), np.array([w[1] for w in windows]), k
    )


def _assert_float32_rows_are_float64_rows_rounded(video, windows, k):
    """Float32 features pool to the float64 pooling of the same values, rounded once."""
    feats = video.features.astype(np.float32)
    got = _pool(UnitFeatureSequence("v", feats), windows, k)
    wide = _pool(UnitFeatureSequence("v", feats.astype(np.float64)), windows, k)
    assert got.dtype == np.float32 and wide.dtype == np.float64
    assert got.tobytes() == wide.astype(np.float32).tobytes()


@st.composite
def _pooling_cases(draw):
    """A random video and windows on a 1/8 grid or anywhere, incl. degenerate ones."""
    t_units = draw(st.integers(1, 24))
    d_feat = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    feats = np.random.default_rng(seed).standard_normal((t_units, d_feat)) * draw(
        st.sampled_from([1e-3, 1.0, 1e3])
    )
    anywhere = st.floats(-2.0, t_units + 2.0, allow_nan=False)
    on_grid = st.integers(-16, 8 * t_units + 16).map(lambda i: i / 8.0)
    edge = st.sampled_from([0.0, float(t_units)])
    point = st.one_of(anywhere, on_grid, edge)
    windows = []
    for _ in range(draw(st.integers(1, 8))):
        start = draw(point)
        end = draw(st.one_of(point, st.just(start)))  # end == start: zero length
        windows.append((start, end))  # end < start: every sub-span falls back
    return UnitFeatureSequence("v", feats), windows, k


@st.composite
def _shared_span_batches(draw):
    """A video and a batch of windows that repeat and share sub-spans.

    Base windows sit on a 1/8 grid with sub-spans of whole eighths (0 for a
    zero-length window), may start at -0.0 or reach outside [0, T], and the
    batch draws them with repeats, each shifted by whole sub-spans, so
    neighbouring windows share k - 1 sub-spans bit for bit.
    """
    t_units = draw(st.integers(1, 16))
    k = draw(st.sampled_from([1, 2, 3, 4]))
    feats = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        (t_units, draw(st.integers(1, 3)))
    )
    on_grid = st.integers(-16, 8 * t_units + 8).map(lambda i: i / 8.0)
    start = st.one_of(on_grid, st.sampled_from([-0.0, 0.0, float(t_units)]))
    bases = draw(st.lists(st.tuples(start, st.integers(0, 16)), min_size=1, max_size=4))
    windows = []
    for _ in range(draw(st.integers(1, 12))):
        lo, eighths = draw(st.sampled_from(bases))
        shift = draw(st.integers(-2, 2))
        if shift:  # adding a zero shift would turn -0.0 into +0.0
            lo += shift * eighths / 8.0
        windows.append((lo, lo + k * eighths / 8.0))
    return UnitFeatureSequence("v", feats), windows, k


class TestPooling:
    def _video(self, feats):
        return UnitFeatureSequence("v", np.asarray(feats, dtype=np.float64))

    def test_constant_sequence_gives_constant_parts(self):
        video = self._video(np.tile([1.0, 2.0], (10, 1)))
        pooled = _pool(video, [(1.0, 9.0), (0.25, 9.75), (0.0, 10.0)], 4)
        np.testing.assert_allclose(pooled, np.tile([1.0, 2.0], (3, 4)))

    def test_k1_is_plain_average(self):
        feats = np.arange(12, dtype=np.float64).reshape(6, 2)
        video = self._video(feats)
        pooled = _pool(video, [(0.0, 6.0), (2.0, 4.0)], 1)
        np.testing.assert_allclose(pooled, [feats.mean(axis=0), feats[2:4].mean(axis=0)])

    def test_integer_aligned_two_units(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        video = self._video(feats)
        pooled = _pool(video, [(0.0, 2.0), (1.0, 3.0)], 2)
        np.testing.assert_array_equal(pooled, [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 5.0, 5.0]])

    def test_fractional_coverage_weighting(self):
        feats = np.array([[1.0], [3.0]])
        video = self._video(feats)
        # span [0.5, 2.0): one part covering 0.5 of unit 0 and all of unit 1
        pooled = _pool(video, [(0.5, 2.0)], 1)
        assert pooled.shape == (1, 1)
        assert pooled[0, 0] == pytest.approx((0.5 * 1.0 + 1.0 * 3.0) / 1.5)

    def test_outside_features_do_not_matter(self):
        base = np.ones((10, 3))
        video_a = self._video(base.copy())
        noisy = base.copy()
        noisy[0] = 99.0
        noisy[9] = -7.0
        video_b = self._video(noisy)
        windows = [(2.0, 8.0), (1.0, 9.0)]
        np.testing.assert_array_equal(_pool(video_a, windows, 3), _pool(video_b, windows, 3))

    def test_subunit_span_uses_covering_unit(self):
        feats = np.array([[1.0], [2.0], [3.0]])
        video = self._video(feats)
        pooled = _pool(video, [(1.2, 1.8), (1.5, 1.5), (3.0, 3.0)], 1)
        assert pooled[0, 0] == pytest.approx(2.0)
        assert pooled[1:, 0].tolist() == [2.0, 3.0]  # zero length: the unit at the midpoint

    def test_no_windows_gives_empty_matrix(self):
        assert _pool(self._video(np.ones((4, 2))), [], 3).shape == (0, 6)

    @given(_pooling_cases())
    @example(  # a sub-span of subnormal length: a bound stated per part would overflow
        (UnitFeatureSequence("v", np.array([[1500.0], [-2000.0], [250.0]])), [(0.0, 1e-320)], 1)
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_one_window_oracle(self, case):
        video, windows, k = case
        pooled = _pool(video, windows, k)
        feats = video.features
        t_units, d_feat = feats.shape
        eps = np.finfo(np.float64).eps
        for row, (start, end) in zip(pooled, windows):
            expected = pool_k_parts_oracle(video, start, end, k).reshape(k, d_feat)
            span = (end - start) / k
            for j, part in enumerate(row.reshape(k, d_feat)):
                lo = start + j * span
                hi_c = min(max(lo + span, 0.0), t_units)
                length = hi_c - min(max(lo, 0.0), t_units)
                if not length > 0.0:
                    # fallback to the unit at the midpoint: a copy, exact
                    np.testing.assert_array_equal(part, expected[j])
                    continue
                # The bound is on the numerator F(hi) - F(lo), so it stays finite
                # for any length.  F(t) reads a cumulative sum of up to T units,
                # with a rounding error of at most ~T eps max|x|; below t = 1 it is
                # t x[0], whose error shrinks with t.  Subnormal products add a few
                # of the smallest subnormals; the rounding of the division adds
                # two eps of the part at most.
                tol = (4.0 * (t_units + 2) * eps * np.abs(feats).max() * min(hi_c, 1.0)
                       + 4 * np.finfo(np.float64).smallest_subnormal
                       + 2 * eps * np.abs(expected[j]) * length)
                err = np.abs(part - expected[j]) * length
                assert (err <= tol).all(), (start, end, j, part, expected[j], err, tol)
        _assert_float32_rows_are_float64_rows_rounded(video, windows, k)

    @given(_shared_span_batches())
    @settings(max_examples=300, deadline=None)
    def test_batch_rows_equal_each_window_pooled_alone(self, case):
        video, windows, k = case
        pooled = _pool(video, windows, k)
        for row, window in zip(pooled, windows):
            assert row.tobytes() == _pool(video, [window], k)[0].tobytes()
        _assert_float32_rows_are_float64_rows_rounded(video, windows, k)


class TestTrainingSetAssembly:
    def test_every_labeled_proposal_has_features(self, small_dataset):
        dataset, _ = small_dataset
        tset = build_training_set(dataset, ProposalConfig(), 4)
        assert len(tset) > 100
        assert (tset.t_c >= 0).sum() > 20
        assert tset.x.shape == (len(tset), 4 * dataset.d_feat)
        assert tset.x.dtype == np.float32  # what the network computes in
        assert np.isfinite(tset.x).all()
        negatives = tset.t_c < 0
        assert (tset.t_c[negatives] == -1).all()
        assert tset.t_off.shape == (len(tset), 2) and not tset.t_off[negatives].any()

    def test_order_is_by_video_then_start_then_scale(self, small_dataset):
        dataset, _ = small_dataset
        pcfg = ProposalConfig()
        tset = build_training_set(dataset, pcfg, 2)
        # per-video assembly: windows sorted by (start, scale) in Python,
        # labelled by the scalar oracle, pooled video by video in float64
        # and cast to float32 once
        x, t_c, t_off = [], [], []
        for item in sorted(dataset.videos, key=lambda v: v.sequence.video_id):
            windows = []
            for scale_id, length in enumerate(pcfg.scales):
                one_scale = sliding_windows(item.sequence.num_units, [length], pcfg.overlap)
                windows += [(start, scale_id, end) for start, end in _spans(*one_scale)]
            windows.sort()
            starts = [w[0] for w in windows]
            ends = [w[2] for w in windows]
            keep, c, off = label_proposals_oracle(
                starts, ends, item.annotations, pcfg.pos_thr, pcfg.neg_thr
            )
            x.append(_pool(item.sequence, [(starts[i], ends[i]) for i in keep], 2))
            t_c += c
            t_off += off
        assert tset.x.dtype == np.float32
        np.testing.assert_array_equal(tset.x, np.concatenate(x).astype(np.float32))
        assert tset.t_c.tolist() == t_c
        assert tset.t_off.tolist() == t_off

    def test_no_videos_gives_empty_columns(self, small_dataset):
        dataset, _ = small_dataset
        empty = Dataset([], dataset.class_names, dataset.d_feat, dataset.num_classes)
        tset = build_training_set(empty, ProposalConfig(), 2)
        assert len(tset) == 0 and tset.x.shape == (0, 2 * dataset.d_feat)
        assert tset.t_off.shape == (0, 2)
        assert tset.x.dtype == np.float32
