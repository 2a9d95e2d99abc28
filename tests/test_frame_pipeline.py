"""Frame stacking and difference-image tests."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from motionstack.errors import DataValidationError, FrameLookupError, PpmError
from motionstack.frame_pipeline import (
    FrameSequence,
    InputConfig,
    StackedInput,
    build_dataset,
    build_input,
    diff_image,
    normalize_variant,
)
from motionstack.tensor_io import ImageFrame, read_tensor, write_ppm


def _make_frames(dir_path, count, width=6, height=4, seed=0):
    rng = np.random.default_rng(seed)
    frames = []
    for t in range(count):
        pixels = rng.integers(0, 256, size=3 * width * height, dtype=np.uint8)
        frame = ImageFrame(width=width, height=height, pixels=pixels, frame_index=t)
        write_ppm(frame, dir_path / f"frame_{t:04d}.ppm")
        frames.append(frame)
    return frames


class TestDiffImage:
    @settings(max_examples=60, deadline=None)
    @given(
        arrays(np.uint8, (3, 2, 2)),
        arrays(np.uint8, (3, 2, 2)),
    )
    def test_antisymmetry(self, a, b):
        # d(a,b) + d(b,a) folds the floor truncation into {254, 255}.
        total = diff_image(a, b).astype(int) + diff_image(b, a).astype(int)
        assert np.all((total == 254) | (total == 255))

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.uint8, (3, 2, 2)))
    def test_equal_frames_give_flat_127(self, a):
        assert np.all(diff_image(a, a) == 127)

    def test_matches_scalar_formula(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
        b = rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
        got = diff_image(a, b)
        for idx in np.ndindex(a.shape):
            assert got[idx] == oracles.diff_pixel(int(a[idx]), int(b[idx]))

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.uint8, (3, 4, 5)), arrays(np.uint8, (3, 4, 5)))
    def test_matches_int16_oracle(self, a, b):
        got = diff_image(a, b)
        assert got.dtype == np.uint8
        assert np.array_equal(got, oracles.diff_image_int16(a, b))

    def test_non_contiguous_planar_views(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 256, size=(3, 8, 6), dtype=np.uint8)
        b = rng.integers(0, 256, size=(3, 8, 6), dtype=np.uint8)
        a_before, b_before = a.copy(), b.copy()
        for later, earlier in ((a[:, ::2, :], b[:, ::2, :]), (a[:, :, ::-1], b[::-1])):
            assert not later.flags.c_contiguous
            assert np.array_equal(diff_image(later, earlier), oracles.diff_image_int16(later, earlier))
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            diff_image(np.zeros((3, 2, 2), np.uint8), np.zeros((3, 2, 3), np.uint8))

    def test_rejects_non_uint8(self):
        with pytest.raises(ValueError, match="uint8"):
            diff_image(np.zeros((3, 2, 2), np.float32), np.zeros((3, 2, 2), np.uint8))

    @settings(max_examples=40, deadline=None)
    @given(arrays(np.uint8, (3, 4, 5)), arrays(np.uint8, (3, 4, 5)))
    def test_out_receives_the_result(self, a, b):
        stack = np.full((9, 4, 5), 7, dtype=np.uint8)
        out = stack[3:6]
        assert diff_image(a, b, out=out) is out
        assert np.array_equal(out, oracles.diff_image_int16(a, b))
        assert np.all(stack[:3] == 7) and np.all(stack[6:] == 7)

    def test_rejects_out_overlapping_an_input(self):
        frames = np.zeros((2, 3, 4, 5), dtype=np.uint8)
        later, earlier = frames
        for out in (later, earlier, frames.reshape(-1)[30:90].reshape(3, 4, 5)):
            with pytest.raises(ValueError, match="overlap"):
                diff_image(later, earlier, out=out)
        interleaved = np.zeros((3, 4, 10), dtype=np.uint8)  # shares bounds, not bytes
        assert diff_image(interleaved[..., ::2], earlier, out=interleaved[..., 1::2]) is not None

    def test_rejects_out_of_another_shape_or_dtype(self):
        a = np.zeros((3, 2, 2), np.uint8)
        for out in (np.zeros((3, 2, 3), np.uint8), np.zeros((2, 3, 2, 2), np.uint8), np.zeros((3, 2, 2), np.int16)):
            with pytest.raises(ValueError, match="out must be uint8"):
                diff_image(a, a.copy(), out=out)


class TestInputConfig:
    def test_variant_normalization(self):
        assert normalize_variant("RGB-Seq") == "rgb_seq"
        assert InputConfig("diff-int", delta=3).variant == "diff_int"
        with pytest.raises(ValueError, match="unknown stacking variant"):
            normalize_variant("rgb")

    def test_sequence_variants_pin_delta(self):
        config = InputConfig("rgb_seq", n=4, delta=9)
        assert (config.n, config.delta) == (4, 1)
        assert config.channels == 12

    def test_pair_variants_pin_n(self):
        config = InputConfig("diff_int", n=7, delta=3)
        assert (config.n, config.delta) == (2, 3)
        assert config.channels == 6

    def test_channel_counts(self):
        assert InputConfig("rgb_seq", n=5).channels == 15
        assert InputConfig("diff_seq", n=1).channels == 3
        assert InputConfig("rgb_int").channels == 6
        assert InputConfig("diff_int").channels == 6

    def test_range_warning(self):
        assert not InputConfig("rgb_seq", n=10).range_warning
        assert InputConfig("rgb_seq", n=11).range_warning
        assert not InputConfig("rgb_int", delta=5).range_warning
        assert InputConfig("rgb_int", delta=6).range_warning

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            InputConfig("rgb_seq", n=0)
        with pytest.raises(ValueError):
            InputConfig("rgb_int", delta=0)


class TestFrameSequence:
    def test_orders_by_parsed_index(self, tmp_path):
        _make_frames(tmp_path, 3)
        (tmp_path / "frame_0001.ppm").rename(tmp_path / "zz_0001.ppm")
        source = FrameSequence.from_dir(tmp_path)
        assert source.indices == [0, 1, 2]

    def test_rejects_duplicate_indices(self, tmp_path):
        _make_frames(tmp_path, 2)
        (tmp_path / "copy_0001.ppm").write_bytes((tmp_path / "frame_0001.ppm").read_bytes())
        with pytest.raises(DataValidationError, match="duplicate frame index"):
            FrameSequence.from_dir(tmp_path)

    def test_rejects_mixed_sizes(self, tmp_path):
        _make_frames(tmp_path, 2)
        odd = ImageFrame(width=2, height=2, pixels=np.zeros(12, np.uint8), frame_index=9)
        write_ppm(odd, tmp_path / "frame_0009.ppm")
        with pytest.raises(DataValidationError, match="sequence started at"):
            FrameSequence.from_dir(tmp_path)

    def test_resolve_clamps_backward(self, tmp_path):
        _make_frames(tmp_path, 4)
        (tmp_path / "frame_0002.ppm").unlink()
        source = FrameSequence.from_dir(tmp_path)
        assert source.resolve(2) == 1  # gap resolves to the frame before it
        assert source.resolve(-5) == 0
        assert source.resolve(99) == 3

    def test_empty_sequence_lookups_fail(self, tmp_path):
        source = FrameSequence.from_dir(tmp_path)
        assert len(source) == 0
        with pytest.raises(FrameLookupError):
            source.resolve(0)


class TestBuildInput:
    @pytest.fixture()
    def source(self, tmp_path):
        _make_frames(tmp_path, 6)
        return FrameSequence.from_dir(tmp_path)

    def test_target_must_exist(self, source):
        with pytest.raises(FrameLookupError):
            build_input(source, 17, InputConfig("rgb_seq", n=2))

    def test_rgb_seq_is_newest_first(self, source):
        stacked = build_input(source, 5, InputConfig("rgb_seq", n=3))
        assert stacked.tensor.shape[0] == 9
        for k in range(3):
            assert np.array_equal(stacked.tensor[3 * k : 3 * k + 3], source.planar(5 - k))

    def test_rgb_int_pairs_target_with_past(self, source):
        stacked = build_input(source, 5, InputConfig("rgb_int", delta=3))
        assert np.array_equal(stacked.tensor[:3], source.planar(5))
        assert np.array_equal(stacked.tensor[3:], source.planar(2))

    def test_diff_seq_channels(self, source):
        stacked = build_input(source, 5, InputConfig("diff_seq", n=3))
        assert np.array_equal(stacked.tensor[:3], source.planar(5))
        assert np.array_equal(stacked.tensor[3:6], diff_image(source.planar(5), source.planar(4)))
        assert np.array_equal(stacked.tensor[6:9], diff_image(source.planar(4), source.planar(3)))

    def test_diff_int_channels(self, source):
        stacked = build_input(source, 4, InputConfig("diff_int", delta=2))
        assert np.array_equal(stacked.tensor[3:], diff_image(source.planar(4), source.planar(2)))

    def test_start_of_sequence_clamps_to_flat_diffs(self, source):
        stacked = build_input(source, 0, InputConfig("diff_seq", n=4))
        assert np.all(stacked.tensor[3:] == 127)
        rgb = build_input(source, 0, InputConfig("rgb_seq", n=4))
        for k in range(4):
            assert np.array_equal(rgb.tensor[3 * k : 3 * k + 3], source.planar(0))

    def test_result_metadata(self, source):
        config = InputConfig("rgb_seq", n=2)
        stacked = build_input(source, 3, config)
        assert isinstance(stacked, StackedInput)
        assert stacked.target_frame_index == 3
        assert stacked.config is config
        assert stacked.tensor.dtype == np.uint8
        assert stacked.tensor.flags.c_contiguous


def _make_gapped_frames(dir_path, indices, width=6, height=4, seed=3):
    rng = np.random.default_rng(seed)
    for t in indices:
        pixels = rng.integers(0, 256, size=3 * width * height, dtype=np.uint8)
        write_ppm(ImageFrame(width=width, height=height, pixels=pixels, frame_index=t), dir_path / f"f_{t}.ppm")


class TestBuildDataset:
    @pytest.mark.parametrize(
        "config",
        [InputConfig("rgb_seq", n=4), InputConfig("rgb_int", delta=3), InputConfig("diff_seq", n=4),
         InputConfig("diff_int", delta=3)],
        ids=lambda c: c.variant,
    )
    def test_each_stack_equals_a_fresh_build_input(self, tmp_path, config):
        # Gaps snap back to earlier frames and the first targets clamp to
        # frame 3, so one reused stack buffer sees every kind of refill.
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        _make_gapped_frames(frames_dir, [3, 4, 7, 8, 9, 12, 20])
        source = FrameSequence.from_dir(frames_dir)
        manifest = build_dataset(source, config, tmp_path / "out")
        fresh = FrameSequence.from_dir(frames_dir)
        assert [item["index"] for item in manifest["items"]] == fresh.indices
        for item in manifest["items"]:
            want = build_input(fresh, item["index"], config).tensor
            assert np.array_equal(read_tensor(tmp_path / "out" / item["tensor"]), want)

    def test_missing_label_fails_before_any_stack_and_leaves_no_manifest(self, tmp_path):
        frames_dir = tmp_path / "frames"
        labels_dir = tmp_path / "labels"
        out = tmp_path / "out"
        frames_dir.mkdir()
        labels_dir.mkdir()
        _make_frames(frames_dir, 3)
        for t in range(3):
            (labels_dir / f"frame_{t:04d}.txt").write_text(f"{t}\n")
        build_dataset(FrameSequence.from_dir(frames_dir), InputConfig("rgb_seq"), out, labels_dir)
        first_run = {path.name: path.read_bytes() for path in out.iterdir()}
        (labels_dir / "frame_0002.txt").unlink()
        with pytest.raises(DataValidationError, match="no label file for frame 2"):
            build_dataset(FrameSequence.from_dir(frames_dir), InputConfig("diff_seq", n=3), out, labels_dir)
        assert not (out / "manifest.json").exists()
        del first_run["manifest.json"]
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first_run

    def test_frame_cut_after_indexing_leaves_no_manifest(self, tmp_path):
        frames_dir = tmp_path / "frames"
        out = tmp_path / "out"
        frames_dir.mkdir()
        _make_frames(frames_dir, 4)
        build_dataset(FrameSequence.from_dir(frames_dir), InputConfig("rgb_seq"), out)
        source = FrameSequence.from_dir(frames_dir)
        cut = frames_dir / "frame_0002.ppm"
        cut.write_bytes(cut.read_bytes()[:-5])
        with pytest.raises(PpmError, match="payload holds"):
            build_dataset(source, InputConfig("diff_seq", n=3), out)
        assert not (out / "manifest.json").exists()
        assert read_tensor(out / "stack_1.mten").shape[0] == 9  # this run got that far

    def test_writes_tensor_per_frame_and_manifest(self, tmp_path):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        _make_frames(frames_dir, 4)
        out = tmp_path / "out"
        source = FrameSequence.from_dir(frames_dir)
        config = InputConfig("rgb_int", delta=1)
        manifest = build_dataset(source, config, out)
        assert [item["index"] for item in manifest["items"]] == [0, 1, 2, 3]
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk == manifest
        for item in manifest["items"]:
            tensor = read_tensor(out / item["tensor"])
            assert tensor.shape[0] == 6
            assert item["label"] is None

    def test_copies_labels_by_frame_index(self, tmp_path):
        frames_dir = tmp_path / "frames"
        labels_dir = tmp_path / "labels"
        frames_dir.mkdir()
        labels_dir.mkdir()
        _make_frames(frames_dir, 2)
        (labels_dir / "frame_0000.txt").write_text("0 0.5 0.5 0.2 0.2\n")
        (labels_dir / "frame_0001.txt").write_text("0 0.4 0.4 0.2 0.2\n")
        out = tmp_path / "out"
        manifest = build_dataset(
            FrameSequence.from_dir(frames_dir), InputConfig("rgb_seq"), out, labels_dir
        )
        assert [item["label"] for item in manifest["items"]] == [
            "frame_0000.txt",
            "frame_0001.txt",
        ]
        assert (out / "frame_0001.txt").read_text() == "0 0.4 0.4 0.2 0.2\n"

    def test_missing_label_fails(self, tmp_path):
        frames_dir = tmp_path / "frames"
        labels_dir = tmp_path / "labels"
        frames_dir.mkdir()
        labels_dir.mkdir()
        _make_frames(frames_dir, 2)
        (labels_dir / "frame_0000.txt").write_text("x\n")
        with pytest.raises(DataValidationError, match="no label file for frame 1"):
            build_dataset(
                FrameSequence.from_dir(frames_dir), InputConfig("rgb_seq"), tmp_path / "o", labels_dir
            )

    def test_two_labels_for_one_frame_fail(self, tmp_path):
        frames_dir = tmp_path / "frames"
        labels_dir = tmp_path / "labels"
        frames_dir.mkdir()
        labels_dir.mkdir()
        _make_frames(frames_dir, 1)
        (labels_dir / "frame_0000.txt").write_text("a\n")
        (labels_dir / "other_0.txt").write_text("b\n")
        with pytest.raises(DataValidationError, match="claim frame 0"):
            build_dataset(
                FrameSequence.from_dir(frames_dir), InputConfig("rgb_seq"), tmp_path / "o", labels_dir
            )

    def test_empty_source_is_a_no_op(self, tmp_path):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        manifest = build_dataset(FrameSequence.from_dir(frames_dir), InputConfig("rgb_seq"), tmp_path / "o")
        assert manifest["items"] == []

    def test_holds_each_frame_once(self, tmp_path):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        _make_frames(frames_dir, 60, width=80, height=60)
        planar_bytes = 60 * 3 * 80 * 60
        tracemalloc.start()
        try:
            source = FrameSequence.from_dir(frames_dir)
            build_dataset(source, InputConfig("diff_seq", n=5), tmp_path / "out")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Keeping the decoded interleaved frames next to a planar copy of
        # each peaks near 2.2x the video's planar bytes here.
        assert peak < 1.5 * planar_bytes

    @pytest.mark.parametrize("count", [10, 40])
    def test_memory_does_not_grow_with_clip_length(self, tmp_path, count):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        _make_frames(frames_dir, count, width=320, height=240)
        config = InputConfig("diff_seq", n=5)
        frame_bytes = 3 * 320 * 240
        reach = max(config.offsets)
        tracemalloc.start()
        try:
            build_dataset(FrameSequence.from_dir(frames_dir), config, tmp_path / "out")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The window of reach + 1 planes, two frames of decode or diff
        # scratch, and the one stack buffer. Measured: 11 frames' bytes
        # (14 when each stack was concatenated from fresh diff parts).
        stack_bytes = config.channels * 320 * 240
        assert peak < (reach + 3) * frame_bytes + 2 * stack_bytes
