"""RoI pooling tests against scalar-loop references and analytic fields."""

import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from motionstack import tensor_io
from motionstack.errors import DataValidationError
from motionstack.roi_features import (
    OUT_SIZE,
    SAMPLING_RATIO,
    FeatureMap,
    _bilinear_weights,
    pool_boxes,
)
from motionstack.tensor_io import read_tensor, write_tensor


def _random_map(c=2, h=6, w=8, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return FeatureMap(tensor=rng.normal(0, 1, size=(c, h, w)), spatial_scale=scale)


@st.composite
def pooling_cases(draw):
    """A small map and 1-8 boxes: tiny, past any edge, or larger than the map."""
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(2, 10)), draw(st.integers(2, 10))
    scale = draw(st.sampled_from([0.25, 0.5, 1.0]))
    sizes = st.sampled_from([1, 2, 3, 7])
    out_h, out_w, ratio = draw(sizes), draw(sizes), draw(sizes)
    fmap = _random_map(c, h, w, seed=draw(st.integers(0, 2**16)), scale=scale)

    def span(extent):
        # Starts up to one map width outside either edge; lengths from a
        # fraction of a pixel to three map widths.
        start = draw(st.floats(-extent, 2 * extent))
        length = draw(st.one_of(st.floats(0.01, 1.0), st.floats(1.0, 3 * extent)))
        return start, start + length

    boxes = []
    for _ in range(draw(st.integers(1, 8))):
        (x1, x2), (y1, y2) = span(w / scale), span(h / scale)
        boxes.append((x1, y1, x2, y2))
    return fmap, boxes, out_h, out_w, ratio


class TestFeatureMap:
    def test_defaults(self):
        assert OUT_SIZE == 7
        assert SAMPLING_RATIO == 2
        assert _random_map().spatial_scale == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match=r"\[C, Hf, Wf\]"):
            FeatureMap(tensor=np.zeros((4, 4)))
        with pytest.raises(ValueError, match="spatial_scale"):
            FeatureMap(tensor=np.zeros((1, 4, 4)), spatial_scale=0.0)

    @pytest.mark.parametrize(
        "source",
        [
            np.arange(60, dtype=np.float32).reshape(3, 4, 5),
            np.arange(60, dtype=np.float64).reshape(4, 5, 3).transpose(2, 0, 1),  # already channels-last
        ],
        ids=["float32", "float64-channels-last"],
    )
    def test_holds_one_float64_channels_last_copy(self, source):
        tensor = FeatureMap(source).tensor
        assert tensor.dtype == np.float64 and tensor.shape == (3, 4, 5)
        assert tensor.transpose(1, 2, 0).flags.c_contiguous
        assert np.array_equal(tensor, source)
        # A map already in that layout is kept as it is, not copied again.
        assert np.shares_memory(tensor, source) == (source.dtype == np.float64)

    def test_pool_boxes_copies_no_map(self):
        rng = np.random.default_rng(0)
        fmap = FeatureMap(rng.standard_normal((256, 60, 80), dtype=np.float32), spatial_scale=0.25)
        wh = rng.uniform(8.0, 64.0, size=(200, 2))
        xy = rng.uniform(0.0, 1.0, size=(200, 2)) * (np.array([320.0, 240.0]) - wh)
        boxes = np.hstack([xy, xy + wh])
        tracemalloc.start()
        try:
            pool_boxes(fmap, boxes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < fmap.tensor.nbytes // 2  # not even a float32 copy of the 9.4 MiB map

    def test_scratch_does_not_grow_with_the_map(self):
        # The same boxes, all inside the smaller map, pooled on a map with 4x
        # the rows and 4x the columns: only the boxes' windows are held.
        rng = np.random.default_rng(1)
        wh = rng.uniform(8.0, 64.0, size=(2000, 2))
        xy = rng.uniform(0.0, 1.0, size=(2000, 2)) * (np.array([320.0, 240.0]) - wh)
        boxes = np.hstack([xy, xy + wh])
        scratch = []
        for h, w in [(60, 80), (240, 320)]:
            fmap = FeatureMap(rng.standard_normal((4, h, w)), spatial_scale=0.25)
            tracemalloc.start()
            try:
                out = pool_boxes(fmap, boxes)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            scratch.append(peak - out.nbytes)
        assert abs(scratch[1] - scratch[0]) <= 64 * 1024, scratch


class TestBilinearSample:
    """A 1x1 bin with sampling_ratio=1 takes one bilinear sample at the box centre."""

    @staticmethod
    def sample(fmap, x, y):
        # At spatial_scale 1 the box (x, y, x+1, y+1) is centred on feature point (x, y).
        if not isinstance(fmap, FeatureMap):
            fmap = FeatureMap(tensor=fmap)
        return pool_boxes(fmap, [(x, y, x + 1.0, y + 1.0)], out_h=1, out_w=1, sampling_ratio=1)[0]

    def test_integer_coordinates_hit_pixels(self):
        fmap = _random_map(seed=1)
        for y in range(6):
            for x in range(8):
                assert np.array_equal(self.sample(fmap, x, y), fmap.tensor[:, y, x].astype(np.float32))

    def test_argument_order_is_x_then_y(self):
        tensor = np.zeros((1, 4, 5))
        tensor[0, 1, 3] = 1.0
        assert self.sample(tensor, 3, 1)[0] == 1.0
        assert self.sample(tensor, 1, 3)[0] == 0.0

    def test_midpoint_average(self):
        tensor = np.zeros((1, 2, 2))
        tensor[0] = [[1.0, 3.0], [5.0, 7.0]]
        assert self.sample(tensor, 0.5, 0.5)[0] == 4.0
        assert self.sample(tensor, 0.5, 0.0)[0] == 2.0

    def test_clamps_to_border(self):
        fmap = _random_map(seed=2)
        corner = fmap.tensor[:, 0, 0].astype(np.float32)
        assert np.array_equal(self.sample(fmap, -3.0, -10.0), corner)
        far = fmap.tensor[:, 5, 7].astype(np.float32)
        assert np.array_equal(self.sample(fmap, 100.0, 100.0), far)


class TestRoiAlign:
    """RoIAlign's sample grid and box checks, seen through the pooled descriptors."""

    def test_affine_field_reproduced_exactly(self):
        # Bilinear interpolation is exact on f = a + b*x + c*y, and the
        # samples sit symmetrically about the box centre, so every descriptor
        # is just f evaluated there. Keep the boxes away from the clamped border.
        a, b, c = 0.7, 0.3, -0.2
        h, w = 12, 14
        ys, xs = np.mgrid[0:h, 0:w]
        field = (a + b * xs + c * ys)[None, :, :].astype(np.float64)
        fmap = FeatureMap(tensor=field, spatial_scale=0.5)
        boxes = [(4.0, 5.0, 20.0, 16.0), (2.0, 1.5, 9.0, 21.0)]
        out = pool_boxes(fmap, boxes, out_h=3, out_w=4, sampling_ratio=2).astype(np.float64)
        for row, (x1, y1, x2, y2) in zip(out, boxes):
            cx = (x1 + x2) / 2 * 0.5 - 0.5
            cy = (y1 + y2) / 2 * 0.5 - 0.5
            assert row[0] == pytest.approx(a + b * cx + c * cy, abs=1e-6)

    def test_constant_map_pools_to_constant(self):
        fmap = FeatureMap(tensor=np.full((2, 5, 5), 3.25), spatial_scale=1.0)
        out = pool_boxes(fmap, [(-4.0, -4.0, 30.0, 30.0)])  # hangs far over every edge
        assert np.all(out == np.float32(3.25))

    def test_degenerate_box_rejected(self):
        fmap = _random_map()
        with pytest.raises(DataValidationError, match="zero area"):
            pool_boxes(fmap, [(3.0, 2.0, 3.0, 5.0)])
        with pytest.raises(DataValidationError, match="zero area"):
            pool_boxes(fmap, [(4.0, 2.0, 3.0, 5.0)])

    @pytest.mark.parametrize("box", [(np.nan, 2.0, 5.0, 5.0), (1.0, 2.0, np.inf, 5.0)])
    def test_non_finite_box_rejected(self, box):
        with pytest.raises(DataValidationError, match="non-finite"):
            pool_boxes(_random_map(), [box])

    def test_parameter_validation(self):
        fmap = _random_map()
        with pytest.raises(ValueError, match="output size"):
            pool_boxes(fmap, [(0, 0, 4, 4)], out_h=0)
        with pytest.raises(ValueError, match="sampling_ratio"):
            pool_boxes(fmap, [(0, 0, 4, 4)], sampling_ratio=0)


class TestPooling:
    @settings(max_examples=60, deadline=None)
    @given(pooling_cases())
    def test_pool_boxes_matches_loop_oracle_on_many_boxes(self, case):
        fmap, boxes, out_h, out_w, ratio = case
        table = pool_boxes(fmap, boxes, out_h, out_w, ratio)
        assert table.dtype == np.float32
        assert table.shape == (len(boxes), fmap.tensor.shape[0])
        for row, box in zip(table, boxes):
            grid = oracles.roi_align_loops(fmap.tensor, fmap.spatial_scale, box, out_h, out_w, ratio)
            assert np.allclose(row, grid.mean(axis=(1, 2)), rtol=1e-5, atol=1e-5)

    def test_pool_boxes_of_no_boxes_is_empty(self):
        table = pool_boxes(_random_map(c=3), np.zeros((0, 4)))
        assert table.dtype == np.float32
        assert table.shape == (0, 3)

    def test_pool_boxes_validation(self):
        fmap = _random_map()
        with pytest.raises(ValueError, match=r"\[N, 4\]"):
            pool_boxes(fmap, [(0.0, 0.0, 1.0)])
        with pytest.raises(DataValidationError, match="zero area"):
            pool_boxes(fmap, [(1.0, 1.0, 1.0, 4.0)])

    @pytest.mark.parametrize("bad", [(np.nan, 2.0, 5.0, 5.0), (1.0, 2.0, np.inf, 5.0)])
    def test_pool_boxes_rejects_non_finite_box(self, bad):
        with pytest.raises(DataValidationError, match=r"box 1 \[.*\] has a non-finite"):
            pool_boxes(_random_map(), [(0.0, 0.0, 4.0, 4.0), bad])


@st.composite
def stored_cases(draw):
    """A u8 or f32 map up to 120 rows tall and 1-40 boxes past every edge, one maybe as tall as the map."""
    c, h, w = draw(st.integers(1, 40)), draw(st.integers(1, 120)), draw(st.integers(1, 12))
    elements = st.floats(-1e3, 1e3, width=32)
    arr = draw(arrays(np.uint8, (c, h, w)) | arrays(np.float32, (c, h, w), elements=elements))
    scale = draw(st.sampled_from([0.25, 0.5, 1.0]))
    boxes = []
    for _ in range(draw(st.integers(1, 40))):
        x1, y1 = draw(st.floats(-w / scale, 2 * w / scale)), draw(st.floats(-h / scale, 2 * h / scale))
        boxes.append((x1, y1, x1 + draw(st.floats(0.01, 2 * w / scale)), y1 + draw(st.floats(0.01, 20 / scale))))
    if draw(st.booleans()):
        boxes.append((0.0, -1.0, w / scale, (h + 1) / scale))  # its window is every row of the map
    sizes = st.integers(1, 7)
    return arr, scale, np.array(boxes), draw(sizes), draw(sizes), draw(st.integers(1, 3))


class TestStoredMap:
    """A map pooled from its file a band of rows at a time gives the in-memory descriptors bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(case=stored_cases(), step=st.sampled_from([4, 16]))
    def test_pools_the_same_bits_as_in_memory(self, case, step, tmp_path_factory):
        arr, scale, boxes, out_h, out_w, ratio = case
        path = tmp_path_factory.mktemp("stored") / "map.mten"
        write_tensor(arr, path)
        want = pool_boxes(FeatureMap(arr, scale), boxes, out_h, out_w, ratio)
        with mock.patch.object(tensor_io, "BAND_STEP", step):
            got = pool_boxes(FeatureMap(read_tensor(path, band=True), scale), boxes, out_h, out_w, ratio)
        assert np.array_equal(_bits(got), _bits(want))

    def test_refills_the_band_as_the_windows_move_down(self, tmp_path):
        # 2,000 boxes on a 240-row map: a 16-row step refills the band many times.
        rng = np.random.default_rng(4)
        arr = rng.standard_normal((8, 240, 20), dtype=np.float32)
        write_tensor(arr, tmp_path / "map.mten")
        wh = rng.uniform(2.0, 64.0, size=(2000, 2))
        xy = rng.uniform(-8.0, 1.0, size=(2000, 2)) * (np.array([80.0, 960.0]) - wh)
        boxes = np.hstack([xy, xy + wh])
        reads = []
        band = read_tensor(tmp_path / "map.mten", band=True)
        real = band._read

        def read(fh, out, start, end):
            reads.append(end - start)
            real(fh, out, start, end)

        with mock.patch.object(band, "_read", read):
            got = pool_boxes(FeatureMap(band, 0.25), boxes)
        assert np.array_equal(_bits(got), _bits(pool_boxes(FeatureMap(arr, 0.25), boxes)))
        assert len(reads) > 10 and sum(reads) == 240  # each row read once

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files through /proc/self/fd")
    def test_holds_no_open_file_between_passes(self, tmp_path):
        path = tmp_path / "map.mten"
        write_tensor(np.ones((2, 30, 8), dtype=np.float32), path)

        def open_on_map():
            fds = os.listdir("/proc/self/fd")
            return [fd for fd in fds if os.path.realpath(f"/proc/self/fd/{fd}") == os.path.realpath(path)]

        fmap = FeatureMap(read_tensor(path, band=True), 1.0)
        assert open_on_map() == []
        pool_boxes(fmap, [[0.0, 0.0, 4.0, 4.0], [1.0, 20.0, 6.0, 29.0]])
        assert open_on_map() == []


def _bits(arr):
    return arr.view(np.uint32 if arr.dtype == np.float32 else np.uint64)


class TestPoolingOrder:
    """Boxes are pooled in window order, so their order must not reach the values."""

    @settings(max_examples=40, deadline=None)
    @given(pooling_cases(), st.randoms(use_true_random=False))
    def test_pool_boxes_of_permuted_boxes_is_the_permuted_table(self, case, random):
        fmap, boxes, out_h, out_w, ratio = case
        boxes = np.array(boxes)
        perm = np.array(random.sample(range(len(boxes)), len(boxes)))
        table = pool_boxes(fmap, boxes, out_h, out_w, ratio)
        assert np.array_equal(_bits(pool_boxes(fmap, boxes[perm], out_h, out_w, ratio)), _bits(table[perm]))

    def test_many_overlapping_boxes_in_reverse_and_shuffled_order(self):
        # Many boxes share window rows and corners, so the visit order and
        # the input order differ everywhere.
        rng = np.random.default_rng(11)
        fmap = FeatureMap(tensor=rng.standard_normal((16, 15, 20), dtype=np.float32), spatial_scale=0.25)
        wh = rng.uniform(8.0, 64.0, size=(300, 2))
        xy = rng.uniform(-8.0, 1.0, size=(300, 2)) * (np.array([80.0, 60.0]) - wh)
        boxes = np.round(np.hstack([xy, xy + wh]), 2)
        boxes[:50] = boxes[50]  # duplicates tie in the visit order
        table = pool_boxes(fmap, boxes)
        for perm in (np.arange(300)[::-1], rng.permutation(300)):
            assert np.array_equal(_bits(pool_boxes(fmap, boxes[perm])), _bits(table[perm]))
        assert np.array_equal(_bits(table[:50]), _bits(np.repeat(table[50:51], 50, axis=0)))


class TestBilinearWeights:
    @pytest.mark.parametrize("n", [1, 2, 5, 80])
    def test_matches_add_at_oracle_bitwise(self, n):
        # Samples on pixel centres, between them, on the last pixel and
        # clamped from both sides, where a sample's two pixels coincide.
        # Rows 20 on crowd 14 samples onto about two pixels, so each cell
        # sums many terms and any other addition order moves some bits.
        rng = np.random.default_rng(n)
        pos = rng.uniform(-3.0, n + 2.0, size=(40, 3, 14))
        pos[20:] = rng.integers(0, n, size=(20, 3, 1)) + rng.uniform(0.0, 2.0, size=(20, 3, 14))
        pos[0, 0, :6] = [-1.0, 0.0, 0.5, n - 1.0, n - 0.5, n + 4.0]
        pos[1, 1] = np.floor(pos[1, 1])
        want = oracles.bilinear_weights_add_at(pos, n)
        got = _dense_weights(*_bilinear_weights(pos, n), n)
        assert got.shape == want.shape == (40, 3, n)
        assert np.array_equal(_bits(got), _bits(want))

    def test_window_ends_at_the_last_nonzero_weight(self):
        # One sample a denormal past pixel 0 among 13 on it: its weight on
        # pixel 1 rounds to zero in the mean, so the window is pixel 0 alone.
        pos = np.zeros((2, 14))
        pos[0, 0] = 5e-324
        pos[1, 0] = 0.5
        weights, lo, hi = _bilinear_weights(pos, 4)
        assert lo.tolist() == [0, 0] and hi.tolist() == [1, 2] and weights.shape == (2, 2)
        want = oracles.bilinear_weights_add_at(pos, 4)
        assert np.array_equal(_bits(_dense_weights(weights, lo, hi, 4)), _bits(want))


def _dense_weights(weights, lo, hi, n):
    """Scatter window-form weights into [..., n] rows, checking each window is the row's nonzero support."""
    dense = np.zeros(weights.shape[:-1] + (n,))
    for idx in np.ndindex(lo.shape):
        a, b = lo[idx], hi[idx]
        assert 0 <= a < b <= min(n, a + weights.shape[-1])
        dense[idx][a:b] = weights[idx][: b - a]
        assert not weights[idx][b - a :].any()
        support = np.flatnonzero(dense[idx])
        assert (support[0], support[-1] + 1) == (a, b)
    return dense
