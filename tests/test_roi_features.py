"""RoI pooling tests against scalar-loop references and analytic fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from motionstack.errors import DataValidationError
from motionstack.roi_features import (
    OUT_SIZE,
    SAMPLING_RATIO,
    FeatureMap,
    pool_boxes,
    roi_align,
)


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


class TestBilinearSample:
    """A 1x1 bin with sampling_ratio=1 takes one bilinear sample at the box centre."""

    @staticmethod
    def sample(fmap, x, y):
        # At spatial_scale 1 the box (x, y, x+1, y+1) is centred on feature point (x, y).
        if not isinstance(fmap, FeatureMap):
            fmap = FeatureMap(tensor=fmap)
        return roi_align(fmap, (x, y, x + 1.0, y + 1.0), out_h=1, out_w=1, sampling_ratio=1)[:, 0, 0]

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
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for case in range(40):
            c = int(rng.integers(1, 4))
            h = int(rng.integers(4, 12))
            w = int(rng.integers(4, 12))
            scale = float(rng.choice([0.125, 0.25, 0.5, 1.0]))
            out_h = int(rng.choice([2, 3, 7]))
            out_w = int(rng.choice([2, 3, 7]))
            ratio = int(rng.choice([1, 2, 3]))
            fmap = FeatureMap(tensor=rng.normal(0, 1, size=(c, h, w)), spatial_scale=scale)
            x1 = float(rng.uniform(0, (w - 1) / scale * 0.6))
            y1 = float(rng.uniform(0, (h - 1) / scale * 0.6))
            box = (x1, y1, x1 + float(rng.uniform(0.5, w / scale)), y1 + float(rng.uniform(0.5, h / scale)))
            got = roi_align(fmap, box, out_h, out_w, ratio)
            want = oracles.roi_align_loops(fmap.tensor, scale, box, out_h, out_w, ratio)
            assert got.dtype == np.float32
            assert got.shape == (c, out_h, out_w)
            assert np.allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_affine_field_reproduced_exactly(self):
        # Bilinear interpolation is exact on f = a + b*x + c*y, and averaging
        # symmetric samples lands on the bin center, so every pooled value is
        # just f evaluated there. Keep the box away from the clamped border.
        a, b, c = 0.7, 0.3, -0.2
        h, w = 12, 14
        ys, xs = np.mgrid[0:h, 0:w]
        field = (a + b * xs + c * ys)[None, :, :].astype(np.float64)
        fmap = FeatureMap(tensor=field, spatial_scale=0.5)
        box = (4.0, 5.0, 20.0, 16.0)
        out = roi_align(fmap, box, out_h=3, out_w=4, sampling_ratio=2).astype(np.float64)
        fx1, fy1 = 4.0 * 0.5 - 0.5, 5.0 * 0.5 - 0.5
        fx2, fy2 = 20.0 * 0.5 - 0.5, 16.0 * 0.5 - 0.5
        for i in range(3):
            for j in range(4):
                cx = fx1 + (j + 0.5) * (fx2 - fx1) / 4
                cy = fy1 + (i + 0.5) * (fy2 - fy1) / 3
                assert out[0, i, j] == pytest.approx(a + b * cx + c * cy, abs=1e-6)

    def test_constant_map_pools_to_constant(self):
        fmap = FeatureMap(tensor=np.full((2, 5, 5), 3.25), spatial_scale=1.0)
        out = roi_align(fmap, (-4.0, -4.0, 30.0, 30.0))  # hangs far over every edge
        assert np.all(out == np.float32(3.25))

    def test_degenerate_box_rejected(self):
        fmap = _random_map()
        with pytest.raises(DataValidationError, match="zero area"):
            roi_align(fmap, (3.0, 2.0, 3.0, 5.0))
        with pytest.raises(DataValidationError, match="zero area"):
            roi_align(fmap, (4.0, 2.0, 3.0, 5.0))

    @pytest.mark.parametrize("box", [(np.nan, 2.0, 5.0, 5.0), (1.0, 2.0, np.inf, 5.0)])
    def test_non_finite_box_rejected(self, box):
        with pytest.raises(DataValidationError, match="non-finite"):
            roi_align(_random_map(), box)

    def test_parameter_validation(self):
        fmap = _random_map()
        with pytest.raises(ValueError, match="output size"):
            roi_align(fmap, (0, 0, 4, 4), out_h=0)
        with pytest.raises(ValueError, match="sampling_ratio"):
            roi_align(fmap, (0, 0, 4, 4), sampling_ratio=0)


class TestPooling:
    def test_pool_boxes_matches_per_box_align(self):
        fmap = _random_map(c=3, h=9, w=11, seed=5, scale=0.25)
        boxes = [(0.0, 0.0, 20.0, 20.0), (8.0, 4.0, 30.0, 28.0)]
        table = pool_boxes(fmap, boxes)
        assert table.dtype == np.float32
        assert table.shape == (2, 3)
        for i, box in enumerate(boxes):
            want = roi_align(fmap, box).astype(np.float64).mean(axis=(1, 2))
            assert np.allclose(table[i], want, rtol=1e-6, atol=1e-6)

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
