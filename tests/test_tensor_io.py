"""Tensor container and PPM codec tests."""

import json
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from motionstack import tensor_io
from motionstack.errors import PpmError, TensorFormatError
from motionstack.tensor_io import (
    MAGIC,
    ImageFrame,
    read_ppm,
    read_ppm_header,
    read_tensor,
    to_planar,
    write_ppm,
    write_tensor,
)

shapes = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple)


class TestTensorRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(arr=shapes.flatmap(lambda s: arrays(np.uint8, s)))
    def test_uint8_round_trip(self, arr, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "t.mten"
        write_tensor(arr, path)
        back = read_tensor(path)
        assert back.dtype == np.uint8
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    @settings(max_examples=40, deadline=None)
    @given(
        arr=shapes.flatmap(
            lambda s: arrays(
                np.float32, s, elements=st.floats(-1e6, 1e6, width=32, allow_nan=False)
            )
        )
    )
    def test_float32_round_trip(self, arr, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "t.mten"
        write_tensor(arr, path)
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    def test_noncontiguous_input_round_trips(self, tmp_path):
        arr = np.arange(24, dtype=np.uint8).reshape(4, 6).T
        assert not arr.flags.c_contiguous
        write_tensor(arr, tmp_path / "t.mten")
        assert np.array_equal(read_tensor(tmp_path / "t.mten"), arr)

    def test_result_is_contiguous_and_writable(self, tmp_path):
        write_tensor(np.zeros((2, 3), dtype=np.float32), tmp_path / "t.mten")
        back = read_tensor(tmp_path / "t.mten")
        assert back.flags.c_contiguous
        back[0, 0] = 1.0


class TestTensorContainerLayout:
    def test_payload_starts_on_64_byte_boundary(self, tmp_path):
        for shape in [(1,), (3, 5), (2, 3, 4, 5), (100,)]:
            path = tmp_path / "t.mten"
            write_tensor(np.zeros(shape, dtype=np.uint8), path)
            data = path.read_bytes()
            assert data[:8] == MAGIC
            (header_len,) = struct.unpack("<I", data[8:12])
            assert (12 + header_len) % 64 == 0
            meta = json.loads(data[12 : 12 + header_len].decode("utf-8"))
            assert meta["shape"] == list(shape)

    def test_payload_is_little_endian_row_major(self, tmp_path):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        path = tmp_path / "t.mten"
        write_tensor(arr, path)
        data = path.read_bytes()
        (header_len,) = struct.unpack("<I", data[8:12])
        payload = data[12 + header_len :]
        assert payload == arr.astype("<f4").tobytes()


class TestTensorErrors:
    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="dtype"):
            write_tensor(np.zeros(3, dtype=np.int64), tmp_path / "t.mten")

    def test_rejects_too_many_dims(self, tmp_path):
        with pytest.raises(ValueError, match="dims"):
            write_tensor(np.zeros((1, 1, 1, 1, 1), dtype=np.uint8), tmp_path / "t.mten")

    def test_rejects_zero_dim(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            write_tensor(np.zeros((0, 3), dtype=np.uint8), tmp_path / "t.mten")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.mten"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(TensorFormatError, match="magic"):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.mten"
        path.write_bytes(MAGIC + struct.pack("<I", 1000) + b"{}")
        with pytest.raises(TensorFormatError, match="truncated"):
            read_tensor(path)

    def test_unparseable_header(self, tmp_path):
        path = tmp_path / "t.mten"
        header = b"not json" + b" " * 44
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(TensorFormatError, match="unparseable"):
            read_tensor(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "t.mten"
        header = json.dumps({"dtype": "f64", "shape": [2]}).encode()
        header += b" " * (-(12 + len(header)) % 64)
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + b"\x00" * 16)
        with pytest.raises(TensorFormatError, match="dtype code"):
            read_tensor(path)

    def test_deeply_nested_header(self, tmp_path):
        path = tmp_path / "t.mten"
        header = b"[" * 100_000
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(TensorFormatError, match="unparseable header"):
            read_tensor(path)

    def test_non_string_dtype_code(self, tmp_path):
        path = tmp_path / "t.mten"
        header = json.dumps({"dtype": ["f32"], "shape": [2]}).encode()
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        with pytest.raises(TensorFormatError, match="dtype code"):
            read_tensor(path)

    def test_overflowing_shape_is_length_mismatch(self, tmp_path):
        # 2**32 * 2**32 wraps to 0 in int64, which the empty payload would match.
        path = tmp_path / "t.mten"
        header = json.dumps({"dtype": "u8", "shape": [2**32, 2**32]}).encode()
        header += b" " * (-(12 + len(header)) % 64)
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(TensorFormatError, match="payload length mismatch"):
            read_tensor(path)

    def test_huge_declared_shape_fails_before_allocating(self, tmp_path):
        # 256 MiB declared over a 64-byte payload: the length check comes first.
        path = tmp_path / "t.mten"
        header = json.dumps({"dtype": "f32", "shape": [1 << 13, 1 << 13]}).encode()
        header += b" " * (-(12 + len(header)) % 64)
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(TensorFormatError, match=f"header declares {1 << 28} bytes, file holds 64$"):
                read_tensor(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "t.mten"
        write_tensor(np.zeros(8, dtype=np.uint8), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(TensorFormatError, match="payload length"):
            read_tensor(path)



@st.composite
def windows(draw, height):
    """1-6 windows of rows on a map of ``height`` rows, mostly top row first, some out of order."""
    spans = []
    for _ in range(draw(st.integers(1, 6))):
        top = draw(st.integers(0, height - 1))
        spans.append((top, draw(st.integers(top + 1, height))))
    if draw(st.booleans()):
        spans.sort()
    return spans


class TestMapBand:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        arr=st.tuples(st.integers(1, 6), st.integers(1, 40), st.integers(1, 5)).flatmap(
            lambda s: arrays(np.uint8, s) | arrays(np.float32, s, elements=st.floats(width=32, allow_nan=False))
        ),
        step=st.sampled_from([1, 4, 16]),
        stage_bytes=st.integers(1, 200),
    )
    def test_windows_are_the_float32_map_rows(self, data, arr, step, stage_bytes, tmp_path_factory):
        path = tmp_path_factory.mktemp("band") / "t.mten"
        write_tensor(arr, path)
        spans = data.draw(windows(arr.shape[1]))
        whole = np.array(arr.transpose(1, 2, 0), dtype=np.float32, order="C")  # a copy: plain strides
        # Steps that refill the band every few rows, and stages of one channel up to all of them.
        with mock.patch.object(tensor_io, "BAND_STEP", step), mock.patch.object(tensor_io, "_STAGE_BYTES", stage_bytes):
            band = read_tensor(path, band=True)
            assert band.shape == arr.shape
            got = [(w.strides, w.tobytes()) for w in band.windows(*zip(*spans))]
        assert got == [(whole.strides, whole[t:b].tobytes()) for t, b in spans]

    def test_holds_one_band_not_the_map(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((256, 60, 80), dtype=np.float32)
        write_tensor(arr, tmp_path / "t.mten")
        spans = [(t, t + 17) for t in range(0, 44, 3)]  # every row, 17 rows a window
        band = read_tensor(tmp_path / "t.mten", band=True)
        tracemalloc.start()
        try:
            for _ in band.windows(*zip(*spans)):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = (17 + tensor_io.BAND_STEP) * 80 * 256 * 4  # a float32 band
        assert held < 0.6 * arr.nbytes  # the float32 map would be arr.nbytes
        assert peak <= held + tensor_io._STAGE_BYTES + (64 << 10)

    @pytest.mark.parametrize("shape", [(6,), (2, 3), (1, 2, 2, 2)], ids=["1-d", "2-d", "4-d"])
    def test_rejects_other_ranks(self, tmp_path, shape):
        path = tmp_path / "t.mten"
        write_tensor(np.ones(shape, np.uint8), path)
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path, band=True)
        assert str(info.value) == f"{path}: feature map must be [C, Hf, Wf], got shape {shape}"

    def test_rejects_what_the_plain_read_rejects(self, tmp_path):
        path = tmp_path / "t.mten"
        write_tensor(np.zeros((2, 3, 4), dtype=np.float32), path)
        path.write_bytes(path.read_bytes()[:-3])
        for band in (False, True):
            with pytest.raises(TensorFormatError, match="header declares 96 bytes, file holds 93$"):
                read_tensor(path, band=band)

    @pytest.mark.parametrize("top, left", [(0, 50), (0, 0), (2, 10)])
    def test_a_map_that_shrinks_after_its_header_is_never_served(self, tmp_path, top, left):
        # The 96-byte payload keeps ``left`` bytes: all of channel 0's 48 and 2 of channel 1's,
        # none, or 10, fewer than lie before the window's first row (at byte 32).
        path = tmp_path / "t.mten"
        write_tensor(np.zeros((2, 3, 4), dtype=np.float32), path)
        band = read_tensor(path, band=True)
        path.write_bytes(path.read_bytes()[: 64 + left])
        with pytest.raises(TensorFormatError, match=f"mismatch: header declares 96 bytes, file holds {left}$"):
            list(band.windows([top], [3]))

    @pytest.mark.parametrize("dtype, shape", [(np.float32, (2, 4, 3)), (np.uint8, (2, 3, 16))], ids=["shape", "dtype"])
    def test_a_map_rewritten_in_place_is_never_served(self, tmp_path, dtype, shape):
        # Both rewrites keep the 96-byte payload, so only the header tells them apart.
        path = tmp_path / "t.mten"
        write_tensor(np.zeros((2, 3, 4), dtype=np.float32), path)
        band = read_tensor(path, band=True)
        write_tensor(np.ones(shape, dtype=dtype), path)
        with pytest.raises(TensorFormatError) as info:
            list(band.windows([0], [3]))
        code = "f32" if dtype is np.float32 else "u8"
        assert str(info.value) == f"{path}: map changed since it was read, now {code} {list(shape)}"


class TestPpm:
    def _frame(self, w=4, h=3):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=3 * w * h, dtype=np.uint8)
        return ImageFrame(width=w, height=h, pixels=pixels)

    @pytest.mark.parametrize(
        "width, height, size, message",
        [
            (0, 3, 0, "frame dimensions must be positive, got 0x3"),
            (4, 0, 0, "frame dimensions must be positive, got 4x0"),
            (4, 3, 35, "pixel buffer has 35 bytes, expected 36"),
            (4, 3, 37, "pixel buffer has 37 bytes, expected 36"),
        ],
    )
    def test_frame_rejects_a_size_its_pixels_cannot_fill(self, width, height, size, message):
        with pytest.raises(ValueError) as info:
            ImageFrame(width=width, height=height, pixels=np.zeros(size, dtype=np.uint8))
        assert str(info.value) == message

    def test_round_trip(self, tmp_path):
        frame = self._frame()
        path = tmp_path / "frame_000005.ppm"
        write_ppm(frame, path)
        back = read_ppm(path)
        assert (back.width, back.height) == (frame.width, frame.height)
        assert np.array_equal(back.pixels, frame.pixels)

    def test_read_holds_the_payload_once(self, tmp_path):
        # The pixels go straight into the frame's buffer, with no whole-file copy beside it.
        payload = 3 * 320 * 240
        path = tmp_path / "frame_1.ppm"
        write_ppm(ImageFrame(width=320, height=240, pixels=np.zeros(payload, dtype=np.uint8)), path)
        tracemalloc.start()
        try:
            frame = read_ppm(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert frame.pixels.size == payload
        assert peak <= 1.25 * payload

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "img_1.ppm"
        path.write_bytes(b"P6 # comment\n# another\n2 1\n255\n" + bytes(6))
        frame = read_ppm(path)
        assert (frame.width, frame.height) == (2, 1)

    def test_trailing_bytes_ignored(self, tmp_path):
        path = tmp_path / "img_1.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes(3) + b"junk")
        assert read_ppm(path).pixels.size == 3

    def test_rejects_p3(self, tmp_path):
        path = tmp_path / "img_1.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(PpmError, match=r'img_1\.ppm: unsupported format "P3", only binary P6'):
            read_ppm(path)

    def test_rejects_non_numeric_header(self, tmp_path):
        path = tmp_path / "img_1.ppm"
        path.write_bytes(b"P6\nwide 1\n255\n" + bytes(3))
        with pytest.raises(PpmError, match=r'img_1\.ppm: non-numeric header token "wide"'):
            read_ppm(path)

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "img_1.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(PpmError, match=r"img_1\.ppm: maxval 65535 unsupported, expected 255"):
            read_ppm(path)

    def test_rejects_short_payload(self, tmp_path):
        path = tmp_path / "img_1.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(PpmError, match=r"img_1\.ppm: payload holds 5 bytes, header promises 12"):
            read_ppm(path)

    def test_reads_a_file_whatever_its_name(self, tmp_path):
        frame = self._frame()
        path = tmp_path / "cover.ppm"  # no digits: a frame index is frame_pipeline's rule, not the codec's
        write_ppm(frame, path)
        assert np.array_equal(read_ppm(path).pixels, frame.pixels)
        assert read_ppm_header(path) == (4, 3)

    @pytest.mark.parametrize(
        "header, message",
        [
            (b"P" * 5000 + b"\n1 1\n255\n", 'unsupported format "' + "P" * 79 + "..."),
            (b"P6\n" + b"w" * 5000 + b" 1\n255\n", 'non-numeric header token "' + "w" * 79 + "..."),
            (b"P6\n-" + b"9" * 3000 + b" 1\n255\n", "non-positive dimensions -" + "9" * 79 + "...x1"),
            (b"P6\n1 1\n" + b"7" * 3000 + b"\n", "maxval " + "7" * 80 + "... unsupported, expected 255"),
            (b"P6\n" + b"1" * 3000 + b" 1\n255\n", "payload holds 3 bytes, header promises 3" + "3" * 79 + "..."),
            # 3 * w * h has about 8,000 digits, more than str() converts
            (b"P6\n" + b"1" * 4000 + b" " + b"1" * 4000 + b"\n255\n", "payload holds 3 bytes, header promises 3"),
        ],
        ids=["5000-char-magic", "5000-char-token", "3000-digit-negative-width", "3000-digit-maxval",
             "3000-digit-width", "4000-digit-width-and-height"],
    )
    def test_header_errors_cut_what_they_echo(self, tmp_path, header, message):
        path = tmp_path / "img_1.ppm"
        path.write_bytes(header + bytes(3))
        for read in (read_ppm, read_ppm_header):
            with pytest.raises(PpmError) as caught:
                read(path)
            assert str(caught.value).startswith(f"{path}: {message}")
            assert len(str(caught.value)) <= len(str(path)) + 150

    def test_header_read_past_its_prefix(self, tmp_path):
        path = tmp_path / "img_7.ppm"
        path.write_bytes(b"P6\n# " + b"x" * 5000 + b"\n2 1\n255\n" + bytes(6))
        assert read_ppm_header(path) == (2, 1)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(PpmError, match=r"img_7\.ppm: payload holds 5 bytes, header promises 6"):
            read_ppm_header(path)

    @settings(max_examples=200, deadline=None)
    @given(
        comment=st.integers(0, 700),
        name=st.sampled_from(("frame_000003.ppm", "frame.ppm")),
        kind=st.sampled_from(("none", "truncate", "flip")),
        pos=st.integers(0, 1 << 12),
        mask=st.integers(1, 255),
    )
    def test_header_check_raises_what_decoding_raises(self, tmp_path_factory, comment, name, kind, pos, mask):
        data = b"P6\n" + (b"# " + b"c" * comment + b"\n" if comment else b"") + b"3 2\n255\n" + bytes(18)
        i = pos % len(data)
        if kind == "truncate":
            data = data[:i]
        elif kind == "flip":
            data = data[:i] + bytes([data[i] ^ mask]) + data[i + 1 :]
        path = tmp_path_factory.mktemp("ppm") / name
        path.write_bytes(data)
        try:
            frame = read_ppm(path)
        except PpmError as exc:
            with pytest.raises(type(exc)) as caught:
                read_ppm_header(path)
            assert str(caught.value) == str(exc)
        else:
            assert read_ppm_header(path) == (frame.width, frame.height)

    def test_to_planar_channel_layout(self):
        # One red, one green pixel: planes must separate cleanly.
        pixels = np.array([255, 0, 0, 0, 255, 0], dtype=np.uint8)
        frame = ImageFrame(width=2, height=1, pixels=pixels)
        planar = to_planar(frame)
        assert planar.shape == (3, 1, 2)
        assert planar[0, 0, 0] == 255 and planar[1, 0, 1] == 255
        assert planar.sum() == 510
