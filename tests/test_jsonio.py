"""The shared JSON/JSON-lines layer: located errors and stable output bytes."""

import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionstack import jsonio
from motionstack.errors import DataValidationError
from motionstack.jsonio import (
    check_box,
    check_boxes,
    check_number,
    expect,
    expect_int,
    expect_ints,
    read_json,
    read_jsonl,
    write_json,
    write_lines,
)


class TestRead:
    def test_jsonl_line_numbers_follow_universal_newlines(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'{"k": 1}\r\n\r\n  \n{"k": 2}\r{"k": 3}\n')
        assert list(read_jsonl(path)) == [
            (f"{path}:1", {"k": 1}),
            (f"{path}:4", {"k": 2}),
            (f"{path}:5", {"k": 3}),
        ]

    @pytest.mark.parametrize(
        "data, message",
        [
            pytest.param(
                b'{"k": 1}\n\n[1]\n',
                r"a\.jsonl:3 must be an object, got \[1\]",
                id='{"k": 1}\n\n[1]\n-' + r"a\.jsonl:3: expected an object, got list",
            ),
            (b'{"k": 1}\r\nnope\r\n', r"a\.jsonl:2: invalid JSON"),
            (b'{"k": 1}\n{"k": "\xe9"}\n', r"a\.jsonl: not UTF-8 text"),
        ],
    )
    def test_jsonl_errors_are_located(self, tmp_path, data, message):
        path = tmp_path / "a.jsonl"
        path.write_bytes(data)
        with pytest.raises(DataValidationError, match=message):
            list(read_jsonl(path))

    def test_deep_nesting_is_invalid_json(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_bytes(b"[" * 100_000)
        with pytest.raises(DataValidationError, match=r"a\.json: invalid JSON"):
            read_json(path)


def _manifest(items):
    """A stack manifest of ``items`` items, with floats, text and empty containers that a writer could misspell."""
    config = {"variant": "diff_seq", "scale": 1.5, "zero": -0.0, "big": 1e300, "note": "pingüino ペンギン", "none": None}
    return {
        "config": {**config, "offsets": [], "extra": {}},
        "items": [{"frame": t, "stack": f"stack_{t}.mten", "label": f"frame_{t:06d}.txt", "x": [], "y": {}}
                  for t in range(items)],
    }


class TestWrite:
    def test_json_is_indented_with_final_newline(self, tmp_path):
        path = tmp_path / "a.json"
        write_json({"b": [1, 2]}, path)
        assert path.read_bytes() == b'{\n  "b": [\n    1,\n    2\n  ]\n}\n'
        assert read_json(path) == {"b": [1, 2]}

    @pytest.mark.parametrize(
        "doc", [_manifest(2048), _manifest(0), {}, [], [[], {}, [{}]], {"a": {"b": []}}, "ü", -0.0, 1e300, None],
        ids=["manifest", "no-items", "object", "list", "nested-empty", "empty-leaf", "text", "zero", "big", "null"],
    )
    def test_json_is_the_bytes_json_dumps_writes(self, tmp_path, doc):
        path = tmp_path / "a.json"
        write_json(doc, path)
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode("utf-8")

    def test_json_is_written_without_its_whole_text(self, tmp_path):
        doc = _manifest(2048)
        size = len(json.dumps(doc, indent=2))  # about 270,000 characters; writing them as one string traced 1.9 MB
        tracemalloc.start()
        try:
            write_json(doc, tmp_path / "m.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size / 4, (peak, size)

    def test_lines_are_the_bytes_json_dumps_writes(self, tmp_path):
        path = tmp_path / "a.jsonl"
        rows = [(0, 0.1, 2**70), (-3, 1e300, 7), (5, -0.0, 0), (1, 1.0, -1), (2, 5e-324, 3), (4, 0.1 + 0.2, 9)]
        rows *= 200  # more lines than one write holds
        write_lines('{"i": %d, "x": [%r], "c": %d}\n', rows, path)
        want = "".join(json.dumps({"i": i, "x": [x], "c": c}) + "\n" for i, x, c in rows)
        assert path.read_bytes() == want.encode()


def test_check_box_rejects_a_corner_too_large_for_a_float():
    with pytest.raises(DataValidationError, match=r"w: bbox\[2\] must be a finite number, got 1000"):
        check_box([0, 0, 10**400, 1], "w")


def _check_box_by_box(raw, where):
    return [check_box(b, f"{where}[{i}]") for i, b in enumerate(raw)]


_GOOD_BOXES = [[0, 0, 4, 4], [1.5, 2, 3.25, 9], [2**60, -7, 2**60 + 2**10, 1e300]]


def test_check_boxes_equals_check_box_on_valid_boxes():
    got = check_boxes(_GOOD_BOXES, "f: boxes")
    assert got.dtype == np.float64
    assert got.shape == (3, 4)
    assert got.tolist() == [list(box) for box in _check_box_by_box(_GOOD_BOXES, "f: boxes")]
    assert check_boxes([], "f: boxes").shape == (0, 4)


@pytest.mark.parametrize(
    "bad",
    [[0, True, 4, 4], [0, float("nan"), 4, 4], [0, 0, float("inf"), 4], [0, 0, 10**400, 4], [0, 0, 4], [4, 0, 4, 4],
     [0, 4, 4, 1], "box", None],
    ids=["bool", "nan", "inf", "int-past-float", "length", "x2<=x1", "y2<=y1", "string", "null"],
)
def test_check_boxes_names_the_first_bad_box_as_check_box_does(bad):
    raw = _GOOD_BOXES + [bad] + _GOOD_BOXES
    with pytest.raises(DataValidationError) as want:
        _check_box_by_box(raw, "f: boxes")
    assert "f: boxes[3]" in str(want.value)
    with pytest.raises(DataValidationError) as got:
        check_boxes(raw, "f: boxes")
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "check",
    [lambda raw: expect(raw, list, "w"), lambda raw: check_number(raw, "w"), lambda raw: check_box(raw, "w")],
    ids=["expect", "check_number", "check_box"],
)
def test_rejected_value_is_echoed_as_a_bounded_prefix(check):
    raw = {str(i): [0, 0, 4, 4] for i in range(2000)}
    with pytest.raises(DataValidationError) as caught:
        check(raw)
    message = str(caught.value)
    assert message.endswith(' {"0": [0, 0, 4, 4], "1": [0, 0, 4, 4], "2": [0, 0, 4, 4], "3": [0, 0, 4, 4], "4"...')
    assert len(message) < 150


@pytest.mark.parametrize(
    "raw, nonnegative, message",
    [
        ([2**63 - 1, -(2**63), 0], False, None),
        ([0, True], False, "w[1] must be an integer, got true"),
        ([0, 2**63], False, "w[1] must be an integer in int64 range, got 9223372036854775808"),
        ([-(2**63) - 1, 1.5], False, "w[0] must be an integer in int64 range, got -9223372036854775809"),
        ([1, 10**4000], False, "w[1] must be an integer in int64 range, got 1" + "0" * 79 + "..."),
        ([2**63 - 1, 0], True, None),
        ([0, -1], True, "w[1] must be a nonnegative integer, got -1"),
        ([5, -(2**70)], True, "w[1] must be a nonnegative integer, got -1180591620717411303424"),
        ([0, 2**63], True, "w[1] must be an integer in int64 range, got 9223372036854775808"),
    ],
)
def test_expect_ints_names_the_first_entry_outside_int64(raw, nonnegative, message):
    if message is None:
        assert expect_ints(raw, "w", nonnegative) is raw
        assert [expect_int(v, "w", nonnegative) for v in raw] == raw
        return
    with pytest.raises(DataValidationError) as caught:
        expect_ints(raw, "w", nonnegative)
    assert str(caught.value) == message
    k = int(message[2])
    with pytest.raises(DataValidationError) as caught:
        expect_int(raw[k], f"w[{k}]", nonnegative)
    assert str(caught.value) == message


# Record files through the loaders and through their schemas written out line
# by line: valid files and files with one mutation must give the same records
# or the same message.

_INTS = st.one_of(st.integers(0, 20), st.sampled_from([-3, 2**63 - 1, -(2**63)]))  # int64's ends
_PAST_INT64 = st.sampled_from([2**63, -(2**63) - 1, 2**70])
_CORNER = st.one_of(st.integers(-50, 300), st.floats(-50.0, 300.0))
_SIZE = st.one_of(st.integers(1, 40), st.floats(0.5, 40.0))
_MUTATIONS = (
    None, "bool", "past int64", "nan", "string", "five corners", "inverted", "missing key", "non-object", "blank lines",
    "trailing text",
)


@st.composite
def _box(draw):
    x, y = draw(_CORNER), draw(_CORNER)
    return [x, y, x + draw(_SIZE), y + draw(_SIZE)]


@st.composite
def _record(draw, kind):
    if kind == "triplets":
        return {key: [draw(_INTS), draw(_INTS)] for key in ("a", "p", "n")}
    record = {"frame": draw(_INTS), "bbox": draw(_box())}
    if kind == "detections":
        record["score"] = draw(st.one_of(st.integers(0, 100).map(lambda k: k / 100), st.sampled_from([0, 1])))
    record["class"] = draw(st.sampled_from([0, -3, 7, 2**63 - 1, -(2**63)]))
    return record


def _mutate(records, lines, mutation, draw):
    # Apply ``mutation`` to one record or line, in place.
    i = draw(st.integers(0, len(records) - 1))
    record = records[i]
    shaped = mutation in ("nan", "five corners", "inverted") and "bbox" in record  # aim at the box
    key = "bbox" if shaped else draw(st.sampled_from(sorted(record)))
    value = record[key]
    if mutation == "bool":
        if isinstance(value, list):
            value[draw(st.integers(0, len(value) - 1))] = draw(st.booleans())
        else:
            record[key] = draw(st.booleans())
    elif mutation in ("past int64", "nan", "string"):
        new = {"past int64": draw(_PAST_INT64), "nan": float("nan"), "string": "0.5"}[mutation]
        if isinstance(value, list):
            value[draw(st.integers(0, len(value) - 1))] = new
        else:
            record[key] = new
    elif mutation == "five corners":
        record[key] = (value if isinstance(value, list) else [value]) + [1]
    elif mutation == "inverted" and key == "bbox":
        axis = draw(st.sampled_from([0, 1]))  # swap x1 and x2, or y1 and y2
        value[axis], value[axis + 2] = value[axis + 2], value[axis]
    elif mutation == "inverted":
        record[key] = value[:1] if isinstance(value, list) else [value]
    elif mutation == "missing key":
        del record[key]
    lines[:] = [json.dumps(r) for r in records]
    if mutation == "non-object":
        lines[i] = draw(st.sampled_from(["[1, 2]", '"frame"', "3", "null"]))
    elif mutation == "blank lines":
        lines.insert(i, draw(st.sampled_from(["", "   ", "\t"])))
    elif mutation == "trailing text":
        lines[i] += draw(st.sampled_from([" x", " {}", ",", "]"]))


def _int64(raw, where):
    # An integer that fits int64.
    if not -(2**63) <= expect(raw, int, where) < 2**63:
        raise DataValidationError(f"{where} must be an integer in int64 range, got {jsonio._echo(raw)}")
    return raw


def _records_per_line(path, scored):
    # The loaders' schema written out field by field, in the order of their
    # messages: score, then frame, bbox and class.
    from motionstack.det_metrics import Detection, GroundTruth

    out = []
    for where, record in read_jsonl(path):
        if scored:
            score = check_number(record.get("score"), f"{where}: score")
            if not 0.0 <= score <= 1.0:
                raise DataValidationError(f"{where}: score must lie in [0, 1], got {jsonio._echo(record['score'])}")
        frame = _int64(record.get("frame"), f"{where}: frame")
        bbox = check_box(record.get("bbox"), where)
        label = _int64(record.get("class"), f"{where}: class")
        out.append(Detection(frame, bbox, score, label) if scored else GroundTruth(frame, bbox, label))
    return out


def _triplets_per_line(path):
    # Keys a, p and n in turn, a missing one read as null; all of them as one
    # int64 [T, 3, 2] array.
    def ref(raw, where):
        for k, v in enumerate(expect(raw, list, where)):
            _int64(v, f"{where}[{k}]")
        if len(raw) != 2:
            raise DataValidationError(f"{where}: expected [tracklet_id, frame], got {jsonio._echo(raw)}")
        return raw

    keys = [[ref(record.get(key), f"{where}: {key}") for key in ("a", "p", "n")] for where, record in read_jsonl(path)]
    return np.array(keys, dtype=np.int64).reshape(len(keys), 3, 2)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_column_and_per_line_paths_agree_on_record_files(data):
    from motionstack import det_metrics, metric_learning

    kind = data.draw(st.sampled_from(["detections", "ground truth", "triplets"]))
    load, per_line = {
        "detections": (det_metrics.load_detections_jsonl, lambda p: _records_per_line(p, scored=True)),
        "ground truth": (det_metrics.load_ground_truth_jsonl, lambda p: _records_per_line(p, scored=False)),
        "triplets": (metric_learning.load_triplets_jsonl, _triplets_per_line),
    }[kind]
    records = data.draw(st.lists(_record(kind), min_size=1, max_size=8))
    lines = [json.dumps(r) for r in records]
    mutation = data.draw(st.sampled_from(_MUTATIONS))
    if mutation is not None:
        _mutate(records, lines, mutation, data.draw)

    def outcome(load):
        try:
            loaded = load(path)
        except DataValidationError as exc:
            return str(exc)
        # repr tells 1 from 1.0 and from True, and a Python int from a numpy one.
        return repr(list(loaded)), repr([loaded[i] for i in range(len(loaded))])

    block = data.draw(st.sampled_from([1, 3, jsonio._ROWS]))  # lines checked at once
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(jsonio, "_ROWS", block):
        path = Path(tmp) / "records.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want = outcome(per_line)
        if isinstance(want, str):
            assert outcome(load) == want
        else:  # a valid file never needs the record-by-record walk
            with mock.patch.object(jsonio, "read_jsonl", side_effect=AssertionError("walked the file")):
                assert outcome(load) == want
