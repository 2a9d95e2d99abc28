"""The shared JSON/JSON-lines layer: located errors and stable output bytes."""

import numpy as np
import pytest

from motionstack.errors import DataValidationError
from motionstack.jsonio import (
    check_box,
    check_boxes,
    check_number,
    expect,
    read_json,
    read_jsonl,
    write_json,
    write_jsonl,
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


class TestWrite:
    def test_json_is_indented_with_final_newline(self, tmp_path):
        path = tmp_path / "a.json"
        write_json({"b": [1, 2]}, path)
        assert path.read_bytes() == b'{\n  "b": [\n    1,\n    2\n  ]\n}\n'
        assert read_json(path) == {"b": [1, 2]}

    def test_jsonl_is_one_compact_object_per_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(({"i": i} for i in range(2)), path)
        assert path.read_bytes() == b'{"i": 0}\n{"i": 1}\n'


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
