"""The one JSON and JSON-lines layer behind every input file and artifact.

Readers raise ``DataValidationError`` naming the file (and line) for bytes
that are not UTF-8, text that is not JSON, and JSON-lines records that are
not objects; a missing file still raises ``OSError``. Writers emit UTF-8.
The type rules of the values inside live here too, worded ``{where} must be
{kind}, got {JSON}``, a rejected value cut to its first 80 characters.
A number is a finite int or float; a bool is neither.
"""

from __future__ import annotations

import json
from math import isfinite
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from .errors import DataValidationError


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: not UTF-8 text: {exc}") from None


def _parse(text: str, where: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # deep nesting raises RecursionError
        raise DataValidationError(f"{where}: invalid JSON: {exc}") from exc


def read_json(path: str | Path) -> Any:
    return _parse(_read_text(path), str(path))


def read_jsonl(path: str | Path) -> Iterator[tuple[str, dict]]:
    """Yield ``("path:line", record)`` per nonblank line, numbered as iterating the file would."""
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        yield where, expect(_parse(line, where), dict, where)


def write_json(doc: Any, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


# Characters of a rejected value that an error repeats, so a value as long as
# the file still gives a one-line message of bounded length.
_ECHO_LIMIT = 80


def _echo(raw: Any) -> str:
    text = json.dumps(raw, default=repr)  # a value from outside JSON, such as a numpy int, echoes its repr
    return text if len(text) <= _ECHO_LIMIT else text[:_ECHO_LIMIT] + "..."


_KINDS = {int: "an integer", list: "a list", dict: "an object", str: "a string", bool: "true or false"}
_NUMBERS = {int, float}


def expect(raw: Any, kind: type, where: str) -> Any:
    """Return ``raw`` if it is a JSON value of ``kind``, one of the keys of ``_KINDS``."""
    if type(raw) is not kind:  # not isinstance: a bool is not an integer
        raise DataValidationError(f"{where} must be {_KINDS[kind]}, got {_echo(raw)}")
    return raw


def expect_ints(raw: Any, where: str) -> list[int]:
    """Return ``raw`` if it is a list of integers, checked in one pass over the entries."""
    if not {int}.issuperset(map(type, expect(raw, list, where))):
        for k, v in enumerate(raw):  # name the first entry that is not an integer
            expect(v, int, f"{where}[{k}]")
    return raw


def check_number(raw: Any, where: str) -> float:
    """Return ``raw`` as a float if it is a finite JSON number."""
    try:
        if type(raw) in _NUMBERS and isfinite(raw):
            return float(raw)
    except OverflowError:  # an integer past the float range is rejected, not rounded to inf
        pass
    raise DataValidationError(f"{where} must be a finite number, got {_echo(raw)}")


def check_box(raw: Any, where: str) -> tuple[float, float, float, float]:
    """Validate an ``[x1, y1, x2, y2]`` list of finite numbers with x2 > x1 and y2 > y1."""
    if type(raw) is not list or len(raw) != 4:
        raise DataValidationError(f"{where}: bbox must be [x1, y1, x2, y2], got {_echo(raw)}")
    try:  # check_number's rule in one pass over the corners
        valid = _NUMBERS.issuperset(map(type, raw)) and all(map(isfinite, raw))
    except OverflowError:
        valid = False
    if not valid:
        for k, v in enumerate(raw):  # name the first bad corner
            check_number(v, f"{where}: bbox[{k}]")
    x1, y1, x2, y2 = box = tuple(map(float, raw))
    if x2 <= x1 or y2 <= y1:
        raise DataValidationError(f"{where}: bbox must satisfy x2 > x1 and y2 > y1, got {_echo(raw)}")
    return box


def check_boxes(raw: list, where: str) -> np.ndarray:
    """Validate a list of boxes as ``check_box`` does, naming box i ``{where}[{i}]``: float64 [N, 4].

    All boxes are checked at once; only a list that fails goes through
    ``check_box`` box by box, to raise its message for the first bad box.
    """
    try:  # check_box's rules on the whole list
        if all(type(b) is list and len(b) == 4 and _NUMBERS.issuperset(map(type, b)) for b in raw):
            boxes = np.array(raw, dtype=np.float64).reshape(len(raw), 4)
            x1, y1, x2, y2 = boxes.T
            if np.isfinite(boxes).all() and (x2 > x1).all() and (y2 > y1).all():
                return boxes
    except OverflowError:  # an integer past the float range
        pass
    return np.array([check_box(b, f"{where}[{i}]") for i, b in enumerate(raw)], dtype=np.float64)
