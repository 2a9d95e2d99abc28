"""The one JSON and JSON-lines layer behind every input file and artifact.

Readers raise ``DataValidationError`` naming the file (and line) for bytes
that are not UTF-8, text that is not JSON, and JSON-lines records that are
not objects; a missing file still raises ``OSError``. Writers emit UTF-8.
The type rules of the values inside live here too, worded ``{where} must be
{kind}, got {JSON}``, a rejected value cut to its first 80 characters. An
integer fits int64; a number is a finite int or float; a bool is neither.

Record files are read as columns by ``read_records``, from one mapping of
each key to its kind: each line is parsed once and each key's values are
checked as one column, and only a file that fails is walked again record
by record, through ``read_jsonl``, to name its first bad value.
``write_lines`` writes such records back from columns, with the bytes
``json.dumps`` gives them.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from math import isfinite
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

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
    """Write ``json.dumps(doc, indent=2)`` and a newline as ``Path.write_text`` would, a batch of pieces at a time."""
    pieces = json.JSONEncoder(indent=2).iterencode(doc)
    with open(path, "w", encoding="utf-8") as fh:
        while chunk := "".join(islice(pieces, _ROWS)):  # a piece is a JSON token, never empty
            fh.write(chunk)
        fh.write("\n")


def write_lines(template: str, rows: Iterable[tuple], path: str | Path, head: str = "") -> None:
    """Write ``head``, then one ``template % row`` line per row of Python values.

    A template spells a record as ``json.dumps`` does, with ``%d`` for each
    int and ``%r`` for each float, so a finite float comes out as the
    shortest repr that ``json.dumps`` also writes. Line ends are written as
    the template spells them, on every platform.
    """
    lines = map(template.__mod__, rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(head)
        while chunk := "".join(islice(lines, _ROWS)):
            fh.write(chunk)


# Rows that ``write_lines`` and ``array_rows`` hold at once.
_ROWS = 512


def array_rows(*columns: np.ndarray) -> Iterator[tuple]:
    """The rows of equal-length arrays as tuples of Python values, converted ``_ROWS`` at a time.

    A column of a 2-D array gives each row's values as one list.
    """
    for lo in range(0, len(columns[0]), _ROWS):
        yield from zip(*(column[lo : lo + _ROWS].tolist() for column in columns))


# Characters of a rejected value that an error repeats, so a value as long as
# the file still gives a one-line message of bounded length.
_ECHO_LIMIT = 80


def _echo(raw: Any) -> str:
    if type(raw) is int and raw.bit_length() > 8 * _ECHO_LIMIT:  # str() refuses more than 4,300 digits
        lead = abs(raw) // 10 ** (raw.bit_length() * 3 // 10 - 2 * _ECHO_LIMIT)  # at least 160 leading digits
        raw = -lead if raw < 0 else lead
    text = json.dumps(raw, default=repr)  # a value from outside JSON, such as a numpy int, echoes its repr
    return text if len(text) <= _ECHO_LIMIT else text[:_ECHO_LIMIT] + "..."


_KINDS = {int: "an integer", list: "a list", dict: "an object", str: "a string", bool: "true or false"}
_NUMBERS = {int, float}


def expect(raw: Any, kind: type, where: str) -> Any:
    """Return ``raw`` if it is a JSON value of ``kind``, one of the keys of ``_KINDS``."""
    if type(raw) is not kind:  # not isinstance: a bool is not an integer
        raise DataValidationError(f"{where} must be {_KINDS[kind]}, got {_echo(raw)}")
    return raw


_INT64, _NONNEGATIVE = range(-(2**63), 2**63), range(2**63)


def expect_int(raw: Any, where: str, nonnegative: bool = False) -> int:
    """Return ``raw`` if it is an integer that fits int64, and is not negative if ``nonnegative``."""
    if expect(raw, int, where) not in (_NONNEGATIVE if nonnegative else _INT64):
        kind = "a nonnegative integer" if nonnegative and raw < 0 else "an integer in int64 range"
        raise DataValidationError(f"{where} must be {kind}, got {_echo(raw)}")
    return raw


def int_column(values) -> np.ndarray | None:
    """``values`` as int64 if each is an int or numpy integer (never a bool) in int64 range, else None."""
    try:  # the set of types is checked once; a caller walks the values only to name a bad one
        ok = all(t is int or issubclass(t, np.integer) for t in set(map(type, values)))
        return np.array(values, dtype=np.int64) if ok else None
    except OverflowError:  # an integer outside int64
        return None


def expect_ints(raw: Any, where: str, nonnegative: bool = False) -> list[int]:
    """Return ``raw`` if it is a list of ``expect_int`` integers, checked as one ``int_column`` first."""
    column = int_column(expect(raw, list, where))
    if column is None or nonnegative and (column < 0).any():
        for k, v in enumerate(raw):  # name the first entry that breaks the rule
            expect_int(v, f"{where}[{k}]", nonnegative)
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
    x1, y1, x2, y2 = box = tuple(check_number(v, f"{where}: bbox[{k}]") for k, v in enumerate(raw))
    if x2 <= x1 or y2 <= y1:
        raise DataValidationError(f"{where}: bbox must satisfy x2 > x1 and y2 > y1, got {_echo(raw)}")
    return box


def bad_boxes(boxes: np.ndarray) -> np.ndarray:
    """Whether each box of a float64 [N, 4] array breaks ``check_box``'s rule: finite, x2 > x1 and y2 > y1."""
    return ~np.isfinite(boxes).all(axis=1) | (boxes[:, 2] <= boxes[:, 0]) | (boxes[:, 3] <= boxes[:, 1])


def _box_column(values) -> np.ndarray | None:
    # check_box's rules on a whole list of boxes at once: float64 [N, 4], or
    # None if any box breaks one.
    try:
        if (
            {list}.issuperset(map(type, values))
            and {4}.issuperset(map(len, values))
            and _NUMBERS.issuperset(map(type, chain.from_iterable(values)))
        ):
            boxes = np.array(values, dtype=np.float64).reshape(len(values), 4)
            if not bad_boxes(boxes).any():
                return boxes
    except OverflowError:  # an integer past the float range
        pass
    return None


def check_boxes(raw: list, where: str) -> np.ndarray:
    """Validate a list of boxes as ``check_box`` does, naming box i ``{where}[{i}]``: float64 [N, 4].

    All boxes are checked at once; only a list that fails goes through
    ``check_box`` box by box, to raise its message for the first bad box.
    """
    boxes = _box_column(raw)
    if boxes is not None:
        return boxes
    return np.array([check_box(b, f"{where}[{i}]") for i, b in enumerate(raw)], dtype=np.float64)


def _score_column(values) -> np.ndarray | None:
    # _check_score's rules on a whole column: float64 [N] in [0, 1].
    try:
        if _NUMBERS.issuperset(map(type, values)):
            scores = np.array(values, dtype=np.float64)
            if ((scores >= 0.0) & (scores <= 1.0)).all():  # NaN fails both
                return scores
    except OverflowError:  # an integer past the float range
        pass
    return None


def _check_score(raw: Any, where: str, key: str) -> None:
    if not 0.0 <= check_number(raw, f"{where}: {key}") <= 1.0:
        raise DataValidationError(f"{where}: {key} must lie in [0, 1], got {_echo(raw)}")


def _int_pair_column(values) -> np.ndarray | None:
    # [int, int] lists, as an int64 [N, 2].
    if {list}.issuperset(map(type, values)) and {2}.issuperset(map(len, values)):
        column = int_column(list(chain.from_iterable(values)))
        return None if column is None else column.reshape(len(values), 2)
    return None


def _check_int_pair(raw: Any, where: str, key: str) -> None:
    if len(expect_ints(raw, f"{where}: {key}")) != 2:
        raise DataValidationError(f"{where}: {key}: expected [tracklet_id, frame], got {_echo(raw)}")


# Each kind of record value: its rule on a whole column, which returns the
# column or None, and on the one value of ``key`` at ``where``, which raises
# the message naming a value that breaks it.
_RECORD_KINDS = {
    "int": (int_column, lambda raw, where, key: expect_int(raw, f"{where}: {key}")),
    "score": (_score_column, _check_score),
    "box": (_box_column, lambda raw, where, key: check_box(raw, where)),
    "int pair": (_int_pair_column, _check_int_pair),
}
_scan = json.JSONDecoder().scan_once  # json.loads' parser, without its per-call wrapper


def read_records(path: str | Path, kinds: Mapping[str, str]) -> dict[str, np.ndarray]:
    """Each key of ``kinds`` (two or more) as one checked column over the nonblank lines.

    The kinds are ``"int"`` (int64 [N], as ``expect_int`` accepts),
    ``"score"`` (float64 [N] in [0, 1]), ``"box"`` (float64 [N, 4], as
    ``check_box`` accepts) and ``"int pair"`` (int64 [N, 2]). A bool is
    none of them. Each line is parsed once and only its values are kept,
    and the columns are checked ``_ROWS`` lines at a time. If some line is
    not JSON, not an object or lacks a key, or some column breaks its rule,
    the file is walked record by record through ``read_jsonl``, each
    record's keys checked in ``kinds`` order and a missing key read as
    null, to raise ``DataValidationError`` for the first bad value.
    """
    get = itemgetter(*kinds)
    column_rules, value_rules = zip(*(_RECORD_KINDS[kind] for kind in kinds.values()))

    def checked(rows: list[tuple]) -> list[np.ndarray]:
        columns = [rule(values) for rule, values in zip(column_rules, zip(*rows) if rows else [()] * len(kinds))]
        if any(column is None for column in columns):
            raise ValueError("a column breaks its rule")
        return columns

    blocks, rows = [], []
    try:
        for line in _read_text(path).split("\n"):
            line = line.strip()
            if not line:
                continue
            record, end = _scan(line, 0)
            if end != len(line):
                raise ValueError("text after the value")
            rows.append(get(record))  # KeyError or TypeError unless an object with every key
            if len(rows) == _ROWS:
                blocks.append(checked(rows))
                rows = []
        blocks.append(checked(rows))
    except (ValueError, RecursionError, StopIteration, KeyError, TypeError):
        blocks = None
    if blocks is not None:
        return {key: np.concatenate(parts) for key, parts in zip(kinds, zip(*blocks))}
    for where, record in read_jsonl(path):
        for key, rule in zip(kinds, value_rules):
            rule(record.get(key), where, key)
    raise AssertionError(f"{path}: the column checks rejected values that each pass on their own")
