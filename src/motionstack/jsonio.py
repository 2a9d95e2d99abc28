"""The one JSON and JSON-lines layer behind every input file and artifact.

Readers raise ``DataValidationError`` naming the file (and line) for bytes
that are not UTF-8, text that is not JSON, and JSON-lines records that are
not objects; a missing file still raises ``OSError``. Writers emit UTF-8.
"""

from __future__ import annotations

import json
from math import isfinite
from pathlib import Path
from typing import Any, Iterable, Iterator

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
        record = _parse(line, where)
        if not isinstance(record, dict):
            raise DataValidationError(f"{where}: expected an object, got {type(record).__name__}")
        yield where, record


def write_json(doc: Any, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def check_box(raw: Any, where: str) -> tuple[float, float, float, float]:
    """Validate an ``[x1, y1, x2, y2]`` box with finite corners, x2 > x1 and y2 > y1."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise DataValidationError(f"{where}: bbox must be [x1, y1, x2, y2], got {raw!r}")
    try:
        x1, y1, x2, y2 = (float(v) for v in raw)
    except (TypeError, ValueError, OverflowError):
        raise DataValidationError(f"{where}: non-numeric bbox {raw!r}") from None
    if not all(isfinite(v) for v in (x1, y1, x2, y2)):
        raise DataValidationError(f"{where}: non-finite bbox {raw!r}")
    if x2 <= x1 or y2 <= y1:
        raise DataValidationError(f"{where}: bbox must satisfy x2 > x1 and y2 > y1, got {raw!r}")
    return (x1, y1, x2, y2)
