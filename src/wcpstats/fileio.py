"""Atomic file writing, canonical JSON and integer-CSV reading shared by all modules.

Output files are produced by writing to a temporary file in the target
directory and renaming it into place, so readers never observe a partial
file.  JSON is dumped with sorted keys so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path


def write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json_atomic(path: str | Path, payload) -> None:
    write_text_atomic(path, dump_json(payload))


def read_json(path: str | Path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_int_csv(path: str | Path, header: tuple[str, ...], make) -> list:
    """``make(*row)`` for each row of an integer CSV; a bad row's error names its line."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        found = next(reader, None)
        if found != list(header):
            raise ValueError(f"{path}: expected CSV header {','.join(header)}, got {found}")
        rows = []
        for row in filter(None, reader):
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                rows.append(make(*map(int, row)))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        return rows
