"""Atomic file writing, canonical JSON and integer-CSV reading shared by all modules.

Output files are produced by writing to a temporary file in the target
directory and renaming it into place, so readers never observe a partial
file.  JSON is dumped with sorted keys so identical inputs give
byte-identical files, and read strictly: the ``json_*`` helpers reject a
value of the wrong type or an unknown key instead of coercing or dropping it.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

# Lines per block when a CSV that failed to parse is read again to name its first bad line.
_BLOCK_LINES = 4096


def write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # A fresh name (O_EXCL) in the target directory; mode 0o666 lets the umask
    # set the permissions, as a plain open() would.
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(payload) -> str:
    """Canonical JSON text; a NaN or an infinity, which JSON cannot hold, raises ValueError."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json_atomic(path: str | Path, payload) -> None:
    write_text_atomic(path, dump_json(payload))


def read_json(path: str | Path, build=None, what: str = ""):
    """The JSON value in ``path``, or ``build`` of it, which must then be an object.

    This is the one place a badly shaped file becomes an error: a top level
    that is not an object, or a TypeError, AttributeError or KeyError that
    ``build`` raises, is reported as ValueError ``malformed <what>: ...``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON: {exc}") from None
    if build is None:
        return data
    try:
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        return build(data)
    except (TypeError, AttributeError, KeyError) as exc:
        reason = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"malformed {what}: {reason}") from None


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key raises ValueError rather than keeping its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"malformed JSON: key {key!r} given twice")
        data[key] = value
    return data


def json_int(value, name: str) -> int:
    """An integral JSON number such as 3 or 1e6; a bool or a fraction raises TypeError."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def json_float(value, name: str) -> float:
    """A JSON number as a float; a bool, a string or an integer beyond the float range raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        digits = len(str(abs(value)))
        raise TypeError(f"{name} must be a number within the float range, got an integer of {digits} digits") from None


def json_list(value, name: str) -> list:
    """A JSON array; any other value raises TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list, got {value!r}")
    return value


def json_object(value, name: str) -> dict:
    """A JSON object; any other value raises TypeError."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be an object, got {value!r}")
    return value


def json_keys(data: dict, keys: tuple[str, ...], where: str) -> dict:
    """``data``, once it is known to be an object that holds no key outside ``keys``."""
    unknown = sorted(json_object(data, where).keys() - set(keys))
    if unknown:
        raise TypeError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}")
    return data


def write_int_csv(path: str | Path, header: tuple[str, ...], table: np.ndarray) -> None:
    """CSV of an integer table under ``header``, all rows formatted in one pass."""
    row = ",".join(["%d"] * len(header)) + "\n"
    write_text_atomic(path, ",".join(header) + "\n" + row * len(table) % tuple(table.ravel().tolist()))


def read_int_csv(path: str | Path, header: tuple[str, ...], check=lambda *columns: None) -> np.ndarray:
    """The rows of an integer CSV as one int64 table of shape (rows, len(header)).

    Blank lines are skipped, and ``check(*columns)`` may reject values by
    raising ValueError.  The body is parsed in one pass from the file.  When
    that fails, it is parsed again in blocks of ``_BLOCK_LINES`` lines, and
    line by line with the same parser only inside the first block that
    fails, so that the error names the first bad line.  Each block and each
    line is checked together with the row before it, so that rows out of
    order are named too.
    """
    import numpy as np

    with open(path, encoding="utf-8") as handle:
        first = handle.readline().rstrip("\n")
    if first.split(",") != list(header):
        raise ValueError(f"{path}: expected CSV header {','.join(header)}, got {first!r}")
    try:
        table = _int_table(path, len(header), skiprows=1)
        check(*table.T)
        return table
    except (ValueError, OverflowError) as exc:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
        previous = np.empty((0, len(header)), np.int64)
        for start in range(1, len(lines), _BLOCK_LINES):
            block = lines[start : start + _BLOCK_LINES]
            try:
                previous = _last_checked_row(block, previous, check)
            except (ValueError, OverflowError):
                for number, line in enumerate(block, start=start + 1):
                    try:
                        previous = _last_checked_row([line], previous, check)
                    except (ValueError, OverflowError) as line_exc:
                        raise ValueError(f"{path}, line {number}: {line_exc}") from None
        raise ValueError(f"{path}: {exc}") from None


def _last_checked_row(lines: list[str], previous: np.ndarray, check) -> np.ndarray:
    """The last row of ``previous`` followed by the rows of ``lines``, once all of them pass ``check``."""
    import numpy as np

    rows = np.concatenate((previous, _int_table(lines, previous.shape[1])))
    check(*rows.T)
    return rows[-1:]


def _int_table(source, width: int, skiprows: int = 0) -> np.ndarray:
    """The int64 table of ``width`` columns in a CSV file or list of lines; no rows give (0, width)."""
    import numpy as np

    with warnings.catch_warnings():
        # loadtxt warns on a body without rows, which is a valid empty table here.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(source, np.int64, delimiter=",", comments=None, skiprows=skiprows, ndmin=2, encoding="utf-8")
    if table.size and table.shape[1] != width:
        raise ValueError(f"expected {width} fields per row")
    return table.reshape(-1, width)
