"""Deterministic report serialization.

Reports are plain nested dicts/lists of JSON-safe values. The JSON writer
fixes key order (sorted) and float formatting (17 significant digits, which
round-trips IEEE doubles bit-exactly), so identical runs produce identical
bytes. The CSV bundle exports every array-valued series for plotting.
"""

from __future__ import annotations

import csv
import numbers
from pathlib import Path

import numpy as np


def format_float(x: float) -> str:
    """17-significant-digit decimal form; float(format_float(x)) == x.

    An integral value keeps a float literal (0.0, -0.0, 1.0), so a JSON
    reader loads every report float as a float, with its sign.
    """
    if not np.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot appear in a report")
    text = "%.17g" % float(x)
    return text if "." in text or "e" in text else text + ".0"


def _serialize(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            parts.append(f'{inner}"{key}": {_serialize(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        parts = [inner + _serialize(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        import json

        return json.dumps(obj)
    if isinstance(obj, numbers.Complex):
        raise TypeError("complex values must be encoded as [re, im] pairs upstream")
    raise TypeError(f"unsupported report value type {type(obj)!r}")


def canonical_json(report: dict) -> str:
    """Byte-deterministic JSON text (sorted keys, fixed float format)."""
    return _serialize(report, 0) + "\n"


# The common file-system limit on the length of one file name.
MAX_FILE_NAME_BYTES = 255
# The files emit writes: <name>_report.json, or one <name>_<task>_<key>.csv
# per series below, given as the task kind that produces it, the key of its
# data, the header, and the rows of data[key].
_JSON_SUFFIX = "_report.json"
_CSV_SERIES = (
    ("spectral", "spectrum", ["n", "re", "im"],
     lambda s: [(n, float(re), float(im)) for n, (re, im) in enumerate(s)]),
    ("scaling", "curve", ["epsilon", "residual"],
     lambda s: [(float(e), float(r)) for e, r in s]),
    ("wave", "kernel_slice", ["x", "re_q1", "im_q1"],
     lambda s: [(float(x), float(re), float(im)) for x, re, im in s["rows"]]),
)


def longest_file_name_bytes(name: str) -> int:
    """UTF-8 length of the longest file name emit can write for a report called name.

    Raises UnicodeEncodeError when name is not UTF-8 encodable (a lone surrogate).
    """
    suffixes = [_JSON_SUFFIX] + [f"_{task}_{key}.csv" for task, key, _, _ in _CSV_SERIES]
    return len(name.encode("utf-8")) + max(len(s) for s in suffixes)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([format_float(v) if isinstance(v, float) else v for v in row])


def emit(report: dict, out_dir, fmt: str = "json") -> list[Path]:
    """Write the report; returns the paths produced.

    json: one document mirroring the report. csv: one file per array-valued
    series (spectrum, scaling curve, kernel slice).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = report["name"]
    if fmt == "json":
        path = out / f"{name}{_JSON_SUFFIX}"
        path.write_text(canonical_json(report), encoding="utf-8")
        return [path]
    if fmt != "csv":
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    written = []
    for record in report["tasks"]:
        data = record.get("data") or {}
        for task, key, header, rows in _CSV_SERIES:
            if record["task"] == task and key in data:
                path = out / f"{name}_{task}_{key}.csv"
                _write_csv(path, header, rows(data[key]))
                written.append(path)
    return written
