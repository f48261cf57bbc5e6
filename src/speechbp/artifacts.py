"""Every artifact's byte format, and the only code that writes files.

A file is written under a temporary name in its own directory and renamed
over its target, so the target holds the old bytes or the new ones; a
killed process can leave a `.<name>.<pid>.tmp` file beside it.  No fsync:
this holds against a crashed process, not a lost power supply.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

from .errors import MalformedArtifact


def write_bytes(path, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, payload) -> None:
    write_bytes(path, (json.dumps(payload, indent=2, sort_keys=True)
                       + "\n").encode("utf-8"))


def write_csv(path, header, rows) -> None:
    """A float cell carries 17 significant digits: it parses back exactly."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows([f"{c:.17g}" if isinstance(c, float) else c
                      for c in row] for row in rows)
    write_bytes(path, out.getvalue().encode("utf-8"))


def require_keys(payload, keys: dict, where):
    """payload, checked to be a JSON object that holds every key of `keys`
    with a value of the type it maps to; a bool is not an int here, though
    it is one to Python."""
    if not isinstance(payload, dict):
        raise MalformedArtifact(f"{where}: not a JSON object")
    missing = [k for k in keys if k not in payload]
    if missing:
        raise MalformedArtifact(f"{where}: lacks {missing}")
    for key, kind in keys.items():
        value = payload[key]
        if not isinstance(value, kind) or (kind is int
                                           and isinstance(value, bool)):
            raise MalformedArtifact(f"{where}: {key} is "
                                    f"{type(value).__name__}, "
                                    f"expected {kind.__name__}")
    return payload


def parse_json(raw: bytes, where, keys: dict) -> dict:
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise MalformedArtifact(f"{where}: {err}") from None
    return require_keys(payload, keys, where)


def read_json(path, keys: dict) -> dict:
    return parse_json(Path(path).read_bytes(), path, keys)


def read_csv(path):
    """(header, rows); every row has as many cells as the header."""
    try:
        reader = csv.reader(io.StringIO(
            Path(path).read_bytes().decode("utf-8"), newline=""))
        header = tuple(next(reader, ()))
        rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as err:
        raise MalformedArtifact(f"{path}: {err}") from None
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise MalformedArtifact(f"{path}: line {line} has {len(row)} "
                                    f"cells, the header {len(header)}")
    return header, rows
