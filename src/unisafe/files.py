"""Readers and writers for every JSON and CSV data file of the package.

A malformed file raises FormatError when its text does not parse (with
the offset of the first problem when known) and SchemaError when it
parses but its fields or dimensions are inconsistent.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager

import numpy as np

from .errors import FormatError, SchemaError


@contextmanager
def schema_errors(what: str):
    """Re-raise a constructor's TypeError, ValueError or OverflowError as SchemaError."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as err:
        raise SchemaError(f"{what} is inconsistent: {err}") from None


def read_json(path, what: str, required=()) -> dict:
    """The JSON object in a file, which must carry every required field.

    Unparseable text raises FormatError with the character offset; a
    document that is not an object, or lacks a field, raises SchemaError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise FormatError(f"{what} is not valid JSON: {err}", offset=err.pos) from None
        except UnicodeDecodeError as err:
            raise FormatError(f"{what} is not UTF-8 text: {err.reason}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object")
    missing = set(required) - doc.keys()
    if missing:
        raise SchemaError(f"{what} is missing fields: {sorted(missing)}")
    return doc


def read_table(path, what: str, expected_header):
    """Header and (rows, columns) float array of a CSV file written by write_table.

    ``expected_header`` is the header list, or a function from the file's
    header to it for layouts the header sizes; it is checked before any
    row.  FormatError offsets are 0 for an empty file and the line number
    for a bad row; a file with no data rows raises FormatError too.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise FormatError(f"{what} file is empty", offset=0)
            header = [cell.strip() for cell in first]
            expected = expected_header(header) if callable(expected_header) else expected_header
            if header != expected:
                raise FormatError(f"unexpected {what} header: {header}")
            rows = []
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise FormatError(
                        f"row {line_no} has {len(row)} fields, expected {len(header)}",
                        offset=line_no,
                    )
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError as err:
                    raise FormatError(f"row {line_no}: {err}", offset=line_no) from None
        except (UnicodeDecodeError, csv.Error) as err:
            raise FormatError(f"{what} file is not UTF-8 CSV text: {err}") from None
    if not rows:
        raise FormatError(f"{what} file has no data rows")
    return header, np.asarray(rows)


def write_table(path, header, rows) -> None:
    """Write a CSV file: string cells as given, every other cell as repr(float)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [cell if isinstance(cell, str) else repr(float(cell)) for cell in row]
            for row in rows
        )
