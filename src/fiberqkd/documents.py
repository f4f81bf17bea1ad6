"""Every input file the package reads, and the float CSV it writes.

* Scenario and key-analysis documents: one JSON loader and one typed field
  reader. A field is an object, a finite JSON number (never a boolean or
  numeric text), a number with an integer value, a list of three numbers, or
  text. Failures name the field's path; range checks stay with the
  dataclasses the fields build.
* Float tables (trajectories, correlation histograms): a CSV of finite
  floats under a fixed header, written by ``csv_text``.
* Modulation patterns: hex text or raw bytes.

Text is decoded as strict UTF-8. A missing, unreadable or malformed file
raises ``ValidationError`` naming its kind. A leaf module, so any module may
import it.
"""

from __future__ import annotations

import csv
import json
import sys
from importlib import resources
from typing import Sequence

import numpy as np

from .errors import ValidationError

_REQUIRED = object()
_MAX = sys.float_info.max  # an int above it is no finite float; NaN fails every comparison


def _is_number(value) -> bool:
    """A finite JSON number: an int or a float, never a boolean."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and abs(value) <= _MAX


def bundled_path(name: str):
    """Path of the bundled document ``name`` in the package data."""
    return resources.files("fiberqkd.data").joinpath(f"{name}.json")


class Fields:
    """Typed reads of one JSON object, bound to its path ``where`` in the document."""

    def __init__(self, doc, where: str):
        if not isinstance(doc, dict):
            raise ValidationError(f"{where} must be a JSON object, got {type(doc).__name__}")
        self.doc = doc
        self.where = where

    def get(self, key: str, default=_REQUIRED):
        """The raw value of a field; an absent one is ``default`` when given."""
        if key in self.doc:
            return self.doc[key]
        if default is _REQUIRED:
            raise ValidationError(f"{self.where} is missing {key!r}")
        return default

    def section(self, key: str, required: bool = True) -> Fields:
        """A nested object; an absent optional one reads as empty, a null one is rejected."""
        return Fields(self.get(key, _REQUIRED if required else {}), f"{self.where}.{key}")

    def number(self, key: str, default=_REQUIRED) -> float:
        """A finite JSON number as a float."""
        value = self.get(key, default)
        if not _is_number(value):
            raise ValidationError(f"{self.where}.{key} must be a finite number, got {value!r}")
        return float(value)

    def vector(self, key: str) -> list[float]:
        """A list of three finite JSON numbers as floats."""
        value = self.get(key)
        if not (isinstance(value, list) and len(value) == 3 and all(map(_is_number, value))):
            raise ValidationError(f"{self.where}.{key} must be 3 finite numbers, got {value!r}")
        return [float(v) for v in value]

    def whole(self, key: str) -> int:
        """A finite number with an integer value, as an exact int."""
        number = self.number(key)
        if not number.is_integer():
            raise ValidationError(f"{self.where}.{key} must be a whole number, got {number!r}")
        return int(self.doc[key])

    def text(self, key: str, default=_REQUIRED) -> str:
        """A JSON string."""
        value = self.get(key, default)
        if not isinstance(value, str):
            raise ValidationError(f"{self.where}.{key} must be text, got {value!r}")
        return value


def read_document(source, bundled_names, what: str) -> Fields:
    """The top-level fields of a JSON document: a bundled name, a path or a parsed dict.

    ``what`` names the kind of document and roots every field path. A missing
    or unreadable file, bytes that are not JSON text and a top level that is
    not an object raise ``ValidationError``.
    """
    if isinstance(source, dict):
        return Fields(source, what)
    if isinstance(source, str) and source in bundled_names:
        source = bundled_path(source)
    try:
        with open(source, "rb") as handle:
            doc = json.loads(handle.read())
    except FileNotFoundError:
        names = ", ".join(bundled_names)
        raise ValidationError(f"no {what} named '{source}'; bundled names: {names}") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file '{source}': {exc.strerror}") from None
    except ValueError as exc:  # invalid JSON, or bytes that are no Unicode text
        raise ValidationError(f"{what} file is not valid JSON: {exc}") from None
    return Fields(doc, what)


def _read_bytes(path, what: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file '{path}': {exc.strerror}") from None


def _read_text(path, what: str) -> str:
    try:
        return _read_bytes(path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {what} file '{path}': {exc}") from None


def _parse_float_rows(lines: list[str]) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)


def read_float_table(path, columns: Sequence[str], what: str) -> np.ndarray:
    """The data rows of a CSV of floats under a fixed header, as an (n, k) array.

    All rows are parsed in one ``np.loadtxt`` pass; blank lines are skipped.
    A wrong header, a row of another width, a field that is not a number or
    not finite, and a file without data rows raise ``ValidationError``. The
    message names the first bad row, which is looked for row by row only
    when the one pass fails.
    """
    first, *rest = _read_text(path, what).splitlines() or [""]
    header = next(csv.reader([first]), [])
    lines = [line for line in rest if line]
    if [h.strip() for h in header] != list(columns):
        raise ValidationError(f"{what} CSV must start with {','.join(columns)}")
    if not lines:
        raise ValidationError(f"{what} CSV contains no data rows")
    try:
        data = _parse_float_rows(lines)
    except ValueError:
        data = None
    if data is not None and data.shape[1] == len(columns) and np.isfinite(data).all():
        return data
    for line, row in zip(lines, csv.reader(lines)):
        if len(row) != len(columns):
            raise ValidationError(f"malformed {what} row: {row!r}")
        try:
            values = _parse_float_rows([line])
        except ValueError as exc:
            raise ValidationError(f"non-numeric {what} row: {row!r}") from exc
        if not np.isfinite(values).all():
            raise ValidationError(f"non-finite {what} row: {row!r}")
    raise ValidationError(f"malformed {what} CSV")


def csv_text(columns: Sequence[str], rows) -> str:
    """A CSV under the header ``columns``: floats in repr, read back exactly
    by ``read_float_table``, and other cells as ``str`` gives them. Cells are
    joined unquoted, so none may hold a comma, a quote or a line break."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


PATTERN_FORMATS = ("auto", "hex", "binary")


def read_pattern(path, fmt: str = "auto") -> bytes:
    """The bytes of a modulation pattern file.

    ``binary`` reads the file as it is; ``hex`` reads UTF-8 text of hex
    digits, whitespace ignored; ``auto`` reads a ``.bin`` file as binary and
    any other as hex.
    """
    if fmt not in PATTERN_FORMATS:
        raise ValidationError(f"unknown pattern format {fmt!r}")
    if fmt == "binary" or (fmt == "auto" and str(path).endswith(".bin")):
        return _read_bytes(path, "pattern")
    digits = "".join(_read_text(path, "pattern").split())
    if len(digits) % 2:
        raise ValidationError(f"hex pattern has an odd number of digits ({len(digits)})")
    try:
        return bytes.fromhex(digits)
    except ValueError as exc:
        raise ValidationError(f"invalid hex pattern: {exc}") from None
