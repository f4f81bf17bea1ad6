"""Scenario and key-analysis documents: one loader and one typed field reader.

A field is an object, a finite JSON number (never a boolean or numeric
text), a number with an integer value, a list of three numbers, or text.
Failures raise ``ValidationError`` naming the field's path; range checks
stay with the dataclasses the fields build. A leaf module, so any module may
import it.
"""

from __future__ import annotations

import json
import sys
from importlib import resources

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
