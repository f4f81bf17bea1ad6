"""The document loader and the typed field reader."""

import json
import math

import pytest

from fiberqkd.documents import Fields, read_document
from fiberqkd.errors import ValidationError

DOC = {"device": {"nu_rep": 80000000.0, "n": 3, "big": 2**60 + 1, "name": "link"}}


def test_number_reads_finite_json_numbers_as_floats():
    dev = Fields(DOC, "scenario").section("device")
    assert dev.number("nu_rep") == 8e7
    assert dev.number("n") == 3.0 and isinstance(dev.number("n"), float)
    assert dev.number("absent", 0.5) == 0.5


@pytest.mark.parametrize("value", [True, False, "8e7", None, [1.0], {}, math.nan, math.inf,
                                   -math.inf, 10**400])
def test_number_rejects_everything_else_and_names_the_field(value):
    with pytest.raises(ValidationError, match=r"^scenario\.device\.x must be a finite number"):
        Fields({"device": {"x": value}}, "scenario").section("device").number("x")


def test_whole_keeps_ints_exact_and_rejects_fractions():
    dev = Fields(DOC["device"], "scenario.device")
    assert dev.whole("big") == 2**60 + 1
    assert dev.whole("n") == 3
    assert Fields({"n": 20.0}, "doc").whole("n") == 20
    for value in (20.5, True, "20"):
        with pytest.raises(ValidationError):
            Fields({"n": value}, "doc").whole("n")


def test_text_and_sections():
    top = Fields(DOC, "scenario")
    assert top.section("device").text("name") == "link"
    assert top.text("absent", "unnamed") == "unnamed"
    with pytest.raises(ValidationError, match="must be text"):
        top.section("device").text("n")
    assert top.section("alice", required=False).doc == {}
    with pytest.raises(ValidationError, match="scenario is missing 'alice'"):
        top.section("alice")
    with pytest.raises(ValidationError, match="scenario.alice must be a JSON object"):
        Fields({"alice": None}, "scenario").section("alice", required=False)


def test_read_document_sources(tmp_path):
    assert read_document({"a": 1}, (), "tally").doc == {"a": 1}
    bundled = read_document("tally-spool", ("tally-spool",), "tally")
    assert bundled.whole("n_z") == 923003
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"a": 1}))
    assert read_document(path, (), "tally").doc == read_document(str(path), (), "tally").doc


@pytest.mark.parametrize("content, message", [
    (None, "no scenario named"),
    (b"{not json", "not valid JSON"),
    (b"\x80\x81", "not valid JSON"),
    (b"[1, 2]", "scenario must be a JSON object, got list"),
], ids=["missing", "invalid-json", "non-utf8", "top-level-list"])
def test_read_document_rejects_unreadable_input(tmp_path, content, message):
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ValidationError, match=message):
        read_document(str(path), ("deployed-3p5km",), "scenario")


def test_read_document_rejects_a_directory(tmp_path):
    with pytest.raises(ValidationError, match="cannot read scenario file"):
        read_document(tmp_path, (), "scenario")
