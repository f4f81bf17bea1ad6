"""The document loader and the typed field reader."""

import json
import math

import pytest

from fiberqkd.documents import Fields, csv_text, read_document, read_float_table, read_pattern
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


def test_csv_text_writes_floats_read_back_exactly(tmp_path):
    rows = [[0.1, 1 / 3, 2], [1e-300, -0.0, 7]]
    path = tmp_path / "table.csv"
    path.write_text(csv_text(["a", "b", "c"], rows))
    assert path.read_text().splitlines() == ["a,b,c", "0.1,0.3333333333333333,2",
                                             "1e-300,-0.0,7"]
    assert read_float_table(path, ("a", "b", "c"), "table").tolist() == rows


@pytest.mark.parametrize("text, message", [
    ("ABC", "hex pattern has an odd number of digits (3)"),
    ("AB C\nD E", "hex pattern has an odd number of digits (5)"),
    ("FFXZ", "invalid hex pattern: non-hexadecimal number found in fromhex() arg at position 2"),
], ids=["odd", "odd-across-lines", "non-hex"])
def test_read_pattern_rejects_malformed_hex(tmp_path, text, message):
    path = tmp_path / "pattern.hex"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        read_pattern(path)
    assert str(err.value) == message


def test_read_pattern_formats(tmp_path):
    """``auto`` reads a ``.bin`` file as raw bytes and any other as hex text."""
    hex_path, bin_path = tmp_path / "pattern.txt", tmp_path / "pattern.bin"
    hex_path.write_text(" b1\n0F ")
    bin_path.write_bytes(b"\x80b1")
    assert read_pattern(hex_path) == read_pattern(hex_path, "hex") == b"\xb1\x0f"
    assert read_pattern(hex_path, "binary") == b" b1\n0F "
    assert read_pattern(bin_path) == read_pattern(bin_path, "binary") == b"\x80b1"
    with pytest.raises(ValidationError, match="cannot read pattern file .*'utf-8' codec"):
        read_pattern(bin_path, "hex")

