import json

import pytest

from branchbox import jsonio
from branchbox.dims import PowerSeriesTruncated
from branchbox.errors import UsageError
from branchbox.partitions import IrrepLabel, Signature
from branchbox.reports import MultiplicityEntry


def test_parse_partition():
    assert jsonio.parse_partition("3,2,1") == (3, 2, 1)
    assert jsonio.parse_partition("") == ()
    assert jsonio.parse_partition(" 4 , 4 ") == (4, 4)


@pytest.mark.parametrize("text", ["1,2", "3,-1", "a,b", "3,,1"])
def test_parse_partition_rejects(text):
    with pytest.raises(UsageError):
        jsonio.parse_partition(text)


def test_parse_signature():
    assert jsonio.parse_signature("2,1;1") == Signature((2, 1), (1,))
    assert jsonio.parse_signature("3") == Signature((3,), ())
    assert jsonio.parse_signature(";") == Signature((), ())
    with pytest.raises(UsageError):
        jsonio.parse_signature("1;2;3")


def test_render_weight_round_trip():
    assert jsonio.render_weight((3, 1)) == "3,1"
    assert jsonio.render_weight(()) == ""
    assert jsonio.render_weight(Signature((2,), (1, 1))) == "2;1,1"


def test_weight_and_label_json():
    assert jsonio.weight_json((3, 1)) == [3, 1]
    assert jsonio.weight_json(Signature((2,), ())) == {"plus": [2], "minus": []}
    lab = IrrepLabel("O", 5, (2, 1))
    assert jsonio.label_json(lab) == {"family": "O", "rank": 5, "weight": [2, 1]}


def test_value_json_and_csv():
    assert jsonio.dumps(jsonio.value_json(2)) == '{"value":2}'
    assert jsonio.dumps(jsonio.value_json(1, True)) == '{"value":1,"stable":true}'
    assert jsonio.value_csv(1, True) == "value,stable\n1,true\n"
    assert jsonio.value_csv(3) == "value\n3\n"


def test_entries_csv_quotes_multipart_weights():
    entries = [
        MultiplicityEntry((IrrepLabel("O", 5, (1, 1)), IrrepLabel("GL", 2, (2,))),
                          1, True),
    ]
    text = jsonio.entries_csv(entries)
    lines = text.splitlines()
    assert lines[0] == "O5,GL2,mult,stable"
    assert lines[1] == '"1,1",2,1,true'


def test_entry_json_shape():
    entry = MultiplicityEntry((IrrepLabel("Sp", 4, (2,)),), 3, False)
    assert jsonio.entry_json(entry) == {
        "labels": [{"family": "Sp", "rank": 4, "weight": [2]}],
        "mult": 3,
        "stable": False,
    }


def test_verify_json_and_csv():
    labels = (IrrepLabel("O", 5, (1,)), IrrepLabel("GL", 2, (1,)))
    doc = jsonio.verify_json("seesaw-a", {"n": 5, "m": 2},
                             [(labels, 1, 1), (labels, 2, 1)])
    assert doc["verify"] == "seesaw-a"
    assert doc["params"] == {"n": 5, "m": 2}
    assert doc["entries"][0]["pass"] is True
    assert doc["entries"][1]["pass"] is False
    assert doc["ok"] is False
    csv_text = jsonio.verify_csv([(labels, 1, 1), (labels, 2, 1)])
    lines = csv_text.splitlines()
    assert lines[0].endswith("formula,oracle,verdict")
    assert lines[1].endswith("PASS")
    assert lines[2].endswith("FAIL")


def test_series_json_strings():
    series = PowerSeriesTruncated(2, (1, 0, 14))
    assert jsonio.series_json(series) == ["1", "0", "14"]


def test_dumps_is_compact_json():
    doc = jsonio.value_json(7, False)
    assert jsonio.dumps(doc) == '{"value":7,"stable":false}'
    assert json.loads(jsonio.dumps(doc)) == {"value": 7, "stable": False}


def _series_triple():
    return {"harmonic": PowerSeriesTruncated(1, (1, 5)),
            "invariants": PowerSeriesTruncated(1, (1, 0)),
            "full": PowerSeriesTruncated(1, (1, 5))}


def test_hilbert_json_shape():
    doc = jsonio.hilbert_json(True, _series_triple())
    assert doc["ok"] is True
    assert doc["harmonic"] == ["1", "5"]
    assert doc["full"] == ["1", "5"]


def test_hilbert_csv_shape():
    text = jsonio.hilbert_csv(True, _series_triple())
    lines = text.splitlines()
    assert lines[0] == "degree,harmonic,invariants,full"
    assert lines[1] == "0,1,1,1"
    assert lines[2] == "1,5,0,5"
    assert lines[-1] == "verdict,,,PASS"
