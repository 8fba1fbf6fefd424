"""``tools/compare_documents.py diff``: moved fields with their values."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_documents.py"
_SPEC = importlib.util.spec_from_file_location("compare_documents", _PATH)
compare_documents = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_documents)


def _collection(docs, codes):
    return {"documents": docs, "exit_codes": codes}


def test_diff_reports_moved_values_and_the_worst_deviation():
    old = json.dumps({"status": "VIOLATED", "records": [{"gap": 0.25, "ok": True}], "n": 3})
    new = json.dumps({"status": "VIOLATED", "records": [{"gap": 0.2500001, "ok": False}], "n": 3})
    a = _collection({"w/1/a.json": old, "w/1/a.csv": "theta,h\n0,1.5\n", "w/1/b.json": "{}"},
                    {"w/1/a": 0, "w/1/b": 0})
    b = _collection({"w/1/a.json": new, "w/1/a.csv": "theta,h\n0,1.75\n", "w/1/b.json": "{}"},
                    {"w/1/a": 0, "w/1/b": 1})
    lines = compare_documents.diff(a, b)
    assert "exit_codes: w/1/b: 0 -> 1" in lines
    assert "documents: w/1/b.json" not in lines
    assert "  1:h: 1.5 -> 1.75 (|delta| 0.25)" in lines
    assert "  /records/0/ok: True -> False" in lines  # booleans carry no delta
    assert any(line.startswith("  /records/0/gap: 0.25 -> 0.2500001 (|delta| 1e-07")
               for line in lines)
    assert lines[-1] == "worst deviation: 0.25 at w/1/a.csv 1:h"


def test_identical_collections_report_nothing():
    a = _collection({"w/1/a.json": "{\"x\": 1}"}, {"w/1/a": 0})
    assert compare_documents.diff(a, a) == []
