"""Every input file is read through `data.read_csv`.

It holds the one rule for blank records, short rows, empty files and line
numbers, so no other module of the package may build a CSV reader of its
own: a `csv.reader` or `csv.DictReader` outside `data.py` fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "partqr"
READERS = {"reader", "DictReader"}


def reader_calls(source: str) -> list[int]:
    """The lines of `source` that build a CSV reader, however csv is imported."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "csv"}
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            names |= {a.asname or a.name for a in node.names if a.name in READERS}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in READERS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in modules
            or isinstance(node.func, ast.Name)
            and node.func.id in names
        )
    ]


def test_the_guard_sees_every_import_form():
    assert reader_calls("import csv\ncsv.reader(fh)\ncsv.writer(fh)") == [2]
    assert reader_calls("import csv as c\nc.DictReader(fh)") == [2]
    assert reader_calls("from csv import reader as r\nr(fh)") == [2]
    assert reader_calls("import io\nio.reader(fh)") == []


def test_only_data_builds_a_csv_reader():
    found = {
        path.name: calls
        for path in sorted(PACKAGE.glob("*.py"))
        if (calls := reader_calls(path.read_text(encoding="utf-8")))
    }
    assert set(found) == {"data.py"}, f"CSV readers outside data.py: {found}"
