"""`record.Record` against the frozen dataclass it stands in for."""

import ast
import copy
import dataclasses
import pickle
from pathlib import Path

import pytest

import indicscore
from indicscore.corpus import EntityToken, HoldoutRow
from indicscore.record import Record


class Point(Record):
    x: int
    y: str = "a"
    z: tuple = ()


class OtherPoint(Record):
    x: int
    y: str = "a"
    z: tuple = ()


@dataclasses.dataclass(frozen=True)
class DataPoint:
    x: int
    y: str = "a"
    z: tuple = ()


CALLS = [((1,), {}), ((1, "b"), {}), ((), {"x": 2, "z": (1, 2)}), ((3,), {"y": "c"}), ((0, "", ()), {})]


@pytest.mark.parametrize("args, kwargs", CALLS)
def test_record_builds_equals_hashes_and_prints_as_the_dataclass(args, kwargs):
    record, data = Point(*args, **kwargs), DataPoint(*args, **kwargs)
    assert repr(record) == repr(data).replace("DataPoint", "Point")
    assert (record.x, record.y, record.z) == (data.x, data.y, data.z)
    assert record == Point(*args, **kwargs) and hash(record) == hash(data)
    # no equality across classes, as between dataclasses
    assert record != data and record != OtherPoint(*args, **kwargs)
    assert copy.deepcopy(record) == record and pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("args, kwargs", [((), {}), ((1, "b", (), 4), {}), ((1,), {"x": 1}), ((1,), {"w": 0})])
def test_record_rejects_the_calls_the_dataclass_rejects(args, kwargs):
    with pytest.raises(TypeError):
        DataPoint(*args, **kwargs)
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_record_is_frozen_and_matches_by_field_order():
    point = Point(1)
    for name in ("x", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(point, name, 5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(point, name)
    match point:
        case Point(x, y):
            assert (x, y) == (1, "a")


def test_post_init_checks_each_built_record():
    assert EntityToken("500081", "pincode") == EntityToken(surface="500081", matcher_class="pincode", language=None)
    with pytest.raises(ValueError, match="unknown matcher class"):
        EntityToken("500081", "postcode")
    assert HoldoutRow("u1", "text").entity_tokens == ()


def module_level_imports(path):
    """The modules ``path`` imports outside its functions and classes."""
    nodes = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nodes.extend(ast.iter_child_nodes(node))


def test_only_the_manifest_module_imports_dataclasses():
    # Every record is a Record but ManifestRow, which the benchmark's replay
    # copies with dataclasses.replace; record._frozen imports it on its error path.
    importers = [
        path.name
        for path in sorted(Path(indicscore.__file__).parent.glob("*.py"))
        if any(name.split(".")[0] == "dataclasses" for name in module_level_imports(path))
    ]
    assert importers == ["manifest.py"]
