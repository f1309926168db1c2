"""JSON encoding for every table structure the command line consumes.

One format per structure, distinguished by their key sets:

  skew lattice   {"order": n, "ops": {"meet": [[...]], "join": [[...]]}}
  groupoid       {"objects": n, "morphisms": [{"dom": d, "cod": c}, ...],
                  "comp": [[...]], "inv": [...]}         (-1 = undefined)
  system         {"groupoid": {...}, "objects": {...}, "restL": [[...]],
                  "restR": [[...]], "extL": [[...]], "extR": [[...]]}
  algebra        {"order": n, "join": [[...]], "meet": [[...]], "star": [...]}
  group action   {"group": [[...]], "lattice": {...}, "act": [[...]]}

Loading dispatches on those keys; files that fit no shape raise
MalformedSystemError, as do tables the constructors reject, table entries
that are not JSON integers (floats and true/false are refused, never
coerced), an "order" that differs from the table size, and a groupoid with
more objects than morphisms (each object needs its identity).

Files, and the command line's run records, are written by json_text: the
text of json.dumps(value, indent=1). A file's tables are written straight
from the structure's int64 arrays, each by one `%d` template, and so is the
groupoid's morphisms list, from one record array of its dom and cod;
structure_to_dict gives the same fields with the tables as lists, for
JSON-plain callers.  structure_text is the one text of a structure file:
save_structure writes it to one file here, and the command line's writer
process (see skewalg.cli) receives it as bytes and writes it there, where
a failed open comes back to the command line as the same OSError.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .algebra import BiBandAlgebra
from .errors import MalformedSystemError, SkewalgError
from .groupoid import FiniteGroupoid
from .models import GroupAction
from .system import RestrictionSystem
from .tables import GroupTable, SkewLatticeTable

__all__ = [
    "structure_to_dict", "structure_from_dict", "save_structure", "load_structure", "read_structure",
]


_MORPHISM = np.dtype([("dom", np.int64), ("cod", np.int64)])


def _morphisms(groupoid: FiniteGroupoid) -> np.ndarray:
    """The groupoid's dom and cod as one record array, a record per morphism."""
    rows = np.empty(groupoid.morphism_count, _MORPHISM)
    rows["dom"], rows["cod"] = groupoid.dom, groupoid.cod
    return rows


def _fields(obj, table=lambda a: a) -> dict:
    """The JSON fields of a structure in file order, each table (an int64
    array) passed through `table`.  The groupoid's morphisms are one record
    array with the fields dom and cod, so that each is a {"dom", "cod"}
    object."""
    if isinstance(obj, SkewLatticeTable):
        return {
            "order": obj.order,
            "ops": {"meet": table(obj.meet.array), "join": table(obj.join.array)},
        }
    if isinstance(obj, FiniteGroupoid):
        return {
            "objects": obj.object_count,
            "morphisms": table(_morphisms(obj)),
            "comp": table(obj.comp),
            "inv": table(obj.inv),
        }
    if isinstance(obj, RestrictionSystem):
        return {
            "groupoid": _fields(obj.groupoid, table),
            "objects": _fields(obj.objects, table),
            "restL": table(obj.restL),
            "restR": table(obj.restR),
            "extL": table(obj.extL),
            "extR": table(obj.extR),
        }
    if isinstance(obj, BiBandAlgebra):
        return {
            "order": obj.order,
            "join": table(obj.join.array),
            "meet": table(obj.meet.array),
            "star": table(obj.star),
        }
    if isinstance(obj, GroupAction):
        return {
            "group": table(obj.group.table.array),
            "lattice": _fields(obj.lattice, table),
            "act": table(obj.act),
        }
    raise MalformedSystemError(f"cannot serialize {type(obj).__name__}")


def _plain(table: np.ndarray) -> list:
    """A table as nested lists of ints; a record array as a list of dicts."""
    if table.dtype.names:
        return [dict(zip(table.dtype.names, row)) for row in table.tolist()]
    return table.tolist()


def structure_to_dict(obj) -> dict:
    """The JSON dict of a structure: plain ints, lists and dicts."""
    return _fields(obj, _plain)


def _integers(value, what: str):
    """The decoded value, refused unless it is an integer or a list (of
    lists) of integers.  JSON true/false decode to bool, a subclass of int,
    so the test is on the exact type."""

    def leaves():
        rows = value if isinstance(value, list) else [value]
        return chain.from_iterable(rows) if rows and isinstance(rows[0], list) else rows

    if not set(map(type, leaves())) <= {int}:
        bad = next(v for v in leaves() if type(v) is not int)
        raise MalformedSystemError(f"{what}: entry {bad!r} is not an integer")
    return value


def _tables(data: dict, *keys: str) -> list:
    return [_integers(data[key], key) for key in keys]


def _check_order(data: dict, size: int) -> None:
    if "order" in data and _integers(data["order"], "order") != size:
        raise MalformedSystemError(
            f"order {data['order']} does not match the table size {size}"
        )


def structure_from_dict(data: dict):
    """Rebuild a structure from its JSON dict; the key set picks the type."""
    if not isinstance(data, dict):
        raise MalformedSystemError("top-level JSON value must be an object")
    try:
        if "act" in data:
            group, act = _tables(data, "group", "act")
            return GroupAction(GroupTable(group), structure_from_dict(data["lattice"]), act)
        if "restL" in data:
            return RestrictionSystem(
                structure_from_dict(data["groupoid"]),
                structure_from_dict(data["objects"]),
                *_tables(data, "restL", "restR", "extL", "extR"),
            )
        if "morphisms" in data:
            morphisms = data["morphisms"]
            (objects,) = _tables(data, "objects")
            if objects > len(morphisms):
                raise MalformedSystemError(
                    f"{objects} objects but {len(morphisms)} morphisms: every object needs an identity"
                )
            comp, inv = _tables(data, "comp", "inv")
            if not morphisms and comp == []:
                comp = np.zeros((0, 0), dtype=np.int64)  # [] alone reads as shape (0,)
            return FiniteGroupoid(
                objects,
                _integers([m["dom"] for m in morphisms], "dom"),
                _integers([m["cod"] for m in morphisms], "cod"),
                comp,
                inv,
            )
        if "star" in data:
            join, meet, star = _tables(data, "join", "meet", "star")
            _check_order(data, len(star))
            return BiBandAlgebra(join, meet, star)
        if "ops" in data:
            meet, join = _tables(data["ops"], "meet", "join")
            _check_order(data, len(meet))
            return SkewLatticeTable(meet, join)
    except SkewalgError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise MalformedSystemError(f"bad structure file: {exc}") from exc
    raise MalformedSystemError(
        "unrecognized structure: expected one of the documented key sets"
    )


def json_text(value, pad: str = "") -> str:
    """json.dumps(value, indent=1) for a value nested at indent `pad`:
    dicts with str keys, lists and tuples recurse, a list of ints is one
    join, an integer ndarray fills one `%d` template built from its shape,
    a one-dimensional record array of integer fields is a list of objects
    filled the same way, any other ndarray is its tolist(), and json
    encodes any other leaf."""
    inner = pad + " "
    if isinstance(value, np.ndarray):
        if value.dtype.names:
            at = inner + " "
            row = "{\n" + at + (",\n" + at).join(encode_basestring_ascii(k) + ": %d" for k in value.dtype.names)
            rows = (",\n" + inner).join([row + "\n" + inner + "}"] * len(value))
            template = "[\n" + inner + rows + "\n" + pad + "]" if len(value) else "[]"
            return template % tuple(chain.from_iterable(value.tolist()))
        if value.dtype.kind not in "iu":
            return json_text(value.tolist(), pad)
        template = "%d"
        for axis in reversed(range(value.ndim)):
            at, n = pad + " " * axis, value.shape[axis]
            rows = (",\n " + at).join([template] * n)
            template = "[\n " + at + rows + "\n" + at + "]" if n else "[]"
        return template % tuple(value.ravel().tolist())
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            items = map(int.__repr__, value)
        else:
            items = [json_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + json_text(v, inner) for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def structure_text(obj, extra: dict | None = None) -> str:
    """The text of a structure's file: the fields of extra, then the
    structure's, as json_text writes them, and a newline."""
    data = _fields(obj)
    if extra:
        data = {**extra, **data}
    return json_text(data) + "\n"


def save_structure(path: str, obj, extra: dict | None = None) -> None:
    """Write one structure file; the command line's writer process writes
    the same structure_text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(structure_text(obj, extra))


def read_structure(path: str) -> tuple[bytes, object]:
    """The bytes of a file, read once, and the structure they hold."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw, structure_from_dict(json.loads(raw.decode("utf-8")))
    except OSError as exc:
        raise MalformedSystemError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedSystemError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedSystemError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedSystemError(f"{path} is nested too deeply to load") from exc


def load_structure(path: str):
    """The structure a file holds; the benchmark traces it as a layer."""
    return read_structure(path)[1]
