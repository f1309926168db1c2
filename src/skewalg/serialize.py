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
text of json.dumps(value, indent=1), joined from whole rows of integers
instead of one encoder step per entry.
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

__all__ = ["structure_to_dict", "structure_from_dict", "save_structure", "load_structure"]


def _ints(a) -> list:
    return np.asarray(a).tolist()


def structure_to_dict(obj) -> dict:
    if isinstance(obj, SkewLatticeTable):
        return {
            "order": obj.order,
            "ops": {"meet": _ints(obj.meet.array), "join": _ints(obj.join.array)},
        }
    if isinstance(obj, FiniteGroupoid):
        return {
            "objects": obj.object_count,
            "morphisms": [
                {"dom": d, "cod": c} for d, c in zip(_ints(obj.dom), _ints(obj.cod))
            ],
            "comp": _ints(obj.comp),
            "inv": _ints(obj.inv),
        }
    if isinstance(obj, RestrictionSystem):
        return {
            "groupoid": structure_to_dict(obj.groupoid),
            "objects": structure_to_dict(obj.objects),
            "restL": _ints(obj.restL),
            "restR": _ints(obj.restR),
            "extL": _ints(obj.extL),
            "extR": _ints(obj.extR),
        }
    if isinstance(obj, BiBandAlgebra):
        return {
            "order": obj.order,
            "join": _ints(obj.join.array),
            "meet": _ints(obj.meet.array),
            "star": _ints(obj.star),
        }
    if isinstance(obj, GroupAction):
        return {
            "group": _ints(obj.group.table.array),
            "lattice": structure_to_dict(obj.lattice),
            "act": _ints(obj.act),
        }
    raise MalformedSystemError(f"cannot serialize {type(obj).__name__}")


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
            return FiniteGroupoid(
                objects,
                _integers([m["dom"] for m in morphisms], "dom"),
                _integers([m["cod"] for m in morphisms], "cod"),
                *_tables(data, "comp", "inv"),
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
    join, and any other leaf is encoded by json itself."""
    inner = pad + " "
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


def save_structure(path: str, obj, extra: dict | None = None) -> None:
    data = structure_to_dict(obj)
    if extra:
        data = {**extra, **data}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(data) + "\n")


def load_structure(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MalformedSystemError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedSystemError(f"{path} is not valid JSON: {exc}") from exc
    return structure_from_dict(data)
