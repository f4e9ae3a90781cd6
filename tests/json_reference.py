"""The whole-string JSON emitter, used only by the tests as the reference
that scarf.cli.json_pieces is compared against: joined, the pieces must
equal json_dumps of the same payload, byte for byte."""

from __future__ import annotations

import json

from scarf.cli import format_float


def json_dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-order fields, fixed float format.

    The stdlib encoder formats floats via repr (shortest round trip); this
    hand emitter pins the 17-digit convention instead.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {json_dumps(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)}")
