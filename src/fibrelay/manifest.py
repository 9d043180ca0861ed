"""Reproducibility manifests and deterministic serialization.

Every file-producing command writes a manifest next to its outputs: the
resolved configuration, the master seed, a digest of the canonicalized
configuration, and the list of data files.  Re-running a command from its
manifest reproduces the data files byte for byte; only the timestamp
differs.  All numbers are serialized with 17 significant digits, enough to
round-trip any double exactly.
"""
from __future__ import annotations

import hashlib
import json
import math
from datetime import datetime, timezone

MANIFEST_FILENAME = "manifest.json"


def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return format(v, ".17g")


def _encode(obj, indent: int, level: int) -> str:
    pad = " " * (indent * (level + 1))
    close = " " * (indent * level)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{pad}{json.dumps(str(k))}: {_encode(obj[k], indent, level + 1)}"
                 for k in sorted(obj, key=str))
        return "{\n" + ",\n".join(items) + f"\n{close}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = (f"{pad}{_encode(v, indent, level + 1)}" for v in obj)
        return "[\n" + ",\n".join(items) + f"\n{close}]"
    if hasattr(obj, "item"):  # numpy scalar
        return _encode(obj.item(), indent, level)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_17g(obj, indent: int = 2) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    return _encode(obj, indent, 0) + "\n"


def canonical_digest(obj) -> str:
    """sha256 over the canonical compact encoding of a config mapping."""
    compact = _encode(obj, 0, 0).replace("\n", "")
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()


def manifest_json(tool_version: str, command: str, config_echo: dict, master_seed: int,
                  output_files) -> str:
    """The manifest of one run, as written: the resolved configuration and
    its digest, the master seed, the data files and the time of the run."""
    return dumps_17g({
        "tool_version": tool_version,
        "command": command,
        "config_echo": dict(config_echo),
        "master_seed": master_seed,
        "config_digest": canonical_digest(config_echo),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "output_files": list(output_files),
    })
