"""Small I/O helpers: strict UTF-8 and JSON reads, atomic writes, strict config
(de)serialization, canonical JSON and deterministic number formatting."""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile

from .errors import ContractError, InputError


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, as iterating the open file yields them;
    a file that does not decode is an :class:`InputError` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{os.fspath(path)!r} is not UTF-8 text: {exc.reason}") from None


def read_json(path, what: str):
    """The JSON value of a UTF-8 file; malformed JSON is a :class:`ContractError`
    naming the file as ``what``."""
    try:
        return json.loads("".join(read_lines(path)))
    except json.JSONDecodeError as exc:
        raise ContractError(f"{what} {os.fspath(path)!r} is not JSON: {exc}") from None


def atomic_write_text(path, text: str) -> None:
    """Write UTF-8 text atomically; line endings are written as given."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, blob: bytes) -> None:
    """Write via a sibling temp file and rename, so partial output never lands;
    missing parent directories are created first."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# JSON value types accepted for each annotation name a config field uses.
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "dict": dict,
               "list": list, "None": type(None)}


class DictCodec:
    """Plain-dict round trip for a config dataclass, strict about its keys.

    ``from_dict`` rejects a non-object, unknown keys, missing required keys
    and values whose JSON type does not match the field's annotation with
    :class:`ContractError`, so a bad run config or checkpoint header exits
    with the validation code instead of a traceback.  Field annotations are
    read as strings (``from __future__ import annotations``) naming
    ``_JSON_TYPES`` keys.
    """

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ContractError(f"{cls.__name__}: expected a JSON object, got {type(d).__name__}")
        fields = dataclasses.fields(cls)
        annotations = {f.name: f.type for f in fields}
        unknown = sorted(set(d) - set(annotations))
        if unknown:
            raise ContractError(f"{cls.__name__}: unknown keys {unknown}")
        missing = [f.name for f in fields if f.name not in d
                   and f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING]
        if missing:
            raise ContractError(f"{cls.__name__}: missing required keys {missing}")
        for name, value in d.items():
            kinds = tuple(_JSON_TYPES[t] for t in annotations[name].split(" | "))
            if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
                raise ContractError(f"{cls.__name__}.{name}: expected {annotations[name]}, got {value!r}")
        return cls(**d)


def canonical_json(blob) -> str:
    """Sorted keys and no whitespace, so equal values always give equal bytes."""
    return json.dumps(blob, sort_keys=True, separators=(",", ":"))


def fmt(value: float) -> str:
    """Fixed-point rendering so reports are byte-stable across runs."""
    return f"{value:.6f}"
