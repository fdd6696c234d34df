"""Small shared helpers."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .corpus import read_json_file
from .errors import ValidationError

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map fn over items in order: the per-session loop of the corpus stages."""
    return [fn(x) for x in items]


def corpus_fingerprint(session_ids: Sequence[str]) -> str:
    """Stable hex digest identifying the set of sessions a space was fit on."""
    joined = "\n".join(sorted(session_ids))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


_JSON_KINDS = {type(None): "null", bool: "boolean", int: "integer", float: "number", str: "string", list: "list",
               tuple: "list", dict: "object"}


def check_like(value: object, default: object, name: str) -> None:
    """Raise a ValidationError unless value has the JSON type of default (an
    integer passes for a number): a list's items that of its first item, an
    object's fields those of the same field of default."""
    want, got = _JSON_KINDS.get(type(default)), _JSON_KINDS.get(type(value))
    if not (got == want or (want, got) == ("number", "integer")) or (got == "number" and not math.isfinite(value)):
        raise ValidationError(f"config field {name} must be a JSON {want}, got {value!r}")  # NaN is no JSON number
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in default:  # type: ignore[operator]
                raise ValidationError(f"unknown config field {name}.{key}")
            check_like(item, default[key], f"{name}.{key}")  # type: ignore[index]
    elif isinstance(value, list) and default:
        for i, item in enumerate(value):
            check_like(item, default[0], f"{name}[{i}]")  # type: ignore[index]


def read_config(cls, path: str | Path, what: str):
    """cls.from_payload of the JSON object in a config file, each field
    checked against its type in cls().to_payload(); every error names the file."""
    path = Path(path)
    payload = read_json_file(path, what)
    defaults = cls().to_payload()
    try:
        for name in filter(defaults.__contains__, payload):  # in file order
            check_like(payload[name], defaults[name], name)
        return cls.from_payload(payload)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    except (TypeError, ValueError) as exc:  # a list of the wrong length, an object missing a field
        raise ValidationError(f"{path}: invalid {what} ({exc})") from None
