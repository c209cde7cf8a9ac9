"""JSON codecs: braces, solutions, and JSON-lines catalog files."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Union

from .brace import SkewBrace, brace_from_tables
from .enumeration import Catalog
from .ybe import Solution, involutive_from_sigma, verify_solution

PathLike = Union[str, Path]


def _fields(data, what: str, *keys: str) -> dict:
    """data, checked to be a JSON object holding keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    if not all(k in data for k in keys):
        raise ValueError(f"{what} needs the keys {', '.join(keys)}")
    return data


def _rows(data: dict, key: str) -> list:
    """data[key], checked to be a list of lists."""
    if not isinstance(data[key], list) or not all(isinstance(row, list) for row in data[key]):
        raise ValueError(f"{key} must be a list of lists")
    return data[key]


def _size(data: dict) -> int:
    """data["n"], checked to be an integer; a bool is not one."""
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {type(n).__name__}")
    return n


def brace_to_json(b: SkewBrace) -> dict:
    return {
        "n": b.n,
        "add": [list(row) for row in b.add.table],
        "mul": [list(row) for row in b.mul.table],
    }


def brace_from_json(data: dict) -> SkewBrace:
    """Parse and fully re-validate a brace."""
    n = _size(_fields(data, "brace", "n", "add", "mul"))
    b = brace_from_tables(_rows(data, "add"), _rows(data, "mul"))
    if b.n != n:
        raise ValueError(f"carrier size mismatch: {b.n} != {n}")
    return b


def solution_to_json(sol: Solution) -> dict:
    return {
        "n": sol.n,
        "sigma": [list(p) for p in sol.sigma],
        "tau": [list(p) for p in sol.tau],
    }


def solution_from_json(data: dict) -> Solution:
    """Parse and re-validate; a missing tau means the involutive closure."""
    n = _size(_fields(data, "solution", "n", "sigma"))
    if data.get("tau") is None:
        sol = involutive_from_sigma(_rows(data, "sigma"))
    else:
        sol = verify_solution(_rows(data, "sigma"), _rows(data, "tau"))
    if sol.n != n:
        raise ValueError(f"size mismatch: {sol.n} != {n}")
    return sol


def item_to_json(kind: str, item) -> dict:
    if kind == "braces":
        return brace_to_json(item)
    if kind == "solutions":
        return solution_to_json(item)
    if kind == "groups":
        return {"n": item.n, "table": [list(r) for r in item.table]}
    raise ValueError(f"unknown catalog kind {kind!r}")


def item_from_json(kind: str, data: dict):
    if kind == "braces":
        return brace_from_json(data)
    if kind == "solutions":
        return solution_from_json(data)
    if kind == "groups":
        from .groups import verify_group

        return verify_group(_rows(_fields(data, "group", "table"), "table"))
    raise ValueError(f"unknown catalog kind {kind!r}")


def catalog_lines(catalog: Catalog) -> Iterator[str]:
    """The catalog file format, JSON lines: the meta header first, then one
    item per line, each line ending in a newline."""
    yield json.dumps({"meta": catalog.meta}) + "\n"
    for item in catalog.items:
        yield json.dumps(item_to_json(catalog.kind, item)) + "\n"


def write_catalog(catalog: Catalog, path: PathLike) -> None:
    with Path(path).open("w") as fh:
        fh.writelines(catalog_lines(catalog))


def read_catalog(path: PathLike) -> Catalog:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError("empty catalog file")
    header = _fields(json.loads(lines[0]), "catalog header")
    meta = _fields(header.get("meta", header), "catalog meta", "kind")
    kind = meta["kind"]
    items = [item_from_json(kind, json.loads(line)) for line in lines[1:]]
    if meta.get("count") is not None and meta["count"] != len(items):
        raise ValueError(f"meta count {meta['count']} != {len(items)} items")
    return Catalog(kind, items, meta)
