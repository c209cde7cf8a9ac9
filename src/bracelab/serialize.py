"""JSON codecs: braces, solutions, and JSON-lines catalog files."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .brace import SkewBrace, brace_from_tables
from .enumeration import Catalog
from .ybe import Solution, involutive_from_sigma, verify_solution

PathLike = Union[str, Path]


def brace_to_json(b: SkewBrace) -> dict:
    return {
        "n": b.n,
        "add": [list(row) for row in b.add.table],
        "mul": [list(row) for row in b.mul.table],
    }


def brace_from_json(data: dict) -> SkewBrace:
    """Parse and fully re-validate a brace."""
    b = brace_from_tables(data["add"], data["mul"])
    if b.n != data["n"]:
        raise ValueError(f"carrier size mismatch: {b.n} != {data['n']}")
    return b


def solution_to_json(sol: Solution) -> dict:
    return {
        "n": sol.n,
        "sigma": [list(p) for p in sol.sigma],
        "tau": [list(p) for p in sol.tau],
    }


def solution_from_json(data: dict) -> Solution:
    """Parse and re-validate; a missing tau means the involutive closure."""
    if "tau" not in data or data["tau"] is None:
        sol = involutive_from_sigma(data["sigma"])
    else:
        sol = verify_solution(data["sigma"], data["tau"])
    if sol.n != data["n"]:
        raise ValueError(f"size mismatch: {sol.n} != {data['n']}")
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

        return verify_group(data["table"])
    raise ValueError(f"unknown catalog kind {kind!r}")


def write_catalog(catalog: Catalog, path: PathLike) -> None:
    """JSON-lines: meta header first, then one item per line."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(json.dumps({"meta": catalog.meta}) + "\n")
        for item in catalog.items:
            fh.write(json.dumps(item_to_json(catalog.kind, item)) + "\n")


def read_catalog(path: PathLike) -> Catalog:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty catalog file")
    header = json.loads(lines[0])
    meta = header.get("meta", header)
    kind = meta["kind"]
    items = [item_from_json(kind, json.loads(line)) for line in lines[1:]]
    if meta.get("count") is not None and meta["count"] != len(items):
        raise ValueError(f"{path}: meta count {meta['count']} != {len(items)} items")
    return Catalog(kind, meta.get("order", 0), items, meta)
