"""Produce the benchmark's fixed inputs: the order-24 brace catalog and the
analyze-24 reference rows.

They were produced once and are kept in data/; a benchmark run never
regenerates them, so a change to enumeration cannot alter what analyze-24
measures. Run from the repository root to write a fresh set elsewhere for
comparison:

    python3 perfbench/make_reference.py OUT_DIR
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bracelab  # noqa: E402
import bracelab.serialize  # noqa: E402
from workloads import ORDER, ROW_FIELDS, analyze_brace  # noqa: E402


def main(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    plain = out_dir / "braces-24.jsonl"
    bracelab.serialize.write_catalog(bracelab.enumerate_skew_braces(ORDER), plain)
    raw = plain.read_bytes()
    (out_dir / "braces-24.jsonl.gz").write_bytes(gzip.compress(raw, 9, mtime=0))
    cat = bracelab.serialize.read_catalog(plain)
    rows = [[int(v) for v in analyze_brace(bracelab, b)] for b in cat.items]
    tallies = {f: sum(r[k] for r in rows) for k, f in enumerate(ROW_FIELDS)}
    reference = {
        "catalog_sha256": hashlib.sha256(raw).hexdigest(),
        "fields": list(ROW_FIELDS),
        "tallies": tallies,
        "rows": rows,
    }
    (out_dir / "analyze-24-reference.json").write_text(
        json.dumps(reference, separators=(",", ":")) + "\n"
    )
    plain.unlink()
    print(json.dumps({"classes": len(rows), **reference, "rows": len(rows)}))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    main(Path(sys.argv[1]))
