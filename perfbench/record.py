"""Record the reference digests that run.py checks outputs against.

    python3 perfbench/record.py

Run from the repository root, only at a commit whose simulated outputs are
known to be right: the digests define what correct means for every later
run. Every size, workload and variant is recorded; each unit is run twice
and must give the same digests both times.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import REFERENCE, VARIANTS, WORKLOADS  # noqa: E402


def record(size: str, name: str, variant: int, workdir: Path) -> dict:
    bench = WORKLOADS[name](variant, workdir, size)
    bench.after_import()
    doc = {}
    for index in range(bench.units()):
        first, second = bench.run_unit(index), bench.run_unit(index)
        if first.problems or first.outputs != second.outputs:
            raise SystemExit(f"{size}/{name}/{variant}/{index}: {first.problems or 'not deterministic'}")
        doc[str(index)] = {out.label: out.digest for out in first.outputs}
    return doc


def main() -> None:
    doc = {}
    workdir = BENCH.parent / ".perfbench_work" / "record"
    try:
        for size in ("tiny", "full"):
            for name in WORKLOADS:
                doc.setdefault(size, {})[name] = {
                    str(v): record(size, name, v, workdir / name) for v in range(VARIANTS)
                }
                print(f"recorded {size}/{name}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
