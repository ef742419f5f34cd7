"""SHA-256 digests of the files that tests/cli_snapshot.py writes, pinned in snapshot_digests.json.

    PYTHONPATH=src python3 tests/snapshot_digests.py

rewrites tests/snapshot_digests.json from a fresh snapshot. Run it only for a
change meant to move CLI bytes, and list the moved files, found with
tests/snapshot_compare.py against the parent, with the change. Pytest does
not collect this file; test_snapshot_tools checks the manifest.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import cli_snapshot

MANIFEST = Path(__file__).with_name("snapshot_digests.json")
# g2 propagates on the dense generator, whose last digits (and whether
# g2_not_finite is refused) move with the BLAS thread count
UNPINNED = ("g2_csv", "g2_json", "g2_not_finite")


def digests(root) -> dict[str, str]:
    """{case/file: SHA-256} of every file of a snapshot at root, the UNPINNED cases left out."""
    root = Path(root)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.relative_to(root).parts[0] not in UNPINNED
    }


if __name__ == "__main__":
    if len(sys.argv) != 1:
        sys.exit(f"usage: {sys.argv[0]}")
    with tempfile.TemporaryDirectory() as outdir:
        cli_snapshot.snapshot(outdir)
        MANIFEST.write_text(json.dumps(digests(outdir), indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
