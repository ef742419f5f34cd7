"""The byte gate itself: cli_snapshot writes the same bytes twice, and
snapshot_compare tells rounding-level moves from real ones."""

import csv
import filecmp
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cli_snapshot
import dqdcavity
import snapshot_compare


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    first, second = tmp_path_factory.mktemp("first"), tmp_path_factory.mktemp("second")
    cli_snapshot.snapshot(str(first))
    cli_snapshot.snapshot(str(second))
    return first, second


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def _move_largest(path, column, rel):
    """Scale the largest-magnitude number of a CSV column by 1 + rel, in place."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    row = max(rows[1:], key=lambda r: abs(float(r[col])))
    row[col] = repr(float(row[col]) * (1.0 + rel))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(rows)


def test_identical_runs_write_identical_bytes(snapshots):
    first, second = snapshots
    files = _tree(first)
    assert files == _tree(second)
    assert set(cli_snapshot.CASES) == {name.split("/")[0] for name in files}
    _, mismatch, errors = filecmp.cmpfiles(first, second, files, shallow=False)
    assert mismatch == [] and errors == []


def test_compare_passes_identical_snapshots(snapshots, capsys):
    assert snapshot_compare.main([str(p) for p in snapshots]) == 0
    assert capsys.readouterr().out.startswith(f"0 of {len(_tree(snapshots[0]))} files differ")


@pytest.mark.parametrize("rel, code", [(1e-12, 0), (1e-6, 1)], ids=["rounding", "real"])
def test_compare_judges_a_moved_number(snapshots, tmp_path, capsys, rel, code):
    first, second = snapshots
    after = tmp_path / "after"
    shutil.copytree(second, after)
    _move_largest(after / "g2_csv" / "g2.csv", "g2", rel)
    assert snapshot_compare.main([str(first), str(after)]) == code
    assert "g2_csv/g2.csv: numbers" in capsys.readouterr().out


def test_compare_refuses_a_changed_stderr(snapshots, tmp_path, capsys):
    first, second = snapshots
    after = tmp_path / "after"
    shutil.copytree(second, after)
    with open(after / "steady_json" / "stderr.txt", "a", encoding="utf-8") as fh:
        fh.write("warning\n")
    assert snapshot_compare.main([str(first), str(after)]) == 1
    assert "steady_json/stderr.txt: differs" in capsys.readouterr().out


# two cases whose (stubbed) main warns from one source line, run by the real
# snapshot() in a fresh interpreter, where warnings go to the case's stderr
_TWO_CASES_ONE_WARNING = """
import sys, warnings
import cli_snapshot

def main(argv):
    warnings.warn("shown by every case", RuntimeWarning)
    return 0

cli_snapshot.main = main
cli_snapshot.CASES = {"first": ([], None), "second": ([], None)}
cli_snapshot.snapshot(sys.argv[1])
"""


def test_each_case_records_a_warning_an_earlier_case_showed(tmp_path):
    # Python shows a warning once per source line under its default filter;
    # each case still records it in its own stderr.txt
    paths = [str(Path(__file__).parent), str(Path(dqdcavity.__file__).resolve().parents[1])]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*paths, env.get("PYTHONPATH")]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-W", "default", "-c", _TWO_CASES_ONE_WARNING,
                           str(tmp_path)], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    for case in ("first", "second"):
        stderr = (tmp_path / case / "stderr.txt").read_text(encoding="utf-8")
        assert "RuntimeWarning: shown by every case" in stderr
