"""Compare two outputs of tests/cli_snapshot.py number by number.

    PYTHONPATH=src python3 tests/cli_snapshot.py before/   # on the old program
    PYTHONPATH=src python3 tests/cli_snapshot.py after/    # on the new one
    python3 tests/snapshot_compare.py before/ after/

``diff -r`` is the gate for changes that must write the same bytes. This
tool is for changes that may move numbers at the rounding level:

- exit codes and stderr must match byte for byte, as must the file set and
  every non-numeric cell, key and string;
- numeric cells are compared per file and column: the largest difference
  divided by the largest magnitude in that column of BEFORE. A JSON column
  is a key path with list positions dropped, e.g. ``data.intensity[]``, and
  a ``rows`` list beside a ``columns`` list is read as that table's columns;
- a JSON object holding both ``poles`` and ``amplitudes`` lists is compared
  as a matched set of (pole, amplitude) pairs, since the order in which
  eigenvalues come out of an eigensolver is not stable. Poles are paired by
  a minimum-distance assignment.

It prints one line per file that differs and a summary, and exits 1 when a
file differs in anything but numbers or a number moves by more than
1e-9 of its column's scale. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np
from scipy.optimize import linear_sum_assignment

_EXACT = ("exit_code.txt", "stderr.txt")
# largest accepted move of a number, relative to its column's scale
_RTOL = 1e-9


class Mismatch(Exception):
    """A difference that is not a moved number."""


def _files(root: str) -> set[str]:
    out = set()
    for folder, _, names in os.walk(root):
        for name in names:
            out.add(os.path.relpath(os.path.join(folder, name), root))
    return out


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_columns(before: str, after: str) -> dict[str, list[tuple[float, float]]]:
    rows_b = list(csv.reader(io.StringIO(before)))
    rows_a = list(csv.reader(io.StringIO(after)))
    if len(rows_b) != len(rows_a) or not rows_b:
        raise Mismatch(f"{len(rows_b)} rows before, {len(rows_a)} after")
    header = rows_b[0]
    if rows_a[0] != header:
        raise Mismatch(f"header {rows_b[0]} became {rows_a[0]}")
    columns: dict[str, list[tuple[float, float]]] = {name: [] for name in header}
    for line, (rb, ra) in enumerate(zip(rows_b[1:], rows_a[1:]), start=2):
        if len(rb) != len(ra):
            raise Mismatch(f"line {line}: {len(rb)} cells before, {len(ra)} after")
        for name, cb, ca in zip(header, rb, ra):
            xb, xa = _number(cb), _number(ca)
            if xb is None or xa is None:
                if cb != ca:
                    raise Mismatch(f"line {line}, column {name}: {cb!r} became {ca!r}")
            else:
                columns[name].append((xb, xa))
    return columns


def _complex(value) -> complex:
    return complex(value["re"], value["im"])


def _modes(path: str, before: dict, after: dict, sets: list) -> None:
    poles_b = np.array([_complex(v) for v in before["poles"]], dtype=complex)
    poles_a = np.array([_complex(v) for v in after["poles"]], dtype=complex)
    if poles_b.size != poles_a.size:
        raise Mismatch(f"{path}: {poles_b.size} modes before, {poles_a.size} after")
    amps_b = np.array([_complex(v) for v in before["amplitudes"]], dtype=complex)
    amps_a = np.array([_complex(v) for v in after["amplitudes"]], dtype=complex)
    if poles_b.size:
        rows, cols = linear_sum_assignment(np.abs(poles_b[:, None] - poles_a[None, :]))
        poles_a, amps_a = poles_a[cols[np.argsort(rows)]], amps_a[cols[np.argsort(rows)]]
    sets.append((path, poles_b, poles_a, amps_b, amps_a))


def _walk(path: str, before, after, columns: dict, sets: list) -> None:
    if isinstance(before, bool) or isinstance(after, bool) or before is None or after is None:
        if before != after or type(before) is not type(after):
            raise Mismatch(f"{path}: {before!r} became {after!r}")
    elif isinstance(before, (int, float)) and isinstance(after, (int, float)):
        columns.setdefault(path, []).append((float(before), float(after)))
    elif isinstance(before, dict) and isinstance(after, dict):
        if before.keys() != after.keys():
            raise Mismatch(f"{path}: keys {sorted(before)} became {sorted(after)}")
        for key in before:
            sub = f"{path}.{key}" if path else key
            if key in ("poles", "amplitudes") and {"poles", "amplitudes"} <= before.keys():
                continue
            if key == "rows" and isinstance(before.get("columns"), list):
                # a table: cell k of every row belongs to column columns[k]
                if len(before[key]) != len(after[key]):
                    raise Mismatch(f"{sub}: {len(before[key])} rows before, {len(after[key])} after")
                for rb, ra in zip(before[key], after[key]):
                    _walk(sub, dict(zip(before["columns"], rb)), dict(zip(before["columns"], ra)),
                          columns, sets)
                continue
            _walk(sub, before[key], after[key], columns, sets)
        if {"poles", "amplitudes"} <= before.keys():
            _modes(path or "<root>", before, after, sets)
    elif isinstance(before, list) and isinstance(after, list):
        if len(before) != len(after):
            raise Mismatch(f"{path}: {len(before)} items before, {len(after)} after")
        for vb, va in zip(before, after):
            _walk(f"{path}[]", vb, va, columns, sets)
    elif before != after:
        raise Mismatch(f"{path}: {before!r} became {after!r}")


def _relative(before: np.ndarray, after: np.ndarray) -> float:
    """max |after - before| over max |before|; inf when only the scale is zero."""
    diff = float(np.abs(after - before).max(initial=0.0))
    scale = float(np.abs(before).max(initial=0.0))
    if diff == 0.0:
        return 0.0
    return diff / scale if scale > 0.0 else float("inf")


def compare_file(before: str, after: str) -> tuple[str, float] | None:
    """None for equal texts, else a one-line account and the largest relative move.

    Raises Mismatch when the texts differ in anything but numbers.
    """
    if before == after:
        return None
    try:
        jb, ja = json.loads(before), json.loads(after)
    except ValueError:
        columns, sets = _csv_columns(before, after), []
    else:
        columns, sets = {}, []
        _walk("", jb, ja, columns, sets)
    moves = {}
    for name, pairs in columns.items():
        arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
        moves[name] = _relative(arr[:, 0], arr[:, 1])
    worst_name = max(moves, key=moves.get, default="")
    worst = moves.get(worst_name, 0.0)
    parts = [f"numbers {worst:.2g} relative ({worst_name})"] if worst > 0.0 else []
    for path, poles_b, poles_a, amps_b, amps_a in sets:
        pole_gap = float(np.abs(poles_a - poles_b).max(initial=0.0))
        pole_rel, amp_rel = _relative(poles_b, poles_a), _relative(amps_b, amps_a)
        parts.append(f"{path}: {poles_b.size} modes matched, poles {pole_gap:.2g} meV apart "
                     f"({pole_rel:.2g} relative), amplitudes {amp_rel:.2g} relative")
        worst = max(worst, pole_rel, amp_rel)
    if not parts:
        raise Mismatch("texts differ but every number and string matches")
    return "; ".join(parts), worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    files_b, files_a = _files(args.before), _files(args.after)
    bad = moved = 0
    for name in sorted(files_b ^ files_a):
        print(f"{name}: only in {'BEFORE' if name in files_b else 'AFTER'}")
        bad += 1
    for name in sorted(files_b & files_a):
        with open(os.path.join(args.before, name), encoding="utf-8", newline="") as fh:
            text_b = fh.read()
        with open(os.path.join(args.after, name), encoding="utf-8", newline="") as fh:
            text_a = fh.read()
        if os.path.basename(name) in _EXACT:
            if text_b != text_a:
                print(f"{name}: differs (compared byte for byte)")
                bad += 1
            continue
        try:
            result = compare_file(text_b, text_a)
        except Mismatch as exc:
            print(f"{name}: MISMATCH {exc}")
            bad += 1
            continue
        if result is None:
            continue
        account, worst = result
        if worst <= _RTOL:
            moved += 1
            print(f"{name}: {account}")
        else:
            bad += 1
            print(f"{name}: {account} EXCEEDS rtol {_RTOL:g}")
    print(f"{moved + bad} of {len(files_b | files_a)} files differ: "
          f"{moved} within rtol {_RTOL:g}, {bad} failing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
