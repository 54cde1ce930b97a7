"""Compare two estc output directories file by file.

    python3 tools/compare_outputs.py DIR_A DIR_B

Prints one line per file name found in either directory:

    name: bytes equal
    name: largest difference 2.2e-16 of the largest number
    name: differs beyond its numbers
    name: bytes differ
    name: only in DIR_A

A file whose bytes differ is compared by its numbers where its kind has
them: operator.c16 as complex128, a .json file by its numeric leaves and
a .csv file by its numeric fields.  The difference is the largest
|a - b| over corresponding numbers, relative to the largest finite
magnitude in either file; a differing count of numbers, structure or
text besides the numbers is reported as "differs beyond its numbers".
Any other file is compared by its bytes alone.  Exits 0 when every file
is bytes equal, 1 otherwise.  Uses numpy only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np


def numbers_c16(data: bytes) -> tuple[np.ndarray, list]:
    """The complex128 numbers of a .c16 file, which holds nothing else; ValueError for a torn one."""
    return np.frombuffer(data, dtype=np.complex128), []


def numbers_json(data: bytes) -> tuple[np.ndarray, list]:
    """The numeric leaves of a JSON document in document order, and the rest of it."""
    values, rest = [], []

    def walk(node):
        if isinstance(node, bool) or node is None or isinstance(node, str):
            rest.append(node)
        elif isinstance(node, (int, float)):
            values.append(float(node))
        elif isinstance(node, dict):
            rest.append(sorted(node))
            for key in sorted(node):
                walk(node[key])
        else:
            rest.append(len(node))
            for item in node:
                walk(item)

    walk(json.loads(data))
    return np.array(values, dtype=float), rest


def numbers_csv(data: bytes) -> tuple[np.ndarray, list]:
    """The fields of a CSV file that read as numbers, in order, and the fields that do not."""
    values, rest = [], []
    for line in data.decode().split("\n"):
        fields = line.split(",")
        rest.append(len(fields))
        for field in fields:
            try:
                values.append(float(field))
            except ValueError:
                rest.append(field)
    return np.array(values, dtype=float), rest


READERS = {".c16": numbers_c16, ".json": numbers_json, ".csv": numbers_csv}


def largest_difference(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| over corresponding numbers, relative to the largest finite |a| or |b|.

    Equal numbers, NaN against NaN included, differ by 0; a difference
    that is not finite counts as infinite.
    """
    with np.errstate(all="ignore"):
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        diff = np.where(same, 0.0, np.abs(a - b))
    diff = np.where(np.isfinite(diff), diff, np.inf)
    magnitudes = np.abs(np.concatenate([a, b]))
    scale = magnitudes[np.isfinite(magnitudes)].max(initial=0.0)
    worst = diff.max(initial=0.0)
    if worst == 0.0:
        return 0.0
    return worst / scale if scale > 0.0 else float("inf")


def compare_file(a: bytes, b: bytes, suffix: str) -> str:
    """The verdict on two versions of one file."""
    if a == b:
        return "bytes equal"
    reader = READERS.get(suffix)
    if reader is None:
        return "bytes differ"
    try:
        (values_a, rest_a), (values_b, rest_b) = reader(a), reader(b)
    except (ValueError, UnicodeDecodeError):
        return "bytes differ"
    if rest_a != rest_b or values_a.shape != values_b.shape:
        return "differs beyond its numbers"
    if values_a.dtype.kind == "c":
        values_a = np.concatenate([values_a.real, values_a.imag])
        values_b = np.concatenate([values_b.real, values_b.imag])
    return f"largest difference {largest_difference(values_a, values_b):.3g} of the largest number"


def compare_dirs(first: Path, second: Path) -> list[str]:
    """One line per file name in either directory, in name order."""
    names = sorted({p.name for d in (first, second) for p in d.iterdir() if p.is_file()})
    lines = []
    for name in names:
        a, b = first / name, second / name
        if not b.is_file():
            lines.append(f"{name}: only in {first}")
        elif not a.is_file():
            lines.append(f"{name}: only in {second}")
        else:
            lines.append(f"{name}: {compare_file(a.read_bytes(), b.read_bytes(), a.suffix)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(arg).is_dir() for arg in args):
        print("usage: compare_outputs.py DIR_A DIR_B", file=sys.stderr)
        return 2
    lines = compare_dirs(Path(args[0]), Path(args[1]))
    print("\n".join(lines))
    return 0 if all(line.endswith(": bytes equal") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
