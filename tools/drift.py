"""How far every changed number moved between two request dumps.

Run from the root of a checkout:

    python3 tools/request_hashes.py SEED [SEED ...] --dump OLD_DIR   # old checkout
    python3 tools/request_hashes.py SEED [SEED ...] --dump NEW_DIR   # new checkout
    python3 tools/drift.py OLD_DIR NEW_DIR

A dump holds one file per request, `<workload>/<seed>/<request id>`:
the exit code on the first line and the output after it.  For each
request in both dumps, every output line is split into numbers and the
text between them.  On a line whose text is the same on both sides, the
numbers pair up cell by cell, and each number whose text changed is a
changed cell of its column:

  CSV output      the header name of its field;
  JSON output     the key on its line;
  a text table    the header word above it (table1);
  an FD column    "value" (one float.hex per line);
  other text      the line with its numbers as '#', and the cell's place.

The report has one line per request kind (levels, sweep, green-grid,
...) and column: the changed-cell count, the largest absolute, relative
and ulp change, and the request, line and old and new text of the
largest absolute change.  Exit-code changes, text changes (lines whose
non-numeric text differs) and requests in one dump only follow,
verbatim.  Two dumps with the same bytes give an empty report.  Exit
status: 0 for an empty report, 1 otherwise.
"""

from __future__ import annotations

import argparse
import math
import re
import struct
import sys
from pathlib import Path

# a decimal or float.hex number that is not part of a word (r000, x2)
NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]?\d+"
    r"|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?![\w.])")
JSON_KEY = re.compile(r'\s*"((?:[^"\\]|\\.)*)":')
SHOWN_LINES = 3          # text-change lines listed per request


def value(token):
    return float.fromhex(token) if "0x" in token else float(token)


def ordered(x):
    """x's place on the line of doubles: adjacent doubles differ by 1."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)


def parse(output):
    """One (line, skeleton, cells) per line of an output: the skeleton is
    the line with every number as '#', the cells are (column, number
    text) for each of its numbers."""
    lines = output.split("\n")
    head = lines[0]
    numbered_head = NUMBER.search(head) is not None
    csv_header = head.split(",") if "," in head and not numbered_head else None
    table_header = head.split() if csv_header is None and not numbered_head else None
    parsed = []
    for line in lines:
        skeleton = NUMBER.sub("#", line)
        key = JSON_KEY.match(line)
        found = []
        for k, m in enumerate(NUMBER.finditer(line)):
            if csv_header is not None:
                field = line.count(",", 0, m.start())
                column = csv_header[field] if field < len(csv_header) else f"field {field}"
            elif key is not None:
                column = key.group(1)
            elif table_header is not None and len(line.split()) == len(table_header):
                column = table_header[len(line[:m.start()].split())]
            elif skeleton == "#":
                column = "value"
            else:
                column = f"{skeleton} [{k}]"
            found.append((column, m.group()))
        parsed.append((line, skeleton, found))
    return parsed


class Column:
    """The changed cells of one (request kind, column)."""

    def __init__(self):
        self.cells = 0
        self.abs = self.rel = -1.0
        self.ulp = -1
        self.largest = None

    def add(self, where, old, new):
        a, b = value(old), value(new)
        diff = abs(b - a)
        rel = diff / abs(a) if a != 0.0 else (0.0 if diff == 0.0 else math.inf)
        self.cells += 1
        if diff > self.abs:
            self.abs, self.largest = diff, f"{where}: {old} -> {new}"
        self.rel = max(self.rel, rel)
        if math.isfinite(a) and math.isfinite(b):
            self.ulp = max(self.ulp, abs(ordered(b) - ordered(a)))


def kind_of(rid):
    """The request kind inside a request id `r000.03.levels.HO`."""
    parts = rid.split(".")
    return parts[2] if len(parts) > 3 else rid


def request_files(root):
    """{'workload seed request id': path} of a dump."""
    return {" ".join(p.relative_to(root).parts): p
            for p in sorted(root.rglob("*")) if p.is_file()}


def drift(old_root, new_root):
    """The report lines; an empty list when the dumps agree."""
    old, new = request_files(old_root), request_files(new_root)
    columns, exits, texts = {}, [], []
    for name in sorted(old.keys() & new.keys()):
        a_text, b_text = old[name].read_text(), new[name].read_text()
        if a_text == b_text:
            continue
        a_code, _, a_out = a_text.partition("\n")
        b_code, _, b_out = b_text.partition("\n")
        if a_code != b_code:
            exits.append(f"  {name}: exit {a_code} -> {b_code}")
        a_parsed, b_parsed = parse(a_out), parse(b_out)
        kind = kind_of(name.split(" ")[-1])
        changed = []
        for i in range(max(len(a_parsed), len(b_parsed))):
            a_line, a_skeleton, a_cells = a_parsed[i] if i < len(a_parsed) else (None, None, ())
            b_line, b_skeleton, b_cells = b_parsed[i] if i < len(b_parsed) else (None, None, ())
            if a_skeleton != b_skeleton:
                changed.append((i, a_line, b_line))
                continue
            for (column, a), (_, b) in zip(a_cells, b_cells):
                if a != b:
                    columns.setdefault((kind, column), Column()).add(
                        f"{name} line {i + 1}", a, b)
        for i, a_line, b_line in changed[:SHOWN_LINES]:
            texts.append(f"  {name} line {i + 1}: {a_line!r} -> {b_line!r}")
        if len(changed) > SHOWN_LINES:
            texts.append(f"  {name}: {len(changed) - SHOWN_LINES} more changed line(s)")
    report = []
    if columns:
        report.append("numeric changes, by request kind [column]:")
        for (kind, column), c in sorted(columns.items()):
            report.append(
                f"  {kind} [{column}]: {c.cells} changed cell(s), max abs {c.abs:.3g}, "
                f"max rel {c.rel:.3g}, max {c.ulp} ulp; largest at {c.largest}")
    if exits:
        report += ["exit-code changes:", *exits]
    if texts:
        report += ["text changes:", *texts]
    for label, only in (("old", old.keys() - new.keys()), ("new", new.keys() - old.keys())):
        if only:
            report += [f"only in the {label} dump:", *(f"  {name}" for name in sorted(only))]
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, metavar="OLD_DIR")
    parser.add_argument("new", type=Path, metavar="NEW_DIR")
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    report = drift(args.old, args.new)
    for line in report:
        print(line)
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
