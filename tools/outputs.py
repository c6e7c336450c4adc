"""Run carleman-fp's standard output set into a directory, record each
output's SHA-256, and compare the outputs with an earlier run.

    python tools/outputs.py --out DIR [--against REF]

The set: ``solve`` at lambda = -0.159154 and -1/6, ``figure2``,
``gab --grid=12`` and ``--grid=300`` and ``verify --suite=all`` at seeds
0-4, each with its manifest next to it; ``DIR/SHA256SUMS`` lists the
outputs' digests.  The package is the one under ``src/`` next to this
script.  Every command runs under ``python -W error``, so a
floating-point warning (an overflow, division by zero or invalid
operation in a kernel) fails its run, and the tool with it.

With ``--against REF``, a directory an earlier run wrote, it prints a
Markdown table: per file and column, the rows that changed and the
largest absolute, relative (to REF) and ulp difference; the columns that
did not change share one row, and an identical file is one row.  A CSV's
``# key=value`` preamble counts as one column per key.  For a verify
JSON the columns are the reports' fields, and every changed margin and
status is listed below the table.  A difference is reported, not
failed: the exit status is that of the commands.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LAMBDA = "-0.159154"
COMMANDS = {
    "solve-0.159154.csv": ["solve", f"--lambda={LAMBDA}"],
    "solve-1_6.csv": ["solve", f"--lambda={-1.0 / 6.0!r}"],
    "figure2.csv": ["figure2"],
    "gab-12.csv": ["gab", f"--lambda={LAMBDA}", "--grid=12"],
    "gab-300.csv": ["gab", f"--lambda={LAMBDA}", "--grid=300"],
    **{f"verify-seed{s}.json": ["verify", "--suite=all", f"--seed={s}"] for s in range(5)},
}
SUMS = "SHA256SUMS"


def run(out: Path) -> None:
    """Every command of the set, its output in ``out``, then the digests."""
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for name, args in COMMANDS.items():
        command = [sys.executable, "-W", "error", "-m", "carlemanfp.cli", *args,
                   "--out", str(out / name)]
        subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
    lines = [f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}\n"
             for name in COMMANDS]
    (out / SUMS).write_text("".join(lines))


def read_csv(path: Path) -> dict[str, list[str]]:
    """The cells of each column by header name, and each ``# key=value``
    of the preamble as a one-row column ``#key``."""
    columns: dict[str, list[str]] = {}
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    for line in lines:
        if line.startswith("#") and "=" in line:
            key, value = line[1:].strip().split("=", 1)
            columns["#" + key] = [value]
    rows = list(csv.reader(body))
    for k, name in enumerate(rows[0] if rows else []):
        columns[name] = [row[k] for row in rows[1:]]
    return columns


def read_reports(path: Path) -> dict[str, dict]:
    """A verify JSON's reports by ``lemma_id``."""
    return {rep["lemma_id"]: rep for rep in json.loads(path.read_text())["reports"]}


def _number(cell) -> float | None:
    """A CSV cell or JSON value as a float, or None if it is not a number."""
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _ordered(x: float) -> int:
    """x's place among the doubles: consecutive doubles differ by 1."""
    bits = int.from_bytes(struct.pack(">d", x), "big", signed=True)
    return bits if bits >= 0 else -(bits & (1 << 63) - 1)


def differences(new: list, ref: list) -> dict:
    """Rows changed between two cell lists of one column, and the largest
    absolute, relative and ulp difference of the numeric cells among
    them; None where no changed cell is a pair of numbers.  Lists of
    different lengths count every row as changed."""
    if len(new) != len(ref):
        return {"rows": max(len(new), len(ref)), "of": len(ref),
                "abs": None, "rel": None, "ulp": None}
    worst = {"abs": None, "rel": None, "ulp": None}
    rows = 0
    for x, y in zip(new, ref):
        if json.dumps(x) == json.dumps(y):
            continue
        rows += 1
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None or not (math.isfinite(fx) and math.isfinite(fy)):
            continue
        d = abs(fx - fy)
        for key, value in (("abs", d), ("rel", d / abs(fy) if fy else math.inf),
                           ("ulp", abs(_ordered(fx) - _ordered(fy)))):
            if worst[key] is None or value > worst[key]:
                worst[key] = value
    return {"rows": rows, "of": len(ref), **worst}


def _report_columns(new: dict, ref: dict) -> tuple[dict, dict]:
    """The fields of two runs' reports as columns, one row per report id
    of either run (None where a run lacks it)."""
    ids = sorted(set(new) | set(ref))
    fields = sorted({f for rep in (*new.values(), *ref.values()) for f in rep} - {"lemma_id"})
    return tuple({f: [reports.get(k, {}).get(f) for k in ids] for f in fields}
                 for reports in (new, ref))


def compare(new_dir: Path, ref_dir: Path) -> str:
    """The Markdown comparison of every output two runs share."""
    names = sorted({p.name for d in (new_dir, ref_dir) for p in d.iterdir()
                    if p.suffix in (".csv", ".json")
                    and not p.name.endswith(".manifest.json")})
    table = ["| File | Column | Rows changed | Max abs | Max rel | Max ulp |",
             "|---|---|---:|---:|---:|---:|"]
    notes = []
    for name in names:
        new, ref = new_dir / name, ref_dir / name
        if not (new.exists() and ref.exists()):
            table.append(f"| {name} | (only in {'new' if new.exists() else 'ref'}) | | | | |")
            continue
        if new.read_bytes() == ref.read_bytes():
            table.append(f"| {name} | all (identical) | 0 | 0 | 0 | 0 |")
            continue
        if name.endswith(".json"):
            new_reports, ref_reports = read_reports(new), read_reports(ref)
            new_cols, ref_cols = _report_columns(new_reports, ref_reports)
            notes += _report_changes(name, new_reports, ref_reports)
        else:
            new_cols, ref_cols = read_csv(new), read_csv(ref)
        unchanged = []
        for col in list(ref_cols) + [c for c in new_cols if c not in ref_cols]:
            d = differences(new_cols.get(col, []), ref_cols.get(col, []))
            if d["rows"] == 0:
                unchanged.append(col)
                continue
            cells = ["-" if d[k] is None else f"{d[k]:.3g}" for k in ("abs", "rel", "ulp")]
            table.append(f"| {name} | {col} | {d['rows']} of {d['of']} | {' | '.join(cells)} |")
        if unchanged:
            table.append(f"| {name} | unchanged: {', '.join(unchanged)} | 0 | 0 | 0 | 0 |")
    return "\n".join(table + ([""] + notes if notes else [])) + "\n"


def _report_changes(name: str, new: dict, ref: dict) -> list[str]:
    """One line per report whose margin or status differs between runs."""
    lines = []
    for key in sorted(set(new) | set(ref)):
        if key not in new or key not in ref:
            lines.append(f"- {name} {key}: only in {'new' if key in new else 'ref'}")
            continue
        now, was = new[key], ref[key]
        if now["status"] != was["status"]:
            lines.append(f"- {name} {key}: status {was['status']} -> {now['status']}")
        if now["worst_margin"] != was["worst_margin"]:
            d = differences([now["worst_margin"]], [was["worst_margin"]])
            rel, ulp = ("-" if d[k] is None else f"{d[k]:.2g}" for k in ("rel", "ulp"))
            lines.append(f"- {name} {key}: margin {was['worst_margin']!r} -> "
                         f"{now['worst_margin']!r} (rel {rel}, {ulp} ulp)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="directory for the outputs")
    parser.add_argument("--against", type=Path,
                        help="directory of an earlier run to compare with")
    args = parser.parse_args(argv)
    run(args.out)
    if args.against:
        sys.stdout.write(compare(args.out, args.against))
    return 0


if __name__ == "__main__":
    sys.exit(main())
