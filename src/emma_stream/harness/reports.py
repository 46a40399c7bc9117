"""Report emission in CSV and JSON."""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

from .evaluate import CorpusResult, SweepReport, SweepRow

__all__ = ["COLUMNS", "emit_report", "render_report"]

COLUMNS = ("threshold", "bleu", "al", "laal", "start_offset", "end_offset",
           "n_instances", "n_failures")
_INT_COLUMNS = frozenset(("n_instances", "n_failures"))


def _rows(report) -> list[SweepRow]:
    if isinstance(report, SweepReport):
        return list(report.rows)
    if isinstance(report, CorpusResult):
        return [report.to_row()]
    if isinstance(report, SweepRow):
        return [report]
    raise TypeError(f"cannot report a {type(report).__name__}")


def _cell(row: SweepRow, column: str) -> str:
    value = getattr(row, column)
    if column in _INT_COLUMNS:
        return str(int(value))
    return f"{value:.6f}"


def render_report(report, format: str = "csv") -> str:
    """Render to text. CSV column order is part of the format contract;
    JSON carries the same values (floats re-parsed from the 6dp form so
    the two emissions agree exactly)."""
    rows = _rows(report)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([_cell(row, c) for c in COLUMNS])
        return buf.getvalue()
    if format == "json":
        payload = [
            {c: int(_cell(r, c)) if c in _INT_COLUMNS else float(_cell(r, c))
             for c in COLUMNS}
            for r in rows]
        return json.dumps({"rows": payload}, indent=2) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def emit_report(report, format: str = "csv", path: str | Path | None = None) -> str:
    """Write the rendered report to path, or stdout when path is None."""
    text = render_report(report, format)
    if path is None:
        sys.stdout.write(text)
    else:
        path = Path(path)
        try:
            if path.parent != Path(""):
                path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise OSError(f"cannot write report to {str(path)!r}: {exc}")
    return text
