"""Deterministic CSV / JSON-lines report writers."""
from __future__ import annotations

import json


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_line(cells) -> str:
    """One CSV line: the cells formatted and comma-joined, newline-ended."""
    return ",".join(map(format_cell, cells)) + "\n"


def rows_to_csv(fields, rows) -> str:
    return csv_line(fields) + "".join(csv_line(row.get(f) for f in fields) for row in rows)


def rows_to_jsonl(rows) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
