"""Plot-ready tabular output: TSV with a '#'-prefixed, versioned header.

Reports are deterministic for a fixed (scenario, seed): no timestamps, floats
written with repr (lossless round-trip).
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Sequence

REPORT_FORMAT_VERSION = 1


def scenario_hash(payload) -> str:
    """Stable short hash of a JSON-serializable scenario description."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def render_table(
    kind: str,
    meta: dict,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    tool_version: str,
    header: bool = True,
) -> str:
    """The table's text, every line ending in a newline; without ``header``
    only the rows', so a table rendered in blocks of rows, the header with
    the first, joins to the text of one call.  A cell is written with str:
    a float's repr, a numpy float64 alike."""
    lines = []
    if header:
        lines += [
            f"# format_version={REPORT_FORMAT_VERSION}",
            f"# kind={kind}",
            f"# tool=xtalk-quant {tool_version}",
        ]
        lines += [f"# {key}={meta[key]}" for key in sorted(meta)]
        lines.append("\t".join(columns))
    lines += ["\t".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n" if lines else ""
