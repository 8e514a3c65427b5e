"""Plot-ready tabular output: TSV with a '#'-prefixed, versioned header.

Reports are deterministic for a fixed (scenario, seed): no timestamps, floats
written with repr (lossless round-trip).
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

REPORT_FORMAT_VERSION = 1


def scenario_hash(payload) -> str:
    """Stable short hash of a JSON-serializable scenario description."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


class LazyRows:
    """``count`` table rows that ``make()`` yields one at a time, never all held."""

    def __init__(self, count: int, make: Callable[[], Iterator[Sequence]]):
        self.count, self.make = count, make

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Sequence]:
        return self.make()


def render_table(
    kind: str,
    meta: dict,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    tool_version: str,
) -> str:
    lines = [
        f"# format_version={REPORT_FORMAT_VERSION}",
        f"# kind={kind}",
        f"# tool=xtalk-quant {tool_version}",
    ]
    for key in sorted(meta):
        lines.append(f"# {key}={meta[key]}")
    lines.append("\t".join(columns))
    for row in rows:
        lines.append("\t".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"
