"""Deterministic CSV/JSON emission for runs and sweep tables.

CSV files start with '#'-prefixed metadata lines (config echo and tool
version), then a header row and data rows with floats printed to 12
significant digits. Identical configs therefore produce byte-identical files;
wall-clock timings live only in the JSON summary, never in CSV.

Both table builders return the header and an iterable of finished text lines,
which `write_csv` writes as they come. A run's rows are formatted straight
from its arrays: the columns are stacked into one float64 array, and each row
goes through one `%` template ("%d," then "%.12g" per column), which prints
every float exactly as `_fmt` does. The array is converted one row at a time,
so no boxed copy of the whole table is ever held. Sweep rows are dicts of
mixed types and go through `_fmt` cell by cell; the header is the union of
their keys in first-seen order, and a row without a key gets an empty cell.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Iterable, Sequence, TextIO

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .experiments import RunRecord


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt(v) for v in value)
    return str(value)


def _config_echo(cfg: ExperimentConfig) -> dict[str, Any]:
    # the destination path is not part of the experiment; omitting it keeps
    # the emitted bytes identical across output locations
    d = cfg.to_dict()
    d.pop("out")
    return d


def _metadata_lines(cfg: ExperimentConfig) -> list[str]:
    echo = json.dumps(_config_echo(cfg), sort_keys=True)
    return [f"# config: {echo}", f"# version: {__version__}"]


def record_table(cfg: ExperimentConfig, record: RunRecord) -> tuple[list[str], Iterable[str]]:
    """Per-step lines: step, time, fidelity, V, trace, then the full diagonal."""
    n, dim = record.diag.shape
    header = ["step", "time_s", "fidelity", "v", "trace"] + [f"p{k}" for k in range(dim)]
    # k * ts in float64 is the same product as Python's int * float
    table = np.column_stack([np.arange(n) * cfg.ts, record.fidelity, record.v, record.trace, record.diag])
    line = "%d," + ",".join(["%.12g"] * table.shape[1]) + "\n"
    return header, (line % (k, *row) for k, row in enumerate(map(np.ndarray.tolist, table)))


def sweep_table(rows: Sequence[dict[str, Any]]) -> tuple[list[str], list[str]]:
    """Sweep lines under the union of the rows' keys; a missing key is an empty cell."""
    header = list(dict.fromkeys(h for r in rows for h in r))
    return header, [",".join(_fmt(r[h]) if h in r else "" for h in header) + "\n" for r in rows]


def write_csv(stream: TextIO, cfg: ExperimentConfig, header: Sequence[str], lines: Iterable[str]) -> None:
    for line in _metadata_lines(cfg):
        stream.write(line + "\n")
    stream.write(",".join(header) + "\n")
    stream.writelines(lines)


def write_json(
    stream: TextIO,
    cfg: ExperimentConfig,
    records: Any,
    summary: dict[str, Any],
) -> None:
    payload = {"config": _config_echo(cfg), "records": records, "summary": summary}
    json.dump(payload, stream, sort_keys=True, indent=1, default=_json_default)
    stream.write("\n")


def _json_default(obj: Any) -> Any:
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def record_as_json(record: RunRecord) -> dict[str, Any]:
    return {
        "fidelity": record.fidelity.tolist(),
        "v": record.v.tolist(),
        "trace": record.trace.tolist(),
        "diag": record.diag.tolist(),
    }


def emit_record(cfg: ExperimentConfig, record: RunRecord, stream: TextIO | None = None) -> None:
    """Write one run in the configured format to cfg.out (or the stream)."""
    if cfg.fmt == "json":
        _emit(cfg, stream, write_json, [record_as_json(record)], record.summary)
    else:
        _emit(cfg, stream, write_csv, *record_table(cfg, record))


def emit_rows(
    cfg: ExperimentConfig,
    rows: Sequence[dict[str, Any]],
    summary: dict[str, Any] | None = None,
    stream: TextIO | None = None,
) -> None:
    """Write a sweep table in the configured format to cfg.out (or the stream)."""
    if cfg.fmt == "json":
        _emit(cfg, stream, write_json, list(rows), summary or {})
    else:
        _emit(cfg, stream, write_csv, *sweep_table(rows))


def _emit(cfg, stream, write, *payload) -> None:
    """Run write(stream, cfg, *payload) on the stream, stdout or a fresh cfg.out file."""
    own = stream is None and cfg.out is not None
    if stream is None:
        stream = open(cfg.out, "w", encoding="utf-8", newline="\n") if own else sys.stdout
    try:
        write(stream, cfg, *payload)
    finally:
        if own:
            stream.close()
