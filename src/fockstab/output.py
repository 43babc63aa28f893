"""Deterministic CSV/JSON emission for runs and sweep tables.

CSV files start with '#'-prefixed metadata lines (config echo and tool
version), then a header row and data rows with floats printed to 12
significant digits. Identical configs therefore produce byte-identical files;
wall-clock timings live only in the JSON summary, never in CSV.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Sequence, TextIO

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


def record_table(cfg: ExperimentConfig, record: RunRecord) -> tuple[list[str], list[list[Any]]]:
    """Per-step rows: step, time, fidelity, V, trace, then the full diagonal."""
    dim = record.diag.shape[1]
    header = ["step", "time_s", "fidelity", "v", "trace"] + [f"p{n}" for n in range(dim)]
    rows = []
    for k in range(record.diag.shape[0]):
        rows.append(
            [k, k * cfg.ts, float(record.fidelity[k]), float(record.v[k]), float(record.trace[k])]
            + [float(x) for x in record.diag[k]]
        )
    return header, rows


def sweep_table(rows: Sequence[dict[str, Any]]) -> tuple[list[str], list[list[Any]]]:
    header = list(rows[0].keys()) if rows else []
    return header, [[r.get(h) for h in header] for r in rows]


def write_csv(
    stream: TextIO,
    cfg: ExperimentConfig,
    header: Sequence[str],
    rows: Sequence[Sequence[Any]],
) -> None:
    for line in _metadata_lines(cfg):
        stream.write(line + "\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


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
