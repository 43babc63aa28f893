"""Deterministic CSV/JSON emission for runs and sweep tables.

CSV files start with '#'-prefixed metadata lines (config echo and tool
version), then a header row and data rows with floats printed to 12
significant digits. Identical configs therefore produce byte-identical files;
wall-clock timings live only in the JSON summary, never in CSV.

Both table builders return the header and an iterable of text chunks, each
one or more whole lines, which `write_csv` writes as they come. A run's rows
come straight from its arrays through `format_rows`, an array formatter
whose every cell is exactly `'%.12g' % x` (for the integer step column that
is also `'%d' % k`). It formats blocks of `BLOCK_CELLS` cells and yields
each block's text whole, so neither a stacked copy of the columns nor the
text of the whole table is ever held. Each cell becomes one fixed-width
record of words from small lookup tables (separator, sign, `0.` prefix and
first digit; point and three digits; two groups of four digits; exponent);
unused bytes are zero, and one `bytes.translate` drops them. The
digits are `|x| * 10**(11 - e)` rounded to an integer, which is exact away
from a rounding tie. Every cell the fast path cannot prove exact (near a
tie, a non-finite value, |x| outside [1e-99, 9e99), or a fixed-notation
value >= 1 with a fraction) is printed by `'%.12g' % x` itself, and
`fockstab validate` checks the formatter against it on the running numpy
(`validation.record_format_check`). Sweep rows are dicts of mixed types
and go through `_fmt` cell by cell; the header is the union of their keys
in first-seen order, and a row without a key gets an empty cell.
"""

from __future__ import annotations

import functools
import json
import sys
from types import SimpleNamespace
from typing import Any, Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigError
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
    """Per-step lines: step, time, fidelity, V, trace, then the full diagonal.

    The lines come from `format_rows`, one block of them per chunk, as they
    are read; each is its row through the template `%d` for the step, then
    `%.12g` per cell, comma-separated.
    """
    n, dim = record.diag.shape
    header = ["step", "time_s", "fidelity", "v", "trace"] + [f"p{k}" for k in range(dim)]
    steps = np.arange(n)
    # k * ts in float64 is the same product as Python's int * float
    return header, format_rows([steps, steps * cfg.ts, record.fidelity, record.v, record.trace, record.diag])


# cells formatted at a time: the block's buffers stay small, and the text of
# the whole table is never held
BLOCK_CELLS = 4096
# bytes of one cell's record: the separator before the cell, sign, "0.000"
# prefix and first digit (0-7), point and three digits (8-11), two groups of
# four digits (12-19) and the exponent (20-23)
_CELL = 24
# the fast path's range: exponents of two digits, also after rounding up
_TINY, _HUGE = 1e-99, 9e99
# offset of exponent 0 in the power and exponent tables; they cover |e| <= 120,
# past the fast path's exponents and the log10 guesses for its range
_E0 = 120


@functools.cache
def _tables() -> SimpleNamespace:
    """The formatter's lookup tables, built on the first record emission."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    two = np.empty((10, 10, 2), dtype=np.uint8)
    two[..., 0] = digits[:, None]
    two[..., 1] = digits[None, :]
    four = np.empty((100, 100, 4), dtype=np.uint8)
    four[..., :2] = two.reshape(100, 1, 2)
    four[..., 2:] = two.reshape(1, 100, 2)
    four = four.reshape(10_000, 4)
    # the same groups with their trailing '0' bytes set to 0
    stripped = four.copy()
    tail = np.ones(10_000, dtype=bool)
    for j in (3, 2, 1, 0):
        tail &= stripped[:, j] == ord("0")
        stripped[tail, j] = 0
    group4 = np.concatenate([four, stripped]).view(np.uint32).ravel()
    # the point goes with the group after the first digit; a stripped group
    # of zeros ends the mantissa, so it drops the point too
    point3 = np.zeros((2, 2, 1000, 4), dtype=np.uint8)
    point3[0, :, :, 1:] = four[:1000, 1:]
    point3[1, :, :, 1:] = stripped[:1000, 1:]
    point3[:, 1, :, 0] = ord(".")
    point3[1, 1, 0, 0] = 0
    prefix = np.zeros((5, 2, 10, 8), dtype=np.uint8)
    prefix[..., 0] = ord(",")
    for lead in range(5):
        for neg in range(2):
            text = b"-" * neg + (b"0." + b"0" * (lead - 1) if lead else b"")
            prefix[lead, neg, :, 1 : 1 + len(text)] = np.frombuffer(text, dtype=np.uint8)
    prefix[..., 7] = digits
    exponent = np.zeros((2 * _E0 + 1, 4), dtype=np.uint8)
    for e in [*range(-99, -4), *range(12, 100)]:
        exponent[e + _E0] = np.frombuffer(f"e{e:+03d}".encode(), dtype=np.uint8)
    keep = np.zeros((12, 12), dtype=np.uint8)
    for e in range(12):
        keep[e, : e + 1] = 0xFF
    tables = SimpleNamespace(
        # float64 by k + _E0: 10**k, correctly rounded
        pow10=np.array([float(f"1e{k}") for k in range(-_E0, _E0 + 1)]),
        # int64 by k < 12: 10**k
        int10=10 ** np.arange(12, dtype=np.int64),
        # uint64 by d1 + 10*negative + 20*lead, lead = -e in fixed notation below 1
        prefix=prefix.view(np.uint64).ravel(),
        # uint32 by g3 + 1000*point + 2000*strip
        point3=point3.view(np.uint32).ravel(),
        # uint32 by g4 + 10000*strip
        group4=group4,
        # uint32 by e + _E0: "e-05" in scientific notation, else 0
        exponent=exponent.view(np.uint32).ravel(),
        # (12, 3) uint32 masks of bytes 8-19 that keep digits 0..e
        keep=keep.view(np.uint32),
    )
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


def format_rows(columns: Sequence[np.ndarray]) -> Iterator[str]:
    """Text of the columns side by side, a block of whole lines per chunk,
    each cell exactly `'%.12g' % x`.

    Every column holds one value (1-D) or a run of cells (2-D) per row. An
    integer column prints as `'%d' % k` does, since `%.12g` prints every
    integer below 1e12 that way.
    """
    n = len(columns[0])
    cols = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    rows = max(1, BLOCK_CELLS // cols)
    for r0 in range(0, n, rows):
        block = np.column_stack([c[r0 : r0 + rows] for c in columns]).astype(np.float64, copy=False)
        yield _format_block(block)


def _format_block(block: np.ndarray) -> str:
    """The text of a (rows, cols) float64 block, one line per row."""
    t = _tables()
    x = block.ravel()
    s = np.abs(x)
    zero = s == 0
    fast = (s >= _TINY) & (s < _HUGE)
    s[~fast] = 1.0
    # e = floor(log10 |x|) and s = |x| * 10**(11 - e) in [1e11, 1e12). s is
    # within 2.3e-4 of exact (two roundings of a value below 1e12), so rint
    # gives the correctly rounded 12 digits unless s is near a tie. log10 is
    # only a guess: where it is one too small, an s below 1e12 + 0.5 rounds
    # to 1e12, the carry below; where one too large, an s of at least 1e11
    # rounds to 1e11, as the true scale would. Any other cell takes the
    # fallback, with a placeholder mantissa that keeps its lookups in range
    e = np.floor(np.log10(s)).astype(np.int64)
    s *= t.pow10[_E0 + 11 - e]
    m = np.rint(s)
    fast &= (s >= 1e11) & (m <= 1e12) & (np.abs(s - m) < 0.499)
    del s
    m[~fast] = 1e11
    carry = m == 1e12
    m[carry] = 1e11
    e += carry
    # a zero is the fixed-notation integer 0 (or -0)
    m[zero] = 0.0
    e[zero] = 0
    fast |= zero
    m = m.astype(np.int64)
    sci = (e < -4) | (e >= 12)
    fixed_int = ~sci & (e >= 0)
    fixed_int[fixed_int] = m[fixed_int] % t.int10[11 - e[fixed_int]] == 0
    # a fixed-notation value >= 1 with a fraction puts its point inside the
    # digits; those cells take the fallback
    fast &= sci | (e < 0) | fixed_int

    rec = np.empty((x.size + 1, _CELL), dtype=np.uint8)
    w64 = rec.view(np.uint64)
    w32 = rec.view(np.uint32)
    w32[:-1, 5] = t.exponent[e + _E0]
    # m = d1*1e11 + g3*1e8 + g4a*1e4 + g4b, split in place to keep the
    # block's buffers few. Each group is stripped of its trailing zeros where
    # all later groups are zero, but an integer keeps its zeros and is
    # masked to its e + 1 digits instead
    strip = ~fixed_int
    hi = m // 100_000_000  # d1 and g3
    m -= hi * 100_000_000  # g4a and g4b
    w32[:-1, 2] = t.point3[hi % 1000 + 1000 * sci + 2000 * (strip & (m == 0))]
    hi //= 1000  # d1
    hi += 10 * np.signbit(x) + 20 * np.where((e < 0) & ~sci, -e, 0)
    w64[:-1, 0] = t.prefix[hi]
    g4a = m // 10_000
    m -= g4a * 10_000  # g4b
    w32[:-1, 3] = t.group4[g4a + 10_000 * (strip & (m == 0))]
    w32[:-1, 4] = t.group4[m + 10_000 * strip]
    ints = np.flatnonzero(fixed_int)
    w32[ints, 2:5] &= t.keep[e[ints]]

    slow = np.flatnonzero(~fast)
    text = np.array(["%.12g" % v for v in x[slow].tolist()], dtype=f"S{_CELL - 1}")
    rec[slow, 1:] = text.view(np.uint8).reshape(-1, _CELL - 1)
    # each row starts after the line break that ends the row before it, and
    # the block's last line ends in the spare record after its last cell
    rec[:-1].reshape(block.shape[0], block.shape[1], _CELL)[:, 0, 0] = ord("\n")
    rec[0, 0] = 0
    rec[-1] = 0
    rec[-1, 0] = ord("\n")
    return rec.tobytes().translate(None, b"\0").decode("ascii")


def sweep_table(rows: Sequence[dict[str, Any]]) -> tuple[list[str], list[str]]:
    """Sweep lines under the union of the rows' keys; a missing key is an empty cell."""
    header = list(dict.fromkeys(h for r in rows for h in r))
    return header, [",".join(_fmt(r[h]) if h in r else "" for h in header) + "\n" for r in rows]


def write_csv(stream: TextIO, cfg: ExperimentConfig, header: Sequence[str], chunks: Iterable[str]) -> None:
    for line in _metadata_lines(cfg):
        stream.write(line + "\n")
    stream.write(",".join(header) + "\n")
    stream.writelines(chunks)


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
    """Run write(stream, cfg, *payload) on the stream, stdout or a fresh cfg.out file.

    An out path that cannot be opened for writing is a ConfigError.
    """
    own = stream is None and cfg.out is not None
    if own:
        try:
            stream = open(cfg.out, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise ConfigError(f"cannot write --out {cfg.out}: {exc.strerror or exc}") from exc
    elif stream is None:
        stream = sys.stdout
    try:
        write(stream, cfg, *payload)
    finally:
        if own:
            stream.close()
