"""Trace persistence.

Two formats:

* **binary** (``.npz``) — compressed columns in a static-id layout; the
  format of the artifact store and the experiment harness's trace cache;
* **ndjson** (``.ndjson``) — one JSON object per event, self-describing and
  diff-able; used for small fixture traces and interoperability.

The binary layout (format version 2) stores the PC column as
:func:`~repro.trace.events.decode_static`'s ``(static_pcs, ids)``, the
outcomes as packed bits, the time stamps as their first value plus
first differences (modulo 2**64) in the narrowest unsigned dtype that
holds them, and the targets as one entry per static branch when every
static branch has a single target (a conditional branch's taken target
is fixed by its encoding), else as the full column.  Every column
reloads exactly, with its dtype.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from .events import BranchTrace

PathLike = Union[str, Path]

_FORMAT_VERSION = 2
_NDJSON_VERSION = 1


def _narrowest(values: np.ndarray) -> np.ndarray:
    """*values* (unsigned) in the narrowest unsigned dtype holding them."""
    top = int(values.max()) if len(values) else 0
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return values.astype(dtype)
    return values


def save_trace(
    trace: BranchTrace,
    path: PathLike,
    meta: Optional[Dict[str, object]] = None,
) -> None:
    """Write *trace* to an ``.npz`` file.

    Args:
        trace: the trace to persist.
        path: destination path.
        meta: optional JSON-serialisable provenance metadata (the artifact
            store stamps the content digest here); readable without
            decompressing the event columns via :func:`read_trace_meta`.
    """
    static_pcs, ids = trace.static_ids()
    columns = {}
    if meta is not None:
        columns["meta"] = np.array([json.dumps(meta)])
    stamps = trace.timestamps
    deltas = np.zeros_like(stamps)
    np.subtract(stamps[1:], stamps[:-1], out=deltas[1:])
    columns["timestamp_deltas"] = _narrowest(deltas)
    del deltas  # at most one full-width temporary alive at a time
    static_targets = np.zeros(len(static_pcs), dtype=np.uint64)
    static_targets[ids] = trace.targets
    if np.array_equal(static_targets[ids], trace.targets):
        columns["static_targets"] = static_targets
    else:
        columns["targets"] = trace.targets
    np.savez_compressed(
        Path(path),
        version=np.array([_FORMAT_VERSION]),
        name=np.array([trace.name]),
        static_pcs=static_pcs,
        ids=ids,
        taken=np.packbits(trace.taken),
        timestamp_start=stamps[:1],
        **columns,
    )


def _check_version(archive) -> None:
    version = int(archive["version"][0])
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {version}")


def read_trace_meta(path: PathLike) -> Dict[str, object]:
    """Provenance metadata stored with :func:`save_trace` (may be empty).

    Raises:
        ValueError: on a format-version mismatch.
    """
    with np.load(Path(path), allow_pickle=False) as archive:
        _check_version(archive)
        if "meta" not in archive.files:
            return {}
        return json.loads(str(archive["meta"][0]))


def load_trace(path: PathLike) -> BranchTrace:
    """Read a trace previously written by :func:`save_trace`.

    The trace's :meth:`~repro.trace.events.BranchTrace.static_ids` come
    from the file, so replays need not decode the PC column again.

    Raises:
        ValueError: on a format-version mismatch.
    """
    with np.load(Path(path), allow_pickle=False) as archive:
        _check_version(archive)
        static_pcs = archive["static_pcs"]
        ids = archive["ids"]
        if "static_targets" in archive.files:
            targets = archive["static_targets"][ids]
        else:
            targets = archive["targets"]
        taken = np.unpackbits(archive["taken"], count=len(ids)).view(bool)
        timestamps = np.cumsum(archive["timestamp_deltas"], dtype=np.uint64)
        timestamps += archive["timestamp_start"]
        return BranchTrace(
            static_pcs[ids],
            targets,
            taken,
            timestamps,
            name=str(archive["name"][0]),
            static=(static_pcs, ids),
        )


def save_trace_ndjson(trace: BranchTrace, path: PathLike) -> None:
    """Write *trace* as newline-delimited JSON events."""
    with open(Path(path), "w", encoding="utf-8") as fh:
        header = {"format": "branch-trace", "version": _NDJSON_VERSION,
                  "name": trace.name, "events": len(trace)}
        fh.write(json.dumps(header) + "\n")
        for event in trace:
            fh.write(
                json.dumps(
                    {
                        "pc": event.pc,
                        "target": event.target,
                        "taken": event.taken,
                        "ts": event.timestamp,
                    }
                )
                + "\n"
            )


def load_trace_ndjson(path: PathLike) -> BranchTrace:
    """Read a trace written by :func:`save_trace_ndjson`.

    Raises:
        ValueError: if the header is missing or malformed.
    """
    pcs, targets, taken, timestamps = [], [], [], []
    name = "<ndjson>"
    with open(Path(path), encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError("empty trace file")
        header = json.loads(header_line)
        if header.get("format") != "branch-trace":
            raise ValueError("not a branch-trace ndjson file")
        name = header.get("name", name)
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            pcs.append(obj["pc"])
            targets.append(obj["target"])
            taken.append(obj["taken"])
            timestamps.append(obj["ts"])
    return BranchTrace(
        np.array(pcs, dtype=np.uint64),
        np.array(targets, dtype=np.uint64),
        np.array(taken, dtype=bool),
        np.array(timestamps, dtype=np.uint64),
        name=name,
    )
