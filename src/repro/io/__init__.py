"""I/O layer: persistent artifacts of the measurement pipeline.

Three kinds of artifact live here:

* **traffic cubes** (:mod:`repro.io.cube`) — the reduced ``(t, p)``
  volume matrices and ``(t, p, 4)`` entropy tensor, one ``.npz`` file;
* **diagnosis reports** (:mod:`repro.io.cube`) — CSV / JSON exports of
  diagnosed anomalies for downstream tooling;
* **flow-record traces** (:mod:`repro.io.trace`) — the raw measurement
  input itself, stored once in a columnar binary format and replayed
  by row ranges — in memory that does not grow with the trace — by any
  number of consumers (the streaming engine, the batch pipeline, every
  shard of a cluster).

Importing from ``repro.io`` keeps working exactly as it did when this
was a single module.
"""

from repro.io.cube import (
    load_cube,
    report_summary,
    report_to_rows,
    save_cube,
    write_report_csv,
    write_report_json,
)
from repro.io.trace import (
    TraceError,
    TraceInfo,
    TraceReader,
    TraceWriter,
    trace_info,
    verify_trace,
)

__all__ = [
    "save_cube",
    "load_cube",
    "report_to_rows",
    "write_report_csv",
    "report_summary",
    "write_report_json",
    "TraceError",
    "TraceInfo",
    "TraceReader",
    "TraceWriter",
    "trace_info",
    "verify_trace",
]
