"""Coordinator checkpoints: closed-bin merged row blocks on disk.

As the cluster coordinator closes bins, it appends each bin's *merged*
:class:`~repro.cluster.summary.ShardBinSummary` row block — the same
wire format the workers ship — to an append-only checkpoint file.  If
the run dies, ``--resume`` replays the checkpointed bins through the
streaming engine (deterministic, so the replay is bit-identical to the
original merges) and restarts the workers at the first unclosed bin.

File layout (little-endian)::

    8s   magic  b"RPROCKPT"
    <I   header length
    ...  JSON header {"version": 1, "fingerprint": {...}}
    then per closed bin, in bin order from the first bin merged:
    <q   bin index
    <i   payload length in bytes, or -1 for a gap bin (no payload)
    <I   crc32 of the payload (0 for gaps)
    ...  payload bytes

The first record is the coordinator's first merged bin — its first
non-empty one, so not bin 0 when the source's leading bins are empty —
and every later record is the next bin.  Records are flushed per
append, so a kill can leave at most one torn record at the tail;
:func:`load_checkpoint` stops at the first short, CRC-bad, or
out-of-sequence record and reports the byte offset of the last good
one, which :class:`CheckpointWriter` truncates back to before resuming
appends.

The header ``fingerprint`` (see :func:`run_fingerprint`) pins the
source spec, engine config, and detector set; resuming with a different
workload raises :class:`CheckpointError` rather than silently merging
incompatible summaries.  Shard count is deliberately *excluded* — the
merged rows are the same at any shard count, so a run checkpointed at
4 workers may resume at 2.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zlib
from dataclasses import dataclass

__all__ = [
    "CheckpointError",
    "CheckpointState",
    "CheckpointWriter",
    "load_checkpoint",
    "run_fingerprint",
]

_MAGIC = b"RPROCKPT"
_VERSION = 1
_LEN = struct.Struct("<I")
_RECORD = struct.Struct("<qiI")  # bin index, payload length (-1 = gap), crc32


class CheckpointError(ValueError):
    """Checkpoint file unusable for this run (bad magic, version,
    or fingerprint mismatch)."""


@dataclass(frozen=True)
class CheckpointState:
    """Result of loading a checkpoint.

    Attributes:
        fingerprint: The run fingerprint stored in the header.
        bins: ``(bin_index, payload_or_None)`` for each recovered
            closed bin, contiguous from the first bin merged; ``None``
            marks a gap bin (synthesized-empty at merge time).
        end_offset: Byte offset just past the last good record — where
            a resuming writer truncates to before appending.
    """

    fingerprint: dict
    bins: tuple[tuple[int, bytes | None], ...]
    end_offset: int

    @property
    def next_bin(self) -> int:
        """First bin after the ones the checkpoint covers (0 if none)."""
        return self.bins[-1][0] + 1 if self.bins else 0


def run_fingerprint(spec, config) -> dict:
    """JSON-safe identity of a run, for checkpoint compatibility.

    Everything that shapes the merged summaries is included: the source
    spec (traffic is a pure function of it) and the engine config.  Worker count is excluded on purpose — the canonical
    merge makes summaries independent of sharding.
    """
    spec_dict = dataclasses.asdict(spec)
    # `fuzz` is a nested spec object; its repr is stable and JSON-safe.
    if spec_dict.get("fuzz") is not None:
        spec_dict["fuzz"] = repr(spec.fuzz)
    return {
        "spec": spec_dict,
        "config": dataclasses.asdict(config),
    }


def load_checkpoint(path: str, fingerprint: dict | None = None) -> CheckpointState:
    """Load a checkpoint, stopping at the first torn or bad record.

    Raises :class:`CheckpointError` on bad magic/version or (when
    ``fingerprint`` is given) a fingerprint mismatch.  A torn tail is
    *not* an error — the state simply ends at the last good record.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + _LEN.size or blob[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path}: not a repro checkpoint file")
    (header_len,) = _LEN.unpack_from(blob, len(_MAGIC))
    header_end = len(_MAGIC) + _LEN.size + header_len
    if header_end > len(blob):
        raise CheckpointError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[len(_MAGIC) + _LEN.size : header_end])
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint header: {exc}") from None
    if header.get("version") != _VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {header.get('version')!r}"
        )
    stored = header.get("fingerprint", {})
    if fingerprint is not None and stored != fingerprint:
        raise CheckpointError(
            f"{path}: checkpoint belongs to a different run "
            "(source/config fingerprint mismatch); "
            "delete it or drop --resume"
        )

    bins: list[tuple[int, bytes | None]] = []
    offset = header_end
    while True:
        if offset + _RECORD.size > len(blob):
            break  # torn or absent record header
        bin_index, length, crc = _RECORD.unpack_from(blob, offset)
        if bin_index < 0 or (bins and bin_index != bins[-1][0] + 1):
            break  # out of sequence — treat the rest as garbage
        if length < 0:
            if crc != 0:
                break
            bins.append((bin_index, None))
            offset += _RECORD.size
            continue
        start = offset + _RECORD.size
        if start + length > len(blob):
            break  # torn payload
        payload = blob[start : start + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            break  # corrupt payload
        bins.append((bin_index, payload))
        offset = start + length
    return CheckpointState(
        fingerprint=stored, bins=tuple(bins), end_offset=offset
    )


class CheckpointWriter:
    """Appends closed-bin records to a checkpoint file.

    Fresh runs write magic + header then records; resumed runs reopen
    the existing file, truncate any torn tail back to
    ``resume_from.end_offset``, and continue appending.  Every append
    is flushed so a kill loses at most the in-flight record.
    """

    def __init__(
        self,
        path: str,
        fingerprint: dict,
        resume_from: CheckpointState | None = None,
    ) -> None:
        self.path = str(path)
        self.n_appended = 0
        if resume_from is not None:
            self._fh = open(self.path, "r+b")
            self._fh.truncate(resume_from.end_offset)
            self._fh.seek(resume_from.end_offset)
            self._next_bin = resume_from.next_bin if resume_from.bins else None
        else:
            header = json.dumps(
                {"version": _VERSION, "fingerprint": fingerprint},
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
            self._fh = open(self.path, "wb")
            self._fh.write(_MAGIC)
            self._fh.write(_LEN.pack(len(header)))
            self._fh.write(header)
            self._fh.flush()
            #: bin the next append must carry; None until the first
            #: append, which may be any bin
            self._next_bin = None

    def append(self, bin_index: int, payload: bytes | None) -> None:
        """Record one closed bin (``None`` payload = gap bin)."""
        if self._fh is None:
            raise CheckpointError(f"{self.path}: writer already closed")
        if bin_index < 0 or self._next_bin not in (None, bin_index):
            raise CheckpointError(
                f"{self.path}: bins must be appended in order; "
                f"expected bin {self._next_bin}, got {bin_index}"
            )
        if payload is None:
            self._fh.write(_RECORD.pack(bin_index, -1, 0))
        else:
            crc = zlib.crc32(payload) & 0xFFFFFFFF
            self._fh.write(_RECORD.pack(bin_index, len(payload), crc))
            self._fh.write(payload)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._next_bin = bin_index + 1
        self.n_appended += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
