"""Sketch substrate: streaming feature summaries without per-value state.

The paper's related work (Krishnamurthy et al. [22]) detects volume
changes with sketches; the natural follow-up — widely explored after
this paper — is estimating *entropy* from compact summaries so the
multiway method can run on links too fast for exact per-value counts.
This module provides that substrate:

* :class:`CountMinSketch` — the classic conservative-update CM sketch
  over feature values, mergeable across routers.
* :func:`entropy_from_sketch` — plug-in entropy estimate from a
  sketch's heavy hitters plus a uniform-tail correction for the mass
  the sketch cannot resolve.

The estimator is biased low for very flat distributions (the tail
correction assumes the unresolved mass is spread over the remaining
observed distinct count), but tracks exact sample entropy closely on
the heavy-tailed histograms backbone traffic produces — which the
tests assert.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry as tel
from repro.core.entropy import sample_entropy

__all__ = [
    "CountMinSketch",
    "SketchBank",
    "aggregate_histogram",
    "canonical_histogram",
    "entropy_from_sketch",
    "entropy_from_sketch_runs",
    "sketch_histogram",
]

_PRIME = (1 << 61) - 1


_HASH_PARAM_CACHE: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}


def _hash_params(width: int, depth: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (a, b) row-hash coefficients for a (width, depth, seed) geometry.

    Shared by :class:`CountMinSketch` and :class:`SketchBank` so a bank
    slot and a standalone sketch with the same geometry hash identically
    (and therefore merge / compare exactly).  Memoised — a streaming bin
    close materialises thousands of sketches with the same geometry,
    and regenerating the coefficients dominated that path.  Callers
    must treat the arrays as read-only (they only ever hash with them).
    """
    key = (width, depth, seed)
    params = _HASH_PARAM_CACHE.get(key)
    if params is None:
        rng = np.random.default_rng(np.random.SeedSequence([seed, width, depth]))
        a = rng.integers(1, _PRIME, size=depth, dtype=np.int64)
        b = rng.integers(0, _PRIME, size=depth, dtype=np.int64)
        params = _HASH_PARAM_CACHE[key] = (a, b)
    return params


def hash_columns(
    a: np.ndarray, b: np.ndarray, values, width: int
) -> np.ndarray:
    """Count-Min columns, ``(depth, n)`` int64, of ``values`` per row.

    The one hash every sketch path uses (:class:`CountMinSketch` and
    :class:`SketchBank`, hence stream, cluster and quality-grid sketch
    modes).  Row ``r`` maps an int64 value ``v`` to::

        h = a[r] * (v mod p) + b[r]     # int64: wraps modulo 2**64
        column = (h mod p) mod width    # floor mod: both in [0, p)

    with ``p = 2**61 - 1``.  The product ``a[r] * (v mod p)`` (up to
    122 bits) wraps to a signed 64-bit word *before* the ``mod p``, so
    this is not the pairwise-independent family ``(a·v + b) mod p``
    that the Count-Min error bound assumes; it is, bit for bit, what
    every sketch in this repository has always computed.  Whether to
    change it is ROADMAP item 9(4)'s decision: any change moves every
    counter and re-freezes the sketch parity fixture.

    numpy does not vectorise int64 ``%`` (about 7 ns per element) but
    does vectorise floor division by a scalar, so each ``mod`` here is
    ``x - (x // m) * m`` (Python floor semantics, exact under int64
    wrap-around because the true result lies in ``[0, m)``), a
    power-of-two ``width`` is a mask, and the ``v mod p`` pass is
    skipped when every value already lies in ``[0, p)``.
    """
    v = np.asarray(values, dtype=np.int64)
    if v.size and (v.min() < 0 or v.max() >= _PRIME):
        v = v - (v // _PRIME) * _PRIME
    h = np.multiply.outer(a, v)
    h += b[:, None]
    q = h // _PRIME
    q *= _PRIME
    h -= q
    if width & (width - 1) == 0:
        h &= width - 1
    else:
        np.floor_divide(h, width, out=q)
        q *= width
        h -= q
    return h


def aggregate_histogram(
    values: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group a (values, counts) histogram by value (counts summed).

    Returns the input unchanged when all values are already unique.
    """
    values = np.asarray(values, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    uniq, inverse = np.unique(values, return_inverse=True)
    if uniq.size == values.size:
        return values, counts
    agg = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(agg, inverse, counts)
    return uniq, agg


def canonical_histogram(
    values: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group a histogram by value AND sort by value, always.

    Unlike :func:`aggregate_histogram` (which skips the sort when all
    values are already unique), the result is a *canonical form*: any
    two histograms describing the same value->count mapping serialize
    to identical bytes — the form the grouped-reduction kernel's runs
    take, which the kernel tests compare against.
    """
    values = np.asarray(values, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    uniq, inverse = np.unique(values, return_inverse=True)
    agg = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(agg, inverse, counts)
    return uniq, agg


class CountMinSketch:
    """Count-Min sketch with conservative update.

    Values are int64.  Each of the ``depth`` rows hashes a value to a
    column with :func:`hash_columns` — an int64-wrapping variant of
    ``(a·v + b) mod p``, not the pairwise-independent family the
    classic error bound assumes (see there, and ROADMAP item 9(4)).

    Args:
        width: Counters per row (error ~ total/width).
        depth: Independent hash rows (failure prob ~ exp(-depth)).
        seed: Hash-function seed; sketches merge only when their
            (width, depth, seed) agree.
    """

    def __init__(self, width: int = 1024, depth: int = 4, seed: int = 0) -> None:
        if width < 8 or depth < 1:
            raise ValueError("width must be >= 8 and depth >= 1")
        self.width = width
        self.depth = depth
        self.seed = seed
        self._a, self._b = _hash_params(width, depth, seed)
        self.table = np.zeros((depth, width), dtype=np.int64)
        self.total = 0
        self._distinct_estimate: set[int] = set()

    def _rows(self, value: int) -> np.ndarray:
        return self._cols_many([value])[:, 0]

    def add(self, value: int, count: int = 1) -> None:
        """Add ``count`` packets carrying ``value`` (conservative update)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        cols = self._rows(value)
        rows = np.arange(self.depth)
        current = self.table[rows, cols]
        estimate = current.min()
        # Conservative update: only raise counters that would otherwise
        # under-estimate the new value.
        self.table[rows, cols] = np.maximum(current, estimate + count)
        self.total += count
        if len(self._distinct_estimate) < 4 * self.width:
            self._distinct_estimate.add(value % (1 << 30))

    def query(self, value: int) -> int:
        """Point estimate of a value's count (never under-estimates)."""
        cols = self._rows(value)
        return int(self.table[np.arange(self.depth), cols].min())

    def _cols_many(self, values: np.ndarray) -> np.ndarray:
        """Column indices, ``(depth, n)``, for an array of values."""
        return hash_columns(self._a, self._b, values, self.width)

    def add_histogram(self, values: np.ndarray, counts: np.ndarray) -> None:
        """Vectorised bulk add of a (values, counts) histogram.

        Equivalent error guarantees to repeated :meth:`add`: every
        value's counters end at least ``estimate + count``, so point
        queries still never under-estimate.  When two values of the
        batch collide in a cell the cell keeps the larger target
        (a slightly *tighter* counter than sequential conservative
        updates would leave, still never below any true count).
        """
        values = np.asarray(values, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if values.shape != counts.shape or values.ndim != 1:
            raise ValueError("values and counts must be aligned 1-D arrays")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        keep = counts > 0
        if not keep.all():
            values, counts = values[keep], counts[keep]
        if values.size == 0:
            return
        # Aggregate duplicate values first: the conservative update
        # below raises each value's counters to estimate + count *once*,
        # so repeated rows of the same value (routine in record batches)
        # would otherwise leave the counter at a single row's count.
        values, counts = aggregate_histogram(values, counts)
        cols = self._cols_many(values)
        estimates = self.table[np.arange(self.depth)[:, None], cols].min(axis=0)
        targets = estimates + counts
        for r in range(self.depth):
            np.maximum.at(self.table[r], cols[r], targets)
        self.total += int(counts.sum())
        if len(self._distinct_estimate) < 4 * self.width:
            self._distinct_estimate.update(
                int(v) for v in (values % (1 << 30))[: 4 * self.width]
            )

    def query_many(self, values: np.ndarray) -> np.ndarray:
        """Vectorised point estimates for an array of values."""
        values = np.asarray(values, dtype=np.int64)
        if values.size == 0:
            return np.zeros(0, dtype=np.int64)
        cols = self._cols_many(values)
        return self.table[np.arange(self.depth)[:, None], cols].min(axis=0)

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Merge two sketches built with identical parameters."""
        if (self.width, self.depth, self.seed) != (other.width, other.depth, other.seed):
            raise ValueError("sketches are not mergeable (parameter mismatch)")
        merged = CountMinSketch(self.width, self.depth, self.seed)
        merged.table = self.table + other.table
        merged.total = self.total + other.total
        merged._distinct_estimate = self._distinct_estimate | other._distinct_estimate
        return merged

    @property
    def n_distinct_seen(self) -> int:
        """(Capped) number of distinct values observed."""
        return len(self._distinct_estimate)

    def to_bytes(self) -> bytes:
        """Serialize the counter state to a compact little-endian blob.

        The payload carries (width, depth, seed, total, table); the
        distinct-value scratch set is *not* serialized — it only backs
        the advisory :attr:`n_distinct_seen`, and shard deployments
        track candidate values outside the sketch (see
        :mod:`repro.cluster.summary`).
        """
        header = np.array(
            [self.width, self.depth, self.seed, self.total], dtype="<i8"
        )
        return header.tobytes() + self.table.astype("<i8", copy=False).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "CountMinSketch":
        """Rebuild a sketch serialized by :meth:`to_bytes`."""
        header = np.frombuffer(data[:32], dtype="<i8")
        width, depth, seed, total = (int(x) for x in header)
        sketch = cls(width=width, depth=depth, seed=seed)
        table = np.frombuffer(data[32:], dtype="<i8")
        if table.size != depth * width:
            raise ValueError("truncated CountMinSketch payload")
        sketch.table = table.reshape(depth, width).astype(np.int64)
        sketch.total = total
        return sketch


class SketchBank:
    """Many Count-Min sketches updated as one batched array operation.

    The streaming stage keeps one sketch per (OD flow, feature);
    updating them one at a time costs a Python call per OD per chunk.
    A bank holds all of a feature's per-group sketches in a single
    counter array sharing one set of hash coefficients, so a whole
    chunk's grouped runs — any number of groups — update in one
    gather / scatter pass.  The array is allocated once and reused:
    :meth:`reset` forgets every group by zeroing only the cells written
    since the previous reset.

    The layout is value-major, ``(depth, width, n_groups)``: a group id
    is its slot, and the cell of (group ``g``, row ``r``, value ``v``)
    is ``(r * width + h_r(v)) * n_groups + g``.  Every group hashes a
    value to the same columns, so one value's counters for every group
    sit side by side — a value seen by many ODs in one chunk touches a
    few cache lines, not one per OD.

    Per-group semantics are *identical* to calling
    :meth:`CountMinSketch.add_histogram` once per group with that
    group's aggregated (values, counts): estimates are read before any
    of the batch's updates land, every value's counters are raised to
    ``estimate + count``, and groups never share counters (distinct
    slots), so point queries still never under-estimate.  A group not
    updated since the last reset reads as zero counters and total.
    """

    def __init__(
        self, n_groups: int, width: int = 1024, depth: int = 4, seed: int = 0
    ) -> None:
        if width < 8 or depth < 1:
            raise ValueError("width must be >= 8 and depth >= 1")
        if n_groups < 0:
            raise ValueError("n_groups must be >= 0")
        self.n_groups = n_groups
        self.width = width
        self.depth = depth
        self.seed = seed
        self._a, self._b = _hash_params(width, depth, seed)
        self.tables = np.zeros((depth, width, n_groups), dtype=np.int64)
        self.totals = np.zeros(n_groups, dtype=np.int64)
        #: flat cell indices written since the last reset; ``None`` once
        #: they outnumber the cells themselves (reset then clears the
        #: tables densely, so the list never outgrows the tables).
        self._dirty: list[np.ndarray] | None = []
        self._n_dirty = 0
        #: the last update's ``(group_ids, starts, values)`` arguments and
        #: their cells.  A (group, value) cell never moves, and bin close
        #: usually probes the very runs of the bin's only chunk (the
        #: accumulator's candidate store *is* those arrays, never
        #: written), so :meth:`query_runs` given the same array objects
        #: reuses the cells instead of hashing again.
        self._last: tuple | None = None

    def reset(self) -> None:
        """Forget every group, keeping the allocated counters for reuse."""
        if self._dirty is None:
            self.tables[...] = 0
        else:
            flat_tables = self.tables.reshape(-1)
            for cells in self._dirty:
                flat_tables[cells] = 0
        self._dirty, self._n_dirty = [], 0
        self.totals[...] = 0

    def _check(self, group_ids) -> np.ndarray:
        """``group_ids`` as int64, refusing ids outside ``[0, n_groups)``
        (direct slot indexing would wrap or alias another group)."""
        group_ids = np.asarray(group_ids, dtype=np.int64)
        if len(group_ids) and (
            group_ids.min() < 0 or group_ids.max() >= self.n_groups
        ):
            bad = group_ids[(group_ids < 0) | (group_ids >= self.n_groups)][0]
            raise ValueError(
                f"group id {int(bad)} outside [0, {self.n_groups})"
            )
        return group_ids

    def _cells(self, group_ids: np.ndarray, starts, values) -> np.ndarray:
        """Flat ``tables`` indices, ``(depth, n)``, of every value's
        counters in its group's slot (CSR runs layout)."""
        starts = np.asarray(starts, dtype=np.int64)
        flat = hash_columns(self._a, self._b, values, self.width)
        flat += np.arange(0, self.depth * self.width, self.width)[:, None]
        flat *= self.n_groups
        flat += np.repeat(group_ids, starts[1:] - starts[:-1])
        return flat

    def update(
        self, group_ids: np.ndarray, starts: np.ndarray,
        values: np.ndarray, counts: np.ndarray,
    ) -> None:
        """Conservative-update all groups of one chunk in one pass.

        Args take the :class:`repro.kernels.GroupedRuns` layout (CSR
        runs over distinct, non-empty groups, duplicates already
        aggregated per (group, value) and counts positive); pass
        ``runs.group_ids, runs.starts, runs.values, runs.counts``
        directly.  Group ids must lie in ``[0, n_groups)``
        (``ValueError`` otherwise, before any counter changes).
        """
        args = (group_ids, starts, values)
        group_ids = self._check(group_ids)
        if len(values) == 0:
            return
        with tel.span("sketch.update"):
            flat = self._cells(group_ids, starts, values)
            self._last = (*args, flat)
            flat_tables = self.tables.reshape(-1)
            gathered = flat_tables[flat]
            estimates = gathered.min(axis=0)
            targets = estimates + counts
            # Scatter-max without ``np.maximum.at`` (a per-element ufunc
            # loop, by far the hottest line of sketch mode): the write
            # value already folds in the existing counter, so a plain
            # fancy-index store is correct wherever ``flat`` is unique.
            # Duplicate indices (two values hashing to one counter in
            # the same batch) are rare; the re-gather catches exactly
            # the writes a larger duplicate clobbered and repairs those
            # few with the slow path.  Final counters are identical to
            # ``np.maximum.at``: max(previous, every target landing
            # there).
            flat_1d = flat.reshape(-1)
            write = np.maximum(gathered, targets[None, :]).reshape(-1)
            flat_tables[flat_1d] = write
            clobbered = np.flatnonzero(flat_tables[flat_1d] < write)
            if len(clobbered):
                np.maximum.at(flat_tables, flat_1d[clobbered], write[clobbered])
            if self._dirty is not None:
                self._dirty.append(flat_1d)
                self._n_dirty += len(flat_1d)
                if self._n_dirty > self.tables.size:
                    self._dirty = None
            if tel.enabled():
                # A row whose counter exceeds the min estimate is shared
                # with some other (group, value): a hash collision the
                # conservative update is skipping.  Counting them makes
                # sketch-width sizing observable instead of guesswork.
                tel.count("sketch.updates", len(values))
                tel.count("sketch.collisions",
                          int((gathered > estimates[None, :]).sum()))
            self.totals[group_ids] += np.add.reduceat(
                np.asarray(counts, dtype=np.int64), starts[:-1]
            )

    def query_runs(
        self, group_ids: np.ndarray, starts: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched point estimates across groups (CSR runs layout).

        ``values[starts[i]:starts[i+1]]`` are probed against group
        ``group_ids[i]``'s sketch; returns ``(estimates, totals)`` —
        per-value estimates plus each group's total.  One gather
        replaces a :meth:`CountMinSketch.query_many` call per group.
        """
        last = self._last
        reuse = last is not None and (
            last[0] is group_ids and last[1] is starts and last[2] is values
        )
        group_ids = self._check(group_ids)
        totals = self.totals[group_ids]
        if len(values) == 0:
            return np.zeros(0, dtype=np.int64), totals
        flat = last[3] if reuse else self._cells(group_ids, starts, values)
        return self.tables.reshape(-1)[flat].min(axis=0), totals

    def sketches(self, group_ids: np.ndarray) -> list[CountMinSketch]:
        """The groups' states as standalone :class:`CountMinSketch`
        objects, each with a contiguous ``(depth, width)`` table.  The
        tables are copied out in one gather plus one transpose, so they
        stay valid across later updates and resets."""
        group_ids = self._check(group_ids)
        per_group = np.ascontiguousarray(
            self.tables.reshape(-1, self.n_groups)[:, group_ids].T
        ).reshape(len(group_ids), self.depth, self.width)
        out = []
        for table, total in zip(per_group, self.totals[group_ids].tolist()):
            sketch = CountMinSketch(width=self.width, depth=self.depth, seed=self.seed)
            sketch.table = table
            sketch.total = total
            out.append(sketch)
        return out


def sketch_histogram(
    values: np.ndarray,
    counts: np.ndarray,
    width: int = 1024,
    depth: int = 4,
    seed: int = 0,
) -> CountMinSketch:
    """Build a sketch from a (values, counts) histogram."""
    values = np.asarray(values)
    counts = np.asarray(counts)
    if values.shape != counts.shape:
        raise ValueError("values and counts must align")
    sketch = CountMinSketch(width=width, depth=depth, seed=seed)
    sketch.add_histogram(values, counts)
    return sketch


def entropy_from_sketch(
    sketch: CountMinSketch,
    candidate_values: np.ndarray,
    heavy_fraction: float = 0.001,
) -> float:
    """Estimate sample entropy from a sketch.

    Args:
        sketch: The populated sketch.
        candidate_values: Values to probe as potential heavy hitters
            (in a router deployment this is the tracked-key set; here,
            the feature values that appeared in the bin).
        heavy_fraction: Values whose estimated share exceeds this are
            treated exactly; the rest form the uniform-corrected tail.

    Returns:
        Estimated entropy in bits.
    """
    total = sketch.total
    if total == 0:
        return 0.0
    candidate_values = np.asarray(candidate_values)
    estimates = sketch.query_many(candidate_values).astype(np.float64)
    threshold = max(heavy_fraction * total, 1.0)
    heavy = estimates[estimates >= threshold]
    heavy_mass = min(heavy.sum(), total)
    tail_mass = total - heavy_mass
    tail_values = max(len(candidate_values) - len(heavy), 1)

    p_heavy = heavy[heavy > 0] / total
    entropy = float(-(p_heavy * np.log2(p_heavy)).sum()) if p_heavy.size else 0.0
    if tail_mass > 0:
        p_tail = tail_mass / total / tail_values
        entropy -= tail_values * p_tail * np.log2(p_tail)
    return float(max(entropy, 0.0))


def entropy_from_sketch_runs(
    estimates: np.ndarray,
    totals: np.ndarray,
    starts: np.ndarray,
    heavy_fraction: float = 0.001,
) -> np.ndarray:
    """Vectorised :func:`entropy_from_sketch` over many groups at once.

    ``estimates[starts[i]:starts[i+1]]`` are group ``i``'s candidate
    estimates (as returned by :meth:`SketchBank.query_runs`) and
    ``totals[i]`` its sketch total.  Applies the same heavy-hitter +
    uniform-tail estimator per group in one pass; groups with zero
    total get entropy 0.
    """
    from repro.kernels import segment_sums

    estimates = np.asarray(estimates, dtype=np.float64)
    totals = np.asarray(totals, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.diff(starts)
    safe_totals = np.where(totals > 0, totals, 1.0)
    threshold = np.maximum(heavy_fraction * totals, 1.0)
    per_element_total = np.repeat(safe_totals, lengths)
    heavy = estimates >= np.repeat(threshold, lengths)
    heavy_sum = segment_sums(np.where(heavy, estimates, 0.0), starts)
    heavy_count = segment_sums(heavy.astype(np.float64), starts)
    heavy_mass = np.minimum(heavy_sum, totals)
    tail_mass = totals - heavy_mass
    tail_values = np.maximum(lengths - heavy_count, 1.0)

    p = estimates / per_element_total
    contributing = heavy & (estimates > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(
            contributing, p * np.log2(np.where(p > 0, p, 1.0)), 0.0
        )
        entropy = -segment_sums(terms, starts)
        p_tail = np.where(
            tail_mass > 0, tail_mass / safe_totals / tail_values, 1.0
        )
        entropy -= np.where(
            tail_mass > 0, tail_values * p_tail * np.log2(p_tail), 0.0
        )
    entropy = np.maximum(entropy, 0.0)
    entropy[totals <= 0] = 0.0
    return entropy


def exact_vs_sketch_error(
    counts: np.ndarray, width: int = 1024, seed: int = 0
) -> float:
    """|exact - sketch| entropy error for a histogram (testing helper)."""
    counts = np.asarray(counts, dtype=np.int64)
    values = np.arange(len(counts)) * 2654435761 % (1 << 31)  # spread keys
    sketch = sketch_histogram(values, counts, width=width, seed=seed)
    return abs(sample_entropy(counts) - entropy_from_sketch(sketch, values))
