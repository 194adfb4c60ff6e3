#!/usr/bin/env python
"""Mutation gate: every listed code mutation must fail a named test.

A test suite that still passes when the code is wrong proves nothing
about that code.  Each row of :data:`MUTANTS` names one deliberate bug
— an exact ``original`` snippet of a file under the repository and the
``mutated`` text that replaces it — together with the test node ids
expected to *kill* it (fail).  The gate:

1. copies the repository (minus ``.git`` and build/run leftovers) to a
   temporary directory and runs the union of all named tests there
   unmutated — they must pass, or the table is broken;
2. for each mutant, checks that ``original`` occurs exactly once in its
   file (a snippet that no longer matches means the code moved and the
   table must move with it), writes the mutated file, runs only that
   mutant's tests, and restores the file;
3. exits 1 if any mutant survives, if any snippet no longer matches,
   or if a mutant listed as ``expected: survives`` is now killed (the
   table is stale: promote it), and 0 otherwise.

A survivor nobody kills yet is a finding, not a failure, when its row
says so: ``expected`` names the open work that will kill it.

Usage (from the repository root, stdlib only)::

    python tools/mutants.py              # the whole table
    python tools/mutants.py --list       # names, files and killers
    python tools/mutants.py --only NAME  # one mutant (repeatable)

Hypothesis runs with a fixed seed, so a kill does not depend on the
draw of the day.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Left out of the temporary copy: history, caches and run outputs.
_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis",
    "*.egg-info", "out", "htmlcov", ".coverage",
)

_PYTEST = ("-q", "-x", "-p", "no:cacheprovider", "-W", "error::RuntimeWarning",
           "--hypothesis-seed=0")


@dataclass(frozen=True)
class Mutant:
    """One deliberate bug and the tests that must catch it."""

    name: str
    file: str
    original: str
    mutated: str
    tests: tuple[str, ...]
    #: ``"killed"``, or ``"survives: <the open work that will kill it>"``.
    expected: str = "killed"


_ONLINE = "src/repro/core/online.py"
_SKETCHES = "src/repro/flows/sketches.py"
_ROUTING = "src/repro/net/routing.py"
_WINDOW = "src/repro/stream/window.py"
_GROUPED = "src/repro/kernels/grouped.py"
_REPLAY = "src/repro/stream/replay.py"
_SHARD = "src/repro/cluster/shard.py"

_TIME_SHIFT = "tests/test_metamorphic.py::test_bin_aligned_time_shift_keeps_verdicts"
_DRIFT = "tests/test_online_drift.py::TestDriftCounter"
_STALE = ("tests/test_kernels.py::TestSketchBankEquivalence::"
          "test_query_of_the_updated_runs_reuses_nothing_stale")
_NESTED = "tests/test_topology_routing.py::TestDirectTable::test_longer_prefixes_share_a_slash16"
_BAD_POP = ("tests/test_stream.py::TestStreamFeatureStage::"
            "test_bad_ingress_pop_loses_no_earlier_bin")
_SHARD_PARITY = ("tests/test_shard_summaries.py::"
                 "test_stored_run_ids_ship_what_the_record_path_ships")
#: deterministic, so they run (and kill) before the hypothesis property
_GAP_IDLE = "tests/test_shard_summaries.py::test_gap_bins_zero_packets_and_an_idle_shard"
_MISSED_RUNS = ("tests/test_shard_summaries.py::"
                "test_derived_runs_drop_the_runs_a_shards_rows_miss")
_CLUSTER_ROWS = ("tests/test_shard_summaries.py::"
                 "test_cluster_rows_are_stream_rows_with_gaps_and_an_idle_shard")
_SEED_EXACT = ("tests/test_kernels.py::TestSeedDetectionByteEquality::"
               "test_exact_mode_reproduces_seed_output")
_MULTIWAY = "src/repro/core/multiway.py"
_IDENTIFY = "src/repro/core/identification.py"
_SUMMARY = "src/repro/cluster/summary.py"
_NORMALIZE = "tests/test_multiway.py::TestNormalization"
_IDENTIFY_LOOP = "tests/test_identification.py::TestBatchedSolve::test_matches_per_od_loop"
_IDENTIFY_UNIT = "tests/test_identification.py::TestIdentifyFlows"
_GRAM = ("tests/test_identification.py::TestBatchedSolve::"
         "test_gram_blocks_match_per_od_normal_equations")
_ROWS = "tests/test_cluster_summary.py::TestRows::test_block_scatters_back_to_the_finalized_bin"
_FOREIGN_OD = "tests/test_cluster_summary.py::TestScatter::test_a_block_with_a_foreign_od_is_refused"
_OD_ORDER = "tests/test_cluster_summary.py::TestHostilePayloads::test_out_of_order_ods_are_named"
_OTHER_HEADERS = ("tests/test_trace_precompute.py::TestTraceV2Format::"
                  "test_other_headers_are_refused_at_open")
_TRUNCATED_TAIL = ("tests/test_trace_precompute.py::TestTraceV2Format::"
                   "test_truncated_tail_replays_its_records")
_TRANSPORT = "src/repro/cluster/transport.py"
_LINKS = "tests/test_cluster_net.py::TestWorkerLinks"
_SUBSPACE = "src/repro/core/subspace.py"
_Q_THRESHOLD = "tests/test_subspace.py::TestQThreshold"
_CLOSURE = "tests/test_packaging.py::test_detection_imports_neither_scipy_nor_networkx"
#: the paper scorecard: each figure's rows, run as one pytest test
_CLAIMS = "benchmarks/paper_claims.py"

MUTANTS: tuple[Mutant, ...] = (
    # -- the sliding subspace core (refit cadence and drift reset) ------
    Mutant(
        "refit-cadence-ge-to-gt", _ONLINE,
        "self._since_refit >= self.refit_every",
        "self._since_refit > self.refit_every",
        (_TIME_SHIFT + "[1-1-2]", _TIME_SHIFT + "[2-2-4]"),
    ),
    Mutant(
        "fit-keeps-since-refit", _ONLINE,
        "                self._threshold, float(self.calibration_margin * window_spe.max())\n"
        "            )\n"
        "        self._since_refit = 0\n",
        "                self._threshold, float(self.calibration_margin * window_spe.max())\n"
        "            )\n",
        (_TIME_SHIFT + "[2-2-4]", _TIME_SHIFT + "[3-12-3]"),
    ),
    Mutant(
        "drift-counter-kept-after-reset", _ONLINE,
        "                return\n"
        "            self._consecutive_hits = 0\n",
        "                return\n",
        (_DRIFT,),
    ),
    Mutant(
        "drift-reset-lt-to-le", _ONLINE,
        "self._consecutive_hits < self.drift_reset_after",
        "self._consecutive_hits <= self.drift_reset_after",
        (_DRIFT,),
    ),
    # -- the value-major Count-Min bank --------------------------------
    Mutant(
        "sketch-query-next-slot", _SKETCHES,
        "flat = last[3] if reuse else self._cells(group_ids, starts, values)",
        "flat = self._cells((group_ids + 1) % self.n_groups, starts, values)",
        (_STALE,),
    ),
    Mutant(
        "sketch-cells-stride-minus-one", _SKETCHES,
        "        flat *= self.n_groups\n",
        "        flat *= self.n_groups - 1\n",
        (_STALE,),
    ),
    Mutant(
        "sketch-reuse-keyed-on-length", _SKETCHES,
        "last[0] is group_ids and last[1] is starts and last[2] is values",
        "len(last[0]) == len(group_ids) and len(last[2]) == len(values)",
        (_STALE,),
    ),
    # -- direct-indexed longest-prefix match ---------------------------
    Mutant(
        "lpm-expansion-drops-last-slot", _ROUTING,
        "span = np.arange(1 << bits, dtype=np.int64)",
        "span = np.arange((1 << bits) - 1, dtype=np.int64)",
        (_NESTED,),
    ),
    Mutant(
        "lpm-longest-prefix-first", _ROUTING,
        "            for length in sorted(self._tables):\n",
        "            for length in sorted(self._tables, reverse=True):\n",
        (_NESTED,),
    ),
    Mutant(
        "lpm-level2-overlay-skipped", _ROUTING,
        "flat[slots] = ids\n",
        "flat[slots] = flat[slots]\n",
        (_NESTED,),
    ),
    Mutant(
        "lpm-range-check-gt-to-ge", _ROUTING,
        "arr.max() > _MAX_IP):",
        "arr.max() >= _MAX_IP):",
        ("tests/test_topology_routing.py::TestRouter::test_address_range_ends_are_routed",),
    ),
    # -- the stage's bin split and OD range check ----------------------
    Mutant(
        "stage-split-boundary-minus-one", _WINDOW,
        "np.flatnonzero(idx[1:] != idx[:-1]) + 1",
        "np.flatnonzero(idx[1:] != idx[:-1])",
        (_BAD_POP,),
    ),
    Mutant(
        "stage-checks-ods-after-split", _WINDOW,
        "            # Checked before any bin closes, so a bad id loses nothing.\n"
        "            _check_ods(ods, self.topology.n_od_flows)\n",
        "",
        (_BAD_POP,),
    ),
    Mutant(
        "od-range-check-ge-to-gt", _WINDOW,
        "ods.max() >= p):",
        "ods.max() > p):",
        ("tests/test_stream_sketch.py::TestODRange",),
    ),
    # -- the grouped-reduction kernel ----------------------------------
    Mutant(
        "kernel-run-key-shift", _GROUPED,
        "gv = key >> wb\n",
        "gv = key >> (wb - 1)\n",
        (_SEED_EXACT,),
    ),
    Mutant(
        # Exact verdicts are invariant to a uniform scale of every
        # entropy.  The exact fixture's pinned SPEs see it only on bits:
        # unit-energy normalisation cancels the scale up to 1-3 ulp.
        # The entropy-valued test sees it on meaning.
        "entropy-fast-path-natural-log", _GROUPED,
        "return -np.add.reduceat(p * np.log2(p), seg_starts)",
        "return -np.add.reduceat(p * np.log(p), seg_starts)",
        ("tests/test_stream.py::TestBinAccumulator::test_exact_mode_matches_feature_histograms",
         _SEED_EXACT),
    ),
    # -- exact shards over a trace: runs from the stored run ids ---------
    Mutant(
        "stored-runs-keep-zero-counts", _REPLAY,
        "    if not counts.all():\n",
        "    if False:\n",
        (_MISSED_RUNS, _SHARD_PARITY),
    ),
    Mutant(
        "stored-runs-start-at-trace-first-bin", _SHARD,
        "    for i in range(int(nonempty[0]), int(nonempty[-1]) + 1):\n",
        "    for i in range(int(np.flatnonzero(np.diff(offsets))[0]), int(nonempty[-1]) + 1):\n",
        (_GAP_IDLE, _SHARD_PARITY),
    ),
    # -- unit-energy normalisation of the unfolded entropy matrix -------
    Mutant(
        "normalize-energy-not-centred", _MULTIWAY,
        "            energy = np.linalg.norm(block - block.mean(axis=0))\n",
        "            energy = np.linalg.norm(block)\n",
        (_NORMALIZE,),
    ),
    Mutant(
        "normalize-divides-zero-energy", _MULTIWAY,
        "        if energy > 0:\n            block /= energy\n",
        "        if energy >= 0:\n            block /= energy\n",
        (_NORMALIZE,),
    ),
    Mutant(
        "normalize-scale-not-recorded", _MULTIWAY,
        "            scales[j] = energy\n",
        "            scales[j] = 1.0\n",
        (_NORMALIZE,),
    ),
    Mutant(
        "normalize-block-short-by-one", _MULTIWAY,
        "        block = out[:, j * n_od_flows : (j + 1) * n_od_flows]\n",
        "        block = out[:, j * n_od_flows : (j + 1) * n_od_flows - 1]\n",
        (_NORMALIZE,),
    ),
    # -- greedy OD-flow identification and its per-OD Gram blocks --------
    Mutant(
        "identify-picks-worst-flow", _IDENTIFY,
        "        best = int(np.argmin(remaining))\n",
        "        best = int(np.argmax(remaining))\n",
        (_IDENTIFY_LOOP, _IDENTIFY_UNIT),
    ),
    Mutant(
        "identify-adds-the-displacement", _IDENTIFY,
        "        current[theta_columns(od, p)] -= f[best]\n",
        "        current[theta_columns(od, p)] += f[best]\n",
        (_IDENTIFY_LOOP, _IDENTIFY_UNIT),
    ),
    Mutant(
        "identify-keeps-found-flow-live", _IDENTIFY,
        "        live = live[live != od]\n",
        "",
        (_IDENTIFY_LOOP,),
    ),
    Mutant(
        "gram-adds-the-projection", _IDENTIFY,
        "    gram = np.eye(N_FEATURES) - blocks @ blocks.transpose(0, 2, 1)\n",
        "    gram = np.eye(N_FEATURES) + blocks @ blocks.transpose(0, 2, 1)\n",
        (_GRAM, _IDENTIFY_LOOP),
    ),
    Mutant(
        "gram-blocks-od-major", _IDENTIFY,
        "    blocks = P.reshape(N_FEATURES, n_od_flows, -1).transpose(1, 0, 2)\n",
        "    blocks = P.reshape(n_od_flows, N_FEATURES, -1)\n",
        (_GRAM, _IDENTIFY_LOOP),
    ),
    # -- the row block and the coordinator's scatter --------------------
    Mutant(
        "scatter-skips-the-ownership-check", _SUMMARY,
        "        if foreign.any():\n",
        "        if False:\n",
        (_FOREIGN_OD,),
    ),
    Mutant(
        "scatter-entropy-one-od-off", _SUMMARY,
        "        entropy[self.ods] = self.entropy\n",
        "        entropy[(self.ods + 1) % p] = self.entropy\n",
        (_ROWS, _CLUSTER_ROWS),
    ),
    Mutant(
        "scatter-records-of-the-first-only", _SUMMARY,
        "        rows(\"packets\"), rows(\"bytes\"), sum(s.n_records for s in summaries),\n",
        "        rows(\"packets\"), rows(\"bytes\"), first.n_records,\n",
        (_CLUSTER_ROWS,),
    ),
    Mutant(
        "row-block-skips-the-od-order-check", _SUMMARY,
        "        check((ods[1:] > ods[:-1]).all(), \"OD ids out of order\")\n",
        "        check(True, \"OD ids out of order\")\n",
        (_OD_ORDER,),
    ),
    # -- the one trace format ----------------------------------------------
    Mutant(
        "trace-opens-any-version", "src/repro/io/trace.py",
        "    if version != FORMAT_VERSION:\n",
        "    if False:\n",
        (_OTHER_HEADERS,),
    ),
    Mutant(
        "check-derived-passes-truncated-tail", _REPLAY,
        "    if info.truncated:\n        raise TraceError(\n",
        "    if False:\n        raise TraceError(\n",
        (_TRUNCATED_TAIL,),
    ),
    # -- the one worker link ---------------------------------------------
    Mutant(
        "frame-buffer-keeps-first-frame", _TRANSPORT,
        "            frames.append((header, raw[head_len:]))\n",
        "            if not frames:\n"
        "                frames.append((header, raw[head_len:]))\n",
        ("tests/test_cluster_net.py::TestFrameCodec::"
         "test_reassembly_is_fragmentation_invariant",),
    ),
    Mutant(
        "link-reports-eof-before-buffered-frames", _TRANSPORT,
        "                messages.append((\"eof\", unit_id, self._reap(unit_id)))\n",
        "                messages.insert(0, (\"eof\", unit_id, self._reap(unit_id)))\n",
        (_LINKS + "::test_frames_sent_before_exit_arrive_ahead_of_eof",),
    ),
    Mutant(
        "frame-error-drops-the-frames-ahead-of-it", _TRANSPORT,
        "            frames, error = self._buffers[unit_id].feed(data)\n"
        "            try:\n",
        "            frames, error = self._buffers[unit_id].feed(data)\n"
        "            try:\n"
        "                if error is not None:\n"
        "                    raise error\n",
        (_LINKS + "::test_frames_ahead_of_garbage_reach_the_supervisor_first",),
    ),
    Mutant(
        "discard-leaves-the-link-registered", _TRANSPORT,
        "        \"\"\"Sever the unit's link and terminate its local process.\"\"\"\n"
        "        self._drop(unit_id)\n",
        "        \"\"\"Sever the unit's link and terminate its local process.\"\"\"\n",
        (_LINKS + "::test_discard_severs_the_link",),
    ),
    # -- the paper scorecard: one mutant per figure that only its rows
    # -- kill (no tier-1 test runs these experiments) --------------------
    Mutant(
        "table3-entropy-additional-counts-volume-bins",
        "src/repro/experiments/table3_breakdown.py",
        "e.bin in entropy_bins and e.bin not in volume_bins",
        "e.bin in entropy_bins and e.bin in volume_bins",
        (_CLAIMS + "::test_table3",),
    ),
    Mutant(
        "fig5-combined-rate-counts-volume-only",
        "src/repro/experiments/fig5_detection_rate.py",
        "outcomes[alpha][1] += out.detected_any",
        "outcomes[alpha][1] += out.detected_volume",
        (_CLAIMS + "::test_fig5",),
    ),
    Mutant(
        "fig7-one-cluster-short",
        "src/repro/experiments/fig7_known_clusters.py",
        "hierarchical(points, k=len(_TYPES), linkage=linkage)",
        "hierarchical(points, k=len(_TYPES) - 1, linkage=linkage)",
        (_CLAIMS + "::test_fig7",),
    ),
    # -- the threshold ---------------------------------------------------
    Mutant(
        # A 10 % error in Q_alpha flips a verdict of the exact fixture.
        "q-threshold-times-1.1", _SUBSPACE,
        "    return float(scale * phi1 * term ** (1.0 / h0))\n",
        "    return 1.1 * float(scale * phi1 * term ** (1.0 / h0))\n",
        (_SEED_EXACT,),
    ),
    Mutant(
        # The same mutation against the threshold's own unit tests: the
        # chi-square and Monte Carlo cases pin Q_alpha's value to 5 %.
        "q-threshold-times-1.1-unit-tests", _SUBSPACE,
        "    return float(scale * phi1 * term ** (1.0 / h0))\n",
        "    return 1.1 * float(scale * phi1 * term ** (1.0 / h0))\n",
        (_Q_THRESHOLD,),
    ),
    Mutant(
        "c-alpha-two-sided", _SUBSPACE,
        "    c_alpha = NormalDist().inv_cdf(alpha)\n",
        "    c_alpha = NormalDist().inv_cdf((1 + alpha) / 2)\n",
        (_Q_THRESHOLD,),
    ),
    # -- the import closure: detection loads neither scipy nor networkx --
    Mutant(
        "subspace-imports-scipy-stats", _SUBSPACE,
        "from statistics import NormalDist\n",
        "from statistics import NormalDist\n\nimport scipy.stats  # noqa: F401\n",
        (_CLOSURE,),
    ),
    Mutant(
        "topology-imports-networkx", "src/repro/net/topology.py",
        "from functools import cached_property\n",
        "from functools import cached_property\n\nimport networkx  # noqa: F401\n",
        (_CLOSURE,),
    ),
)


def _pytest(workdir: Path, tests) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *_PYTEST, *tests],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


def _tail(output: str, lines: int = 15) -> str:
    return "\n".join("    " + line for line in output.strip().splitlines()[-lines:])


def run(mutants) -> int:
    """Apply and test each mutant; return the process exit status."""
    failures = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        workdir = Path(tmp) / "repo"
        shutil.copytree(REPO_ROOT, workdir, ignore=_IGNORE)
        killers = sorted({t for m in mutants for t in m.tests})
        t0 = time.perf_counter()
        code, output = _pytest(workdir, killers)
        if code != 0:
            print(f"unmutated tests fail (pytest exit {code}):\n{_tail(output)}")
            return 1
        print(f"baseline: {len(killers)} test ids pass unmutated "
              f"({time.perf_counter() - t0:.1f} s)")
        for m in mutants:
            path = workdir / m.file
            source = path.read_text(encoding="utf-8")
            hits = source.count(m.original)
            if hits != 1:
                failures.append(m.name)
                print(f"STALE     {m.name}: snippet found {hits} times in {m.file}")
                continue
            path.write_text(source.replace(m.original, m.mutated), encoding="utf-8")
            t0 = time.perf_counter()
            try:
                code, output = _pytest(workdir, m.tests)
            finally:
                path.write_text(source, encoding="utf-8")
            took = time.perf_counter() - t0
            survives = code == 0
            want_survivor = m.expected.startswith("survives")
            if survives and want_survivor:
                print(f"SURVIVES  {m.name} ({took:.1f} s), as listed — {m.expected}")
            elif survives:
                failures.append(m.name)
                print(f"SURVIVED  {m.name} ({took:.1f} s): {', '.join(m.tests)} "
                      "still pass")
            elif want_survivor:
                failures.append(m.name)
                print(f"KILLED    {m.name} ({took:.1f} s), listed as a survivor: "
                      "promote it to expected killed\n" + _tail(output, 5))
            else:
                print(f"killed    {m.name} ({took:.1f} s)")
    if failures:
        print(f"{len(failures)} of {len(mutants)} mutants fail the gate: "
              + ", ".join(failures))
        return 1
    print(f"all {len(mutants)} mutants as expected")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print the table and exit")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only this mutant (repeatable)")
    args = parser.parse_args(argv)
    mutants = MUTANTS
    if args.only:
        unknown = set(args.only) - {m.name for m in MUTANTS}
        if unknown:
            parser.error(f"unknown mutant(s): {', '.join(sorted(unknown))}")
        mutants = tuple(m for m in MUTANTS if m.name in args.only)
    if args.list:
        for m in mutants:
            print(f"{m.name}  [{m.file}]  {m.expected}")
            for test in m.tests:
                print(f"    {test}")
        return 0
    return run(mutants)


if __name__ == "__main__":
    sys.exit(main())
