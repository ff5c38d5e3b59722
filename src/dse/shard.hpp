// The design-space sweep driver (docs/ROBUSTNESS.md).
//
// run_sweep() is the one driver behind every DSE front end: dse::explore()
// is run_sweep() with no journal and a single attempt per point, and the
// `mnsim_cli --dse` / `mnsim_cli sweep` paths call it directly. Around
// the evaluate_design() kernel it adds the machinery a Table-6-scale
// sweep needs:
//
//   * deterministic sharding — the enumerated space is partitioned by
//     global index stride (point i belongs to shard i mod N), so any
//     shard's work list is reproducible by construction and N shards
//     cover the space disjointly;
//   * checkpointing — every completed point is appended, fsync'd, to
//     the journal (dse/checkpoint) the moment it finishes;
//   * resume — a restarted shard replays completed points from the
//     journal (after fingerprint/shard validation) and evaluates only
//     the remainder, yielding a result bit-identical to an
//     uninterrupted run;
//   * watchdog — a per-point deadline enforced by cooperative
//     cancellation (util/cancel) polled inside the CG/LU/Newton
//     ladder: an expired point is recorded failed-with-timeout instead
//     of hanging the sweep forever;
//   * bounded retry, then quarantine — a failing point is retried up to
//     Max_Attempts times, then isolated with its failure category
//     (check / numeric / timeout) while the rest of the sweep runs on;
//   * one circuit memo per call (arch/circuit_check_memo.hpp) — the
//     points' banks repeat the same fault estimates and fault circuit
//     checks, so each distinct one is computed once and shared by the
//     workers. Records are bit-identical to memo-free evaluate_design
//     calls; the memo's sizes are published as the
//     dse.sweep.distinct_circuits / dse.sweep.distinct_fault_inputs
//     counters.
//
// merge_checkpoints() combines N shard journals into one
// ExplorationResult bit-identical to a single-process run — the seam
// that later turns into distributed workers behind `mnsim serve`.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "dse/checkpoint.hpp"
#include "dse/explorer.hpp"

namespace mnsim::dse {

// `--shard i/N`: this process evaluates global points {i, i+N, i+2N, ...}.
struct ShardSpec {
  int index = 0;
  int count = 1;

  // Throws check::CheckError (MN-DSE-004) unless 0 <= index < count.
  void validate() const;
};

// Ascending global indices of `shard` over a space of `total` points.
// The stride partition keeps shards load-balanced across the sweep axes
// and is part of the checkpoint contract (reproducible by construction).
[[nodiscard]] std::vector<std::size_t> shard_point_indices(
    std::size_t total, const ShardSpec& shard);

struct SweepOptions {
  ShardSpec shard;
  Constraints constraints;
  std::string checkpoint_path;  // empty = run without a journal
  // Replay completed points from the checkpoint. A missing journal file
  // starts fresh (so crash-restart loops can pass --resume
  // unconditionally); an existing one must pass fingerprint, shard and
  // record validation (MN-DSE-001/002/003/004).
  bool resume = false;
  // Per-design-point watchdog deadline in milliseconds, in [0, 1e9]; 0
  // disables the watchdog. On expiry the point's solve is cooperatively
  // cancelled and the point is quarantined as failed-with-timeout.
  double point_deadline_ms = 0.0;
  // Bounded-retry budget per point, at least 1. Check refusals are
  // deterministic and quarantine on the first attempt; numeric failures
  // and timeouts are retried until the budget is exhausted, then
  // quarantined.
  int max_attempts = 2;
  // Test seam (and the future distributed-worker boundary): replaces
  // evaluate_design(network, base, point, constraints) when set. The
  // callable must be safe to invoke concurrently for distinct points.
  std::function<EvaluatedDesign(const DesignPoint&, std::size_t index)>
      evaluator;

  // Reads the [sweep] configuration section carried by the accelerator
  // config (Checkpoint, Shard_Index, Shard_Count, Resume,
  // Point_Deadline_Ms, Max_Attempts).
  static SweepOptions from_config(const arch::AcceleratorConfig& base);
};

struct SweepResult {
  // Designs of this shard (or, after merge, of the whole space) in
  // ascending global-index order, plus the MN-DSE findings that do not
  // abort the sweep (MN-DSE-006 when every point failed, MN-DSE-007 on
  // a torn journal tail) in `result.diagnostics`.
  ExplorationResult result;
  // One record per design in `result.designs`, same order: global
  // index, failure category, attempts taken.
  std::vector<CheckpointRecord> records;
  CheckpointHeader header;

  long resumed_count = 0;      // points replayed from the journal
  long evaluated_count = 0;    // points evaluated by this run
  long quarantined_count = 0;  // points that exhausted their attempts
  long retried_count = 0;      // extra attempts beyond the first
  long failed_check = 0;       // quarantined per category
  long failed_numeric = 0;
  long failed_timeout = 0;
  bool torn_tail = false;      // journal had a crash-torn trailing record

  // False when `result.diagnostics` holds an error; the CLI's
  // exit-status predicate.
  [[nodiscard]] bool ok() const;
};

// Evaluates this shard of the space with checkpointing, watchdog and
// quarantine per `options`. Throws check::CheckError on a failed network
// or base-config pre-flight, invalid options (MN-DSE-004) and
// unusable/stale checkpoints; per-point failures never throw.
SweepResult run_sweep(const nn::Network& network,
                      const arch::AcceleratorConfig& base,
                      const DesignSpace& space, const SweepOptions& options);

// Merges N shard journals into one full-space result, validating that
// every journal matches the inputs (MN-DSE-002) and that the union
// covers every enumerated point exactly (MN-DSE-005). The merged
// ExplorationResult is bit-identical to a single-process run.
SweepResult merge_checkpoints(const std::vector<std::string>& paths,
                              const nn::Network& network,
                              const arch::AcceleratorConfig& base,
                              const DesignSpace& space,
                              const Constraints& constraints);

// Machine-readable sweep report: network block, execution summary with
// per-category failure counts, per-design records, the 4-D Pareto
// front, and any diagnostics. Deterministic for a given result.
[[nodiscard]] std::string sweep_report_json(const SweepResult& sweep,
                                            const nn::Network& network);

}  // namespace mnsim::dse
