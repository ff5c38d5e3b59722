#include "dse/shard.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
// lint: allow-thread-include(watchdog supervisor thread; construction carries a raw-thread analyzer escape below)
#include <thread>
#include <unordered_map>

#include "arch/circuit_check_memo.hpp"
#include "check/config_check.hpp"
#include "check/network_check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/thread_safety.hpp"

// The watchdog below measures wall clock on purpose: deadlines are
// execution policy (bounds on solver work), not instrumentation, and an
// obs::Span cannot cancel anything.
// lint: allow-raw-chrono(watchdog deadline enforcement, not timing)
#include <chrono>

namespace mnsim::dse {

namespace {

// lint: allow-raw-chrono(watchdog deadline enforcement, not timing)
using SteadyClock = std::chrono::steady_clock;

[[noreturn]] void reject(const std::string& code, const std::string& message,
                         const std::string& file, const std::string& hint) {
  check::DiagnosticList diags;
  auto& d = diags.emit(code, check::Severity::kError, message);
  d.file = file;
  d.hint = hint;
  throw check::CheckError(std::move(diags));
}

bool file_exists(const std::string& path) {
  std::ifstream f(path);
  return static_cast<bool>(f);
}

// Per-point deadline enforcement: one background thread scans the
// armed per-worker slots and requests cooperative cancellation on the
// tokens whose deadline passed. The solver ladder polls the token
// (util/cancel.hpp) and unwinds with CancelledError.
class Watchdog {
 public:
  Watchdog(double deadline_ms, std::size_t slots)
      : deadline_ms_(deadline_ms), entries_(slots) {
    // A pool task cannot detect the pool's own threads wedging, so the
    // scanner runs on a dedicated thread, joined in ~Watchdog.
    // mnsim-analyze: allow(raw-thread, watchdog scans independently of the pool it supervises; joined in ~Watchdog)
    if (enabled()) scanner_ = std::thread([this] { loop(); });
  }

  ~Watchdog() {
    if (scanner_.joinable()) {
      {
        const util::MutexLock lock(mutex_);
        stop_ = true;
      }
      cv_.notify_all();
      scanner_.join();
    }
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  [[nodiscard]] bool enabled() const { return deadline_ms_ > 0; }

  void arm(std::size_t slot, util::CancelToken* token) {
    if (!enabled()) return;
    const util::MutexLock lock(mutex_);
    entries_[slot].token = token;
    entries_[slot].deadline =
        SteadyClock::now() +
        // lint: allow-raw-chrono(watchdog deadline enforcement, not timing)
        std::chrono::microseconds(static_cast<long>(deadline_ms_ * 1000.0));
  }

  // After disarm() returns the scanner holds no reference to the token.
  void disarm(std::size_t slot) {
    if (!enabled()) return;
    const util::MutexLock lock(mutex_);
    entries_[slot].token = nullptr;
  }

 private:
  struct Entry {
    util::CancelToken* token = nullptr;
    SteadyClock::time_point deadline;
  };

  void loop() {
    // Scan at an eighth of the deadline, clamped to [1, 50] ms: fine
    // enough that expiry lands within ~12% of the configured deadline,
    // coarse enough to be free next to solver work.
    const double poll_ms = std::min(50.0, std::max(1.0, deadline_ms_ / 8.0));
    const util::MutexLock lock(mutex_);
    while (!stop_) {
      // lint: allow-raw-chrono(watchdog deadline enforcement, not timing)
      cv_.wait_for(mutex_, std::chrono::microseconds(
                               static_cast<long>(poll_ms * 1000.0)));
      const SteadyClock::time_point now = SteadyClock::now();
      for (Entry& e : entries_) {
        if (e.token != nullptr && now >= e.deadline) {
          e.token->request();
          e.token = nullptr;  // one cancellation per armed attempt
        }
      }
    }
  }

  const double deadline_ms_;
  // mnsim-analyze: allow(raw-thread, owned member thread of the supervisor; see constructor note)
  std::thread scanner_;
  util::Mutex mutex_;
  std::condition_variable_any cv_;
  std::vector<Entry> entries_ MN_GUARDED_BY(mutex_);
  bool stop_ MN_GUARDED_BY(mutex_) = false;
};

// RAII arm/disarm so every exit path (return, throw) disarms before the
// token leaves scope.
class WatchdogArm {
 public:
  WatchdogArm(Watchdog& watchdog, std::size_t slot, util::CancelToken* token)
      : watchdog_(watchdog), slot_(slot) {
    watchdog_.arm(slot_, token);
  }
  ~WatchdogArm() { watchdog_.disarm(slot_); }
  WatchdogArm(const WatchdogArm&) = delete;
  WatchdogArm& operator=(const WatchdogArm&) = delete;

 private:
  Watchdog& watchdog_;
  std::size_t slot_;
};

// Thread-safe facade over the strictly-one-writer DurableAppender for
// the completion-order appends of the parallel sweep loop. Clang's
// thread-safety analysis cannot annotate function-local mutexes, so the
// mutex/appender pair lives in a class with the guarded-by contract
// spelled out.
class CheckpointJournal {
 public:
  // Serial phase (before the pool starts); locked anyway so the guarded
  // appender has one unconditional access rule.
  void open(const std::string& path, bool truncate) MN_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    appender_.open(path, truncate);
  }

  // Called concurrently from pool workers; appends land in completion
  // order, which is fine — assembly re-sorts by global index.
  void append(const std::string& data) MN_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    appender_.append(data);
  }

 private:
  util::Mutex mutex_;
  util::DurableAppender appender_ MN_GUARDED_BY(mutex_);
};

EvaluatedDesign failed_design(const DesignPoint& point,
                              const std::string& why) {
  EvaluatedDesign d;
  d.point = point;
  d.feasible = false;
  d.evaluated = false;
  d.failure = why;
  return d;
}

// The bounded-retry-then-quarantine protocol for one design point.
CheckpointRecord evaluate_point(
    const std::function<EvaluatedDesign(const DesignPoint&, std::size_t)>&
        evaluator,
    const DesignPoint& point, std::size_t global_index,
    const SweepOptions& options, Watchdog& watchdog, std::size_t slot) {
  CheckpointRecord record;
  record.index = global_index;
  int attempts = 0;
  for (;;) {
    ++attempts;
    util::CancelToken token;
    const util::ScopedCancel scope(&token);
    try {
      const WatchdogArm arm(watchdog, slot, &token);
      record.design = evaluator(point, global_index);
      record.category = FailureCategory::kNone;
      break;
    } catch (const util::CancelledError& e) {
      record.category = FailureCategory::kTimeout;
      record.design = failed_design(
          point, std::string("watchdog deadline expired (") + e.what() + ")");
    } catch (const check::CheckError& e) {
      // Pre-flight refusals are deterministic: quarantine immediately.
      record.category = FailureCategory::kCheck;
      record.design = failed_design(point, e.what());
      break;
    } catch (const std::exception& e) {
      record.category = FailureCategory::kNumeric;
      record.design = failed_design(point, e.what());
    }
    if (attempts >= options.max_attempts) break;
  }
  record.attempts = attempts;
  return record;
}

void validate_record_against_space(const CheckpointRecord& record,
                                   const std::vector<DesignPoint>& points,
                                   const ShardSpec* shard,
                                   const std::string& path) {
  const bool in_range = record.index < points.size();
  const bool in_shard =
      shard == nullptr ||
      static_cast<int>(record.index % static_cast<std::size_t>(
                                          shard->count)) == shard->index;
  bool point_matches = false;
  if (in_range) {
    const DesignPoint& p = points[record.index];
    const DesignPoint& q = record.design.point;
    point_matches = p.crossbar_size == q.crossbar_size &&
                    p.parallelism == q.parallelism &&
                    p.interconnect_node == q.interconnect_node;
  }
  if (!in_range || !in_shard || !point_matches)
    reject("MN-DSE-003",
           "checkpoint record for point " + std::to_string(record.index) +
               " does not match the enumerated design space",
           path,
           "the journal was produced by different inputs; restart without "
           "--resume");
}

// Failure bookkeeping shared by run_sweep and merge_checkpoints: counts
// per category, quarantines, retries, the non-fatal MN-DSE diagnostics
// and the registry counters.
void finalize(SweepResult& out) {
  out.result.feasible_count = 0;
  out.result.failed_count = 0;
  for (const CheckpointRecord& record : out.records) {
    out.result.designs.push_back(record.design);
    if (record.design.feasible) ++out.result.feasible_count;
    if (!record.design.evaluated) {
      ++out.result.failed_count;
      ++out.quarantined_count;
      switch (record.category) {
        case FailureCategory::kCheck:
          ++out.failed_check;
          break;
        case FailureCategory::kNumeric:
          ++out.failed_numeric;
          break;
        case FailureCategory::kTimeout:
          ++out.failed_timeout;
          break;
        case FailureCategory::kNone:
          break;
      }
    }
    if (record.attempts > 1) out.retried_count += record.attempts - 1;
  }
  if (!out.records.empty() &&
      out.result.failed_count ==
          static_cast<long>(out.records.size())) {
    check::Diagnostic d;
    d.code = "MN-DSE-006";
    d.severity = check::Severity::kError;
    d.message = "every design point of the sweep failed (" +
                std::to_string(out.failed_check) + " check, " +
                std::to_string(out.failed_numeric) + " numeric, " +
                std::to_string(out.failed_timeout) + " timeout)";
    d.hint = "first failure: " + out.records.front().design.failure;
    out.result.diagnostics.push_back(std::move(d));
  }
  if (out.torn_tail) {
    check::Diagnostic d;
    d.code = "MN-DSE-007";
    d.severity = check::Severity::kWarning;
    d.message =
        "checkpoint ended in a torn record (crash artifact); the "
        "affected point was re-evaluated";
    out.result.diagnostics.push_back(std::move(d));
  }
  obs::Registry& reg = obs::Registry::global();
  reg.add("dse.design_points", static_cast<long>(out.records.size()));
  reg.add("dse.feasible_points", out.result.feasible_count);
  reg.add("dse.failed_points", out.result.failed_count);
  reg.add("dse.sweep.resumed_points", out.resumed_count);
  reg.add("dse.sweep.evaluated_points", out.evaluated_count);
  reg.add("dse.sweep.timeout_points", out.failed_timeout);
  reg.add("dse.sweep.retries", out.retried_count);
  if (out.torn_tail) reg.add("dse.sweep.torn_tails", 1);
}

std::string reencode(const CheckpointHeader& header,
                     const std::vector<CheckpointRecord>& records) {
  std::string text = encode_checkpoint_header(header);
  for (const CheckpointRecord& r : records)
    text += encode_checkpoint_record(r);
  return text;
}

}  // namespace

void ShardSpec::validate() const {
  if (count < 1 || index < 0 || index >= count)
    reject("MN-DSE-004",
           "invalid shard spec " + std::to_string(index) + "/" +
               std::to_string(count),
           "", "--shard takes i/N with 0 <= i < N");
}

std::vector<std::size_t> shard_point_indices(std::size_t total,
                                             const ShardSpec& shard) {
  shard.validate();
  std::vector<std::size_t> indices;
  for (std::size_t i = static_cast<std::size_t>(shard.index); i < total;
       i += static_cast<std::size_t>(shard.count))
    indices.push_back(i);
  return indices;
}

SweepOptions SweepOptions::from_config(const arch::AcceleratorConfig& base) {
  SweepOptions options;
  options.shard.index = base.sweep_shard_index;
  options.shard.count = base.sweep_shard_count;
  options.checkpoint_path = base.sweep_checkpoint;
  options.resume = base.sweep_resume;
  options.point_deadline_ms = base.sweep_deadline_ms;
  options.max_attempts = base.sweep_max_attempts;
  return options;
}

bool SweepResult::ok() const {
  const auto& diags = result.diagnostics;
  return std::none_of(diags.begin(), diags.end(),
                      [](const check::Diagnostic& d) {
                        return d.severity == check::Severity::kError;
                      });
}

SweepResult run_sweep(const nn::Network& network,
                      const arch::AcceleratorConfig& base,
                      const DesignSpace& space, const SweepOptions& options) {
  options.constraints.validate();
  options.shard.validate();
  if (options.resume && options.checkpoint_path.empty())
    reject("MN-DSE-004", "--resume requires a checkpoint journal", "",
           "pass --checkpoint <path> (or [sweep] Checkpoint)");
  if (options.max_attempts < 1)
    reject("MN-DSE-004",
           "invalid sweep options: max_attempts " +
               std::to_string(options.max_attempts) + " < 1",
           "", "--retries (or [sweep] Max_Attempts) takes an integer >= 1");
  // The same [0, 1e9] ms range the config checker enforces on
  // [sweep] Point_Deadline_Ms; NaN and inf fail it too.
  if (!(std::isfinite(options.point_deadline_ms) &&
        options.point_deadline_ms >= 0 && options.point_deadline_ms <= 1e9)) {
    char deadline[32];
    std::snprintf(deadline, sizeof(deadline), "%g", options.point_deadline_ms);
    reject("MN-DSE-004",
           std::string("invalid sweep options: point deadline ") + deadline +
               " ms",
           "",
           "--deadline (or [sweep] Point_Deadline_Ms) takes milliseconds "
           "in [0, 1e9]; 0 disables the watchdog");
  }

  // The network and base configuration are shared by every point, so
  // refuse-with-diagnosis before any solve. Mapping feasibility is left
  // to the per-point evaluation — the points override exactly the
  // geometry a mapping check would use, and an unmappable point records
  // as failed-infeasible, not an abort. Skipped under a test evaluator —
  // it never reads the base config.
  if (base.check_preflight && !options.evaluator) {
    check::DiagnosticList diags = check::check_network(network);
    diags.merge(check::check_config_consistency(base));
    if (base.check_warnings_as_errors) diags.promote_warnings();
    if (diags.has_errors()) throw check::CheckError(std::move(diags));
  }

  obs::Span sweep_span("dse.sweep");
  const std::vector<DesignPoint> points = [&] {
    obs::Span span("dse.enumerate");
    return space.enumerate();
  }();

  SweepResult out;
  out.header.version = 1;
  out.header.fingerprint =
      sweep_fingerprint(network, base, space, options.constraints);
  out.header.shard_index = options.shard.index;
  out.header.shard_count = options.shard.count;
  out.header.total_points = points.size();
  out.result.error_constraint = options.constraints.max_error;

  const std::vector<std::size_t> mine =
      shard_point_indices(points.size(), options.shard);

  // Resume: replay completed points from the journal.
  std::unordered_map<std::uint64_t, CheckpointRecord> completed;
  CheckpointJournal journal;
  const bool checkpointing = !options.checkpoint_path.empty();
  if (checkpointing) {
    bool fresh = true;
    if (options.resume && file_exists(options.checkpoint_path)) {
      obs::Span span("dse.sweep.replay");
      CheckpointFile ck = read_checkpoint(options.checkpoint_path);
      if (ck.header.fingerprint != out.header.fingerprint)
        reject("MN-DSE-002",
               "stale checkpoint: its fingerprint does not match the "
               "current network/configuration/space/constraints",
               options.checkpoint_path,
               "the inputs changed since the journal was written; restart "
               "without --resume");
      if (ck.header.shard_index != out.header.shard_index ||
          ck.header.shard_count != out.header.shard_count ||
          ck.header.total_points != out.header.total_points)
        reject("MN-DSE-004",
               "checkpoint belongs to shard " +
                   std::to_string(ck.header.shard_index) + "/" +
                   std::to_string(ck.header.shard_count) + " of " +
                   std::to_string(ck.header.total_points) +
                   " points, not the requested partition",
               options.checkpoint_path,
               "resume with the same --shard the journal was started with");
      for (CheckpointRecord& record : ck.records) {
        validate_record_against_space(record, points, &options.shard,
                                      options.checkpoint_path);
        completed[record.index] = std::move(record);  // later wins
      }
      out.torn_tail = ck.torn_tail;
      if (ck.torn_tail) {
        // Drop the torn bytes so future appends keep the journal
        // parseable. Records re-encode byte-identically (canonical
        // encoding), and the rewrite itself is atomic.
        std::vector<CheckpointRecord> kept;
        kept.reserve(completed.size());
        for (const std::size_t gi : mine) {
          const auto it = completed.find(gi);
          if (it != completed.end()) kept.push_back(it->second);
        }
        util::atomic_write_file(options.checkpoint_path,
                                reencode(ck.header, kept));
      }
      journal.open(options.checkpoint_path, /*truncate=*/false);
      fresh = false;
    }
    if (fresh) {
      journal.open(options.checkpoint_path, /*truncate=*/true);
      journal.append(encode_checkpoint_header(out.header));
    }
  }
  out.resumed_count = static_cast<long>(completed.size());

  std::vector<std::size_t> remaining;
  remaining.reserve(mine.size());
  for (const std::size_t gi : mine)
    if (completed.find(gi) == completed.end()) remaining.push_back(gi);
  out.evaluated_count = static_cast<long>(remaining.size());

  // One circuit memo per sweep: its points repeat the same fault
  // circuits and estimates, which it computes once each and shares
  // across the workers (arch/circuit_check_memo.hpp).
  arch::CircuitCheckMemo memo;
  const auto evaluator =
      options.evaluator
          ? options.evaluator
          : std::function<EvaluatedDesign(const DesignPoint&, std::size_t)>(
                [&](const DesignPoint& point, std::size_t) {
                  return evaluate_design(network, base, point,
                                         options.constraints, &memo);
                });

  util::ThreadPool pool(base.parallel_threads);
  Watchdog watchdog(options.point_deadline_ms, pool.worker_count());
  std::vector<CheckpointRecord> evaluated = util::parallel_map(
      pool, remaining.size(), [&](std::size_t i, std::size_t worker) {
        obs::Span point_span("dse.design_point");
        CheckpointRecord record =
            evaluate_point(evaluator, points[remaining[i]], remaining[i],
                           options, watchdog, worker);
        if (checkpointing) {
          // mnsim-analyze: allow(parallel-capture, CheckpointJournal serializes internally under its own mutex)
          journal.append(encode_checkpoint_record(record));
        }
        return record;
      });
  obs::Registry& reg = obs::Registry::global();
  reg.add("dse.sweep.distinct_circuits",
          static_cast<long>(memo.distinct_circuits()));
  reg.add("dse.sweep.distinct_fault_inputs",
          static_cast<long>(memo.distinct_fault_inputs()));

  // Assemble in ascending global-index order: resumed records and fresh
  // evaluations interleave exactly as an uninterrupted run would have
  // produced them.
  std::unordered_map<std::uint64_t, const CheckpointRecord*> fresh_by_index;
  for (const CheckpointRecord& record : evaluated)
    fresh_by_index[record.index] = &record;
  out.records.reserve(mine.size());
  for (const std::size_t gi : mine) {
    const auto done = completed.find(gi);
    if (done != completed.end()) {
      out.records.push_back(done->second);
    } else {
      out.records.push_back(*fresh_by_index.at(gi));
    }
  }
  finalize(out);
  return out;
}

SweepResult merge_checkpoints(const std::vector<std::string>& paths,
                              const nn::Network& network,
                              const arch::AcceleratorConfig& base,
                              const DesignSpace& space,
                              const Constraints& constraints) {
  constraints.validate();
  if (paths.empty())
    reject("MN-DSE-005", "merge needs at least one checkpoint", "",
           "pass the shard journals to --merge");
  obs::Span span("dse.sweep.merge");
  const std::vector<DesignPoint> points = space.enumerate();
  const std::uint64_t fingerprint =
      sweep_fingerprint(network, base, space, constraints);

  SweepResult out;
  out.header.version = 1;
  out.header.fingerprint = fingerprint;
  out.header.shard_index = 0;
  out.header.shard_count = 1;
  out.header.total_points = points.size();
  out.result.error_constraint = constraints.max_error;

  std::unordered_map<std::uint64_t, CheckpointRecord> merged;
  for (const std::string& path : paths) {
    CheckpointFile ck = read_checkpoint(path);
    if (ck.header.fingerprint != fingerprint ||
        ck.header.total_points != points.size())
      reject("MN-DSE-002",
             "stale checkpoint: its fingerprint does not match the "
             "current network/configuration/space/constraints",
             path, "re-run the shard against the current inputs");
    out.torn_tail = out.torn_tail || ck.torn_tail;
    for (CheckpointRecord& record : ck.records) {
      validate_record_against_space(record, points, nullptr, path);
      const auto existing = merged.find(record.index);
      if (existing == merged.end()) {
        merged[record.index] = std::move(record);
      } else if (encode_checkpoint_record(existing->second) !=
                 encode_checkpoint_record(record)) {
        reject("MN-DSE-005",
               "checkpoints disagree on point " +
                   std::to_string(record.index),
               path,
               "the shards were produced by different runs; re-run them "
               "from one configuration");
      }
    }
  }

  if (merged.size() != points.size()) {
    std::uint64_t first_missing = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (merged.find(i) == merged.end()) {
        first_missing = i;
        break;
      }
    }
    reject("MN-DSE-005",
           "merge covers " + std::to_string(merged.size()) + " of " +
               std::to_string(points.size()) +
               " design points (first missing: " +
               std::to_string(first_missing) + ")",
           "",
           "a shard journal is missing or its sweep has not finished; "
           "resume it to completion first");
  }

  out.records.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    out.records.push_back(std::move(merged.at(i)));
  out.resumed_count = static_cast<long>(out.records.size());
  finalize(out);
  return out;
}

// ---- JSON report ------------------------------------------------------------

using util::json_number;
using util::json_quote;

std::string sweep_report_json(const SweepResult& sweep,
                              const nn::Network& network) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"network\": {\"name\": " << json_quote(network.name)
     << ", \"depth\": " << network.depth()
     << ", \"weights\": " << network.total_weights() << "},\n";
  os << "  \"sweep\": {"
     << "\"shard_index\": " << sweep.header.shard_index
     << ", \"shard_count\": " << sweep.header.shard_count
     << ", \"total_points\": " << sweep.header.total_points
     << ", \"shard_points\": " << sweep.records.size()
     << ", \"error_constraint\": "
     << json_number(sweep.result.error_constraint)
     << ", \"feasible\": " << sweep.result.feasible_count
     << ", \"resumed\": " << sweep.resumed_count
     << ", \"evaluated\": " << sweep.evaluated_count
     << ", \"quarantined\": " << sweep.quarantined_count
     << ", \"retries\": " << sweep.retried_count
     << ", \"torn_tail\": " << (sweep.torn_tail ? 1 : 0)
     << ", \"failed\": {\"total\": " << sweep.result.failed_count
     << ", \"check\": " << sweep.failed_check
     << ", \"numeric\": " << sweep.failed_numeric
     << ", \"timeout\": " << sweep.failed_timeout << "}},\n";

  os << "  \"designs\": [";
  for (std::size_t i = 0; i < sweep.records.size(); ++i) {
    const CheckpointRecord& r = sweep.records[i];
    const EvaluatedDesign& d = r.design;
    os << (i == 0 ? "\n" : ",\n") << "    {\"index\": " << r.index
       << ", \"crossbar_size\": " << d.point.crossbar_size
       << ", \"parallelism\": " << d.point.parallelism
       << ", \"interconnect_node\": " << d.point.interconnect_node
       << ", \"evaluated\": " << (d.evaluated ? 1 : 0)
       << ", \"feasible\": " << (d.feasible ? 1 : 0)
       << ", \"category\": " << json_quote(failure_category_name(r.category))
       << ", \"attempts\": " << r.attempts
       << ", \"area\": " << json_number(d.metrics.area)
       << ", \"energy_per_sample\": "
       << json_number(d.metrics.energy_per_sample)
       << ", \"latency\": " << json_number(d.metrics.latency)
       << ", \"sample_latency\": " << json_number(d.metrics.sample_latency)
       << ", \"power\": " << json_number(d.metrics.power)
       << ", \"max_error_rate\": " << json_number(d.metrics.max_error_rate)
       << ", \"avg_error_rate\": " << json_number(d.metrics.avg_error_rate)
       << ", \"solver_fallbacks\": " << d.metrics.solver_fallbacks
       << ", \"faults_injected\": " << d.metrics.faults_injected
       << ", \"failure\": " << json_quote(d.failure) << "}";
  }
  os << (sweep.records.empty() ? "" : "\n  ") << "],\n";

  const std::vector<EvaluatedDesign> pareto = sweep.result.pareto_front();
  os << "  \"pareto\": [";
  for (std::size_t i = 0; i < pareto.size(); ++i) {
    const EvaluatedDesign& d = pareto[i];
    os << (i == 0 ? "\n" : ",\n")
       << "    {\"crossbar_size\": " << d.point.crossbar_size
       << ", \"parallelism\": " << d.point.parallelism
       << ", \"interconnect_node\": " << d.point.interconnect_node
       << ", \"area\": " << json_number(d.metrics.area)
       << ", \"energy_per_sample\": "
       << json_number(d.metrics.energy_per_sample)
       << ", \"latency\": " << json_number(d.metrics.latency)
       << ", \"max_error_rate\": " << json_number(d.metrics.max_error_rate)
       << "}";
  }
  os << (pareto.empty() ? "" : "\n  ") << "],\n";

  os << "  \"diagnostics\": [";
  const std::vector<check::Diagnostic>& diags = sweep.result.diagnostics;
  for (std::size_t i = 0; i < diags.size(); ++i)
    os << (i == 0 ? "\n    " : ",\n    ") << diags[i].render_json();
  os << (diags.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
  return os.str();
}

}  // namespace mnsim::dse
