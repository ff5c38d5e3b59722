// Crash-safe sharded sweep: checkpoint format, resume bit-identity,
// shard merge, watchdog quarantine (docs/ROBUSTNESS.md).
#include "dse/checkpoint.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "check/diagnostic.hpp"
#include "dse/shard.hpp"
#include "nn/topologies.hpp"
#include "obs/metrics.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"

namespace mnsim::dse {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path dir;
  TempDir() {
    dir = fs::temp_directory_path() /
          ("mnsim_ckpt_" + std::to_string(::getpid()));
    fs::create_directories(dir);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir / name).string();
  }
};

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Small real inputs: 8 design points of an MLP — fast enough to evaluate
// for real, so sweep/resume/merge bit-identity is tested against a
// serial reference loop.
nn::Network small_net() { return nn::make_mlp({16, 8}); }

DesignSpace small_space() {
  DesignSpace space;
  space.crossbar_sizes = {4, 8};
  space.parallelism_degrees = {1, 2};
  space.interconnect_nodes = {18, 22};
  return space;
}

arch::AcceleratorConfig base_config(int threads = 1) {
  arch::AcceleratorConfig cfg;
  cfg.parallel_threads = threads;
  return cfg;
}

Constraints constraints() {
  Constraints c;
  c.max_error = 0.25;
  return c;
}

void expect_same_designs(const std::vector<EvaluatedDesign>& a,
                         const std::vector<EvaluatedDesign>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].point.crossbar_size, b[i].point.crossbar_size);
    EXPECT_EQ(a[i].point.parallelism, b[i].point.parallelism);
    EXPECT_EQ(a[i].point.interconnect_node, b[i].point.interconnect_node);
    EXPECT_EQ(a[i].feasible, b[i].feasible);
    EXPECT_EQ(a[i].evaluated, b[i].evaluated);
    // Bit-identity, not tolerance: resume/merge must reproduce the
    // uninterrupted run exactly.
    EXPECT_EQ(a[i].metrics.area, b[i].metrics.area);
    EXPECT_EQ(a[i].metrics.energy_per_sample, b[i].metrics.energy_per_sample);
    EXPECT_EQ(a[i].metrics.latency, b[i].metrics.latency);
    EXPECT_EQ(a[i].metrics.sample_latency, b[i].metrics.sample_latency);
    EXPECT_EQ(a[i].metrics.power, b[i].metrics.power);
    EXPECT_EQ(a[i].metrics.max_error_rate, b[i].metrics.max_error_rate);
    EXPECT_EQ(a[i].metrics.avg_error_rate, b[i].metrics.avg_error_rate);
  }
}

// The reference the sweep driver is checked against: a plain serial
// loop over the enumerated space that records a throwing point as
// failed-infeasible, with none of the driver's machinery.
ExplorationResult serial_reference(const nn::Network& net,
                                   const arch::AcceleratorConfig& base,
                                   const DesignSpace& space,
                                   const Constraints& c) {
  ExplorationResult result;
  result.error_constraint = c.max_error;
  for (const DesignPoint& point : space.enumerate()) {
    try {
      result.designs.push_back(evaluate_design(net, base, point, c));
    } catch (const std::exception& e) {
      EvaluatedDesign failed;
      failed.point = point;
      failed.feasible = false;
      failed.evaluated = false;
      failed.failure = e.what();
      result.designs.push_back(failed);
    }
  }
  return result;
}

std::string diag_code(const check::CheckError& e) {
  return e.diagnostics().items().empty() ? ""
                                         : e.diagnostics().items()[0].code;
}

// ---- shard partition --------------------------------------------------------

TEST(ShardSpec, ValidatesBounds) {
  EXPECT_NO_THROW((ShardSpec{0, 1}).validate());
  EXPECT_NO_THROW((ShardSpec{2, 3}).validate());
  for (const ShardSpec bad : {ShardSpec{0, 0}, ShardSpec{-1, 2},
                              ShardSpec{2, 2}, ShardSpec{5, 3}}) {
    try {
      bad.validate();
      FAIL() << "expected MN-DSE-004";
    } catch (const check::CheckError& e) {
      EXPECT_EQ(diag_code(e), "MN-DSE-004");
    }
  }
}

TEST(ShardSpec, PartitionCoversSpaceDisjointly) {
  const std::size_t total = 37;
  const int n = 4;
  std::vector<int> owner(total, -1);
  for (int s = 0; s < n; ++s) {
    for (const std::size_t i : shard_point_indices(total, ShardSpec{s, n})) {
      ASSERT_LT(i, total);
      EXPECT_EQ(owner[i], -1) << "point " << i << " claimed twice";
      owner[i] = s;
    }
  }
  for (std::size_t i = 0; i < total; ++i)
    EXPECT_EQ(owner[i], static_cast<int>(i % n));
}

// ---- fingerprint ------------------------------------------------------------

TEST(Fingerprint, SensitiveToEveryInputButNotExecutionPolicy) {
  const auto net = small_net();
  const auto base = base_config();
  const auto space = small_space();
  const auto cons = constraints();
  const std::uint64_t ref = sweep_fingerprint(net, base, space, cons);

  auto net2 = net;
  net2.name = "other";
  EXPECT_NE(sweep_fingerprint(net2, base, space, cons), ref);

  auto base2 = base;
  base2.device_sigma += 0.05;
  EXPECT_NE(sweep_fingerprint(net, base2, space, cons), ref);

  auto space2 = space;
  space2.interconnect_nodes.push_back(28);
  EXPECT_NE(sweep_fingerprint(net, base, space2, cons), ref);

  auto cons2 = cons;
  cons2.max_error = 0.10;
  EXPECT_NE(sweep_fingerprint(net, base, space, cons2), ref);

  // Execution policy must NOT shift the fingerprint: a sweep may resume
  // under a different thread count, deadline, or journal path.
  auto base3 = base;
  base3.parallel_threads = 7;
  base3.sweep_checkpoint = "/elsewhere";
  base3.sweep_deadline_ms = 123.0;
  base3.sweep_max_attempts = 9;
  base3.sweep_shard_index = 0;
  base3.sweep_shard_count = 4;
  base3.trace_enabled = true;
  EXPECT_EQ(sweep_fingerprint(net, base3, space, cons), ref);
}

// ---- record format ----------------------------------------------------------

TEST(CheckpointFormat, HeaderAndRecordRoundTrip) {
  CheckpointHeader h;
  h.fingerprint = 0x1234abcd5678ef90ull;
  h.shard_index = 2;
  h.shard_count = 5;
  h.total_points = 330;

  CheckpointRecord r;
  r.index = 17;
  r.design.point = {64, 8, 22};
  r.design.feasible = true;
  r.design.evaluated = true;
  r.design.metrics.area = 6.4971227520000017e-05;
  r.design.metrics.energy_per_sample = 1.0 / 3.0;
  r.design.metrics.latency = 1e-300;
  r.design.metrics.max_error_rate = 0.1058823529411764;
  r.category = FailureCategory::kNone;
  r.attempts = 1;

  CheckpointRecord f;  // a failed record with a hostile message
  f.index = 18;
  f.design.point = {64, 16, 22};
  f.design.feasible = false;
  f.design.evaluated = false;
  f.design.failure = "solve failed: residual 1e-3 > tol (50% off)\nline2";
  f.category = FailureCategory::kNumeric;
  f.attempts = 3;

  const std::string text = encode_checkpoint_header(h) +
                           encode_checkpoint_record(r) +
                           encode_checkpoint_record(f);
  const CheckpointFile parsed = parse_checkpoint(text, "mem");
  EXPECT_FALSE(parsed.torn_tail);
  EXPECT_EQ(parsed.good_bytes, text.size());
  EXPECT_EQ(parsed.header.fingerprint, h.fingerprint);
  EXPECT_EQ(parsed.header.shard_index, 2);
  EXPECT_EQ(parsed.header.shard_count, 5);
  EXPECT_EQ(parsed.header.total_points, 330u);
  ASSERT_EQ(parsed.records.size(), 2u);
  // Canonical encoding: re-encoding the parse reproduces the bytes.
  EXPECT_EQ(encode_checkpoint_header(parsed.header) +
                encode_checkpoint_record(parsed.records[0]) +
                encode_checkpoint_record(parsed.records[1]),
            text);
  EXPECT_EQ(parsed.records[0].design.metrics.latency, 1e-300);
  EXPECT_EQ(parsed.records[1].design.failure, f.design.failure);
  EXPECT_EQ(parsed.records[1].category, FailureCategory::kNumeric);
  EXPECT_EQ(parsed.records[1].attempts, 3);
}

TEST(CheckpointFormat, RejectsForeignAndEmptyFiles) {
  for (const std::string& text :
       {std::string(""), std::string("not a checkpoint\n"),
        std::string("{\"json\": 1}\n")}) {
    try {
      (void)parse_checkpoint(text, "mem");
      FAIL() << "expected MN-DSE-001 for: " << text;
    } catch (const check::CheckError& e) {
      EXPECT_EQ(diag_code(e), "MN-DSE-001");
    }
  }
}

TEST(CheckpointFormat, TornTrailingRecordIsDropped) {
  CheckpointHeader h;
  h.total_points = 8;
  CheckpointRecord r;
  r.index = 0;
  const std::string full =
      encode_checkpoint_header(h) + encode_checkpoint_record(r);
  // Cut mid-record: every strict prefix of the record line is torn.
  for (const std::size_t cut :
       {full.size() - 1, full.size() - 7, full.size() - 20}) {
    const CheckpointFile parsed = parse_checkpoint(full.substr(0, cut), "mem");
    EXPECT_TRUE(parsed.torn_tail);
    EXPECT_TRUE(parsed.records.empty());
    EXPECT_EQ(parsed.good_bytes, encode_checkpoint_header(h).size());
  }
}

TEST(CheckpointFormat, CorruptMiddleRecordIsRejected) {
  CheckpointHeader h;
  h.total_points = 8;
  CheckpointRecord a, b;
  a.index = 0;
  b.index = 1;
  std::string text = encode_checkpoint_header(h) +
                     encode_checkpoint_record(a) +
                     encode_checkpoint_record(b);
  // Flip one byte inside the FIRST record (not the tail): cannot be a
  // crash artifact, must be rejected.
  const std::size_t pos = encode_checkpoint_header(h).size() + 4;
  text[pos] = text[pos] == '9' ? '8' : '9';
  try {
    (void)parse_checkpoint(text, "mem");
    FAIL() << "expected MN-DSE-003";
  } catch (const check::CheckError& e) {
    EXPECT_EQ(diag_code(e), "MN-DSE-003");
    EXPECT_EQ(e.diagnostics().items()[0].line, 2);
  }
}

// ---- sweep == serial reference ---------------------------------------------

TEST(Sweep, MatchesSerialReferenceAtAnyThreadCount) {
  const auto net = small_net();
  const auto space = small_space();
  const auto explored =
      serial_reference(net, base_config(1), space, constraints());
  for (const int threads : {1, 4}) {
    SweepOptions options;
    options.constraints = constraints();
    const SweepResult sweep =
        run_sweep(net, base_config(threads), space, options);
    EXPECT_TRUE(sweep.ok());
    EXPECT_EQ(sweep.resumed_count, 0);
    expect_same_designs(sweep.result.designs, explored.designs);
    expect_same_designs(sweep.result.pareto_front(), explored.pareto_front());
  }
}

TEST(Sweep, ResumeAfterSimulatedCrashIsBitIdentical) {
  TempDir tmp;
  const auto net = small_net();
  const auto space = small_space();
  const std::string journal = tmp.path("ckpt");

  SweepOptions options;
  options.constraints = constraints();
  options.checkpoint_path = journal;
  const SweepResult full = run_sweep(net, base_config(1), space, options);
  ASSERT_EQ(full.records.size(), 8u);

  // Simulated SIGKILL: keep the header, three whole records, and half of
  // the fourth (a torn append).
  const CheckpointFile parsed = parse_checkpoint(slurp(journal), journal);
  CheckpointHeader h = parsed.header;
  std::string cut = encode_checkpoint_header(h);
  for (int i = 0; i < 3; ++i)
    cut += encode_checkpoint_record(parsed.records[i]);
  const std::string fourth = encode_checkpoint_record(parsed.records[3]);
  cut += fourth.substr(0, fourth.size() / 2);
  {
    std::ofstream f(journal, std::ios::trunc);
    f << cut;
  }

  // Resume at a different thread count: replay 3, re-evaluate 5.
  options.resume = true;
  const SweepResult resumed = run_sweep(net, base_config(4), space, options);
  EXPECT_EQ(resumed.resumed_count, 3);
  EXPECT_EQ(resumed.evaluated_count, 5);
  EXPECT_TRUE(resumed.torn_tail);
  expect_same_designs(resumed.result.designs, full.result.designs);
  expect_same_designs(resumed.result.pareto_front(),
                      full.result.pareto_front());

  // The journal was healed: parseable, complete, resumable again with
  // nothing left to evaluate.
  const SweepResult again = run_sweep(net, base_config(1), space, options);
  EXPECT_EQ(again.resumed_count, 8);
  EXPECT_EQ(again.evaluated_count, 0);
  EXPECT_FALSE(again.torn_tail);
  expect_same_designs(again.result.designs, full.result.designs);
}

TEST(Sweep, StaleCheckpointIsRejected) {
  TempDir tmp;
  const auto net = small_net();
  const auto space = small_space();
  SweepOptions options;
  options.constraints = constraints();
  options.checkpoint_path = tmp.path("ckpt");
  (void)run_sweep(net, base_config(1), space, options);

  options.resume = true;
  options.constraints.max_error = 0.10;  // different inputs
  try {
    (void)run_sweep(net, base_config(1), space, options);
    FAIL() << "expected MN-DSE-002";
  } catch (const check::CheckError& e) {
    EXPECT_EQ(diag_code(e), "MN-DSE-002");
  }
}

TEST(Sweep, ResumeRejectsForeignShardJournal) {
  TempDir tmp;
  const auto net = small_net();
  const auto space = small_space();
  SweepOptions options;
  options.constraints = constraints();
  options.shard = {0, 2};
  options.checkpoint_path = tmp.path("ckpt");
  (void)run_sweep(net, base_config(1), space, options);

  options.resume = true;
  options.shard = {1, 2};  // same file, different partition
  try {
    (void)run_sweep(net, base_config(1), space, options);
    FAIL() << "expected MN-DSE-004";
  } catch (const check::CheckError& e) {
    EXPECT_EQ(diag_code(e), "MN-DSE-004");
  }
}

TEST(Sweep, ResumeWithoutJournalPathIsRejected) {
  SweepOptions options;
  options.resume = true;
  try {
    (void)run_sweep(small_net(), base_config(1), small_space(), options);
    FAIL() << "expected MN-DSE-004";
  } catch (const check::CheckError& e) {
    EXPECT_EQ(diag_code(e), "MN-DSE-004");
  }
}

// The retry budget and the watchdog deadline are range-checked by the
// driver itself, not only by AcceleratorConfig::validate: CLI overrides
// (--retries, --deadline) reach run_sweep without passing the config.
TEST(Sweep, InvalidAttemptsOrDeadlineAreRejected) {
  struct Case {
    int max_attempts;
    double deadline_ms;
  };
  for (const Case c : {Case{0, 0.0}, Case{-2, 0.0}, Case{1, -1.0},
                       Case{1, std::numeric_limits<double>::infinity()},
                       Case{1, std::nan("")}, Case{1, 2e9}}) {
    SweepOptions options;
    options.max_attempts = c.max_attempts;
    options.point_deadline_ms = c.deadline_ms;
    try {
      (void)run_sweep(small_net(), base_config(1), small_space(), options);
      FAIL() << "expected MN-DSE-004 for max_attempts " << c.max_attempts
             << ", deadline " << c.deadline_ms << " ms";
    } catch (const check::CheckError& e) {
      EXPECT_EQ(diag_code(e), "MN-DSE-004");
    }
  }
}

// One set of DSE counter names for every front end: the sweep publishes
// the design/feasible/failed totals that the observability docs list.
TEST(Sweep, PublishesDesignPointCounters) {
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  const long points0 = reg.counter("dse.design_points");
  const long feasible0 = reg.counter("dse.feasible_points");
  const long failed0 = reg.counter("dse.failed_points");

  SweepOptions options;
  options.max_attempts = 1;
  options.evaluator = [](const DesignPoint& p,
                         std::size_t) -> EvaluatedDesign {
    if (p.crossbar_size == 4) throw std::runtime_error("synthetic failure");
    EvaluatedDesign d;
    d.point = p;
    d.feasible = p.parallelism == 1;
    return d;
  };
  const SweepResult sweep =
      run_sweep(small_net(), base_config(2), small_space(), options);
  EXPECT_EQ(sweep.result.feasible_count, 2);
  EXPECT_EQ(sweep.result.failed_count, 4);
  EXPECT_EQ(reg.counter("dse.design_points") - points0,
            static_cast<long>(sweep.records.size()));
  EXPECT_EQ(reg.counter("dse.feasible_points") - feasible0,
            sweep.result.feasible_count);
  EXPECT_EQ(reg.counter("dse.failed_points") - failed0,
            sweep.result.failed_count);
}

// ---- sharding + merge -------------------------------------------------------

TEST(Merge, ThreeShardsEqualSingleProcess) {
  TempDir tmp;
  const auto net = small_net();
  const auto space = small_space();
  const auto explored =
      serial_reference(net, base_config(1), space, constraints());

  std::vector<std::string> journals;
  for (int s = 0; s < 3; ++s) {
    SweepOptions options;
    options.constraints = constraints();
    options.shard = {s, 3};
    options.checkpoint_path = tmp.path("shard" + std::to_string(s));
    const SweepResult sweep = run_sweep(net, base_config(2), space, options);
    EXPECT_EQ(sweep.records.size(), shard_point_indices(8, {s, 3}).size());
    journals.push_back(options.checkpoint_path);
  }

  const SweepResult merged = merge_checkpoints(journals, net, base_config(1),
                                               space, constraints());
  EXPECT_TRUE(merged.ok());
  expect_same_designs(merged.result.designs, explored.designs);
  expect_same_designs(merged.result.pareto_front(), explored.pareto_front());

  // Dropping one shard leaves coverage holes: typed MN-DSE-005.
  try {
    (void)merge_checkpoints({journals[0], journals[2]}, net, base_config(1),
                            space, constraints());
    FAIL() << "expected MN-DSE-005";
  } catch (const check::CheckError& e) {
    EXPECT_EQ(diag_code(e), "MN-DSE-005");
  }
}

// ---- quarantine protocol ----------------------------------------------------

TEST(Quarantine, AllPointsFailedEmitsDiagnosticAndCounts) {
  SweepOptions options;
  options.constraints = constraints();
  options.max_attempts = 3;
  options.evaluator = [](const DesignPoint&, std::size_t) -> EvaluatedDesign {
    throw std::runtime_error("synthetic numeric failure");
  };
  const SweepResult sweep =
      run_sweep(small_net(), base_config(2), small_space(), options);
  EXPECT_FALSE(sweep.ok());
  EXPECT_EQ(sweep.quarantined_count, 8);
  EXPECT_EQ(sweep.failed_numeric, 8);
  EXPECT_EQ(sweep.failed_check, 0);
  EXPECT_EQ(sweep.failed_timeout, 0);
  EXPECT_EQ(sweep.retried_count, 8 * 2);  // max_attempts - 1 extra tries
  ASSERT_FALSE(sweep.result.diagnostics.empty());
  EXPECT_EQ(sweep.result.diagnostics[0].code, "MN-DSE-006");
  // The report carries the category breakdown.
  const std::string json = sweep_report_json(sweep, small_net());
  EXPECT_NE(json.find("\"numeric\": 8"), std::string::npos);
  EXPECT_NE(json.find("MN-DSE-006"), std::string::npos);
}

// The report is strict JSON even for a non-finite constraint, and its
// diagnostics use the full `mnsim check --json` record.
TEST(Quarantine, ReportIsStrictJsonWithFullDiagnosticRecords) {
  SweepOptions options;
  options.constraints.max_error = std::numeric_limits<double>::infinity();
  options.evaluator = [](const DesignPoint&, std::size_t) -> EvaluatedDesign {
    throw std::runtime_error("synthetic numeric failure");
  };
  const SweepResult sweep =
      run_sweep(small_net(), base_config(1), small_space(), options);
  ASSERT_FALSE(sweep.result.diagnostics.empty());
  const std::string json = sweep_report_json(sweep, small_net());
  EXPECT_NO_THROW(util::parse_json_numbers(json));
  EXPECT_NE(json.find("\"error_constraint\": null"), std::string::npos);
  const std::size_t record = json.find("{\"code\": \"MN-DSE-006\"");
  ASSERT_NE(record, std::string::npos);
  const std::string diag = json.substr(record, json.find('}', record) - record);
  EXPECT_NE(diag.find("\"file\": "), std::string::npos);
  EXPECT_NE(diag.find("\"line\": "), std::string::npos);
  EXPECT_NE(diag.find("\"location\": "), std::string::npos);
}

TEST(Quarantine, CheckFailuresAreNeverRetried) {
  SweepOptions options;
  options.constraints = constraints();
  options.max_attempts = 4;
  options.evaluator = [](const DesignPoint&, std::size_t) -> EvaluatedDesign {
    check::DiagnosticList diags;
    diags.emit("MN-CFG-001", check::Severity::kError, "synthetic refusal");
    throw check::CheckError(std::move(diags));
  };
  const SweepResult sweep =
      run_sweep(small_net(), base_config(1), small_space(), options);
  EXPECT_EQ(sweep.failed_check, 8);
  EXPECT_EQ(sweep.retried_count, 0);  // deterministic refusal: one attempt
  for (const auto& r : sweep.records) EXPECT_EQ(r.attempts, 1);
}

TEST(Quarantine, WatchdogCancelsPointsPastDeadline) {
  SweepOptions options;
  options.constraints = constraints();
  options.max_attempts = 1;
  options.point_deadline_ms = 20.0;
  options.evaluator = [](const DesignPoint& p,
                         std::size_t) -> EvaluatedDesign {
    if (p.crossbar_size == 4) {  // 4 of 8 points hang until cancelled
      const auto start = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - start <
             std::chrono::seconds(10)) {
        util::throw_if_cancelled("test.hang");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    EvaluatedDesign d;
    d.point = p;
    d.feasible = true;
    return d;
  };
  const SweepResult sweep =
      run_sweep(small_net(), base_config(2), small_space(), options);
  EXPECT_EQ(sweep.failed_timeout, 4);
  EXPECT_EQ(sweep.result.feasible_count, 4);
  for (const auto& r : sweep.records) {
    if (r.design.point.crossbar_size == 4) {
      EXPECT_EQ(r.category, FailureCategory::kTimeout);
      EXPECT_FALSE(r.design.evaluated);
      EXPECT_NE(r.design.failure.find("watchdog"), std::string::npos);
    } else {
      EXPECT_EQ(r.category, FailureCategory::kNone);
    }
  }
}

// ---- cancellation plumbing --------------------------------------------------

TEST(Cancel, ScopedTokenInstallsAndRestores) {
  EXPECT_FALSE(util::cancellation_requested());
  util::CancelToken token;
  {
    util::ScopedCancel scope(&token);
    EXPECT_FALSE(util::cancellation_requested());
    token.request();
    EXPECT_TRUE(util::cancellation_requested());
    try {
      util::throw_if_cancelled("numeric.cg");
      FAIL() << "expected CancelledError";
    } catch (const util::CancelledError& e) {
      EXPECT_EQ(e.where(), "numeric.cg");
    }
  }
  // Token uninstalled: the same thread is no longer cancellable.
  EXPECT_FALSE(util::cancellation_requested());
  EXPECT_NO_THROW(util::throw_if_cancelled("after"));
}

// ---- [sweep] configuration --------------------------------------------------

TEST(SweepConfig, FromConfigReadsSweepSection) {
  arch::AcceleratorConfig cfg;
  cfg.sweep_checkpoint = "/tmp/j";
  cfg.sweep_shard_index = 1;
  cfg.sweep_shard_count = 4;
  cfg.sweep_resume = true;
  cfg.sweep_deadline_ms = 250.0;
  cfg.sweep_max_attempts = 5;
  const SweepOptions options = SweepOptions::from_config(cfg);
  EXPECT_EQ(options.checkpoint_path, "/tmp/j");
  EXPECT_EQ(options.shard.index, 1);
  EXPECT_EQ(options.shard.count, 4);
  EXPECT_TRUE(options.resume);
  EXPECT_EQ(options.point_deadline_ms, 250.0);
  EXPECT_EQ(options.max_attempts, 5);
}

TEST(SweepConfig, ValidateRejectsBadShard) {
  arch::AcceleratorConfig cfg;
  cfg.sweep_shard_index = 4;
  cfg.sweep_shard_count = 4;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.sweep_shard_index = 0;
  cfg.sweep_max_attempts = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace mnsim::dse
