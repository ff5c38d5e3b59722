#include "arch/cycle_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "arch/pipeline.hpp"
#include "check/diagnostic.hpp"
#include "nn/topologies.hpp"

namespace mnsim::arch {
namespace {

AcceleratorConfig base() {
  AcceleratorConfig c;
  c.cmos_node_nm = 45;
  c.crossbar_size = 128;
  c.interconnect_node_nm = 45;
  c.cycle_enabled = true;
  return c;
}

// A configuration whose scratchpads and bandwidth can never bind: every
// transfer completes in one cycle and fills run arbitrarily far ahead.
AcceleratorConfig unconstrained() {
  AcceleratorConfig c = base();
  c.cycle_ifmap_kb = 1e5;
  c.cycle_filter_kb = 1e5;
  c.cycle_ofmap_kb = 1e5;
  c.cycle_bandwidth_gbps = 1e6;
  return c;
}

// Synthetic two-bank report for the diagnostic and shape tests.
AcceleratorReport synthetic(long iter0 = 4, long iter1 = 4) {
  AcceleratorReport rep;
  rep.banks.resize(2);
  for (auto& bank : rep.banks) {
    bank.mapping.matrix_rows = 64;
    bank.mapping.matrix_cols = 32;
    bank.mapping.physical_cols = 64;
    bank.mapping.crossbars_per_unit = 1;
    bank.pass_latency = 1e-6;
    bank.warmup_passes = 1;
  }
  rep.banks[0].iterations = iter0;
  rep.banks[1].iterations = iter1;
  return rep;
}

// Independent pass-level reference: each pass of a bank starts when the
// bank's previous pass ends and the upstream bank has finished the
// passes it consumes — the Eq. 6 warm-up plus an even share of the
// rest, or the whole upstream sample for a one-pass bank. Operands move
// for free. Returns the one-sample makespan [s].
double pass_level_makespan(const AcceleratorReport& report) {
  std::vector<double> up_finish;  // end time of every upstream pass
  double makespan = 0.0;
  for (std::size_t b = 0; b < report.banks.size(); ++b) {
    const auto& bank = report.banks[b];
    const long up = static_cast<long>(up_finish.size());
    const long warmup =
        b > 0 ? std::min(report.banks[b - 1].warmup_passes, up) : 0;
    std::vector<double> finish;
    double t = 0.0;
    for (long k = 0; k < bank.iterations; ++k) {
      const long needed =
          bank.iterations > 1
              ? warmup + k * (up - warmup) / (bank.iterations - 1)
              : up;
      if (needed > 0) t = std::max(t, up_finish[needed - 1]);
      t += bank.pass_latency;
      finish.push_back(t);
    }
    makespan = std::max(makespan, t);
    up_finish = std::move(finish);
  }
  return makespan;
}

TEST(CycleSim, NoStallMatchesPassLevelMakespan) {
  // Acceptance gate: with scratchpads sized to never stall, the cycle
  // schedule reproduces the pass-level makespan within 0.5% on every
  // built-in topology (the gap is one fill and one drain cycle per
  // pass; the engine is integer-deterministic).
  const std::vector<nn::Network> topologies = {
      nn::make_mlp({128, 128, 128}), nn::make_autoencoder_64_16_64(),
      nn::make_large_bank_layer(),   nn::make_caffenet(),
      nn::make_vgg16(),              nn::make_binary_cnn()};
  for (const auto& net : topologies) {
    SCOPED_TRACE(net.name);
    const auto rep = simulate_accelerator(net, base());
    const double reference = pass_level_makespan(rep);
    const auto cyc = simulate_cycles(rep, unconstrained());
    ASSERT_GT(reference, 0.0);
    EXPECT_NEAR(cyc.makespan_seconds, reference, 0.005 * reference);
    // Memory-hierarchy stalls (fill/drain) are negligible; dependency
    // stalls remain — they are the pipelining structure itself.
    long memory_stalls = 0;
    for (const auto& bank : cyc.banks)
      memory_stalls += bank.fill_stall_cycles + bank.drain_stall_cycles;
    EXPECT_LT(static_cast<double>(memory_stalls),
              0.01 * static_cast<double>(cyc.total_busy_cycles));
    long passes = 0;
    for (const auto& bank : rep.banks) passes += bank.iterations;
    EXPECT_EQ(cyc.total_tiles, passes);
  }
}

TEST(CycleSim, MlpExecutesStrictlySequentially) {
  // FC banks need the whole upstream output: no overlap possible.
  const auto rep =
      simulate_accelerator(nn::make_mlp({128, 128, 128}), base());
  const auto cyc = simulate_cycles(rep, unconstrained());
  EXPECT_EQ(cyc.total_tiles, 2);
  ASSERT_EQ(cyc.banks.size(), 2u);
  EXPECT_GE(cyc.banks[1].start_cycle, cyc.banks[0].finish_cycle);
}

TEST(CycleSim, ConvPipelineOverlapsBanks) {
  const auto rep = simulate_accelerator(nn::make_vgg16(), base());
  const auto cyc = simulate_cycles(rep, unconstrained());
  // Pipelining must beat the strictly serial schedule by a wide margin.
  EXPECT_LT(static_cast<double>(cyc.makespan_cycles),
            0.6 * static_cast<double>(cyc.total_busy_cycles));
  // Downstream banks start long before upstream banks finish.
  EXPECT_LT(cyc.banks[1].start_cycle, cyc.banks[0].finish_cycle);
  EXPECT_LT(cyc.banks[5].start_cycle, cyc.banks[4].finish_cycle);
}

TEST(CycleSim, MakespanBoundedByAnalyticPipeline) {
  const auto rep = simulate_accelerator(nn::make_vgg16(), base());
  const auto cyc = simulate_cycles(rep, unconstrained());
  const auto pipe = analyze_pipeline(rep);
  // The bottleneck bank's work is a lower bound on the makespan; every
  // bank's work in series is an upper bound.
  const double serial =
      static_cast<double>(cyc.total_busy_cycles) / cyc.clock_hz;
  EXPECT_GE(cyc.makespan_seconds, pipe.sample_interval - 1e-12);
  EXPECT_LE(cyc.makespan_seconds, serial + 1e-12);
  // The discrete schedule should land within ~2x of the analytic
  // steady-state estimate (fill + bottleneck).
  EXPECT_LT(cyc.makespan_seconds,
            2.0 * (pipe.fill_latency + pipe.sample_interval));
}

TEST(CycleSim, BottleneckBankStaysBusy) {
  const auto rep = simulate_accelerator(nn::make_vgg16(), base());
  const auto cyc = simulate_cycles(rep, unconstrained());
  const auto pipe = analyze_pipeline(rep);
  const auto b = static_cast<std::size_t>(pipe.bottleneck_bank);
  EXPECT_GT(cyc.banks[b].utilization, 0.95);
  for (const auto& bank : cyc.banks) {
    EXPECT_GT(bank.utilization, 0.0);
    EXPECT_LE(bank.utilization, 1.0 + 1e-9);
  }
}

TEST(CycleSim, BusyTimeMatchesPassCounts) {
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  const auto cyc = simulate_cycles(rep, unconstrained());
  for (std::size_t b = 0; b < rep.banks.size(); ++b) {
    EXPECT_EQ(cyc.banks[b].tiles, rep.banks[b].iterations);
    EXPECT_EQ(cyc.banks[b].busy_cycles,
              cyc.banks[b].tiles * cyc.banks[b].compute_cycles_per_tile);
  }
}

TEST(CycleSim, BandwidthStarvedReportsStalls) {
  // Acceptance gate: a bandwidth-starved backing store must surface as
  // nonzero fill-stall cycles and a longer makespan.
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  const auto free_run = simulate_cycles(rep, unconstrained());
  AcceleratorConfig starved = unconstrained();
  starved.cycle_bandwidth_gbps = 1e-3;
  const auto cyc = simulate_cycles(rep, starved);
  long fill_stalls = 0;
  for (const auto& bank : cyc.banks) fill_stalls += bank.fill_stall_cycles;
  EXPECT_GT(fill_stalls, 0);
  EXPECT_GT(cyc.total_stall_cycles, 0);
  EXPECT_GT(cyc.stall_fraction, 0.0);
  EXPECT_GT(cyc.makespan_seconds, 1.01 * free_run.makespan_seconds);
}

TEST(CycleSim, DemandFillsNeverBeatPrefetch) {
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  AcceleratorConfig cfg = unconstrained();
  cfg.cycle_bandwidth_gbps = 0.05;  // tight enough for policy to matter
  const auto prefetch = simulate_cycles(rep, cfg);
  cfg.cycle_fill_policy = FillPolicy::kDemand;
  const auto demand = simulate_cycles(rep, cfg);
  EXPECT_GE(demand.makespan_cycles, prefetch.makespan_cycles);
  EXPECT_GE(demand.total_stall_cycles, prefetch.total_stall_cycles);
}

TEST(CycleSim, StallDecompositionIsExact) {
  // span == busy + dep + fill + drain for every active bank; idle covers
  // the rest of the makespan.
  const auto rep = simulate_accelerator(nn::make_vgg16(), base());
  AcceleratorConfig cfg = unconstrained();
  cfg.cycle_bandwidth_gbps = 0.1;
  const auto cyc = simulate_cycles(rep, cfg);
  for (const auto& bank : cyc.banks) {
    EXPECT_EQ(bank.span_cycles(), bank.busy_cycles + bank.stall_cycles());
    EXPECT_EQ(bank.idle_cycles, cyc.makespan_cycles - bank.span_cycles());
    EXPECT_GE(bank.utilization, 0.0);
    EXPECT_LE(bank.utilization, 1.0 + 1e-12);
  }
  EXPECT_GT(cyc.pe_scheduled_fraction, 0.0);
  EXPECT_LE(cyc.pe_scheduled_fraction, 1.0 + 1e-12);
  EXPECT_LE(cyc.pe_active_fraction, cyc.pe_scheduled_fraction + 1e-12);
}

TEST(CycleSim, IdleBankReportsZeroUtilization) {
  auto rep = synthetic(/*iter0=*/4, /*iter1=*/0);
  const auto cyc = simulate_cycles(rep, unconstrained());
  EXPECT_EQ(cyc.banks[1].tiles, 0);
  EXPECT_DOUBLE_EQ(cyc.banks[1].utilization, 0.0);
  EXPECT_GT(cyc.banks[0].utilization, 0.0);
}

TEST(CycleSim, TrafficAccountsEveryTile) {
  const auto rep = synthetic();
  const auto cyc = simulate_cycles(rep, unconstrained());
  for (std::size_t b = 0; b < rep.banks.size(); ++b) {
    const auto& bank = cyc.banks[b];
    EXPECT_DOUBLE_EQ(bank.ifmap_bytes,
                     static_cast<double>(bank.tiles) *
                         rep.banks[b].mapping.matrix_rows);
    EXPECT_DOUBLE_EQ(bank.ofmap_bytes,
                     static_cast<double>(bank.tiles) *
                         rep.banks[b].mapping.matrix_cols);
    EXPECT_GT(bank.filter_bytes, 0.0);
    EXPECT_GT(bank.bus_busy_cycles, 0);
  }
  EXPECT_DOUBLE_EQ(cyc.backing_traffic_bytes,
                   cyc.banks[0].ifmap_bytes + cyc.banks[0].ofmap_bytes +
                       cyc.banks[1].ifmap_bytes + cyc.banks[1].ofmap_bytes);
}

TEST(CycleSim, OutputStationaryDefersTheDrain) {
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  AcceleratorConfig cfg = unconstrained();
  cfg.cycle_dataflow = Dataflow::kOutputStationary;
  const auto os = simulate_cycles(rep, cfg);
  EXPECT_TRUE(os.banks.front().resident_ofmap);
  EXPECT_TRUE(os.diagnostics.empty());
  // Bulk drains serialize the inter-bank handoff: the makespan can only
  // grow relative to streaming drains.
  const auto ws = simulate_cycles(rep, unconstrained());
  EXPECT_GE(os.makespan_cycles, ws.makespan_cycles);
}

TEST(CycleSim, InputStationaryBuffersTheSample) {
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  AcceleratorConfig cfg = unconstrained();
  cfg.cycle_dataflow = Dataflow::kInputStationary;
  const auto is = simulate_cycles(rep, cfg);
  EXPECT_TRUE(is.banks.front().resident_ifmap);
  EXPECT_TRUE(is.diagnostics.empty());
  EXPECT_GT(is.makespan_cycles, 0);
}

TEST(CycleSim, ResidencyFallbackWarnsAndStreams) {
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  AcceleratorConfig cfg = base();  // default 2 KB ifmap: sample won't fit
  cfg.cycle_dataflow = Dataflow::kInputStationary;
  const auto cyc = simulate_cycles(rep, cfg);
  bool warned = false;
  for (const auto& d : cyc.diagnostics)
    if (d.code == "MN-CYC-005") warned = true;
  EXPECT_TRUE(warned);
  for (const auto& bank : cyc.banks) {
    if (bank.tiles > 1) {
      EXPECT_FALSE(bank.resident_ifmap);
    }
  }
  EXPECT_GT(cyc.makespan_cycles, 0);
}

TEST(CycleSim, EventTimelineIsBoundedAndOrdered) {
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  AcceleratorConfig cfg = unconstrained();
  cfg.cycle_max_events = 100;
  const auto cyc = simulate_cycles(rep, cfg);
  EXPECT_EQ(cyc.events.size(), 100u);
  std::map<int, long> compute_end;  // per bank: last compute event end
  for (const auto& e : cyc.events) {
    EXPECT_GE(e.start_cycle, 0);
    EXPECT_GE(e.end_cycle, e.start_cycle);
    if (e.phase != TilePhase::kCompute) continue;
    // Within a bank, compute events are ordered and never overlap.
    const auto prev = compute_end.find(e.bank);
    if (prev != compute_end.end()) {
      EXPECT_GE(e.start_cycle, prev->second);
    }
    compute_end[e.bank] = e.end_cycle;
  }
  cfg.cycle_max_events = 0;
  EXPECT_TRUE(simulate_cycles(rep, cfg).events.empty());
}

TEST(CycleSim, PinnedClockIsHonored) {
  const auto rep = synthetic();
  AcceleratorConfig cfg = unconstrained();
  cfg.cycle_clock_ghz = 2.0;
  const auto cyc = simulate_cycles(rep, cfg);
  EXPECT_DOUBLE_EQ(cyc.clock_hz, 2e9);
  // One 1 us pass at 2 GHz is exactly 2000 cycles.
  EXPECT_EQ(cyc.banks[0].compute_cycles_per_tile, 2000);
}

TEST(CycleSim, Validation) {
  // Malformed inputs refuse with coded diagnostics (MN-CYC-*).
  AcceleratorReport empty;
  try {
    simulate_cycles(empty, unconstrained());
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(e.diagnostics().has_code("MN-CYC-001"));
  }

  auto bad_latency = synthetic();
  bad_latency.banks[0].pass_latency =
      std::numeric_limits<double>::quiet_NaN();
  try {
    simulate_cycles(bad_latency, unconstrained());
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(e.diagnostics().has_code("MN-CYC-002"));
  }

  auto bad_iterations = synthetic();
  bad_iterations.banks[1].iterations = -1;
  try {
    simulate_cycles(bad_iterations, unconstrained());
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(e.diagnostics().has_code("MN-CYC-002"));
  }

  AcceleratorConfig tiny = unconstrained();
  tiny.cycle_ifmap_kb = 1e-3;  // one byte: smaller than any tile
  try {
    simulate_cycles(synthetic(), tiny);
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(e.diagnostics().has_code("MN-CYC-003"));
  }

  auto huge = synthetic();
  huge.banks[0].pass_latency = 1e4;
  huge.banks[0].iterations = 1000000;
  AcceleratorConfig fast = unconstrained();
  fast.cycle_clock_ghz = 1000.0;
  try {
    simulate_cycles(huge, fast);
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(e.diagnostics().has_code("MN-CYC-004"));
  }
}

TEST(CycleSim, PureFunctionOfItsInputs) {
  // Same inputs, same schedule — byte for byte. The sweep-level
  // determinism gate lives in test_parallel_determinism.
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  AcceleratorConfig cfg = unconstrained();
  cfg.cycle_bandwidth_gbps = 0.2;
  const auto a = simulate_cycles(rep, cfg);
  const auto b = simulate_cycles(rep, cfg);
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_EQ(a.total_stall_cycles, b.total_stall_cycles);
  EXPECT_EQ(a.total_busy_cycles, b.total_busy_cycles);
  ASSERT_EQ(a.banks.size(), b.banks.size());
  for (std::size_t i = 0; i < a.banks.size(); ++i) {
    EXPECT_EQ(a.banks[i].start_cycle, b.banks[i].start_cycle);
    EXPECT_EQ(a.banks[i].finish_cycle, b.banks[i].finish_cycle);
    EXPECT_EQ(a.banks[i].fill_stall_cycles, b.banks[i].fill_stall_cycles);
  }
}

}  // namespace
}  // namespace mnsim::arch
