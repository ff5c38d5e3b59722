// Job runner of the whole-run benchmark (perfbench/README.md).
//
// One invocation is one cold batch job of one workload, the way a user
// runs `mnsim_cli --dse` or `mnsim_cli sweep`: set up the inputs, run
// the measured phase once, then check the outputs. perfbench/run.py
// starts a fresh process per job, so nothing a process-wide memo keeps
// can turn a repeat into a cache hit no user would get.
//
//   mnsim_bench <workload> --seed N --inputs DIR [--trace]
//
// Workloads: dse-fault-lenet, dse-cycle-vgg16, mc-accuracy,
// transient-rc. With --trace the obs::Tracer records the measured phase
// and the job adds per-layer metrics folded from its spans and the
// obs::Registry counters. The last line of stdout is one JSON object.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <random>
#include <regex>
#include <string>
#include <vector>

#include "accuracy/variation.hpp"
#include "check/diagnostic.hpp"
#include "dse/checkpoint.hpp"
#include "dse/shard.hpp"
#include "dse/space.hpp"
#include "nn/functional_sim.hpp"
#include "nn/parser.hpp"
#include "nn/topologies.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/mnsim.hpp"
#include "spice/crossbar_netlist.hpp"
#include "spice/mna.hpp"
#include "spice/transient.hpp"
#include "tech/interconnect.hpp"
#include "tech/memristor.hpp"

using namespace mnsim;

namespace {

// Worker threads of every parallel engine ([parallel] Threads): half of
// a 4-core host, leaving room for run.py and other tenants.
constexpr int kThreads = 2;
// Set-up takes micro- to milliseconds, so one sample is mostly noise:
// each job sets up at least this many times and for at least this long,
// and reports the median.
constexpr std::size_t kSetupMinRepeats = 5;
constexpr double kSetupMinSeconds = 0.05;
// DSE points re-evaluated serially to cross-check the parallel sweep.
constexpr int kRecheckPoints = 6;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile of unsorted samples (q in [0, 1]).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string inputs;
  bool trace = false;
};

// What one job reports. `work` is the workload's unit of throughput
// (design points, Monte-Carlo samples, simulated nanoseconds); `ops`
// counts the operations that can fail (design points, draws + trials,
// transient runs) and `ops_failed` those that did.
struct Job {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double work = 0.0;
  long ops = 0;
  long ops_failed = 0;
  double peak_rss_mb = 0.0;
  std::string digest;
  std::vector<std::string> errors;
  // obs::Registry counters at the end of the measured phase.
  std::map<std::string, long> counters;
  std::map<std::string, double> layers;

  [[nodiscard]] double counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }

  void expect(bool condition, const std::string& what) {
    if (!condition) errors.push_back(what);
  }
};

// Runs `make` repeatedly (see kSetupMinRepeats), keeps the last result
// and stores the median duration in `*setup_s`.
template <class Make>
auto timed_setup(Make make, double* setup_s) {
  std::vector<double> times;
  double total = 0.0;
  decltype(make()) out{};
  while (times.size() < kSetupMinRepeats || total < kSetupMinSeconds) {
    const auto start = Clock::now();
    out = make();
    times.push_back(seconds_since(start));
    total += times.back();
  }
  *setup_s = median(times);
  return out;
}

// High-water resident set of this process image. Not getrusage: its
// ru_maxrss carries over the parent's peak across fork + exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

// Brackets the measured phase: arms the tracer for traced jobs, zeroes
// the registry, and on stop() records wall time, peak memory and the
// registry counters and disarms the tracer, so the output checks stay
// out of the profile and the counts.
class MeasuredPhase {
 public:
  MeasuredPhase(Job& job, bool trace) : job_(job), trace_(trace) {
    obs::Registry::global().reset();
    if (trace_) {
      obs::Tracer::instance().reset();
      obs::Tracer::instance().enable();
      obs::set_thread_name("main");
    }
    start_ = Clock::now();
  }
  void stop() {
    job_.wall_s = seconds_since(start_);
    if (trace_) obs::Tracer::instance().disable();
    job_.peak_rss_mb = peak_rss_mb();
    job_.counters = obs::Registry::global().counters();
  }

 private:
  Job& job_;
  bool trace_;
  Clock::time_point start_;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Appends doubles in round-trip-exact text, for output digests.
void put(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g;", v);
  out += buf;
}

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

// ---------------------------------------------------------------- layers

// Fork-join spans: on the calling thread their self time is the wait for
// the pool's workers, whose own spans hold the work.
constexpr const char* kWaitSpans[] = {"dse.sweep", "nn.monte_carlo_network",
                                      "spice.solve_dc_batch"};

// Span self time folded per layer (the span-name prefix before the first
// '.'), without the pool waits, plus single-span lookups.
struct Profile {
  std::vector<obs::PhaseStats> stats = obs::Tracer::instance().phase_stats();

  [[nodiscard]] const obs::PhaseStats* find(const std::string& name) const {
    for (const auto& s : stats)
      if (s.name == name) return &s;
    return nullptr;
  }
  [[nodiscard]] double self_ms(const std::string& name) const {
    const auto* s = find(name);
    return s ? static_cast<double>(s->self_ns) / 1e6 : 0.0;
  }
  [[nodiscard]] double total_ms(const std::string& name) const {
    const auto* s = find(name);
    return s ? static_cast<double>(s->total_ns) / 1e6 : 0.0;
  }
  [[nodiscard]] double calls(const std::string& name) const {
    const auto* s = find(name);
    return s ? static_cast<double>(s->calls) : 0.0;
  }
  [[nodiscard]] double layer_self_ms(const std::string& layer) const {
    double ms = 0.0;
    for (const auto& s : stats) {
      const bool wait = std::any_of(
          std::begin(kWaitSpans), std::end(kWaitSpans),
          [&](const char* name) { return s.name == name; });
      if (!wait && s.name.rfind(layer + ".", 0) == 0)
        ms += static_cast<double>(s.self_ns) / 1e6;
    }
    return ms;
  }
};

// Every per-layer metric every traced job reports; workloads that do
// not reach a layer report 0 for it.
void fill_layers(Job& job, const Profile& p) {
  auto& l = job.layers;
  for (const char* layer : {"dse", "spice", "numeric", "arch", "nn",
                            "accuracy", "sim"})
    l[std::string(layer) + ".self_ms"] = p.layer_self_ms(layer);

  std::vector<double> point_ms;
  std::uint64_t sweep_ns = 0;
  for (const auto& e : obs::Tracer::instance().events()) {
    if (std::strcmp(e.name, "dse.design_point") == 0)
      point_ms.push_back(static_cast<double>(e.duration_ns) / 1e6);
    else if (std::strcmp(e.name, "dse.sweep") == 0)
      sweep_ns += e.duration_ns;
  }
  double busy_ms = 0.0;
  for (double ms : point_ms) busy_ms += ms;
  l["dse.point_ms_p50"] = percentile(point_ms, 0.50);
  l["dse.point_ms_p95"] = percentile(point_ms, 0.95);
  l["dse.busy_frac"] =
      sweep_ns ? busy_ms * 1e6 / (kThreads * static_cast<double>(sweep_ns))
               : 0.0;
  l["dse.wait_ms"] = p.self_ms("dse.sweep");
  l["dse.report_ms"] = p.total_ms("dse.bench_report");

  l["spice.assemble_ms"] = p.self_ms("spice.assemble");
  l["spice.preflight_ms"] = p.self_ms("spice.preflight");
  l["spice.preflights"] = p.calls("spice.preflight");
  l["spice.build_netlist_ms"] = p.self_ms("spice.build_netlist");
  for (const char* c : {"spice.solves", "spice.newton_iterations",
                        "spice.cache_hits", "spice.warm_starts",
                        "spice.dc_batch_entries"})
    l[c] = job.counter(c);
  l["spice.transient_ms"] = p.total_ms("spice.bench_transient");

  // The solver counters are published under spice.* by solve_dc, but
  // the work they count happens in the numeric layer.
  l["numeric.schur_solves"] = job.counter("spice.schur_solves");
  l["numeric.schur_iterations"] = job.counter("spice.schur_iterations");
  l["numeric.cg_iterations"] = job.counter("spice.cg_iterations");
  l["numeric.lu_fallbacks"] = job.counter("spice.lu_fallbacks");
  l["numeric.factor_reuses"] = job.counter("spice.factor_reuses");

  l["arch.cycle_sim_ms"] = p.total_ms("arch.cycle_sim");
  l["arch.banks"] = job.counter("arch.banks");
  l["cycle.tiles"] = job.counter("cycle.tiles");
  l["arch.cycle_ns_per_tile"] =
      l["cycle.tiles"] > 0 ? l["arch.cycle_sim_ms"] * 1e6 / l["cycle.tiles"]
                           : 0.0;

  l["nn.mc_ms"] = p.total_ms("nn.monte_carlo_network");
  l["nn.mc_draws"] = job.counter("nn.mc_draws");
  l["accuracy.variation_ms"] = p.total_ms("accuracy.bench_variation");
  l["fault.faults_injected"] = job.counter("fault.faults_injected");

  // Workload-specific values; the workloads that have them overwrite.
  for (const char* k : {"dse.points", "dse.quarantined",
                        "dse.quarantined.MN-CFG-004",
                        "dse.quarantined.MN-CYC-003",
                        "dse.quarantined.other", "spice.solves_per_point",
                        "spice.transient_steps", "spice.transient_us_per_step",
                        "accuracy.variation_trials"})
    l[k] = 0.0;
}

// ------------------------------------------------------------------- dse

struct DseInputs {
  nn::Network network;
  arch::AcceleratorConfig config;
  dse::DesignSpace space;
};

std::string mn_code(const std::string& message) {
  static const std::regex code("MN-[A-Z]+-[0-9]+");
  std::smatch m;
  return std::regex_search(message, m, code) ? m.str() : std::string();
}

// dse-fault-lenet: LeNet under the fault circuit check over the paper's
// default space. dse-cycle-vgg16: VGG-16 under Table-I defaults with the
// cycle engine on over the CNN space. Both run the sweep without a
// journal and then render the sweep report.
Job run_dse(const Args& args, bool fault_lenet) {
  Job job;
  const DseInputs in = timed_setup(
      [&] {
        DseInputs d;
        if (fault_lenet) {
          d.network = nn::parse_network_file(args.inputs + "/lenet.ini");
          d.config = sim::load_config(args.inputs + "/dse_fault.ini");
          d.config.fault.seed = static_cast<std::uint32_t>(args.seed);
          d.space = dse::DesignSpace::paper_default();
        } else {
          d.network = nn::make_vgg16();
          d.config.cycle_enabled = true;
          d.config.parallel_threads = kThreads;
          d.space = dse::DesignSpace::paper_cnn();
        }
        return d;
      },
      &job.setup_s);
  const dse::SweepOptions options = dse::SweepOptions::from_config(in.config);

  MeasuredPhase phase(job, args.trace);
  const dse::SweepResult sweep =
      dse::run_sweep(in.network, in.config, in.space, options);
  std::string report;
  {
    obs::Span span("dse.bench_report");
    report = dse::sweep_report_json(sweep, in.network);
  }
  phase.stop();

  // Every point is evaluated, or quarantined with an MN code; evaluated
  // points have finite metrics and are feasible exactly when they meet
  // the constraints.
  const std::vector<dse::DesignPoint> points = in.space.enumerate();
  std::map<std::string, long> quarantined;
  long evaluated = 0;
  long feasible = 0;
  job.expect(sweep.records.size() == points.size(),
             "sweep returned " + std::to_string(sweep.records.size()) +
                 " of " + std::to_string(points.size()) + " points");
  for (std::size_t i = 0; i < sweep.records.size(); ++i) {
    const dse::CheckpointRecord& r = sweep.records[i];
    const dse::EvaluatedDesign& d = r.design;
    const std::string where = "point " + std::to_string(i);
    job.expect(r.index == i, where + ": out of order");
    if (!d.evaluated) {
      const std::string code = mn_code(d.failure);
      job.expect(!code.empty(), where + ": quarantined without an MN code");
      job.expect(!d.feasible, where + ": quarantined but feasible");
      ++quarantined[code.empty() ? "none" : code];
      continue;
    }
    ++evaluated;
    const dse::DesignMetrics& m = d.metrics;
    job.expect(m.area > 0 && std::isfinite(m.area) && m.power > 0 &&
                   std::isfinite(m.power) && m.latency > 0 &&
                   std::isfinite(m.latency) &&
                   m.sample_latency >= m.latency &&
                   std::isfinite(m.sample_latency) &&
                   m.energy_per_sample > 0 &&
                   std::isfinite(m.energy_per_sample) &&
                   finite_nonneg(m.max_error_rate) &&
                   finite_nonneg(m.avg_error_rate) &&
                   finite_nonneg(m.backing_traffic) &&
                   m.stall_fraction >= 0 && m.stall_fraction <= 1,
               where + ": metric out of range");
    job.expect(d.feasible == options.constraints.admits(m),
               where + ": feasibility disagrees with the constraints");
    if (d.feasible) ++feasible;
  }
  job.expect(feasible == sweep.result.feasible_count,
             "feasible count disagrees with the records");

  // A seed-chosen sample re-evaluated on this thread alone must match
  // the parallel sweep bit for bit (%.17g records round-trip exactly).
  std::mt19937_64 rng(args.seed);
  for (int k = 0; k < kRecheckPoints && !sweep.records.empty(); ++k) {
    const dse::CheckpointRecord& swept =
        sweep.records[rng() % sweep.records.size()];
    const std::string where = "point " + std::to_string(swept.index);
    try {
      dse::CheckpointRecord again = swept;
      again.design = dse::evaluate_design(in.network, in.config,
                                          swept.design.point,
                                          options.constraints);
      job.expect(swept.design.evaluated &&
                     dse::encode_checkpoint_record(again) ==
                         dse::encode_checkpoint_record(swept),
                 where + ": serial re-evaluation differs from the sweep");
    } catch (const std::exception& e) {
      job.expect(!swept.design.evaluated && swept.design.failure == e.what(),
                 where + ": serial re-evaluation failed differently: " +
                     e.what());
    }
  }

  job.digest = hex64(dse::fnv1a64(report));
  job.work = static_cast<double>(sweep.records.size());
  job.ops = static_cast<long>(sweep.records.size());
  job.ops_failed = sweep.quarantined_count;
  if (args.trace) {
    fill_layers(job, Profile{});
    auto& l = job.layers;
    l["dse.points"] = static_cast<double>(sweep.records.size());
    l["dse.quarantined"] = static_cast<double>(sweep.quarantined_count);
    for (const auto& [code, n] : quarantined) {
      const std::string key = "dse.quarantined." + code;
      (l.count(key) ? l[key] : l["dse.quarantined.other"]) +=
          static_cast<double>(n);
    }
    l["spice.solves_per_point"] =
        evaluated ? l["spice.solves"] / static_cast<double>(evaluated) : 0.0;
  }
  return job;
}

// ----------------------------------------------------------- mc-accuracy

struct McInputs {
  nn::Network network;
  arch::AcceleratorConfig config;
  nn::MonteCarloConfig mc;
  accuracy::CrossbarErrorInputs array;
  accuracy::VariationMcOptions variation;
};

// The --validate-mc path at a larger draw count: per-bank average error
// from the behavior-level simulation feeds the functional network
// Monte-Carlo; then a circuit-level variation Monte-Carlo on one array.
Job run_mc(const Args& args) {
  Job job;
  const McInputs in = timed_setup(
      [&] {
        McInputs d;
        d.network = nn::parse_network_file(args.inputs + "/lenet.ini");
        d.config.parallel_threads = kThreads;
        d.mc.samples = 20;
        d.mc.weight_draws = 20;
        d.mc.seed = static_cast<std::uint32_t>(args.seed);
        d.mc.signal_bits = d.config.output_bits;
        d.mc.threads = kThreads;
        d.array.rows = 32;
        d.array.cols = 32;
        d.array.device = tech::default_rram();
        d.array.device.sigma = 0.1;
        d.variation.trials = 256;
        d.variation.seed = static_cast<std::uint32_t>(args.seed + 1);
        d.variation.threads = kThreads;
        return d;
      },
      &job.setup_s);

  MeasuredPhase phase(job, args.trace);
  arch::AcceleratorReport report;
  {
    obs::Span span("sim.bench_simulate");
    report = sim::simulate(in.network, in.config);
  }
  std::vector<double> eps;
  for (const auto& bank : report.banks) eps.push_back(bank.epsilon_average);
  const nn::MonteCarloResult mc =
      nn::run_monte_carlo_network(in.network, eps, in.mc);
  accuracy::VariationMcResult var;
  {
    obs::Span span("accuracy.bench_variation");
    var = accuracy::variation_monte_carlo(in.array, in.variation);
  }
  phase.stop();

  job.expect(!eps.empty() && std::all_of(eps.begin(), eps.end(),
                                         finite_nonneg),
             "per-bank epsilon out of range");
  job.expect(std::isfinite(mc.relative_accuracy) &&
                 mc.relative_accuracy >= 0 && mc.relative_accuracy <= 1,
             "relative accuracy out of [0, 1]");
  job.expect(finite_nonneg(mc.avg_error_rate) &&
                 finite_nonneg(mc.max_error_rate) &&
                 mc.avg_error_rate <= mc.max_error_rate &&
                 mc.max_error_rate <= 1,
             "network error rates out of range");
  job.expect(mc.seed == in.mc.seed, "MC seed not echoed");
  const auto& s = var.samples;
  job.expect(s.size() == static_cast<std::size_t>(in.variation.trials) &&
                 std::all_of(s.begin(), s.end(), finite_nonneg),
             "variation samples missing or out of range");
  if (!s.empty()) {
    double sum = 0.0;
    for (double v : s) sum += v;
    const double mean = sum / static_cast<double>(s.size());
    job.expect(var.max_error == *std::max_element(s.begin(), s.end()),
               "variation max is not the largest sample");
    job.expect(std::abs(var.mean_error - mean) <= 1e-12 * mean,
               "variation mean is not the sample mean");
  }
  job.expect(var.mean_error <= var.closed_form_bound,
             "variation mean exceeds the Eq. 16 bound");
  job.expect(var.cache_hits > 0, "variation trials never reused the topology");

  std::string digest_input;
  for (double e : eps) put(digest_input, e);
  for (double v : {mc.relative_accuracy, mc.avg_error_rate,
                   mc.max_error_rate, var.mean_error, var.max_error,
                   var.closed_form_bound})
    put(digest_input, v);
  for (double v : s) put(digest_input, v);
  job.digest = hex64(dse::fnv1a64(digest_input));
  job.work = in.mc.weight_draws * in.mc.samples + in.variation.trials;
  job.ops = in.mc.weight_draws + in.variation.trials;
  job.ops_failed = static_cast<long>(job.counter("spice.nonconverged_solves"));
  if (args.trace) {
    fill_layers(job, Profile{});
    job.layers["accuracy.variation_trials"] =
        static_cast<double>(var.samples.size());
  }
  return job;
}

// ---------------------------------------------------------- transient-rc

struct RcCircuit {
  spice::Netlist netlist;
  spice::NodeId probe = 0;  // sense node of the far column
};

// RC crossbars of the interconnect ablation: 8x8 at 45 and 18 nm and
// 16x16 at 45 nm, every cell at R_min, wire capacitance on every tap.
Job run_transient(const Args& args) {
  Job job;
  const std::vector<RcCircuit> circuits = timed_setup(
      [] {
        const auto device = tech::default_rram();
        std::vector<RcCircuit> out;
        for (const auto& [size, node] :
             {std::pair{8, 45}, std::pair{8, 18}, std::pair{16, 45}}) {
          const auto wires = tech::interconnect_tech(node);
          auto spec = spice::CrossbarSpec::uniform(
              size, size, device, wires.segment_resistance.value(), 60.0,
              device.r_min.value());
          spec.segment_capacitance = wires.segment_capacitance.value();
          std::vector<spice::NodeId> columns;
          RcCircuit c;
          c.netlist = spice::build_crossbar_netlist(spec, &columns);
          c.probe = columns.back();
          out.push_back(std::move(c));
        }
        return out;
      },
      &job.setup_s);
  spice::TransientOptions options;
  options.time_step = 20e-12;
  options.end_time = 30e-9;

  MeasuredPhase phase(job, args.trace);
  std::vector<spice::TransientResult> results;
  for (const RcCircuit& c : circuits) {
    obs::Span span("spice.bench_transient");
    results.push_back(spice::solve_transient(c.netlist, {c.probe}, options));
  }
  phase.stop();

  std::string digest_input;
  double steps = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const spice::TransientResult& r = results[i];
    const std::string where = "circuit " + std::to_string(i);
    job.work += r.time.empty() ? 0.0 : r.time.back() * 1e9;
    steps += r.time.empty() ? 0.0 : static_cast<double>(r.time.size() - 1);
    if (!r.converged) ++job.ops_failed;
    job.expect(r.converged, where + ": transient did not converge");
    if (r.probe_voltages.size() != 1 || r.probe_voltages[0].empty() ||
        r.probe_voltages[0].size() != r.time.size()) {
      job.expect(false, where + ": probe waveform missing");
      continue;
    }
    // At 30 ns the wire RC (ps scale) has long settled: the final sample
    // is the DC operating point of the same netlist.
    const double final_v = r.probe_voltages[0].back();
    const double dc_v = spice::solve_dc(circuits[i].netlist)
                            .voltage(circuits[i].probe);
    job.expect(std::abs(final_v - dc_v) <= 1e-6 * std::abs(dc_v),
               where + ": final probe voltage differs from the DC solve");
    for (double v : r.probe_voltages[0]) put(digest_input, v);
  }
  job.digest = hex64(dse::fnv1a64(digest_input));
  job.ops = static_cast<long>(results.size());
  if (args.trace) {
    fill_layers(job, Profile{});
    job.layers["spice.transient_steps"] = steps;
    job.layers["spice.transient_us_per_step"] =
        steps > 0 ? job.layers["spice.transient_ms"] * 1e3 / steps : 0.0;
  }
  return job;
}

// ------------------------------------------------------------------ main

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_job(const Job& job) {
  std::string out = "{\"ok\": ";
  out += job.errors.empty() ? "true" : "false";
  out += ", \"errors\": [";
  for (std::size_t i = 0; i < job.errors.size(); ++i)
    out += (i ? ", " : "") + json_string(job.errors[i]);
  out += "], \"setup_s\": " + json_number(job.setup_s);
  out += ", \"wall_s\": " + json_number(job.wall_s);
  out += ", \"work\": " + json_number(job.work);
  out += ", \"ops\": " + std::to_string(job.ops);
  out += ", \"ops_failed\": " + std::to_string(job.ops_failed);
  out += ", \"peak_rss_mb\": " + json_number(job.peak_rss_mb);
  out += ", \"digest\": " + json_string(job.digest);
  out += ", \"layers\": {";
  bool first = true;
  for (const auto& [name, value] : job.layers) {
    out += (first ? "" : ", ") + json_string(name) + ": " + json_number(value);
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

int usage() {
  std::fputs(
      "usage: mnsim_bench <dse-fault-lenet|dse-cycle-vgg16|mc-accuracy|"
      "transient-rc> --seed N --inputs DIR [--trace]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value.empty() || value.find_first_not_of("0123456789") !=
                               std::string::npos)
        return usage();
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (arg == "--inputs" && i + 1 < argc) {
      args.inputs = argv[++i];
    } else if (arg == "--trace") {
      args.trace = true;
    } else if (args.workload.empty() && arg[0] != '-') {
      args.workload = arg;
    } else {
      return usage();
    }
  }
  if (!have_seed || args.inputs.empty()) return usage();

  try {
    Job job;
    if (args.workload == "dse-fault-lenet") {
      job = run_dse(args, true);
    } else if (args.workload == "dse-cycle-vgg16") {
      job = run_dse(args, false);
    } else if (args.workload == "mc-accuracy") {
      job = run_mc(args);
    } else if (args.workload == "transient-rc") {
      job = run_transient(args);
    } else {
      return usage();
    }
    print_job(job);
    return job.errors.empty() ? 0 : 1;
  } catch (const check::CheckError& e) {
    std::fputs(e.diagnostics().render_text().c_str(), stderr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mnsim_bench: %s\n", e.what());
  }
  return 1;
}
