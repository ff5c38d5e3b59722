// Modified nodal analysis with Newton iteration.
//
// Solves the DC operating point of a Netlist: node voltages of the
// resistive network with nonlinear memristors. Grounded ideal voltage
// sources pin their nodes, so the unknowns are the free node voltages and
// the system is the (symmetric positive definite) reduced conductance
// matrix — solved with Jacobi-preconditioned conjugate gradients. The
// nonlinear elements are Newton-linearized with the standard companion
// model (conductance = dI/dV at the previous iterate, plus an equivalent
// current source).
//
// This is the same equation system a general-purpose SPICE solves for
// this circuit class; it is the repository's stand-in for the paper's
// HSPICE baseline (DESIGN.md, substitution table).
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <vector>

#include "numeric/schur.hpp"
#include "numeric/sparse.hpp"
#include "spice/netlist.hpp"

namespace mnsim::spice {

struct DcOptions {
  double newton_tolerance = 1e-9;   // max |dV| between iterations [V]
  int max_newton_iterations = 60;
  double cg_tolerance = 1e-12;
  std::size_t cg_max_iterations = 0;  // 0 = auto (4n + 100)

  // Graceful-degradation ladder for the inner linear solves: a stalled
  // CG is retried warm-started with a larger budget, then falls back to
  // dense LU (bounded by dense_fallback_limit unknowns). With the whole
  // ladder disabled a stalled solve throws, as the historical behavior.
  bool allow_cg_retry = true;
  bool allow_dense_fallback = true;
  std::size_t dense_fallback_limit = 4096;

  // Structure-exploiting rung: when the netlist carries wire-chain
  // metadata (WireStructure, attached by build_crossbar_netlist), try
  // the bipartite Schur solver before generic CG. Acceptance is judged
  // on the true residual, so disabling this only costs performance.
  // Config key: [solver] Structured.
  bool allow_schur = true;

  // Newton step damping: when an iterate comes back non-finite or the
  // update grows instead of shrinking, the step is halved and re-applied,
  // at most `max_damping_retries` times per solve.
  int max_damping_retries = 8;

  // Semantic pre-flight (check/netlist_check.hpp): run the structural
  // analyzer (connectivity via union-find, structural rank of the stamped
  // pattern) before assembling anything and throw check::CheckError on
  // a netlist that can only fail numerically. The pre-flight runs
  // errors-only; a refused netlist is re-checked with the default
  // options, so the CheckError carries the full list, warnings included.
  // With preflight off, a solve runs Netlist::validate() instead. A warm
  // MnaCache (pattern_valid) whose vetted counts still match the netlist
  // skips both checks — the structure was vetted when the pattern was
  // primed — so repeated sweeps, batch entries and transient steps pay
  // the cost once per structure.
  bool preflight = true;
};

// What the solver actually did — threaded up through DcResult,
// CrossbarSolution and the accelerator report so degraded (retried,
// fallback, damped, non-converged) solves are visible, never silent.
struct SolverDiagnostics {
  int newton_iterations = 0;
  double newton_residual = 0.0;   // final max |dV| of the Newton loop [V]
  long cg_iterations = 0;         // summed over all linear solves
  int cg_retries = 0;             // warm-started CG retries taken
  int lu_fallbacks = 0;           // dense-LU fallback solves taken
  int damped_steps = 0;           // halved Newton steps
  double linear_residual = 0.0;   // worst relative residual of any solve
  int faults_injected = 0;        // defects applied to the netlist's array
  // Sweep-acceleration bookkeeping (docs/PERFORMANCE.md): assemblies
  // that refilled a cached CSR sparsity pattern instead of rebuilding
  // it, and linear solves that warm-started CG from a previous solution
  // of the same topology.
  long cache_hits = 0;
  long warm_starts = 0;
  // Structure-exploiting solver bookkeeping: linear solves served by the
  // bipartite Schur rung, PCG iterations it spent, attempts it rejected
  // back to the generic ladder, and solves that reused a prefactored
  // Schur handle built once for a whole batch (solve_dc_batch).
  long schur_solves = 0;
  long schur_iterations = 0;
  int schur_rejects = 0;
  long factor_reuses = 0;
  // Worst diagonal-growth condition estimate reported by the dense
  // direct rung (0 when that rung never factored a matrix).
  double condition_estimate = 0.0;
  // Worker threads that produced this (aggregated) report; 1 for a
  // single solve, the sweep's pool size after absorb() across a
  // parallel sweep.
  int threads = 1;

  [[nodiscard]] bool degraded() const {
    return cg_retries > 0 || lu_fallbacks > 0 || damped_steps > 0;
  }
  // Aggregation for bank-/accelerator-level reporting.
  void absorb(const SolverDiagnostics& other);
};

// Reusable per-topology solver state for repeated DC solves of netlists
// sharing one structure (same nodes, same element connectivity, values
// free to change): the CSR sparsity pattern of the reduced conductance
// matrix, refilled in place per assembly, and an optional warm-start
// voltage vector (by node id) used as the Newton/CG starting iterate.
//
// One cache serves one structure; solve_dc falls back to a full rebuild
// (and re-primes the cache) whenever the pattern no longer matches. A
// cache must not be shared between threads — sweep engines keep one per
// worker, cloned from a serially primed master so results stay
// schedule-independent (see util/parallel.hpp's determinism contract:
// warm_start_voltages is caller-managed and never auto-updated).
//
// Deliberately carries no mutex and no MN_GUARDED_BY annotations: the
// thread-safety story is compartmentalization, not locking. Each worker
// owns its clone outright, so the hot refill path stays synchronization
// free; the worker-slot indexing that enforces this in the batch solver
// is checked by mnsim-analyze's parallel-capture rule (the compile-time
// capability layer in util/thread_safety.hpp covers the *locked* shared
// state; this struct is the documented lock-free counterpart).
struct MnaCache {
  bool pattern_valid = false;
  numeric::CsrMatrix matrix;             // pattern + last stamped values
  std::vector<double> warm_start_voltages;  // by node id; empty = cold
  long cache_hits = 0;    // assemblies that reused the pattern
  long warm_starts = 0;   // solves that started from warm_start_voltages
  // Node count and resistor/memristor/source/capacitor counts of the
  // netlist last checked through this cache. The Netlist API only appends
  // elements and checks every value it sets, so a structure change shows
  // up here; a warm solve whose netlist no longer matches is re-checked.
  std::array<std::size_t, 5> vetted_counts{};
  // Wire-structure partition translated to unknown indices (empty when
  // the netlist carries no usable structure); recomputed whenever the
  // pattern is re-primed, like the CSR pattern itself.
  bool partition_valid = false;
  numeric::BipartitePartition partition;
};

struct DcResult {
  std::vector<double> node_voltages;  // index = NodeId (0 = ground = 0 V)
  int newton_iterations = 0;
  // True only when the Newton loop met newton_tolerance; a run that
  // exhausted max_newton_iterations reports false with the final update
  // size in diagnostics.newton_residual.
  bool converged = false;
  SolverDiagnostics diagnostics;

  [[nodiscard]] double voltage(NodeId n) const { return node_voltages[n]; }
};

// Solves the DC operating point. When `cache` is non-null the CSR
// sparsity pattern is reused across calls (values-only refill) and the
// solve warm-starts from cache->warm_start_voltages when set; the
// corresponding cache_hits / warm_starts land in the result's
// diagnostics. Passing nullptr keeps the historical one-shot behavior
// (the pattern is still reused across Newton iterations internally).
DcResult solve_dc(const Netlist& netlist, const DcOptions& options = {},
                  MnaCache* cache = nullptr);

// --- batched DC solves ------------------------------------------------
//
// A sweep-shaped workload — many solves of one topology with varying
// element values — pays per-solve overheads N times through the scalar
// API: preflight, pattern priming, and (for the structured rung) Schur
// extraction + chain factorization. solve_dc_batch amortizes them:
// preflight and assembly pattern are primed once, every entry is served
// from a worker-cloned cache, and when the batch provably shares one
// conductance matrix (linear memristors, no per-entry state overrides)
// the Schur factorization is built once and reused for every entry.
//
// Determinism: results are bit-identical to N independent solve_dc
// calls (each with a fresh cache primed on the base netlist and the
// same warm-start vector) at any thread count. Entries never see each
// other's values, warm starts come only from the fixed base reference,
// and the factor-reuse fast path is decided statically from the batch
// shape — never from per-worker history — so per-entry results and
// diagnostics are schedule-independent.

// Value-only overrides for one batch entry; empty vectors keep the base
// netlist's values. Non-empty vectors must match the base element
// counts exactly (sources / memristors, in insertion order).
struct DcBatchEntry {
  std::vector<double> source_voltages;
  std::vector<double> memristor_states;
};

struct DcBatchOptions {
  DcOptions dc;
  int threads = 1;  // 0 = all hardware threads
  // Warm-start reference by node id (typically the base operating
  // point); applied identically to every entry. Empty = cold starts.
  std::vector<double> warm_start_voltages;
};

// Streaming form: `visit(index, netlist, result)` runs once per entry
// with the worker's netlist programmed to that entry's values — use it
// to reduce (column outputs, power) without retaining every full
// DcResult. Called concurrently for distinct indices; it must be safe
// for that (e.g. write to a preallocated slot per index).
void solve_dc_batch_visit(
    const Netlist& base, const std::vector<DcBatchEntry>& entries,
    const DcBatchOptions& options,
    const std::function<void(std::size_t, const Netlist&, const DcResult&)>&
        visit);

// Collecting form: result[i] corresponds to entries[i].
std::vector<DcResult> solve_dc_batch(const Netlist& base,
                                     const std::vector<DcBatchEntry>& entries,
                                     const DcBatchOptions& options = {});

// Current through a memristor element at the solved operating point
// (positive a -> b); honours the netlist's linear_memristors flag.
double memristor_current(const Netlist& netlist, const MemristorElement& m,
                         const DcResult& dc);

// Total power delivered by all voltage sources at the operating point
// (equals the total dissipation of the resistive network).
double total_source_power(const Netlist& netlist, const DcResult& dc);

}  // namespace mnsim::spice
