// Netlist structural analysis (`mnsim check`, netlist pass).
//
// Inspects a spice::Netlist without solving it and reports every reason
// the DC operating-point solve could fail or mislead:
//   * construction invariants — dangling node ids, non-positive element
//     values, shorted elements, sources on ground, duplicate names
//     (MN-NET-006..010) — re-checked here so imported or hand-assembled
//     netlists share one validation path with constructed ones,
//   * source conflicts — a node pinned by two voltage sources, reported
//     with *which* sources collide (MN-NET-003),
//   * DC connectivity — union-find over the conductive elements
//     (resistors, memristors, source pins; capacitors are open at DC):
//     an island with no path to ground or to any source makes the
//     reduced conductance matrix a singular Laplacian block even though
//     every structural diagonal exists (MN-NET-001/002),
//   * structural MNA singularity — every conductive element stamps the
//     diagonal of each unknown it touches, so the stamped pattern of the
//     reduced system is structurally singular exactly at an unpinned node
//     no resistor or memristor touches (e.g. one reached only through
//     capacitors), for *any* element values, before factorization
//     (MN-NET-004),
//   * conditioning plausibility — conductance spread beyond
//     `conductance_spread_warning` predicts an ill-conditioned system
//     (MN-NET-005), and a netlist with no sources solves to all-zero
//     voltages (MN-NET-011).
//
// spice::solve_dc runs this analysis as its pre-flight (DcOptions::
// preflight) and refuses-with-diagnosis via check::CheckError instead of
// failing numerically; `Netlist::validate()` wraps the invariant subset.
// The pre-flight runs with `warnings = false` (it throws only on
// errors); on a refusal it re-runs the default check_netlist and throws
// that list, so the CheckError is the same as a default check's. A warm
// spice::MnaCache skips both the pre-flight and validate().
//
// A warm cache vouches only for the structure it was primed on: it keeps
// the netlist's node and element counts, and a solve whose netlist no
// longer matches them is checked again.
//
// Cost: the happy path builds no string per element — labels are built
// only when a diagnostic fires, names are counted only under `warnings`,
// and the structural-rank pass is one flag test per node.
#pragma once

#include "check/diagnostic.hpp"
#include "spice/netlist.hpp"

namespace mnsim::check {

struct NetlistCheckOptions {
  bool connectivity = true;       // union-find floating-island analysis
  bool structural_rank = true;    // structural-singularity pass (004)
  bool warnings = true;           // plausibility warnings (005/010/011)
  double conductance_spread_warning = 1e12;  // max g / min g threshold
};

// Full structural analysis; never throws on bad structure (that is the
// caller's decision), only on internal misuse.
[[nodiscard]] DiagnosticList check_netlist(
    const spice::Netlist& netlist, const NetlistCheckOptions& options = {});

// The invariant subset Netlist::validate() wraps: element/node sanity and
// source-conflict detection, no graph passes.
[[nodiscard]] DiagnosticList check_netlist_invariants(
    const spice::Netlist& netlist);

}  // namespace mnsim::check
