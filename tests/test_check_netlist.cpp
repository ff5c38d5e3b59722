// Golden tests for the netlist structural analyzer: one test per MN-NET
// diagnostic code, the exact text of the invariant diagnostics, plus the
// solve_dc pre-flight (refuse-with-diagnosis before factorization, the
// same list as a default check) and the Netlist::validate() wrapper.
#include "check/netlist_check.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "spice/mna.hpp"
#include "spice/netlist.hpp"
#include "spice/transient.hpp"

namespace mnsim::spice {

// Injects raw elements past the adders' eager validation so the
// defense-in-depth invariant diagnostics stay reachable (see the friend
// declaration in netlist.hpp).
class NetlistTestPeer {
 public:
  static void push_resistor(Netlist& nl, NodeId a, NodeId b, double ohms,
                            std::string name = "raw") {
    nl.resistors_.push_back({a, b, ohms, std::move(name)});
  }
  static void push_memristor(Netlist& nl, NodeId a, NodeId b, double r_state,
                             std::string name = "raw") {
    nl.memristors_.push_back({a, b, r_state, std::move(name)});
  }
  static void push_capacitor(Netlist& nl, NodeId a, NodeId b, double farads,
                             std::string name = "raw") {
    nl.capacitors_.push_back({a, b, farads, std::move(name)});
  }
  static void push_source(Netlist& nl, NodeId node, double volts,
                          std::string name = "raw") {
    nl.sources_.push_back({node, volts, std::move(name)});
  }
};

}  // namespace mnsim::spice

namespace mnsim::check {
namespace {

using spice::kGround;
using spice::Netlist;
using spice::NetlistTestPeer;
using spice::NodeId;

// A healthy driven divider: source -> n1 -R- n2 -R- ground.
Netlist healthy() {
  Netlist nl;
  const NodeId n1 = nl.add_node();
  const NodeId n2 = nl.add_node();
  nl.add_source(n1, 1.0, "drive");
  nl.add_resistor(n1, n2, 100.0, "top");
  nl.add_resistor(n2, kGround, 100.0, "bottom");
  return nl;
}

TEST(NetlistCheck, HealthyNetlistIsClean) {
  EXPECT_TRUE(check_netlist(healthy()).empty());
}

// MN-NET-001: island with elements but no DC path to ground.
TEST(NetlistCheck, FloatingIslandIsDiagnosed) {
  Netlist nl = healthy();
  const NodeId a = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_resistor(a, b, 50.0, "island");
  const DiagnosticList diags = check_netlist(nl);
  EXPECT_TRUE(diags.has_code("MN-NET-001"));
  EXPECT_EQ(diags.error_count(), 2u);  // both island nodes reported
}

// MN-NET-002: allocated node with nothing attached.
TEST(NetlistCheck, UnconnectedNodeIsDiagnosed) {
  Netlist nl = healthy();
  (void)nl.add_node();
  const DiagnosticList diags = check_netlist(nl);
  EXPECT_TRUE(diags.has_code("MN-NET-002"));
}

// MN-NET-003: two sources pinning one node, named in the message.
TEST(NetlistCheck, ConflictingSourcesAreNamed) {
  Netlist nl = healthy();
  nl.add_source(1, 2.0, "second");
  const DiagnosticList diags = check_netlist_invariants(nl);
  ASSERT_TRUE(diags.has_code("MN-NET-003"));
  const auto& d = diags.items()[0];
  EXPECT_NE(d.message.find("'drive'"), std::string::npos);
  EXPECT_NE(d.message.find("'second'"), std::string::npos);
}

// MN-NET-004: a node stamped by no conductive element is structurally
// singular for any values (capacitors are open at DC). Connectivity is
// disabled so the structural-rank pass reports it alone.
TEST(NetlistCheck, CapacitorOnlyNodeIsStructurallySingular) {
  Netlist nl = healthy();
  const NodeId c = nl.add_node();
  nl.add_capacitor(c, kGround, 1e-15, "hang");
  NetlistCheckOptions options;
  options.connectivity = false;
  const DiagnosticList diags = check_netlist(nl, options);
  EXPECT_TRUE(diags.has_code("MN-NET-004"));
  // The union-find pass reaches the same verdict through connectivity.
  EXPECT_TRUE(check_netlist(nl).has_code("MN-NET-001"));
}

// MN-NET-005: extreme conductance spread predicts ill-conditioning.
TEST(NetlistCheck, ConductanceSpreadWarns) {
  Netlist nl = healthy();
  nl.add_resistor(1, kGround, 1e15, "huge");
  const DiagnosticList diags = check_netlist(nl);
  EXPECT_TRUE(diags.has_code("MN-NET-005"));
  EXPECT_FALSE(diags.has_errors());
}

// MN-NET-006: element referencing an unallocated node id.
TEST(NetlistCheck, DanglingNodeIdIsDiagnosed) {
  Netlist nl = healthy();
  NetlistTestPeer::push_resistor(nl, 1, 99, 100.0);
  EXPECT_TRUE(check_netlist_invariants(nl).has_code("MN-NET-006"));
}

// MN-NET-007: non-positive element value.
TEST(NetlistCheck, NonPositiveResistanceIsDiagnosed) {
  Netlist nl = healthy();
  NetlistTestPeer::push_resistor(nl, 1, kGround, 0.0);
  EXPECT_TRUE(check_netlist_invariants(nl).has_code("MN-NET-007"));
}

// MN-NET-008: element shorting a node to itself.
TEST(NetlistCheck, ShortedElementIsDiagnosed) {
  Netlist nl = healthy();
  NetlistTestPeer::push_resistor(nl, 2, 2, 100.0);
  EXPECT_TRUE(check_netlist_invariants(nl).has_code("MN-NET-008"));
}

// MN-NET-009: a source pinning the ground node.
TEST(NetlistCheck, SourceOnGroundIsDiagnosed) {
  Netlist nl = healthy();
  NetlistTestPeer::push_source(nl, kGround, 1.0);
  EXPECT_TRUE(check_netlist_invariants(nl).has_code("MN-NET-009"));
}

// MN-NET-010: duplicate names within a kind warn; across kinds they are
// fine (a deck renders R1 vs V1 unambiguously).
TEST(NetlistCheck, DuplicateNamesWarnPerKind) {
  Netlist nl = healthy();
  nl.add_resistor(1, kGround, 100.0, "top");  // second resistor 'top'
  const DiagnosticList diags = check_netlist(nl);
  EXPECT_TRUE(diags.has_code("MN-NET-010"));
  EXPECT_FALSE(diags.has_errors());

  Netlist cross;
  const NodeId n1 = cross.add_node();
  cross.add_source(n1, 1.0, "1");
  cross.add_resistor(n1, kGround, 100.0, "1");
  EXPECT_FALSE(check_netlist(cross).has_code("MN-NET-010"));
}

// MN-NET-011: elements but no drive — the DC answer is all zeros.
TEST(NetlistCheck, SourcelessNetlistWarns) {
  Netlist nl;
  const NodeId n1 = nl.add_node();
  nl.add_resistor(n1, kGround, 100.0);
  const DiagnosticList diags = check_netlist(nl);
  EXPECT_TRUE(diags.has_code("MN-NET-011"));
  EXPECT_FALSE(diags.has_errors());
}

// The acceptance-criteria scenario: a deliberately singular netlist is
// refused by the pre-flight before MnaSolver attempts factorization.
TEST(NetlistCheck, SolveDcRefusesWithDiagnosisBeforeFactorizing) {
  Netlist nl = healthy();
  const NodeId a = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_resistor(a, b, 50.0, "island");
  try {
    (void)spice::solve_dc(nl);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_TRUE(e.diagnostics().has_code("MN-NET-001"));
  }
}

TEST(NetlistCheck, SolveDcPreflightCanBeDisabled) {
  Netlist nl = healthy();
  spice::DcOptions options;
  options.preflight = false;
  const auto dc = spice::solve_dc(nl, options);
  EXPECT_NEAR(dc.voltage(2), 0.5, 1e-9);
}

// The validate() wrapper keeps the historical std::invalid_argument but
// now carries the first diagnostic's code and message.
TEST(NetlistCheck, ValidateWrapperNamesConflict) {
  Netlist nl = healthy();
  nl.add_source(1, 2.0, "second");
  try {
    nl.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("MN-NET-003"), std::string::npos);
    EXPECT_NE(what.find("'second'"), std::string::npos);
  }
}

// --- golden text of the invariant diagnostics -------------------------

// The first diagnostic with `code`; fails the test when there is none.
const Diagnostic& first(const DiagnosticList& diags, const std::string& code) {
  for (const auto& d : diags)
    if (d.code == code) return d;
  ADD_FAILURE() << "no " << code << " in:\n" << diags.render_text();
  static const Diagnostic none;
  return none;
}

TEST(NetlistCheckText, DanglingNodeNamedAndUnnamed) {
  Netlist nl = healthy();
  NetlistTestPeer::push_resistor(nl, 1, 99, 100.0);
  NetlistTestPeer::push_memristor(nl, 42, 2, 1e4, "");
  const DiagnosticList diags = check_netlist_invariants(nl);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags.items()[0].message,
            "resistor 'raw' references unallocated node id 99");
  EXPECT_EQ(diags.items()[0].location, "resistor 'raw'");
  EXPECT_EQ(diags.items()[1].message,
            "memristor #0 references unallocated node id 42");
  EXPECT_EQ(diags.items()[1].location, "memristor #0");
  EXPECT_EQ(diags.items()[1].hint,
            "allocate nodes with Netlist::add_node() before wiring them");
}

TEST(NetlistCheckText, NonPositiveValuePerKind) {
  Netlist nl = healthy();
  NetlistTestPeer::push_resistor(nl, 1, kGround, 0.0);
  NetlistTestPeer::push_memristor(nl, 2, kGround, -5.0, "");
  NetlistTestPeer::push_capacitor(nl, 2, kGround, 0.0, "c");
  const DiagnosticList diags = check_netlist_invariants(nl);
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags.items()[0].code, "MN-NET-007");
  EXPECT_EQ(diags.items()[0].message,
            "resistor 'raw' has non-positive resistance 0.000000 ohm");
  EXPECT_EQ(diags.items()[0].location, "resistor 'raw'");
  EXPECT_EQ(diags.items()[0].hint,
            "model an ideal short as a small positive resistance");
  EXPECT_EQ(diags.items()[1].message,
            "memristor #0 has non-positive programmed state -5.000000 ohm");
  EXPECT_EQ(diags.items()[1].location, "memristor #0");
  EXPECT_EQ(diags.items()[1].hint, "");
  EXPECT_EQ(diags.items()[2].message,
            "capacitor 'c' has non-positive capacitance 0.000000 F");
  EXPECT_EQ(diags.items()[2].location, "capacitor 'c'");
}

TEST(NetlistCheckText, ShortedElement) {
  Netlist nl = healthy();
  NetlistTestPeer::push_resistor(nl, 2, 2, 100.0, "");
  const DiagnosticList diags = check_netlist_invariants(nl);
  const Diagnostic& d = first(diags, "MN-NET-008");
  EXPECT_EQ(d.message, "resistor #2 connects node n2 to itself");
  EXPECT_EQ(d.location, "resistor #2");
}

TEST(NetlistCheckText, SourceOnGround) {
  Netlist nl = healthy();
  NetlistTestPeer::push_source(nl, kGround, 1.0);
  NetlistTestPeer::push_source(nl, kGround, 1.0, "");
  const DiagnosticList diags = check_netlist_invariants(nl);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags.items()[0].message, "source 'raw' pins the ground node");
  EXPECT_EQ(diags.items()[0].location, "source 'raw'");
  EXPECT_EQ(diags.items()[0].hint,
            "ground is fixed at 0 V; drive a non-ground node instead");
  EXPECT_EQ(diags.items()[1].message, "source #2 pins the ground node");
  EXPECT_EQ(diags.items()[1].location, "source #2");
}

// Conflicts list every source on the node in insertion order, nodes in
// ascending order, whatever order the sources were added in.
TEST(NetlistCheckText, ConflictingSourcesListedInOrder) {
  Netlist nl = healthy();
  nl.add_source(2, 0.5, "late");
  nl.add_source(1, 2.0, "second");
  NetlistTestPeer::push_source(nl, 2, 0.25, "");
  NetlistTestPeer::push_source(nl, 1, 3.0, "");
  const DiagnosticList diags = check_netlist_invariants(nl);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags.items()[0].code, "MN-NET-003");
  EXPECT_EQ(diags.items()[0].message,
            "node n1 is pinned by conflicting sources: source 'drive' "
            "(1.000000 V), source 'second' (2.000000 V) and source #4 "
            "(3.000000 V)");
  EXPECT_EQ(diags.items()[0].location, "node n1");
  EXPECT_EQ(diags.items()[0].hint,
            "keep exactly one grounded source per driven node");
  EXPECT_EQ(diags.items()[1].message,
            "node n2 is pinned by conflicting sources: source 'late' "
            "(0.500000 V) and source #3 (0.250000 V)");
  EXPECT_EQ(diags.items()[1].location, "node n2");
}

// --- the solver pre-flight --------------------------------------------

// A refused solve carries exactly the default check's list: errors and
// the warnings the errors-only pre-flight itself does not compute.
TEST(NetlistCheck, PreflightRefusalCarriesTheFullCheck) {
  Netlist nl = healthy();
  nl.add_resistor(1, kGround, 1e15, "top");  // duplicate name + spread
  const NodeId a = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_resistor(a, b, 50.0, "island");
  const DiagnosticList expected = check_netlist(nl);
  ASSERT_TRUE(expected.has_code("MN-NET-001"));
  ASSERT_TRUE(expected.has_code("MN-NET-005"));
  ASSERT_TRUE(expected.has_code("MN-NET-010"));
  for (bool with_cache : {false, true}) {
    spice::MnaCache cache;
    try {
      (void)spice::solve_dc(nl, {}, with_cache ? &cache : nullptr);
      FAIL() << "expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_EQ(e.diagnostics().size(), expected.size());
      EXPECT_EQ(e.diagnostics().render_json(), expected.render_json());
    }
  }
  try {
    (void)spice::solve_dc_batch(nl, {spice::DcBatchEntry{}});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_EQ(e.diagnostics().render_json(), expected.render_json());
  }
}

// The structural-rank pass reports exactly the unknowns no conductive
// element touches; one node reached only through a capacitor (here
// between two conductive nodes) still has no diagonal.
TEST(NetlistCheck, CapacitorOnlyNodeInMixedNetlistIsSingular) {
  Netlist nl = healthy();
  const NodeId m = nl.add_node();
  nl.add_memristor(2, m, 1e4, "cell");
  nl.add_memristor(m, kGround, 1e4, "load");
  const NodeId c = nl.add_node();
  nl.add_capacitor(2, c, 1e-15, "hang");
  nl.add_capacitor(c, m, 1e-15, "hang2");
  NetlistCheckOptions options;
  options.connectivity = false;
  const DiagnosticList diags = check_netlist(nl, options);
  ASSERT_EQ(diags.error_count(), 1u);
  const Diagnostic& d = first(diags, "MN-NET-004");
  EXPECT_EQ(d.location, "node n" + std::to_string(c));

  // Without the capacitor-only node the same netlist is clean.
  Netlist clean = healthy();
  const NodeId m2 = clean.add_node();
  clean.add_memristor(2, m2, 1e4, "cell");
  clean.add_memristor(m2, kGround, 1e4, "load");
  clean.add_capacitor(2, m2, 1e-15, "cap");
  EXPECT_TRUE(check_netlist(clean, options).empty());
}

// Skipping re-validation on a warm cache must not let an invalid netlist
// through a cold entry point.
TEST(NetlistCheck, InvalidNetlistRefusedOnColdPaths) {
  Netlist nl = healthy();
  nl.add_capacitor(2, kGround, 1e-15, "load");
  NetlistTestPeer::push_resistor(nl, 2, kGround, 0.0);

  spice::TransientOptions transient;
  transient.time_step = 1e-12;
  transient.end_time = 1e-11;
  EXPECT_THROW((void)spice::solve_transient(nl, {2}, transient),
               std::invalid_argument);

  spice::DcOptions no_preflight;
  no_preflight.preflight = false;
  spice::MnaCache cold;
  EXPECT_THROW((void)spice::solve_dc(nl, no_preflight, &cold),
               std::invalid_argument);
  EXPECT_FALSE(cold.pattern_valid);
  EXPECT_THROW((void)spice::solve_dc(nl, no_preflight), std::invalid_argument);
  EXPECT_THROW((void)spice::solve_dc(nl), CheckError);
}

// A warm cache vouches only for the structure it was primed on: a
// netlist grown through the public adders since then is checked again,
// in both modes, so a second source on a driven node is still refused.
TEST(NetlistCheck, WarmCacheRechecksGrownNetlist) {
  for (const bool preflight : {true, false}) {
    SCOPED_TRACE(preflight ? "preflight" : "validate");
    Netlist nl = healthy();
    spice::DcOptions options;
    options.preflight = preflight;
    spice::MnaCache cache;
    (void)spice::solve_dc(nl, options, &cache);
    ASSERT_TRUE(cache.pattern_valid);
    (void)spice::solve_dc(nl, options, &cache);
    EXPECT_EQ(cache.cache_hits, 1);

    nl.add_source(1, 0.5, "second");
    if (preflight) {
      try {
        (void)spice::solve_dc(nl, options, &cache);
        FAIL() << "expected CheckError";
      } catch (const CheckError& e) {
        EXPECT_TRUE(e.diagnostics().has_code("MN-NET-003"));
      }
    } else {
      EXPECT_THROW((void)spice::solve_dc(nl, options, &cache),
                   std::invalid_argument);
    }
  }
}

}  // namespace
}  // namespace mnsim::check
