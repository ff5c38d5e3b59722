#include "check/netlist_check.hpp"

#include <cmath>
#include <map>
#include <string>
#include <vector>

namespace mnsim::check {

namespace {

using spice::kGround;
using spice::Netlist;
using spice::NodeId;

std::string node_name(NodeId n) {
  if (n == kGround) return "ground";
  std::string name = "n";
  name += std::to_string(n);
  return name;
}

std::string element_label(const char* kind, const std::string& name,
                          std::size_t index) {
  std::string label = kind;
  label += " ";
  if (name.empty()) {
    label += "#";
    label += std::to_string(index);
  } else {
    label += "'" + name + "'";
  }
  return label;
}

bool node_ok(const Netlist& nl, NodeId n) {
  return n >= 0 && n <= nl.node_count();
}

// Union-find over node ids.
class DisjointSet {
 public:
  explicit DisjointSet(int n) : parent_(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) parent_[static_cast<std::size_t>(i)] = i;
  }
  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) { parent_[static_cast<std::size_t>(find(a))] = find(b); }

 private:
  std::vector<int> parent_;
};

// Invariant checks shared by check_netlist and the validate() wrapper.
// Labels are built only when a diagnostic fires and names are counted
// only when the MN-NET-010 warning is wanted, so the happy path builds no
// string per element.
void invariants(const Netlist& nl, DiagnosticList& out, bool warnings) {
  auto bad_node = [&](const std::string& label, NodeId n) {
    auto& d = out.emit("MN-NET-006", Severity::kError,
                       label + " references unallocated node id " +
                           std::to_string(n));
    d.location = label;
    d.hint = "allocate nodes with Netlist::add_node() before wiring them";
  };

  // Names only need to be unique within a kind: a deck renders them with
  // a kind prefix (R1 vs V1), so cross-kind reuse is not ambiguous.
  std::map<std::string, int> name_uses;
  auto count_name = [&](const char* kind, const std::string& name) {
    if (warnings && !name.empty())
      ++name_uses[std::string(kind) + " '" + name + "'"];
  };

  // Two-terminal elements: node ids, shorts (MN-NET-008) and a positive
  // value (MN-NET-007, "<label> has non-positive <what> <value><unit>").
  auto two_terminal = [&](const char* kind, const auto& e, std::size_t i,
                          double value, const char* what, const char* unit,
                          const char* hint) {
    const bool a_ok = node_ok(nl, e.a);
    if (!a_ok) bad_node(element_label(kind, e.name, i), e.a);
    if (!node_ok(nl, e.b)) bad_node(element_label(kind, e.name, i), e.b);
    if (a_ok && e.a == e.b) {
      const std::string label = element_label(kind, e.name, i);
      auto& d = out.emit("MN-NET-008", Severity::kError,
                         label + " connects node " + node_name(e.a) +
                             " to itself");
      d.location = label;
    }
    if (!(value > 0.0)) {
      const std::string label = element_label(kind, e.name, i);
      auto& d = out.emit("MN-NET-007", Severity::kError,
                         label + " has non-positive " + what + " " +
                             std::to_string(value) + unit);
      d.location = label;
      if (hint != nullptr) d.hint = hint;
    }
    count_name(kind, e.name);
  };

  for (std::size_t i = 0; i < nl.resistors().size(); ++i) {
    const auto& r = nl.resistors()[i];
    two_terminal("resistor", r, i, r.ohms, "resistance", " ohm",
                 "model an ideal short as a small positive resistance");
  }
  for (std::size_t i = 0; i < nl.memristors().size(); ++i) {
    const auto& m = nl.memristors()[i];
    two_terminal("memristor", m, i, m.r_state, "programmed state", " ohm",
                 nullptr);
  }
  for (std::size_t i = 0; i < nl.capacitors().size(); ++i) {
    const auto& c = nl.capacitors()[i];
    two_terminal("capacitor", c, i, c.farads, "capacitance", " F", nullptr);
  }

  // Source conflicts: report *which* sources collide on which node.
  std::map<NodeId, std::vector<std::size_t>> pins;
  for (std::size_t i = 0; i < nl.sources().size(); ++i) {
    const auto& s = nl.sources()[i];
    if (!node_ok(nl, s.node)) {
      bad_node(element_label("source", s.name, i), s.node);
      continue;
    }
    if (s.node == kGround) {
      const std::string label = element_label("source", s.name, i);
      auto& d = out.emit("MN-NET-009", Severity::kError,
                         label + " pins the ground node");
      d.location = label;
      d.hint = "ground is fixed at 0 V; drive a non-ground node instead";
      continue;
    }
    pins[s.node].push_back(i);
    count_name("source", s.name);
  }
  for (const auto& [node, sources] : pins) {
    if (sources.size() < 2) continue;
    std::string who;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const auto& s = nl.sources()[sources[i]];
      if (i > 0) who += i + 1 == sources.size() ? " and " : ", ";
      who += element_label("source", s.name, sources[i]) + " (" +
             std::to_string(s.volts) + " V)";
    }
    auto& d = out.emit("MN-NET-003", Severity::kError,
                       "node " + node_name(node) +
                           " is pinned by conflicting sources: " + who);
    d.location = "node " + node_name(node);
    d.hint = "keep exactly one grounded source per driven node";
  }

  if (warnings) {
    for (const auto& [name, uses] : name_uses) {
      if (uses > 1) {
        auto& d = out.emit("MN-NET-010", Severity::kWarning,
                           name + " name is used " + std::to_string(uses) +
                               " times");
        d.hint = "duplicate names make exported decks ambiguous";
      }
    }
  }
}

}  // namespace

DiagnosticList check_netlist_invariants(const Netlist& nl) {
  DiagnosticList out;
  invariants(nl, out, /*warnings=*/false);
  return out;
}

DiagnosticList check_netlist(const Netlist& nl,
                             const NetlistCheckOptions& options) {
  DiagnosticList out;
  invariants(nl, out, options.warnings);
  // Graph passes assume in-range node ids; bail out on invariant errors.
  if (out.has_errors()) return out;

  const int nodes = nl.node_count() + 1;  // index 0 = ground

  // Which nodes any element touches, which a conductive element
  // (resistor, memristor) touches, and which are pinned by a source.
  std::vector<bool> touched(static_cast<std::size_t>(nodes), false);
  std::vector<bool> conductive(static_cast<std::size_t>(nodes), false);
  std::vector<bool> pinned(static_cast<std::size_t>(nodes), false);
  touched[kGround] = true;
  auto touch = [&](NodeId n) { touched[static_cast<std::size_t>(n)] = true; };
  auto conduct = [&](NodeId a, NodeId b) {
    touch(a);
    touch(b);
    conductive[static_cast<std::size_t>(a)] = true;
    conductive[static_cast<std::size_t>(b)] = true;
  };
  for (const auto& r : nl.resistors()) conduct(r.a, r.b);
  for (const auto& m : nl.memristors()) conduct(m.a, m.b);
  for (const auto& c : nl.capacitors()) {
    touch(c.a);
    touch(c.b);
  }
  for (const auto& s : nl.sources()) {
    touch(s.node);
    pinned[static_cast<std::size_t>(s.node)] = true;
  }

  if (options.connectivity) {
    // DC-conductive connectivity: resistors and memristors conduct,
    // capacitors are open, a source ties its node to ground.
    DisjointSet dsu(nodes);
    for (const auto& r : nl.resistors()) dsu.unite(r.a, r.b);
    for (const auto& m : nl.memristors()) dsu.unite(m.a, m.b);
    for (const auto& s : nl.sources()) dsu.unite(s.node, kGround);
    const int ground_root = dsu.find(kGround);

    for (int n = 1; n < nodes; ++n) {
      if (!touched[static_cast<std::size_t>(n)]) {
        auto& d = out.emit("MN-NET-002", Severity::kError,
                           "node " + node_name(n) +
                               " is allocated but connected to nothing");
        d.location = "node " + node_name(n);
        d.hint = "remove the node or wire an element to it";
      } else if (dsu.find(n) != ground_root) {
        auto& d = out.emit(
            "MN-NET-001", Severity::kError,
            "node " + node_name(n) +
                " has no DC path to ground (floating island: the reduced "
                "conductance matrix is singular there)");
        d.location = "node " + node_name(n);
        d.hint =
            "add a conductive path (resistor/memristor/source) from the "
            "island to ground";
      }
    }
  }

  if (options.structural_rank) {
    // Structural-rank pass over the reduced MNA system, a grounded
    // Laplacian: every resistor or memristor stamps the diagonal of each
    // unknown (unpinned node) it touches, and capacitors do not stamp at
    // DC. A row is therefore either empty or holds its own diagonal, so
    // the diagonal matches every non-empty row and the pattern is
    // structurally singular exactly at the unknowns no conductive element
    // touches.
    for (int n = 1; n < nodes; ++n) {
      const auto i = static_cast<std::size_t>(n);
      // Untouched nodes are reported as isolated: same root cause.
      if (pinned[i] || conductive[i] || !touched[i]) continue;
      auto& d = out.emit(
          "MN-NET-004", Severity::kError,
          "MNA system is structurally singular at node " + node_name(n) +
              ": no conductive element stamps its row for any values");
      d.location = "node " + node_name(n);
      d.hint =
          "at DC, capacitors are open circuits; give the node a "
          "resistive path or pin it with a source";
    }
  }

  if (options.warnings) {
    // Conditioning plausibility: spread of stamped conductances.
    double g_min = 0.0;
    double g_max = 0.0;
    auto account = [&](double g) {
      if (!(g > 0.0)) return;
      if (g_min == 0.0 || g < g_min) g_min = g;
      if (g > g_max) g_max = g;
    };
    for (const auto& r : nl.resistors()) account(1.0 / r.ohms);
    for (const auto& m : nl.memristors()) account(1.0 / m.r_state);
    if (g_min > 0.0 && g_max / g_min > options.conductance_spread_warning) {
      auto& d = out.emit(
          "MN-NET-005", Severity::kWarning,
          "conductance spread " + std::to_string(g_max / g_min) +
              " exceeds " +
              std::to_string(options.conductance_spread_warning) +
              "; expect an ill-conditioned solve (CG retries or dense "
              "fallback)");
      d.hint = "see docs/ROBUSTNESS.md for the graceful-degradation ladder";
    }
    if (nl.sources().empty() &&
        !(nl.resistors().empty() && nl.memristors().empty())) {
      auto& d = out.emit("MN-NET-011", Severity::kWarning,
                         "netlist has no voltage sources; the DC solution "
                         "is identically zero");
      d.hint = "add a grounded source to drive the network";
    }
  }

  return out;
}

}  // namespace mnsim::check
