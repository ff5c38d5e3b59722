#include "check/netlist_check.hpp"

#include <algorithm>
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
void invariants(const Netlist& nl, DiagnosticList& out, bool warnings) {
  auto bad_node = [&](const std::string& label, NodeId n) {
    auto& d = out.emit("MN-NET-006", Severity::kError,
                       label + " references unallocated node id " +
                           std::to_string(n));
    d.location = label;
    d.hint = "allocate nodes with Netlist::add_node() before wiring them";
  };
  auto shorted = [&](const std::string& label, NodeId n) {
    auto& d = out.emit("MN-NET-008", Severity::kError,
                       label + " connects node " + node_name(n) +
                           " to itself");
    d.location = label;
  };

  // Names only need to be unique within a kind: a deck renders them with
  // a kind prefix (R1 vs V1), so cross-kind reuse is not ambiguous.
  std::map<std::string, int> name_uses;
  auto count_name = [&](const char* kind, const std::string& name) {
    if (!name.empty()) ++name_uses[std::string(kind) + " '" + name + "'"];
  };

  for (std::size_t i = 0; i < nl.resistors().size(); ++i) {
    const auto& r = nl.resistors()[i];
    const std::string label = element_label("resistor", r.name, i);
    if (!node_ok(nl, r.a)) bad_node(label, r.a);
    if (!node_ok(nl, r.b)) bad_node(label, r.b);
    if (node_ok(nl, r.a) && r.a == r.b) shorted(label, r.a);
    if (!(r.ohms > 0.0)) {
      auto& d = out.emit("MN-NET-007", Severity::kError,
                         label + " has non-positive resistance " +
                             std::to_string(r.ohms) + " ohm");
      d.location = label;
      d.hint = "model an ideal short as a small positive resistance";
    }
    count_name("resistor", r.name);
  }
  for (std::size_t i = 0; i < nl.memristors().size(); ++i) {
    const auto& m = nl.memristors()[i];
    const std::string label = element_label("memristor", m.name, i);
    if (!node_ok(nl, m.a)) bad_node(label, m.a);
    if (!node_ok(nl, m.b)) bad_node(label, m.b);
    if (node_ok(nl, m.a) && m.a == m.b) shorted(label, m.a);
    if (!(m.r_state > 0.0)) {
      auto& d = out.emit("MN-NET-007", Severity::kError,
                         label + " has non-positive programmed state " +
                             std::to_string(m.r_state) + " ohm");
      d.location = label;
    }
    count_name("memristor", m.name);
  }
  for (std::size_t i = 0; i < nl.capacitors().size(); ++i) {
    const auto& c = nl.capacitors()[i];
    const std::string label = element_label("capacitor", c.name, i);
    if (!node_ok(nl, c.a)) bad_node(label, c.a);
    if (!node_ok(nl, c.b)) bad_node(label, c.b);
    if (node_ok(nl, c.a) && c.a == c.b) shorted(label, c.a);
    if (!(c.farads > 0.0)) {
      auto& d = out.emit("MN-NET-007", Severity::kError,
                         label + " has non-positive capacitance " +
                             std::to_string(c.farads) + " F");
      d.location = label;
    }
    count_name("capacitor", c.name);
  }

  // Source conflicts: report *which* sources collide on which node.
  std::map<NodeId, std::vector<std::size_t>> pins;
  for (std::size_t i = 0; i < nl.sources().size(); ++i) {
    const auto& s = nl.sources()[i];
    const std::string label = element_label("source", s.name, i);
    if (!node_ok(nl, s.node)) {
      bad_node(label, s.node);
      continue;
    }
    if (s.node == kGround) {
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

  // Which nodes any element touches, and which are pinned by a source.
  std::vector<bool> touched(static_cast<std::size_t>(nodes), false);
  std::vector<bool> pinned(static_cast<std::size_t>(nodes), false);
  touched[kGround] = true;
  auto touch = [&](NodeId n) { touched[static_cast<std::size_t>(n)] = true; };
  for (const auto& r : nl.resistors()) {
    touch(r.a);
    touch(r.b);
  }
  for (const auto& m : nl.memristors()) {
    touch(m.a);
    touch(m.b);
  }
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
    // Structural-rank pass over the stamped pattern of the reduced MNA
    // system. The matrix is a grounded Laplacian: row i has a structural
    // diagonal iff node i is touched by at least one conductive element
    // (capacitors do not stamp at DC). A maximum bipartite matching of
    // rows to columns decides structural nonsingularity; with the
    // diagonal-first greedy pass this is O(V + E) for any physical
    // netlist and only falls back to augmenting paths on pathological
    // patterns.
    std::vector<int> unknown_of_node(static_cast<std::size_t>(nodes), -1);
    std::vector<NodeId> node_of_unknown;
    for (int n = 1; n < nodes; ++n) {
      if (!pinned[static_cast<std::size_t>(n)]) {
        unknown_of_node[static_cast<std::size_t>(n)] =
            static_cast<int>(node_of_unknown.size());
        node_of_unknown.push_back(n);
      }
    }
    const int unknowns = static_cast<int>(node_of_unknown.size());
    std::vector<std::vector<int>> pattern(
        static_cast<std::size_t>(unknowns));
    auto stamp_edge = [&](NodeId a, NodeId b) {
      const int ia = unknown_of_node[static_cast<std::size_t>(a)];
      const int ib = unknown_of_node[static_cast<std::size_t>(b)];
      if (ia >= 0) pattern[static_cast<std::size_t>(ia)].push_back(ia);
      if (ib >= 0) pattern[static_cast<std::size_t>(ib)].push_back(ib);
      if (ia >= 0 && ib >= 0) {
        pattern[static_cast<std::size_t>(ia)].push_back(ib);
        pattern[static_cast<std::size_t>(ib)].push_back(ia);
      }
    };
    for (const auto& r : nl.resistors()) stamp_edge(r.a, r.b);
    for (const auto& m : nl.memristors()) stamp_edge(m.a, m.b);

    std::vector<int> match_col(static_cast<std::size_t>(unknowns), -1);
    std::vector<int> match_row(static_cast<std::size_t>(unknowns), -1);
    // Diagonal-first: any node with a conductive element matches itself.
    for (int i = 0; i < unknowns; ++i) {
      for (int j : pattern[static_cast<std::size_t>(i)]) {
        if (j == i) {
          match_row[static_cast<std::size_t>(i)] = i;
          match_col[static_cast<std::size_t>(i)] = i;
          break;
        }
      }
    }
    std::vector<char> visited(static_cast<std::size_t>(unknowns), 0);
    auto augment = [&](auto&& self, int row) -> bool {
      for (int col : pattern[static_cast<std::size_t>(row)]) {
        if (visited[static_cast<std::size_t>(col)]) continue;
        visited[static_cast<std::size_t>(col)] = 1;
        if (match_col[static_cast<std::size_t>(col)] < 0 ||
            self(self, match_col[static_cast<std::size_t>(col)])) {
          match_col[static_cast<std::size_t>(col)] = row;
          match_row[static_cast<std::size_t>(row)] = col;
          return true;
        }
      }
      return false;
    };
    for (int i = 0; i < unknowns; ++i) {
      if (match_row[static_cast<std::size_t>(i)] >= 0) continue;
      std::fill(visited.begin(), visited.end(), 0);
      if (!augment(augment, i)) {
        const NodeId n = node_of_unknown[static_cast<std::size_t>(i)];
        // Skip nodes already reported as isolated: same root cause.
        if (!touched[static_cast<std::size_t>(n)]) continue;
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
