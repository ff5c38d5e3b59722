#include "spice/export.hpp"

#include <cstdio>
#include <sstream>

namespace mnsim::spice {

namespace {

std::string node_name(NodeId n) {
  if (n == kGround) return "0";
  std::string name = "n";
  name += std::to_string(n);
  return name;
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string export_spice(const Netlist& nl, const std::string& title) {
  nl.validate();
  std::ostringstream os;
  os << "* " << title << "\n";

  // Wire-structure metadata rides along as comment directives so a
  // re-imported deck keeps the structured solver path (and therefore
  // solves bit-identically); stock SPICE tools skip '*' lines.
  const auto& ws = nl.wire_structure();
  if (!ws.empty()) {
    auto chain_line = [&os](const char* tag, const std::vector<NodeId>& chain) {
      os << "*.mnsim " << tag;
      for (NodeId n : chain) os << ' ' << node_name(n);
      os << "\n";
    };
    for (const auto& c : ws.row_chains) chain_line("rowchain", c);
    for (const auto& c : ws.col_chains) chain_line("colchain", c);
  }

  int auto_id = 0;
  auto name_or = [&auto_id](const std::string& name, const char* prefix) {
    if (!name.empty()) return name;
    return std::string(prefix) + "auto" + std::to_string(auto_id++);
  };

  for (const auto& r : nl.resistors()) {
    os << "R" << name_or(r.name, "r") << ' ' << node_name(r.a) << ' '
       << node_name(r.b) << ' ' << fmt(r.ohms) << "\n";
  }
  for (const auto& c : nl.capacitors()) {
    os << "C" << name_or(c.name, "c") << ' ' << node_name(c.a) << ' '
       << node_name(c.b) << ' ' << fmt(c.farads) << "\n";
  }
  for (const auto& s : nl.sources()) {
    os << "V" << name_or(s.name, "v") << ' ' << node_name(s.node) << " 0 DC "
       << fmt(s.volts) << "\n";
  }
  const auto& dev = nl.device();
  for (const auto& m : nl.memristors()) {
    if (nl.linear_memristors()) {
      os << "R" << name_or(m.name, "x") << ' ' << node_name(m.a) << ' '
         << node_name(m.b) << ' ' << fmt(m.r_state) << "\n";
    } else {
      // Behavioral element: I = (vt / R) * sinh(V / vt).
      os << "B" << name_or(m.name, "x") << ' ' << node_name(m.a) << ' '
         << node_name(m.b) << " I="
         << fmt(dev.nonlinearity_vt.value() / m.r_state)
         << "*sinh(V(" << node_name(m.a) << ',' << node_name(m.b) << ")/"
         << fmt(dev.nonlinearity_vt.value()) << ")\n";
    }
  }
  os << ".op\n.end\n";
  return os.str();
}

}  // namespace mnsim::spice
