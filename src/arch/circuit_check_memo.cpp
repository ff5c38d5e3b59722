#include "arch/circuit_check_memo.hpp"

#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

namespace mnsim::arch {

namespace {

// The exact bytes of a sequence of values, as one key string. Structs
// are unpacked with structured bindings, which must name every data
// member: a field added to a keyed struct stops this file compiling
// until it joins the key.
class KeyBytes {
 public:
  template <class... T>
  void put(const T&... values) {
    (put_one(values), ...);
  }
  [[nodiscard]] std::string take() { return std::move(bytes_); }

 private:
  template <class T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T>
  void put_one(T v) {
    char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    bytes_.append(raw, sizeof(T));
  }
  template <class D>
  void put_one(units::Quantity<D> q) {
    put_one(q.value());
  }
  void put_one(const std::string& s) {
    put_one(s.size());
    bytes_ += s;
  }
  void put_one(const std::vector<double>& v) {
    put_one(v.size());
    // The same bytes as one put_one per element, appended in one go.
    bytes_.append(reinterpret_cast<const char*>(v.data()),
                  v.size() * sizeof(double));
  }
  void put_one(const std::vector<std::vector<double>>& m) {
    put_one(m.size());
    for (const auto& row : m) put_one(row);
  }
  void put_one(const tech::MemristorModel& d) {
    const auto& [kind, name, r_min, r_max, level_bits, v_read, v_write,
                 nonlinearity_vt, sigma, feature_nm, write_latency,
                 read_latency, transistor_wl, endurance] = d;
    put(kind, name, r_min, r_max, level_bits, v_read, v_write,
        nonlinearity_vt, sigma, feature_nm, write_latency, read_latency,
        transistor_wl, endurance);
  }

  std::string bytes_;
};

std::string circuit_key(const spice::CrossbarSpec& spec,
                        const spice::DcOptions& options) {
  KeyBytes key;
  const auto& [rows, cols, device, segment_resistance, sense_resistance,
               input_voltages, cell_resistance, linear_memristors,
               ideal_wires, segment_capacitance] = spec;
  key.put(rows, cols, device, segment_resistance, sense_resistance,
          input_voltages, cell_resistance, linear_memristors, ideal_wires,
          segment_capacitance);
  const auto& [newton_tolerance, max_newton_iterations, cg_tolerance,
               cg_max_iterations, allow_cg_retry, allow_dense_fallback,
               dense_fallback_limit, allow_schur, max_damping_retries,
               preflight] = options;
  key.put(newton_tolerance, max_newton_iterations, cg_tolerance,
          cg_max_iterations, allow_cg_retry, allow_dense_fallback,
          dense_fallback_limit, allow_schur, max_damping_retries, preflight);
  return key.take();
}

std::string fault_error_key(const accuracy::CrossbarErrorInputs& in,
                            const fault::FaultConfig& config) {
  KeyBytes key;
  const auto& [rows, cols, device, segment_resistance, sense_resistance,
               wire_alpha] = in;
  key.put(rows, cols, device, segment_resistance, sense_resistance,
          wire_alpha);
  const auto& [stuck_at_zero_rate, stuck_at_one_rate, broken_wordline_rate,
               broken_bitline_rate, retention_time, seed, circuit_check,
               circuit_check_size] = config;
  key.put(stuck_at_zero_rate, stuck_at_one_rate, broken_wordline_rate,
          broken_bitline_rate, retention_time, seed, circuit_check,
          circuit_check_size);
  return key.take();
}

}  // namespace

spice::SolverDiagnostics CircuitCheckMemo::circuit_check(
    const spice::CrossbarSpec& spec, const spice::DcOptions& options) {
  return circuits_.get(circuit_key(spec, options), [&] {
    return spice::solve_crossbar(spec, options).dc.diagnostics;
  });
}

fault::FaultErrorResult CircuitCheckMemo::fault_error(
    const accuracy::CrossbarErrorInputs& in,
    const fault::FaultConfig& config) {
  return fault_errors_.get(fault_error_key(in, config), [&] {
    return fault::estimate_fault_error(in, config);
  });
}

}  // namespace mnsim::arch
