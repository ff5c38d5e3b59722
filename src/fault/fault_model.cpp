#include "fault/fault_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>

#include "accuracy/retention.hpp"

namespace mnsim::fault {

bool FaultConfig::enabled() const {
  return stuck_at_zero_rate > 0 || stuck_at_one_rate > 0 ||
         broken_wordline_rate > 0 || broken_bitline_rate > 0 ||
         retention_time > 0;
}

void FaultConfig::validate() const {
  auto rate_ok = [](double r) { return r >= 0.0 && r <= 1.0; };
  if (!rate_ok(stuck_at_zero_rate) || !rate_ok(stuck_at_one_rate) ||
      !rate_ok(broken_wordline_rate) || !rate_ok(broken_bitline_rate))
    throw std::invalid_argument("FaultConfig: rates must be in [0, 1]");
  if (stuck_at_zero_rate + stuck_at_one_rate > 1.0)
    throw std::invalid_argument(
        "FaultConfig: stuck-at rates must sum to <= 1");
  if (retention_time < 0)
    throw std::invalid_argument("FaultConfig: retention time");
  if (circuit_check_size < 2)
    throw std::invalid_argument("FaultConfig: circuit check size");
}

int DefectMap::fault_count() const {
  return static_cast<int>(stuck_cells.size() + broken_wordlines.size() +
                          broken_bitlines.size());
}

bool DefectMap::row_broken(int row) const {
  return std::binary_search(broken_wordlines.begin(), broken_wordlines.end(),
                            row);
}

bool DefectMap::col_broken(int col) const {
  return std::binary_search(broken_bitlines.begin(), broken_bitlines.end(),
                            col);
}

DefectMap generate_defect_map(int rows, int cols, const FaultConfig& config,
                              const tech::MemristorModel& device,
                              std::uint32_t seed_offset) {
  config.validate();
  if (rows <= 0 || cols <= 0)
    throw std::invalid_argument("generate_defect_map: array shape");

  DefectMap map;
  map.rows = rows;
  map.cols = cols;
  map.seed = config.seed + seed_offset;
  std::mt19937 rng(map.seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);

  for (int i = 0; i < rows; ++i)
    if (u(rng) < config.broken_wordline_rate)
      map.broken_wordlines.push_back(i);
  for (int j = 0; j < cols; ++j)
    if (u(rng) < config.broken_bitline_rate)
      map.broken_bitlines.push_back(j);

  // Stuck cells on intact lines only: an open line dominates any cell
  // defect underneath it.
  for (int i = 0; i < rows; ++i) {
    if (map.row_broken(i)) continue;
    for (int j = 0; j < cols; ++j) {
      if (map.col_broken(j)) continue;
      const double roll = u(rng);
      if (roll < config.stuck_at_zero_rate)
        map.stuck_cells.push_back({i, j, FaultKind::kStuckAtZero});
      else if (roll < config.stuck_at_zero_rate + config.stuck_at_one_rate)
        map.stuck_cells.push_back({i, j, FaultKind::kStuckAtOne});
    }
  }

  if (config.retention_time > 0) {
    const double nu = accuracy::drift_exponent(device.kind);
    map.drift_factor = accuracy::drift_factor(nu, config.retention_time);
  }
  return map;
}

void apply_to_resistance_map(
    const DefectMap& map, const tech::MemristorModel& device,
    std::vector<std::vector<double>>& cell_resistance) {
  if (cell_resistance.size() != static_cast<std::size_t>(map.rows))
    throw std::invalid_argument("apply_to_resistance_map: row count");
  for (const auto& row : cell_resistance)
    if (row.size() != static_cast<std::size_t>(map.cols))
      throw std::invalid_argument("apply_to_resistance_map: column count");

  for (const auto& f : map.stuck_cells)
    cell_resistance[f.row][f.col] =
        (f.kind == FaultKind::kStuckAtZero ? device.r_max : device.r_min)
            .value();

  if (map.drift_factor != 1.0)
    for (auto& row : cell_resistance)
      for (double& r : row) r *= map.drift_factor;

  // Open lines last: an open must not be drift-scaled past kOpenResistance.
  for (int i : map.broken_wordlines)
    for (int j = 0; j < map.cols; ++j)
      cell_resistance[i][j] = kOpenResistance;
  for (int j : map.broken_bitlines)
    for (int i = 0; i < map.rows; ++i)
      cell_resistance[i][j] = kOpenResistance;
}

void apply_to_spec(const DefectMap& map, spice::CrossbarSpec& spec) {
  if (spec.rows != map.rows || spec.cols != map.cols)
    throw std::invalid_argument("apply_to_spec: shape mismatch");
  apply_to_resistance_map(map, spec.device, spec.cell_resistance);
}

void apply_to_signed_weights(const DefectMap& positive,
                             const DefectMap& negative, int weight_bits,
                             nn::Matrix& weights) {
  if (weight_bits < 2 || weight_bits > 16)
    throw std::invalid_argument("apply_to_signed_weights: weight bits");
  const int outputs = static_cast<int>(weights.size());
  const int inputs = outputs > 0 ? static_cast<int>(weights.front().size())
                                 : 0;
  for (const auto& row : weights)
    if (static_cast<int>(row.size()) != inputs)
      throw std::invalid_argument("apply_to_signed_weights: ragged matrix");
  if (positive.rows != inputs || positive.cols != outputs ||
      negative.rows != inputs || negative.cols != outputs)
    throw std::invalid_argument(
        "apply_to_signed_weights: map shape must be [inputs][outputs]");

  const double wmax = static_cast<double>((1 << (weight_bits - 1)) - 1);

  // Stuck value per cell [row=in][col=out], filled in map order so the
  // last entry for a cell wins; NaN marks a healthy cell. Entries outside
  // the array match no weight and are skipped.
  auto stuck_index = [&](const DefectMap& map) {
    std::vector<double> index(
        static_cast<std::size_t>(inputs) * static_cast<std::size_t>(outputs),
        std::numeric_limits<double>::quiet_NaN());
    for (const auto& f : map.stuck_cells) {
      if (f.row < 0 || f.row >= inputs || f.col < 0 || f.col >= outputs)
        continue;
      index[static_cast<std::size_t>(f.row) *
                static_cast<std::size_t>(outputs) +
            static_cast<std::size_t>(f.col)] =
          f.kind == FaultKind::kStuckAtZero ? 0.0 : wmax;
    }
    return index;
  };
  const std::vector<double> pos_stuck = stuck_index(positive);
  const std::vector<double> neg_stuck = stuck_index(negative);

  // Per-polarity magnitudes, as programmed into the two cell arrays.
  for (int o = 0; o < outputs; ++o) {
    for (int i = 0; i < inputs; ++i) {
      double wpos = std::max(weights[o][i], 0.0);
      double wneg = std::max(-weights[o][i], 0.0);

      const std::size_t cell =
          static_cast<std::size_t>(i) * static_cast<std::size_t>(outputs) +
          static_cast<std::size_t>(o);
      auto stuck = [&](const DefectMap& map, const std::vector<double>& index,
                       double& w) {
        if (!std::isnan(index[cell])) w = index[cell];
        if (map.row_broken(i) || map.col_broken(o)) w = 0.0;
      };
      stuck(positive, pos_stuck, wpos);
      stuck(negative, neg_stuck, wneg);

      // Drift lowers every surviving conductance, i.e. shrinks the
      // effective weight magnitude.
      wpos /= positive.drift_factor;
      wneg /= negative.drift_factor;
      weights[o][i] = wpos - wneg;
    }
  }
}

namespace {

// Column outputs of the wire-free star model (Eq. 9 generalized), the
// behavior-level reference ideal_column_outputs also uses. Open cells
// contribute ~1e-12 S, i.e. effectively nothing.
std::vector<double> star_outputs(
    const std::vector<std::vector<double>>& cell_r, double v_in,
    double sense_resistance) {
  const int rows = static_cast<int>(cell_r.size());
  const int cols = static_cast<int>(cell_r.front().size());
  std::vector<double> out(static_cast<std::size_t>(cols), 0.0);
  const double gs = 1.0 / sense_resistance;
  for (int j = 0; j < cols; ++j) {
    double num = 0.0;
    double den = gs;
    for (int i = 0; i < rows; ++i) {
      const double g = 1.0 / cell_r[i][j];
      num += g * v_in;
      den += g;
    }
    out[j] = num / den;
  }
  return out;
}

}  // namespace

FaultErrorResult estimate_fault_error(const accuracy::CrossbarErrorInputs& in,
                                      const FaultConfig& config) {
  in.validate();
  config.validate();

  FaultErrorResult result;
  const DefectMap map =
      generate_defect_map(in.rows, in.cols, config, in.device);
  result.faults_injected = map.fault_count();
  result.seed = map.seed;

  auto deviations = [&](double base_state) {
    std::vector<std::vector<double>> cells(
        static_cast<std::size_t>(in.rows),
        std::vector<double>(static_cast<std::size_t>(in.cols), base_state));
    const auto clean = star_outputs(cells, in.device.v_read.value(),
                                    in.sense_resistance.value());
    apply_to_resistance_map(map, in.device, cells);
    const auto faulted = star_outputs(cells, in.device.v_read.value(),
                                      in.sense_resistance.value());
    std::vector<double> dev(clean.size(), 0.0);
    for (std::size_t j = 0; j < clean.size(); ++j)
      dev[j] = clean[j] > 0 ? std::fabs(faulted[j] - clean[j]) / clean[j]
                            : 0.0;
    return dev;
  };

  // Worst case: every cell at r_min (paper convention), worst column.
  for (double d : deviations(in.device.r_min.value()))
    result.fault_worst = std::max(result.fault_worst, d);
  // Average case: harmonic-mean cells, column average.
  const auto avg_dev =
      deviations(in.device.harmonic_mean_resistance().value());
  for (double d : avg_dev) result.fault_average += d;
  if (!avg_dev.empty())
    result.fault_average /= static_cast<double>(avg_dev.size());

  // Composition with the soft-error chain: hard-defect deviation adds to
  // the wire/nonlinearity/variation bound (same magnitudes-add convention
  // as the Eq. 16 worst case).
  const auto eps = accuracy::estimate_voltage_error(in);
  result.combined_worst = eps.worst + result.fault_worst;
  result.combined_average = eps.average + result.fault_average;
  return result;
}

}  // namespace mnsim::fault
