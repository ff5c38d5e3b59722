#include "sim/json_report.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "nn/topologies.hpp"
#include "util/json.hpp"

namespace mnsim::sim {
namespace {

using util::parse_json_numbers;

arch::AcceleratorReport make_report(nn::Network& net) {
  net = nn::make_autoencoder_64_16_64();
  arch::AcceleratorConfig cfg;
  cfg.cmos_node_nm = 45;
  return arch::simulate_accelerator(net, cfg);
}

TEST(JsonReport, RoundTripsTotals) {
  nn::Network net;
  auto rep = make_report(net);
  const std::string json = report_to_json(net, rep);
  const auto values = parse_json_numbers(json);

  EXPECT_DOUBLE_EQ(values.at("totals.area"), rep.area);
  EXPECT_DOUBLE_EQ(values.at("totals.energy_per_sample"),
                   rep.energy_per_sample);
  EXPECT_DOUBLE_EQ(values.at("totals.max_error_rate"), rep.max_error_rate);
  EXPECT_DOUBLE_EQ(values.at("network.depth"), 2.0);
  EXPECT_DOUBLE_EQ(values.at("banks.0.iterations"), 1.0);
  EXPECT_DOUBLE_EQ(values.at("banks.1.epsilon_worst"),
                   rep.banks[1].epsilon_worst);
  EXPECT_DOUBLE_EQ(values.at("breakdown.read_circuits.area"),
                   rep.breakdown.read_circuits.area);
}

TEST(JsonReport, BankCountMatches) {
  nn::Network net;
  auto rep = make_report(net);
  const auto values = parse_json_numbers(report_to_json(net, rep));
  int banks = 0;
  while (values.count("banks." + std::to_string(banks) + ".area")) ++banks;
  EXPECT_EQ(banks, 2);
}

TEST(JsonReport, ControlCharactersInNamesAreEscaped) {
  nn::Network net;
  auto rep = make_report(net);
  net.name = "le\x01net";
  const std::string json = report_to_json(net, rep);
  EXPECT_NO_THROW(parse_json_numbers(json));
  EXPECT_NE(json.find("le\\u0001net"), std::string::npos);
}

TEST(JsonText, EscapesControlBytesAndNullsNonFinite) {
  EXPECT_EQ(util::json_quote("a\"b\\c\b\f\n\r\t\x1f\x7f"),
            "\"a\\\"b\\\\c\\b\\f\\n\\r\\t\\u001f\x7f\"");
  EXPECT_EQ(util::json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(util::json_number(-2.0), "-2");
  EXPECT_EQ(util::json_number(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(util::json_number(-std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(util::json_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
}

TEST(JsonParser, HandlesNestedStructures) {
  const auto v = parse_json_numbers(
      R"({"a": 1, "b": {"c": 2.5, "d": [3, {"e": -4e-3}]},
          "s": "text", "t": true, "n": null, "empty": {}, "arr": []})");
  EXPECT_DOUBLE_EQ(v.at("a"), 1.0);
  EXPECT_DOUBLE_EQ(v.at("b.c"), 2.5);
  EXPECT_DOUBLE_EQ(v.at("b.d.0"), 3.0);
  EXPECT_DOUBLE_EQ(v.at("b.d.1.e"), -4e-3);
  EXPECT_EQ(v.count("s"), 0u);  // strings skipped
  EXPECT_EQ(v.count("t"), 0u);  // booleans skipped
}

TEST(JsonParser, EscapedStringsSkipped) {
  const auto v = parse_json_numbers(R"({"k": "quote \" inside", "x": 7})");
  EXPECT_DOUBLE_EQ(v.at("x"), 7.0);
}

TEST(JsonParser, MalformedInputThrows) {
  EXPECT_THROW(parse_json_numbers("{"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers(R"({"a" 1})"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers(R"({"a": bogus})"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers(R"({"a": 1} extra)"), std::runtime_error);
  // Tokens strtod would accept but JSON does not.
  EXPECT_THROW(parse_json_numbers(R"({"a": inf})"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers(R"({"a": nan})"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers(R"({"a": 0x10})"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers(R"({"a": +1})"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers("{\"a\": \"raw\x01byte\"}"),
               std::runtime_error);
}

}  // namespace
}  // namespace mnsim::sim
