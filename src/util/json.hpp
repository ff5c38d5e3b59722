// The JSON text format of every machine-readable report.
//
// The sim report (sim/json_report), the sweep report (dse/shard), the
// metrics block (obs/metrics), the Chrome trace (obs/trace) and
// `mnsim check --json` (check/diagnostic) lay out their own keys by
// hand; how a string or a number becomes JSON text is decided here and
// nowhere else, so every report is RFC 8259 JSON. The strict reader is
// the round-trip check the tests run on those reports.
#pragma once

#include <map>
#include <string>
#include <string_view>

namespace mnsim::util {

// `text` as a quoted JSON string: `"` and `\` are backslash-escaped,
// \b \f \n \r \t use their short escapes and every other byte below
// 0x20 becomes \u00xx. Bytes of 0x20 and above pass through unchanged.
[[nodiscard]] std::string json_quote(std::string_view text);

// `value` as a JSON number with %.17g (round-trip exact). JSON has no
// infinity or NaN, so a non-finite value is written as `null`.
[[nodiscard]] std::string json_number(double value);

// Strict reader for the numeric fields of a JSON document: returns
// dotted-path -> number (e.g. "totals.area", "banks.0.area"; object keys
// are taken as written, escapes undecoded). Strings, booleans and null
// are skipped. Throws std::runtime_error on anything that is not JSON:
// truncation, trailing text, a raw control character or a bad escape in
// a string, or a number outside the JSON grammar (`inf`, `nan`, `0x10`,
// `+1`, `01`, `1.`).
[[nodiscard]] std::map<std::string, double> parse_json_numbers(
    const std::string& json);

}  // namespace mnsim::util
