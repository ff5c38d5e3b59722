// Typed diagnostics for the semantic pre-flight analyzer (`mnsim check`).
//
// Every input problem the analyzer can detect — netlist structure, config
// cross-field validation, network/mapping feasibility — is reported as a
// Diagnostic with a stable code (MN-NET-001, MN-CFG-003, ...), a severity,
// an optional file/line or structural location, and an optional fix-it
// hint. Diagnostics render in GCC-style text (`file:line: error: message
// [code]`) and machine-readable JSON, and travel through exceptions
// (CheckError / ParseError) so solvers can refuse-with-diagnosis instead
// of failing numerically. The full catalogue, with one example trigger
// and remedy per code, lives in docs/DIAGNOSTICS.md; tools/analyze
// (rule mn-code-extraction) enforces that every code constructed here
// is catalogued there.
//
// This header is a dependency leaf (std only) so any layer — spice, arch,
// dse, sim — can carry diagnostics without include cycles.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mnsim::check {

enum class Severity { kNote, kWarning, kError };

[[nodiscard]] const char* severity_name(Severity severity);

struct Diagnostic {
  std::string code;              // stable identifier, e.g. "MN-NET-001"
  Severity severity = Severity::kError;
  std::string message;
  std::string file;              // input file when known; empty otherwise
  int line = 0;                  // 1-based; 0 = no line information
  std::string location;          // structural location ("node 7", "[layer3]")
  std::string hint;              // optional fix-it suggestion

  // GCC-style one-liner: `file:line: severity: message [code]`, followed
  // by a `note:` line when a hint is present.
  [[nodiscard]] std::string render() const;
  // One JSON object {code, severity, message, file, line, location,
  // hint}: the record layout shared by `mnsim check --json` and the
  // diagnostics arrays of the sim and sweep reports.
  [[nodiscard]] std::string render_json() const;
};

class DiagnosticList {
 public:
  void add(Diagnostic diagnostic) {
    diagnostics_.push_back(std::move(diagnostic));
  }
  // Convenience emitter; returns the stored record for optional
  // follow-up (location / hint / file).
  Diagnostic& emit(std::string code, Severity severity, std::string message);
  void merge(DiagnosticList other);

  [[nodiscard]] bool empty() const { return diagnostics_.empty(); }
  [[nodiscard]] std::size_t size() const { return diagnostics_.size(); }
  [[nodiscard]] const std::vector<Diagnostic>& items() const {
    return diagnostics_;
  }
  [[nodiscard]] std::vector<Diagnostic> take() {
    return std::move(diagnostics_);
  }
  [[nodiscard]] auto begin() const { return diagnostics_.begin(); }
  [[nodiscard]] auto end() const { return diagnostics_.end(); }

  [[nodiscard]] std::size_t error_count() const;
  [[nodiscard]] std::size_t warning_count() const;
  [[nodiscard]] bool has_errors() const { return error_count() > 0; }
  [[nodiscard]] bool has_code(const std::string& code) const;

  // [check] Warnings_As_Errors: every warning becomes an error.
  void promote_warnings();
  // Stamps `file` on every diagnostic that has none (used after checking
  // an in-memory object parsed from a known file).
  void set_file(const std::string& file);

  // All diagnostics, one render() per entry, plus a trailing summary
  // line when non-empty ("2 errors, 1 warning generated.").
  [[nodiscard]] std::string render_text() const;
  // JSON array of Diagnostic::render_json() records.
  [[nodiscard]] std::string render_json() const;
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

// Carries a whole analysis result through an exception: thrown by the
// pre-flight hooks (spice::solve_dc, arch::simulate_accelerator,
// arch::simulate_cycles, dse::explore) when an input fails statically.
class CheckError : public std::runtime_error {
 public:
  explicit CheckError(DiagnosticList diagnostics);
  [[nodiscard]] const DiagnosticList& diagnostics() const {
    return diagnostics_;
  }

 private:
  DiagnosticList diagnostics_;
};

// A single-diagnostic parse failure (SPICE import, config files): keeps
// the std::runtime_error contract of the historical throws while
// carrying code + file:line for uniform rendering.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(Diagnostic diagnostic);
  [[nodiscard]] const Diagnostic& diagnostic() const { return diagnostic_; }

 private:
  Diagnostic diagnostic_;
};

}  // namespace mnsim::check
