#include "check/diagnostic.hpp"

#include <sstream>

#include "util/json.hpp"

namespace mnsim::check {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "error";
}

std::string Diagnostic::render() const {
  std::ostringstream os;
  const bool has_file = !file.empty();
  if (has_file) {
    os << file;
    if (line > 0) os << ":" << line;
  } else if (!location.empty()) {
    os << location;
  } else {
    os << "mnsim";
  }
  os << ": " << severity_name(severity) << ": " << message;
  if (has_file && !location.empty()) os << " (" << location << ")";
  if (!code.empty()) os << " [" << code << "]";
  if (!hint.empty()) {
    os << "\n";
    if (has_file) {
      os << file;
      if (line > 0) os << ":" << line;
      os << ": ";
    }
    os << "note: " << hint;
  }
  return os.str();
}

Diagnostic& DiagnosticList::emit(std::string code, Severity severity,
                                 std::string message) {
  Diagnostic d;
  d.code = std::move(code);
  d.severity = severity;
  d.message = std::move(message);
  diagnostics_.push_back(std::move(d));
  return diagnostics_.back();
}

void DiagnosticList::merge(DiagnosticList other) {
  for (auto& d : other.diagnostics_) diagnostics_.push_back(std::move(d));
}

std::size_t DiagnosticList::error_count() const {
  std::size_t n = 0;
  for (const auto& d : diagnostics_)
    if (d.severity == Severity::kError) ++n;
  return n;
}

std::size_t DiagnosticList::warning_count() const {
  std::size_t n = 0;
  for (const auto& d : diagnostics_)
    if (d.severity == Severity::kWarning) ++n;
  return n;
}

bool DiagnosticList::has_code(const std::string& code) const {
  for (const auto& d : diagnostics_)
    if (d.code == code) return true;
  return false;
}

void DiagnosticList::promote_warnings() {
  for (auto& d : diagnostics_)
    if (d.severity == Severity::kWarning) d.severity = Severity::kError;
}

void DiagnosticList::set_file(const std::string& file) {
  for (auto& d : diagnostics_)
    if (d.file.empty()) d.file = file;
}

std::string DiagnosticList::summary() const {
  const std::size_t errors = error_count();
  const std::size_t warnings = warning_count();
  std::ostringstream os;
  if (errors > 0)
    os << errors << (errors == 1 ? " error" : " errors");
  if (warnings > 0) {
    if (errors > 0) os << ", ";
    os << warnings << (warnings == 1 ? " warning" : " warnings");
  }
  if (errors == 0 && warnings == 0) os << "no problems";
  return os.str();
}

std::string DiagnosticList::render_text() const {
  std::ostringstream os;
  for (const auto& d : diagnostics_) os << d.render() << "\n";
  if (!diagnostics_.empty()) os << summary() << " generated.\n";
  return os.str();
}

std::string Diagnostic::render_json() const {
  return "{\"code\": " + util::json_quote(code) +
         ", \"severity\": " + util::json_quote(severity_name(severity)) +
         ", \"message\": " + util::json_quote(message) +
         ", \"file\": " + util::json_quote(file) +
         ", \"line\": " + std::to_string(line) +
         ", \"location\": " + util::json_quote(location) +
         ", \"hint\": " + util::json_quote(hint) + "}";
}

std::string DiagnosticList::render_json() const {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < diagnostics_.size(); ++i)
    os << "  " << diagnostics_[i].render_json()
       << (i + 1 < diagnostics_.size() ? "," : "") << "\n";
  os << "]\n";
  return os.str();
}

namespace {

std::string check_error_message(const DiagnosticList& diagnostics) {
  std::ostringstream os;
  os << "pre-flight check failed (" << diagnostics.summary() << ")";
  for (const auto& d : diagnostics)
    if (d.severity == Severity::kError) {
      os << ": " << d.message << " [" << d.code << "]";
      break;  // headline the first error; the full list rides along
    }
  return os.str();
}

}  // namespace

CheckError::CheckError(DiagnosticList diagnostics)
    : std::runtime_error(check_error_message(diagnostics)),
      diagnostics_(std::move(diagnostics)) {}

ParseError::ParseError(Diagnostic diagnostic)
    : std::runtime_error(diagnostic.render()),
      diagnostic_(std::move(diagnostic)) {}

}  // namespace mnsim::check
