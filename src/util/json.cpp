#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace mnsim::util {

std::string json_quote(std::string_view text) {
  constexpr std::string_view kShort = "\b\f\n\r\t";
  constexpr std::string_view kLetter = "bfnrt";
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += {'\\', c};
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    } else if (const auto k = kShort.find(c); k != std::string_view::npos) {
      out += {'\\', kLetter[k]};
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : text_(text) {}

  void parse(std::map<std::string, double>& out) {
    skip_ws();
    value("", out);
    skip_ws();
    if (pos_ != text_.size())
      throw std::runtime_error("json: trailing characters");
  }

 private:
  void value(const std::string& path, std::map<std::string, double>& out) {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      container(path, out);
    } else if (c == '"') {
      (void)string();
    } else if (c == 't' || c == 'f' || c == 'n') {
      literal();
    } else {
      out[path] = number();
    }
  }

  // An object's members ("path.key") or an array's elements ("path.0").
  void container(const std::string& path,
                 std::map<std::string, double>& out) {
    const bool object = peek() == '{';
    const char close = object ? '}' : ']';
    ++pos_;
    skip_ws();
    if (at(close)) {
      ++pos_;
      return;
    }
    for (int index = 0;; ++index) {
      skip_ws();
      const std::string key = object ? string() : std::to_string(index);
      if (object) {
        skip_ws();
        expect(':');
      }
      value(object && path.empty() ? key : path + "." + key, out);
      skip_ws();
      if (!at(',')) break;
      ++pos_;
    }
    expect(close);
  }

  // The text between the quotes, escapes validated but left as written.
  std::string string() {
    expect('"');
    const std::size_t start = pos_;
    while (peek() != '"') {
      const char c = text_[pos_++];
      if (static_cast<unsigned char>(c) < 0x20)
        throw std::runtime_error("json: raw control character in string");
      if (c != '\\') continue;
      const char e = peek();
      ++pos_;
      if (e == 'u') {
        for (int i = 0; i < 4; ++i, ++pos_)
          if (!std::isxdigit(static_cast<unsigned char>(peek())))
            throw std::runtime_error("json: bad \\u escape");
      } else if (std::string_view("\"\\/bfnrt").find(e) ==
                 std::string_view::npos) {
        throw std::runtime_error("json: bad escape");
      }
    }
    return text_.substr(start, pos_++ - start);
  }

  // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? only, so strtod never
  // sees `inf`, `nan`, hex or a leading '+'.
  double number() {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    if (at('0'))
      ++pos_;
    else
      digits();
    if (at('.')) {
      ++pos_;
      digits();
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      digits();
    }
    return std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
  }

  void digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (pos_ == start) throw std::runtime_error("json: expected number");
  }

  void literal() {
    for (const std::string_view word : {"true", "false", "null"}) {
      if (text_.compare(pos_, word.size(), word) == 0) {
        pos_ += word.size();
        return;
      }
    }
    throw std::runtime_error("json: bad literal");
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  char peek() const {
    if (pos_ >= text_.size()) throw std::runtime_error("json: truncated");
    return text_[pos_];
  }
  void expect(char c) {
    if (!at(c))
      throw std::runtime_error(std::string("json: expected '") + c + "'");
    ++pos_;
  }
  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::map<std::string, double> parse_json_numbers(const std::string& json) {
  std::map<std::string, double> out;
  JsonScanner scanner(json);
  scanner.parse(out);
  return out;
}

}  // namespace mnsim::util
