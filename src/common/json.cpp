#include "src/common/json.hpp"

#include <cmath>

#include "src/common/error.hpp"

namespace kconv {

JsonWriter& JsonWriter::begin(char open, Layout layout) {
  before_value();
  const bool line =
      layout == Layout::Line || (!stack_.empty() && stack_.back().line);
  out_ += open;
  stack_.push_back(Frame{open == '{' ? '}' : ']', line});
  return *this;
}

JsonWriter& JsonWriter::end(char close) {
  KCONV_CHECK(!stack_.empty() && stack_.back().close == close && !key_pending_,
              "JsonWriter: unbalanced end of container");
  const Frame f = stack_.back();
  stack_.pop_back();
  if (!f.empty && !f.line) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
  out_ += close;
  return *this;
}

// Comma (unless first) and, in the indented layout, a fresh line.
void JsonWriter::separate() {
  Frame& f = stack_.back();
  if (!f.empty) out_ += ',';
  f.empty = false;
  if (!f.line) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
}

void JsonWriter::before_value() {
  if (key_pending_) {
    key_pending_ = false;
  } else if (stack_.empty()) {
    KCONV_CHECK(out_.empty(), "JsonWriter: second top-level value");
  } else {
    KCONV_CHECK(stack_.back().close == ']',
                "JsonWriter: object member without a key");
    separate();
  }
}

JsonWriter& JsonWriter::key(std::string_view k) {
  KCONV_CHECK(!stack_.empty() && stack_.back().close == '}' && !key_pending_,
              "JsonWriter: key outside an object");
  separate();
  write_string(k);
  out_ += stack_.back().line ? ":" : ": ";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view token) {
  before_value();
  out_ += token;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_value();
  write_string(s);
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  if (!std::isfinite(d)) return raw("null");
  if (d == 0.0) return raw("0");  // also -0
  char buf[32];
  return raw({buf, std::to_chars(buf, buf + sizeof buf, d).ptr});
}

// The one string escaper: '"', '\\' and every byte below 0x20.
void JsonWriter::write_string(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (c == '\n') {
      out_ += "\\n";
    } else if (c == '\t') {
      out_ += "\\t";
    } else if (u < 0x20) {
      out_ += "\\u00";
      out_ += kHex[u >> 4];
      out_ += kHex[u & 0xf];
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

}  // namespace kconv
