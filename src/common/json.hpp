// The one JSON writer behind every report, event line and trace export:
// the only code that knows how JSON is spelled (escaping, number text,
// separators, nesting). Emitters nested inside another emitter's output take
// a `JsonWriter&` and write one value (or, where documented, the members of
// an object the caller has open).
//
// Numbers: integers exactly; doubles as their shortest round-trip text
// (std::to_chars), -0 as 0, non-finite as null.
//
// Layouts: Indented (one member per line, two spaces per level, `"k": v`)
// for the `--json` documents; Line (`{"k":v,...}`, never a '\n') for JSON
// Lines records, trace events and span args. A Line container stays on one
// line inside an indented document, and so does everything nested in it.
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace kconv {

class JsonWriter {
 public:
  enum class Layout { Indented, Line };

  JsonWriter& begin_object(Layout layout = Layout::Indented) {
    return begin('{', layout);
  }
  JsonWriter& end_object() { return end('}'); }
  JsonWriter& begin_array(Layout layout = Layout::Indented) {
    return begin('[', layout);
  }
  JsonWriter& end_array() { return end(']'); }

  /// Member name; the next call writes its value.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  JsonWriter& value(double d);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T v) {
    char buf[24];
    return raw({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
  }

  /// key(k).value(v).
  template <typename T>
  JsonWriter& kv(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  /// The text written so far (a complete document once every container is
  /// closed).
  const std::string& str() const { return out_; }

 private:
  struct Frame {
    char close = '}';  // or ']'
    bool line = false;
    bool empty = true;
  };

  JsonWriter& begin(char open, Layout layout);
  JsonWriter& end(char close);
  JsonWriter& raw(std::string_view token);  // one scalar value, verbatim
  void before_value();
  void separate();
  void write_string(std::string_view s);

  std::string out_;
  std::vector<Frame> stack_;
  bool key_pending_ = false;
};

}  // namespace kconv
