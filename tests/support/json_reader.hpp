// Minimal JSON reader shared by the report, trace and telemetry tests.
//
// A strict recursive-descent parser used as the test oracle for JsonWriter
// (src/common/json.hpp) and every emitter built on it: it decodes the
// string escapes JSON defines (the writer emits \", \\, \n, \t and \u00XX),
// rejects raw control bytes inside strings, and accepts only number tokens
// JSON's grammar allows — `nan`, `inf`, `+1`, `0x10` or `01` fail the parse
// instead of slipping through std::stod. Anything malformed throws.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/common/strutil.hpp"
#include "src/common/types.hpp"

namespace kconv::testsupport {

struct JsonValue {
  enum class Type { Object, Array, String, Number, Bool, Null };
  Type type = Type::Null;
  double number = 0.0;
  bool boolean = false;
  std::string str;
  std::map<std::string, std::shared_ptr<JsonValue>> object;
  std::vector<std::shared_ptr<JsonValue>> array;
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  std::shared_ptr<JsonValue> parse() {
    auto v = value();
    skip_ws();
    KCONV_CHECK(pos_ == text_.size(), "trailing characters after JSON value");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    KCONV_CHECK(pos_ < text_.size(), "unexpected end of JSON");
    return text_[pos_];
  }

  void expect(char c) {
    KCONV_CHECK(peek() == c, strf("expected '%c' at offset %zu", c, pos_));
    ++pos_;
  }

  bool consume(const char* lit) {
    skip_ws();
    const size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  std::string string_lit() {
    expect('"');
    std::string out;
    while (true) {
      KCONV_CHECK(pos_ < text_.size(), "unterminated JSON string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      KCONV_CHECK(static_cast<unsigned char>(c) >= 0x20,
                  "raw control byte inside a JSON string");
      if (c != '\\') {
        out += c;
        continue;
      }
      KCONV_CHECK(pos_ < text_.size(), "unterminated JSON escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(out, hex4()); break;
        default: KCONV_CHECK(false, strf("bad JSON escape \\%c", e));
      }
    }
  }

  unsigned hex4() {
    KCONV_CHECK(pos_ + 4 <= text_.size(), "truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') {
        cp |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        cp |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        cp |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        KCONV_CHECK(false, "bad hex digit in \\u escape");
      }
    }
    return cp;
  }

  // Basic-plane code points only; the writer never emits surrogate pairs.
  static void append_utf8(std::string& out, unsigned cp) {
    KCONV_CHECK(cp < 0xd800 || cp > 0xdfff, "surrogate \\u escape");
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  // Scans one token of JSON's number grammar,
  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and converts it.
  double number() {
    const size_t start = pos_;
    auto digits = [&] {
      const size_t from = pos_;
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
      KCONV_CHECK(pos_ > from, strf("malformed JSON number at offset %zu",
                                    start));
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else {
      digits();
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      digits();
    }
    // strtod, not stod: stod throws on denormals (ERANGE underflow).
    return std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
  }

  std::shared_ptr<JsonValue> value() {
    auto v = std::make_shared<JsonValue>();
    const char c = peek();
    if (c == '{') {
      v->type = JsonValue::Type::Object;
      expect('{');
      if (peek() != '}') {
        do {
          std::string key = string_lit();
          expect(':');
          KCONV_CHECK(v->object.emplace(std::move(key), value()).second,
                      "duplicate JSON key");
        } while (consume(","));
      }
      expect('}');
    } else if (c == '[') {
      v->type = JsonValue::Type::Array;
      expect('[');
      if (peek() != ']') {
        do {
          v->array.push_back(value());
        } while (consume(","));
      }
      expect(']');
    } else if (c == '"') {
      v->type = JsonValue::Type::String;
      v->str = string_lit();
    } else if (consume("true")) {
      v->type = JsonValue::Type::Bool;
      v->boolean = true;
    } else if (consume("false")) {
      v->type = JsonValue::Type::Bool;
      v->boolean = false;
    } else if (consume("null")) {
      v->type = JsonValue::Type::Null;
    } else {
      v->type = JsonValue::Type::Number;
      v->number = number();
    }
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

/// The document one writer-taking emitter produces on its own:
/// write_json([&](JsonWriter& w) { to_json(w, rep); }).
template <typename Emit>
std::string write_json(Emit&& emit) {
  JsonWriter w;
  emit(w);
  return w.str();
}

inline const JsonValue& field(const JsonValue& obj, const std::string& key) {
  const auto it = obj.object.find(key);
  EXPECT_NE(it, obj.object.end()) << "missing key: " << key;
  KCONV_CHECK(it != obj.object.end(), "missing key " + key);
  return *it->second;
}

}  // namespace kconv::testsupport
