// Unit tests of JsonWriter (src/common/json.hpp): string escaping, exact
// integers, round-trip doubles and both layouts, each checked by parsing
// the output back with the strict test reader.
#include "src/common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "tests/support/json_reader.hpp"

namespace kconv {
namespace {

using testsupport::JsonReader;
using testsupport::JsonValue;
using Layout = JsonWriter::Layout;

std::string one_value(double d) {
  JsonWriter w;
  w.value(d);
  return w.str();
}

TEST(JsonWriter, EscapesEveryControlByteAndRoundTrips) {
  std::string all;
  for (int c = 0; c < 0x20; ++c) all += static_cast<char>(c);
  all += "\"\\/plain §";
  JsonWriter w;
  w.value(all);
  for (int c = 0; c < 0x20; ++c) {
    EXPECT_EQ(w.str().find(static_cast<char>(c)), std::string::npos)
        << "raw byte 0x" << std::hex << c;
  }
  EXPECT_NE(w.str().find("\\\""), std::string::npos);
  EXPECT_NE(w.str().find("\\\\"), std::string::npos);
  const auto v = JsonReader(w.str()).parse();
  ASSERT_EQ(v->type, JsonValue::Type::String);
  EXPECT_EQ(v->str, all);
}

TEST(JsonWriter, EscapesKeysToo) {
  JsonWriter w;
  w.begin_object().kv("a\"b\tc", 1).end_object();
  const auto v = JsonReader(w.str()).parse();
  ASSERT_EQ(v->object.size(), 1u);
  EXPECT_EQ(v->object.begin()->first, "a\"b\tc");
}

TEST(JsonWriter, IntegersAreExact) {
  JsonWriter w;
  w.begin_array(Layout::Line)
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(std::numeric_limits<std::int64_t>::min())
      .value(0)
      .value(-1)
      .end_array();
  EXPECT_EQ(w.str(), "[18446744073709551615,-9223372036854775808,0,-1]");
}

TEST(JsonWriter, DoublesRoundTripBitExactly) {
  const double cases[] = {0.1, 1e-300, 6.02e23,
                          std::numeric_limits<double>::denorm_min(),
                          -2.5, 1.0 / 3.0};
  for (const double d : cases) {
    const std::string text = one_value(d);
    const auto v = JsonReader(text).parse();
    ASSERT_EQ(v->type, JsonValue::Type::Number) << text;
    EXPECT_EQ(std::memcmp(&v->number, &d, sizeof d), 0) << text;
  }
  EXPECT_EQ(one_value(0.1), "0.1");
  EXPECT_EQ(one_value(2.0), "2");
}

TEST(JsonWriter, NegativeZeroIsWrittenAsZero) {
  EXPECT_EQ(one_value(-0.0), "0");
  const auto v = JsonReader(one_value(-0.0)).parse();
  EXPECT_FALSE(std::signbit(v->number));
}

TEST(JsonWriter, NonFiniteDoublesAreNull) {
  EXPECT_EQ(one_value(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(one_value(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonWriter, EmptyAndSingletonContainersInBothLayouts) {
  for (const Layout layout : {Layout::Indented, Layout::Line}) {
    JsonWriter empty_obj;
    empty_obj.begin_object(layout).end_object();
    EXPECT_EQ(empty_obj.str(), "{}");

    JsonWriter empty_arr;
    empty_arr.begin_array(layout).end_array();
    EXPECT_EQ(empty_arr.str(), "[]");
  }

  JsonWriter obj;
  obj.begin_object().kv("a", 1).end_object();
  EXPECT_EQ(obj.str(), "{\n  \"a\": 1\n}");
  JsonWriter obj_line;
  obj_line.begin_object(Layout::Line).kv("a", 1).end_object();
  EXPECT_EQ(obj_line.str(), "{\"a\":1}");

  JsonWriter arr;
  arr.begin_array().value("x").end_array();
  EXPECT_EQ(arr.str(), "[\n  \"x\"\n]");
  JsonWriter arr_line;
  arr_line.begin_array(Layout::Line).value("x").end_array();
  EXPECT_EQ(arr_line.str(), "[\"x\"]");
}

TEST(JsonWriter, IndentedNestingAndLineChildren) {
  JsonWriter w;
  w.begin_object()
      .key("o")
      .begin_object()
      .kv("k", true)
      .end_object()
      .key("xyz")
      .begin_array(Layout::Line)
      .value(1)
      .value(2)
      .value(3)
      .end_array()
      .end_object();
  EXPECT_EQ(w.str(),
            "{\n  \"o\": {\n    \"k\": true\n  },\n  \"xyz\": [1,2,3]\n}");
  const auto v = JsonReader(w.str()).parse();
  EXPECT_EQ(v->object.at("xyz")->array.size(), 3u);
}

TEST(JsonWriter, LineLayoutNeverEmitsNewline) {
  JsonWriter w;
  w.begin_object(Layout::Line)
      .kv("s", "multi\nline")
      .key("nested")
      .begin_object()
      .key("arr")
      .begin_array()
      .begin_object()
      .kv("x", 1.5)
      .end_object()
      .value(false)
      .end_array()
      .end_object()
      .end_object();
  EXPECT_EQ(w.str().find('\n'), std::string::npos) << w.str();
  const auto v = JsonReader(w.str()).parse();
  EXPECT_EQ(v->object.at("s")->str, "multi\nline");
}

TEST(JsonWriter, MisuseThrows) {
  JsonWriter unbalanced;
  unbalanced.begin_object();
  EXPECT_THROW(unbalanced.end_array(), Error);

  JsonWriter no_key;
  no_key.begin_object();
  EXPECT_THROW(no_key.value(1), Error);

  JsonWriter two_roots;
  two_roots.value(1);
  EXPECT_THROW(two_roots.value(2), Error);
}

TEST(JsonReader, RejectsNumbersJsonForbids) {
  for (const char* bad : {"nan", "inf", "-inf", "+1", "0x10", "01", "1.",
                          ".5", "1e", "[1,inf]", "\"a\tb\""}) {
    EXPECT_THROW(JsonReader(bad).parse(), Error) << bad;
  }
  for (const char* good : {"0", "-0", "1.5e-3", "2E+8", "-12.25"}) {
    EXPECT_NO_THROW(JsonReader(good).parse()) << good;
  }
}

TEST(JsonReader, DecodesStandardEscapes) {
  const auto v = JsonReader(R"("q\" b\\ n\n t\t u\u0001é")").parse();
  EXPECT_EQ(v->str, "q\" b\\ n\n t\t u\x01\xc3\xa9");
}

}  // namespace
}  // namespace kconv
