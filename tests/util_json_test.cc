// The shared JSON module: the writer (escaping, deterministic shortest
// numbers, document structure), the parser (escapes, nesting, malformed
// input), and the writer -> parser round trip the bench comparator relies
// on.

#include "qsc/util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>

namespace qsc {
namespace {

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonNumberTest, ShortestRoundTrippableForm) {
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(1.5), "1.5");
  EXPECT_EQ(JsonNumber(1.0 / 3.0), "0.3333333333333333");
  // Non-finite values have no JSON encoding.
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonNumberTest, Deterministic) {
  const double value = 0.1 + 0.2;  // classic non-exact double
  EXPECT_EQ(JsonNumber(value), JsonNumber(value));
  double parsed = 0.0;
  sscanf(JsonNumber(value).c_str(), "%lf", &parsed);
  EXPECT_EQ(parsed, value);  // round-trips exactly
}

TEST(JsonWriterTest, CompactDocument) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", "maxflow/grid");
  w.KV("seed", uint64_t{42});
  w.KV("ok", true);
  w.Key("runs");
  w.BeginArray();
  w.Value(1.5);
  w.Null();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"maxflow/grid\",\"seed\":42,\"ok\":true,"
            "\"runs\":[1.5,null]}");
}

TEST(JsonWriterTest, PrettyDocumentIndents) {
  JsonWriter w(/*pretty=*/true);
  w.BeginObject();
  w.KV("a", int64_t{1});
  w.Key("b");
  w.BeginArray();
  w.Value(int64_t{2});
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonWriterTest, EmptyContainers) {
  JsonWriter w;
  w.BeginObject();
  w.Key("empty_obj");
  w.BeginObject();
  w.EndObject();
  w.Key("empty_arr");
  w.BeginArray();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"empty_obj\":{},\"empty_arr\":[]}");
}

TEST(JsonWriterTest, UnbalancedEndDies) {
  JsonWriter w;
  w.BeginObject();
  EXPECT_DEATH(w.EndArray(), "QSC_CHECK");
}

TEST(JsonWriterTest, ValueWithoutKeyInObjectDies) {
  JsonWriter w;
  w.BeginObject();
  EXPECT_DEATH(w.Value(1.0), "QSC_CHECK");
}

// --- parser ---------------------------------------------------------------

JsonValue Parse(const std::string& text) {
  JsonValue value;
  const Status status = ParseJson(text, &value);
  EXPECT_TRUE(status.ok()) << status.message();
  return value;
}

TEST(JsonParserTest, ParsesScalars) {
  EXPECT_EQ(Parse("null").kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(Parse("true").bool_value);
  EXPECT_FALSE(Parse("false").bool_value);
  EXPECT_DOUBLE_EQ(Parse("-12.5e2").number_value, -1250.0);
  EXPECT_EQ(Parse("\"hi\"").string_value, "hi");
}

TEST(JsonParserTest, ParsesEscapes) {
  EXPECT_EQ(Parse(R"("a\"b\\c\/d\n\t")").string_value, "a\"b\\c/d\n\t");
  // JsonEscape emits control characters as \u00XX.
  EXPECT_EQ(Parse(R"("\u0007")").string_value, "\a");
  EXPECT_EQ(Parse(R"("\u00e9")").string_value, "\xc3\xa9");  // e-acute, UTF-8
}

TEST(JsonParserTest, ParsesNestedContainers) {
  const JsonValue v = Parse(R"({"a": [1, 2, {"b": null}], "c": {}})");
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  const JsonValue* a = v.Get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].number_value, 2.0);
  EXPECT_TRUE(a->array[2].Get("b")->is_null());
  EXPECT_EQ(v.Get("c")->object.size(), 0u);
  EXPECT_EQ(v.Get("missing"), nullptr);
}

TEST(JsonParserTest, RejectsMalformedInput) {
  JsonValue v;
  EXPECT_FALSE(ParseJson("", &v).ok());
  EXPECT_FALSE(ParseJson("{", &v).ok());
  EXPECT_FALSE(ParseJson("[1,]", &v).ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}", &v).ok());
  EXPECT_FALSE(ParseJson("\"unterminated", &v).ok());
  EXPECT_FALSE(ParseJson("12 34", &v).ok());  // trailing garbage
  EXPECT_FALSE(ParseJson("nul", &v).ok());
}

// --- round trip -----------------------------------------------------------

// Every JsonNumber edge value parses back to the double it came from, and
// NaN (which JSON cannot encode) comes back as null.
TEST(JsonRoundTripTest, JsonNumberEdgeValuesSurviveWriterToParser) {
  const double values[] = {0.0,
                           -0.0,
                           1.5,
                           0.1 + 0.2,
                           1.0 / 3.0,
                           1e-300,
                           -1e-300,
                           1e300,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           123456789012345678.0};
  JsonWriter w;
  w.BeginArray();
  for (const double v : values) w.Value(v);
  w.Value(std::numeric_limits<double>::quiet_NaN());
  w.EndArray();

  JsonValue doc;
  ASSERT_TRUE(ParseJson(w.str(), &doc).ok()) << w.str();
  ASSERT_EQ(doc.array.size(), std::size(values) + 1);
  for (size_t i = 0; i < std::size(values); ++i) {
    ASSERT_EQ(doc.array[i].kind, JsonValue::Kind::kNumber) << i;
    EXPECT_EQ(doc.array[i].number_value, values[i]) << JsonNumber(values[i]);
    EXPECT_EQ(std::signbit(doc.array[i].number_value),
              std::signbit(values[i]))
        << JsonNumber(values[i]);
  }
  EXPECT_TRUE(doc.array.back().is_null());
  // Shortest form: the text is no longer than it needs to be.
  EXPECT_EQ(JsonNumber(-0.0), "-0");
  EXPECT_EQ(JsonNumber(1e-300), "1e-300");
}

}  // namespace
}  // namespace qsc
