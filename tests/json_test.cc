// util/json: the minimal JSON reader and the one JSON writer.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/util/json.h"

namespace {

using icr::util::JsonValue;
using icr::util::JsonWriter;
using Layout = icr::util::JsonWriter::Layout;

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool(true));
  EXPECT_DOUBLE_EQ(JsonValue::parse("42").as_double(), 42.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-1.5e3").as_double(), -1500.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonTest, IntegerAccessorClampsOutOfRangeNumbers) {
  // Heartbeats, events, manifests and unit records are read with as_int:
  // a hostile number must clamp, never convert out of range.
  const auto at = [](const char* text) { return JsonValue::parse(text); };
  EXPECT_EQ(at("42.9").as_int<std::uint32_t>(), 42u);
  EXPECT_EQ(at("-7.9").as_int<std::int64_t>(), -7);
  EXPECT_EQ(at("true").as_int<int>(), 1);
  EXPECT_EQ(at("1e300").as_int<std::uint64_t>(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(at("18446744073709551616").as_int<std::uint64_t>(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(at("-1e300").as_int<std::int64_t>(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(at("-5").as_int<std::uint32_t>(), 0u);
  EXPECT_EQ(at("5e9").as_int<std::uint32_t>(),
            std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(at("\"12\"").as_int<int>(-1), -1);
  EXPECT_EQ(at("{}").get("missing").as_int<std::int64_t>(-1), -1);
}

TEST(JsonTest, ParsesStringEscapes) {
  const JsonValue v = JsonValue::parse(R"("a\"b\\c\nd\teAé")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\nd\teA\xC3\xA9");
  // \uXXXX escapes decode to UTF-8 (1-, 2- and 3-byte code points).
  EXPECT_EQ(JsonValue::parse("\"\\u0041\\u00e9\\u20ac\"").as_string(),
            "A\xC3\xA9\xE2\x82\xAC");
}

TEST(JsonTest, ParsesNestedStructures) {
  const JsonValue doc = JsonValue::parse(
      R"({"meta": {"count": 3, "ok": true}, "items": [1, 2, 3]})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.get("meta").get("count").as_double(), 3.0);
  EXPECT_TRUE(doc.get("meta").get("ok").as_bool());
  const auto& items = doc.get("items").items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_DOUBLE_EQ(items[2].as_double(), 3.0);
}

TEST(JsonTest, PreservesObjectKeyOrder) {
  const JsonValue doc = JsonValue::parse(R"({"z": 1, "a": 2, "m": 3})");
  const auto& members = doc.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonTest, GetToleratesMissingChains) {
  const JsonValue doc = JsonValue::parse(R"({"a": 1})");
  // get() on a missing key yields null; chaining keeps yielding null.
  EXPECT_TRUE(doc.get("nope").is_null());
  EXPECT_DOUBLE_EQ(doc.get("nope").get("deeper").as_double(7.0), 7.0);
  EXPECT_EQ(doc.find("nope"), nullptr);
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("a")->as_double(), 1.0);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1, 2,]"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1] trailing"), std::runtime_error);
}

TEST(JsonTest, EscapeIsInverseOfParse) {
  const std::string nasty = "line1\nquote\" slash\\ tab\t\x01";
  std::string doc = "\"";
  doc += icr::util::json_escape(nasty);
  doc += '"';
  EXPECT_EQ(JsonValue::parse(doc).as_string(), nasty);
}

TEST(JsonWriterTest, ThreeLayoutsNestAndEndTopLevelValuesWithNewline) {
  std::string out;
  JsonWriter json(out);
  json.begin_object(Layout::kBlock)
      .field("a", 1)
      .key("inline")
      .begin_object(Layout::kInline)
      .field("b", true)
      .key("c")
      .begin_array(Layout::kInline)
      .value(-2)
      .value(0.5)
      .end()
      .end()
      .key("rows")
      .begin_array(Layout::kBlock)
      .begin_object(Layout::kCompact)
      .field("d", icr::util::Hex{255})
      .field("e", icr::util::Brief{1.0 / 3.0})
      .field("f", icr::util::Micros{2.0})
      .end()
      .end()
      .key("empty")
      .begin_array(Layout::kBlock)
      .end()
      .end();
  EXPECT_EQ(out,
            "{\n"
            "  \"a\": 1,\n"
            "  \"inline\": {\"b\": true, \"c\": [-2, 0.5]},\n"
            "  \"rows\": [\n"
            "    {\"d\":\"0x00000000000000ff\",\"e\":0.333333,\"f\":2.000}\n"
            "  ],\n"
            "  \"empty\": [\n"
            "  ]\n"
            "}\n");
  EXPECT_NO_THROW((void)JsonValue::parse(out));
}

TEST(JsonWriterTest, EscapesKeysAndValues) {
  const std::string nasty = "q\"b\\s\nc\x01";
  std::string out;
  JsonWriter(out).begin_object().field(nasty, nasty).end();
  const JsonValue doc = JsonValue::parse(out);
  ASSERT_EQ(doc.members().size(), 1u);
  EXPECT_EQ(doc.members()[0].first, nasty);
  EXPECT_EQ(doc.members()[0].second.as_string(), nasty);
}

TEST(JsonWriterTest, ZeroIndentBlock) {
  std::string out;
  JsonWriter json(out, /*indent=*/0);
  json.begin_array(Layout::kBlock);
  for (const char* key : {"x", "y"}) {
    json.begin_object(Layout::kCompact).field(key, 1).end();
  }
  json.end();
  EXPECT_EQ(out, "[\n{\"x\":1},\n{\"y\":1}\n]\n");
}

TEST(JsonWriterTest, SuccessiveTopLevelValuesFormNdjson) {
  std::string out;
  JsonWriter json(out);
  for (int i = 0; i < 2; ++i) json.begin_object().field("i", i).end();
  EXPECT_EQ(out, "{\"i\":0}\n{\"i\":1}\n");
}

}  // namespace
