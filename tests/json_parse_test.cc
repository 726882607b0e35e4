// The strict JSON parser (obs/json_parse.h) that reads the repo's own
// machine artifacts back, e.g. the baseline in a playbook packet:
// RFC 8259 values, escapes, and rejection of malformed or hostile input
// with a byte offset in the error.

#include <gtest/gtest.h>

#include <string>

#include "obs/json_parse.h"

namespace nc {
namespace {

using obs::JsonValue;
using obs::ParseJson;

JsonValue MustParse(const std::string& text) {
  JsonValue doc;
  const Status status = ParseJson(text, &doc);
  EXPECT_TRUE(status.ok()) << status.message();
  return doc;
}

TEST(JsonParseTest, ScalarsObjectsAndArrays) {
  JsonValue doc = MustParse(
      " {\"a\": 1.5, \"b\": [true, false, null, -2e3], "
      "\"c\": {\"nested\": \"x\"}, \"d\": 0} ");
  ASSERT_TRUE(doc.is_object());
  double num = 0.0;
  ASSERT_TRUE(doc.GetNumber("a", &num));
  EXPECT_EQ(num, 1.5);
  const JsonValue* b = doc.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->array.size(), 4u);
  EXPECT_TRUE(b->array[0].is_bool());
  EXPECT_TRUE(b->array[0].boolean);
  EXPECT_TRUE(b->array[2].is_null());
  EXPECT_EQ(b->array[3].number, -2000.0);
  const JsonValue* c = doc.Find("c");
  ASSERT_NE(c, nullptr);
  std::string s;
  ASSERT_TRUE(c->GetString("nested", &s));
  EXPECT_EQ(s, "x");
  ASSERT_TRUE(doc.GetNumber("d", &num));
  EXPECT_EQ(num, 0.0);
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonParseTest, StringEscapesIncludingSurrogatePairs) {
  JsonValue doc = MustParse(
      "{\"s\": \"a\\\"b\\\\c\\/\\n\\t\\u00e9\\ud83d\\ude00\"}");
  std::string s;
  ASSERT_TRUE(doc.GetString("s", &s));
  // \u00e9 is U+00E9 (2 UTF-8 bytes); the surrogate pair is U+1F600
  // (4 bytes).
  EXPECT_EQ(s, std::string("a\"b\\c/\n\t\xc3\xa9\xf0\x9f\x98\x80"));
}

TEST(JsonParseTest, DuplicateKeysLastOneWins) {
  JsonValue doc = MustParse("{\"k\": 1, \"k\": 2}");
  ASSERT_EQ(doc.object.size(), 1u);
  double num = 0.0;
  ASSERT_TRUE(doc.GetNumber("k", &num));
  EXPECT_EQ(num, 2.0);
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",                      // Empty.
      "{",                     // Unterminated object.
      "[1, 2",                 // Unterminated array.
      "{\"a\": }",             // Missing value.
      "{\"a\" 1}",             // Missing colon.
      "{'a': 1}",              // Wrong quotes.
      "[1,]",                  // Trailing comma.
      "01",                    // Leading zero.
      "1.",                    // Bare decimal point.
      ".5",                    // Missing integer part.
      "+1",                    // Leading plus.
      "-",                     // Bare minus.
      "1e",                    // Empty exponent.
      "NaN",                   // Non-finite spellings are not JSON.
      "Infinity",              //
      "0x10",                  // Hex is not JSON (ParseDouble allows it).
      "\"\\ud800\"",           // Unpaired high surrogate.
      "\"\\udc00\"",           // Unpaired low surrogate.
      "\"a\nb\"",              // Raw control character in a string.
      "\"unterminated",        //
      "{\"a\": 1} trailing",   // Garbage after the document.
      "true false",            //
  };
  for (const char* text : bad) {
    JsonValue doc;
    const Status status = ParseJson(text, &doc);
    EXPECT_FALSE(status.ok()) << "accepted: " << text;
    // Errors carry a byte offset for debuggability.
    EXPECT_NE(status.message().find("byte"), std::string::npos) << text;
  }
}

TEST(JsonParseTest, DepthCapStopsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  JsonValue doc;
  EXPECT_FALSE(ParseJson(deep, &doc).ok());
  // 32 levels is comfortably inside the cap.
  std::string ok = "1";
  for (int i = 0; i < 32; ++i) ok = "[" + ok + "]";
  EXPECT_TRUE(ParseJson(ok, &doc).ok());
}

}  // namespace
}  // namespace nc
