// A small strict JSON parser for the repo's own machine artifacts.
//
// obs/json.h writes JSON; this reads it back, e.g. the per-scenario
// (cost, accesses) baseline that `ncplaybook` loads from an earlier
// run's packet (playbook/runner.h, LoadBaseline). It covers
// exactly RFC 8259: objects, arrays, strings (with escapes), numbers,
// booleans, null. Numbers parse through common/numeric.h, so a
// comma-decimal locale can never corrupt a document (the same guarantee
// the writer makes).
//
// Not a general-purpose library: documents are parsed into an owning
// tree (JsonValue), object members keep insertion order, duplicate keys
// keep the last occurrence, and nesting is capped to keep recursion
// bounded on hostile input.

#ifndef NC_OBS_JSON_PARSE_H_
#define NC_OBS_JSON_PARSE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace nc::obs {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  // Insertion order preserved; last occurrence wins on duplicate keys.
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  // Convenience typed getters over Find: false (with *out untouched)
  // when the member is absent or of the wrong kind.
  bool GetNumber(std::string_view key, double* out) const;
  bool GetString(std::string_view key, std::string* out) const;
  bool GetBool(std::string_view key, bool* out) const;
};

// Parses one complete JSON document (trailing whitespace allowed,
// trailing garbage rejected). On failure returns InvalidArgument with a
// byte offset in the message; *out is untouched.
Status ParseJson(std::string_view text, JsonValue* out);

}  // namespace nc::obs

#endif  // NC_OBS_JSON_PARSE_H_
