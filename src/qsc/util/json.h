// The JSON module shared by the harnesses: a streaming writer (qsc_eval
// records, BENCH_*.json reports, workload traces), a minimal parser (the
// baseline comparator reads those reports back), and whole-file I/O.
//
// The writer guarantees two properties the harnesses rely on: output is
// always well-formed JSON, and a given double renders to the same text on
// every run (shortest round-trippable form), so equal metrics compare equal
// as strings. The parser is deliberately minimal: full JSON values, no
// streaming, no comments — just enough to read back what JsonWriter emits.

#ifndef QSC_UTIL_JSON_H_
#define QSC_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qsc/util/status.h"

namespace qsc {

// Escapes `s` for inclusion inside a JSON string literal (quotes excluded).
std::string JsonEscape(std::string_view s);

// Renders a double deterministically: shortest decimal form that
// round-trips ("%.17g" tightened), with NaN and infinities mapped to null
// (JSON has no encoding for them).
std::string JsonNumber(double value);

// Stack-based writer. Usage:
//
//   JsonWriter w;
//   w.BeginObject();
//   w.Key("seed"); w.Value(uint64_t{42});
//   w.Key("runs"); w.BeginArray(); ... w.EndArray();
//   w.EndObject();
//   puts(w.str().c_str());
//
// Commas and (optional) indentation are inserted automatically. Structure
// errors (value without key inside an object, unbalanced End) abort via
// QSC_CHECK — emitting malformed JSON is a bug, not a data error.
class JsonWriter {
 public:
  explicit JsonWriter(bool pretty = false);

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  void Key(std::string_view key);

  void Value(std::string_view value);
  void Value(const char* value) { Value(std::string_view(value)); }
  void Value(double value);
  void Value(int64_t value);
  void Value(uint64_t value);
  void Value(int32_t value) { Value(static_cast<int64_t>(value)); }
  void Value(bool value);
  void Null();

  // Convenience: Key() + Value().
  template <typename T>
  void KV(std::string_view key, T value) {
    Key(key);
    Value(value);
  }

  // The serialized document; valid once all containers are closed.
  const std::string& str() const;

 private:
  enum class Frame { kObject, kArray };

  void BeforeValue();
  void Indent();

  bool pretty_;
  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> has_items_;
  bool key_pending_ = false;
};

// Parsed JSON value (tagged union). Numbers are doubles, objects preserve
// insertion order; duplicate keys keep the last value (RFC 8259 allows
// either).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Get(std::string_view key) const;

  // Typed accessors returning a fallback on kind mismatch.
  double NumberOr(double fallback) const {
    return kind == Kind::kNumber ? number_value : fallback;
  }
  std::string StringOr(std::string fallback) const {
    return kind == Kind::kString ? string_value : std::move(fallback);
  }
};

// Parses exactly one JSON document (trailing garbage is an error).
Status ParseJson(std::string_view text, JsonValue* out);

// Reads a whole file; error when unreadable.
Status ReadFile(const std::string& path, std::string* contents);

// Writes `contents` to `path` (error on I/O failure).
Status WriteFile(const std::string& path, const std::string& contents);

}  // namespace qsc

#endif  // QSC_UTIL_JSON_H_
