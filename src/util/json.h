// Minimal JSON reader for the repo's own machine-readable artifacts
// (bench JSON, Chrome trace-event profiles). Parses the full JSON grammar
// into a tree of JsonValue nodes; numbers are doubles, object key order is
// preserved. This is a reader for files we write ourselves — it favours
// clear errors over speed and does not stream.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace icr::util {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  // Parses one JSON document (surrounding whitespace allowed); throws
  // std::runtime_error with a byte offset on malformed input.
  [[nodiscard]] static JsonValue parse(const std::string& text);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }

  // Typed accessors with defaults: a missing/mistyped value yields the
  // fallback instead of throwing, so report tools degrade gracefully on
  // schema evolution.
  [[nodiscard]] double as_double(double fallback = 0.0) const noexcept {
    return type_ == Type::kNumber ? number_
                                  : (type_ == Type::kBool ? (bool_ ? 1.0 : 0.0)
                                                          : fallback);
  }
  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept {
    return type_ == Type::kBool ? bool_ : fallback;
  }
  [[nodiscard]] const std::string& as_string(
      const std::string& fallback = empty_string()) const noexcept {
    return type_ == Type::kString ? string_ : fallback;
  }

  [[nodiscard]] const std::vector<JsonValue>& items() const noexcept {
    return array_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return object_;
  }

  // Object member lookup; null when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const noexcept;

  // find() that tolerates chains: get("a") on a non-object returns a shared
  // null value, so report code can write v.get("x").get("y").as_double().
  [[nodiscard]] const JsonValue& get(const std::string& key) const noexcept;

 private:
  static const std::string& empty_string() noexcept;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;

  friend class JsonParser;
};

// Escapes `text` for embedding inside a JSON string literal (no quotes
// added). Shared by every writer in the repo so escaping stays consistent.
[[nodiscard]] std::string json_escape(const std::string& text);

// Number text shared by every writer (JSON, CSV, NDJSON, Prometheus), so
// each export format lives in one place:
//   exact_double  "%.17g": shortest text that reparses to the exact same
//                 double; equal doubles print equal text, which is what
//                 keeps deterministic exports byte-identical.
//   brief_double  "%.6g": status output for humans and scripts, not for
//                 byte-identity.
//   hex64         "0x%016llx": seeds, config hashes and fingerprints.
[[nodiscard]] std::string exact_double(double value);
[[nodiscard]] std::string brief_double(double value);
[[nodiscard]] std::string hex64(std::uint64_t value);

}  // namespace icr::util
