// JSON for the repo's own machine-readable artifacts: one reader, one
// writer. JsonValue parses the full grammar into a tree (numbers are
// doubles, key order is kept); it reads files we write ourselves, so it
// favours clear errors over speed and does not stream.
//
// JsonWriter is the only code that writes JSON: every JSON and NDJSON
// producer goes through it, and it escapes every string it is given. Each
// object or array picks one of three layouts:
//   kCompact  {"a":1,"b":[1,2]}      NDJSON lines, Chrome trace records
//   kInline   {"a": 1, "b": [1, 2]}  one-line rows inside documents
//   kBlock    one member per line, `indent` spaces per level; the closing
//             bracket gets its own line even when the container is empty
// A top-level value ends with '\n', so successive ones form NDJSON.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
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

  // Typed accessors with defaults: a missing/mistyped value yields the
  // fallback instead of throwing, so report tools degrade gracefully on
  // schema evolution.
  [[nodiscard]] double as_double(double fallback = 0.0) const noexcept {
    return type_ == Type::kNumber ? number_
                                  : (type_ == Type::kBool ? (bool_ ? 1.0 : 0.0)
                                                          : fallback);
  }
  // as_double() converted to the integer type T: a missing or mistyped
  // value yields the fallback, a fraction truncates toward zero, and a
  // number outside T's range clamps to its nearest limit, so no document
  // reaches an undefined float-to-integer conversion.
  template <std::integral T>
  [[nodiscard]] T as_int(T fallback = 0) const noexcept {
    if (type_ != Type::kNumber && type_ != Type::kBool) return fallback;
    const double value = as_double();
    if (value <= static_cast<double>(std::numeric_limits<T>::min())) {
      return std::numeric_limits<T>::min();
    }
    if (value >= static_cast<double>(std::numeric_limits<T>::max())) {
      return std::numeric_limits<T>::max();
    }
    return static_cast<T>(value);
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
// added); JsonWriter escapes every string it writes the same way.
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

// Number-text tags for JsonWriter::value; a plain double is exact_double.
struct Brief { double value; };          // brief_double
struct Hex { std::uint64_t value; };     // hex64, as a JSON string
struct Micros { double value; };         // "%.3f": Chrome trace microseconds

class JsonWriter {
 public:
  enum class Layout { kCompact, kInline, kBlock };

  // Appends to `out`, which must outlive the writer. `indent` is the kBlock
  // step per level (Chrome traces use 0: one record per line).
  explicit JsonWriter(std::string& out, int indent = 2)
      : out_(out), indent_(indent) {}
  // Two writers on one string would interleave their punctuation.
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object(Layout layout = Layout::kCompact) {
    return open('{', true, layout);
  }
  JsonWriter& begin_array(Layout layout = Layout::kCompact) {
    return open('[', false, layout);
  }
  JsonWriter& end();  // closes the innermost object or array

  // Object member name; the next value or container is its value.
  JsonWriter& key(std::string_view name);
  template <class T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool flag) { return scalar(flag ? "true" : "false"); }
  JsonWriter& value(double v) { return scalar(exact_double(v)); }
  JsonWriter& value(Brief v) { return scalar(brief_double(v.value)); }
  JsonWriter& value(Hex v) { return value(hex64(v.value)); }
  JsonWriter& value(Micros v);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T v) { return scalar(std::to_string(v)); }

 private:
  struct Frame {
    Layout layout;
    bool object;
    bool empty;
  };

  void line_break();
  void begin_item();
  void begin_value();
  JsonWriter& end_value();
  JsonWriter& scalar(std::string_view text);
  JsonWriter& open(char bracket, bool object, Layout layout);

  std::string& out_;
  int indent_;
  std::vector<Frame> stack_;
  bool after_key_ = false;
};

}  // namespace icr::util
