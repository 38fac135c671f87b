#include "src/util/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "src/util/check.h"

namespace icr::util {

namespace {

[[noreturn]] void fail(std::size_t offset, const char* what) {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, "json: %s at byte %zu", what, offset);
  throw std::runtime_error(buffer);
}

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue run() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, "unexpected character");
    ++pos_;
  }

  bool consume_keyword(const char* word) {
    std::size_t n = 0;
    while (word[n] != '\0') {
      if (pos_ + n >= text_.size() || text_[pos_ + n] != word[n]) return false;
      ++n;
    }
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't':
        if (!consume_keyword("true")) fail(pos_, "bad literal");
        {
          JsonValue v;
          v.type_ = JsonValue::Type::kBool;
          v.bool_ = true;
          return v;
        }
      case 'f':
        if (!consume_keyword("false")) fail(pos_, "bad literal");
        {
          JsonValue v;
          v.type_ = JsonValue::Type::kBool;
          v.bool_ = false;
          return v;
        }
      case 'n':
        if (!consume_keyword("null")) fail(pos_, "bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object_.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail(pos_, "bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail(pos_ - 1, "bad \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs land as two
          // 3-byte sequences — our own writers never emit them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail(pos_ - 1, "bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail(start, "bad number");
    }
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail(start, "bad number");
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    v.number_ = value;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).run();
}

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::get(const std::string& key) const noexcept {
  static const JsonValue kNull{};
  const JsonValue* v = find(key);
  return v != nullptr ? *v : kNull;
}

const std::string& JsonValue::empty_string() noexcept {
  static const std::string kEmpty;
  return kEmpty;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

std::string exact_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string brief_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return buffer;
}

std::string hex64(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void JsonWriter::line_break() {
  out_ += '\n';
  out_.append(stack_.size() * static_cast<std::size_t>(indent_), ' ');
}

// Separator, plus line break and indentation in kBlock, before the next
// key or array element of the innermost container.
void JsonWriter::begin_item() {
  if (stack_.empty()) return;
  Frame& frame = stack_.back();
  if (!std::exchange(frame.empty, false)) {
    out_ += frame.layout == Layout::kInline ? ", " : ",";
  }
  if (frame.layout == Layout::kBlock) line_break();
}

void JsonWriter::begin_value() {
  if (std::exchange(after_key_, false)) return;
  ICR_CHECK(stack_.empty() || !stack_.back().object);  // a member needs key()
  begin_item();
}

JsonWriter& JsonWriter::end_value() {
  if (stack_.empty()) out_ += '\n';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  ICR_CHECK(!stack_.empty() && stack_.back().object && !after_key_);
  begin_item();
  out_ += '"';
  append_escaped(out_, name);
  out_ += stack_.back().layout == Layout::kCompact ? "\":" : "\": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::scalar(std::string_view text) {
  begin_value();
  out_ += text;
  return end_value();
}

JsonWriter& JsonWriter::value(std::string_view text) {
  begin_value();
  out_ += '"';
  append_escaped(out_, text);
  out_ += '"';
  return end_value();
}

JsonWriter& JsonWriter::value(Micros v) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%.3f", v.value);
  return scalar(buffer);
}

JsonWriter& JsonWriter::open(char bracket, bool object, Layout layout) {
  begin_value();
  out_ += bracket;
  stack_.push_back(Frame{layout, object, true});
  return *this;
}

JsonWriter& JsonWriter::end() {
  ICR_CHECK(!stack_.empty() && !after_key_);
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.layout == Layout::kBlock) line_break();
  out_ += frame.object ? '}' : ']';
  return end_value();
}

}  // namespace icr::util
