#include "qsc/util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "qsc/util/check.h"

namespace qsc {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  // Shortest representation that round-trips: try increasing precision.
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == value) break;
  }
  std::string out = buf;
  // "1e+06"-style exponents are valid JSON, but bare "inf"/"nan" never
  // reach here (filtered above).
  return out;
}

JsonWriter::JsonWriter(bool pretty) : pretty_(pretty) {}

void JsonWriter::Indent() {
  if (!pretty_) return;
  out_ += '\n';
  out_.append(2 * stack_.size(), ' ');
}

void JsonWriter::BeforeValue() {
  if (stack_.empty()) {
    QSC_CHECK(out_.empty());  // exactly one top-level value
    return;
  }
  if (stack_.back() == Frame::kObject) {
    QSC_CHECK(key_pending_);  // object members need a Key() first
    key_pending_ = false;
    return;
  }
  if (has_items_.back()) out_ += ',';
  has_items_.back() = true;
  Indent();
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  has_items_.push_back(false);
}

void JsonWriter::EndObject() {
  QSC_CHECK(!stack_.empty() && stack_.back() == Frame::kObject);
  QSC_CHECK(!key_pending_);
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items) Indent();
  out_ += '}';
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  has_items_.push_back(false);
}

void JsonWriter::EndArray() {
  QSC_CHECK(!stack_.empty() && stack_.back() == Frame::kArray);
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items) Indent();
  out_ += ']';
}

void JsonWriter::Key(std::string_view key) {
  QSC_CHECK(!stack_.empty() && stack_.back() == Frame::kObject);
  QSC_CHECK(!key_pending_);
  if (has_items_.back()) out_ += ',';
  has_items_.back() = true;
  Indent();
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += pretty_ ? "\": " : "\":";
  key_pending_ = true;
}

void JsonWriter::Value(std::string_view value) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
}

void JsonWriter::Value(double value) {
  BeforeValue();
  out_ += JsonNumber(value);
}

void JsonWriter::Value(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
}

void JsonWriter::Value(uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
}

void JsonWriter::Value(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
}

const std::string& JsonWriter::str() const {
  QSC_CHECK(stack_.empty());  // all containers closed
  return out_;
}

const JsonValue* JsonValue::Get(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  // Last value wins on duplicates, matching the parser's store order.
  const JsonValue* found = nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) found = &v;
  }
  return found;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Status Parse(JsonValue* out) {
    Status status = ParseValue(out, /*depth=*/0);
    if (!status.ok()) return status;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return Status::Ok();
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
        if (!ConsumeLiteral("true")) return Error("bad literal");
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = true;
        return Status::Ok();
      case 'f':
        if (!ConsumeLiteral("false")) return Error("bad literal");
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = false;
        return Status::Ok();
      case 'n':
        if (!ConsumeLiteral("null")) return Error("bad literal");
        out->kind = JsonValue::Kind::kNull;
        return Status::Ok();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      Status status = ParseString(&key);
      if (!status.ok()) return status;
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      status = ParseValue(&value, depth + 1);
      if (!status.ok()) return status;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    for (;;) {
      JsonValue value;
      Status status = ParseValue(&value, depth + 1);
      if (!status.ok()) return status;
      out->array.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
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
              return Error("bad \\u escape digit");
            }
          }
          // UTF-8 encode the code point (surrogate pairs are passed through
          // as two separate 3-byte sequences; the writer never emits them).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("bad number");
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = value;
    return Status::Ok();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Status ParseJson(std::string_view text, JsonValue* out) {
  *out = JsonValue();
  return Parser(text).Parse(out);
}

Status ReadFile(const std::string& path, std::string* contents) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open: " + path);
  contents->clear();
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents->append(buffer, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Internal("read error: " + path);
  return Status::Ok();
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != contents.size() || !close_ok) {
    return Status::Internal("short write: " + path);
  }
  return Status::Ok();
}

}  // namespace qsc
