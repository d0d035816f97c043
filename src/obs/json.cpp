#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace multihit::obs {

namespace {

void append_hex4(std::string& out, unsigned value) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "\\u%04x", value & 0xFFFFu);
  out += buf;
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          append_hex4(out, static_cast<unsigned char>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";  // JSON has no Inf/NaN
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", value);
    return buf;
  }
  // %.17g always round-trips; try the shorter %.15g first for readability.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.15g", value);
  if (std::strtod(buf, nullptr) != value) std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string fmt(const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  return buffer;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::set(std::string key, JsonValue value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  require(Kind::kObject);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

void JsonValue::push_back(JsonValue value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  require(Kind::kArray);
  array_.push_back(std::move(value));
}

void JsonValue::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: out += json_number(number_); break;
    case Kind::kString:
      out += '"';
      out += json_escape(string_);
      out += '"';
      break;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& v : array_) {
        if (!first) out += ',';
        first = false;
        v.dump_to(out);
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += json_escape(k);
        out += "\":";
        v.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw JsonParseError(std::string("JSON parse error at byte ") + std::to_string(pos_) +
                         ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail("unexpected character");
  }

  void expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) fail("invalid literal");
    pos_ += literal.size();
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't': expect_literal("true"); return JsonValue(true);
      case 'f': expect_literal("false"); return JsonValue(false);
      case 'n': expect_literal("null"); return JsonValue();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object members;
    skip_ws();
    if (consume('}')) return JsonValue(std::move(members));
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (consume('}')) break;
      expect(',');
    }
    return JsonValue(std::move(members));
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array elements;
    skip_ws();
    if (consume(']')) return JsonValue(std::move(elements));
    while (true) {
      elements.push_back(parse_value());
      skip_ws();
      if (consume(']')) break;
      expect(',');
    }
    return JsonValue(std::move(elements));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape digit");
          }
          // Encode the code point as UTF-8 (surrogate pairs are not needed by
          // any exporter here; lone surrogates pass through as-is bytes).
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
        default: fail("unknown escape character");
      }
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() && (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                                   text_[pos_] == '.' || text_[pos_] == 'e' ||
                                   text_[pos_] == 'E' || text_[pos_] == '+' ||
                                   text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("invalid value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) { return Parser(text).parse_document(); }

// ------------------------------------------------------------ typed fields

namespace {

const char* kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "a boolean";
    case JsonValue::Kind::kNumber: return "a number";
    case JsonValue::Kind::kString: return "a string";
    case JsonValue::Kind::kArray: return "an array";
    case JsonValue::Kind::kObject: return "an object";
  }
  return "unknown";
}

// Exclusive upper bounds of the integer types a field converts to.
constexpr double kU32Limit = 4294967296.0;            // 2^32
constexpr double kU64Limit = 18446744073709551616.0;  // 2^64

}  // namespace

void JsonFields::fail(std::string_view problem) const {
  std::string message(document_);
  if (!path_.empty()) message += ": " + path_;
  message += ' ';
  message += problem;
  std::rethrow_exception(make_error_(std::move(message)));
}

void JsonFields::fail(std::string_view key, std::string_view problem) const {
  JsonFields(*value_, document_, member_path(key), make_error_).fail(problem);
}

void JsonFields::expect(JsonValue::Kind kind) const {
  if (value_->kind() != kind) {
    fail(std::string("is ") + kind_name(value_->kind()) + ", expected " + kind_name(kind));
  }
}

std::string JsonFields::member_path(std::string_view key) const {
  return path_.empty() ? std::string(key) : path_ + "." + std::string(key);
}

JsonFields JsonFields::field(std::string_view key, JsonValue::Kind kind) const {
  const JsonValue* value = value_->find(key);
  JsonFields view(value ? *value : *value_, document_, member_path(key), make_error_);
  if (!value) view.fail("is missing");
  view.expect(kind);
  return view;
}

JsonFields JsonFields::element(std::size_t index, JsonValue::Kind kind) const {
  JsonFields view(value_->at(index), document_, path_ + "[" + std::to_string(index) + "]",
                  make_error_);
  view.expect(kind);
  return view;
}

double JsonFields::finite() const {
  const double value = value_->as_number();
  if (!std::isfinite(value)) fail("is not a finite number");
  return value;
}

double JsonFields::integer(double limit, const char* bound) const {
  const double value = finite();
  // Checked before any cast: a negative, fractional or out-of-range double
  // converted to an unsigned type is undefined behaviour, not a wrap.
  if (value < 0.0 || value >= limit || value != std::floor(value)) {
    fail("is " + json_number(value) + ", expected a non-negative integer below " + bound);
  }
  return value;
}

JsonFields JsonFields::object(std::string_view key) const {
  return field(key, JsonValue::Kind::kObject);
}

JsonFields JsonFields::array(std::string_view key) const {
  return field(key, JsonValue::Kind::kArray);
}

const std::string& JsonFields::string(std::string_view key) const {
  return field(key, JsonValue::Kind::kString).value_->as_string();
}

bool JsonFields::boolean(std::string_view key) const {
  return field(key, JsonValue::Kind::kBool).value_->as_bool();
}

double JsonFields::number(std::string_view key) const {
  return field(key, JsonValue::Kind::kNumber).finite();
}

std::uint32_t JsonFields::u32(std::string_view key) const {
  return static_cast<std::uint32_t>(
      field(key, JsonValue::Kind::kNumber).integer(kU32Limit, "2^32"));
}

std::uint64_t JsonFields::u64(std::string_view key) const {
  return static_cast<std::uint64_t>(
      field(key, JsonValue::Kind::kNumber).integer(kU64Limit, "2^64"));
}

std::vector<std::pair<std::string, std::string>> JsonFields::strings() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [key, value] : value_->as_object()) {
    // Per member, not via find(): a duplicated key checks each of its values.
    JsonFields view(value, document_, member_path(key), make_error_);
    view.expect(JsonValue::Kind::kString);
    out.emplace_back(key, value.as_string());
  }
  return out;
}

std::vector<JsonFields> JsonFields::objects() const {
  std::vector<JsonFields> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back(element(i, JsonValue::Kind::kObject));
  return out;
}

std::uint64_t JsonFields::u64_at(std::size_t index) const {
  return static_cast<std::uint64_t>(
      element(index, JsonValue::Kind::kNumber).integer(kU64Limit, "2^64"));
}

}  // namespace multihit::obs
