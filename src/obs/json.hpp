#pragma once
// Minimal JSON document model for the observability exports.
//
// Every machine-readable artifact this repository emits — metrics snapshots,
// Chrome trace-event files, BENCH_*.json perf records — flows through this
// one writer so escaping and number formatting are correct in exactly one
// place (the structured-log corruption fixed in util/log.cpp is the cautionary
// tale). The parser exists so tests can round-trip what the exporters write
// and so offline tools can read artifacts back without external
// dependencies. It is a strict, small RFC 8259 subset: no comments, no
// trailing commas, UTF-8 passed through verbatim. Readers of outside
// documents take typed fields only through JsonFields.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace multihit::obs {

/// Raised by JsonValue::parse on malformed input, with byte offset context.
class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One JSON value. Objects preserve insertion order (exports stay diffable);
/// numbers are doubles (sufficient for every telemetry quantity emitted here
/// — counts stay exact below 2^53).
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}
  JsonValue(double value) : kind_(Kind::kNumber), number_(value) {}
  JsonValue(int value) : kind_(Kind::kNumber), number_(value) {}
  JsonValue(std::int64_t value) : kind_(Kind::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(std::uint64_t value) : kind_(Kind::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(const char* value) : kind_(Kind::kString), string_(value) {}
  JsonValue(std::string value) : kind_(Kind::kString), string_(std::move(value)) {}
  JsonValue(std::string_view value) : kind_(Kind::kString), string_(value) {}
  JsonValue(Array value) : kind_(Kind::kArray), array_(std::move(value)) {}
  JsonValue(Object value) : kind_(Kind::kObject), object_(std::move(value)) {}

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  bool as_bool() const { return require(Kind::kBool), bool_; }
  double as_number() const { return require(Kind::kNumber), number_; }
  const std::string& as_string() const { return require(Kind::kString), string_; }
  const Array& as_array() const { return require(Kind::kArray), array_; }
  Array& as_array() { return require(Kind::kArray), array_; }
  const Object& as_object() const { return require(Kind::kObject), object_; }
  Object& as_object() { return require(Kind::kObject), object_; }

  /// Empty-container factories, clearer than JsonValue(Object{}) at call
  /// sites that build documents incrementally.
  static JsonValue object() { return JsonValue(Object{}); }
  static JsonValue array() { return JsonValue(Array{}); }

  /// Element count for arrays and objects; 0 for every scalar kind.
  std::size_t size() const noexcept {
    if (kind_ == Kind::kArray) return array_.size();
    if (kind_ == Kind::kObject) return object_.size();
    return 0;
  }

  /// Array element access (throws on non-arrays / out of range).
  const JsonValue& at(std::size_t index) const { return as_array().at(index); }

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const noexcept;

  /// Appends/overwrites an object member (value becomes an object if null).
  void set(std::string key, JsonValue value);

  /// Appends an array element (value becomes an array if null).
  void push_back(JsonValue value);

  /// Serializes to a compact single-line document.
  std::string dump() const;

  /// Deepest array/object nesting `parse` accepts. The parser recurses once
  /// per level, so the cap bounds its stack; every artifact written here
  /// nests fewer than 10 levels.
  static constexpr std::size_t kMaxParseDepth = 512;

  /// Parses a complete JSON document (throws JsonParseError on malformed
  /// input, trailing garbage, or nesting deeper than kMaxParseDepth).
  static JsonValue parse(std::string_view text);

 private:
  void require(Kind kind) const {
    if (kind_ != kind) throw std::logic_error("JsonValue: wrong kind accessed");
  }
  void dump_to(std::string& out) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// The one way every reader of outside JSON takes a typed field: a view over
/// one object (or array) of an untrusted document that carries the document
/// name and the dotted path to it. Every accessor checks presence, kind, and
/// for integers integrality and range, before it converts; every failure
/// throws the reader's own documented error type with a message naming the
/// path, e.g. "hostprof document: workers[3].claim_histogram[2] is -1,
/// expected a non-negative integer below 2^64".
class JsonFields {
 public:
  /// Views `doc`, which must be an object; failures throw `Error(message)`.
  /// `document` prefixes every message and must outlive the view (readers
  /// pass string literals).
  template <typename Error>
  static JsonFields root(const JsonValue& doc, std::string_view document) {
    JsonFields view(doc, document, {}, [](std::string message) {
      return std::make_exception_ptr(Error(std::move(message)));
    });
    view.expect(JsonValue::Kind::kObject);
    return view;
  }

  /// Object fields. Each is required: a missing key, a wrong kind, a
  /// non-finite number, or an integer that is negative, fractional, or out
  /// of range for its type throws. `has` is the test for optional fields.
  bool has(std::string_view key) const noexcept { return value_->find(key) != nullptr; }
  JsonFields object(std::string_view key) const;
  JsonFields array(std::string_view key) const;
  const std::string& string(std::string_view key) const;
  bool boolean(std::string_view key) const;
  double number(std::string_view key) const;
  std::uint32_t u32(std::string_view key) const;
  std::uint64_t u64(std::string_view key) const;

  /// Every member of this object, each required to be a string (config
  /// maps, trace-event args), in document order.
  std::vector<std::pair<std::string, std::string>> strings() const;

  /// Array elements (this view must come from array()): every element
  /// required to be an object, or one element required to be a u64.
  std::size_t size() const noexcept { return value_->size(); }
  std::vector<JsonFields> objects() const;
  std::uint64_t u64_at(std::size_t index) const;

  /// Throw the reader's error as "<document>: <path> <problem>" (or
  /// "<path>.<key> <problem>") — for the checks a reader makes beyond kind
  /// and range: counts that must agree, enumerated strings.
  [[noreturn]] void fail(std::string_view problem) const;
  [[noreturn]] void fail(std::string_view key, std::string_view problem) const;

 private:
  using MakeError = std::exception_ptr (*)(std::string message);

  JsonFields(const JsonValue& value, std::string_view document, std::string path,
             MakeError make_error)
      : value_(&value), document_(document), path_(std::move(path)), make_error_(make_error) {}

  std::string member_path(std::string_view key) const;
  JsonFields field(std::string_view key, JsonValue::Kind kind) const;
  JsonFields element(std::size_t index, JsonValue::Kind kind) const;
  void expect(JsonValue::Kind kind) const;
  double finite() const;
  double integer(double limit, const char* bound) const;

  const JsonValue* value_;
  std::string_view document_;
  std::string path_;
  MakeError make_error_;
};

/// JSON string escaping (quotes not included): `"`, `\`, and control
/// characters become escape sequences; everything else passes through.
std::string json_escape(std::string_view text);

/// Shortest round-trippable decimal for a double (integral values print
/// without a fraction so counts look like counts).
std::string json_number(double value);

/// printf into a std::string, for the fixed-precision numbers of the
/// human-readable renderers; the compiler checks every format against its
/// arguments.
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace multihit::obs
