// Minimal JSON for the observability exporters (JSONL step metrics, Chrome
// trace events, versioned bench reports) and for the flat documents the
// library reads back: serve control lines and the run_state.v1 sidecar.
// Numbers are emitted with enough digits to round-trip doubles; NaN/Inf
// (not representable in JSON) degrade to null so a poisoned metric can
// never produce an unparseable file.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sdcmd::obs {

/// Tagged scalar for heterogeneous records (bench result rows, trace args)
/// and for the members of a parsed flat object.
class JsonValue {
 public:
  JsonValue() : type_(Type::Null) {}
  JsonValue(bool b) : type_(Type::Bool), bool_(b) {}
  JsonValue(double d) : type_(Type::Double), double_(d) {}
  JsonValue(std::int64_t i) : type_(Type::Int), int_(i) {}
  JsonValue(int i) : JsonValue(static_cast<std::int64_t>(i)) {}
  JsonValue(std::size_t u) : JsonValue(static_cast<std::int64_t>(u)) {}
  JsonValue(std::string s) : type_(Type::String), string_(std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}

  bool is_null() const { return type_ == Type::Null; }
  bool is_string() const { return type_ == Type::String; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const {
    return type_ == Type::Int || type_ == Type::Double;
  }

  /// Typed accessors; numeric ones coerce between Int and Double. Throw
  /// ParseError on a type mismatch, and as_int/as_int32 on a number
  /// outside the result type's range (never a wrapped or undefined cast).
  const std::string& as_string() const;
  bool as_bool() const;
  std::int64_t as_int() const;
  int as_int32() const;
  double as_double() const;

  /// Append this value's JSON text to `out`.
  void append_to(std::string& out) const;

 private:
  enum class Type { Null, Bool, Int, Double, String };
  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
};

/// Members of one flat JSON object, in document order.
using JsonMembers = std::vector<std::pair<std::string, JsonValue>>;

/// Parse one flat JSON object: `{"key": scalar, ...}` whose values are
/// strings, integers, doubles, bools or null. Nested containers, malformed
/// or out-of-range numbers and bytes after the closing brace throw
/// ParseError "<what>: <why> (byte N of M)". Integer tokens stay Int;
/// tokens with a fraction or exponent are Double.
JsonMembers parse_flat_object(const std::string& text, std::string_view what);

/// Append `"..."` with JSON escaping.
void append_json_string(std::string& out, std::string_view s);

/// Append a double (null when non-finite).
void append_json_number(std::string& out, double value);

/// Streaming writer building one JSON document into a string buffer.
/// Commas are inserted automatically; the caller only balances
/// begin/end calls.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Object member key; must be followed by exactly one value or container.
  void key(std::string_view k);

  void value(const JsonValue& v);
  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(const std::string& s) { value(std::string_view(s)); }
  void value(double d);
  void value(std::int64_t i);
  void value(int i) { value(static_cast<std::int64_t>(i)); }
  void value(std::size_t u) { value(static_cast<std::int64_t>(u)); }
  void value(bool b);

  /// key() + value() in one call.
  template <typename T>
  void member(std::string_view k, const T& v) {
    key(k);
    value(v);
  }

 private:
  void separate();

  std::string& out_;
  // One frame per open container: true once the first element was written.
  std::vector<bool> has_element_;
  bool after_key_ = false;
};

}  // namespace sdcmd::obs
