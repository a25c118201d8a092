#include "obs/json.hpp"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace sdcmd::obs {

namespace {

/// The flat-object parser behind parse_flat_object. Scalars only: a nested
/// container is a protocol violation, not a missing feature.
class FlatParser {
 public:
  FlatParser(const std::string& text, std::string_view what)
      : text_(text), what_(what) {}

  JsonMembers parse() {
    JsonMembers members;
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      finish();
      return members;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' after member");
    }
    finish();
    return members;
  }

 private:
  JsonValue parse_value() {
    const char c = peek();
    if (c == '"') return JsonValue(parse_string());
    if (c == 't' || c == 'f') return JsonValue(parse_bool());
    if (c == 'n') {
      if (text_.compare(pos_, 4, "null") != 0) fail("expected null");
      pos_ += 4;
      return JsonValue();
    }
    if (c == '{' || c == '[') fail("nested containers are not allowed");
    return parse_number();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: fail("unsupported escape in string");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue parse_number() {
    // A sign is only legal up front or right after an exponent marker;
    // strtoll/strtod below do the rest of the validation (the scanner
    // only has to find where the token ends).
    const std::size_t start = pos_;
    bool integral = true;
    if (peek() == '-' || peek() == '+') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.') {
        integral = false;
        ++pos_;
      } else if (c == 'e' || c == 'E') {
        integral = false;
        ++pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '-' || text_[pos_] == '+')) {
          ++pos_;
        }
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    errno = 0;
    if (integral) {
      const long long value = std::strtoll(token.c_str(), &end, 10);
      if (end != token.c_str() + token.size() || end == token.c_str()) {
        fail("malformed number '" + token + "'");
      }
      if (errno == ERANGE) {
        fail("integer out of int64 range: '" + token + "'");
      }
      return JsonValue(static_cast<std::int64_t>(value));
    }
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || end == token.c_str()) {
      fail("malformed number '" + token + "'");
    }
    if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL)) {
      fail("number out of double range: '" + token + "'");
    }
    return JsonValue(value);
  }

  bool parse_bool() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    fail("expected true/false");
  }

  void finish() {
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after the object");
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char next() {
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_++];
  }
  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError(std::string(what_) + ": " + why + " (byte " +
                     std::to_string(pos_) + " of " +
                     std::to_string(text_.size()) + ")");
  }

  const std::string& text_;
  std::string_view what_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonMembers parse_flat_object(const std::string& text,
                              std::string_view what) {
  return FlatParser(text, what).parse();
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::String) throw ParseError("json: value is not a string");
  return string_;
}

bool JsonValue::as_bool() const {
  if (type_ != Type::Bool) throw ParseError("json: value is not a bool");
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  if (type_ == Type::Int) return int_;
  if (type_ == Type::Double) {
    // Guard the cast: int64-overflowing (or NaN) doubles are UB under
    // static_cast, not a clamp. Bounds are the exactly-representable
    // ±2^63; the comparison is false for NaN too.
    if (!(double_ >= -9223372036854775808.0 &&
          double_ < 9223372036854775808.0)) {
      throw ParseError("json: number out of int64 range");
    }
    return static_cast<std::int64_t>(double_);
  }
  throw ParseError("json: value is not a number");
}

int JsonValue::as_int32() const {
  const std::int64_t v = as_int();
  if (v < INT_MIN || v > INT_MAX) {
    throw ParseError("json: number " + std::to_string(v) +
                     " out of int range");
  }
  return static_cast<int>(v);
}

double JsonValue::as_double() const {
  if (type_ == Type::Double) return double_;
  if (type_ == Type::Int) return static_cast<double>(int_);
  throw ParseError("json: value is not a number");
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

void JsonValue::append_to(std::string& out) const {
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Int: out += std::to_string(int_); break;
    case Type::Double: append_json_number(out, double_); break;
    case Type::String: append_json_string(out, string_); break;
  }
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

void JsonWriter::begin_object() {
  separate();
  out_ += '{';
  has_element_.push_back(false);
}

void JsonWriter::end_object() {
  SDCMD_REQUIRE(!has_element_.empty(), "unbalanced end_object");
  has_element_.pop_back();
  out_ += '}';
}

void JsonWriter::begin_array() {
  separate();
  out_ += '[';
  has_element_.push_back(false);
}

void JsonWriter::end_array() {
  SDCMD_REQUIRE(!has_element_.empty(), "unbalanced end_array");
  has_element_.pop_back();
  out_ += ']';
}

void JsonWriter::key(std::string_view k) {
  separate();
  append_json_string(out_, k);
  out_ += ':';
  after_key_ = true;
}

void JsonWriter::value(const JsonValue& v) {
  separate();
  v.append_to(out_);
}

void JsonWriter::value(std::string_view s) {
  separate();
  append_json_string(out_, s);
}

void JsonWriter::value(double d) {
  separate();
  append_json_number(out_, d);
}

void JsonWriter::value(std::int64_t i) {
  separate();
  out_ += std::to_string(i);
}

void JsonWriter::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
}

}  // namespace sdcmd::obs
