#include "json/json.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace rabit::json {

// ---------------------------------------------------------------------------
// Object
// ---------------------------------------------------------------------------

const Value* Object::find(std::string_view key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value* Object::find(std::string_view key) {
  for (auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value& Object::operator[](std::string_view key) {
  if (Value* v = find(key)) return *v;
  entries_.emplace_back(std::string(key), Value());
  return entries_.back().second;
}

const Value& Object::at(std::string_view key) const {
  if (const Value* v = find(key)) return *v;
  throw std::out_of_range("json::Object: missing key '" + std::string(key) + "'");
}

void Object::erase(std::string_view key) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](const Entry& e) { return e.first == key; }),
                 entries_.end());
}

bool operator==(const Object& a, const Object& b) {
  // Order-insensitive comparison: researcher-edited files may reorder keys.
  if (a.size() != b.size()) return false;
  for (const auto& [k, v] : a.entries_) {
    const Value* other = b.find(k);
    if (other == nullptr || !(*other == v)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

Type Value::type() const {
  switch (data_.index()) {
    case 0: return Type::Null;
    case 1: return Type::Boolean;
    case 2: return Type::Integer;
    case 3: return Type::Double;
    case 4: return Type::String;
    case 5: return Type::Array;
    default: return Type::Object;
  }
}

std::string_view to_string(Type t) {
  switch (t) {
    case Type::Null: return "null";
    case Type::Boolean: return "boolean";
    case Type::Integer: return "integer";
    case Type::Double: return "double";
    case Type::String: return "string";
    case Type::Array: return "array";
    case Type::Object: return "object";
  }
  return "unknown";
}

namespace {
[[noreturn]] void type_mismatch(Type want, Type got) {
  throw std::runtime_error("json::Value: expected " + std::string(to_string(want)) +
                           ", got " + std::string(to_string(got)));
}
}  // namespace

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  type_mismatch(Type::Boolean, type());
}

std::int64_t Value::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return *i;
  type_mismatch(Type::Integer, type());
}

double Value::as_double() const {
  if (const auto* d = std::get_if<double>(&data_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return static_cast<double>(*i);
  type_mismatch(Type::Double, type());
}

const std::string& Value::as_string() const {
  if (const auto* s = std::get_if<std::string>(&data_)) return *s;
  type_mismatch(Type::String, type());
}

const Array& Value::as_array() const {
  if (const auto* a = std::get_if<Array>(&data_)) return *a;
  type_mismatch(Type::Array, type());
}

Array& Value::as_array() {
  if (auto* a = std::get_if<Array>(&data_)) return *a;
  type_mismatch(Type::Array, type());
}

const Object& Value::as_object() const {
  if (const auto* o = std::get_if<Object>(&data_)) return *o;
  type_mismatch(Type::Object, type());
}

Object& Value::as_object() {
  if (auto* o = std::get_if<Object>(&data_)) return *o;
  type_mismatch(Type::Object, type());
}

const Value* Value::find(std::string_view key) const {
  const auto* o = std::get_if<Object>(&data_);
  return o != nullptr ? o->find(key) : nullptr;
}

bool Value::get_or(std::string_view key, bool fallback) const {
  const Value* v = as_object().find(key);
  return v != nullptr ? v->as_bool() : fallback;
}

std::int64_t Value::get_or(std::string_view key, std::int64_t fallback) const {
  const Value* v = as_object().find(key);
  return v != nullptr ? v->as_int() : fallback;
}

double Value::get_or(std::string_view key, double fallback) const {
  const Value* v = as_object().find(key);
  return v != nullptr ? v->as_double() : fallback;
}

std::string Value::get_or(std::string_view key, const std::string& fallback) const {
  const Value* v = as_object().find(key);
  return v != nullptr ? v->as_string() : fallback;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

ParseError::ParseError(std::string message, int line, int column)
    : std::runtime_error("JSON parse error at line " + std::to_string(line) + ", column " +
                         std::to_string(column) + ": " + message),
      line_(line),
      column_(column) {}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_whitespace();
    Value v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(message, line_, column_);
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    if (eof()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    char c = peek();
    ++pos_;
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void expect(char c) {
    if (eof() || peek() != c) fail(std::string("expected '") + c + "'");
    advance();
  }

  void skip_whitespace() {
    while (!eof()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else {
        break;
      }
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    for (std::size_t i = 0; i < lit.size(); ++i) advance();
    return true;
  }

  Value parse_value() {
    if (eof()) fail("unexpected end of input");
    char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // A throw abandons the whole parse, so a level is only given back
        // on success.
        if (++depth_ > kMaxParseDepth) {
          fail("nesting deeper than " + std::to_string(kMaxParseDepth) + " levels");
        }
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return Value(nullptr);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail("unexpected character");
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_whitespace();
    if (!eof() && peek() == '}') {
      advance();
      return Value(std::move(obj));
    }
    while (true) {
      skip_whitespace();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      if (obj.contains(key)) fail("duplicate object key '" + key + "'");
      skip_whitespace();
      expect(':');
      skip_whitespace();
      obj[key] = parse_value();
      skip_whitespace();
      if (eof()) fail("unterminated object");
      char c = advance();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return Value(std::move(obj));
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_whitespace();
    if (!eof() && peek() == ']') {
      advance();
      return Value(std::move(arr));
    }
    while (true) {
      skip_whitespace();
      arr.push_back(parse_value());
      skip_whitespace();
      if (eof()) fail("unterminated array");
      char c = advance();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Value(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      char c = advance();
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) fail("unterminated escape sequence");
      char e = advance();
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape sequence");
      }
    }
    return out;
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) fail("unterminated \\u escape");
      char c = advance();
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code += static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code += static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code += static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return code;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: a low surrogate must follow.
      if (eof() || peek() != '\\') fail("unpaired surrogate");
      advance();
      if (eof() || peek() != 'u') fail("unpaired surrogate");
      advance();
      unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unexpected low surrogate");
    }
    append_utf8(out, code);
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Value parse_number() {
    std::size_t start = pos_;
    bool is_double = false;
    if (peek() == '-') advance();
    if (eof()) fail("invalid number");
    if (peek() == '0') {
      advance();
    } else if (peek() >= '1' && peek() <= '9') {
      while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) advance();
    } else {
      fail("invalid number");
    }
    if (!eof() && peek() == '.') {
      is_double = true;
      advance();
      if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0) {
        fail("expected digits after decimal point");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) advance();
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      is_double = true;
      advance();
      if (!eof() && (peek() == '+' || peek() == '-')) advance();
      if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0) {
        fail("expected digits in exponent");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) advance();
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (!is_double) {
      std::int64_t i = 0;
      auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), i);
      if (ec == std::errc() && ptr == token.data() + token.size()) return Value(i);
      // Falls through on overflow: represent as double.
    }
    double d = 0;
    auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), d);
    if (ec != std::errc() || ptr != token.data() + token.size()) fail("invalid number");
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  int depth_ = 0;  ///< open arrays/objects
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

// ---------------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------------

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x", static_cast<unsigned char>(c));
          out += buf.data();
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_double(std::string& out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    // JSON has no NaN/Inf; null is the conventional lossy fallback.
    out += "null";
    return;
  }
  std::array<char, 32> buf{};
  auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), d);
  if (ec != std::errc()) {
    out += "0";
    return;
  }
  std::string_view token(buf.data(), static_cast<std::size_t>(ptr - buf.data()));
  out += token;
  // Keep a trailing ".0" so the value re-parses as a double, not an integer.
  if (token.find('.') == std::string_view::npos && token.find('e') == std::string_view::npos &&
      token.find('E') == std::string_view::npos) {
    out += ".0";
  }
}

void serialize_impl(const Value& v, std::string& out, int indent, int depth) {
  auto newline_and_pad = [&](int d) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (v.type()) {
    case Type::Null: out += "null"; break;
    case Type::Boolean: out += v.as_bool() ? "true" : "false"; break;
    case Type::Integer: out += std::to_string(v.as_int()); break;
    case Type::Double: append_double(out, v.as_double()); break;
    case Type::String: append_escaped(out, v.as_string()); break;
    case Type::Array: {
      const Array& arr = v.as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_and_pad(depth + 1);
        serialize_impl(arr[i], out, indent, depth + 1);
      }
      newline_and_pad(depth);
      out.push_back(']');
      break;
    }
    case Type::Object: {
      const Object& obj = v.as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [k, val] : obj) {
        if (!first) out.push_back(',');
        first = false;
        newline_and_pad(depth + 1);
        append_escaped(out, k);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        serialize_impl(val, out, indent, depth + 1);
      }
      newline_and_pad(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string serialize(const Value& v) {
  std::string out;
  serialize_impl(v, out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string serialize_pretty(const Value& v) {
  std::string out;
  serialize_impl(v, out, /*indent=*/2, /*depth=*/0);
  return out;
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

struct Schema::Node {
  // Empty means any type is accepted.
  std::vector<Type> types;
  bool integer_only = false;  // distinguishes "integer" from "number"

  std::optional<double> minimum;
  std::optional<double> maximum;
  std::optional<double> exclusive_minimum;
  std::optional<double> exclusive_maximum;

  std::optional<std::size_t> min_length;  // strings
  std::optional<std::size_t> max_length;

  std::optional<std::size_t> min_items;  // arrays
  std::optional<std::size_t> max_items;
  std::shared_ptr<const Node> items;

  std::vector<std::pair<std::string, std::shared_ptr<const Node>>> properties;
  std::vector<std::string> required;
  bool additional_properties = true;

  std::vector<Value> enum_values;
};

namespace {

Type schema_type_from_name(const std::string& name, bool& integer_only) {
  if (name == "null") return Type::Null;
  if (name == "boolean") return Type::Boolean;
  if (name == "integer") {
    integer_only = true;
    return Type::Integer;
  }
  if (name == "number") return Type::Double;
  if (name == "string") return Type::String;
  if (name == "array") return Type::Array;
  if (name == "object") return Type::Object;
  throw std::runtime_error("json::Schema: unknown type name '" + name + "'");
}

std::shared_ptr<const Schema::Node> build_node(const Value& def);

void apply_type_field(Schema::Node& node, const Value& type_field) {
  auto add_one = [&](const Value& v) {
    bool integer_only = false;
    Type t = schema_type_from_name(v.as_string(), integer_only);
    node.types.push_back(t);
    if (integer_only) node.integer_only = true;
  };
  if (type_field.is_array()) {
    for (const Value& v : type_field.as_array()) add_one(v);
  } else {
    add_one(type_field);
  }
}

std::shared_ptr<const Schema::Node> build_node(const Value& def) {
  if (!def.is_object()) throw std::runtime_error("json::Schema: schema node must be an object");
  auto node = std::make_shared<Schema::Node>();
  const Object& obj = def.as_object();

  if (const Value* t = obj.find("type")) apply_type_field(*node, *t);
  if (const Value* v = obj.find("minimum")) node->minimum = v->as_double();
  if (const Value* v = obj.find("maximum")) node->maximum = v->as_double();
  if (const Value* v = obj.find("exclusiveMinimum")) node->exclusive_minimum = v->as_double();
  if (const Value* v = obj.find("exclusiveMaximum")) node->exclusive_maximum = v->as_double();
  if (const Value* v = obj.find("minLength")) {
    node->min_length = static_cast<std::size_t>(v->as_int());
  }
  if (const Value* v = obj.find("maxLength")) {
    node->max_length = static_cast<std::size_t>(v->as_int());
  }
  if (const Value* v = obj.find("minItems")) {
    node->min_items = static_cast<std::size_t>(v->as_int());
  }
  if (const Value* v = obj.find("maxItems")) {
    node->max_items = static_cast<std::size_t>(v->as_int());
  }
  if (const Value* v = obj.find("items")) node->items = build_node(*v);
  if (const Value* v = obj.find("properties")) {
    for (const auto& [key, sub] : v->as_object()) {
      node->properties.emplace_back(key, build_node(sub));
    }
  }
  if (const Value* v = obj.find("required")) {
    for (const Value& r : v->as_array()) node->required.push_back(r.as_string());
  }
  if (const Value* v = obj.find("additionalProperties")) {
    node->additional_properties = v->as_bool();
  }
  if (const Value* v = obj.find("enum")) {
    node->enum_values = v->as_array();
    if (node->enum_values.empty()) {
      throw std::runtime_error("json::Schema: enum must be non-empty");
    }
  }
  return node;
}

bool type_matches(const Schema::Node& node, const Value& v) {
  if (node.types.empty()) return true;
  for (Type t : node.types) {
    switch (t) {
      case Type::Null:
        if (v.is_null()) return true;
        break;
      case Type::Boolean:
        if (v.is_bool()) return true;
        break;
      case Type::Integer:
        if (v.is_int()) return true;
        break;
      case Type::Double:
        // "number" accepts integers too.
        if (v.is_number()) return true;
        break;
      case Type::String:
        if (v.is_string()) return true;
        break;
      case Type::Array:
        if (v.is_array()) return true;
        break;
      case Type::Object:
        if (v.is_object()) return true;
        break;
    }
  }
  return false;
}

std::string type_list_string(const Schema::Node& node) {
  std::string out;
  for (std::size_t i = 0; i < node.types.size(); ++i) {
    if (i > 0) out += " or ";
    Type t = node.types[i];
    out += (t == Type::Integer && node.integer_only) ? "integer"
           : (t == Type::Double)                     ? "number"
                                                     : std::string(to_string(t));
  }
  return out;
}

void validate_node(const Schema::Node& node, const Value& v, const std::string& path,
                   std::vector<SchemaIssue>& issues) {
  if (!type_matches(node, v)) {
    issues.push_back({path, "expected " + type_list_string(node) + ", got " +
                                std::string(to_string(v.type()))});
    return;  // further constraints are type-specific; stop here
  }

  if (!node.enum_values.empty()) {
    bool found = std::any_of(node.enum_values.begin(), node.enum_values.end(),
                             [&](const Value& e) { return e == v; });
    if (!found) issues.push_back({path, "value not in enumeration"});
  }

  if (v.is_number()) {
    double d = v.as_double();
    if (node.minimum && d < *node.minimum) {
      issues.push_back({path, "value " + std::to_string(d) + " below minimum " +
                                  std::to_string(*node.minimum)});
    }
    if (node.maximum && d > *node.maximum) {
      issues.push_back({path, "value " + std::to_string(d) + " above maximum " +
                                  std::to_string(*node.maximum)});
    }
    if (node.exclusive_minimum && d <= *node.exclusive_minimum) {
      issues.push_back({path, "value " + std::to_string(d) + " not above exclusive minimum " +
                                  std::to_string(*node.exclusive_minimum)});
    }
    if (node.exclusive_maximum && d >= *node.exclusive_maximum) {
      issues.push_back({path, "value " + std::to_string(d) + " not below exclusive maximum " +
                                  std::to_string(*node.exclusive_maximum)});
    }
  }

  if (v.is_string()) {
    std::size_t n = v.as_string().size();
    if (node.min_length && n < *node.min_length) {
      issues.push_back({path, "string shorter than minLength"});
    }
    if (node.max_length && n > *node.max_length) {
      issues.push_back({path, "string longer than maxLength"});
    }
  }

  if (v.is_array()) {
    const Array& arr = v.as_array();
    if (node.min_items && arr.size() < *node.min_items) {
      issues.push_back({path, "array has " + std::to_string(arr.size()) +
                                  " items, fewer than minItems " +
                                  std::to_string(*node.min_items)});
    }
    if (node.max_items && arr.size() > *node.max_items) {
      issues.push_back({path, "array has " + std::to_string(arr.size()) +
                                  " items, more than maxItems " + std::to_string(*node.max_items)});
    }
    if (node.items) {
      for (std::size_t i = 0; i < arr.size(); ++i) {
        validate_node(*node.items, arr[i], path + "/" + std::to_string(i), issues);
      }
    }
  }

  if (v.is_object()) {
    const Object& obj = v.as_object();
    for (const std::string& req : node.required) {
      if (!obj.contains(req)) issues.push_back({path, "missing required property '" + req + "'"});
    }
    for (const auto& [key, sub] : node.properties) {
      if (const Value* child = obj.find(key)) {
        validate_node(*sub, *child, path + "/" + key, issues);
      }
    }
    if (!node.additional_properties) {
      for (const auto& [key, child] : obj) {
        (void)child;
        bool known = std::any_of(node.properties.begin(), node.properties.end(),
                                 [&](const auto& p) { return p.first == key; });
        if (!known) issues.push_back({path, "unexpected property '" + key + "'"});
      }
    }
  }
}

}  // namespace

Schema::Schema(const Value& definition) : root_(build_node(definition)) {}

std::vector<SchemaIssue> Schema::validate(const Value& instance) const {
  std::vector<SchemaIssue> issues;
  validate_node(*root_, instance, "", issues);
  return issues;
}

}  // namespace rabit::json
