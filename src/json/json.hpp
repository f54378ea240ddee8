// rabit::json — a small, self-contained JSON library.
//
// RABIT's device descriptions, rulebase extensions, and lab configuration are
// all expressed as JSON files edited by lab researchers (paper §II-C). This
// module provides the value model, a strict parser with line/column error
// reporting, serialization, and a schema validator used to catch the
// configuration mistakes observed in the pilot study (§V-A), such as sign
// errors in coordinates and malformed syntax.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace rabit::json {

class Value;

/// Ordered object representation: preserves insertion order so that emitted
/// configuration files diff cleanly against researcher-edited originals.
class Object {
 public:
  using Entry = std::pair<std::string, Value>;

  Object() = default;

  /// Returns the value for `key`, or nullptr if absent.
  [[nodiscard]] const Value* find(std::string_view key) const;
  [[nodiscard]] Value* find(std::string_view key);

  /// Returns the value for `key`; inserts a null value if absent.
  Value& operator[](std::string_view key);

  /// Returns the value for `key`; throws std::out_of_range if absent.
  [[nodiscard]] const Value& at(std::string_view key) const;

  [[nodiscard]] bool contains(std::string_view key) const { return find(key) != nullptr; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  void erase(std::string_view key);

  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }
  [[nodiscard]] auto begin() { return entries_.begin(); }
  [[nodiscard]] auto end() { return entries_.end(); }

  friend bool operator==(const Object& a, const Object& b);

 private:
  std::vector<Entry> entries_;
};

using Array = std::vector<Value>;

enum class Type { Null, Boolean, Integer, Double, String, Array, Object };

[[nodiscard]] std::string_view to_string(Type t);

/// A JSON value. Integers and doubles are kept distinct so that device
/// state variables (often exact counters) round-trip without precision loss.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : data_(i) {}
  Value(std::size_t i) : data_(static_cast<std::int64_t>(i)) {}
  Value(double d) : data_(d) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string_view s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  [[nodiscard]] Type type() const;

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(data_); }
  [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(data_); }
  [[nodiscard]] bool is_double() const { return std::holds_alternative<double>(data_); }
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(data_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(data_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(data_); }

  /// Checked accessors; throw std::runtime_error on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;  // accepts both Integer and Double
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Object& as_object();

  /// Object convenience: value for `key`, or nullptr when this is not an
  /// object or the key is absent.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Object convenience with defaults; throw when this is not an object.
  [[nodiscard]] bool get_or(std::string_view key, bool fallback) const;
  [[nodiscard]] std::int64_t get_or(std::string_view key, std::int64_t fallback) const;
  [[nodiscard]] double get_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::string get_or(std::string_view key, const std::string& fallback) const;

  friend bool operator==(const Value& a, const Value& b) { return a.data_ == b.data_; }

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array, Object> data_;
};

/// Thrown on malformed input; carries 1-based line and column.
class ParseError : public std::runtime_error {
 public:
  ParseError(std::string message, int line, int column);
  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// Deepest array/object nesting parse() accepts; a deeper document is a
/// ParseError, never a stack overflow.
inline constexpr int kMaxParseDepth = 512;

/// Parses a complete JSON document. Trailing garbage is an error.
[[nodiscard]] Value parse(std::string_view text);

/// Serializes compactly (no whitespace).
[[nodiscard]] std::string serialize(const Value& v);

/// Serializes with 2-space indentation.
[[nodiscard]] std::string serialize_pretty(const Value& v);

// ---------------------------------------------------------------------------
// Schema validation
//
// A pragmatic subset of JSON Schema, sufficient to express RABIT's device
// configuration contracts: type constraints, required properties, numeric
// ranges (catches the pilot study's sign errors), enumerations, array item
// schemas and length bounds, and closed objects.
// ---------------------------------------------------------------------------

struct SchemaIssue {
  std::string path;     ///< JSON-pointer-like location, e.g. "/devices/0/door"
  std::string message;  ///< human-readable description of the violation
};

class Schema {
 public:
  /// Builds a schema from its JSON description. Throws std::runtime_error on
  /// malformed schema documents.
  explicit Schema(const Value& definition);
  explicit Schema(std::string_view definition_text) : Schema(parse(definition_text)) {}
  explicit Schema(const char* definition_text) : Schema(std::string_view(definition_text)) {}

  /// Returns all violations (empty means valid).
  [[nodiscard]] std::vector<SchemaIssue> validate(const Value& instance) const;

  struct Node;  // implementation detail, public only for the builder

 private:
  std::shared_ptr<const Node> root_;
};

}  // namespace rabit::json
