// Minimal recursive-descent JSON parser for the offline tooling
// (tools/capgpu_report reads events.jsonl and the --slo-report-out
// artifact; tests read --summary-out). Parses the full JSON grammar into a
// small value tree; throws InvalidArgument with position info on malformed
// input. Not a performance-critical path — clarity over speed.
//
// Also the two primitives every JSON artifact writer shares (render_number,
// escape), so the trace, SLO, resilience, energy and flight writers spell
// numbers and strings the same way.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace capgpu::json {

class Value;
using Array = std::vector<Value>;
/// Object keys keep insertion order irrelevant for our consumers; a sorted
/// map keeps lookups simple.
using Object = std::map<std::string, Value>;

/// One JSON value (tagged union).
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double n) : type_(Type::kNumber), number_(n) {}
  explicit Value(std::string s);
  explicit Value(Array a);
  explicit Value(Object o);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }

  /// Typed accessors; throw InvalidArgument on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; throws when not an object or key missing.
  [[nodiscard]] const Value& at(const std::string& key) const;
  /// True when this is an object containing `key`.
  [[nodiscard]] bool contains(const std::string& key) const;

  /// Convenience: member as number/string with a default when absent.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      const std::string& fallback) const;

  /// This number as an integer in [lo, hi] — the checked read for counts
  /// and int fields of outside documents, where a cast of a negative,
  /// fractional, non-finite or out-of-range double would be undefined or
  /// silently truncate. Throws InvalidArgument naming `key` otherwise.
  /// [lo, hi] must lie within +-2^53, where a double holds every integer.
  [[nodiscard]] long long as_integer(const std::string& key, long long lo,
                                     long long hi) const;
  /// Member `key` through as_integer(), or `fallback` when absent.
  [[nodiscard]] long long integer_or(const std::string& key,
                                     long long fallback, long long lo,
                                     long long hi) const;

 private:
  Type type_{Type::kNull};
  bool bool_{false};
  double number_{0.0};
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Deepest array/object nesting the parser accepts. Every document the
/// repo writes is a few levels deep; the limit keeps a hostile line from
/// exhausting the stack of the recursive descent.
inline constexpr std::size_t kMaxDepth = 256;

/// Parses one JSON document; trailing non-whitespace, or nesting deeper
/// than kMaxDepth, is an error.
[[nodiscard]] Value parse(const std::string& text);

/// Parses one document from `text` starting at `pos`, advancing `pos` past
/// it (JSONL: call per line, or repeatedly on a concatenated stream).
[[nodiscard]] Value parse_prefix(const std::string& text, std::size_t& pos);

/// Largest integer range a double represents exactly (2^53): the `hi` of
/// as_integer() for size_t counts.
inline constexpr long long kMaxExactInteger = 9007199254740992LL;

/// Shortest stable number rendering of the report writers: integral values
/// below 1e15 print as integers, the rest at %.10g, non-finite as 0.
[[nodiscard]] std::string render_number(double v);

/// `s` escaped for a JSON string body (no surrounding quotes): quote,
/// backslash, \n, \r and \t get their short escapes, every other control
/// character a \u00XX escape.
[[nodiscard]] std::string escape(std::string_view s);

}  // namespace capgpu::json
