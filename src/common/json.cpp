#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/error.hpp"

namespace capgpu::json {

Value::Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
Value::Value(Array a)
    : type_(Type::kArray), array_(std::make_shared<Array>(std::move(a))) {}
Value::Value(Object o)
    : type_(Type::kObject), object_(std::make_shared<Object>(std::move(o))) {}

bool Value::as_bool() const {
  CAPGPU_REQUIRE(type_ == Type::kBool, "JSON value is not a bool");
  return bool_;
}

double Value::as_number() const {
  CAPGPU_REQUIRE(type_ == Type::kNumber, "JSON value is not a number");
  return number_;
}

const std::string& Value::as_string() const {
  CAPGPU_REQUIRE(type_ == Type::kString, "JSON value is not a string");
  return string_;
}

const Array& Value::as_array() const {
  CAPGPU_REQUIRE(type_ == Type::kArray, "JSON value is not an array");
  return *array_;
}

const Object& Value::as_object() const {
  CAPGPU_REQUIRE(type_ == Type::kObject, "JSON value is not an object");
  return *object_;
}

const Value& Value::at(const std::string& key) const {
  const Object& obj = as_object();
  auto it = obj.find(key);
  CAPGPU_REQUIRE(it != obj.end(), "JSON object has no member '" + key + "'");
  return it->second;
}

bool Value::contains(const std::string& key) const {
  return type_ == Type::kObject && object_->count(key) > 0;
}

double Value::number_or(const std::string& key, double fallback) const {
  if (!contains(key)) return fallback;
  const Value& v = object_->at(key);
  return v.type() == Type::kNumber ? v.as_number() : fallback;
}

std::string Value::string_or(const std::string& key,
                             const std::string& fallback) const {
  if (!contains(key)) return fallback;
  const Value& v = object_->at(key);
  return v.type() == Type::kString ? v.as_string() : fallback;
}

long long Value::as_integer(const std::string& key, long long lo,
                           long long hi) const {
  CAPGPU_REQUIRE(lo <= hi && -kMaxExactInteger <= lo && hi <= kMaxExactInteger,
                 "integer range must lie within +-2^53");
  if (type_ == Type::kNumber && std::isfinite(number_) &&
      number_ == std::floor(number_) && number_ >= static_cast<double>(lo) &&
      number_ <= static_cast<double>(hi)) {
    return static_cast<long long>(number_);
  }
  std::string got = "a non-number";
  if (type_ == Type::kNumber) {
    // Fewest digits that still show the value exactly (1.9, not
    // 1.8999999999999999; 2.0000000000000004, not 2).
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.15g", number_);
    if (std::strtod(buf, nullptr) != number_) {
      std::snprintf(buf, sizeof buf, "%.17g", number_);
    }
    got = buf;
  }
  throw InvalidArgument("JSON member '" + key + "' must be an integer in [" +
                        std::to_string(lo) + ", " + std::to_string(hi) +
                        "], got " + got);
}

long long Value::integer_or(const std::string& key, long long fallback,
                            long long lo, long long hi) const {
  return contains(key) ? object_->at(key).as_integer(key, lo, hi) : fallback;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::size_t pos) : text_(text), pos_(pos) {}

  /// `depth` counts the arrays and objects enclosing this value.
  Value parse_value(std::size_t depth = 0) {
    skip_ws();
    CAPGPU_REQUIRE(pos_ < text_.size(), err("unexpected end of input"));
    const bool nests = text_[pos_] == '{' || text_[pos_] == '[';
    CAPGPU_REQUIRE(!nests || depth < kMaxDepth,
                   err("nesting deeper than " + std::to_string(kMaxDepth) +
                       " levels"));
    switch (text_[pos_]) {
      case '{': return parse_object(depth + 1);
      case '[': return parse_array(depth + 1);
      case '"': return Value(parse_string());
      case 't': expect_word("true"); return Value(true);
      case 'f': expect_word("false"); return Value(false);
      case 'n': expect_word("null"); return Value();
      default: return parse_number();
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  [[nodiscard]] std::string err(const std::string& what) const {
    return "JSON parse error at offset " + std::to_string(pos_) + ": " + what;
  }

  void expect(char c) {
    CAPGPU_REQUIRE(pos_ < text_.size() && text_[pos_] == c,
                   err(std::string("expected '") + c + "'"));
    ++pos_;
  }

  void expect_word(const char* word) {
    for (const char* p = word; *p; ++p) {
      CAPGPU_REQUIRE(pos_ < text_.size() && text_[pos_] == *p,
                     err(std::string("expected '") + word + "'"));
      ++pos_;
    }
  }

  Value parse_object(std::size_t depth) {
    expect('{');
    Object obj;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.insert_or_assign(std::move(key), parse_value(depth));
      skip_ws();
      CAPGPU_REQUIRE(pos_ < text_.size(), err("unterminated object"));
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(obj));
    }
  }

  Value parse_array(std::size_t depth) {
    expect('[');
    Array arr;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value(depth));
      skip_ws();
      CAPGPU_REQUIRE(pos_ < text_.size(), err("unterminated array"));
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      CAPGPU_REQUIRE(pos_ < text_.size(), err("unterminated string"));
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      CAPGPU_REQUIRE(pos_ < text_.size(), err("unterminated escape"));
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
          CAPGPU_REQUIRE(pos_ + 4 <= text_.size(), err("short \\u escape"));
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
              CAPGPU_REQUIRE(false, err("bad \\u escape"));
            }
          }
          // UTF-8 encode (surrogate pairs unsupported — our writers never
          // emit them; a lone surrogate encodes as-is).
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
        default: CAPGPU_REQUIRE(false, err("unknown escape"));
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (digits && pos_ < text_.size() &&
        (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      eat_digits();
    }
    CAPGPU_REQUIRE(digits, err("expected a value"));
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    CAPGPU_REQUIRE(end != nullptr && *end == '\0', err("bad number"));
    return Value(v);
  }

  const std::string& text_;
  std::size_t pos_;
};

}  // namespace

Value parse(const std::string& text) {
  std::size_t pos = 0;
  Value v = parse_prefix(text, pos);
  Parser tail(text, pos);
  tail.skip_ws();
  CAPGPU_REQUIRE(tail.pos() == text.size(),
                 "trailing content after JSON document at offset " +
                     std::to_string(tail.pos()));
  return v;
}

Value parse_prefix(const std::string& text, std::size_t& pos) {
  Parser parser(text, pos);
  Value v = parser.parse_value();
  pos = parser.pos();
  return v;
}

std::string render_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace capgpu::json
