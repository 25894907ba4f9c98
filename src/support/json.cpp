#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>

namespace muerp::support::json {

namespace {

const Value& null_value() {
  static const Value kNull;
  return kNull;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  ParseResult run() {
    ParseResult result;
    skip_whitespace();
    if (!parse_value(&result.value)) {
      result.error = error_;
      return result;
    }
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing garbage after document");
      result.error = error_;
    }
    return result;
  }

 private:
  bool fail(const std::string& message) {
    if (error_.empty()) {
      error_ = "offset " + std::to_string(pos_) + ": " + message;
    }
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect(char c) {
    if (consume(c)) return true;
    return fail(std::string("expected '") + c + "'");
  }

  bool parse_value(Value* out) {
    if (pos_ >= text_.size()) return fail("unexpected end of document");
    switch (text_[pos_]) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"':
        out->kind = Value::Kind::kString;
        return parse_string(&out->string_value);
      case 't':
        return parse_literal("true", out, Value::Kind::kBool, true);
      case 'f':
        return parse_literal("false", out, Value::Kind::kBool, false);
      case 'n':
        return parse_literal("null", out, Value::Kind::kNull, false);
      default:
        return parse_number(out);
    }
  }

  bool parse_literal(std::string_view word, Value* out, Value::Kind kind,
                     bool value) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    out->kind = kind;
    out->bool_value = value;
    return true;
  }

  bool parse_number(Value* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double parsed = 0.0;
    const auto [end, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, parsed);
    if (ec != std::errc() || end != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      return fail("invalid number");
    }
    out->kind = Value::Kind::kNumber;
    out->number_value = parsed;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!expect('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          std::uint32_t code = 0;
          const auto [end, ec] = std::from_chars(
              text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
          if (ec != std::errc() || end != text_.data() + pos_ + 4) {
            return fail("invalid \\u escape");
          }
          pos_ += 4;
          if (code >= 0xD800 && code <= 0xDFFF) {
            return fail("surrogate pairs are not supported");
          }
          // UTF-8 encode the BMP code point.
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
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_array(Value* out) {
    if (!expect('[')) return false;
    out->kind = Value::Kind::kArray;
    skip_whitespace();
    if (consume(']')) return true;
    while (true) {
      Value element;
      skip_whitespace();
      if (!parse_value(&element)) return false;
      out->elements.push_back(std::move(element));
      skip_whitespace();
      if (consume(']')) return true;
      if (!expect(',')) return false;
    }
  }

  bool parse_object(Value* out) {
    if (!expect('{')) return false;
    out->kind = Value::Kind::kObject;
    skip_whitespace();
    if (consume('}')) return true;
    while (true) {
      skip_whitespace();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_whitespace();
      if (!expect(':')) return false;
      Value value;
      skip_whitespace();
      if (!parse_value(&value)) return false;
      out->members.emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      if (consume('}')) return true;
      if (!expect(',')) return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const Value* Value::find(std::string_view key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Value& Value::operator[](std::string_view key) const noexcept {
  const Value* found = find(key);
  return found != nullptr ? *found : null_value();
}

const Value& Value::operator[](std::size_t index) const noexcept {
  if (kind != Kind::kArray || index >= elements.size()) return null_value();
  return elements[index];
}

ParseResult parse(std::string_view text) { return Parser(text).run(); }

void append_quoted(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
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
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xf]);
          out.push_back(kHex[c & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string quote(std::string_view s) {
  std::string out;
  append_quoted(out, s);
  return out;
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];  // the longest %.17g double is 24 bytes
  const auto result =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                    std::numeric_limits<double>::max_digits10);
  out.append(buf, result.ptr);
}

std::string number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

}  // namespace muerp::support::json
