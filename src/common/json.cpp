#include "common/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace qfto {
namespace json {

namespace {

/// Appends `cp` (a Unicode scalar value) to `out` as UTF-8.
void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

void Reader::fail(const std::string& what) const { throw Error(line_, what); }

void Reader::skip_ws() {
  // The C-locale isspace set: ' ', \t, \n, \v, \f, \r.
  for (; p_ < end_ && (*p_ == ' ' || (*p_ >= '\t' && *p_ <= '\r')); ++p_) {
    if (*p_ == '\n') ++line_;
  }
}

bool Reader::at_end() {
  skip_ws();
  return p_ == end_;
}

char Reader::peek() {
  if (at_end()) fail("unexpected end of input");
  return *p_;
}

void Reader::expect(char c) {
  if (!consume(c)) fail(std::string("expected '") + c + "', got '" + *p_ + "'");
}

bool Reader::consume(char c) {
  if (peek() != c) return false;
  ++p_;
  return true;
}

bool Reader::next_member(char close) {
  if (consume(',')) return true;
  if (consume(close)) return false;
  fail(std::string("expected ',' or '") + close + "'");
}

bool Reader::keyword(std::string_view kw) {
  // Bounds first: the tail may be shorter than the keyword.
  if (static_cast<std::size_t>(end_ - p_) < kw.size() ||
      std::memcmp(p_, kw.data(), kw.size()) != 0) {
    return false;
  }
  p_ += kw.size();
  return true;
}

std::uint32_t Reader::hex4() {
  if (end_ - p_ < 4) fail("truncated \\u escape");
  const auto is_hex = [](char c) {
    return std::isxdigit(static_cast<unsigned char>(c)) != 0;
  };
  if (!std::all_of(p_, p_ + 4, is_hex)) fail("bad hex digit in \\u escape");
  const std::string digits(p_, 4);
  p_ += 4;
  return static_cast<std::uint32_t>(std::strtoul(digits.c_str(), nullptr, 16));
}

std::uint32_t Reader::code_point() {
  const std::uint32_t cp = hex4();
  if (cp >= 0xDC00 && cp <= 0xDFFF) fail("unpaired surrogate in \\u escape");
  if (cp < 0xD800 || cp > 0xDBFF) return cp;
  // High surrogate: a low surrogate must follow, the pair combining into one
  // supplementary-plane scalar.
  if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u') {
    fail("unpaired surrogate in \\u escape");
  }
  p_ += 2;
  const std::uint32_t low = hex4();
  if (low < 0xDC00 || low > 0xDFFF) fail("unpaired surrogate in \\u escape");
  return 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
}

std::string Reader::string() {
  expect('"');
  // A string may span lines; if it never closes, point at where it opened.
  const std::int32_t open_line = line_;
  std::string out;
  for (;;) {
    const char* run = p_;
    for (; p_ < end_ && *p_ != '"' && *p_ != '\\'; ++p_) {
      if (*p_ == '\n') ++line_;
    }
    out.append(run, p_);
    if (p_ == end_) throw Error(open_line, "unterminated string");
    if (*p_++ == '"') return out;
    if (p_ == end_) fail("dangling escape");
    switch (*p_++) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': append_utf8(out, code_point()); break;
      default: fail("unsupported escape");
    }
  }
}

double Reader::number() {
  skip_ws();
  // strtod reads until it stops recognizing number syntax — on a buffer with
  // no NUL terminator that walk can run past `end_`. Copy the token into a
  // bounded, NUL-terminated stack buffer first. 63 chars is far beyond any
  // finite double's shortest spelling, so overflow here is a malformed
  // token, not a lost precision case.
  const char* stop = std::find_if_not(p_, end_, [](char c) {
    return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
           c == 'e' || c == 'E';
  });
  const auto len = static_cast<std::size_t>(stop - p_);
  char buf[64] = {};
  if (len >= sizeof(buf)) fail("number token too long");
  if (len == 0) fail("expected a number");
  std::memcpy(buf, p_, len);
  buf[len] = '\0';
  char* num_end = nullptr;
  const double v = std::strtod(buf, &num_end);
  if (num_end != buf + len) fail("malformed number");
  // 1e999 parses as inf; letting it through would feed non-finite values
  // into duration arithmetic and integer casts (float-cast UB).
  if (!std::isfinite(v)) fail("non-finite number");
  p_ += len;
  return v;
}

std::string_view Reader::scalar() {
  const char c = peek();
  const char* start = p_;
  if (c == '"') {
    string();
  } else if (c == '{' || c == '[') {
    fail("expected a string, number, true, false or null");
  } else if (!keyword("true") && !keyword("false") && !keyword("null")) {
    number();
  }
  return {start, static_cast<std::size_t>(p_ - start)};
}

}  // namespace json
}  // namespace qfto
