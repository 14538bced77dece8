// The one JSON reader: serve requests and device files both parse through it.
// A pull reader over a std::string_view that never reads past its end (the
// text may be a socket buffer with no NUL terminator), counts lines as it
// consumes '\n', and walks objects and arrays through callbacks, so each
// caller checks its own schema as it reads. Strings decode the full escape
// set, \uXXXX and surrogate pairs included (to UTF-8); numbers go through a
// bounded strtod and must be finite. Whitespace is the isspace set. Every
// rejection throws json::Error carrying the line it was found on.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace qfto {
namespace json {

/// A rejected document: what() is the bare reason, line() the 1-based line.
class Error : public std::invalid_argument {
 public:
  Error(std::int32_t line, const std::string& what)
      : std::invalid_argument(what), line_(line) {}
  std::int32_t line() const { return line_; }

 private:
  std::int32_t line_;
};

class Reader {
 public:
  explicit Reader(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// Throws Error at the current line.
  [[noreturn]] void fail(const std::string& what) const;

  /// Skips whitespace; true when nothing else remains.
  bool at_end();

  /// Skips whitespace and returns the next byte without consuming it.
  char peek();

  std::string string();
  double number();

  /// One string, number, true, false or null, returned as its verbatim text;
  /// an object or array fails.
  std::string_view scalar();

  /// Walks one object: `on_key(key)` per member, which must consume the value.
  template <class OnKey>
  void object(OnKey&& on_key) {
    expect('{');
    if (consume('}')) return;
    do {
      const std::string key = string();
      expect(':');
      on_key(key);
    } while (next_member('}'));
  }

  /// Walks one array: `on_element()` per element, which must consume it.
  template <class OnElement>
  void array(OnElement&& on_element) {
    expect('[');
    if (consume(']')) return;
    do {
      on_element();
    } while (next_member(']'));
  }

 private:
  void skip_ws();
  void expect(char c);
  bool consume(char c);
  /// After a member: true on ',' (another follows), false on `close`.
  bool next_member(char close);
  bool keyword(std::string_view kw);
  std::uint32_t hex4();
  std::uint32_t code_point();

  const char* p_;
  const char* end_;
  std::int32_t line_ = 1;
};

}  // namespace json
}  // namespace qfto
