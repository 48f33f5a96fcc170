#include "obs/json_writer.hpp"

#include <charconv>

namespace rt3 {

JsonWriter& JsonWriter::number(double value) {
  // The longest %.17g rendering is 24 chars ("-1.2345678901234567e-308").
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  out_.append(buf, r.ptr);
  return *this;
}

JsonWriter& JsonWriter::integer(std::int64_t value) {
  char buf[24];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), value, 10);
  out_.append(buf, r.ptr);
  return *this;
}

JsonWriter& JsonWriter::escaped(std::string_view s) {
  // Copy unescaped runs whole; only the four escaped bytes break a run.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && c != '\n' && c != '\t') {
      continue;
    }
    out_.append(s.data() + run, i - run);
    out_.push_back('\\');
    out_.push_back(c == '\n' ? 'n' : c == '\t' ? 't' : c);
    run = i + 1;
  }
  out_.append(s.data() + run, s.size() - run);
  return *this;
}

}  // namespace rt3
