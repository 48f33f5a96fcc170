// The one JSON writer behind every obs exporter (trace, telemetry, SLO,
// metrics JSON and Prometheus text): it appends fragments to a
// caller-owned std::string, so an export is a single growing buffer with
// no stream, no locale and no per-value temporary.
//
// Wire format: doubles render through std::to_chars with
// chars_format::general and precision 17, which the standard defines as
// printf's %.17g in the "C" locale -- the repo-wide float format (17
// significant digits round-trip every double exactly).  Strings are
// escaped in place (quotes, backslashes, newlines, tabs), the same four
// escapes the exporters have always emitted.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace rt3 {

class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  /// Verbatim text: punctuation, fixed keys, pre-rendered fragments.
  JsonWriter& raw(std::string_view s) {
    out_.append(s);
    return *this;
  }
  JsonWriter& raw(char c) {
    out_.push_back(c);
    return *this;
  }
  /// A double as %.17g renders it ("inf"/"nan" for non-finite values).
  JsonWriter& number(double value);
  JsonWriter& integer(std::int64_t value);
  /// `s` JSON-escaped, without surrounding quotes.
  JsonWriter& escaped(std::string_view s);
  /// `s` JSON-escaped inside double quotes.
  JsonWriter& string(std::string_view s) {
    raw('"');
    escaped(s);
    return raw('"');
  }

 private:
  std::string& out_;
};

}  // namespace rt3
