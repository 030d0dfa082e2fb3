#include "util/json.hpp"

#include <cassert>

#include "util/strings.hpp"

namespace pan::util {

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (depth_ == 0) return;
  const std::uint64_t bit = std::uint64_t{1} << (depth_ - 1);
  if ((nonempty_ & bit) != 0) out_ += ',';
  nonempty_ |= bit;
}

JsonWriter& JsonWriter::open(char bracket) {
  separate();
  out_ += bracket;
  assert(depth_ < 64);
  ++depth_;
  nonempty_ &= ~(std::uint64_t{1} << (depth_ - 1));
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  assert(depth_ > 0 && !after_key_);
  --depth_;
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  value(name);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  out_ += '"';
  out_ += strings::json_escape(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::fixed(double v, int places) {
  char buf[400];  // DBL_MAX has 309 integer digits
  const auto end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, places).ptr;
  return raw(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  out_ += json;
  return *this;
}

}  // namespace pan::util
