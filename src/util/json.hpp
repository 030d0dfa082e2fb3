// Streaming JSON writer. Every JSON body in src/ goes through it, so string
// escaping and comma placement live in one place: an origin key, replica
// name or fault argument with a quote in it cannot break a document.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>

namespace pan::util {

/// Builds one JSON document, or at depth 0 a run of them (raw("\n") between
/// documents gives JSON Lines). Objects and arrays nest up to 64 levels; the
/// writer inserts the separating commas itself.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// Object member name; the next call writes its value.
  JsonWriter& key(std::string_view name);

  /// A quoted string, escaped by strings::json_escape.
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  template <std::integral T>
  JsonWriter& value(T v) {
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return raw(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }
  /// A number with `places` decimals, as printf's "%.*f" prints it.
  JsonWriter& fixed(double v, int places);

  /// A value that is already JSON: a number in a site's own format, or a
  /// nested document another emitter produced.
  JsonWriter& raw(std::string_view json);

  template <class T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  /// The text written so far; the writer is spent afterwards.
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  /// Writes the comma owed before a new element of the current container.
  void separate();
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);

  std::string out_;
  /// Bit d is set once the container at depth d holds an element.
  std::uint64_t nonempty_ = 0;
  unsigned depth_ = 0;
  bool after_key_ = false;
};

}  // namespace pan::util
