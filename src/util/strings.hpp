// Small string utilities shared across modules (parsing HTTP, PPL, URLs).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace pan::strings {

/// Splits on a single character; keeps empty fields.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits on a character, trimming whitespace from each field and dropping
/// fields that end up empty (convenient for comma lists in headers).
[[nodiscard]] std::vector<std::string_view> split_trimmed(std::string_view s, char sep);

[[nodiscard]] std::string_view trim(std::string_view s);
[[nodiscard]] std::string to_lower(std::string_view s);
[[nodiscard]] bool iequals(std::string_view a, std::string_view b);
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix);

/// Strict unsigned integer parse of the full string (no sign, no trailing
/// garbage, no empty input).
[[nodiscard]] Result<std::uint64_t> parse_u64(std::string_view s);
/// As parse_u64 but with a radix of 16 (no 0x prefix expected).
[[nodiscard]] Result<std::uint64_t> parse_hex_u64(std::string_view s);

/// printf-style formatting into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// JSON string-escapes `s` (quotes, backslashes, control characters) without
/// surrounding quotes. util::JsonWriter routes every key and string value
/// through this — origin keys, fault verb args and path fingerprints are not
/// guaranteed quote-free.
[[nodiscard]] std::string json_escape(std::string_view s);
/// json_escape with surrounding double quotes: `"…"`.
[[nodiscard]] std::string json_quote(std::string_view s);

}  // namespace pan::strings
