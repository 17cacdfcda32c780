/// \file strings.h
/// \brief Small string utilities shared by the parsers and CLI tools.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace leqa::util {

/// ASCII whitespace: exactly the characters std::isspace accepts in the
/// "C" locale (space, \t, \n, \v, \f, \r), without the locale lookup.
/// The one whitespace classifier of the parsers and the helpers below.
[[nodiscard]] constexpr bool is_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Remove leading and trailing ASCII whitespace.
[[nodiscard]] std::string trim(std::string_view text);

/// trim() without the copy: a view into \p text.
[[nodiscard]] std::string_view trim_view(std::string_view text);

/// ASCII case-insensitive equality.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b);

/// Lower-case ASCII copy.
[[nodiscard]] std::string to_lower(std::string_view text);

/// Split on a single character; empty fields are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Split on any run of ASCII whitespace; empty fields are dropped.
[[nodiscard]] std::vector<std::string> split_whitespace(std::string_view text);

/// Pop the next whitespace-delimited field off the front of \p rest (a view
/// into it); empty once no field is left.
[[nodiscard]] std::string_view next_field(std::string_view& rest);

[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view text, std::string_view suffix);

/// Join strings with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strict parsers: the whole string must be consumed, otherwise nullopt.
[[nodiscard]] std::optional<long long> parse_int(std::string_view text);
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

/// Format a double with %.*g style precision.
[[nodiscard]] std::string format_double(double value, int significant_digits = 6);

/// Scientific notation with fixed mantissa digits, e.g. 1.617E+00.
[[nodiscard]] std::string format_scientific(double value, int mantissa_digits = 3);

/// True if \p text is a valid identifier: [A-Za-z_][A-Za-z0-9_^.\[\]-]*.
/// The permissive tail matches benchmark names such as "gf2^16mult".
[[nodiscard]] bool is_identifier(std::string_view text);

} // namespace leqa::util
