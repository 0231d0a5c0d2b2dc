// darl/common/parse.hpp
//
// Strict text-to-number parsing for command-line values. Unlike bare
// strtoull/strtod, a value is accepted only when the whole token is a
// number of the requested kind, so "-1" never wraps to 2^64-1 and
// "12abc" is never read as 12.

#pragma once

#include <cstdint>
#include <optional>

namespace darl {

/// Unsigned decimal: the token must be digits only (no sign, no
/// whitespace, no trailing text) and fit in 64 bits.
std::optional<std::uint64_t> parse_count(const char* text);

/// Real number: the whole token must be consumed (no leading
/// whitespace, no trailing text) and the value must be finite.
std::optional<double> parse_real(const char* text);

}  // namespace darl
