#include "darl/common/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace darl {

std::optional<std::uint64_t> parse_count(const char* text) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(n);
}

std::optional<double> parse_real(const char* text) {
  if (std::isspace(static_cast<unsigned char>(text[0]))) return std::nullopt;
  char* end = nullptr;
  const double x = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(x)) return std::nullopt;
  return x;
}

}  // namespace darl
