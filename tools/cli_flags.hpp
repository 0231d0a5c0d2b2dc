// tools/cli_flags.hpp
//
// Flag-value readers shared by the darl_* command-line tools. Each reader
// is handed the index of a flag, advances it past the flag's value and
// returns that value. Numbers go through darl::parse_count /
// darl::parse_real, so "12abc", "-1" and "inf" are refused instead of
// being read as 12, 2^64-1 or infinity. A missing or refused value
// prints a message to stderr and ends in the tool's usage(2).

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "darl/common/parse.hpp"

namespace darl::cli {

class FlagValues {
 public:
  /// `usage` prints the tool's help and exits with the given code.
  FlagValues(int argc, char** argv, void (*usage)(int))
      : argc_(argc), argv_(argv), usage_(usage) {}

  const char* text(int& i) const {
    if (i + 1 >= argc_) {
      std::fprintf(stderr, "missing value for %s\n", argv_[i]);
      fail();
    }
    return argv_[++i];
  }

  /// Unsigned decimal: digits only, fits 64 bits.
  std::size_t count(int& i) const {
    const char* flag = argv_[i];  // text() advances i
    const char* v = text(i);
    const std::optional<std::uint64_t> n = parse_count(v);
    if (!n) {
      std::fprintf(stderr, "%s needs a non-negative integer, got '%s'\n",
                   flag, v);
      fail();
    }
    return static_cast<std::size_t>(*n);
  }

  /// Whole-token finite real.
  double real(int& i) const {
    const char* flag = argv_[i];
    const char* v = text(i);
    const std::optional<double> x = parse_real(v);
    if (!x) {
      std::fprintf(stderr, "%s needs a finite number, got '%s'\n", flag, v);
      fail();
    }
    return *x;
  }

  /// A count no larger than 65535.
  int port(int& i) const {
    const char* flag = argv_[i];
    const std::size_t p = count(i);
    if (p > 65535) {
      std::fprintf(stderr, "%s must be at most 65535\n", flag);
      fail();
    }
    return static_cast<int>(p);
  }

 private:
  [[noreturn]] void fail() const {
    usage_(2);
    std::exit(2);  // usage() exits; this only tells the compiler so
  }

  int argc_;
  char** argv_;
  void (*usage_)(int);
};

}  // namespace darl::cli
