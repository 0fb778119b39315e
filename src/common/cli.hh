/**
 * @file
 * Shared command-line parsing helpers for the hdrd tools.
 *
 * Every numeric flag in the tools and the bench harnesses funnels
 * through these: a malformed or out-of-range value names the
 * offending flag and exits nonzero (fatal) instead of throwing an
 * uncaught std::invalid_argument out of std::stoul or silently
 * truncating.
 */

#ifndef HDRD_COMMON_CLI_HH
#define HDRD_COMMON_CLI_HH

#include <cstdint>
#include <string>
#include <vector>

namespace hdrd::cli
{

/**
 * Parse the value of --<flag>=<text> as an unsigned integer in
 * [@p lo, @p hi]. fatal()s (exit 1) with the flag name on malformed
 * input, a negative sign, trailing junk, or range violation.
 *
 * Byte/count flags accept a single binary size suffix: `k`/`K`
 * (x1024), `m`/`M` (x1024^2), `g`/`G` (x1024^3) — so
 * `--queue=4k` means 4096. Multiplication overflow and any other
 * trailing character (e.g. `10kb`, `5x`) are rejected.
 */
std::uint64_t parseU64(const std::string &flag, const std::string &text,
                       std::uint64_t lo = 0,
                       std::uint64_t hi = UINT64_MAX);

/** parseU64 narrowed to 32 bits. */
std::uint32_t parseU32(const std::string &flag, const std::string &text,
                       std::uint32_t lo = 0,
                       std::uint32_t hi = UINT32_MAX);

/**
 * Parse the value of --<flag>=<text> as a comma list of parseU32
 * values, each in [@p lo, @p hi]. fatal()s with the flag name on an
 * empty list or item and on any malformed or out-of-range item.
 */
std::vector<std::uint32_t> parseU32List(const std::string &flag,
                                        const std::string &text,
                                        std::uint32_t lo = 0,
                                        std::uint32_t hi = UINT32_MAX);

/**
 * Parse the value of --<flag>=<text> as a double in [@p lo, @p hi].
 * fatal()s with the flag name on malformed input, NaN, trailing junk,
 * or range violation.
 */
double parseDouble(const std::string &flag, const std::string &text,
                   double lo, double hi);

} // namespace hdrd::cli

#endif // HDRD_COMMON_CLI_HH
