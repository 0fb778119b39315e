#include "common/cli.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace hdrd::cli
{

std::uint64_t
parseU64(const std::string &flag, const std::string &text,
         std::uint64_t lo, std::uint64_t hi)
{
    if (text.empty() || text.find('-') != std::string::npos)
        fatal("--", flag, ": expected an unsigned integer, got '",
              text, "'");
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || errno == ERANGE)
        fatal("--", flag, ": expected an unsigned integer, got '",
              text, "'");
    if (*end != '\0') {
        // One binary size suffix (k/m/g, either case), nothing after.
        std::uint64_t mult = 0;
        switch (*end) {
          case 'k': case 'K': mult = 1ULL << 10; break;
          case 'm': case 'M': mult = 1ULL << 20; break;
          case 'g': case 'G': mult = 1ULL << 30; break;
        }
        if (mult == 0 || end[1] != '\0')
            fatal("--", flag, ": expected an unsigned integer "
                  "(optionally suffixed k/m/g), got '", text, "'");
        if (v > UINT64_MAX / mult)
            fatal("--", flag, ": value '", text,
                  "' overflows 64 bits");
        v *= mult;
    }
    if (v < lo || v > hi)
        fatal("--", flag, ": value ", v, " out of range [", lo, ", ",
              hi, "]");
    return v;
}

std::uint32_t
parseU32(const std::string &flag, const std::string &text,
         std::uint32_t lo, std::uint32_t hi)
{
    return static_cast<std::uint32_t>(parseU64(flag, text, lo, hi));
}

std::vector<std::uint32_t>
parseU32List(const std::string &flag, const std::string &text,
             std::uint32_t lo, std::uint32_t hi)
{
    std::vector<std::uint32_t> values;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = text.find(',', start);
        values.push_back(parseU32(
            flag, text.substr(start, comma - start), lo, hi));
        if (comma == std::string::npos)
            return values;
        start = comma + 1;
    }
}

double
parseDouble(const std::string &flag, const std::string &text,
            double lo, double hi)
{
    if (text.empty())
        fatal("--", flag, ": expected a number, got ''");
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || std::isnan(v)
        || errno == ERANGE) {
        fatal("--", flag, ": expected a number, got '", text, "'");
    }
    if (v < lo || v > hi)
        fatal("--", flag, ": value ", v, " out of range [", lo, ", ",
              hi, "]");
    return v;
}

} // namespace hdrd::cli
