// The value grammar shared by every text format in the repository: `.pap`
// scenarios, fault plans, trace files, family specs and CLI integers.
//
//   integer   digits only ([0-9]+): no sign, no spaces, no base prefix
//   double    a strtod decimal consumed whole, finite, |v| <= 1e300
//   duration  a non-negative double plus a `ns`, `us` or `ms` suffix whose
//             picosecond count fits in int64 (about 106 days)
//   name      [a-z0-9_]+ (scenario, master and family names)
//
// The formatters are the canonical spellings the parsers read back
// exactly: `format_double` is the shortest decimal that round-trips,
// `format_duration` the largest whole unit (ms, us, ns) or exact
// picoseconds as `N.DDDns`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/time.hpp"

namespace pap {

bool parse_u64(std::string_view s, std::uint64_t* out);

/// Integer in [min, max], with 0 <= min <= max.
bool parse_int(std::string_view s, int min, int max, int* out);

bool parse_double(std::string_view s, double* out);

bool parse_duration(std::string_view s, Time* out);

bool is_name(std::string_view s);

std::string format_double(double v);

std::string format_duration(Time t);

}  // namespace pap
