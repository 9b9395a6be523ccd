// Invariant checking used across the library.
//
// Simulators in this repository are deterministic; an invariant violation is
// a programming error, never an input condition, so checks abort rather than
// throw (Core Guidelines I.6 / E.12). Configuration validation — which *is*
// input-dependent — uses pap::Status/Expected instead (status.hpp).
#pragma once

#include <cstdio>
#include <cstdlib>

namespace pap::detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const char* msg) {
  std::fprintf(stderr, "PAP_CHECK failed: %s at %s:%d%s%s\n", expr, file, line,
               msg ? " — " : "", msg ? msg : "");
  std::abort();
}

}  // namespace pap::detail

#define PAP_CHECK(expr)                                                    \
  do {                                                                     \
    if (!(expr)) ::pap::detail::check_failed(#expr, __FILE__, __LINE__,    \
                                             nullptr);                     \
  } while (false)

#define PAP_CHECK_MSG(expr, msg)                                           \
  do {                                                                     \
    if (!(expr)) ::pap::detail::check_failed(#expr, __FILE__, __LINE__,    \
                                             (msg));                       \
  } while (false)

// Marks a path no valid state reaches. check_failed is [[noreturn]], so
// the enclosing function needs no dummy return after it.
#define PAP_UNREACHABLE(msg)                                               \
  ::pap::detail::check_failed("unreachable", __FILE__, __LINE__, (msg))
