// Non-cryptographic hashes shared across the toolkit. Their values are
// persisted or must agree between processes — disk-cache file names, shard
// routing, experiment cache keys, scenario generator streams — so they are
// written out once, here, and never change.
#pragma once

#include <cstdint>
#include <string_view>

namespace pap {

/// FNV-1a 64-bit offset basis and prime.
inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/// One FNV-1a step: fold byte `b` into state `h`.
constexpr std::uint64_t fnv1a_byte(std::uint64_t h, unsigned char b) {
  return (h ^ b) * kFnv1aPrime;
}

/// FNV-1a 64-bit over `bytes`, continuing from state `h`.
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t h = kFnv1aOffset) {
  for (const char c : bytes) h = fnv1a_byte(h, static_cast<unsigned char>(c));
  return h;
}

/// The splitmix64 output finalizer: a bijective 64-bit mix that spreads
/// nearby inputs over the whole word.
constexpr std::uint64_t splitmix64_mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace pap
