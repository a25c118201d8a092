// FNV-1a 64-bit hashing shared by the integrity-checked file formats
// (the checkpoint footer of v2 text and v3 binary files, the run-directory
// MANIFEST and its per-file entries) and the run supervisor's config
// fingerprint. One canonical implementation so the chaos tooling
// (scripts/chaos_resume.py, scripts/chaos_serve.py) can re-verify every
// artifact with the same constants.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

namespace sdcmd {

inline constexpr std::uint64_t kFnv1a64Offset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1a64Prime = 1099511628211ull;

/// FNV-1a over raw bytes.
constexpr std::uint64_t fnv1a64(std::string_view bytes,
                                std::uint64_t seed = kFnv1a64Offset) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1a64Prime;
  }
  return h;
}

/// Fold a trivially-copyable value into a running FNV-1a hash. Used to
/// fingerprint the RNG-relevant run configuration (dt, seed, lattice...)
/// so a resume refuses to continue a run whose physics would differ.
template <typename T>
std::uint64_t fnv1a64_mix(std::uint64_t seed, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const char* p = reinterpret_cast<const char*>(&value);
  return fnv1a64(std::string_view(p, sizeof(T)), seed);
}

}  // namespace sdcmd
