// Library version and build stamps, surfaced in `skydia_build_info` on the
// /metrics endpoint and in the BENCH_*.json baselines. Bump kVersion with
// each released milestone (it tracks the PR sequence, not semver promises).
#ifndef SKYDIA_SRC_COMMON_VERSION_H_
#define SKYDIA_SRC_COMMON_VERSION_H_

namespace skydia {

inline constexpr const char* kVersion = "0.6.0";

/// The commit the library was built from: `git rev-parse HEAD` of the source
/// checkout, stamped into src/common/version.cc at build time, or "unknown"
/// when the source is not a git checkout.
const char* BuildCommit();

}  // namespace skydia

#endif  // SKYDIA_SRC_COMMON_VERSION_H_
