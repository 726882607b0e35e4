// Build provenance baked in at configure time.
//
// Every introspection surface (/healthz, /varz, the bench JSON envelope)
// wants to answer "which build is this?" without the operator grepping
// deploy logs. CMake runs `git describe` at configure time and confines
// the resulting -D definitions to build_info.cc, so touching the git
// head re-compiles one small file, not the world.

#ifndef NC_COMMON_BUILD_INFO_H_
#define NC_COMMON_BUILD_INFO_H_

namespace nc {

// `git describe --always --dirty` at configure time; "unknown" when the
// tree was built outside git.
const char* BuildVersion();

// "Sanitize", "Release", or "Debug": /healthz and the BENCH_*.json
// envelope's build_type report the same vocabulary.
const char* BuildFlavor();

// True when the build was configured with NC_SANITIZE=ON
// (address+undefined instrumentation; see CMakeLists.txt).
bool BuildSanitized();

}  // namespace nc

#endif  // NC_COMMON_BUILD_INFO_H_
