// Hot-path profiling: where a query's *compute* cost goes.
//
// The paper's Eq. 1 meters every access-cost cell; the tracer records
// what the engine did. Neither answers the question the "10x faster"
// roadmap item starts from: of the ~2 ms a 10k-object query costs,
// how much is the optimizer's simulate loop, the bound heap, the access
// seam, the cache, the server queue? Profiler meters exactly that, in
// the house zero-cost-when-disabled style:
//
//   * A fixed enum of cost centers (CostCenter) names every known hot
//     region - the sorted/random access seam, replica failover and hedge
//     waits, cache probe/fill, optimizer simulation and hill-climb
//     sweeps, candidate-heap maintenance, certificate builds, checkpoint
//     serialization, and the server's queue/drain phases.
//   * NC_PROFILE_SCOPE(profiler, kCenter) opens a scoped timer; scopes
//     nest, so the report is a call tree over cost centers (self vs
//     total time), not just a flat tally. With a null Profiler* the
//     scope is one pointer test - nothing is constructed, nothing
//     allocates, and the differential tests prove answers are
//     bit-identical profiler on vs off.
//   * Allocation accounting rides along: release builds replace the
//     global operator new with a thread-local counting hook (see
//     profiler.cc), so every scope also reports how many heap
//     allocations and bytes it caused. Sanitizer builds keep the
//     sanitizer's own allocator (AllocAccountingActive() says which).
//
// A Profiler is thread-confined like QueryTracer: one per query (or per
// server worker), no locks on the hot path. Report() snapshots the tree
// into a ProfileReport (tree + flat views, locale-safe text, JSON);
// RecordRunMetrics (obs/run_report.h) mirrors the flat view into
// nc_profile_* counters; TelemetryHub::ObserveProfile rolls per-center
// self-times up across queries as P-squared quantile sketches;
// attaching a QueryTracer makes every closed scope a kProfile event that
// renders as a nested slice in the Chrome trace exporter.

#ifndef NC_OBS_PROFILER_H_
#define NC_OBS_PROFILER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace nc::obs {

class QueryTracer;

// The fixed cost-center vocabulary. Append-only: the hub's persisted
// profile sketches key on these indices.
enum class CostCenter : uint8_t {
  kSortedAccess = 0,      // SourceSet::TrySortedAccess end to end.
  kRandomAccess,          // SourceSet::TryRandomAccess end to end.
  kReplicaFailover,       // Re-routed attempts after a replica failed.
  kHedgeWait,             // Issuing + billing the hedged duplicate.
  kCacheProbe,            // Cross-query cache lookup (hit or miss).
  kCacheFill,             // Publishing a fetched result to the cache.
  kOptimizerSimulate,     // SimulationCostEstimator sample runs.
  kHillClimbStep,         // One HClimb neighbor sweep.
  kCandidateHeap,         // RankedPool::TopK: K_P per iteration.
  kCertificateBuild,      // AnytimeCertificate construction.
  kCheckpointSerialize,   // Engine checkpoint serialization at drain.
  kServerQueue,           // Admission-to-worker queue wait (external).
  kServerDrain,           // Drain hook: checkpoint + budget clamp.
};

inline constexpr size_t kNumCostCenters = 13;

// Stable snake_case name ("sorted_access", ...); metric label, JSON key,
// tracer event name, and hub record token all use it.
const char* CostCenterName(CostCenter center);

// --- Allocation accounting -------------------------------------------

// True when the counting operator-new hook is linked in (release and
// debug builds); false under sanitizers, whose allocators must stay in
// charge. Reports carry the flag so consumers never misread zeros.
bool AllocAccountingActive();

// This thread's cumulative allocation count / bytes since thread start;
// both 0 when accounting is inactive. Monotonic - scopes snapshot and
// diff them.
uint64_t ThreadAllocCount();
uint64_t ThreadAllocBytes();

// --- The per-query report --------------------------------------------

struct ProfileReport {
  // One row per (path, center) tree node, preorder; depth 0 = root.
  struct TreeRow {
    CostCenter center = CostCenter::kSortedAccess;
    uint32_t depth = 0;
    uint64_t count = 0;
    uint64_t total_ns = 0;  // Wall time inside the scope, children included.
    uint64_t self_ns = 0;   // total_ns minus time in child scopes.
    uint64_t alloc_count = 0;
    uint64_t alloc_bytes = 0;
  };
  // One row per cost center that fired, summed over every tree position,
  // in enum order.
  struct FlatRow {
    CostCenter center = CostCenter::kSortedAccess;
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
    uint64_t alloc_count = 0;
    uint64_t alloc_bytes = 0;
  };

  std::vector<TreeRow> tree;
  std::vector<FlatRow> flat;
  bool alloc_accounting = false;

  // Sum of root-level total_ns: everything metered, counted once.
  uint64_t TotalNs() const;
  // Sum of self_ns over the flat view (== TotalNs when every scope nests).
  uint64_t SelfNs() const;
  bool empty() const { return tree.empty(); }

  // Locale-safe fixed-width table (integers only - no decimal points to
  // corrupt under comma-decimal locales).
  std::string ToText() const;
  // {"alloc_accounting":...,"total_ns":...,"flat":[...],"tree":[...]}
  std::string ToJson() const;
};

// --- The profiler ----------------------------------------------------

class Profiler {
 public:
  // Constructed enabled, like QueryTracer: attaching one expresses
  // intent to profile.
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }

  // Drops the recorded tree (any open scopes must have closed).
  void Clear();

  bool empty() const { return nodes_.empty(); }

  // Opens / closes one scope. Prefer NC_PROFILE_SCOPE; Begin/End exist
  // for non-lexical extents. End closes the innermost open scope.
  void Begin(CostCenter center);
  void End();

  // Adds a sample measured outside any scope (e.g. the server's
  // admission-queue wait, timed by the admission thread) as a
  // root-level node.
  void AddExternal(CostCenter center, uint64_t duration_ns);

  // Snapshots the tree. Open scopes are not included.
  ProfileReport Report() const;

  // Mirrors every closed scope as a kProfile trace event (nested slices
  // in the Chrome exporter). The tracer must outlive the profiler or be
  // detached first; nullptr detaches.
  void set_tracer(QueryTracer* tracer) { tracer_ = tracer; }

  // Replaces the monotonic nanosecond clock for deterministic tests.
  void set_clock_for_testing(std::function<uint64_t()> clock);

  // Open-scope depth; 0 when balanced. Exposed for tests and asserts.
  size_t open_scopes() const { return stack_.size(); }

 private:
  struct Node {
    CostCenter center = CostCenter::kSortedAccess;
    int32_t parent = -1;  // Index into nodes_; -1 = root level.
    uint32_t depth = 0;
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t child_ns = 0;  // Time attributed to direct children.
    uint64_t alloc_count = 0;
    uint64_t alloc_bytes = 0;
    uint64_t child_alloc_count = 0;
    uint64_t child_alloc_bytes = 0;
    std::vector<int32_t> children;  // First-seen order.
  };
  struct Frame {
    int32_t node = -1;
    uint64_t start_ns = 0;
    uint64_t start_alloc_count = 0;
    uint64_t start_alloc_bytes = 0;
  };

  uint64_t NowNs() const;
  // Finds or creates the child of `parent` (-1 = root) for `center`.
  int32_t Intern(int32_t parent, CostCenter center);
  void AppendSubtree(int32_t node, ProfileReport* report) const;

  bool enabled_ = true;
  std::vector<Node> nodes_;
  std::vector<int32_t> roots_;  // Root-level node indices, first-seen.
  std::vector<Frame> stack_;
  QueryTracer* tracer_ = nullptr;
  std::function<uint64_t()> clock_;
};

// The hot-path guard, mirroring ShouldTrace: one pointer/bool test.
inline bool ShouldProfile(const Profiler* profiler) {
  return profiler != nullptr && profiler->enabled();
}

// RAII scope. With a null or disabled profiler the constructor is the
// ShouldProfile test and nothing else.
class ProfileScope {
 public:
  ProfileScope(Profiler* profiler, CostCenter center) {
    if (ShouldProfile(profiler)) {
      profiler_ = profiler;
      profiler_->Begin(center);
    }
  }
  ~ProfileScope() {
    if (profiler_ != nullptr) profiler_->End();
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler* profiler_ = nullptr;
};

#define NC_PROFILE_CONCAT_INNER(a, b) a##b
#define NC_PROFILE_CONCAT(a, b) NC_PROFILE_CONCAT_INNER(a, b)
// Times the rest of the enclosing block under `center` (an unqualified
// CostCenter enumerator). `profiler` may be null.
#define NC_PROFILE_SCOPE(profiler, center)                            \
  ::nc::obs::ProfileScope NC_PROFILE_CONCAT(nc_profile_scope_,        \
                                            __LINE__)(               \
      (profiler), ::nc::obs::CostCenter::center)

}  // namespace nc::obs

#endif  // NC_OBS_PROFILER_H_
