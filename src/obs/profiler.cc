#include "obs/profiler.h"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/check.h"
#include "obs/json.h"
#include "obs/tracer.h"

// --- Allocation accounting hook ---------------------------------------
//
// Release and debug builds replace the global operator new/delete with a
// malloc-backed pair that bumps thread-local counters first, so every
// profiled scope can report the allocations it caused - the cheapest
// possible hook (two relaxed thread-local adds per allocation, nothing
// on free). Sanitizer builds (NC_SANITIZE_BUILD) keep the sanitizer's
// own allocator: ASan's quarantine/poisoning and TSan's interception
// must stay in charge, so there the counters read 0 and
// AllocAccountingActive() says so.

#if !defined(NC_SANITIZE_BUILD)

#include <cstdlib>
#include <new>

namespace nc::obs::profiler_internal {
thread_local uint64_t tl_alloc_count = 0;
thread_local uint64_t tl_alloc_bytes = 0;
}  // namespace nc::obs::profiler_internal

namespace {

inline void CountAlloc(std::size_t size) {
  ++nc::obs::profiler_internal::tl_alloc_count;
  nc::obs::profiler_internal::tl_alloc_bytes += size;
}

void* AllocOrHandler(std::size_t size) {
  if (size == 0) size = 1;  // Distinct-pointer guarantee.
  void* p = std::malloc(size);
  while (p == nullptr) {
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) return nullptr;
    handler();
    p = std::malloc(size);
  }
  return p;
}

void* AlignedAllocOrHandler(std::size_t size, std::size_t alignment) {
  // aligned_alloc wants size a multiple of alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
  while (p == nullptr) {
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) return nullptr;
    handler();
    p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  CountAlloc(size);
  void* p = AllocOrHandler(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  CountAlloc(size);
  void* p = AllocOrHandler(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  CountAlloc(size);
  return AllocOrHandler(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  CountAlloc(size);
  return AllocOrHandler(size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  CountAlloc(size);
  void* p = AlignedAllocOrHandler(size, static_cast<std::size_t>(alignment));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  CountAlloc(size);
  void* p = AlignedAllocOrHandler(size, static_cast<std::size_t>(alignment));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  CountAlloc(size);
  return AlignedAllocOrHandler(size, static_cast<std::size_t>(alignment));
}

void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  CountAlloc(size);
  return AlignedAllocOrHandler(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // !defined(NC_SANITIZE_BUILD)

namespace nc::obs {

bool AllocAccountingActive() {
#if defined(NC_SANITIZE_BUILD)
  return false;
#else
  return true;
#endif
}

uint64_t ThreadAllocCount() {
#if defined(NC_SANITIZE_BUILD)
  return 0;
#else
  return profiler_internal::tl_alloc_count;
#endif
}

uint64_t ThreadAllocBytes() {
#if defined(NC_SANITIZE_BUILD)
  return 0;
#else
  return profiler_internal::tl_alloc_bytes;
#endif
}

const char* CostCenterName(CostCenter center) {
  switch (center) {
    case CostCenter::kSortedAccess:
      return "sorted_access";
    case CostCenter::kRandomAccess:
      return "random_access";
    case CostCenter::kReplicaFailover:
      return "replica_failover";
    case CostCenter::kHedgeWait:
      return "hedge_wait";
    case CostCenter::kCacheProbe:
      return "cache_probe";
    case CostCenter::kCacheFill:
      return "cache_fill";
    case CostCenter::kOptimizerSimulate:
      return "optimizer_simulate";
    case CostCenter::kHillClimbStep:
      return "hill_climb_step";
    case CostCenter::kCandidateHeap:
      return "candidate_heap";
    case CostCenter::kCertificateBuild:
      return "certificate_build";
    case CostCenter::kCheckpointSerialize:
      return "checkpoint_serialize";
    case CostCenter::kServerQueue:
      return "server_queue";
    case CostCenter::kServerDrain:
      return "server_drain";
  }
  return "unknown";
}

// --- ProfileReport -----------------------------------------------------

uint64_t ProfileReport::TotalNs() const {
  uint64_t total = 0;
  for (const TreeRow& row : tree) {
    if (row.depth == 0) total += row.total_ns;
  }
  return total;
}

uint64_t ProfileReport::SelfNs() const {
  uint64_t total = 0;
  for (const FlatRow& row : flat) total += row.self_ns;
  return total;
}

namespace {

// Locale-safe row formatting: integer columns only, so comma-decimal
// locales cannot corrupt the dump.
void AppendRow(std::string* out, const std::string& label, uint64_t count,
               uint64_t total_ns, uint64_t self_ns, uint64_t alloc_count,
               uint64_t alloc_bytes) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "  %-28s %8llu %14llu %14llu %10llu %12llu\n", label.c_str(),
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(total_ns),
                static_cast<unsigned long long>(self_ns),
                static_cast<unsigned long long>(alloc_count),
                static_cast<unsigned long long>(alloc_bytes));
  out->append(buffer);
}

}  // namespace

std::string ProfileReport::ToText() const {
  std::string out = "profile";
  char header[160];
  std::snprintf(header, sizeof(header),
                " (total %llu ns, alloc accounting %s)\n",
                static_cast<unsigned long long>(TotalNs()),
                alloc_accounting ? "on" : "off");
  out += header;
  std::snprintf(header, sizeof(header), "  %-28s %8s %14s %14s %10s %12s\n",
                "center", "count", "total_ns", "self_ns", "allocs", "bytes");
  out += header;
  for (const FlatRow& row : flat) {
    AppendRow(&out, CostCenterName(row.center), row.count, row.total_ns,
              row.self_ns, row.alloc_count, row.alloc_bytes);
  }
  if (!tree.empty()) {
    out += "  tree:\n";
    for (const TreeRow& row : tree) {
      std::string label(2 * row.depth, ' ');
      label += CostCenterName(row.center);
      AppendRow(&out, label, row.count, row.total_ns, row.self_ns,
                row.alloc_count, row.alloc_bytes);
    }
  }
  return out;
}

std::string ProfileReport::ToJson() const {
  std::ostringstream os;
  JsonWriter w(&os);
  w.BeginObject();
  w.Key("alloc_accounting").Bool(alloc_accounting);
  w.Key("total_ns").UInt(TotalNs());
  w.Key("self_ns").UInt(SelfNs());
  w.Key("flat").BeginArray();
  for (const FlatRow& row : flat) {
    w.BeginObject();
    w.Key("center").String(CostCenterName(row.center));
    w.Key("count").UInt(row.count);
    w.Key("total_ns").UInt(row.total_ns);
    w.Key("self_ns").UInt(row.self_ns);
    w.Key("alloc_count").UInt(row.alloc_count);
    w.Key("alloc_bytes").UInt(row.alloc_bytes);
    w.EndObject();
  }
  w.EndArray();
  w.Key("tree").BeginArray();
  for (const TreeRow& row : tree) {
    w.BeginObject();
    w.Key("center").String(CostCenterName(row.center));
    w.Key("depth").UInt(row.depth);
    w.Key("count").UInt(row.count);
    w.Key("total_ns").UInt(row.total_ns);
    w.Key("self_ns").UInt(row.self_ns);
    w.Key("alloc_count").UInt(row.alloc_count);
    w.Key("alloc_bytes").UInt(row.alloc_bytes);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return os.str();
}

// --- Profiler ----------------------------------------------------------

uint64_t Profiler::NowNs() const {
  if (clock_) return clock_();
  return MonotonicTimeNs();
}

void Profiler::set_clock_for_testing(std::function<uint64_t()> clock) {
  clock_ = std::move(clock);
}

void Profiler::Clear() {
  NC_CHECK(stack_.empty());  // Clearing under an open scope loses frames.
  nodes_.clear();
  roots_.clear();
}

int32_t Profiler::Intern(int32_t parent, CostCenter center) {
  const std::vector<int32_t>& siblings =
      parent < 0 ? roots_ : nodes_[static_cast<size_t>(parent)].children;
  for (const int32_t child : siblings) {
    if (nodes_[static_cast<size_t>(child)].center == center) return child;
  }
  const int32_t index = static_cast<int32_t>(nodes_.size());
  Node node;
  node.center = center;
  node.parent = parent;
  node.depth =
      parent < 0 ? 0 : nodes_[static_cast<size_t>(parent)].depth + 1;
  nodes_.push_back(std::move(node));
  if (parent < 0) {
    roots_.push_back(index);
  } else {
    nodes_[static_cast<size_t>(parent)].children.push_back(index);
  }
  return index;
}

void Profiler::Begin(CostCenter center) {
  if (!enabled_) return;
  const int32_t parent = stack_.empty() ? -1 : stack_.back().node;
  const int32_t node = Intern(parent, center);
  stack_.push_back(Frame{node, 0, 0, 0});
  Frame& frame = stack_.back();
  // Snapshot the counters last so the profiler's own bookkeeping
  // allocations (node/frame growth above) stay out of the scope's tally.
  frame.start_alloc_count = ThreadAllocCount();
  frame.start_alloc_bytes = ThreadAllocBytes();
  frame.start_ns = NowNs();
}

void Profiler::End() {
  if (!enabled_ && stack_.empty()) return;
  NC_CHECK(!stack_.empty());
  // Read the clocks before any bookkeeping below allocates.
  const uint64_t now = NowNs();
  const uint64_t alloc_count = ThreadAllocCount();
  const uint64_t alloc_bytes = ThreadAllocBytes();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const uint64_t duration = now >= frame.start_ns ? now - frame.start_ns : 0;
  const uint64_t d_count = alloc_count - frame.start_alloc_count;
  const uint64_t d_bytes = alloc_bytes - frame.start_alloc_bytes;
  Node& node = nodes_[static_cast<size_t>(frame.node)];
  ++node.count;
  node.total_ns += duration;
  node.alloc_count += d_count;
  node.alloc_bytes += d_bytes;
  if (node.parent >= 0) {
    Node& parent = nodes_[static_cast<size_t>(node.parent)];
    parent.child_ns += duration;
    parent.child_alloc_count += d_count;
    parent.child_alloc_bytes += d_bytes;
  }
  if (ShouldTrace(tracer_)) {
    // Convert this profiler's monotonic instants onto the tracer's
    // wall_us clock so the kProfile slices align with spans and phases.
    uint64_t begin_us;
    uint64_t end_us;
    if (clock_) {
      begin_us = frame.start_ns / 1000;
      end_us = now / 1000;
    } else {
      const uint64_t anchor = tracer_->epoch_ns();
      begin_us =
          frame.start_ns > anchor ? (frame.start_ns - anchor) / 1000 : 0;
      end_us = now > anchor ? (now - anchor) / 1000 : 0;
    }
    if (end_us < begin_us) end_us = begin_us;
    tracer_->RecordProfile(CostCenterName(node.center), begin_us, end_us);
  }
}

void Profiler::AddExternal(CostCenter center, uint64_t duration_ns) {
  if (!enabled_) return;
  const int32_t index = Intern(-1, center);
  Node& node = nodes_[static_cast<size_t>(index)];
  ++node.count;
  node.total_ns += duration_ns;
}

void Profiler::AppendSubtree(int32_t index, ProfileReport* report) const {
  const Node& node = nodes_[static_cast<size_t>(index)];
  ProfileReport::TreeRow row;
  row.center = node.center;
  row.depth = node.depth;
  row.count = node.count;
  row.total_ns = node.total_ns;
  row.self_ns =
      node.total_ns >= node.child_ns ? node.total_ns - node.child_ns : 0;
  row.alloc_count = node.alloc_count >= node.child_alloc_count
                        ? node.alloc_count - node.child_alloc_count
                        : 0;
  row.alloc_bytes = node.alloc_bytes >= node.child_alloc_bytes
                        ? node.alloc_bytes - node.child_alloc_bytes
                        : 0;
  report->tree.push_back(row);
  for (const int32_t child : node.children) {
    AppendSubtree(child, report);
  }
}

ProfileReport Profiler::Report() const {
  ProfileReport report;
  report.alloc_accounting = AllocAccountingActive();
  for (const int32_t root : roots_) {
    AppendSubtree(root, &report);
  }
  // Flat view: sum the tree rows per center (self allocations, so the
  // flat totals never double-count nested same-center scopes' bytes).
  uint64_t count[kNumCostCenters] = {};
  uint64_t total[kNumCostCenters] = {};
  uint64_t self[kNumCostCenters] = {};
  uint64_t allocs[kNumCostCenters] = {};
  uint64_t bytes[kNumCostCenters] = {};
  bool seen[kNumCostCenters] = {};
  for (const ProfileReport::TreeRow& row : report.tree) {
    const size_t i = static_cast<size_t>(row.center);
    seen[i] = true;
    count[i] += row.count;
    total[i] += row.total_ns;
    self[i] += row.self_ns;
    allocs[i] += row.alloc_count;
    bytes[i] += row.alloc_bytes;
  }
  for (size_t i = 0; i < kNumCostCenters; ++i) {
    if (!seen[i]) continue;
    ProfileReport::FlatRow row;
    row.center = static_cast<CostCenter>(i);
    row.count = count[i];
    row.total_ns = total[i];
    row.self_ns = self[i];
    row.alloc_count = allocs[i];
    row.alloc_bytes = bytes[i];
    report.flat.push_back(row);
  }
  return report;
}

}  // namespace nc::obs
