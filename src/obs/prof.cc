#include "src/obs/prof.h"

#include <algorithm>
#include <chrono>
#include <mutex>

namespace icr::obs::prof {

namespace internal {
std::atomic<bool> g_capturing{false};
}  // namespace internal

namespace {

using Clock = std::chrono::steady_clock;

struct OpenZone {
  ZoneTree* node = nullptr;
  const char* name = nullptr;
  std::string label;
  Clock::time_point start;
};

// Everything a thread keeps: its tid and open zones in capture
// `generation`. A record from an older capture is stale and reset on the
// thread's next zone.
struct ThreadRecord {
  std::uint64_t generation = 0;
  std::uint32_t tid = 0;
  std::vector<OpenZone> open;
};

thread_local ThreadRecord tl_record;

// The process-wide recorder; every member is guarded by `mutex`.
struct Recorder {
  std::mutex mutex;
  std::uint64_t generation = 0;  // bumped by begin_capture and end_capture
  Clock::time_point epoch{};
  ZoneTree root;
  std::vector<SpanEvent> spans;  // ring of the most recent kSpanCapacity
  std::size_t oldest = 0;        // ring slot of the oldest span once full
  std::uint64_t dropped = 0;
  std::uint32_t threads = 0;
};

Recorder& recorder() {
  static Recorder r;
  return r;
}

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return to > from
             ? static_cast<std::uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(to -
                                                                        from)
                       .count())
             : 0;
}

void reset(Recorder& r) {
  ++r.generation;
  r.root = ZoneTree{};
  r.spans = {};
  r.oldest = 0;
  r.dropped = 0;
  r.threads = 0;
}

void flatten_into(const ZoneTree& node, const std::string& path, int depth,
                  std::vector<ZoneNode>& out) {
  for (const auto& [name, child] : node.children) {
    ZoneNode zone;
    zone.path = path.empty() ? name : path + "/" + name;
    zone.name = name;
    zone.depth = depth;
    zone.count = child.count;
    zone.total_ns = child.total_ns;
    zone.self_ns =
        child.total_ns - std::min(child.child_ns, child.total_ns);
    const std::string child_path = zone.path;
    out.push_back(std::move(zone));
    flatten_into(child, child_path, depth + 1, out);
  }
}

}  // namespace

std::vector<ZoneNode> ZoneTree::flatten() const {
  std::vector<ZoneNode> out;
  flatten_into(*this, std::string(), 0, out);
  return out;
}

void begin_capture() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mutex);
  reset(r);
  r.epoch = Clock::now();
  internal::g_capturing.store(true, std::memory_order_relaxed);
}

Profile end_capture() {
  const Clock::time_point now = Clock::now();
  Recorder& r = recorder();
  Profile profile;
  std::lock_guard<std::mutex> lock(r.mutex);
  if (!capturing()) return profile;
  internal::g_capturing.store(false, std::memory_order_relaxed);
  profile.wall_ns = ns_between(r.epoch, now);
  profile.threads = r.threads;
  profile.dropped_events = r.dropped;
  profile.zones = r.root.flatten();
  // Oldest first, then grouped by tid with each thread's order kept.
  std::rotate(r.spans.begin(),
              r.spans.begin() + static_cast<std::ptrdiff_t>(r.oldest),
              r.spans.end());
  std::stable_sort(r.spans.begin(), r.spans.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.tid < b.tid;
                   });
  profile.events = std::move(r.spans);
  reset(r);
  return profile;
}

std::uint64_t Profile::total_self_ns() const noexcept {
  std::uint64_t sum = 0;
  for (const ZoneNode& zone : zones) sum += zone.self_ns;
  return sum;
}

const ZoneNode* Profile::find(const std::string& path) const noexcept {
  for (const ZoneNode& zone : zones) {
    if (zone.path == path) return &zone;
  }
  return nullptr;
}

void ScopedZone::begin(const char* name, const std::string* label) noexcept {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mutex);
  if (!capturing()) return;
  ThreadRecord& self = tl_record;
  if (self.generation != r.generation) {
    self.generation = r.generation;
    self.tid = r.threads++;
    self.open.clear();
  }
  ZoneTree& parent = self.open.empty() ? r.root : *self.open.back().node;
  self.open.push_back({&parent.children[name], name,
                       label != nullptr ? *label : std::string(),
                       Clock::now()});
  armed_ = true;
}

void ScopedZone::end() noexcept {
  const Clock::time_point now = Clock::now();
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mutex);
  ThreadRecord& self = tl_record;
  // The capture this zone opened in has ended (or restarted): its tree
  // node is gone.
  if (self.generation != r.generation || self.open.empty()) return;
  OpenZone zone = std::move(self.open.back());
  self.open.pop_back();

  const std::uint64_t dur = ns_between(zone.start, now);
  ++zone.node->count;
  zone.node->total_ns += dur;
  (self.open.empty() ? r.root : *self.open.back().node).child_ns += dur;

  SpanEvent span{zone.name, std::move(zone.label),
                 ns_between(r.epoch, zone.start), dur, self.tid,
                 static_cast<std::uint16_t>(self.open.size())};
  if (r.spans.size() < kSpanCapacity) {
    r.spans.push_back(std::move(span));
  } else {
    r.spans[r.oldest] = std::move(span);
    r.oldest = (r.oldest + 1) % kSpanCapacity;
    ++r.dropped;
  }
}

}  // namespace icr::obs::prof
