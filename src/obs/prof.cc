#include "src/obs/prof.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

namespace icr::obs::prof {

namespace internal {
std::atomic<bool> g_capturing{false};
}  // namespace internal

namespace {

using Clock = std::chrono::steady_clock;

struct RawEvent {
  const char* name = nullptr;
  std::uint32_t label_idx = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint16_t depth = 0;
};

// Per-thread aggregation node. children are searched linearly: zone trees
// are shallow and narrow (a handful of children per node), so a vector
// beats a hash map here.
struct AggNode {
  const char* name = nullptr;
  int parent = -1;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t child_ns = 0;
  std::vector<int> children;
};

struct ThreadBuffer {
  std::vector<AggNode> nodes;  // nodes[0] is the virtual root
  int current = 0;
  std::uint16_t depth = 0;
  std::vector<RawEvent> events;  // ring of the most recent events
  std::size_t event_capacity = 0;
  std::size_t event_next = 0;
  bool event_wrapped = false;
  std::uint64_t dropped = 0;
  std::vector<std::string> labels;
  std::uint32_t tid = 0;

  ThreadBuffer() {
    nodes.emplace_back();  // root
  }
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::atomic<std::uint64_t> generation{0};
  Clock::time_point epoch{};
  CaptureOptions options;
};

Registry& registry() {
  static Registry r;
  return r;
}

struct ThreadCache {
  ThreadBuffer* buffer = nullptr;
  std::uint64_t generation = 0;
};

thread_local ThreadCache tl_cache;

ThreadBuffer* local_buffer() {
  Registry& r = registry();
  if (!internal::g_capturing.load(std::memory_order_acquire)) return nullptr;
  // Lock-free fast path: this thread already registered for this capture.
  if (tl_cache.buffer != nullptr &&
      tl_cache.generation == r.generation.load(std::memory_order_relaxed)) {
    return tl_cache.buffer;
  }
  std::lock_guard<std::mutex> lock(r.mutex);
  // Re-check under the lock: end_capture() may have raced us.
  if (!internal::g_capturing.load(std::memory_order_relaxed)) return nullptr;
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->tid = static_cast<std::uint32_t>(r.buffers.size());
  buffer->event_capacity = r.options.events_per_thread;
  buffer->events.reserve(std::min<std::size_t>(buffer->event_capacity, 4096));
  tl_cache.buffer = buffer.get();
  tl_cache.generation = r.generation.load(std::memory_order_relaxed);
  r.buffers.push_back(std::move(buffer));
  return tl_cache.buffer;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - registry().epoch)
          .count());
}

// Merged tree node, keyed by name string so zones from different threads
// (and different string literals with equal text) coalesce.
struct MergeNode {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t child_ns = 0;
  std::map<std::string, MergeNode> children;  // sorted => deterministic
};

void merge_tree(const ThreadBuffer& buffer, int node_index, MergeNode& into) {
  const AggNode& node = buffer.nodes[static_cast<std::size_t>(node_index)];
  for (const int child_index : node.children) {
    const AggNode& child = buffer.nodes[static_cast<std::size_t>(child_index)];
    MergeNode& m = into.children[child.name];
    m.count += child.count;
    m.total_ns += child.total_ns;
    m.child_ns += child.child_ns;
    merge_tree(buffer, child_index, m);
  }
}

void flatten(const MergeNode& node, const std::string& path, int depth,
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
    flatten(child, child_path, depth + 1, out);
  }
}

}  // namespace

void begin_capture(const CaptureOptions& options) {
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.clear();
    r.generation.fetch_add(1, std::memory_order_relaxed);
    r.options = options;
    r.epoch = Clock::now();
    internal::g_capturing.store(true, std::memory_order_release);
  }
}

Profile end_capture() {
  Registry& r = registry();
  Profile profile;

  std::lock_guard<std::mutex> lock(r.mutex);
  if (!internal::g_capturing.load(std::memory_order_relaxed)) return profile;
  internal::g_capturing.store(false, std::memory_order_release);
  profile.wall_ns = now_ns();
  profile.threads = static_cast<std::uint32_t>(r.buffers.size());

  MergeNode root;
  for (const auto& buffer : r.buffers) {
    merge_tree(*buffer, 0, root);
    profile.dropped_events += buffer->dropped;
  }
  flatten(root, std::string(), 0, profile.zones);

  for (const auto& buffer : r.buffers) {
    const std::size_t count = buffer->events.size();
    const std::size_t first =
        buffer->event_wrapped ? buffer->event_next : 0;  // oldest retained
    for (std::size_t i = 0; i < count; ++i) {
      const RawEvent& raw = buffer->events[(first + i) % count];
      SpanEvent event;
      event.name = raw.name;
      if (raw.label_idx != 0) event.label = buffer->labels[raw.label_idx - 1];
      event.start_ns = raw.start_ns;
      event.dur_ns = raw.dur_ns;
      event.tid = buffer->tid;
      event.depth = raw.depth;
      profile.events.push_back(std::move(event));
    }
  }
  r.buffers.clear();
  r.generation.fetch_add(1, std::memory_order_relaxed);
  return profile;
}

std::vector<ZoneNode> snapshot_zones() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<ZoneNode> zones;
  if (!internal::g_capturing.load(std::memory_order_relaxed)) return zones;
  MergeNode root;
  for (const auto& buffer : r.buffers) {
    merge_tree(*buffer, 0, root);
  }
  flatten(root, std::string(), 0, zones);
  return zones;
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
  ThreadBuffer* buffer = local_buffer();
  if (buffer == nullptr) return;

  AggNode& parent = buffer->nodes[static_cast<std::size_t>(buffer->current)];
  int node_index = -1;
  for (const int child : parent.children) {
    const AggNode& candidate = buffer->nodes[static_cast<std::size_t>(child)];
    // Pointer compare first: identical literals usually coalesce within a
    // binary; strcmp handles the cross-TU case.
    if (candidate.name == name || std::strcmp(candidate.name, name) == 0) {
      node_index = child;
      break;
    }
  }
  if (node_index < 0) {
    node_index = static_cast<int>(buffer->nodes.size());
    AggNode node;
    node.name = name;
    node.parent = buffer->current;
    buffer->nodes.push_back(node);
    buffer->nodes[static_cast<std::size_t>(buffer->current)]
        .children.push_back(node_index);
  }
  buffer->current = node_index;
  ++buffer->depth;

  armed_ = true;
  node_ = node_index;
  if (label != nullptr && !label->empty()) {
    buffer->labels.push_back(*label);
    label_idx_ = static_cast<std::uint32_t>(buffer->labels.size());
  }
  start_ns_ = now_ns();
}

void ScopedZone::end() noexcept {
  Registry& r = registry();
  ThreadBuffer* buffer = tl_cache.buffer;
  // A capture restarted under a live zone invalidates the node index; the
  // generation check makes that (documented-unsupported) case safe.
  if (buffer == nullptr ||
      tl_cache.generation != r.generation.load(std::memory_order_relaxed)) {
    return;
  }
  const std::uint64_t end_ns = now_ns();
  const std::uint64_t dur =
      end_ns >= start_ns_ ? end_ns - start_ns_ : 0;

  AggNode& node = buffer->nodes[static_cast<std::size_t>(node_)];
  ++node.count;
  node.total_ns += dur;
  if (node.parent >= 0) {
    buffer->nodes[static_cast<std::size_t>(node.parent)].child_ns += dur;
  }
  buffer->current = node.parent < 0 ? 0 : node.parent;
  if (buffer->depth > 0) --buffer->depth;

  if (buffer->event_capacity > 0) {
    RawEvent raw;
    raw.name = node.name;
    raw.label_idx = label_idx_;
    raw.start_ns = start_ns_;
    raw.dur_ns = dur;
    raw.depth = buffer->depth;
    if (buffer->events.size() < buffer->event_capacity) {
      buffer->events.push_back(raw);
    } else {
      buffer->events[buffer->event_next] = raw;
      buffer->event_wrapped = true;
      ++buffer->dropped;
    }
    buffer->event_next = (buffer->event_next + 1) % buffer->event_capacity;
  }
}

}  // namespace icr::obs::prof
