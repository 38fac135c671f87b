// Engineering micro-benchmarks (google-benchmark) for the hot primitives:
// parity, SEC-DED encode/decode, dL1 access paths, the backing store's
// line reads and the dL1 miss/writeback path, dead-block evaluation, trace
// generation throughput, and the trace codec (record, open, fingerprint).
// Not a paper figure and not a gate: a plain google-benchmark binary for
// ad-hoc ns/op numbers. The benchmark that can fail is perfbench
// (perfbench/README.md).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/coding/parity.h"
#include "src/coding/secded.h"
#include "src/core/icr_cache.h"
#include "src/core/scheme.h"
#include "src/cpu/pipeline.h"
#include "src/mem/backing_store.h"
#include "src/mem/memory_hierarchy.h"
#include "src/trace/trace_v2.h"
#include "src/trace/workloads.h"
#include "src/util/rng.h"

namespace {

using namespace icr;

void BM_ByteParity(benchmark::State& state) {
  Rng rng(1);
  std::uint64_t word = rng.next_u64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(byte_parity(word));
    word += 0x9E3779B97F4A7C15ULL;
  }
}
BENCHMARK(BM_ByteParity);

void BM_SecDedEncode(benchmark::State& state) {
  Rng rng(2);
  std::uint64_t word = rng.next_u64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(secded_encode(word));
    word += 0x9E3779B97F4A7C15ULL;
  }
}
BENCHMARK(BM_SecDedEncode);

void BM_SecDedDecodeClean(benchmark::State& state) {
  const std::uint64_t word = 0xDEADBEEFCAFEF00DULL;
  const std::uint8_t check = secded_encode(word);
  for (auto _ : state) {
    benchmark::DoNotOptimize(secded_decode(word, check));
  }
}
BENCHMARK(BM_SecDedDecodeClean);

void BM_SecDedDecodeCorrect(benchmark::State& state) {
  const std::uint64_t word = 0xDEADBEEFCAFEF00DULL;
  const std::uint8_t check = secded_encode(word);
  for (auto _ : state) {
    benchmark::DoNotOptimize(secded_decode(word ^ 0x10, check));
  }
}
BENCHMARK(BM_SecDedDecodeCorrect);

void BM_DL1LoadHit(benchmark::State& state) {
  mem::MemoryHierarchy hierarchy;
  core::IcrCache dl1(mem::l1d_geometry_default(), core::Scheme::IcrPPS_S(),
                     hierarchy);
  dl1.store(0x1000, 1, 0);
  std::uint64_t cycle = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dl1.load(0x1000, cycle++));
  }
}
BENCHMARK(BM_DL1LoadHit);

void BM_DL1StoreWithReplicaUpdate(benchmark::State& state) {
  mem::MemoryHierarchy hierarchy;
  core::IcrCache dl1(mem::l1d_geometry_default(), core::Scheme::IcrPPS_S(),
                     hierarchy);
  std::uint64_t cycle = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dl1.store(0x1000, cycle, cycle));
    ++cycle;
  }
}
BENCHMARK(BM_DL1StoreWithReplicaUpdate);

// The memory substrate, one 64-byte line at a time. Arg 1 reads lines a
// prior pass wrote; arg 0 reads never-written lines of a store that holds
// as many written ones (their probes walk occupied clusters and find
// nothing).
void BM_BackingStoreReadBlock(benchmark::State& state) {
  constexpr std::uint64_t kLines = 1 << 14;  // 1 MiB of written lines
  constexpr std::uint64_t kUnwritten = std::uint64_t{1} << 40;
  mem::BackingStore store;
  std::uint8_t line[64] = {};
  for (std::uint64_t i = 0; i < kLines; ++i) {
    line[0] = static_cast<std::uint8_t>(i);
    store.write_block(i * 64, line);
  }
  const std::uint64_t base = state.range(0) != 0 ? 0 : kUnwritten;
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.read_block(base + i * 64, line);
    benchmark::DoNotOptimize(line);
    benchmark::ClobberMemory();
    i = (i + 4099) % kLines;  // a stride coprime to the line count
  }
  state.SetLabel(state.range(0) != 0 ? "written" : "never written");
}
BENCHMARK(BM_BackingStoreReadBlock)->Arg(0)->Arg(1);

// A dL1 store miss that fills its line from the backing store and evicts a
// dirty line, which is written back: after the first lap every iteration
// does one of each. Arg 0 is BaseP (parity only), arg 1 BaseECC.
void BM_DL1MissFillWriteback(benchmark::State& state) {
  mem::MemoryHierarchy hierarchy;
  const mem::CacheGeometry geometry = mem::l1d_geometry_default();
  core::IcrCache dl1(geometry,
                     state.range(0) != 0 ? core::Scheme::BaseECC()
                                         : core::Scheme::BaseP(),
                     hierarchy);
  // Four times the cache: every store of a lap misses.
  const std::uint64_t lines = 4 * geometry.size_bytes / geometry.line_bytes;
  std::uint64_t cycle = 0;
  for (auto _ : state) {
    const std::uint64_t line = cycle % lines;
    benchmark::DoNotOptimize(
        dl1.store(line * geometry.line_bytes, cycle, cycle));
    ++cycle;
  }
  state.SetLabel(state.range(0) != 0 ? "BaseECC" : "BaseP");
}
BENCHMARK(BM_DL1MissFillWriteback)->Arg(0)->Arg(1);

// Replication-site search over a warmed set. The masked variant disables
// ways per set (docs/GEOMETRY.md); its scan skips them through the
// per-set bitmask, so masked search should not be slower than the full
// scan beyond noise.
void victim_search_bench(benchmark::State& state, std::uint32_t disabled) {
  mem::MemoryHierarchy hierarchy;
  mem::WayDisableConfig mask;
  mask.count = disabled;
  const mem::CacheGeometry geometry = mem::l1d_geometry_default();
  core::IcrCache dl1(geometry, core::Scheme::IcrPPS_S(), hierarchy, mask);
  std::uint64_t cycle = 0;
  const std::uint64_t lines = geometry.size_bytes / geometry.line_bytes;
  for (std::uint64_t b = 0; b < lines; ++b) {
    dl1.store(b * geometry.line_bytes, b, cycle++);
  }
  const std::uint32_t sets = geometry.num_sets();
  std::uint32_t set = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dl1.select_replica_victim(set, ~0ULL, cycle++));
    set = (set + 1) % sets;
  }
}

void BM_VictimSearch(benchmark::State& state) {
  victim_search_bench(state, 0);
}
BENCHMARK(BM_VictimSearch);

void BM_VictimSearchMasked(benchmark::State& state) {
  victim_search_bench(state, 2);
}
BENCHMARK(BM_VictimSearchMasked);

void BM_TraceGeneration(benchmark::State& state) {
  trace::SyntheticWorkload w(trace::profile_for(trace::App::kGcc));
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.next());
  }
}
BENCHMARK(BM_TraceGeneration);

// Shared v2 trace fixture for the streaming-read and seek benchmarks:
// recorded once per process, multi-chunk so seeks cross chunk boundaries.
const std::string& stream_bench_trace() {
  static const std::string path = [] {
    std::string p = "/tmp/icr_bench_stream.icrt";
    trace::SyntheticWorkload w(trace::profile_for(trace::App::kGcc));
    trace::TraceV2Writer::Options options;
    options.chunk_records = 4096;
    trace::record_trace_v2(w, 100000, p, options);
    return p;
  }();
  return path;
}

void BM_TraceStreamRead(benchmark::State& state) {
  // Sequential replay through the mmap streaming reader (chunk decode
  // amortized): records per second is the number icr_sim replay rides on.
  trace::StreamingTraceSource source(stream_bench_trace());
  std::uint64_t done = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.next());
    ++done;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
}
BENCHMARK(BM_TraceStreamRead);

void BM_TraceSeek(benchmark::State& state) {
  // Random repositioning through the chunk index — the campaign-shard and
  // sampling fast-forward path. Strides are coprime to the trace length so
  // successive seeks land in different chunks.
  trace::StreamingTraceSource source(stream_bench_trace());
  std::uint64_t n = 0;
  for (auto _ : state) {
    n = (n + 31337) % 100000;
    source.seek_to(n);
    benchmark::DoNotOptimize(source.position());
  }
}
BENCHMARK(BM_TraceSeek);

// Records per second through TraceV2Writer: fingerprint fold, chunk
// buffering, delta encoding and the file write.
void BM_TraceRecord(benchmark::State& state) {
  const std::string path = "/tmp/icr_bench_record.icrt";
  std::vector<trace::Instruction> records;
  trace::SyntheticWorkload w(trace::profile_for(trace::App::kMcf));
  for (int i = 0; i < 62500; ++i) records.push_back(w.next());
  for (auto _ : state) {
    trace::TraceV2Writer writer(path);
    for (const trace::Instruction& r : records) writer.write(r);
    writer.close();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_TraceRecord)->Unit(benchmark::kMillisecond);

// Three readers of one single-chunk trace opened together, as perfbench
// mcf-chase opens one per cell: the first decodes the chunk, the others
// verify its checksum and share the decoded records.
void BM_TraceOpenThreeReaders(benchmark::State& state) {
  static const std::string path = [] {
    std::string p = "/tmp/icr_bench_open.icrt";
    trace::SyntheticWorkload w(trace::profile_for(trace::App::kMcf));
    trace::record_trace_v2(w, 62500, p);
    return p;
  }();
  for (auto _ : state) {
    trace::StreamingTraceSource a(path);
    trace::StreamingTraceSource b(path);
    trace::StreamingTraceSource c(path);
    benchmark::DoNotOptimize(c.position());
  }
}
BENCHMARK(BM_TraceOpenThreeReaders)->Unit(benchmark::kMillisecond);

void BM_TraceFingerprint(benchmark::State& state) {
  std::vector<trace::Instruction> records;
  trace::SyntheticWorkload w(trace::profile_for(trace::App::kMcf));
  for (int i = 0; i < 4096; ++i) records.push_back(w.next());
  for (auto _ : state) {
    std::uint64_t fp = trace::kFnvOffsetBasis;
    for (const trace::Instruction& r : records) {
      fp = trace::fingerprint_fold(fp, r);
    }
    benchmark::DoNotOptimize(fp);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_TraceFingerprint);

void BM_EndToEndSimulatedInstruction(benchmark::State& state) {
  // Amortized cost of one simulated instruction through the full stack.
  mem::MemoryHierarchy hierarchy;
  core::IcrCache dl1(mem::l1d_geometry_default(), core::Scheme::IcrPPS_S(),
                     hierarchy);
  trace::SyntheticWorkload w(trace::profile_for(trace::App::kVpr));
  cpu::Pipeline pipe(w, dl1, hierarchy);
  std::uint64_t done = 0;
  for (auto _ : state) {
    pipe.run(1000);
    done += 1000;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
}
BENCHMARK(BM_EndToEndSimulatedInstruction)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
