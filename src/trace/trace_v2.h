// ICRT-v2: the chunked, seekable, streaming trace container — the one
// container recorded, imported and replayed traces use.
//
// Records are grouped into independently decodable chunks behind a
// per-chunk index, so a reader can mmap the file, hold one decoded chunk,
// and seek to any instruction boundary in O(1):
//
//   offset  bytes
//        0      4  magic "ICRT"
//        4      4  u32 version = 2
//        8      8  u64 record count
//       16      4  u32 chunk_records (records per chunk; last may be short)
//       20      4  u32 chunk count
//       24      8  u64 index offset (byte position of the chunk index)
//       32      8  u64 content fingerprint (FNV-1a 64 over the canonical
//                     40-byte record images, in stream order — identical
//                     for raw and delta chunks of the same records)
//       40      4  u32 flags (bit 0: writer was allowed to delta-encode)
//       44     20  reserved (zero)
//       64      -  chunks, back to back
//        -      -  chunk index: chunk_count x 32-byte entries
//                     u64 byte offset  u64 byte length
//                     u64 FNV-1a 64 of the encoded chunk bytes
//                     u32 record count u32 encoding (0 raw, 1 delta)
//
// Everything is little-endian; no external dependencies. The canonical
// record image is 40 bytes: pc, mem_addr, store_value, next_pc (u64 each),
// op, branch_taken (u8 each), dest, src1, src2 (i16 each). Chunk encodings:
//
//   raw    record count x 40-byte canonical images.
//   delta  per record: op byte, flags byte (bit 0 branch_taken), then
//          zigzag-LEB128 varints for pc (delta from previous pc in the
//          chunk), next_pc (delta from this pc), mem_addr for loads/stores
//          (delta from the previous load/store address in the chunk), a
//          fixed 8-byte store_value for stores, and varint dest/src1/src2.
//          Decoder state (prev pc/addr) resets at every chunk boundary, so
//          chunks decode independently — the property seeking rests on.
//
// The writer encodes each chunk both ways and keeps whichever is smaller
// (typically delta at ~5x compression for synthetic streams); records that
// a delta chunk could not round-trip losslessly (a non-memory record with a
// nonzero mem_addr, say) force that chunk to raw. Readers reject any record
// whose op byte is not an OpClass or whose register field lies outside
// [-1, Instruction::kNumRegs), naming its chunk and record index.
//
// Version 1 (a flat, whole-file record array) is no longer supported: every
// reader entry point rejects it with one error naming the version.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/instruction.h"

namespace icr::trace {

inline constexpr std::uint32_t kV2Version = 2;
inline constexpr std::size_t kV2HeaderBytes = 64;
inline constexpr std::size_t kV2IndexEntryBytes = 32;
inline constexpr std::uint32_t kV2DefaultChunkRecords = 1u << 16;

enum class ChunkEncoding : std::uint32_t { kRaw = 0, kDelta = 1 };

// FNV-1a 64 — the checksum/fingerprint primitive (no external deps).
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

[[nodiscard]] std::uint64_t fnv1a64(
    const std::uint8_t* data, std::size_t size,
    std::uint64_t state = kFnvOffsetBasis) noexcept;

// Folds one instruction's canonical 40-byte image into a running content
// fingerprint; start from kFnvOffsetBasis.
[[nodiscard]] std::uint64_t fingerprint_fold(std::uint64_t state,
                                             const Instruction& instruction);

// Provenance of a trace file, as probe_trace/validate_trace report it and
// as icr_sim prints it in the replay run header.
struct TraceInfo {
  std::string path;
  std::uint32_t version = 0;
  std::uint64_t records = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t file_bytes = 0;
  std::uint32_t chunk_records = 0;
  std::uint32_t chunk_count = 0;
  std::uint32_t raw_chunks = 0;
  std::uint32_t delta_chunks = 0;
};

class TraceV2Writer {
 public:
  struct Options {
    std::uint32_t chunk_records = kV2DefaultChunkRecords;
    // When true (default), each chunk stores whichever of raw/delta encodes
    // smaller; false forces every chunk raw.
    bool delta = true;
  };

  // Creates/truncates `path`; throws std::runtime_error if unwritable.
  explicit TraceV2Writer(const std::string& path) : TraceV2Writer(path, {}) {}
  TraceV2Writer(const std::string& path, Options options);
  ~TraceV2Writer();

  TraceV2Writer(const TraceV2Writer&) = delete;
  TraceV2Writer& operator=(const TraceV2Writer&) = delete;

  // Buffers into the current chunk; flushes a full chunk to disk. Throws
  // std::runtime_error (with path and byte offset) on a failed write.
  void write(const Instruction& instruction);

  // Flushes the tail chunk, writes the index, and patches the header.
  // Called automatically by the destructor (which swallows errors; call
  // close() explicitly to observe them).
  void close();

  [[nodiscard]] std::uint64_t written() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

 private:
  struct IndexEntry {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;
    std::uint32_t records = 0;
    std::uint32_t encoding = 0;
  };

  void flush_chunk();
  void write_bytes(const void* data, std::size_t size, const char* what);

  std::string path_;
  std::ofstream out_;
  Options options_;
  std::vector<Instruction> pending_;
  std::vector<IndexEntry> index_;
  std::uint64_t count_ = 0;
  std::uint64_t offset_ = kV2HeaderBytes;  // next chunk's byte position
  std::uint64_t fingerprint_ = kFnvOffsetBasis;
  bool closed_ = false;
};

// Streaming v2 replay: mmaps the container and holds one decoded chunk, so
// memory is O(chunk_records) per reader no matter how large the trace is
// (asserted by tests/trace_v2_test.cc). Loops at the end of the trace like
// every TraceSource; seek_to(n) repositions through the chunk index without
// touching any other chunk — what makes recorded traces shardable by
// instruction interval in campaigns.
//
// Live readers of one file share decoded chunks: a process-wide registry
// maps (the file's fstat identity: device, inode, size, mtime, ctime; the
// chunk's offset, bytes, checksum, record count, encoding) to the decoded
// records while some reader holds them. Every reader still checks the
// chunk's bounds and record count against its own header and index and
// verifies the chunk checksum over its own mapping before the lookup; only
// the decode (which checks every record) is done once. A file rewritten in
// place changes its mtime/ctime or its chunk checksums, so a new reader of
// it decodes afresh.
class StreamingTraceSource final : public TraceSource {
 public:
  // Opens `path` positioned at record first_record % size(), as
  // seek_to(first_record) would, decoding only that record's chunk. Throws
  // std::runtime_error on a missing/corrupt/empty file, a version-1 trace,
  // or a corrupt chunk holding the first record.
  explicit StreamingTraceSource(const std::string& path,
                                std::uint64_t first_record = 0);
  ~StreamingTraceSource() override;

  StreamingTraceSource(const StreamingTraceSource&) = delete;
  StreamingTraceSource& operator=(const StreamingTraceSource&) = delete;

  Instruction next() override;
  // Positions the stream so the next next() returns record n % size() —
  // exactly where n sequential next() calls from the start would land.
  void seek_to(std::uint64_t n);

  [[nodiscard]] std::uint64_t size() const noexcept { return info_.records; }
  // Absolute record index the next next() call returns (mod size()).
  [[nodiscard]] std::uint64_t position() const noexcept;
  [[nodiscard]] const TraceInfo& info() const noexcept { return info_; }

  // Heap + object bytes held by this reader: the bounded-allocation number
  // the O(chunk) guarantee is tested against. Counts the decoded chunk in
  // full even while other readers share it. Excludes the mmap, which is
  // file-backed, read-only, and paged by the OS — never a per-record heap
  // allocation.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

 private:
  struct ChunkMeta {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;
    std::uint32_t records = 0;
    std::uint32_t encoding = 0;
  };

  [[nodiscard]] ChunkMeta chunk_meta(std::uint32_t chunk) const;
  void load_chunk(std::uint32_t chunk);
  void unmap() noexcept;

  std::string path_;
  int fd_ = -1;
  const std::uint8_t* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  // The mapped version of the file, from fstat: st_dev, st_ino, st_size,
  // st_mtim (s, ns), st_ctim (s, ns).
  std::array<std::int64_t, 7> file_identity_{};
  TraceInfo info_;
  std::uint64_t index_offset_ = 0;
  std::uint32_t current_chunk_ = 0;
  std::size_t pos_in_chunk_ = 0;
  // The decoded chunk, shared with every other live reader of it; null
  // until the constructor's load.
  std::shared_ptr<const std::vector<Instruction>> chunk_;
};

// Header-level provenance: version, record count, fingerprint, chunking.
// Reads only the header and the chunk index. Throws on missing/corrupt
// files.
[[nodiscard]] TraceInfo probe_trace(const std::string& path);

// Full integrity walk: decodes every chunk, verifies every checksum and the
// index invariants, recomputes the content fingerprint, and cross-checks
// the header. Throws std::runtime_error naming the first problem found.
[[nodiscard]] TraceInfo validate_trace(const std::string& path);

// Records `count` instructions of `source` into a v2 container at `path`.
void record_trace_v2(TraceSource& source, std::uint64_t count,
                     const std::string& path,
                     TraceV2Writer::Options options = {});

}  // namespace icr::trace
