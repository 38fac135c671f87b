#include "src/trace/trace_v2.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace icr::trace {
namespace {

constexpr char kMagic[4] = {'I', 'C', 'R', 'T'};
constexpr std::uint32_t kFlagDeltaAllowed = 1u;

// --- canonical 40-byte record image (raw chunks and the fingerprint) ---

constexpr std::size_t kRecordBytes = 40;

struct RawRecord {
  std::uint64_t pc;
  std::uint64_t mem_addr;
  std::uint64_t store_value;
  std::uint64_t next_pc;
  std::uint8_t op;
  std::uint8_t branch_taken;
  std::int16_t dest;
  std::int16_t src1;
  std::int16_t src2;
};
static_assert(sizeof(RawRecord) == kRecordBytes,
              "trace record layout drifted");

void pack_record(const Instruction& i, std::uint8_t out[kRecordBytes]) {
  RawRecord r{};
  r.pc = i.pc;
  r.mem_addr = i.mem_addr;
  r.store_value = i.store_value;
  r.next_pc = i.next_pc;
  r.op = static_cast<std::uint8_t>(i.op);
  r.branch_taken = i.branch_taken ? 1 : 0;
  r.dest = i.dest;
  r.src1 = i.src1;
  r.src2 = i.src2;
  std::memcpy(out, &r, sizeof r);
}

[[nodiscard]] Instruction unpack_record(const std::uint8_t in[kRecordBytes]) {
  RawRecord r;
  std::memcpy(&r, in, sizeof r);
  Instruction i;
  i.pc = r.pc;
  i.mem_addr = r.mem_addr;
  i.store_value = r.store_value;
  i.next_pc = r.next_pc;
  i.op = static_cast<OpClass>(r.op);
  i.branch_taken = r.branch_taken != 0;
  i.dest = r.dest;
  i.src1 = r.src1;
  i.src2 = r.src2;
  return i;
}

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw std::runtime_error("ICRT-v2: " + path + ": " + what);
}

// --- little-endian scalar helpers (byte-wise; no alignment assumptions) ---

template <typename T>
void put_le(std::uint8_t* out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

template <typename T>
[[nodiscard]] T get_le(const std::uint8_t* in) {
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(in[i]) << (8 * i);
  }
  return value;
}

// --- zigzag-LEB128 varints ---

[[nodiscard]] std::uint64_t zigzag(std::int64_t value) noexcept {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

[[nodiscard]] std::int64_t unzigzag(std::uint64_t value) noexcept {
  return static_cast<std::int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

[[nodiscard]] std::uint64_t get_varint(const std::uint8_t* data,
                                       std::size_t size, std::size_t& pos) {
  std::uint64_t value = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (pos >= size) {
      throw std::runtime_error("truncated varint");
    }
    const std::uint8_t byte = data[pos++];
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
  }
  throw std::runtime_error("varint overruns 64 bits");
}

// Signed delta between two u64s, wrapping — exact round trip via the same
// wrap on decode.
[[nodiscard]] std::int64_t delta64(std::uint64_t cur,
                                   std::uint64_t prev) noexcept {
  return static_cast<std::int64_t>(cur - prev);
}

// --- chunk encodings ---

std::vector<std::uint8_t> encode_raw(const std::vector<Instruction>& records) {
  std::vector<std::uint8_t> out(records.size() * kRecordBytes);
  for (std::size_t i = 0; i < records.size(); ++i) {
    pack_record(records[i], out.data() + i * kRecordBytes);
  }
  return out;
}

// The delta encoding drops fields the op class says are unused; a record
// carrying payload in such a field cannot round-trip and forces its chunk
// to raw.
[[nodiscard]] bool delta_encodable(const Instruction& i) noexcept {
  if (!i.is_mem() && i.mem_addr != 0) return false;
  if (!i.is_store() && i.store_value != 0) return false;
  return true;
}

[[nodiscard]] bool encode_delta(const std::vector<Instruction>& records,
                                std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(records.size() * 8);
  std::uint64_t prev_pc = 0;
  std::uint64_t prev_mem = 0;
  std::uint8_t value_bytes[8];
  for (const Instruction& i : records) {
    if (!delta_encodable(i)) return false;
    out.push_back(static_cast<std::uint8_t>(i.op));
    out.push_back(i.branch_taken ? 1 : 0);
    put_varint(out, zigzag(delta64(i.pc, prev_pc)));
    put_varint(out, zigzag(delta64(i.next_pc, i.pc)));
    prev_pc = i.pc;
    if (i.is_mem()) {
      put_varint(out, zigzag(delta64(i.mem_addr, prev_mem)));
      prev_mem = i.mem_addr;
    }
    if (i.is_store()) {
      put_le(value_bytes, i.store_value);
      out.insert(out.end(), value_bytes, value_bytes + 8);
    }
    put_varint(out, zigzag(i.dest));
    put_varint(out, zigzag(i.src1));
    put_varint(out, zigzag(i.src2));
  }
  return true;
}

// check_record's slow path, kept out of the decode loops.
[[noreturn]] void reject_record(const Instruction& i, std::uint32_t n) {
  throw std::runtime_error(
      "record " + std::to_string(n) + " out of range (op byte " +
      std::to_string(static_cast<unsigned>(i.op)) + ", registers " +
      std::to_string(i.dest) + "/" + std::to_string(i.src1) + "/" +
      std::to_string(i.src2) + "; ops end at " +
      std::to_string(static_cast<unsigned>(OpClass::kBranch)) +
      ", registers lie in [-1, " + std::to_string(Instruction::kNumRegs) +
      "))");
}

// Rejects a decoded record the pipeline cannot execute: an op byte past the
// last OpClass never issues (the core livelocks), and a register outside
// [-1, kNumRegs) indexes the rename table out of bounds. Both decoders run
// it once per record, so next() never sees such a record.
void check_record(const Instruction& i, std::uint32_t n) {
  const auto in_range = [](std::int16_t reg) {
    return reg >= -1 && reg < Instruction::kNumRegs;
  };
  if (i.op > OpClass::kBranch || !in_range(i.dest) || !in_range(i.src1) ||
      !in_range(i.src2)) [[unlikely]] {
    reject_record(i, n);
  }
}

void decode_raw(const std::uint8_t* data, std::size_t bytes,
                std::uint32_t records, std::vector<Instruction>& out) {
  if (bytes != static_cast<std::size_t>(records) * kRecordBytes) {
    throw std::runtime_error("raw chunk length does not match record count");
  }
  out.clear();
  out.reserve(records);
  for (std::uint32_t n = 0; n < records; ++n) {
    out.push_back(unpack_record(data + static_cast<std::size_t>(n) *
                                           kRecordBytes));
    check_record(out.back(), n);
  }
}

void decode_delta(const std::uint8_t* data, std::size_t bytes,
                  std::uint32_t records, std::vector<Instruction>& out) {
  // Every delta record is at least its op and flags bytes: a count the
  // chunk cannot hold is corrupt, and must not size the reservation.
  if (records > bytes / 2) {
    throw std::runtime_error("delta chunk of " + std::to_string(bytes) +
                             " bytes cannot hold " + std::to_string(records) +
                             " records");
  }
  out.clear();
  out.reserve(records);
  std::size_t pos = 0;
  std::uint64_t prev_pc = 0;
  std::uint64_t prev_mem = 0;
  for (std::uint32_t n = 0; n < records; ++n) {
    if (pos + 2 > bytes) {
      throw std::runtime_error("truncated delta record header");
    }
    Instruction i;
    i.op = static_cast<OpClass>(data[pos++]);
    i.branch_taken = data[pos++] != 0;
    i.pc = prev_pc + static_cast<std::uint64_t>(
                         unzigzag(get_varint(data, bytes, pos)));
    i.next_pc = i.pc + static_cast<std::uint64_t>(
                           unzigzag(get_varint(data, bytes, pos)));
    prev_pc = i.pc;
    if (i.is_mem()) {
      i.mem_addr = prev_mem + static_cast<std::uint64_t>(
                                  unzigzag(get_varint(data, bytes, pos)));
      prev_mem = i.mem_addr;
    }
    if (i.is_store()) {
      if (pos + 8 > bytes) {
        throw std::runtime_error("truncated store value");
      }
      i.store_value = get_le<std::uint64_t>(data + pos);
      pos += 8;
    }
    i.dest = static_cast<std::int16_t>(unzigzag(get_varint(data, bytes, pos)));
    i.src1 = static_cast<std::int16_t>(unzigzag(get_varint(data, bytes, pos)));
    i.src2 = static_cast<std::int16_t>(unzigzag(get_varint(data, bytes, pos)));
    check_record(i, n);
    out.push_back(i);
  }
  if (pos != bytes) {
    throw std::runtime_error("delta chunk has trailing bytes");
  }
}

// --- header image ---

struct V2Header {
  std::uint64_t records = 0;
  std::uint32_t chunk_records = 0;
  std::uint32_t chunk_count = 0;
  std::uint64_t index_offset = 0;
  std::uint64_t fingerprint = 0;
  std::uint32_t flags = 0;
};

void pack_header(const V2Header& h, std::uint8_t out[kV2HeaderBytes]) {
  std::memset(out, 0, kV2HeaderBytes);
  std::memcpy(out, kMagic, sizeof kMagic);
  put_le<std::uint32_t>(out + 4, kV2Version);
  put_le<std::uint64_t>(out + 8, h.records);
  put_le<std::uint32_t>(out + 16, h.chunk_records);
  put_le<std::uint32_t>(out + 20, h.chunk_count);
  put_le<std::uint64_t>(out + 24, h.index_offset);
  put_le<std::uint64_t>(out + 32, h.fingerprint);
  put_le<std::uint32_t>(out + 40, h.flags);
}

V2Header unpack_header(const std::uint8_t in[kV2HeaderBytes]) {
  V2Header h;
  h.records = get_le<std::uint64_t>(in + 8);
  h.chunk_records = get_le<std::uint32_t>(in + 16);
  h.chunk_count = get_le<std::uint32_t>(in + 20);
  h.index_offset = get_le<std::uint64_t>(in + 24);
  h.fingerprint = get_le<std::uint64_t>(in + 32);
  h.flags = get_le<std::uint32_t>(in + 40);
  return h;
}

// Records in `chunk` of a trace whose header is `info`: chunk_records for
// every chunk but the last, which holds the remainder.
[[nodiscard]] std::uint32_t expected_chunk_records(const TraceInfo& info,
                                                   std::uint32_t chunk) {
  if (chunk + 1 < info.chunk_count) return info.chunk_records;
  const std::uint64_t tail = info.records % info.chunk_records;
  return static_cast<std::uint32_t>(tail == 0 ? info.chunk_records : tail);
}

// Header invariants every reader relies on: the chunk count matches the
// record count, and the whole index lies inside the file. Computed without
// overflow, so hostile header fields cannot point the index elsewhere.
void check_header(const V2Header& h, std::uint64_t file_bytes,
                  const std::string& path) {
  if (h.chunk_records == 0 && h.records != 0) {
    corrupt(path, "zero chunk_records");
  }
  const std::uint64_t chunks =
      h.chunk_records == 0 ? 0
                           : h.records / h.chunk_records +
                                 (h.records % h.chunk_records != 0 ? 1 : 0);
  if (h.chunk_count != chunks) {
    corrupt(path, "chunk count disagrees with record count");
  }
  if (h.index_offset < kV2HeaderBytes || h.index_offset > file_bytes ||
      static_cast<std::uint64_t>(h.chunk_count) * kV2IndexEntryBytes >
          file_bytes - h.index_offset) {
    corrupt(path, "truncated chunk index");
  }
}

// Provenance a header carries; chunk encodings are counted by the caller.
[[nodiscard]] TraceInfo header_info(const V2Header& h, const std::string& path,
                                    std::uint64_t file_bytes) {
  TraceInfo info;
  info.path = path;
  info.version = kV2Version;
  info.records = h.records;
  info.fingerprint = h.fingerprint;
  info.file_bytes = file_bytes;
  info.chunk_records = h.chunk_records;
  info.chunk_count = h.chunk_count;
  return info;
}

// Checks magic + version, distinguishing "not a trace" and "retired
// container version" from corruption for every reader entry point.
void check_magic_and_version(const std::uint8_t head[8],
                             const std::string& path) {
  if (std::memcmp(head, kMagic, sizeof kMagic) != 0) {
    corrupt(path, "bad magic (not an ICRT trace)");
  }
  const std::uint32_t version = get_le<std::uint32_t>(head + 4);
  if (version == 1) {
    corrupt(path, "trace version 1 is no longer supported (the flat ICRT-v1 "
                  "container was retired; re-record or re-import the trace)");
  }
  if (version != kV2Version) {
    corrupt(path, "unsupported version " + std::to_string(version));
  }
}

}  // namespace

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size,
                      std::uint64_t state) noexcept {
  for (std::size_t i = 0; i < size; ++i) {
    state = (state ^ data[i]) * kFnvPrime;
  }
  return state;
}

std::uint64_t fingerprint_fold(std::uint64_t state,
                               const Instruction& instruction) {
  std::uint8_t record[kRecordBytes];
  pack_record(instruction, record);
  return fnv1a64(record, kRecordBytes, state);
}

// --- TraceV2Writer ---

TraceV2Writer::TraceV2Writer(const std::string& path, Options options)
    : path_(path),
      out_(path, std::ios::binary | std::ios::trunc),
      options_(options) {
  if (options_.chunk_records == 0) {
    options_.chunk_records = kV2DefaultChunkRecords;
  }
  if (!out_) {
    throw std::runtime_error("TraceV2Writer: cannot open " + path);
  }
  // Placeholder header; patched with the real counts/index in close().
  std::uint8_t header[kV2HeaderBytes];
  V2Header h;
  h.flags = options_.delta ? kFlagDeltaAllowed : 0;
  pack_header(h, header);
  write_bytes(header, sizeof header, "header");
  // Any u32 chunk size is valid; reserve no more than a default chunk and
  // let larger chunks grow as records arrive.
  pending_.reserve(std::min(options_.chunk_records, kV2DefaultChunkRecords));
}

TraceV2Writer::~TraceV2Writer() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; explicit close() reports the failure.
  }
}

void TraceV2Writer::write_bytes(const void* data, std::size_t size,
                                const char* what) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  if (!out_) {
    throw std::runtime_error(
        "TraceV2Writer: " + std::string(what) + " write failed for " + path_ +
        " at byte offset " + std::to_string(offset_) +
        " (disk full or stream closed?)");
  }
}

void TraceV2Writer::write(const Instruction& instruction) {
  fingerprint_ = fingerprint_fold(fingerprint_, instruction);
  pending_.push_back(instruction);
  ++count_;
  if (pending_.size() == options_.chunk_records) flush_chunk();
}

void TraceV2Writer::flush_chunk() {
  if (pending_.empty()) return;
  std::vector<std::uint8_t> encoded;
  ChunkEncoding encoding = ChunkEncoding::kRaw;
  if (options_.delta && encode_delta(pending_, encoded) &&
      encoded.size() < pending_.size() * kRecordBytes) {
    encoding = ChunkEncoding::kDelta;
  } else {
    encoded = encode_raw(pending_);
  }
  IndexEntry entry;
  entry.offset = offset_;
  entry.bytes = encoded.size();
  entry.checksum = fnv1a64(encoded.data(), encoded.size());
  entry.records = static_cast<std::uint32_t>(pending_.size());
  entry.encoding = static_cast<std::uint32_t>(encoding);
  write_bytes(encoded.data(), encoded.size(), "chunk");
  offset_ += encoded.size();
  index_.push_back(entry);
  pending_.clear();
}

void TraceV2Writer::close() {
  if (closed_) return;
  closed_ = true;
  flush_chunk();
  const std::uint64_t index_offset = offset_;
  std::uint8_t entry[kV2IndexEntryBytes];
  for (const IndexEntry& e : index_) {
    put_le<std::uint64_t>(entry, e.offset);
    put_le<std::uint64_t>(entry + 8, e.bytes);
    put_le<std::uint64_t>(entry + 16, e.checksum);
    put_le<std::uint32_t>(entry + 24, e.records);
    put_le<std::uint32_t>(entry + 28, e.encoding);
    write_bytes(entry, sizeof entry, "index");
    offset_ += sizeof entry;
  }
  V2Header h;
  h.records = count_;
  h.chunk_records = options_.chunk_records;
  h.chunk_count = static_cast<std::uint32_t>(index_.size());
  h.index_offset = index_offset;
  h.fingerprint = fingerprint_;
  h.flags = options_.delta ? kFlagDeltaAllowed : 0;
  std::uint8_t header[kV2HeaderBytes];
  pack_header(h, header);
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(header), sizeof header);
  out_.flush();
  if (!out_) {
    throw std::runtime_error(
        "TraceV2Writer: finalizing header failed for " + path_ + " after " +
        std::to_string(count_) + " record(s)");
  }
  out_.close();
}

// --- StreamingTraceSource ---

StreamingTraceSource::StreamingTraceSource(const std::string& path)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    throw std::runtime_error("StreamingTraceSource: cannot open " + path);
  }
  try {
    struct stat st{};
    if (::fstat(fd_, &st) != 0 || st.st_size < 8) {
      corrupt(path, "truncated header (not a trace file?)");
    }
    map_bytes_ = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, map_bytes_, PROT_READ, MAP_PRIVATE, fd_, 0);
    if (map == MAP_FAILED) {
      throw std::runtime_error("StreamingTraceSource: mmap failed for " +
                               path);
    }
    map_ = static_cast<const std::uint8_t*>(map);
    check_magic_and_version(map_, path);
    if (map_bytes_ < kV2HeaderBytes) corrupt(path, "truncated v2 header");

    const V2Header h = unpack_header(map_);
    if (h.records == 0) corrupt(path, "empty trace (zero records)");
    check_header(h, map_bytes_, path);
    index_offset_ = h.index_offset;
    info_ = header_info(h, path, map_bytes_);
    for (std::uint32_t c = 0; c < h.chunk_count; ++c) {
      const ChunkMeta meta = chunk_meta(c);
      if (meta.encoding == static_cast<std::uint32_t>(ChunkEncoding::kDelta)) {
        ++info_.delta_chunks;
      } else {
        ++info_.raw_chunks;
      }
    }
    load_chunk(0);
  } catch (...) {
    unmap();
    throw;
  }
}

StreamingTraceSource::~StreamingTraceSource() { unmap(); }

void StreamingTraceSource::unmap() noexcept {
  if (map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_), map_bytes_);
    map_ = nullptr;
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

StreamingTraceSource::ChunkMeta StreamingTraceSource::chunk_meta(
    std::uint32_t chunk) const {
  const std::uint8_t* entry =
      map_ + index_offset_ +
      static_cast<std::size_t>(chunk) * kV2IndexEntryBytes;
  ChunkMeta meta;
  meta.offset = get_le<std::uint64_t>(entry);
  meta.bytes = get_le<std::uint64_t>(entry + 8);
  meta.checksum = get_le<std::uint64_t>(entry + 16);
  meta.records = get_le<std::uint32_t>(entry + 24);
  meta.encoding = get_le<std::uint32_t>(entry + 28);
  return meta;
}

void StreamingTraceSource::load_chunk(std::uint32_t chunk) {
  const ChunkMeta meta = chunk_meta(chunk);
  const std::string where = "chunk " + std::to_string(chunk);
  if (meta.offset < kV2HeaderBytes || meta.offset > index_offset_ ||
      meta.bytes > index_offset_ - meta.offset) {
    corrupt(path_, where + " overruns the file (truncated chunk tail?)");
  }
  if (meta.records != expected_chunk_records(info_, chunk)) {
    corrupt(path_, where + " has the wrong record count");
  }
  const std::uint8_t* data = map_ + meta.offset;
  if (fnv1a64(data, static_cast<std::size_t>(meta.bytes)) != meta.checksum) {
    corrupt(path_, where + " checksum mismatch (corrupt or torn write)");
  }
  try {
    if (meta.encoding == static_cast<std::uint32_t>(ChunkEncoding::kDelta)) {
      decode_delta(data, static_cast<std::size_t>(meta.bytes), meta.records,
                   chunk_);
    } else if (meta.encoding ==
               static_cast<std::uint32_t>(ChunkEncoding::kRaw)) {
      decode_raw(data, static_cast<std::size_t>(meta.bytes), meta.records,
                 chunk_);
    } else {
      corrupt(path_, where + " has unknown encoding " +
                         std::to_string(meta.encoding));
    }
  } catch (const std::runtime_error& error) {
    corrupt(path_, where + ": " + error.what());
  }
  current_chunk_ = chunk;
  pos_in_chunk_ = 0;
}

Instruction StreamingTraceSource::next() {
  if (pos_in_chunk_ == chunk_.size()) {
    const std::uint32_t next_chunk =
        current_chunk_ + 1 == info_.chunk_count ? 0 : current_chunk_ + 1;
    load_chunk(next_chunk);
  }
  return chunk_[pos_in_chunk_++];
}

void StreamingTraceSource::seek_to(std::uint64_t n) {
  const std::uint64_t record = n % info_.records;
  const std::uint32_t chunk =
      static_cast<std::uint32_t>(record / info_.chunk_records);
  if (chunk != current_chunk_) load_chunk(chunk);
  pos_in_chunk_ = static_cast<std::size_t>(record % info_.chunk_records);
}

std::uint64_t StreamingTraceSource::position() const noexcept {
  const std::uint64_t absolute =
      static_cast<std::uint64_t>(current_chunk_) * info_.chunk_records +
      pos_in_chunk_;
  return absolute % info_.records;
}

std::size_t StreamingTraceSource::resident_bytes() const noexcept {
  return sizeof(*this) + chunk_.capacity() * sizeof(Instruction) +
         path_.capacity();
}

// --- probe / validate ---

TraceInfo probe_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("probe_trace: cannot open " + path);
  const std::uint64_t file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  std::uint8_t raw[kV2HeaderBytes];
  in.read(reinterpret_cast<char*>(raw), 8);
  if (!in) corrupt(path, "truncated header (not a trace file?)");
  check_magic_and_version(raw, path);
  in.read(reinterpret_cast<char*>(raw) + 8, kV2HeaderBytes - 8);
  if (!in) corrupt(path, "truncated v2 header");
  const V2Header h = unpack_header(raw);
  check_header(h, file_bytes, path);
  TraceInfo info = header_info(h, path, file_bytes);

  // Index walk: chunk contiguity, record counts and encodings. Does not
  // decode or checksum chunks.
  in.seekg(static_cast<std::streamoff>(h.index_offset));
  std::uint64_t running = kV2HeaderBytes;
  for (std::uint32_t c = 0; c < h.chunk_count; ++c) {
    std::uint8_t entry[kV2IndexEntryBytes];
    in.read(reinterpret_cast<char*>(entry), sizeof entry);
    if (!in) corrupt(path, "truncated chunk index");
    const std::uint64_t offset = get_le<std::uint64_t>(entry);
    const std::uint64_t bytes = get_le<std::uint64_t>(entry + 8);
    const std::uint32_t records = get_le<std::uint32_t>(entry + 24);
    const std::uint32_t encoding = get_le<std::uint32_t>(entry + 28);
    if (offset != running) {
      corrupt(path, "chunk " + std::to_string(c) + " is not contiguous");
    }
    if (bytes > h.index_offset - offset) {
      corrupt(path, "chunk " + std::to_string(c) +
                        " overruns the index (truncated chunk tail?)");
    }
    running = offset + bytes;
    if (records != expected_chunk_records(info, c)) {
      corrupt(path,
              "chunk " + std::to_string(c) + " has the wrong record count");
    }
    if (encoding == static_cast<std::uint32_t>(ChunkEncoding::kDelta)) {
      ++info.delta_chunks;
    } else if (encoding == static_cast<std::uint32_t>(ChunkEncoding::kRaw)) {
      ++info.raw_chunks;
    } else {
      corrupt(path, "chunk " + std::to_string(c) + " has unknown encoding " +
                        std::to_string(encoding));
    }
  }
  if (running != h.index_offset) {
    corrupt(path, "gap between the last chunk and the index");
  }
  return info;
}

TraceInfo validate_trace(const std::string& path) {
  TraceInfo info = probe_trace(path);
  if (info.records == 0) {
    corrupt(path, "empty trace (zero records)");
  }
  // Decode every chunk (verifying each checksum and record) and recompute
  // the content fingerprint the header claims.
  StreamingTraceSource source(path);
  std::uint64_t fp = kFnvOffsetBasis;
  for (std::uint64_t n = 0; n < info.records; ++n) {
    fp = fingerprint_fold(fp, source.next());
  }
  if (fp != info.fingerprint) {
    corrupt(path, "content fingerprint mismatch (header claims " +
                      std::to_string(info.fingerprint) + ", records hash to " +
                      std::to_string(fp) + ")");
  }
  return info;
}

void record_trace_v2(TraceSource& source, std::uint64_t count,
                     const std::string& path, TraceV2Writer::Options options) {
  TraceV2Writer writer(path, options);
  for (std::uint64_t n = 0; n < count; ++n) {
    writer.write(source.next());
  }
  writer.close();
}

}  // namespace icr::trace
