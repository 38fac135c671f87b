#include "src/trace/trace_v2.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/trace/workloads.h"

namespace icr::trace {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void expect_equal(const Instruction& a, const Instruction& b) {
  ASSERT_EQ(static_cast<int>(a.op), static_cast<int>(b.op));
  ASSERT_EQ(a.pc, b.pc);
  ASSERT_EQ(a.mem_addr, b.mem_addr);
  ASSERT_EQ(a.store_value, b.store_value);
  ASSERT_EQ(a.next_pc, b.next_pc);
  ASSERT_EQ(a.branch_taken, b.branch_taken);
  ASSERT_EQ(a.dest, b.dest);
  ASSERT_EQ(a.src1, b.src1);
  ASSERT_EQ(a.src2, b.src2);
}

// The message `read` throws, or "" when it does not throw.
template <typename Read>
std::string error_of(Read&& read) {
  try {
    read();
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

// A finite TraceSource over an in-memory vector (loops like every source).
class VectorSource final : public TraceSource {
 public:
  explicit VectorSource(std::vector<Instruction> records)
      : records_(std::move(records)) {}
  Instruction next() override {
    const Instruction& r = records_[pos_];
    pos_ = (pos_ + 1) % records_.size();
    return r;
  }

 private:
  std::vector<Instruction> records_;
  std::size_t pos_ = 0;
};

TEST(TraceV2, RoundTripMatchesGeneratorDelta) {
  const std::string path = temp_path("v2_roundtrip.icrt");
  SyntheticWorkload source(profile_for(App::kGcc));
  SyntheticWorkload reference(profile_for(App::kGcc));
  record_trace_v2(source, 5000, path);

  StreamingTraceSource replay(path);
  ASSERT_EQ(replay.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    expect_equal(replay.next(), reference.next());
  }
  std::remove(path.c_str());
}

TEST(TraceV2, RoundTripMatchesGeneratorRaw) {
  const std::string path = temp_path("v2_raw.icrt");
  SyntheticWorkload source(profile_for(App::kVortex));
  SyntheticWorkload reference(profile_for(App::kVortex));
  TraceV2Writer::Options options;
  options.delta = false;
  record_trace_v2(source, 2000, path, options);

  const TraceInfo info = probe_trace(path);
  EXPECT_EQ(info.delta_chunks, 0u);
  EXPECT_EQ(info.raw_chunks, info.chunk_count);

  StreamingTraceSource replay(path);
  for (int i = 0; i < 2000; ++i) {
    expect_equal(replay.next(), reference.next());
  }

  // Raw and delta chunks hash the same canonical record images, so raw and
  // delta recordings of one stream carry one fingerprint.
  const std::string delta_path = temp_path("v2_raw_as_delta.icrt");
  SyntheticWorkload again(profile_for(App::kVortex));
  record_trace_v2(again, 2000, delta_path);
  const TraceInfo delta_info = probe_trace(delta_path);
  EXPECT_GT(delta_info.delta_chunks, 0u);
  EXPECT_EQ(delta_info.fingerprint, info.fingerprint);
  std::remove(path.c_str());
  std::remove(delta_path.c_str());
}

TEST(TraceV2, ConvertPreservesFingerprintAcrossVersions) {
  // Re-encode a delta recording the way `icr_trace convert --raw` does:
  // replay it through the reader into a writer with other chunk settings.
  // The re-encoded version of the file keeps the original's fingerprint and
  // replays the same stream.
  const std::string delta_path = temp_path("fp_delta.icrt");
  const std::string raw_path = temp_path("fp_raw.icrt");
  {
    SyntheticWorkload source(profile_for(App::kVortex));
    record_trace_v2(source, 3000, delta_path);
  }
  {
    StreamingTraceSource original(delta_path);
    TraceV2Writer::Options options;
    options.delta = false;
    options.chunk_records = 128;
    record_trace_v2(original, original.size(), raw_path, options);
  }
  const TraceInfo delta = probe_trace(delta_path);
  const TraceInfo raw = probe_trace(raw_path);
  EXPECT_EQ(raw.raw_chunks, raw.chunk_count);
  EXPECT_EQ(raw.records, delta.records);
  EXPECT_EQ(raw.fingerprint, delta.fingerprint);

  StreamingTraceSource lhs(delta_path);
  StreamingTraceSource rhs(raw_path);
  for (int i = 0; i < 3000; ++i) {
    expect_equal(lhs.next(), rhs.next());
  }
  std::remove(delta_path.c_str());
  std::remove(raw_path.c_str());
}

TEST(TraceV2, MultiChunkReplayLoopsAtEnd) {
  const std::string path = temp_path("v2_loop.icrt");
  SyntheticWorkload source(profile_for(App::kGzip));
  TraceV2Writer::Options options;
  options.chunk_records = 128;  // 1000 records -> 8 chunks, last short
  record_trace_v2(source, 1000, path, options);

  const TraceInfo info = probe_trace(path);
  EXPECT_EQ(info.chunk_count, 8u);

  StreamingTraceSource replay(path);
  std::vector<std::uint64_t> first_pass;
  for (int i = 0; i < 1000; ++i) first_pass.push_back(replay.next().pc);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(replay.next().pc, first_pass[static_cast<std::size_t>(i)]);
  }
  std::remove(path.c_str());
}

TEST(TraceV2, SeekLandsWhereSequentialReadsWould) {
  const std::string path = temp_path("v2_seek.icrt");
  SyntheticWorkload source(profile_for(App::kMcf));
  TraceV2Writer::Options options;
  options.chunk_records = 64;
  record_trace_v2(source, 777, path, options);

  StreamingTraceSource replay(path);
  std::vector<Instruction> all;
  for (int i = 0; i < 777; ++i) all.push_back(replay.next());

  // seek_to(n) must position exactly where n sequential next() calls from
  // the start would — including n past the end (the stream loops).
  for (const std::uint64_t n :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{63},
        std::uint64_t{64}, std::uint64_t{500}, std::uint64_t{776},
        std::uint64_t{777}, std::uint64_t{9999}}) {
    replay.seek_to(n);
    EXPECT_EQ(replay.position(), n % 777u);
    expect_equal(replay.next(), all[static_cast<std::size_t>(n % 777u)]);
  }
  std::remove(path.c_str());
}

// 200 random traces: arbitrary field values (including non-canonical
// records that force chunks raw), random chunk sizes, full encode->decode
// identity plus random seeks cross-checked against sequential reads.
TEST(TraceV2, PropertyRandomTracesRoundTripAndSeek) {
  const std::string path = temp_path("v2_prop.icrt");
  std::mt19937_64 rng(0x1CF2ULL);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t count = 1 + rng() % 300;
    std::vector<Instruction> records(count);
    for (Instruction& r : records) {
      r.op = static_cast<OpClass>(rng() % 9);
      // Mix small deltas (the delta encoder's fast path) with extreme
      // 64-bit values (zigzag/varint edge cases).
      r.pc = (rng() % 4 == 0) ? rng() : 0x400000 + (rng() % 1024) * 4;
      r.next_pc = (rng() % 4 == 0) ? rng() : r.pc + 4;
      r.mem_addr = (rng() % 8 == 0) ? (rng() & ~7ULL) : 0;
      r.store_value = (rng() % 8 == 0) ? rng() : 0;
      r.branch_taken = (rng() % 2) != 0;
      r.dest = static_cast<std::int16_t>(rng() % 64) - 1;
      r.src1 = static_cast<std::int16_t>(rng() % 64) - 1;
      r.src2 = static_cast<std::int16_t>(rng() % 64) - 1;
    }
    TraceV2Writer::Options options;
    options.chunk_records = 1 + static_cast<std::uint32_t>(rng() % 97);
    options.delta = (rng() % 4) != 0;
    {
      VectorSource source(records);
      record_trace_v2(source, count, path, options);
    }

    StreamingTraceSource replay(path);
    ASSERT_EQ(replay.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      expect_equal(replay.next(), records[i]);
    }
    // Three random seeks per trace.
    for (int s = 0; s < 3; ++s) {
      const std::uint64_t n = rng() % (2 * count + 1);
      replay.seek_to(n);
      expect_equal(replay.next(), records[static_cast<std::size_t>(n % count)]);
    }
    ASSERT_EQ(validate_trace(path).records, count);
  }
  std::remove(path.c_str());
}

TEST(TraceV2, ResidentMemoryIsBoundedByChunkNotTrace) {
  const std::string path = temp_path("v2_resident.icrt");
  SyntheticWorkload source(profile_for(App::kParser));
  TraceV2Writer::Options options;
  options.chunk_records = 1024;
  record_trace_v2(source, 100000, path, options);

  StreamingTraceSource replay(path);
  for (int i = 0; i < 5000; ++i) replay.next();
  // One decoded chunk plus fixed object state; nowhere near the whole
  // trace (100k records x 56+ bytes each).
  const std::size_t bound = 1024 * sizeof(Instruction) + 4096;
  EXPECT_LE(replay.resident_bytes(), bound);
  EXPECT_LT(replay.resident_bytes(), 100000 * sizeof(Instruction) / 10);
  std::remove(path.c_str());
}

// Every reader entry point refuses `path` with a runtime_error.
void expect_every_reader_throws(const std::string& path) {
  EXPECT_THROW(probe_trace(path), std::runtime_error);
  EXPECT_THROW(validate_trace(path), std::runtime_error);
  EXPECT_THROW(StreamingTraceSource{path}, std::runtime_error);
}

TEST(TraceFile, MissingFileThrows) {
  expect_every_reader_throws("/nonexistent/path/x.icrt");
}

TEST(TraceFile, BadMagicThrows) {
  const std::string path = temp_path("v2_bad_magic.icrt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a trace file at all, though it is long enough to "
           "hold a whole header";
  }
  expect_every_reader_throws(path);
  std::remove(path.c_str());
}

TEST(TraceV2, TruncatedHeaderThrows) {
  const std::string path = temp_path("v2_trunc_header.icrt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "ICRT";  // 4 bytes of a 64-byte header
  }
  expect_every_reader_throws(path);
  std::remove(path.c_str());
}

TEST(TraceV2, TruncatedChunkTailThrows) {
  const std::string path = temp_path("v2_trunc_tail.icrt");
  SyntheticWorkload source(profile_for(App::kVpr));
  record_trace_v2(source, 500, path);
  // Chop the file mid-chunk: the index (and part of the data) is gone.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes(kV2HeaderBytes + 100);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(probe_trace(path), std::runtime_error);
  EXPECT_THROW(StreamingTraceSource{path}, std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceV2, ChunkChecksumMismatchThrows) {
  const std::string path = temp_path("v2_flip.icrt");
  SyntheticWorkload source(profile_for(App::kMesa));
  record_trace_v2(source, 500, path);
  ASSERT_NO_THROW(validate_trace(path));
  // Flip one byte inside the first chunk's payload.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(kV2HeaderBytes) + 10);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(static_cast<std::streamoff>(kV2HeaderBytes) + 10);
    f.write(&b, 1);
  }
  try {
    (void)validate_trace(path);
    FAIL() << "corrupt chunk validated";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("checksum"), std::string::npos)
        << error.what();
  }
  // The reader hits the same check when it loads the chunk.
  EXPECT_THROW(StreamingTraceSource{path}, std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceV2, ZeroRecordFileThrows) {
  const std::string path = temp_path("v2_empty.icrt");
  {
    TraceV2Writer writer(path);
    writer.close();  // header + empty index only
  }
  EXPECT_THROW(StreamingTraceSource{path}, std::runtime_error);
  EXPECT_THROW(validate_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceV2, V1HeaderRejectedByEveryReader) {
  // The retired flat v1 container: magic, u32 version 1, u64 record count.
  const std::string path = temp_path("v1_header.icrt");
  {
    const std::uint8_t header[16] = {'I', 'C', 'R', 'T', 1, 0, 0, 0,
                                     3, 0, 0, 0, 0, 0, 0, 0};
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(header), sizeof header);
  }
  for (const std::string& what :
       {error_of([&] { (void)probe_trace(path); }),
        error_of([&] { (void)validate_trace(path); }),
        error_of([&] { StreamingTraceSource replay(path); })}) {
    EXPECT_NE(what.find("version 1 is no longer supported"),
              std::string::npos)
        << what;
  }
  std::remove(path.c_str());
}

TEST(TraceV2, OutOfRangeRecordRejectedAtDecode) {
  // An op byte past kBranch never issues (the pipeline livelocks) and a
  // register field >= kNumRegs indexes the rename table out of bounds. The
  // writer and the chunk checksums accept both, so the decoder must not.
  Instruction bad_op;
  bad_op.op = static_cast<OpClass>(static_cast<int>(OpClass::kBranch) + 1);
  Instruction bad_dest;
  bad_dest.dest = Instruction::kNumRegs;
  const std::string path = temp_path("v2_bad_record.icrt");
  for (const bool delta : {false, true}) {
    for (const Instruction& bad : {bad_op, bad_dest}) {
      SCOPED_TRACE(delta ? "delta" : "raw");
      SyntheticWorkload source(profile_for(App::kGzip));
      TraceV2Writer::Options options;
      options.chunk_records = 64;
      options.delta = delta;
      {
        TraceV2Writer writer(path, options);
        for (int i = 0; i < 200; ++i) {
          writer.write(i == 70 ? bad : source.next());
        }
        writer.close();
      }
      const TraceInfo info = probe_trace(path);
      ASSERT_EQ(delta ? info.delta_chunks : info.raw_chunks, info.chunk_count);

      // Record 70 is record 6 of chunk 1.
      for (const std::string& what :
           {error_of([&] { (void)validate_trace(path); }),
            error_of([&] {
              StreamingTraceSource replay(path);
              for (int i = 0; i < 200; ++i) replay.next();
            })}) {
        EXPECT_NE(what.find("chunk 1: record 6 out of range"),
                  std::string::npos)
            << what;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(TraceV2, DeltaRecordCountBeyondChunkBytesRejected) {
  // 98 bytes with valid checksums: one delta chunk declaring 4,000,000,000
  // records in a 2-byte body. Every delta record takes at least 2 bytes, so
  // the count is corrupt and must not size an allocation first.
  const std::string path =
      std::string(ICR_TEST_DATA_DIR) + "/delta_records_overflow.icrt";
  for (const std::string& what :
       {error_of([&] { (void)validate_trace(path); }),
        error_of([&] { StreamingTraceSource replay(path); })}) {
    EXPECT_NE(what.find("ICRT-v2:"), std::string::npos) << what;
    EXPECT_NE(what.find("chunk 0: delta chunk of 2 bytes cannot hold "
                        "4000000000 records"),
              std::string::npos)
        << what;
  }
}

TEST(TraceV2, WriterTakesTheLargestChunkSize) {
  // Any u32 chunk size is valid: the writer must not reserve it up front.
  const std::string path = temp_path("v2_huge_chunk.icrt");
  TraceV2Writer::Options options;
  options.chunk_records = UINT32_MAX;
  std::vector<Instruction> expected;
  {
    SyntheticWorkload source(profile_for(App::kParser));
    TraceV2Writer writer(path, options);
    for (int i = 0; i < 1000; ++i) {
      expected.push_back(source.next());
      writer.write(expected.back());
    }
    writer.close();
  }
  const TraceInfo info = validate_trace(path);
  EXPECT_EQ(info.records, 1000u);
  EXPECT_EQ(info.chunk_count, 1u);
  StreamingTraceSource replay(path);
  for (const Instruction& want : expected) expect_equal(replay.next(), want);
  std::remove(path.c_str());
}

TEST(TraceV2, WriterFingerprintMatchesProbe) {
  const std::string path = temp_path("v2_wfp.icrt");
  SyntheticWorkload source(profile_for(App::kBzip2));
  TraceV2Writer writer(path);
  std::uint64_t expected = kFnvOffsetBasis;
  for (int i = 0; i < 400; ++i) {
    const Instruction r = source.next();
    expected = fingerprint_fold(expected, r);
    writer.write(r);
  }
  writer.close();
  EXPECT_EQ(writer.fingerprint(), expected);
  EXPECT_EQ(probe_trace(path).fingerprint, expected);
  std::remove(path.c_str());
}

TEST(TraceV2File, FailedWriteNamesPathAndOffset) {
  // /dev/full accepts the open but fails every flush — the classic
  // disk-full shape a capture run can hit.
  if (!std::ifstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  TraceV2Writer writer("/dev/full");
  SyntheticWorkload source(profile_for(App::kGzip));
  try {
    // The stream buffers, so force enough chunks through to flush.
    for (int i = 0; i < 200000; ++i) writer.write(source.next());
    writer.close();
    FAIL() << "writing to /dev/full succeeded";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("/dev/full"), std::string::npos) << what;
    EXPECT_NE(what.find("byte"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace icr::trace
