// Deterministic mutation testing of StreamingTraceSource. The toolchain has
// no libFuzzer, so this driver mutates small recorded traces itself: bit
// flips, truncations, splices, inflated header and index fields, and chunk
// payload edits with a recomputed checksum (the only mutants that reach the
// record decoders). Every mutant is written to its own file and read to the
// end. It must either throw std::runtime_error or yield only records the
// pipeline can execute. A reader of each pristine seed stays open for the
// whole run, so its decoded chunks sit in the shared chunk registry while
// hostile files are opened around them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/trace/trace_v2.h"
#include "src/trace/workloads.h"

namespace icr::trace {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr int kMutants = 4000;
// Bounds the records read from one mutant: test time, not correctness.
constexpr std::uint64_t kMaxRecordsRead = 1u << 20;

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t get_le(const Bytes& bytes, std::size_t at, std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t b = 0; b < width; ++b) {
    value |= static_cast<std::uint64_t>(bytes[at + b]) << (8 * b);
  }
  return value;
}

void put_le(Bytes& bytes, std::size_t at, std::size_t width,
            std::uint64_t value) {
  for (std::size_t b = 0; b < width; ++b) {
    bytes[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
}

// The reader's record contract (trace_v2.h): an OpClass op byte and
// registers in [-1, kNumRegs).
bool executable(const Instruction& i) {
  const auto in_range = [](std::int16_t reg) {
    return reg >= -1 && reg < Instruction::kNumRegs;
  };
  return i.op <= OpClass::kBranch && in_range(i.dest) && in_range(i.src1) &&
         in_range(i.src2);
}

struct Seed {
  std::string path;
  Bytes bytes;
  std::vector<Instruction> records;
};

Seed record_seed(const std::string& name, App app, int count,
                 std::uint32_t chunk_records, bool delta) {
  Seed seed;
  seed.path = temp_path(name);
  SyntheticWorkload source(profile_for(app));
  TraceV2Writer::Options options;
  options.chunk_records = chunk_records;
  options.delta = delta;
  TraceV2Writer writer(seed.path, options);
  for (int i = 0; i < count; ++i) {
    seed.records.push_back(source.next());
    writer.write(seed.records.back());
  }
  writer.close();
  seed.bytes = read_file(seed.path);
  return seed;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  // One to three mutations of `seed`; `other` is a splice donor.
  Bytes mutate(const Bytes& seed, const Bytes& other, std::string& what) {
    Bytes bytes = seed;
    const int count = 1 + static_cast<int>(below(3));
    for (int m = 0; m < count && !bytes.empty(); ++m) {
      switch (below(6)) {
        case 0: flip_bits(bytes, what); break;
        case 1: truncate(bytes, what); break;
        case 2: splice(bytes, below(2) == 0 ? seed : other, what); break;
        case 3: inflate_header(bytes, what); break;
        case 4: inflate_index(bytes, what); break;
        default: edit_payload(bytes, what); break;
      }
    }
    return bytes;
  }

  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : rng_() % n; }

 private:
  // A hostile replacement for a `width`-byte field holding `old`.
  std::uint64_t inflated(std::uint64_t old, std::size_t width) {
    const std::uint64_t max =
        width == 8 ? ~0ULL : (1ULL << (8 * width)) - 1;
    const std::uint64_t picks[] = {0,           1,       old + 1,
                                   old - 1,     old * 2, old + 1 + below(64),
                                   max,         max / 2, 1ULL << (8 * width - 1),
                                   rng_()};
    return picks[below(std::size(picks))] & max;
  }

  void flip_bits(Bytes& bytes, std::string& what) {
    const int flips = 1 + static_cast<int>(below(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = below(bytes.size());
      bytes[at] ^= static_cast<std::uint8_t>(1u << below(8));
      what += " flip@" + std::to_string(at);
    }
  }

  void truncate(Bytes& bytes, std::string& what) {
    bytes.resize(below(bytes.size()));
    what += " truncate@" + std::to_string(bytes.size());
  }

  // Copies a range of `donor` over, or into, a random position.
  void splice(Bytes& bytes, const Bytes& donor, std::string& what) {
    const std::size_t from = below(donor.size());
    const std::size_t length = 1 + below(std::min<std::size_t>(
                                       256, donor.size() - from));
    const std::size_t to = below(bytes.size());
    if (below(2) == 0) {
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(to),
                   donor.begin() + static_cast<std::ptrdiff_t>(from),
                   donor.begin() + static_cast<std::ptrdiff_t>(from + length));
      what += " insert";
    } else {
      for (std::size_t k = 0; k < length && to + k < bytes.size(); ++k) {
        bytes[to + k] = donor[from + k];
      }
      what += " overwrite";
    }
    what += '[';
    what += std::to_string(from);
    what += '+';
    what += std::to_string(length);
    what += "]@";
    what += std::to_string(to);
  }

  // Record count, chunk_records, chunk count or index offset.
  void inflate_header(Bytes& bytes, std::string& what) {
    struct Field {
      std::size_t at;
      std::size_t width;
    };
    const Field fields[] = {{8, 8}, {16, 4}, {20, 4}, {24, 8}};
    const Field field = fields[below(std::size(fields))];
    if (bytes.size() < field.at + field.width) return;
    const std::uint64_t old = get_le(bytes, field.at, field.width);
    const std::uint64_t value = inflated(old, field.width);
    put_le(bytes, field.at, field.width, value);
    what += " header@" + std::to_string(field.at) + "=" + std::to_string(value);
    // Grow the last chunk's index count along with the record count, so the
    // header can stay consistent and the decoder meets an impossible count.
    if (field.at == 8 && below(2) == 0) {
      const std::size_t entry = last_index_entry(bytes);
      if (entry != 0) {
        put_le(bytes, entry + 24, 4,
               get_le(bytes, entry + 24, 4) + (value - old));
        what += " +last-chunk-count";
      }
    }
  }

  // Offset, length, checksum, record count or encoding of one chunk entry.
  void inflate_index(Bytes& bytes, std::string& what) {
    const std::size_t entry = random_index_entry(bytes);
    if (entry == 0) return;
    struct Field {
      std::size_t at;
      std::size_t width;
    };
    const Field fields[] = {{0, 8}, {8, 8}, {16, 8}, {24, 4}, {28, 4}};
    const Field field = fields[below(std::size(fields))];
    const std::uint64_t value =
        inflated(get_le(bytes, entry + field.at, field.width), field.width);
    put_le(bytes, entry + field.at, field.width, value);
    what += " index@" + std::to_string(entry + field.at) + "=" +
            std::to_string(value);
  }

  // Rewrites bytes inside one chunk and recomputes its checksum, so the
  // reader's checks pass and the decoder sees the edit.
  void edit_payload(Bytes& bytes, std::string& what) {
    const std::size_t entry = random_index_entry(bytes);
    if (entry == 0) return;
    const std::uint64_t offset = get_le(bytes, entry, 8);
    const std::uint64_t length = get_le(bytes, entry + 8, 8);
    if (length == 0 || offset > bytes.size() ||
        length > bytes.size() - offset) {
      return;
    }
    const int edits = 1 + static_cast<int>(below(4));
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = static_cast<std::size_t>(offset + below(length));
      bytes[at] = below(2) == 0 ? static_cast<std::uint8_t>(rng_())
                                : static_cast<std::uint8_t>(bytes[at] ^ 0x80);
      what += " payload@" + std::to_string(at);
    }
    put_le(bytes, entry + 16, 8,
           fnv1a64(bytes.data() + offset, static_cast<std::size_t>(length)));
  }

  // Byte position of a chunk index entry, or 0 when the header does not
  // locate one inside `bytes`.
  std::size_t index_entry(const Bytes& bytes, std::uint64_t chunk) {
    if (bytes.size() < kV2HeaderBytes) return 0;
    const std::uint64_t index = get_le(bytes, 24, 8);
    const std::uint64_t chunks = get_le(bytes, 20, 4);
    if (chunk >= chunks || index < kV2HeaderBytes || index > bytes.size() ||
        (chunk + 1) * kV2IndexEntryBytes > bytes.size() - index) {
      return 0;
    }
    return static_cast<std::size_t>(index + chunk * kV2IndexEntryBytes);
  }
  std::size_t random_index_entry(const Bytes& bytes) {
    if (bytes.size() < kV2HeaderBytes) return 0;
    return index_entry(bytes, below(get_le(bytes, 20, 4)));
  }
  std::size_t last_index_entry(const Bytes& bytes) {
    if (bytes.size() < kV2HeaderBytes) return 0;
    const std::uint64_t chunks = get_le(bytes, 20, 4);
    return chunks == 0 ? 0 : index_entry(bytes, chunks - 1);
  }

  std::mt19937_64 rng_;
};

struct Outcome {
  bool rejected = false;
  std::string error;
};

// Reads every record of `path` from the start, then a stretch from a
// reader opened at `first_record`; fails the test on any record the
// pipeline could not execute or any exception but std::runtime_error.
Outcome replay(const std::string& path, std::uint64_t first_record,
               const std::string& what) {
  Outcome outcome;
  try {
    StreamingTraceSource reader(path);
    const std::uint64_t records = std::min(reader.size(), kMaxRecordsRead);
    for (std::uint64_t n = 0; n < records; ++n) {
      const Instruction i = reader.next();
      if (!executable(i)) {
        ADD_FAILURE() << "record " << n << " escaped the checks:" << what;
        return outcome;
      }
    }
    StreamingTraceSource shard(path, first_record);
    for (int n = 0; n < 300; ++n) {
      if (!executable(shard.next())) {
        ADD_FAILURE() << "shard record " << n << " escaped the checks:"
                      << what;
        return outcome;
      }
    }
  } catch (const std::runtime_error& error) {
    outcome.rejected = true;
    outcome.error = error.what();
  } catch (const std::exception& error) {
    ADD_FAILURE() << "non-runtime_error exception '" << error.what()
                  << "':" << what;
  }
  return outcome;
}

TEST(TraceV2Fuzz, MutantsThrowOrYieldExecutableRecords) {
  const Seed seeds[] = {
      record_seed("fuzz_seed_delta.icrt", App::kGcc, 700, 128, true),
      record_seed("fuzz_seed_raw.icrt", App::kVortex, 160, 48, false),
  };
  std::vector<std::unique_ptr<StreamingTraceSource>> pristine;
  for (const Seed& seed : seeds) {
    ASSERT_EQ(validate_trace(seed.path).records, seed.records.size());
    pristine.push_back(std::make_unique<StreamingTraceSource>(seed.path));
    pristine.back()->next();
  }

  Mutator mutator(0x1C27F022ULL);
  int accepted = 0;
  int rejected = 0;
  int decoder_rejections = 0;
  for (int n = 0; n < kMutants; ++n) {
    const std::size_t s = static_cast<std::size_t>(n % 2);
    std::string what;
    const Bytes mutant =
        mutator.mutate(seeds[s].bytes, seeds[1 - s].bytes, what);
    const std::string path = temp_path("fuzz_mutant_" + std::to_string(n) +
                                       ".icrt");
    write_file(path, mutant);
    const Outcome outcome =
        replay(path, mutator.below(4 * seeds[s].records.size()),
               " mutant " + std::to_string(n) + what);
    std::remove(path.c_str());
    if (!outcome.rejected) {
      ++accepted;
    } else {
      ++rejected;
      EXPECT_TRUE(outcome.error.starts_with("ICRT-v2: ") ||
                  outcome.error.starts_with("StreamingTraceSource: "))
          << outcome.error;
      for (const char* decoder_error :
           {"out of range", "varint", "trailing bytes", "cannot hold",
            "length does not match", "truncated store", "truncated delta"}) {
        if (outcome.error.find(decoder_error) != std::string::npos) {
          ++decoder_rejections;
          break;
        }
      }
    }
  }
  // The driver must reach both outcomes and the decoders themselves.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(decoder_rejections, 0);

  // The pristine readers, whose chunks shared the registry with every
  // mutant, still replay their seeds.
  for (std::size_t s = 0; s < std::size(seeds); ++s) {
    StreamingTraceSource& reader = *pristine[s];
    const std::vector<Instruction>& records = seeds[s].records;
    for (std::size_t k = 1; k <= records.size(); ++k) {
      const Instruction got = reader.next();
      const Instruction& want = records[k % records.size()];
      ASSERT_EQ(got.pc, want.pc) << "seed " << s << " record " << k;
      ASSERT_EQ(got.mem_addr, want.mem_addr);
      ASSERT_EQ(got.store_value, want.store_value);
      ASSERT_EQ(got.op, want.op);
    }
  }
  for (const Seed& seed : seeds) std::remove(seed.path.c_str());
}

}  // namespace
}  // namespace icr::trace
