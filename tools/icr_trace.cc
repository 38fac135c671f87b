// icr_trace: record, import, convert, and inspect ICRT trace containers.
//
//   icr_trace record --app=gzip --instructions=50000 --out=t.icrt
//   icr_trace import --log=accesses.txt --out=t.icrt
//   icr_trace convert --in=old.icrt --out=new.icrt [--raw]
//   icr_trace info FILE
//   icr_trace validate FILE
//
// docs/TRACES.md documents the ICRT-v2 container, the import grammar, and
// how the resulting traces feed icr_sim --trace and run_campaign --trace.
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <string>

#include "src/sim/cli.h"
#include "src/trace/qemu_import.h"
#include "src/trace/trace_v2.h"
#include "src/trace/workloads.h"

namespace {

using icr::sim::cli::number_flag;
using icr::sim::cli::parse_flag;
using icr::sim::cli::unknown_flag;

constexpr const char* kProgram = "icr_trace";

void print_usage() {
  std::printf(
      "usage: icr_trace <command> [flags]\n"
      "\n"
      "commands:\n"
      "  record    record a synthetic workload into a trace container\n"
      "            --app=NAME --instructions=N --out=FILE\n"
      "            [--seed=S] [--raw] [--chunk-records=N]\n"
      "  import    translate a QEMU-TCG-plugin-style access log\n"
      "            (insn/load/store lines) into an ICRT-v2 container\n"
      "            --log=FILE --out=FILE [--raw] [--chunk-records=N]\n"
      "  convert   re-encode a trace (chunk size, raw/delta chunks)\n"
      "            --in=FILE --out=FILE [--raw] [--chunk-records=N]\n"
      "  info      print header-level provenance of a trace file\n"
      "            info FILE\n"
      "  validate  full integrity walk: checksums, index, fingerprint\n"
      "            validate FILE\n"
      "\n"
      "Traces are chunked, seekable ICRT-v2 containers. --raw disables\n"
      "delta compression; --chunk-records sets the chunk size\n"
      "(default %u).\n",
      icr::trace::kV2DefaultChunkRecords);
}

void print_info(const icr::trace::TraceInfo& info) {
  std::printf("trace:       %s\n", info.path.c_str());
  std::printf("format:      ICRT-v%u\n", info.version);
  std::printf("records:     %" PRIu64 "\n", info.records);
  std::printf("fingerprint: 0x%016" PRIx64 "\n", info.fingerprint);
  const double per_record =
      info.records == 0 ? 0.0
                        : static_cast<double>(info.file_bytes) /
                              static_cast<double>(info.records);
  std::printf("file bytes:  %" PRIu64 " (%.2f bytes/record)\n",
              info.file_bytes, per_record);
  std::printf("chunks:      %u x %u records (%u raw, %u delta)\n",
              info.chunk_count, info.chunk_records, info.raw_chunks,
              info.delta_chunks);
}

using WriterOptions = icr::trace::TraceV2Writer::Options;

// Returns true when `arg` was one of the flags shared by the writing
// commands (--raw / --chunk-records).
bool parse_common_flag(const char* arg, WriterOptions& options) {
  if (std::string(arg) == "--raw") {
    options.delta = false;
    return true;
  }
  return number_flag(kProgram, arg, "--chunk-records", options.chunk_records);
}

int cmd_record(int argc, char** argv) {
  std::string app_name;
  std::string out;
  std::string value;
  std::uint64_t instructions = 0;
  std::uint64_t seed = 0;
  bool seed_given = false;
  WriterOptions options;
  for (int i = 0; i < argc; ++i) {
    if (parse_flag(argv[i], "--app", value)) {
      app_name = value;
    } else if (parse_flag(argv[i], "--out", value)) {
      out = value;
    } else if (number_flag(kProgram, argv[i], "--seed", seed, /*base=*/0)) {
      seed_given = true;
    } else if (!number_flag(kProgram, argv[i], "--instructions",
                            instructions) &&
               !parse_common_flag(argv[i], options)) {
      unknown_flag(kProgram, argv[i]);
    }
  }
  if (app_name.empty() || out.empty() || instructions == 0) {
    std::fprintf(stderr,
                 "icr_trace record: --app, --instructions and --out are "
                 "required\n");
    return 2;
  }
  icr::trace::WorkloadProfile profile =
      icr::trace::profile_for(icr::sim::cli::app_by_name(app_name));
  if (seed_given) profile.seed = seed;
  icr::trace::SyntheticWorkload workload(profile);
  icr::trace::record_trace_v2(workload, instructions, out, options);
  std::printf("recorded %" PRIu64 " instructions of %s into %s\n",
              instructions, app_name.c_str(), out.c_str());
  print_info(icr::trace::probe_trace(out));
  return 0;
}

int cmd_import(int argc, char** argv) {
  std::string log;
  std::string out;
  std::string value;
  WriterOptions options;
  for (int i = 0; i < argc; ++i) {
    if (parse_flag(argv[i], "--log", value)) {
      log = value;
    } else if (parse_flag(argv[i], "--out", value)) {
      out = value;
    } else if (!parse_common_flag(argv[i], options)) {
      unknown_flag(kProgram, argv[i]);
    }
  }
  if (log.empty() || out.empty()) {
    std::fprintf(stderr, "icr_trace import: --log and --out are required\n");
    return 2;
  }
  const icr::trace::ImportStats stats =
      icr::trace::import_qemu_log(log, out, options);
  std::printf("imported %s: %" PRIu64 " lines -> %" PRIu64
              " records (%" PRIu64 " loads, %" PRIu64 " stores, %" PRIu64
              " branches, %" PRIu64 " lines skipped)\n",
              log.c_str(), stats.lines, stats.records, stats.loads,
              stats.stores, stats.branches, stats.skipped);
  print_info(icr::trace::probe_trace(out));
  return 0;
}

int cmd_convert(int argc, char** argv) {
  std::string in;
  std::string out;
  std::string value;
  WriterOptions options;
  for (int i = 0; i < argc; ++i) {
    if (parse_flag(argv[i], "--in", value)) {
      in = value;
    } else if (parse_flag(argv[i], "--out", value)) {
      out = value;
    } else if (!parse_common_flag(argv[i], options)) {
      unknown_flag(kProgram, argv[i]);
    }
  }
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "icr_trace convert: --in and --out are required\n");
    return 2;
  }
  icr::trace::StreamingTraceSource source(in);
  icr::trace::record_trace_v2(source, source.size(), out, options);
  const icr::trace::TraceInfo converted = icr::trace::probe_trace(out);
  if (converted.fingerprint != source.info().fingerprint) {
    // Raw and delta chunks hash the same canonical record images, so any
    // difference means the re-encoding lost data.
    std::fprintf(stderr,
                 "icr_trace convert: fingerprint changed during conversion "
                 "(0x%016" PRIx64 " -> 0x%016" PRIx64 ") — output is wrong\n",
                 source.info().fingerprint, converted.fingerprint);
    return 1;
  }
  std::printf("converted %s -> %s, fingerprint preserved\n", in.c_str(),
              out.c_str());
  print_info(converted);
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "icr_trace info: expected exactly one FILE\n");
    return 2;
  }
  print_info(icr::trace::probe_trace(argv[0]));
  return 0;
}

int cmd_validate(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "icr_trace validate: expected exactly one FILE\n");
    return 2;
  }
  const icr::trace::TraceInfo info = icr::trace::validate_trace(argv[0]);
  print_info(info);
  std::printf("validate:    OK (every chunk decoded, checksums and "
              "fingerprint verified)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) == "--help" ||
      std::string(argv[1]) == "help") {
    print_usage();
    return argc < 2 ? 2 : 0;
  }
  const std::string command = argv[1];
  try {
    if (command == "record") return cmd_record(argc - 2, argv + 2);
    if (command == "import") return cmd_import(argc - 2, argv + 2);
    if (command == "convert") return cmd_convert(argc - 2, argv + 2);
    if (command == "info") return cmd_info(argc - 2, argv + 2);
    if (command == "validate") return cmd_validate(argc - 2, argv + 2);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "icr_trace %s: %s\n", command.c_str(), error.what());
    return 1;
  }
  std::fprintf(stderr, "icr_trace: unknown command '%s'\n", command.c_str());
  print_usage();
  return 2;
}
