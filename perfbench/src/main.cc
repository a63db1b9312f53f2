// maroon_perfbench: one run of one benchmark workload.
//
//   maroon_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--size full|tiny]
//                    [--inject corrupt-hash|fail-scrape]
//
// Prints a host-fingerprint line, an info line, and as the last line the
// result object {"correct", "attempted", "failed", "metrics"}. Exits 0 when
// every correctness check passed and no operation failed, 1 otherwise, 2 on
// a usage error.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "maroon_perfbench: " << why << "\n"
            << "usage: maroon_perfbench --workload "
               "batch_dblp|batch_recruitment|stream_ingest --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--size full|tiny] "
               "[--inject corrupt-hash|fail-scrape]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return Usage("bad --size");
      args.size = value;
    } else if (flag == "--inject") {
      if (value != "corrupt-hash" && value != "fail-scrape") {
        return Usage("bad --inject " + value);
      }
      args.inject = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return Usage("cannot create " + args.work_dir);

  perfbench::RunResult result;
  if (args.workload == "batch_dblp") {
    perfbench::RunBatchWorkload(args, /*dblp=*/true, &result);
  } else if (args.workload == "batch_recruitment") {
    perfbench::RunBatchWorkload(args, /*dblp=*/false, &result);
  } else if (args.workload == "stream_ingest") {
    perfbench::RunStreamWorkload(args, &result);
  } else {
    return Usage("unknown workload '" + args.workload + "'");
  }
  return result.Emit(args);
}
