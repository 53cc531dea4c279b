// perfbench — the repository benchmark's binary.
//
//   perfbench --workload <rtt|stream|bulk|runtime|groups> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>] [--part <i>]
//   perfbench --selftest
//
// Runs one workload closed-loop over the host's UDP loopback, checks every
// delivery, writes an artifact file (run header plus every metric with its
// unit and sample count) under --out-dir, and prints one JSON result line
// last on stdout.  Untraced runs report the end-to-end metrics; traced runs
// report the per-layer metrics and write their spans.  Exit code 0 only when
// the run completed and its output is well formed; a run whose deliveries
// failed still exits 0 and reports "correct": false.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/bench.h"
#include "perfbench/report.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <rtt|stream|bulk|runtime|groups> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--part <i>]\n"
               "       perfbench --selftest\n");
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    if (a == "--selftest") {
      return RunSelfTests();
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* v = argv[++i];
    uint64_t n = 0;
    if (a == "--workload") {
      if (!ParseWorkload(v, &opt.workload)) {
        return Usage();
      }
      have_workload = true;
    } else if (a == "--seed") {
      if (!ParseU64(v, &opt.seed)) {
        return Usage();
      }
    } else if (a == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(opt.seconds >= 1) || opt.seconds > 60) {
        return Usage();
      }
    } else if (a == "--trace") {
      if (!ParseU64(v, &n) || n > 1) {
        return Usage();
      }
      opt.trace = n == 1;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--part") {
      if (!ParseU64(v, &n) || n > 99) {
        return Usage();
      }
      opt.part = static_cast<int>(n);
    } else {
      return Usage();
    }
  }
  if (!have_workload) {
    return Usage();
  }

  RunReport report = opt.workload == Workload::kRuntime || opt.workload == Workload::kGroups
                         ? RunRuntime(opt)
                         : RunPair(opt);
  if (report.attempted == 0 || report.metrics.empty()) {
    std::fprintf(stderr, "perfbench: the run produced no result\n");
    return 1;
  }
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
  }
  std::string artifact;
  if (!WriteArtifact(opt, report, &artifact)) {
    return 1;
  }
  for (const auto& [k, v] : report.facts) {
    std::fprintf(stderr, "perfbench: %s = %s\n", k.c_str(), v.c_str());
  }
  std::fprintf(stderr, "perfbench: wrote %s\n", artifact.c_str());
  std::printf("%s\n", ResultLine(report).c_str());
  return 0;
}
