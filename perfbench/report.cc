#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "perfbench/bench.h"
#include "perfbench/report.h"
#include "perfbench/stats.h"

namespace perfbench {

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kRtt:
      return "rtt";
    case Workload::kStream:
      return "stream";
    case Workload::kBulk:
      return "bulk";
    case Workload::kRuntime:
      return "runtime";
    case Workload::kGroups:
      return "groups";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kRtt, Workload::kStream, Workload::kBulk, Workload::kRuntime,
                     Workload::kGroups}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

void PhaseStats::Add(Window w, double seconds) {
  Summary s;
  s.cps = static_cast<double>(w.completed) / seconds;
  s.mbps = static_cast<double>(w.delivered_bytes) / seconds / 1e6;
  s.samples = w.latency_ns.size();
  for (size_t i = 0; i < std::size(kPcts) && !w.latency_ns.empty(); i++) {
    s.pct_us[i] = static_cast<double>(NearestRank(w.latency_ns, kPcts[i])) / 1e3;
  }
  latency_samples_ += s.samples;
  windows_.push_back(s);
}

double PhaseStats::casts_per_s() const {
  std::vector<double> v;
  for (const Summary& s : windows_) {
    v.push_back(s.cps);
  }
  return Median(v);
}

double PhaseStats::goodput_mb_s() const {
  std::vector<double> v;
  for (const Summary& s : windows_) {
    v.push_back(s.mbps);
  }
  return Median(v);
}

double PhaseStats::MedianAt(double pct) const {
  size_t i = 0;
  while (i + 1 < std::size(kPcts) && kPcts[i] != pct) {
    i++;
  }
  std::vector<double> v;
  for (const Summary& s : windows_) {
    if (s.samples > 0) {
      v.push_back(s.pct_us[i]);
    }
  }
  return Median(v);
}

double PhaseStats::tail_pct() const {
  std::vector<double> n;
  for (const Summary& s : windows_) {
    n.push_back(static_cast<double>(s.samples));
  }
  return std::min(99.0, SupportedTail(static_cast<size_t>(Median(n))));
}

double PhaseStats::p50_us() const {
  return tail_pct() == 0 ? 0 : MedianAt(50);
}

double PhaseStats::tail_us() const {
  double pct = tail_pct();
  return pct == 0 ? 0 : MedianAt(pct);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void AddEndToEnd(const PhaseStats& phase, const std::vector<double>& setup_s, double rss_mb,
                 RunReport* report) {
  auto add = [report](const char* name, double v, const char* unit, uint64_t n,
                      std::string note) {
    report->metrics.push_back(Metric{name, v, unit, n, std::move(note)});
  };
  std::string over = "over all " + std::to_string(phase.windows()) + " windows";
  add("casts_per_s", phase.casts_per_s(), "1/s", phase.windows(),
      "casts delivered at every peer; median window rate " + over);
  add("goodput_mb_s", phase.goodput_mb_s(), "MB/s", phase.windows(),
      "payload bytes delivered at peers, 1 MB = 1e6 B; median window rate " + over);
  add("latency_p50_us", phase.p50_us(), "us", phase.latency_samples(),
      "Cast() to peer delivery, one sample per peer delivery; median of window medians " +
          over);
  char tail_note[160];
  std::snprintf(tail_note, sizeof(tail_note),
                "p%.1f: the highest percentile with >= 10 samples beyond it in the median "
                "window, capped at p99",
                phase.tail_pct());
  add("latency_p99_us", phase.tail_us(), "us", phase.latency_samples(),
      std::string(tail_note) + "; median of window values " + over);
  add("setup_s", Median(setup_s), "s", setup_s.size(),
      "construction until the world can carry traffic; median of repetitions");
  add("peak_rss_mb", rss_mb, "MB", 1,
      "getrusage ru_maxrss of the benchmark process after set-up and the fixed-count warm-up");
}

void AddFirstDeliveryFact(const std::vector<double>& first_s, RunReport* report) {
  char ms[32];
  std::snprintf(ms, sizeof(ms), "%.3f", Median(first_s) * 1e3);
  report->facts.emplace_back("first_delivery_ms.median", ms);
}

// Written by hand rather than with obs::JsonWriter, which rounds doubles to
// six significant digits: the result line carries every digit measured.
// Names and units are plain identifiers, so no escaping is needed.
std::string ResultLine(const RunReport& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

bool WriteArtifact(const Options& opt, const RunReport& r, std::string* path_out) {
  ensemble::obs::JsonWriter w;
  w.BeginObject();
  ensemble::AppendBenchHeader(w, std::string("perfbench.") + WorkloadName(opt.workload));
  w.Key("run");
  w.BeginObject();
  w.KV("workload", WorkloadName(opt.workload));
  w.KV("seed", opt.seed);
  w.KV("seconds", opt.seconds);
  w.KV("traced", opt.trace);
  if (opt.part >= 0) {
    w.KV("part", static_cast<uint64_t>(opt.part));
  }
  w.KV("link", "host UDP loopback, not a real link");
  w.KV("correct", r.correct);
  w.KV("attempted", r.attempted);
  w.KV("failed", r.failed);
  w.KV("failed_ratio", r.attempted == 0 ? 0.0
                                        : static_cast<double>(r.failed) /
                                              static_cast<double>(r.attempted));
  for (const auto& [k, v] : r.facts) {
    w.KV(k, v);
  }
  if (!r.spans_file.empty()) {
    w.KV("spans_file", r.spans_file);
  }
  w.EndObject();
  w.Key("metrics");
  w.BeginArray();
  for (const Metric& m : r.metrics) {
    w.BeginObject();
    w.KV("name", m.name);
    w.KV("value", m.value);
    w.KV("unit", m.unit);
    w.KV("samples", m.samples);
    if (!m.note.empty()) {
      w.KV("note", m.note);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::string json = w.Take();
  std::string error;
  if (!ensemble::obs::ValidateJson(json, &error)) {
    std::fprintf(stderr, "perfbench: invalid artifact JSON: %s\n", error.c_str());
    return false;
  }
  char name[256];
  std::string part = opt.part < 0 ? "" : "_part" + std::to_string(opt.part);
  std::snprintf(name, sizeof(name), "%s/%s_seed%llu_trace%d%s.json", opt.out_dir.c_str(),
                WorkloadName(opt.workload), static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0, part.c_str());
  FILE* f = std::fopen(name, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", name);
    return false;
  }
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  ok = std::fclose(f) == 0 && ok;
  *path_out = name;
  return ok;
}

}  // namespace perfbench
