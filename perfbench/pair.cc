// The two-member workloads: rtt, stream and bulk.
//
// Rank 0 and rank 1 live in one process on one thread, each a MACH
// GroupEndpoint with the default 10-layer stack, talking over one UdpNetwork
// (kernel loopback) through the benchmark's ShimNetwork.  The thread casts
// from rank 0 up to the workload's in-flight window, flushes, and polls the
// network; rank 1's deliveries close the loop.
//
//   rtt     64 B casts, one in flight; rank 1 answers each with a pt2pt Send
//           and rank 0 casts again when the answer arrives.
//   stream  64 B casts, 64 in flight: per-message protocol cost dominates.
//   bulk    seeded 2-16 KiB casts, 16 in flight: every cast exceeds
//           frag_max, so the bypass never applies.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "perfbench/bench.h"
#include "perfbench/layer_metrics.h"
#include "perfbench/shim.h"
#include "perfbench/spans.h"
#include "src/app/endpoint.h"
#include "src/layers/mnak.h"
#include "src/net/udp.h"
#include "src/obs/stats_adapters.h"
#include "src/perf/timer.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

using ensemble::EndpointId;
using ensemble::Event;
using ensemble::GroupEndpoint;
using ensemble::NowNanos;

struct PairSpec {
  size_t window = 1;
  bool answer = false;
  uint64_t warmup_casts = 0;
  std::vector<uint32_t> sizes;  // Cast sizes, cycled.
};

PairSpec SpecFor(Workload w, uint64_t seed) {
  PairSpec s;
  switch (w) {
    case Workload::kRtt:
      s.window = 1;
      s.answer = true;
      s.warmup_casts = 20000;
      s.sizes = {64};
      break;
    case Workload::kStream:
      s.window = 64;
      s.warmup_casts = 100000;
      s.sizes = {64};
      break;
    default: {
      s.window = 16;
      s.warmup_casts = 5000;
      ensemble::Rng rng(seed ^ 0xB01Cu);
      for (int i = 0; i < 4096; i++) {
        s.sizes.push_back(static_cast<uint32_t>(rng.Range(2048, 16384)));
      }
      break;
    }
  }
  return s;
}

class PairWorld {
 public:
  PairWorld(Workload wl, const PairSpec& spec, const BodyPool& pool)
      : wl_(wl), spec_(spec), shim_(&udp_), w0_(&pool), w1_(&pool) {
    udp_.set_backend_config(ensemble::NetBackendConfig::Auto());
    ensemble::EndpointConfig cfg;
    cfg.mode = ensemble::StackMode::kMachine;
    cfg.pack_messages = true;
    a_ = std::make_unique<GroupEndpoint>(EndpointId{1}, &shim_, cfg);
    b_ = std::make_unique<GroupEndpoint>(EndpointId{2}, &shim_, cfg);
    shim_.Watch(EndpointId{1}, &a_->stats());
    shim_.Watch(EndpointId{2}, &b_->stats());
    a_->OnDeliver([this](const Event& ev) { OnDeliverAt(0, ev); });
    b_->OnDeliver([this](const Event& ev) { OnDeliverAt(1, ev); });
    auto view = std::make_shared<ensemble::View>();
    view->vid = ensemble::ViewId{0, 1};
    view->members = {EndpointId{1}, EndpointId{2}};
    a_->Start(view);
    b_->Start(view);
  }

  bool ok() const { return udp_.ok(); }
  Tracker& tracker() { return tracker_; }
  ensemble::UdpNetwork& udp() { return udp_; }
  ShimNetwork& shim() { return shim_; }
  GroupEndpoint& a() { return *a_; }
  GroupEndpoint& b() { return *b_; }

  void set_spans(SpanRecorder* spans) {
    spans_ = spans;
    shim_.set_spans(spans);
  }

  // Casts from rank 0 while the window has room, then flushes.
  void Issue() {
    bool cast = false;
    if (spec_.answer) {
      if (answers_got_ == next_seq_) {
        CastOne();
        cast = true;
      }
    } else {
      while (tracker_.outstanding_of(0) < spec_.window) {
        CastOne();
        cast = true;
      }
    }
    if (cast) {
      Flush();
    }
  }

  void CastOne() {
    PayloadInfo info;
    info.workload = static_cast<uint8_t>(wl_);
    info.origin = 0;
    info.length = spec_.sizes[size_idx_++ % spec_.sizes.size()];
    info.seq = next_seq_++;
    info.stamp_ns = NowNanos();
    ensemble::Iovec p = w0_.Make(info);
    tracker_.OnCast(0, info.seq);
    if (spans_ == nullptr) {
      a_->Cast(std::move(p));
      return;
    }
    uint64_t bypass0 = a_->stats().bypass_down.value();
    spans_->Begin(SpanName::kCast, CastId(0, info.seq));
    a_->Cast(std::move(p));
    down_.Add(spans_->End(), a_->stats().bypass_down.value() != bypass0);
  }

  void Flush() {
    if (spans_ == nullptr) {
      a_->Flush();
      return;
    }
    spans_->Begin(SpanName::kFlush);
    a_->Flush();
    spans_->End();
  }

  void Poll() {
    size_t n;
    if (spans_ == nullptr) {
      n = udp_.Poll();
    } else {
      spans_->Begin(SpanName::kPoll);
      n = udp_.Poll();
      spans_->End();
    }
    polls_++;
    empty_polls_ += n == 0 ? 1 : 0;
  }

  // Valid deliveries so far, answers included (the stall detector's signal).
  uint64_t progress() const { return tracker_.progress() + answers_got_; }
  bool idle() const {
    return tracker_.outstanding() == 0 && (!spec_.answer || answers_got_ == next_seq_);
  }
  uint64_t casts() const { return next_seq_; }
  uint64_t polls() const { return polls_; }
  uint64_t empty_polls() const { return empty_polls_; }
  const DownSplit& down_split() const { return down_; }

 private:
  void OnDeliverAt(int rank, const Event& ev) {
    if (spans_ != nullptr) {
      spans_->Begin(SpanName::kDeliverCb);
    }
    PayloadInfo info;
    bool ok = tracker_.OnDeliver(rank, ev.payload, NowNanos(), &info);
    if (ok && spans_ != nullptr) {
      spans_->Annotate(CastId(info.origin, info.seq));
    }
    if (ok && rank == 1 && spec_.answer && info.kind == PayloadKind::kCast) {
      Answer();
    }
    if (ok && rank == 0 && info.kind == PayloadKind::kAnswer) {
      answers_got_++;
    }
    if (spans_ != nullptr) {
      spans_->End();
    }
  }

  void Answer() {
    PayloadInfo info;
    info.workload = static_cast<uint8_t>(wl_);
    info.kind = PayloadKind::kAnswer;
    info.origin = 1;
    info.length = 64;
    info.seq = answers_sent_++;
    info.stamp_ns = NowNanos();
    ensemble::Iovec p = w1_.Make(info);
    if (spans_ == nullptr) {
      b_->Send(0, std::move(p));
      return;
    }
    uint64_t bypass0 = b_->stats().bypass_down.value();
    spans_->Begin(SpanName::kSend);
    b_->Send(0, std::move(p));
    down_.Add(spans_->End(), b_->stats().bypass_down.value() != bypass0);
  }

  Workload wl_;
  PairSpec spec_;
  // Declared before the endpoints, which detach from it on destruction.
  ensemble::UdpNetwork udp_;
  ShimNetwork shim_;
  Tracker tracker_{{0, 0}};
  PayloadWriter w0_;
  PayloadWriter w1_;
  std::unique_ptr<GroupEndpoint> a_;
  std::unique_ptr<GroupEndpoint> b_;
  SpanRecorder* spans_ = nullptr;
  uint64_t next_seq_ = 0;
  uint64_t answers_sent_ = 0;
  uint64_t answers_got_ = 0;
  size_t size_idx_ = 0;
  uint64_t polls_ = 0;
  uint64_t empty_polls_ = 0;
  DownSplit down_;
};

// Runs the closed loop for `dur_ns`, adding a window to `out` every
// kWindowSeconds.  Without `out` (the warm-up) it stops as soon as `casts`
// casts have been issued.  False when the run wedged.
bool RunPhase(PairWorld& w, uint64_t dur_ns, uint64_t casts, PhaseStats* out) {
  const uint64_t win_ns = static_cast<uint64_t>(kWindowSeconds * 1e9);
  uint64_t start = NowNanos();
  uint64_t end = start + dur_ns;
  uint64_t win_start = start;
  uint64_t last_progress = w.progress();
  uint64_t last_progress_ns = start;
  w.tracker().TakeWindow();  // Nothing before the phase counts.
  for (;;) {
    uint64_t now = NowNanos();
    if (now >= end || (out == nullptr && w.casts() >= casts)) {
      break;
    }
    w.Issue();
    w.Poll();
    if (out != nullptr && now - win_start >= win_ns) {
      out->Add(w.tracker().TakeWindow(), static_cast<double>(now - win_start) / 1e9);
      win_start = now;
    }
    uint64_t p = w.progress();
    if (p != last_progress) {
      last_progress = p;
      last_progress_ns = now;
    } else if (now - last_progress_ns > kStallNs) {
      std::fprintf(stderr, "perfbench: stall: no delivery for %.1f s with casts outstanding\n",
                   static_cast<double>(kStallNs) / 1e9);
      return false;
    }
  }
  return true;
}

// Stops issuing and polls until every cast and answer arrived.  False on a
// stall or when the drain deadline passes.
bool Drain(PairWorld& w) {
  uint64_t start = NowNanos();
  uint64_t last_progress = w.progress();
  uint64_t last_progress_ns = start;
  while (!w.idle()) {
    w.Poll();
    uint64_t now = NowNanos();
    uint64_t p = w.progress();
    if (p != last_progress) {
      last_progress = p;
      last_progress_ns = now;
    }
    if (now - last_progress_ns > kStallNs || now - start > kDrainNs) {
      std::fprintf(stderr, "perfbench: stall: %llu casts outstanding at the drain deadline\n",
                   static_cast<unsigned long long>(w.tracker().outstanding()));
      return false;
    }
  }
  return true;
}

// Builds a world and times its construction: sockets, io_uring ring, both
// stacks and their bypass routes, view installation.  Then it opens the
// traffic and waits for the first peer delivery, which `first_s` gets from
// the first Cast() on.  Null on failure.
std::unique_ptr<PairWorld> SetUp(Workload wl, const PairSpec& spec, const BodyPool& pool,
                                 double* seconds, double* first_s, bool* stalled) {
  uint64_t t0 = NowNanos();
  auto w = std::make_unique<PairWorld>(wl, spec, pool);
  if (!w->ok()) {
    std::fprintf(stderr, "perfbench: UDP sockets unavailable\n");
    return nullptr;
  }
  uint64_t t1 = NowNanos();
  *seconds = static_cast<double>(t1 - t0) / 1e9;
  w->Issue();
  while (w->tracker().progress() == 0) {
    w->Poll();
    if (NowNanos() - t1 > kStallNs) {
      std::fprintf(stderr, "perfbench: stall: no cast delivered within %.1f s of opening\n",
                   static_cast<double>(kStallNs) / 1e9);
      *stalled = true;
      break;
    }
  }
  *first_s = static_cast<double>(NowNanos() - t1) / 1e9;
  return w;
}

// Times the set-ups after the measured one, up to kSetupReps in all.  Each
// world runs until its first delivery, drains, and is torn down; its casts
// count toward the report's attempted and failed.  They run after the
// measurement so that what they leave on the heap does not count toward
// peak_rss_mb.  False when a set-up failed or stalled.
bool TimeMoreSetUps(Workload wl, const PairSpec& spec, const BodyPool& pool,
                    std::vector<double>* setup_s, std::vector<double>* first_s,
                    RunReport* report) {
  while (setup_s->size() < static_cast<size_t>(kSetupReps)) {
    bool stalled = false;
    double s = 0;
    double first = 0;
    std::unique_ptr<PairWorld> w = SetUp(wl, spec, pool, &s, &first, &stalled);
    if (w == nullptr) {
      return false;
    }
    setup_s->push_back(s);
    first_s->push_back(first);
    bool drained = !stalled && Drain(*w);
    if (!drained) {
      w->tracker().FailOutstanding();
    }
    report->attempted += w->tracker().attempted();
    report->failed += w->tracker().failed();
    if (!drained) {
      return false;
    }
  }
  return true;
}

}  // namespace

RunReport RunPair(const Options& opt) {
  RunReport report;
  PairSpec spec = SpecFor(opt.workload, opt.seed);
  uint32_t max_size = *std::max_element(spec.sizes.begin(), spec.sizes.end());
  BodyPool pool(opt.seed, max_size);

  // The measured world is the first set-up; the other set-ups follow the
  // measurement (see TimeMoreSetUps).
  std::vector<double> setup_s(1);
  std::vector<double> first_s(1);
  bool stalled = false;
  std::unique_ptr<PairWorld> world =
      SetUp(opt.workload, spec, pool, &setup_s[0], &first_s[0], &stalled);
  if (world == nullptr) {
    report.facts.emplace_back("error", "set-up failed");
    return report;
  }
  report.facts.emplace_back(
      "backend", ensemble::NetBackendName(world->udp().active_backend()));

  const auto total_ns = static_cast<uint64_t>(opt.seconds * 1e9);
  // A fixed number of casts warms the path up; memory is read right after
  // it, so peak_rss_mb covers the same work on every run.
  bool ok = !stalled && RunPhase(*world, kWarmupCapNs, spec.warmup_casts, nullptr);
  double rss_mb = PeakRssMb();
  PhaseStats untraced;
  if (!opt.trace) {
    ok = ok && RunPhase(*world, total_ns, 0, &untraced);
  } else {
    // Half untraced (the overhead baseline), half traced with counter
    // snapshots around it.
    ok = ok && RunPhase(*world, total_ns / 2, 0, &untraced);
    LayerInputs in;
    CounterProbe probe;
    probe.Register([&](ensemble::obs::MetricsRegistry& r) {
      ensemble::obs::RegisterGlobalStats(r);
      ensemble::obs::RegisterEndpointStats(r, &world->a().stats());
      ensemble::obs::RegisterEndpointStats(r, &world->b().stats());
      ensemble::obs::RegisterNetworkStats(r, &world->udp().stats());
      ensemble::obs::RegisterPoolStats(r, &world->udp().recv_pool());
    });
    SpanRecorder spans(kKeepSpans);
    PhaseStats traced;
    if (ok) {
      uint64_t casts0 = world->casts();
      uint64_t own0 = world->tracker().own_deliveries();
      uint64_t polls0 = world->polls();
      uint64_t empty0 = world->empty_polls();
      probe.Begin();
      world->set_spans(&spans);
      ok = RunPhase(*world, total_ns - total_ns / 2, 0, &traced);
      world->set_spans(nullptr);
      probe.End();
      in.casts = world->casts() - casts0;
      in.self_deliveries = world->tracker().own_deliveries() - own0;
      in.polls = world->polls() - polls0;
      in.empty_polls = world->empty_polls() - empty0;
    }
    AddSpanTotals(spans, &in);
    in.shim = true;
    in.counters = probe.delta();
    in.down = world->down_split();
    in.up = world->shim().up_split();
    in.traced_cps = traced.casts_per_s();
    in.untraced_cps = untraced.casts_per_s();
    in.replay = Replay(pool, spec.sizes, kReplayMessages);
    in.first_delivery_us = first_s[0] * 1e6;
    AddLayerMetrics(in, &report);
    report.spans_file = SpanFileName(opt);
    if (!WriteSpans(report.spans_file, WorkloadName(opt.workload), spans.kept(),
                    spans.recorded())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", report.spans_file.c_str());
      ok = false;
    }
  }
  bool drained = ok && Drain(*world);
  if (!drained) {
    world->tracker().FailOutstanding();
  }
  Tracker& t = world->tracker();
  // Retransmission buffers at the end of the run: a member that only
  // receives keeps every control cast it sends here (see README.md).
  for (int rank = 0; rank < 2; rank++) {
    GroupEndpoint& ep = rank == 0 ? world->a() : world->b();
    auto* mnak = static_cast<ensemble::MnakLayer*>(ep.stack()->FindLayer(ensemble::LayerId::kMnak));
    report.facts.emplace_back("mnak.retrans_buffer.rank" + std::to_string(rank),
                              std::to_string(mnak->retrans_buffer_size()));
  }
  Tracker::Violations v = t.violations();
  report.attempted = t.attempted();
  report.failed = t.failed();
  AddViolationFacts(v, &report);
  world.reset();
  bool more = opt.trace || TimeMoreSetUps(opt.workload, spec, pool, &setup_s, &first_s, &report);
  report.correct = drained && more && report.failed == 0;
  if (!opt.trace) {
    AddFirstDeliveryFact(first_s, &report);
    AddEndToEnd(untraced, setup_s, rss_mb, &report);
  } else {
    SetFailedRatio(&report);
  }
  return report;
}

}  // namespace perfbench
