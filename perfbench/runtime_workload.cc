// The ShardRuntime workloads: runtime and groups.
//
// Both run a ShardRuntime with 3 UDP workers plus the main thread, which only
// posts the opening casts, sleeps, and reads counters.  Casts are 64 B.
//
//   runtime  one group of 32 members, spread 11/11/10 across the workers.
//            Member 0 keeps 32 casts in flight; each cast is answered by one
//            peer (the seq-th of the other 31, in turn) with a pt2pt Send,
//            and member 0 casts again, on its own worker, when an answer
//            arrives.  All refill traffic is the library's own: the casts fan
//            out to 31 endpoints on three shard loops and the answers come
//            back through them.
//   groups   8 groups of 4 members (32 endpoints; whole groups placed 3/3/2
//            across the workers) in a ring echo: every member opens with 8
//            casts and casts again whenever it delivers a cast from its ring
//            predecessor (rank r - 1 of its group).  Runs into a known
//            defect: ShardRuntime::Start gives every group the same ViewId,
//            UdpNetwork::Broadcast reaches every endpoint, and
//            GroupEndpoint::InjectDatagram does not check the sender against
//            its view, so members deliver other groups' casts and the
//            total-order layer wedges.  The checker counts every such
//            delivery, so this workload reports failures until the library
//            is fixed; it is run by hand and is not part of BENCHMARK.json.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/layer_metrics.h"
#include "perfbench/spans.h"
#include "perfbench/stats.h"
#include "src/perf/timer.h"
#include "src/runtime/runtime.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

using ensemble::Event;
using ensemble::GroupEndpoint;
using ensemble::NowNanos;

constexpr uint32_t kCastBytes = 64;
// The traced phase posts a no-op task to a member this often, to sample the
// PostToMember-to-run delay.
constexpr uint64_t kProbeEveryNs = 2'000'000;

struct RuntimeSpec {
  int workers = 3;
  int members = 32;
  int group_size = 32;
  // Ring echo (every member casts) or one caster whose casts are answered.
  bool ring_echo = false;
  int opening_casts = 32;  // Per caster.
  uint64_t warmup_casts = 2000;
  // Set-ups timed per process: fewer than the pair workloads' kSetupReps,
  // because tearing down 32 endpoints takes about 0.1 s.
  int setup_reps = 11;
};

RuntimeSpec SpecFor(Workload w) {
  if (w == Workload::kGroups) {
    return RuntimeSpec{3, 32, 4, true, 8, 2000, 11};
  }
  return RuntimeSpec{};
}

class RuntimeWorld {
 public:
  RuntimeWorld(Workload wl, const RuntimeSpec& spec, const BodyPool& pool, uint64_t seed)
      : wl_(wl), spec_(spec), tracker_(GroupOf(spec)) {
    for (int m = 0; m < spec.members; m++) {
      members_.push_back(std::make_unique<Member>(&pool));
      int g = m / spec.group_size;
      int r = m % spec.group_size;
      members_.back()->group = g;
      members_.back()->pred = g * spec.group_size + (r + spec.group_size - 1) % spec.group_size;
    }
    ensemble::ShardRuntimeConfig cfg;
    cfg.backend = ensemble::ShardBackend::kUdp;
    cfg.num_workers = spec.workers;
    cfg.ep.mode = ensemble::StackMode::kMachine;
    cfg.ep.pack_messages = true;
    cfg.net = ensemble::NetBackendConfig::Auto();
    cfg.on_deliver = [this](int member, const Event& ev) { OnDeliver(member, ev); };
    rt_ = std::make_unique<ensemble::ShardRuntime>(cfg);
    ok_ = rt_->Build(spec.members, spec.group_size);
    if (!ok_) {
      return;
    }
    // Endpoint pointers are taken here, before Start(); after it each one is
    // touched only from the worker that owns it (no stealing is configured).
    for (int m = 0; m < spec.members; m++) {
      members_[static_cast<size_t>(m)]->ep = &rt_->member(m);
    }
    for (int m = 0; m < spec.members; m++) {
      order_.push_back(m);
    }
    ensemble::Rng rng(seed ^ 0x6E0Fu);
    for (size_t i = order_.size(); i > 1; i--) {
      std::swap(order_[i - 1], order_[rng.Below(i)]);
    }
    rt_->Start();
  }

  bool ok() const { return ok_; }
  Tracker& tracker() { return tracker_; }
  ensemble::ShardRuntime& rt() { return *rt_; }

  // Posts a no-op task to one member on each worker and waits until every
  // one has run: then each worker has entered its loop and the runtime can
  // carry traffic.  False when a worker did not run its task by `deadline`.
  bool AwaitWorkers(uint64_t deadline) {
    auto ran = std::make_shared<std::atomic<int>>(0);
    for (int s = 0; s < spec_.workers; s++) {
      for (int m = 0; m < spec_.members; m++) {
        if (rt_->HomeOf(m) == s) {
          rt_->PostToMember(m, [ran](GroupEndpoint&) { ran->fetch_add(1); });
          break;
        }
      }
    }
    while (ran->load() < spec_.workers) {
      if (NowNanos() > deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
  }

  // Posts the casters' opening casts, in the seeded start order.  The first
  // cast is flushed on its own, so the first delivery waits for one cast's
  // fan-out rather than the whole opening burst's.
  void Open() {
    for (int m : order_) {
      if (!spec_.ring_echo && m != 0) {
        continue;
      }
      rt_->PostToMember(m, [this, m](GroupEndpoint& ep) {
        for (int i = 0; i < spec_.opening_casts; i++) {
          CastFrom(m);
          if (i == 0) {
            ep.Flush();
          }
        }
        ep.Flush();
      });
    }
  }

  // Posts a no-op task and records the delay until it starts running.
  void Probe(int member) {
    uint64_t posted = NowNanos();
    rt_->PostToMember(member, [this, posted](GroupEndpoint&) {
      uint64_t d = NowNanos() - posted;
      std::lock_guard<std::mutex> lock(probe_mu_);
      probe_ns_.push_back(d);
    });
  }
  std::vector<uint64_t> TakeProbes() {
    std::lock_guard<std::mutex> lock(probe_mu_);
    return std::move(probe_ns_);
  }

  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  void set_stopping() { stopping_.store(true, std::memory_order_relaxed); }
  uint64_t casts() const { return casts_.load(std::memory_order_relaxed); }
  // Every cast issued has been delivered by all its peers.
  bool idle() const { return tracker_.outstanding() == 0; }
  uint64_t self_deliveries() const { return tracker_.own_deliveries(); }
  int members() const { return spec_.members; }

  // After Stop(): per-member span state, merged.
  void CollectSpans(LayerInputs* in, std::vector<Span>* kept, uint64_t* recorded) const {
    for (size_t m = 0; m < members_.size(); m++) {
      const Member& me = *members_[m];
      AddSpanTotals(me.spans, in);
      in->down.Merge(me.down);
      *recorded += me.spans.recorded();
      // Span ids are per member; give each member its own id range.
      uint64_t base = static_cast<uint64_t>(m) << 40;
      for (Span s : me.spans.kept()) {
        s.id += base;
        s.parent = s.parent == 0 ? 0 : s.parent + base;
        kept->push_back(s);
      }
    }
  }

  // Stops every worker; the world may be read freely afterwards.
  void Stop() { rt_->Stop(); }

 private:
  // Per-member state, touched only on the member's owning worker.
  struct Member {
    explicit Member(const BodyPool* pool) : writer(pool) {}
    GroupEndpoint* ep = nullptr;
    int group = 0;
    int pred = 0;
    uint64_t next_seq = 0;
    uint64_t answers_sent = 0;
    PayloadWriter writer;
    SpanRecorder spans{kKeepSpans / 8};
    DownSplit down;
  };

  static std::vector<int> GroupOf(const RuntimeSpec& spec) {
    std::vector<int> g;
    for (int m = 0; m < spec.members; m++) {
      g.push_back(m / spec.group_size);
    }
    return g;
  }

  void CastFrom(int m) {
    Member& me = *members_[static_cast<size_t>(m)];
    PayloadInfo info;
    info.workload = static_cast<uint8_t>(wl_);
    info.group = static_cast<uint16_t>(me.group);
    info.origin = static_cast<uint32_t>(m);
    info.length = kCastBytes;
    info.seq = me.next_seq++;
    info.stamp_ns = NowNanos();
    ensemble::Iovec p = me.writer.Make(info);
    tracker_.OnCast(info.origin, info.seq);
    casts_.fetch_add(1, std::memory_order_relaxed);
    if (!tracing_.load(std::memory_order_relaxed)) {
      me.ep->Cast(std::move(p));
      return;
    }
    uint64_t bypass0 = me.ep->stats().bypass_down.value();
    me.spans.Begin(SpanName::kCast, CastId(info.origin, info.seq));
    me.ep->Cast(std::move(p));
    me.down.Add(me.spans.End(), me.ep->stats().bypass_down.value() != bypass0);
  }

  // Member m answers the cast it was chosen for with a pt2pt Send to
  // member 0 (rank 0 of the one group).
  void AnswerFrom(int m) {
    Member& me = *members_[static_cast<size_t>(m)];
    PayloadInfo info;
    info.workload = static_cast<uint8_t>(wl_);
    info.kind = PayloadKind::kAnswer;
    info.group = static_cast<uint16_t>(me.group);
    info.origin = static_cast<uint32_t>(m);
    info.length = kCastBytes;
    info.seq = me.answers_sent++;
    info.stamp_ns = NowNanos();
    ensemble::Iovec p = me.writer.Make(info);
    if (!tracing_.load(std::memory_order_relaxed)) {
      me.ep->Send(0, std::move(p));
      return;
    }
    uint64_t bypass0 = me.ep->stats().bypass_down.value();
    me.spans.Begin(SpanName::kSend);
    me.ep->Send(0, std::move(p));
    me.down.Add(me.spans.End(), me.ep->stats().bypass_down.value() != bypass0);
  }

  // The peer that answers cast `seq` of member 0: each of the others in turn.
  int AnswererOf(uint64_t seq) const {
    return 1 + static_cast<int>(seq % static_cast<uint64_t>(spec_.members - 1));
  }

  void OnDeliver(int m, const Event& ev) {
    Member& me = *members_[static_cast<size_t>(m)];
    bool traced = tracing_.load(std::memory_order_relaxed);
    if (traced) {
      me.spans.Begin(SpanName::kDeliverCb);
    }
    PayloadInfo info;
    bool ok = tracker_.OnDeliver(m, ev.payload, NowNanos(), &info);
    if (ok && traced) {
      me.spans.Annotate(CastId(info.origin, info.seq));
    }
    bool more = ok && !stopping_.load(std::memory_order_relaxed);
    bool peer_cast = info.kind == PayloadKind::kCast && info.origin != static_cast<uint32_t>(m);
    if (more && peer_cast && spec_.ring_echo && info.origin == static_cast<uint32_t>(me.pred)) {
      CastFrom(m);
    }
    if (more && peer_cast && !spec_.ring_echo && AnswererOf(info.seq) == m) {
      AnswerFrom(m);
    }
    if (more && info.kind == PayloadKind::kAnswer) {
      CastFrom(m);
    }
    if (traced) {
      me.spans.End();
    }
  }

  Workload wl_;
  RuntimeSpec spec_;
  Tracker tracker_;
  std::vector<std::unique_ptr<Member>> members_;
  std::vector<int> order_;
  std::atomic<bool> tracing_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> casts_{0};
  std::mutex probe_mu_;
  std::vector<uint64_t> probe_ns_;
  bool ok_ = false;
  // Last: destroyed first, joining the workers before the state they use.
  std::unique_ptr<ensemble::ShardRuntime> rt_;
};

// Sleeps in 1 ms steps for `dur_ns`, closing a window into `out` every
// kWindowSeconds and watching progress.  Without `out` (the warm-up) it
// returns as soon as `casts` casts have been issued.  `probe` samples the
// PostToMember delay every kProbeEveryNs.  False when the run wedged.
bool RunPhase(RuntimeWorld& w, uint64_t dur_ns, uint64_t casts, PhaseStats* out, bool probe) {
  const uint64_t win_ns = static_cast<uint64_t>(kWindowSeconds * 1e9);
  uint64_t start = NowNanos();
  uint64_t end = start + dur_ns;
  uint64_t win_start = start;
  uint64_t last_progress = w.tracker().progress();
  uint64_t last_progress_ns = start;
  uint64_t next_probe = start;
  int probe_member = 0;
  w.tracker().TakeWindow();  // Nothing before the phase counts.
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    uint64_t now = NowNanos();
    if (now >= end || (out == nullptr && w.casts() >= casts)) {
      break;
    }
    if (probe && now >= next_probe) {
      w.Probe(probe_member);
      probe_member = (probe_member + 1) % w.members();
      next_probe = now + kProbeEveryNs;
    }
    if (out != nullptr && now - win_start >= win_ns) {
      out->Add(w.tracker().TakeWindow(), static_cast<double>(now - win_start) / 1e9);
      win_start = now;
    }
    uint64_t p = w.tracker().progress();
    if (p != last_progress) {
      last_progress = p;
      last_progress_ns = now;
    } else if (now - last_progress_ns > kStallNs) {
      std::fprintf(stderr,
                   "perfbench: stall: no valid delivery for %.1f s with %llu casts outstanding\n",
                   static_cast<double>(kStallNs) / 1e9,
                   static_cast<unsigned long long>(w.tracker().outstanding()));
      return false;
    }
  }
  return true;
}

// Stops the ring echo and waits for every cast in flight.  False on a stall.
bool Drain(RuntimeWorld& w) {
  w.set_stopping();
  uint64_t start = NowNanos();
  uint64_t last_progress = w.tracker().progress();
  uint64_t last_progress_ns = start;
  while (!w.idle()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    uint64_t now = NowNanos();
    uint64_t p = w.tracker().progress();
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

// Builds a world and times it from construction until every worker has run
// a posted task: the runtime is up and can carry traffic.  Then it opens the
// traffic and waits for the first peer delivery, which `first_s` gets from
// the opening cast on.  That part is not in the set-up time: it takes either
// about 0.4 ms or 10-120 ms (see perfbench/README.md, "Known defects"), so a
// median over it moves with the host's load.  Null on failure.
std::unique_ptr<RuntimeWorld> SetUp(Workload wl, const RuntimeSpec& spec, const BodyPool& pool,
                                    uint64_t seed, double* seconds, double* first_s,
                                    bool* stalled) {
  uint64_t t0 = NowNanos();
  auto w = std::make_unique<RuntimeWorld>(wl, spec, pool, seed);
  if (!w->ok()) {
    std::fprintf(stderr, "perfbench: ShardRuntime::Build failed (no sockets)\n");
    return nullptr;
  }
  bool ready = w->AwaitWorkers(t0 + kStallNs);
  uint64_t t1 = NowNanos();
  *seconds = static_cast<double>(t1 - t0) / 1e9;
  if (!ready) {
    std::fprintf(stderr, "perfbench: stall: a worker did not start within %.1f s of set-up\n",
                 static_cast<double>(kStallNs) / 1e9);
    *stalled = true;
    return w;
  }
  w->Open();
  while (w->tracker().progress() == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
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

// Times the set-ups after the measured one, up to spec.setup_reps in all.  Each
// world runs until its first delivery, drains, and is stopped; its casts
// count toward the report's attempted and failed.  They run after the
// measurement so that what they leave on the heap does not count toward
// peak_rss_mb.  False when a set-up failed or stalled.
bool TimeMoreSetUps(Workload wl, const RuntimeSpec& spec, const BodyPool& pool, uint64_t seed,
                    std::vector<double>* setup_s, std::vector<double>* first_s,
                    RunReport* report) {
  while (setup_s->size() < static_cast<size_t>(spec.setup_reps)) {
    bool stalled = false;
    double s = 0;
    double first = 0;
    std::unique_ptr<RuntimeWorld> w = SetUp(wl, spec, pool, seed, &s, &first, &stalled);
    if (w == nullptr) {
      return false;
    }
    setup_s->push_back(s);
    first_s->push_back(first);
    bool drained = !stalled && Drain(*w);
    if (!drained) {
      w->tracker().FailOutstanding();
    }
    w->Stop();
    report->attempted += w->tracker().attempted();
    report->failed += w->tracker().failed();
    if (!drained) {
      return false;
    }
  }
  return true;
}

}  // namespace

RunReport RunRuntime(const Options& opt) {
  RunReport report;
  RuntimeSpec spec = SpecFor(opt.workload);
  BodyPool pool(opt.seed, kCastBytes);

  // The measured world is the first set-up; the other set-ups follow the
  // measurement (see TimeMoreSetUps).
  std::vector<double> setup_s(1);
  std::vector<double> first_s(1);
  bool stalled = false;
  std::unique_ptr<RuntimeWorld> world =
      SetUp(opt.workload, spec, pool, opt.seed, &setup_s[0], &first_s[0], &stalled);
  if (world == nullptr) {
    report.facts.emplace_back("error", "set-up failed");
    return report;
  }

  const auto total_ns = static_cast<uint64_t>(opt.seconds * 1e9);
  bool ok = !stalled && RunPhase(*world, kWarmupCapNs, spec.warmup_casts, nullptr, false);
  double rss_mb = PeakRssMb();
  PhaseStats untraced;
  PhaseStats traced;
  LayerInputs in;
  CounterProbe probe;
  if (!opt.trace) {
    ok = ok && RunPhase(*world, total_ns, 0, &untraced, false);
  } else {
    ok = ok && RunPhase(*world, total_ns / 2, 0, &untraced, false);
    if (ok) {
      ensemble::ShardRuntime* rt = &world->rt();
      probe.Use([rt]() { return rt->SnapshotMetrics(); });
      uint64_t casts0 = world->casts();
      uint64_t own0 = world->self_deliveries();
      world->TakeProbes();
      probe.Begin();
      uint64_t t0 = NowNanos();
      world->set_tracing(true);
      ok = RunPhase(*world, total_ns - total_ns / 2, 0, &traced, true);
      world->set_tracing(false);
      uint64_t phase_ns = NowNanos() - t0;
      probe.End();
      in.casts = world->casts() - casts0;
      in.self_deliveries = world->self_deliveries() - own0;
      const ensemble::obs::MetricsSnapshot& d = probe.delta();
      in.runtime.present = true;
      in.runtime.busy_ratio = static_cast<double>(d.Value("sched.busy_ns")) /
                              (static_cast<double>(phase_ns) * spec.workers);
      in.runtime.events_per_loop = d.Value("sched.loops") == 0
                                       ? 0
                                       : static_cast<double>(d.Value("sched.events")) /
                                             static_cast<double>(d.Value("sched.loops"));
      in.runtime.ring_msgs_per_cast =
          in.casts == 0 ? 0
                        : static_cast<double>(d.Value("ring.pushed")) /
                              static_cast<double>(in.casts);
      in.runtime.credit_parks = d.Value("sched.credit_parks");
      std::vector<uint64_t> probes = world->TakeProbes();
      in.runtime.post_samples = probes.size();
      in.runtime.post_to_run_us =
          probes.empty() ? 0 : static_cast<double>(NearestRank(probes, 50)) / 1e3;
    }
  }
  bool drained = ok && Drain(*world);
  if (!drained) {
    world->tracker().FailOutstanding();
  }
  world->Stop();

  Tracker& t = world->tracker();
  report.attempted = t.attempted();
  report.failed = t.failed();
  report.correct = drained && report.failed == 0;
  Tracker::Violations v = t.violations();
  AddViolationFacts(v, &report);
  report.facts.emplace_back("deliveries.own_group", std::to_string(t.progress()));
  report.facts.emplace_back(
      "backend", ensemble::NetBackendName(static_cast<ensemble::NetBackend>(
                     world->rt().SnapshotMetrics().Value("net.backend_active"))));
  if (!opt.trace) {
    world.reset();
    bool more = TimeMoreSetUps(opt.workload, spec, pool, opt.seed, &setup_s, &first_s, &report);
    AddFirstDeliveryFact(first_s, &report);
    report.correct = report.correct && more && report.failed == 0;
    AddEndToEnd(untraced, setup_s, rss_mb, &report);
    return report;
  }
  std::vector<Span> kept;
  uint64_t recorded = 0;
  world->CollectSpans(&in, &kept, &recorded);
  in.counters = probe.delta();
  in.traced_cps = traced.casts_per_s();
  in.untraced_cps = untraced.casts_per_s();
  in.replay = Replay(pool, {kCastBytes}, kReplayMessages);
  in.first_delivery_us = first_s[0] * 1e6;
  AddLayerMetrics(in, &report);
  SetFailedRatio(&report);
  report.spans_file = SpanFileName(opt);
  if (!WriteSpans(report.spans_file, WorkloadName(opt.workload), kept, recorded)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", report.spans_file.c_str());
    report.correct = false;
  }
  return report;
}

}  // namespace perfbench
