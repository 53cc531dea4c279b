// Self-tests of the benchmark's own code: the percentile rule, the delivery
// checker, span self time, and the Network shim.  run.py runs them once
// after every build; `perfbench --selftest` runs them by hand.

#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>

#include "perfbench/bench.h"
#include "perfbench/shim.h"
#include "perfbench/spans.h"
#include "perfbench/stats.h"

namespace perfbench {

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    g_failures++;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

void TestPercentileRule() {
  Expect(SupportedTail(10000) == 99.9, "10000 samples support p99.9");
  Expect(SupportedTail(9999) == 99.0, "9999 samples leave 9 beyond p99.9");
  Expect(SupportedTail(1000) == 99.0, "1000 samples support p99");
  Expect(SupportedTail(999) == 95.0, "999 samples leave 9 beyond p99");
  Expect(SupportedTail(20) == 50.0, "20 samples support only the median");
  Expect(SupportedTail(19) == 0.0, "19 samples support no percentile");
  Expect(SamplesBeyond(1000, 99) == 10, "10 samples beyond p99 of 1000");
  std::vector<uint64_t> v(100);
  std::iota(v.begin(), v.end(), 1);
  Expect(NearestRank(v, 50) == 50, "nearest-rank median of 1..100");
  Expect(NearestRank(v, 99) == 99, "nearest-rank p99 of 1..100");
  Expect(NearestRank(v, 99.9) == 100, "nearest-rank p99.9 of 1..100");
  Expect(Median({3, 1, 2, 10}) == 2.5, "median of an even count");

  // Over windows: the median window's sample count picks the percentile,
  // every window that delivered gives its value at it, and an empty window
  // counts toward the rate but not the latency.
  PhaseStats phase;
  for (uint64_t n : {1000, 1000, 500}) {
    Window w;
    w.completed = n;
    w.latency_ns.resize(n);
    std::iota(w.latency_ns.begin(), w.latency_ns.end(), uint64_t{1000});
    phase.Add(std::move(w), 1.0);
  }
  phase.Add(Window{}, 1.0);
  Expect(phase.tail_pct() == 95.0, "median window of 750 samples supports p95");
  Expect(phase.tail_us() == 1.949, "p95 is the median of 1.949, 1.949 and 1.474 us");
  Expect(phase.p50_us() == 1.499, "p50 skips the empty window");
  Expect(phase.casts_per_s() == 750, "the empty window counts toward the rate");
  Expect(phase.latency_samples() == 2500, "every sample is counted");
}

struct CheckerRig {
  BodyPool pool{7, 256};
  PayloadWriter writer{&pool};
  Tracker tracker{{0, 0, 1, 1}};  // Two groups of two members.
  std::map<uint32_t, uint64_t> next;

  ensemble::Iovec Cast(uint32_t origin, uint16_t group) {
    PayloadInfo info;
    info.group = group;
    info.origin = origin;
    info.length = 100;
    info.seq = next[origin]++;
    info.stamp_ns = 1;
    tracker.OnCast(origin, info.seq);
    return writer.Make(info);
  }
  bool Deliver(int receiver, const ensemble::Iovec& p) {
    PayloadInfo info;
    return tracker.OnDeliver(receiver, p, 2, &info);
  }
};

void TestChecker() {
  {
    CheckerRig r;
    auto p0 = r.Cast(0, 0);
    auto p1 = r.Cast(0, 0);
    Expect(r.Deliver(1, p0) && r.Deliver(1, p1), "in-order deliveries parse");
    Expect(r.Deliver(0, p0), "local loopback parses");
    Expect(r.tracker.failed() == 0 && r.tracker.outstanding() == 0, "clean run has no failures");
    Expect(r.tracker.TakeWindow().completed == 2, "both casts complete");
  }
  {
    CheckerRig r;
    auto p = r.Cast(0, 0);
    r.Deliver(1, p);
    r.Deliver(2, p);  // Member 2 is in group 1.
    Expect(r.tracker.violations().foreign == 1, "foreign delivery flagged");
    Expect(r.tracker.failed() == 1, "foreign delivery fails the cast");
  }
  {
    CheckerRig r;
    auto p = r.Cast(0, 0);
    r.Deliver(1, p);
    r.Deliver(1, p);
    Expect(r.tracker.violations().duplicate == 1, "duplicate delivery flagged");
    Expect(r.tracker.failed() == 1, "duplicate fails an already delivered cast");
  }
  {
    CheckerRig r;
    auto p0 = r.Cast(2, 1);
    auto p1 = r.Cast(2, 1);
    r.Deliver(3, p1);
    r.Deliver(3, p0);
    Expect(r.tracker.violations().reordered >= 1, "reordered delivery flagged");
    Expect(r.tracker.failed() == 1, "the overtaken cast fails, the other succeeds");
  }
  {
    CheckerRig r;
    auto p = r.Cast(0, 0);
    ensemble::Bytes flat = p.Flatten();
    ensemble::Bytes bad = ensemble::Bytes::Allocate(flat.size());
    std::memcpy(bad.MutableData(), flat.data(), flat.size());
    bad.MutableData()[flat.size() - 1] ^= 0x40;  // One body bit.
    Expect(!r.Deliver(1, ensemble::Iovec(bad)), "corrupt payload rejected");
    Expect(r.tracker.violations().corrupt == 1, "corrupt delivery flagged");
    r.tracker.FailOutstanding();
    Expect(r.tracker.failed() == 1, "failures are capped at the casts attempted");
    Expect(r.tracker.violations().stalled == 1, "undelivered cast counted as stalled");
  }
  {
    // A payload split across parts at odd offsets checks the same.
    CheckerRig r;
    auto p = r.Cast(0, 0);
    ensemble::Bytes flat = p.Flatten();
    ensemble::Iovec split;
    split.Append(flat.Slice(0, 13));
    split.Append(flat.Slice(13, 50));
    split.Append(flat.Slice(63));
    Expect(r.Deliver(1, split) && r.tracker.failed() == 0, "fragmented payload verifies");
  }
}

// Scripted clock for the span tests.
uint64_t g_clock_script[64];
size_t g_clock_next = 0;
uint64_t ScriptClock() { return g_clock_script[g_clock_next++]; }

void TestSelfTime() {
  // parent [0,100] with children [10,30] and [50,90]; the second child has a
  // grandchild [60,70].
  const uint64_t times[] = {0, 10, 30, 50, 60, 70, 90, 100};
  std::memcpy(g_clock_script, times, sizeof(times));
  g_clock_next = 0;
  SpanRecorder rec(100, &ScriptClock);
  rec.Begin(SpanName::kPoll);
  rec.Begin(SpanName::kNetDeliver);
  rec.End();
  rec.Begin(SpanName::kNetDeliver);
  rec.Begin(SpanName::kDeliverCb);
  rec.End();
  uint64_t child_self = rec.End();
  uint64_t parent_self = rec.End();
  Expect(parent_self == 100 - 20 - 40, "parent self time = span - children");
  Expect(child_self == 40 - 10, "child self time = span - grandchild");
  Expect(rec.totals(SpanName::kNetDeliver).self_ns == 20 + 30, "totals sum self time");
  Expect(rec.totals(SpanName::kPoll).total_ns == 100, "totals sum duration");
  std::vector<uint64_t> ref = SelfTimes(rec.kept());
  uint64_t sum = 0;
  for (uint64_t s : ref) {
    sum += s;
  }
  Expect(sum == 100, "self times partition the root span");
  for (size_t i = 0; i < rec.kept().size(); i++) {
    if (rec.kept()[i].name == SpanName::kPoll) {
      Expect(ref[i] == parent_self, "recorder agrees with the reference");
    }
  }
  // Overlapping children (several threads' spans under one parent) count
  // their union once.
  std::vector<Span> spans(3);
  spans[0] = Span{1, 0, 0, 100, 0, SpanName::kPoll};
  spans[1] = Span{2, 1, 10, 60, 0, SpanName::kNetDeliver};
  spans[2] = Span{3, 1, 40, 120, 0, SpanName::kNetDeliver};
  ref = SelfTimes(spans);
  Expect(ref[0] == 10, "overlapping children cover their union, clipped to the parent");
}

// Records every call a shim forwards.
class FakeNetwork : public ensemble::Network {
 public:
  mutable std::map<std::string, int> calls;
  DeliverFn deliver;
  void Attach(ensemble::EndpointId, DeliverFn fn) override {
    calls["Attach"]++;
    deliver = std::move(fn);
  }
  void Detach(ensemble::EndpointId) override { calls["Detach"]++; }
  void Send(ensemble::EndpointId, ensemble::EndpointId, const ensemble::Iovec&) override {
    calls["Send"]++;
  }
  void Broadcast(ensemble::EndpointId, const ensemble::Iovec&) override {
    calls["Broadcast"]++;
  }
  void ScheduleTimer(ensemble::VTime, TimerFn fn) override {
    calls["ScheduleTimer"]++;
    fn();
  }
  ensemble::VTime Now() const override {
    calls["Now"]++;
    return 42;
  }
  void Flush() override { calls["Flush"]++; }
  void SetDrainHook(ensemble::EndpointId, std::function<void()> hook) override {
    calls["SetDrainHook"]++;
    hook();
  }
  void SetPressure(int level) override { calls["SetPressure"] += level; }
};

void TestShim() {
  for (bool traced : {false, true}) {
    FakeNetwork fake;
    ShimNetwork shim(&fake);
    SpanRecorder spans(100);
    ensemble::GroupEndpoint::Stats stats;
    shim.Watch(ensemble::EndpointId{1}, &stats);
    if (traced) {
      shim.set_spans(&spans);
    }
    int delivered = 0;
    int timers = 0;
    int hooks = 0;
    shim.Attach(ensemble::EndpointId{1}, [&](const ensemble::Packet&) { delivered++; });
    ensemble::Iovec gather(ensemble::Bytes::CopyString("x"));
    shim.Send(ensemble::EndpointId{1}, ensemble::EndpointId{2}, gather);
    shim.Broadcast(ensemble::EndpointId{1}, gather);
    shim.ScheduleTimer(5, [&] { timers++; });
    Expect(shim.Now() == 42, "Now() forwards the inner clock");
    shim.Flush();
    shim.SetDrainHook(ensemble::EndpointId{1}, [&] { hooks++; });
    shim.SetPressure(2);
    ensemble::Packet packet;
    fake.deliver(packet);
    shim.Detach(ensemble::EndpointId{1});
    for (const char* v : {"Attach", "Detach", "Send", "Broadcast", "ScheduleTimer", "Now",
                          "Flush", "SetDrainHook"}) {
      Expect(fake.calls[v] == 1, v);
    }
    Expect(fake.calls["SetPressure"] == 2, "SetPressure forwards its level");
    Expect(delivered == 1 && timers == 1 && hooks == 1, "callbacks reach their owners");
    Expect(shim.calls(ShimNetwork::kDeliver) == 1, "the wrapped DeliverFn ran once");
    for (int v = 0; v < ShimNetwork::kVirtuals; v++) {
      Expect(shim.calls(static_cast<ShimNetwork::Virtual>(v)) == 1, "every virtual counted");
    }
    if (traced) {
      Expect(spans.totals(SpanName::kNetSend).count == 1 &&
                 spans.totals(SpanName::kNetBroadcast).count == 1 &&
                 spans.totals(SpanName::kNetFlush).count == 1 &&
                 spans.totals(SpanName::kNetDeliver).count == 1,
             "traced shim records a span per network call");
      Expect(shim.up_split().stack_msgs == 1, "an unpacked non-bypass datagram is one stack message");
    }
  }
}

}  // namespace

int RunSelfTests() {
  g_failures = 0;
  TestPercentileRule();
  TestChecker();
  TestSelfTime();
  TestShim();
  if (g_failures == 0) {
    std::fprintf(stderr, "perfbench selftest: all passed\n");
  }
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
