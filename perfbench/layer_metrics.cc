#include "perfbench/layer_metrics.h"

#include <cstdio>

namespace perfbench {

namespace {

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

}  // namespace

void CounterProbe::Register(const std::function<void(ensemble::obs::MetricsRegistry&)>& fill) {
  reg_ = std::make_unique<ensemble::obs::MetricsRegistry>();
  fill(*reg_);
  ensemble::obs::MetricsRegistry* reg = reg_.get();
  snap_ = [reg]() { return reg->Snapshot(); };
}

void AddSpanTotals(const SpanRecorder& rec, LayerInputs* in) {
  for (size_t i = 0; i < kSpanNames; i++) {
    const SpanRecorder::Totals& t = rec.totals(static_cast<SpanName>(i));
    in->spans[i].count += t.count;
    in->spans[i].total_ns += t.total_ns;
    in->spans[i].self_ns += t.self_ns;
  }
}

void AddLayerMetrics(const LayerInputs& in, RunReport* report) {
  const ensemble::obs::MetricsSnapshot& c = in.counters;
  auto add = [report](const char* name, double value, const char* unit, uint64_t samples,
                      const char* note) {
    std::string n = samples == 0 ? std::string("not exercised by this workload; ") + note
                                 : std::string(note);
    report->metrics.push_back(Metric{name, value, unit, samples, n});
  };
  auto span = [&in](SpanName n) -> const SpanRecorder::Totals& {
    return in.spans[static_cast<size_t>(n)];
  };
  const double casts = static_cast<double>(in.casts);
  auto per_cast = [&](uint64_t v) { return Ratio(static_cast<double>(v), casts); };

  // bypass
  uint64_t bd = c.Value("ep.bypass_down");
  uint64_t bm = c.Value("ep.bypass_down_miss");
  add("bypass.down_hit_ratio", Ratio(bd, bd + bm), "ratio", bd + bm,
      "Cast/Send calls that took the compiled bypass");
  uint64_t bu = c.Value("ep.bypass_up");
  uint64_t peer_deliveries = c.Value("ep.delivered") - in.self_deliveries;
  add("bypass.up_hit_ratio", Ratio(bu, peer_deliveries), "ratio", peer_deliveries,
      "peer deliveries made by the bypass up path");
  add("bypass.down_ns", Ratio(in.down.bypass_ns, in.down.bypass_n), "ns", in.down.bypass_n,
      "self time of Cast()/Send() calls that took the bypass");
  add("bypass.up_ns", Ratio(in.up.bypass_ns, in.up.bypass_msgs), "ns", in.up.bypass_msgs,
      "receive self time per message the bypass delivered");
  add("bypass.trydown_ns", in.replay.trydown_ns, "ns", in.replay.trydown_calls,
      "replay: RoutePair::TryDown per call (a CCP miss returns early)");
  add("bypass.tryup_ns", in.replay.tryup_ns, "ns", in.replay.tryup_calls,
      "replay: RoutePair::TryUp per compressed message");
  add("bypass.rule_steps_per_cast", per_cast(c.Value("dispatch.bypass_rule_steps")), "count",
      in.casts, "bypass CCP and update steps, both ends, per cast issued");

  // stack
  add("stack.down_ns", Ratio(in.down.stack_ns, in.down.stack_n), "ns", in.down.stack_n,
      "self time of Cast()/Send() calls that missed the bypass");
  add("stack.up_ns", Ratio(in.up.stack_ns, in.up.stack_msgs), "ns", in.up.stack_msgs,
      "receive self time per message the normal stack handled");
  add("stack.layer_invocations_per_cast", per_cast(c.Value("dispatch.layer_invocations")),
      "count", in.casts, "layer handler calls, both ends, per cast issued");

  // marshal
  add("marshal.encode_ns", in.replay.encode_ns, "ns", in.replay.marshal_calls,
      "replay: GenericMarshal per message");
  add("marshal.decode_ns", in.replay.decode_ns, "ns", in.replay.marshal_calls,
      "replay: GenericUnmarshal per message");

  // trans
  add("trans.flush_ns", Ratio(span(SpanName::kFlush).self_ns, span(SpanName::kFlush).count),
      "ns", span(SpanName::kFlush).count,
      "self time of GroupEndpoint::Flush() outside the network");
  add("trans.pack_ns", in.replay.pack_ns, "ns", in.replay.pack_msgs,
      "replay: Transport::PackSend per message, flushes included");
  add("trans.unpack_ns", in.replay.unpack_ns, "ns", in.replay.pack_msgs,
      "replay: Transport::Unpack per sub-message");
  uint64_t sent = c.Value("net.sent");
  uint64_t packed = c.Value("net.packed_datagrams");
  uint64_t submsgs = c.Value("net.packed_submsgs");
  add("trans.msgs_per_datagram", Ratio(static_cast<double>(submsgs + (sent - packed)), sent),
      "count", sent, "wire messages per datagram sent");

  // net
  uint64_t net_self = span(SpanName::kNetSend).self_ns + span(SpanName::kNetBroadcast).self_ns +
                      span(SpanName::kNetFlush).self_ns;
  add("net.send_ns", Ratio(net_self, in.shim ? sent : 0), "ns", in.shim ? sent : 0,
      "self time in the network's Send/Broadcast/Flush per datagram sent");
  add("net.poll_ns", Ratio(span(SpanName::kPoll).self_ns, span(SpanName::kPoll).count), "ns",
      span(SpanName::kPoll).count, "self time of UdpNetwork::Poll() outside deliveries");
  uint64_t syscalls =
      c.Value("net.send_syscalls") + c.Value("net.recv_syscalls") + c.Value("net.uring_enters");
  add("net.syscalls_per_msg", per_cast(syscalls), "count", in.casts,
      "send/recv syscalls and io_uring enters per cast issued");
  add("net.empty_poll_ratio", Ratio(in.empty_polls, in.polls), "ratio", in.polls,
      "Poll() calls that found nothing");
  add("net.datagrams_per_cast", per_cast(sent), "count", in.casts,
      "datagrams sent, all destinations and protocol traffic, per cast");

  // util
  add("util.heap_allocs_per_cast", per_cast(c.Value("heap.allocations")), "count", in.casts,
      "heap buffer allocations per cast issued");
  add("util.heap_bytes_copied_per_cast", per_cast(c.Value("heap.bytes_copied")), "B", in.casts,
      "payload bytes copied by Bytes::Copy/Flatten per cast issued");
  add("util.pool_allocs_per_cast", per_cast(c.Value("pool.allocations")), "count", in.casts,
      "receive-pool chunk allocations per cast issued");

  // runtime
  const RuntimeInputs& rt = in.runtime;
  uint64_t rt_n = rt.present ? in.casts : 0;
  add("runtime.busy_ratio", rt.busy_ratio, "ratio", rt_n,
      "worker loop time not spent idle, over all workers");
  add("runtime.events_per_loop", rt.events_per_loop, "count", rt_n,
      "events processed per worker loop iteration");
  add("runtime.ring_msgs_per_cast", rt.ring_msgs_per_cast, "count", rt_n,
      "cross-shard ring messages per cast issued");
  add("runtime.credit_parks", static_cast<double>(rt.credit_parks), "count", rt_n,
      "senders parked for ring credits during the traced phase");
  add("runtime.post_to_run_us", rt.post_to_run_us, "us", rt.post_samples,
      "median delay from PostToMember to the task starting");

  // app / obs
  add("app.cast_call_ns", Ratio(span(SpanName::kCast).total_ns, span(SpanName::kCast).count),
      "ns", span(SpanName::kCast).count, "duration of a Cast() call");
  add("app.first_delivery_us", in.first_delivery_us, "us", 1,
      "set-up of the measured world: first Cast() to the first peer delivery");
  add("app.deliver_cb_ns",
      Ratio(span(SpanName::kDeliverCb).total_ns, span(SpanName::kDeliverCb).count), "ns",
      span(SpanName::kDeliverCb).count,
      "duration of the benchmark's deliver callback (checking included)");
  add("obs.trace_overhead_ratio", Ratio(in.traced_cps, in.untraced_cps), "ratio", 2,
      "traced casts_per_s over untraced casts_per_s in this run");
}

void AddViolationFacts(const Tracker::Violations& v, RunReport* report) {
  auto fact = [report](const char* k, uint64_t n) {
    report->facts.emplace_back(k, std::to_string(n));
  };
  fact("violations.foreign", v.foreign);
  fact("violations.duplicate", v.duplicate);
  fact("violations.reordered", v.reordered);
  fact("violations.corrupt", v.corrupt);
  fact("violations.answers_bad", v.answers_bad);
  fact("violations.stalled", v.stalled);
}

void SetFailedRatio(RunReport* report) {
  report->metrics.push_back(
      Metric{"app.failed_ratio",
             Ratio(static_cast<double>(report->failed), static_cast<double>(report->attempted)),
             "ratio", report->attempted,
             "casts that some peer did not deliver exactly once, intact, in order"});
}

std::string SpanFileName(const Options& opt) {
  char name[256];
  std::snprintf(name, sizeof(name), "%s/%s_seed%llu_spans.json", opt.out_dir.c_str(),
                WorkloadName(opt.workload), static_cast<unsigned long long>(opt.seed));
  return name;
}

}  // namespace perfbench
