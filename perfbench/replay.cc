// Component replay for the traced run.
//
// Live spans stop at the endpoint boundary, so the layers inside it are timed
// by replaying the workload's own payloads through each component directly,
// the way the latency harness does (src/perf/latency_harness.cc):
//
//   bypass   RoutePair::TryDown on a sender stack, TryUp on a receiver stack
//   marshal  ProtocolStack::Down, then GenericMarshal / GenericUnmarshal of
//            every wire event it emits, then ProtocolStack::Up
//   trans    Transport::PackSend of every wire message, Transport::Unpack of
//            every packed datagram
//
// The stacks use the default 10-layer composition and frag_max, with the
// flow-control windows and stability gossip moved out of the replay's
// horizon (there is no return traffic to refill them), so each message takes
// the route it takes live: 64 B casts hit the bypass, bulk casts miss it.
// Each pass is timed over batches, so clock reads do not dominate.

#include <algorithm>
#include <memory>

#include "perfbench/bench.h"
#include "src/bypass/compiler.h"
#include "src/marshal/generic_codec.h"
#include "src/perf/timer.h"
#include "src/stack/engine.h"
#include "src/trans/transport.h"
#include "src/util/logging.h"

namespace perfbench {

namespace {

using ensemble::EndpointId;
using ensemble::Event;
using ensemble::NowNanos;

constexpr size_t kBatch = 256;

struct StackEnds {
  std::unique_ptr<ensemble::ProtocolStack> tx;
  std::unique_ptr<ensemble::ProtocolStack> rx;
  std::unique_ptr<ensemble::RoutePair> tx_route;
  std::unique_ptr<ensemble::RoutePair> rx_route;
  std::vector<Event> tx_out;
  uint64_t delivered = 0;
};

std::unique_ptr<StackEnds> MakeEnds(bool routes) {
  ensemble::LayerParams params;
  params.local_loopback = false;
  params.mflow_window = 1u << 30;
  params.pt2pt_window = 1u << 30;
  params.stable_interval = 1u << 30;
  auto e = std::make_unique<StackEnds>();
  StackEnds* p = e.get();
  auto ids = ensemble::TenLayerStack();
  e->tx = ensemble::BuildStack(ensemble::EngineKind::kFunctional, ids, params, EndpointId{1});
  e->rx = ensemble::BuildStack(ensemble::EngineKind::kFunctional, ids, params, EndpointId{2});
  e->tx->set_dn_out([p](Event ev) { p->tx_out.push_back(std::move(ev)); });
  e->tx->set_up_out([](Event) {});
  e->rx->set_dn_out([](Event) {});
  e->rx->set_up_out([p](Event ev) {
    if (ev.type == ensemble::EventType::kDeliverCast) {
      p->delivered++;
    }
  });
  auto view = std::make_shared<ensemble::View>();
  view->vid = ensemble::ViewId{0, 1};
  view->members = {EndpointId{1}, EndpointId{2}};
  e->tx->Init(view);
  e->rx->Init(view);
  if (routes) {
    std::string error;
    e->tx_route = ensemble::CompileRoutePair(e->tx.get(), /*cast=*/true, &error);
    ENS_CHECK_MSG(e->tx_route != nullptr, error);
    e->rx_route = ensemble::CompileRoutePair(e->rx.get(), /*cast=*/true, &error);
    ENS_CHECK_MSG(e->rx_route != nullptr, error);
  }
  return e;
}

double PerCall(uint64_t ns, uint64_t calls) {
  return calls == 0 ? 0 : static_cast<double>(ns) / static_cast<double>(calls);
}

}  // namespace

ReplayResult Replay(const BodyPool& pool, const std::vector<uint32_t>& sizes, uint64_t messages) {
  auto bypass = MakeEnds(true);
  auto stack = MakeEnds(false);
  PayloadWriter writer(&pool);

  std::vector<ensemble::Iovec> packed_out;
  ensemble::Transport packer;
  packer.EnablePacking([&packed_out](const ensemble::Transport::PackDest&,
                                     const ensemble::Iovec& wire) { packed_out.push_back(wire); });
  ensemble::Transport unpacker;

  uint64_t trydown_ns = 0, tryup_ns = 0, encode_ns = 0, decode_ns = 0, pack_ns = 0,
           unpack_ns = 0;
  uint64_t trydown_calls = 0, tryup_calls = 0, marshal_calls = 0, pack_msgs = 0,
           unpack_msgs = 0;
  uint64_t bypass_delivered = 0;
  uint64_t casts = 0;

  for (uint64_t done = 0; done < messages;) {
    size_t n = static_cast<size_t>(std::min<uint64_t>(kBatch, messages - done));
    std::vector<ensemble::Iovec> payloads;
    for (size_t i = 0; i < n; i++) {
      PayloadInfo info;
      info.length = sizes[(done + i) % sizes.size()];
      info.seq = done + i;
      payloads.push_back(writer.Make(info));
    }
    done += n;
    casts += n;

    // bypass: TryDown every message; TryUp the ones it compressed.
    std::vector<Event> evs;
    for (const auto& p : payloads) {
      evs.push_back(Event::Cast(p));
    }
    std::vector<ensemble::Iovec> wires(n);
    std::vector<char> hit(n);
    uint64_t t = NowNanos();
    for (size_t i = 0; i < n; i++) {
      hit[i] = bypass->tx_route->TryDown(evs[i], &wires[i], nullptr);
    }
    trydown_ns += NowNanos() - t;
    trydown_calls += n;
    std::vector<ensemble::Bytes> compressed;
    std::vector<ensemble::Iovec> to_pack;
    for (size_t i = 0; i < n; i++) {
      if (hit[i]) {
        compressed.push_back(wires[i].Flatten());
        to_pack.push_back(wires[i]);
      }
    }
    t = NowNanos();
    for (const auto& d : compressed) {
      Event out;
      if (bypass->rx_route->TryUp(d, 6, 0, &out) == ensemble::RoutePair::UpResult::kDelivered) {
        bypass_delivered++;
      }
    }
    tryup_ns += NowNanos() - t;
    tryup_calls += compressed.size();

    // stack + marshal: the normal path for every message.
    stack->tx_out.clear();
    for (const auto& p : payloads) {
      stack->tx->Down(Event::Cast(p));
    }
    std::vector<ensemble::Iovec> generic(stack->tx_out.size());
    t = NowNanos();
    for (size_t i = 0; i < generic.size(); i++) {
      generic[i] = ensemble::GenericMarshal(stack->tx_out[i], 0);
    }
    encode_ns += NowNanos() - t;
    std::vector<ensemble::Bytes> flat;
    for (const auto& g : generic) {
      flat.push_back(g.Flatten());
    }
    // Messages the bypass refused go out as the stack's generic wires.
    if (std::find(hit.begin(), hit.end(), 0) != hit.end()) {
      to_pack.insert(to_pack.end(), generic.begin(), generic.end());
    }
    std::vector<Event> ups(flat.size());
    t = NowNanos();
    for (size_t i = 0; i < flat.size(); i++) {
      ENS_CHECK(ensemble::GenericUnmarshal(flat[i], &ups[i]));
    }
    decode_ns += NowNanos() - t;
    marshal_calls += flat.size();
    for (Event& ev : ups) {
      stack->rx->Up(std::move(ev));
    }

    // trans: pack the wire messages this workload sends, then unpack.
    packed_out.clear();
    t = NowNanos();
    for (const auto& w : to_pack) {
      packer.PackSend(EndpointId{2}, w);
    }
    packer.FlushPacked();
    pack_ns += NowNanos() - t;
    pack_msgs += to_pack.size();
    std::vector<ensemble::Bytes> datagrams;
    for (const auto& d : packed_out) {
      datagrams.push_back(d.Flatten());
    }
    std::vector<ensemble::Bytes> subs;
    t = NowNanos();
    for (const auto& d : datagrams) {
      if (ensemble::Transport::IsPacked(d)) {
        ENS_CHECK(unpacker.Unpack(d, &subs));
      } else {
        subs.push_back(d);
      }
    }
    unpack_ns += NowNanos() - t;
    unpack_msgs += subs.size();
    ENS_CHECK(subs.size() == to_pack.size());
  }
  ENS_CHECK_MSG(stack->delivered == casts, "replay: stack path lost messages");

  ReplayResult r;
  r.trydown_ns = PerCall(trydown_ns, trydown_calls);
  r.trydown_calls = trydown_calls;
  r.tryup_ns = PerCall(tryup_ns, tryup_calls);
  r.tryup_calls = tryup_calls;
  ENS_CHECK_MSG(bypass_delivered == tryup_calls, "replay: bypass up path refused a message");
  r.encode_ns = PerCall(encode_ns, marshal_calls);
  r.decode_ns = PerCall(decode_ns, marshal_calls);
  r.marshal_calls = marshal_calls;
  r.pack_ns = PerCall(pack_ns, pack_msgs);
  r.unpack_ns = PerCall(unpack_ns, unpack_msgs);
  r.pack_msgs = pack_msgs;
  return r;
}

}  // namespace perfbench
