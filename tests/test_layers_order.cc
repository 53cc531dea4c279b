// Unit tests: ordering & application-side layers (total, collect, local,
// partial_appl, top, fifo_check).

#include <gtest/gtest.h>

#include "src/layers/collect.h"
#include "src/marshal/wire.h"
#include "src/layers/fifo_check.h"
#include "src/layers/local.h"
#include "src/layers/partial_appl.h"
#include "src/layers/total.h"
#include "tests/layer_tester.h"

namespace ensemble {
namespace {

Event TotalData(Rank origin, uint32_t gseq, std::string_view payload) {
  Event ev = Event::DeliverCast(origin, LayerTester::Payload(payload));
  ev.hdrs.Push(LayerId::kTotal, TotalHeader{kTotalData, gseq});
  return ev;
}

// --------------------------------------------------------------------------
// total
// --------------------------------------------------------------------------

TEST(TotalTest, HolderStampsGlobalSequence) {
  LayerTester t(LayerId::kTotal, 2, 0);  // Rank 0 starts with the token.
  for (uint32_t i = 0; i < 3; i++) {
    auto& out = t.Dn(Event::Cast(LayerTester::Payload("m")));
    ASSERT_EQ(out.dn.size(), 1u);
    TotalHeader hdr = out.dn[0].hdrs.Pop<TotalHeader>(LayerId::kTotal);
    EXPECT_EQ(hdr.kind, kTotalData);
    EXPECT_EQ(hdr.gseq, i);
  }
}

TEST(TotalTest, NonHolderQueuesAndRequestsToken) {
  LayerTester t(LayerId::kTotal, 2, 1);  // Rank 1: not the holder.
  auto& out = t.Dn(Event::Cast(LayerTester::Payload("m")));
  EXPECT_TRUE(out.dn.size() == 1u);  // The token request, not the cast.
  EXPECT_EQ(out.dn[0].type, EventType::kSend);
  EXPECT_EQ(out.dn[0].dest, 0);
  TotalHeader hdr = out.dn[0].hdrs.Pop<TotalHeader>(LayerId::kTotal);
  EXPECT_EQ(hdr.kind, kTotalTokenReq);
  EXPECT_EQ(hdr.gseq, 1u);  // Requester rank rides in gseq.
  EXPECT_EQ(t.As<TotalLayer>().PendingCasts(), 1u);
  // Second cast does not re-request.
  auto& out2 = t.Dn(Event::Cast(LayerTester::Payload("m2")));
  EXPECT_TRUE(out2.dn.empty());
}

TEST(TotalTest, HolderPassesTokenToRequester) {
  LayerTester t(LayerId::kTotal, 2, 0);
  t.Dn(Event::Cast(LayerTester::Payload("mine")));  // next_gseq -> 1.
  Event req = Event::DeliverSend(1, Iovec());
  req.hdrs.Push(LayerId::kTotal, TotalHeader{kTotalTokenReq, 1});
  auto& out = t.Up(std::move(req));
  ASSERT_EQ(out.dn.size(), 1u);
  EXPECT_EQ(out.dn[0].dest, 1);
  TotalHeader hdr = out.dn[0].hdrs.Pop<TotalHeader>(LayerId::kTotal);
  EXPECT_EQ(hdr.kind, kTotalTokenPass);
  EXPECT_EQ(hdr.gseq, 1u);  // Next unused global number travels with it.
  EXPECT_EQ(t.As<TotalLayer>().fast().token_holder, 1);
}

TEST(TotalTest, TokenArrivalFlushesPendingInOrder) {
  LayerTester t(LayerId::kTotal, 2, 1);
  t.Dn(Event::Cast(LayerTester::Payload("p0")));
  t.Dn(Event::Cast(LayerTester::Payload("p1")));
  Event pass = Event::DeliverSend(0, Iovec());
  pass.hdrs.Push(LayerId::kTotal, TotalHeader{kTotalTokenPass, 5});
  auto& out = t.Up(std::move(pass));
  ASSERT_EQ(out.dn.size(), 2u);
  TotalHeader h0 = out.dn[0].hdrs.Pop<TotalHeader>(LayerId::kTotal);
  TotalHeader h1 = out.dn[1].hdrs.Pop<TotalHeader>(LayerId::kTotal);
  EXPECT_EQ(h0.gseq, 5u);
  EXPECT_EQ(h1.gseq, 6u);
  EXPECT_EQ(out.dn[0].payload.Flatten().view(), "p0");
}

TEST(TotalTest, DeliversInGlobalOrderWithHoldback) {
  LayerTester t(LayerId::kTotal, 2, 1);
  EXPECT_TRUE(t.Up(TotalData(0, 1, "second")).up.empty());
  EXPECT_TRUE(t.Up(TotalData(0, 2, "third")).up.empty());
  auto& out = t.Up(TotalData(0, 0, "first"));
  ASSERT_EQ(out.up.size(), 3u);
  EXPECT_EQ(out.up[0].payload.Flatten().view(), "first");
  EXPECT_EQ(out.up[2].payload.Flatten().view(), "third");
  EXPECT_TRUE(t.As<TotalLayer>().HoldbackEmpty());
}

TEST(TotalTest, NonHolderForwardsForeignRequests) {
  LayerTester t(LayerId::kTotal, 3, 1);
  // Rank 1 believes rank 0 holds the token; a request from rank 2 arriving
  // here (stale routing) is forwarded to rank 0 with the requester intact.
  Event req = Event::DeliverSend(2, Iovec());
  req.hdrs.Push(LayerId::kTotal, TotalHeader{kTotalTokenReq, 2});
  auto& out = t.Up(std::move(req));
  ASSERT_EQ(out.dn.size(), 1u);
  EXPECT_EQ(out.dn[0].dest, 0);
  TotalHeader hdr = out.dn[0].hdrs.Pop<TotalHeader>(LayerId::kTotal);
  EXPECT_EQ(hdr.kind, kTotalTokenReq);
  EXPECT_EQ(hdr.gseq, 2u);
}

TEST(TotalTest, PassesUpperSendsWithPassHeader) {
  LayerTester t(LayerId::kTotal, 2, 0);
  auto& out = t.Dn(Event::Send(1, LayerTester::Payload("s")));
  ASSERT_EQ(out.dn.size(), 1u);
  TotalHeader hdr = out.dn[0].hdrs.Pop<TotalHeader>(LayerId::kTotal);
  EXPECT_EQ(hdr.kind, kTotalPass);
}

// --------------------------------------------------------------------------
// collect
// --------------------------------------------------------------------------

Event CollectData(Rank origin, uint64_t seq_hint = 0) {
  Event ev = Event::DeliverCast(origin, LayerTester::Payload("d"));
  ev.seq_hint = seq_hint;  // Normally stamped by mnak below.
  ev.hdrs.Push(LayerId::kCollect, CollectHeader{kCollectData});
  return ev;
}

TEST(CollectTest, TracksWatermarkPerSender) {
  LayerParams params;
  params.stable_interval = 100;
  LayerTester t(LayerId::kCollect, 3, 0, params);
  t.Up(CollectData(1, 0));
  t.Up(CollectData(1, 1));
  t.Up(CollectData(2, 0));
  EXPECT_EQ(t.As<CollectLayer>().acks(), (std::vector<uint64_t>{0, 2, 1}));
  // The watermark is monotone (duplicates / reordering below cannot regress it).
  t.Up(CollectData(1, 0));
  EXPECT_EQ(t.As<CollectLayer>().acks()[1], 2u);
}

// A stability message the layer sent down: its kind and decoded vector.
struct CollectMsg {
  Rank dest;
  uint8_t kind;
  std::vector<uint64_t> vec;
};

std::vector<CollectMsg> CollectSends(std::vector<Event> dn) {
  std::vector<CollectMsg> msgs;
  for (Event& ev : dn) {
    if (ev.type != EventType::kSend) {
      continue;
    }
    CollectMsg m{ev.dest, ev.hdrs.Pop<CollectHeader>(LayerId::kCollect).kind, {}};
    WireReader r(ev.payload.Flatten());
    m.vec.resize(r.U16());
    for (uint64_t& v : m.vec) {
      v = r.U64();
    }
    EXPECT_TRUE(r.ok());
    msgs.push_back(std::move(m));
  }
  return msgs;
}

Event CollectVector(Rank origin, CollectKind kind, const std::vector<uint64_t>& vec) {
  WireWriter w;
  w.U16(static_cast<uint16_t>(vec.size()));
  for (uint64_t v : vec) {
    w.U64(v);
  }
  Event ev = Event::DeliverSend(origin, Iovec(w.Take()));
  ev.hdrs.Push(LayerId::kCollect, CollectHeader{kind});
  return ev;
}

const Event* FindStable(const std::vector<Event>& evs) {
  for (const Event& ev : evs) {
    if (ev.type == EventType::kStable) {
      return &ev;
    }
  }
  return nullptr;
}

TEST(CollectTest, GossipsAfterInterval) {
  LayerParams params;
  params.stable_interval = 3;
  LayerTester t(LayerId::kCollect, 2, 1, params);
  EXPECT_TRUE(t.Up(CollectData(0, 0)).dn.empty());
  EXPECT_TRUE(t.Up(CollectData(0, 1)).dn.empty());
  // Deliveries never send: the report waits for the timer.
  EXPECT_TRUE(t.Up(CollectData(0, 2)).dn.empty());
  // The tick after the third delivery, although not quiet, sends one
  // point-to-point report of the ack vector to rank 0.
  std::vector<CollectMsg> msgs = CollectSends(t.Dn(Event::Timer(Millis(1))).dn);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].dest, 0);
  EXPECT_EQ(msgs[0].kind, kCollectReport);
  EXPECT_EQ(msgs[0].vec, (std::vector<uint64_t>{3, 0}));
  EXPECT_EQ(t.As<CollectLayer>().reports_sent(), 1u);
  // One delivery short of the next interval, no report is due.
  t.Up(CollectData(0, 3));
  EXPECT_TRUE(CollectSends(t.Dn(Event::Timer(Millis(2))).dn).empty());
}

TEST(CollectTest, AggregatesMinimumAndEmitsStable) {
  LayerParams params;
  params.stable_interval = 2;
  LayerTester t(LayerId::kCollect, 3, 0, params);  // The coordinator.
  // Rank 1 has 5 of rank 0's casts and 2 of rank 2's; rank 2 has not
  // reported, so its zero row holds rank 0's column down.
  auto& first = t.Up(CollectVector(1, kCollectReport, {5, 0, 2}));
  EXPECT_EQ(FindStable(first.dn), nullptr);
  // Rank 2 has 4 of rank 0's casts and 7 of rank 1's.  A sender's own row
  // never constrains its own column, so rank 0's column is min(5, 4) = 4;
  // rank 1's column is held at 0 by OUR row.  Only the coordinator's own
  // column advanced: no message goes out.
  auto& second = t.Up(CollectVector(2, kCollectReport, {4, 7, 0}));
  const Event* stable = FindStable(second.dn);
  ASSERT_NE(stable, nullptr);
  EXPECT_EQ(stable->vec, (std::vector<uint64_t>{4, 0, 0}));
  ASSERT_NE(FindStable(second.up), nullptr);
  EXPECT_TRUE(CollectSends(second.dn).empty());
  // Our own vector is folded in directly on the tick after the interval:
  // rank 1's column becomes min(2, 7) = 2, and only rank 1 is told.
  t.Up(CollectData(1, 0));
  t.Up(CollectData(1, 1));
  auto& own = t.Dn(Event::Timer(Millis(1)));
  stable = FindStable(own.dn);
  ASSERT_NE(stable, nullptr);
  EXPECT_EQ(stable->vec, (std::vector<uint64_t>{4, 2, 0}));
  std::vector<CollectMsg> msgs = CollectSends(own.dn);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].dest, 1);
  EXPECT_EQ(msgs[0].kind, kCollectStable);
  EXPECT_EQ(msgs[0].vec, (std::vector<uint64_t>{4, 2, 0}));
}

TEST(CollectTest, TimerGossipsPendingCounters) {
  LayerParams params;
  params.stable_interval = 100;
  LayerTester t(LayerId::kCollect, 2, 1, params);
  t.Up(CollectData(0));
  // The tick that saw the data is not quiet: no report yet.
  EXPECT_TRUE(CollectSends(t.Dn(Event::Timer(Millis(1))).dn).empty());
  // The first quiet tick reports the pending vector once...
  std::vector<CollectMsg> msgs = CollectSends(t.Dn(Event::Timer(Millis(2))).dn);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].kind, kCollectReport);
  EXPECT_EQ(msgs[0].vec, (std::vector<uint64_t>{1, 0}));
  // ...and quiescence stays quiet.
  EXPECT_TRUE(CollectSends(t.Dn(Event::Timer(Millis(3))).dn).empty());
  EXPECT_EQ(t.As<CollectLayer>().reports_sent(), 1u);
}

TEST(CollectTest, AppliesStableVectorFromCoordinator) {
  LayerTester t(LayerId::kCollect, 2, 1);
  auto& out = t.Up(CollectVector(0, kCollectStable, {0, 9}));
  const Event* dn = FindStable(out.dn);
  ASSERT_NE(dn, nullptr);
  EXPECT_EQ(dn->vec, (std::vector<uint64_t>{0, 9}));
  ASSERT_NE(FindStable(out.up), nullptr);
  EXPECT_TRUE(CollectSends(out.dn).empty());
  // A malformed vector is dropped.
  EXPECT_TRUE(t.Up(CollectVector(0, kCollectStable, {1})).dn.empty());
}

TEST(CollectTest, SendsCarryDataHeader) {
  LayerTester t(LayerId::kCollect, 2, 1);
  auto& out = t.Dn(Event::Send(0, LayerTester::Payload("s")));
  ASSERT_EQ(out.dn.size(), 1u);
  EXPECT_EQ(out.dn[0].hdrs.Pop<CollectHeader>(LayerId::kCollect).kind, kCollectData);
  Event data = Event::DeliverSend(0, LayerTester::Payload("s"));
  data.hdrs.Push(LayerId::kCollect, CollectHeader{kCollectData});
  EXPECT_EQ(t.Up(std::move(data)).up.size(), 1u);
}

// --------------------------------------------------------------------------
// local
// --------------------------------------------------------------------------

TEST(LocalTest, LoopbackSplitsCasts) {
  LayerParams params;
  params.local_loopback = true;
  LayerTester t(LayerId::kLocal, 2, 0, params);
  Event cast = Event::Cast(LayerTester::Payload("self"));
  cast.hdrs.Push(LayerId::kTotal, TotalHeader{kTotalData, 9});
  auto& out = t.Dn(std::move(cast));
  ASSERT_EQ(out.dn.size(), 1u);
  ASSERT_EQ(out.up.size(), 1u);
  EXPECT_EQ(out.up[0].type, EventType::kDeliverCast);
  EXPECT_EQ(out.up[0].origin, 0);
  // The self-delivery carries the upper headers (total can pop its gseq).
  TotalHeader hdr = out.up[0].hdrs.Pop<TotalHeader>(LayerId::kTotal);
  EXPECT_EQ(hdr.gseq, 9u);
}

TEST(LocalTest, LoopbackOffIsTransparent) {
  LayerParams params;
  params.local_loopback = false;
  LayerTester t(LayerId::kLocal, 2, 0, params);
  auto& out = t.Dn(Event::Cast(LayerTester::Payload("m")));
  EXPECT_EQ(out.dn.size(), 1u);
  EXPECT_TRUE(out.up.empty());
}

// --------------------------------------------------------------------------
// partial_appl
// --------------------------------------------------------------------------

TEST(PartialApplTest, QueuesWhileBlockedReleasesOnView) {
  LayerTester t(LayerId::kPartialAppl, 2, 0);
  auto& blocked = t.Up(Event::OfType(EventType::kBlock));
  // Block travels on up to the app AND is answered with BlockOk downward.
  EXPECT_EQ(blocked.up.size(), 1u);
  ASSERT_EQ(blocked.dn.size(), 1u);
  EXPECT_EQ(blocked.dn[0].type, EventType::kBlockOk);

  EXPECT_TRUE(t.Dn(Event::Cast(LayerTester::Payload("held"))).dn.empty());
  EXPECT_EQ(t.As<PartialApplLayer>().QueuedWhileBlocked(), 1u);

  auto view = std::make_shared<View>();
  view->vid = ViewId{0, 2};
  view->members = {EndpointId{1}, EndpointId{2}};
  Event nv = Event::OfType(EventType::kView);
  nv.view = view;
  auto& out = t.Up(std::move(nv));
  // The view goes to the app and the held cast is released below.
  EXPECT_EQ(out.up.size(), 1u);
  bool released = false;
  for (const Event& ev : out.dn) {
    released |= ev.type == EventType::kCast;
  }
  EXPECT_TRUE(released);
  EXPECT_EQ(t.As<PartialApplLayer>().QueuedWhileBlocked(), 0u);
}

TEST(PartialApplTest, CountsTrafficOffCriticalPath) {
  LayerTester t(LayerId::kPartialAppl, 2, 0);
  t.Dn(Event::Cast(LayerTester::Payload("a")));
  t.Up(Event::DeliverCast(1, LayerTester::Payload("b")));
  EXPECT_EQ(t.As<PartialApplLayer>().fast().casts, 1u);
  EXPECT_EQ(t.As<PartialApplLayer>().fast().delivered, 1u);
}

// --------------------------------------------------------------------------
// fifo_check
// --------------------------------------------------------------------------

TEST(FifoCheckTest, CleanStreamHasNoViolations) {
  LayerTester tx(LayerId::kFifoCheck, 2, 0);
  LayerTester rx(LayerId::kFifoCheck, 2, 1);
  for (int i = 0; i < 5; i++) {
    auto& out = tx.Dn(Event::Cast(LayerTester::Payload("m")));
    Event up = Event::DeliverCast(0, out.dn[0].payload);
    up.hdrs = out.dn[0].hdrs;
    rx.Up(std::move(up));
  }
  EXPECT_EQ(rx.As<FifoCheckLayer>().violations(), 0u);
}

TEST(FifoCheckTest, DetectsGapAndReordering) {
  LayerTester rx(LayerId::kFifoCheck, 2, 1);
  auto deliver = [&rx](uint32_t seqno) {
    Event up = Event::DeliverCast(0, LayerTester::Payload("m"));
    up.hdrs.Push(LayerId::kFifoCheck, FifoCheckHeader{seqno});
    rx.Up(std::move(up));
  };
  deliver(0);
  deliver(2);  // Gap.
  deliver(1);  // Reorder.
  EXPECT_EQ(rx.As<FifoCheckLayer>().violations(), 2u);
}

}  // namespace
}  // namespace ensemble
