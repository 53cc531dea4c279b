// Stability protocol on the 10-layer stack: members report ack vectors to
// the view's rank 0, which sends stable vectors back only to members whose
// own casts advanced.  Every check here is a deterministic counter over the
// simulator — retransmission-buffer sizes, stability message counts and
// datagrams sent — not a timing.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/app/harness.h"
#include "src/layers/collect.h"
#include "src/layers/mnak.h"

namespace ensemble {
namespace {

constexpr uint32_t kInterval = 16;  // LayerParams::stable_interval default.

HarnessConfig StabilityGroup(int n) {
  HarnessConfig config;
  config.n = n;
  config.ep.layers = TenLayerStack();
  config.ep.params.stable_interval = kInterval;
  return config;
}

MnakLayer* MnakOf(GroupHarness& g, int i) {
  return static_cast<MnakLayer*>(g.member(i).stack()->FindLayer(LayerId::kMnak));
}

CollectLayer* CollectOf(GroupHarness& g, int i) {
  return static_cast<CollectLayer*>(g.member(i).stack()->FindLayer(LayerId::kCollect));
}

// Reports plus stable vectors, summed over the group.
uint64_t StabilityMessages(GroupHarness& g) {
  uint64_t total = 0;
  for (int i = 0; i < g.n(); i++) {
    total += CollectOf(g, i)->reports_sent() + CollectOf(g, i)->stables_sent();
  }
  return total;
}

size_t LargestBuffer(GroupHarness& g) {
  size_t most = 0;
  for (int i = 0; i < g.n(); i++) {
    most = std::max(most, MnakOf(g, i)->retrans_buffer_size());
  }
  return most;
}

// Casts `count` messages, one per 250 us, rotating over `casters`.
void PacedCasts(GroupHarness& g, const std::vector<int>& casters, int count) {
  for (int i = 0; i < count; i++) {
    g.CastFrom(casters[static_cast<size_t>(i) % casters.size()], "m" + std::to_string(i));
    g.Run(Micros(250));
  }
}

class StabilityGroupTest : public ::testing::TestWithParam<int> {};

TEST_P(StabilityGroupTest, ReceiversKeepEmptyBuffersAndCasterPrunes) {
  const int n = GetParam();
  GroupHarness g(StabilityGroup(n));
  g.StartAll();
  const int casts = 8 * static_cast<int>(kInterval);
  for (int i = 0; i < casts; i++) {
    g.CastFrom(0, "m" + std::to_string(i));
    g.Run(Micros(250));
    // Stability traffic never enters mnak's buffers: a receive-only member
    // has nothing to retransmit.
    for (int r = 1; r < n; r++) {
      ASSERT_EQ(MnakOf(g, r)->retrans_buffer_size(), 0u) << "member " << r << " cast " << i;
    }
    ASSERT_LT(MnakOf(g, 0)->retrans_buffer_size(), 2 * kInterval) << "cast " << i;
  }
  g.Run(Millis(10));
  EXPECT_EQ(MnakOf(g, 0)->retrans_buffer_size(), 0u);
  for (int r = 1; r < n; r++) {
    EXPECT_EQ(g.CastPayloadsFrom(r, 0).size(), static_cast<size_t>(casts)) << "member " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StabilityGroupTest, ::testing::Values(2, 32),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(StabilityProtocolTest, MessagesPerRoundAreLinearInGroupSize) {
  const int n = 32;
  GroupHarness g(StabilityGroup(n));
  g.StartAll();
  // Three casters, so the coordinator also has stable vectors to send.
  const int casts = 6 * static_cast<int>(kInterval);
  PacedCasts(g, {0, 7, 31}, casts);
  g.Run(Millis(10));
  // A round is `kInterval` data deliveries at a member; the most any member
  // delivered sets the round count, plus the quiescence round.
  size_t most = 0;
  for (int i = 0; i < n; i++) {
    most = std::max(most, g.CastPayloads(i).size());
  }
  uint64_t rounds = (most + kInterval - 1) / kInterval + 1;
  EXPECT_LE(StabilityMessages(g), 2u * (n - 1) * rounds);
  EXPECT_GT(CollectOf(g, 0)->stables_sent(), 0u);
  EXPECT_EQ(LargestBuffer(g), 0u);
}

TEST(StabilityProtocolTest, IdleGroupSendsNothing) {
  for (int n : {2, 32}) {
    GroupHarness g(StabilityGroup(n));
    g.StartAll();
    PacedCasts(g, {0, n - 1}, 3 * static_cast<int>(kInterval) + 5);
    g.Run(Millis(20));  // Converge: last reports, stable vectors, acks.
    uint64_t sent = g.network().stats().sent;
    uint64_t messages = StabilityMessages(g);
    g.Run(Millis(100));
    // No ping-pong: stability messages do not provoke more of themselves,
    // and nothing else is left to say.
    EXPECT_EQ(g.network().stats().sent, sent) << "n=" << n;
    EXPECT_EQ(StabilityMessages(g), messages) << "n=" << n;
    EXPECT_EQ(LargestBuffer(g), 0u) << "n=" << n;
  }
}

TEST(StabilityProtocolTest, BuffersPruneAfterLossStops) {
  const int n = 8;
  HarnessConfig config = StabilityGroup(n);
  config.net.seed = 7;
  GroupHarness g(config);
  g.StartAll();
  g.network().SetFaults(0.2, 0, 0);
  const int casts = 4 * static_cast<int>(kInterval);
  PacedCasts(g, {0, 3}, casts);
  EXPECT_GT(g.network().stats().dropped, 0u);
  g.network().SetFaults(0, 0, 0);
  g.Run(Millis(300));
  for (int i = 0; i < n; i++) {
    EXPECT_EQ(g.CastPayloads(i).size(), static_cast<size_t>(casts)) << "member " << i;
    EXPECT_EQ(MnakOf(g, i)->retrans_buffer_size(), 0u) << "member " << i;
  }
}

}  // namespace
}  // namespace ensemble
