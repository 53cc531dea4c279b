// Unit tests: layer traits, the adjacency checker, and the property-driven
// stack builder (the paper's stack-calculation algorithm, §3.2).

#include <gtest/gtest.h>

#include <algorithm>

#include "src/stack/properties.h"
#include "src/stack/engine.h"

namespace ensemble {
namespace {

TEST(TraitsTest, EveryProductionLayerHasTraits) {
  for (LayerId id : TenLayerStack()) {
    const LayerTraits& t = TraitsFor(id);
    EXPECT_EQ(t.id, id);
  }
  EXPECT_EQ(TraitsFor(LayerId::kBottom).provides, kPropNet);
  EXPECT_TRUE(TraitsFor(LayerId::kMnak).provides & kPropReliableMcast);
}

TEST(AdjacencyTest, CanonicalStacksPass) {
  EXPECT_TRUE(CheckAdjacency(TenLayerStack()).ok);
  EXPECT_TRUE(CheckAdjacency(FourLayerStack()).ok);
}

TEST(AdjacencyTest, MembershipStackPasses) {
  std::vector<LayerId> stack = {LayerId::kPartialAppl, LayerId::kIntra, LayerId::kElect,
                                LayerId::kSync,        LayerId::kSuspect, LayerId::kPt2pt,
                                LayerId::kMnak,        LayerId::kBottom};
  StackCheck check = CheckAdjacency(stack);
  EXPECT_TRUE(check.ok) << check.ToString();
}

TEST(AdjacencyTest, MissingBottomRejected) {
  StackCheck check = CheckAdjacency({LayerId::kTop, LayerId::kMnak});
  EXPECT_FALSE(check.ok);
}

TEST(AdjacencyTest, MissingRequirementRejected) {
  // total requires reliable FIFO multicast below it; bottom alone is not
  // enough.
  StackCheck check = CheckAdjacency({LayerId::kTop, LayerId::kTotal, LayerId::kBottom});
  EXPECT_FALSE(check.ok);
  ASSERT_FALSE(check.errors.empty());
  EXPECT_NE(check.errors[0].find("total"), std::string::npos);
}

TEST(AdjacencyTest, CollectWithoutPt2ptRejected) {
  // collect reports ack vectors point-to-point, so it needs reliable p2p
  // below it as well as reliable multicast.
  StackCheck check =
      CheckAdjacency({LayerId::kTop, LayerId::kCollect, LayerId::kMnak, LayerId::kBottom});
  EXPECT_FALSE(check.ok);
  ASSERT_FALSE(check.errors.empty());
  EXPECT_NE(check.errors[0].find("collect requires ReliableP2P"), std::string::npos)
      << check.ToString();
  EXPECT_TRUE(CheckAdjacency({LayerId::kTop, LayerId::kCollect, LayerId::kPt2pt,
                              LayerId::kMnak, LayerId::kBottom})
                  .ok);
}

TEST(AdjacencyTest, OrderInversionRejected) {
  // mnak above total is canonically inverted.
  StackCheck check = CheckAdjacency(
      {LayerId::kTop, LayerId::kMnak, LayerId::kTotal, LayerId::kPt2pt, LayerId::kBottom});
  EXPECT_FALSE(check.ok);
}

TEST(AdjacencyTest, MissingAppInterfaceRejected) {
  StackCheck check = CheckAdjacency({LayerId::kMnak, LayerId::kBottom});
  EXPECT_FALSE(check.ok);
}

TEST(AdjacencyTest, DuplicateLayerRejected) {
  StackCheck check = CheckAdjacency(
      {LayerId::kTop, LayerId::kMnak, LayerId::kMnak, LayerId::kBottom});
  EXPECT_FALSE(check.ok);
}

TEST(AdjacencyTest, EmptyStackRejected) {
  EXPECT_FALSE(CheckAdjacency({}).ok);
}

TEST(BuilderTest, MinimalReliableMulticast) {
  StackCheck check;
  std::vector<LayerId> stack = BuildStackForProperties(kPropReliableMcast, &check);
  EXPECT_TRUE(check.ok) << check.ToString();
  ASSERT_FALSE(stack.empty());
  EXPECT_EQ(stack.front(), LayerId::kTop);
  EXPECT_EQ(stack.back(), LayerId::kBottom);
  EXPECT_NE(std::find(stack.begin(), stack.end(), LayerId::kMnak), stack.end());
  // Nothing gratuitous: no total order, no frag.
  EXPECT_EQ(std::find(stack.begin(), stack.end(), LayerId::kTotal), stack.end());
  EXPECT_EQ(std::find(stack.begin(), stack.end(), LayerId::kFrag), stack.end());
}

TEST(BuilderTest, TotalOrderPullsInDependencies) {
  StackCheck check;
  std::vector<LayerId> stack = BuildStackForProperties(kPropTotalOrder, &check);
  EXPECT_TRUE(check.ok) << check.ToString();
  // total needs reliable fifo mcast (mnak) and reliable p2p (pt2pt, for the
  // token traffic); the interface becomes partial_appl.
  EXPECT_NE(std::find(stack.begin(), stack.end(), LayerId::kTotal), stack.end());
  EXPECT_NE(std::find(stack.begin(), stack.end(), LayerId::kMnak), stack.end());
  EXPECT_NE(std::find(stack.begin(), stack.end(), LayerId::kPt2pt), stack.end());
  EXPECT_EQ(stack.front(), LayerId::kPartialAppl);
}

TEST(BuilderTest, FullRequestReproducesTenLayerShape) {
  StackCheck check;
  std::vector<LayerId> stack = BuildStackForProperties(
      kPropReliableMcast | kPropTotalOrder | kPropFlowMcast | kPropFlowP2P |
          kPropFragmentation | kPropStability | kPropSelfDelivery,
      &check);
  EXPECT_TRUE(check.ok) << check.ToString();
  EXPECT_EQ(stack, TenLayerStack());
}

TEST(BuilderTest, MembershipRequest) {
  StackCheck check;
  std::vector<LayerId> stack = BuildStackForProperties(kPropMembership, &check);
  EXPECT_TRUE(check.ok) << check.ToString();
  for (LayerId need : {LayerId::kIntra, LayerId::kElect, LayerId::kSync, LayerId::kSuspect}) {
    EXPECT_NE(std::find(stack.begin(), stack.end(), need), stack.end()) << LayerIdName(need);
  }
}

TEST(BuilderTest, SecurityProperties) {
  StackCheck check;
  std::vector<LayerId> stack =
      BuildStackForProperties(kPropPrivacy | kPropAuth | kPropReliableMcast, &check);
  EXPECT_TRUE(check.ok) << check.ToString();
  EXPECT_NE(std::find(stack.begin(), stack.end(), LayerId::kEncrypt), stack.end());
  EXPECT_NE(std::find(stack.begin(), stack.end(), LayerId::kSign), stack.end());
}

TEST(BuilderTest, BuiltStacksAlwaysPassAdjacency) {
  // Property sweep: every single-property request yields a checkable stack.
  for (uint32_t bit = 1; bit <= kPropAppInterface; bit <<= 1) {
    StackCheck check;
    std::vector<LayerId> stack = BuildStackForProperties(bit, &check);
    EXPECT_TRUE(check.ok) << PropertySetToString(bit) << ": " << check.ToString();
    EXPECT_FALSE(stack.empty()) << PropertySetToString(bit);
  }
}

TEST(BuilderTest, BuiltStacksActuallyWork) {
  // The built total-order stack is not just well-formed; it runs.
  StackCheck check;
  std::vector<LayerId> stack = BuildStackForProperties(
      kPropTotalOrder | kPropSelfDelivery | kPropStability, &check);
  ASSERT_TRUE(check.ok) << check.ToString();
  LayerParams params;
  auto s = BuildStack(EngineKind::kFunctional, stack, params, EndpointId{1});
  EXPECT_EQ(s->depth(), stack.size());
}

TEST(PropertyPrintingTest, SetToStringListsNames) {
  EXPECT_EQ(PropertySetToString(0), "none");
  std::string s = PropertySetToString(kPropTotalOrder | kPropNet);
  EXPECT_NE(s.find("TotalOrder"), std::string::npos);
  EXPECT_NE(s.find("Net"), std::string::npos);
}

}  // namespace
}  // namespace ensemble
