#include "src/stack/properties.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "src/util/logging.h"

namespace ensemble {

namespace {

// The protocol designers' knowledge, in one table.
const std::vector<LayerTraits>& TraitsTable() {
  static const std::vector<LayerTraits> table = {
      {LayerId::kTop, kPropAppInterface, 0, 0},
      {LayerId::kPartialAppl, kPropAppInterface, 0, 5},
      {LayerId::kIntra, kPropMembership, kPropElection | kPropFlush | kPropReliableMcast, 10},
      {LayerId::kElect, kPropElection, kPropFailureDetect, 12},
      {LayerId::kSync, kPropFlush, kPropReliableMcast | kPropReliableP2P, 14},
      {LayerId::kTotal, kPropTotalOrder,
       kPropReliableMcast | kPropFifoMcast | kPropReliableP2P, 20},
      {LayerId::kLocal, kPropSelfDelivery, 0, 25},
      {LayerId::kStable, kPropStability, kPropStability, 28},
      {LayerId::kCollect, kPropStability, kPropReliableMcast | kPropReliableP2P, 30},
      {LayerId::kFrag, kPropFragmentation, kPropReliableMcast | kPropFifoMcast, 35},
      {LayerId::kPt2ptw, kPropFlowP2P, kPropReliableP2P, 40},
      {LayerId::kMflow, kPropFlowMcast, kPropReliableMcast | kPropReliableP2P, 45},
      {LayerId::kEncrypt, kPropPrivacy, kPropNet, 50},
      {LayerId::kSign, kPropAuth, kPropNet, 52},
      {LayerId::kSuspect, kPropFailureDetect, kPropReliableMcast, 55},
      {LayerId::kFifoCheck, 0, kPropFifoMcast, 57},
      {LayerId::kTotalCheck, 0, kPropTotalOrder, 18},
      {LayerId::kPt2pt, kPropReliableP2P | kPropFifoP2P, kPropNet, 60},
      {LayerId::kMnak, kPropReliableMcast | kPropFifoMcast, kPropNet, 70},
      {LayerId::kTotalBuggy, kPropTotalOrder,
       kPropReliableMcast | kPropFifoMcast | kPropReliableP2P, 20},
      {LayerId::kBottom, kPropNet, 0, 100},
  };
  return table;
}

const char* PropName(Property p) {
  switch (p) {
    case kPropNet:
      return "Net";
    case kPropReliableMcast:
      return "ReliableMcast";
    case kPropFifoMcast:
      return "FifoMcast";
    case kPropReliableP2P:
      return "ReliableP2P";
    case kPropFifoP2P:
      return "FifoP2P";
    case kPropTotalOrder:
      return "TotalOrder";
    case kPropFlowMcast:
      return "FlowMcast";
    case kPropFlowP2P:
      return "FlowP2P";
    case kPropFragmentation:
      return "Fragmentation";
    case kPropStability:
      return "Stability";
    case kPropSelfDelivery:
      return "SelfDelivery";
    case kPropFailureDetect:
      return "FailureDetect";
    case kPropElection:
      return "Election";
    case kPropFlush:
      return "Flush";
    case kPropMembership:
      return "Membership";
    case kPropPrivacy:
      return "Privacy";
    case kPropAuth:
      return "Auth";
    case kPropAppInterface:
      return "AppInterface";
  }
  return "?";
}

}  // namespace

std::string PropertySetToString(PropertySet props) {
  std::ostringstream os;
  bool first = true;
  for (uint32_t bit = 1; bit != 0 && bit <= kPropAppInterface; bit <<= 1) {
    if ((props & bit) != 0) {
      os << (first ? "" : "+") << PropName(static_cast<Property>(bit));
      first = false;
    }
  }
  return first ? "none" : os.str();
}

const LayerTraits& TraitsFor(LayerId id) {
  for (const LayerTraits& t : TraitsTable()) {
    if (t.id == id) {
      return t;
    }
  }
  static const LayerTraits kUnknown;
  ENS_CHECK_MSG(false, "no traits for layer " << LayerIdName(id));
  return kUnknown;
}

std::string StackCheck::ToString() const {
  if (ok) {
    return "ok";
  }
  std::ostringstream os;
  for (const auto& e : errors) {
    os << e << "\n";
  }
  return os.str();
}

StackCheck CheckAdjacency(const std::vector<LayerId>& layers_top_first) {
  StackCheck check;
  auto fail = [&check](const std::string& msg) {
    check.ok = false;
    check.errors.push_back(msg);
  };

  if (layers_top_first.empty()) {
    fail("empty stack");
    return check;
  }
  if (layers_top_first.back() != LayerId::kBottom) {
    fail("the lowest layer must be bottom (network access)");
  }
  {
    const LayerTraits& top = TraitsFor(layers_top_first.front());
    if ((top.provides & kPropAppInterface) == 0) {
      fail(std::string("the top layer must provide the application interface, got ") +
           LayerIdName(layers_top_first.front()));
    }
  }

  // Walk bottom -> top: everything a layer requires must already be provided
  // strictly below it.
  PropertySet below = 0;
  int prev_position = 1000;
  for (size_t i = layers_top_first.size(); i-- > 0;) {
    const LayerTraits& t = TraitsFor(layers_top_first[i]);
    PropertySet missing = t.requires_below & ~below;
    if (missing != 0) {
      std::ostringstream os;
      os << LayerIdName(t.id) << " requires " << PropertySetToString(missing)
         << " from below, but the layers beneath it provide only "
         << PropertySetToString(below);
      fail(os.str());
    }
    if (t.position > prev_position) {
      std::ostringstream os;
      os << LayerIdName(t.id) << " is above a layer that canonically belongs above it";
      fail(os.str());
    }
    prev_position = t.position;
    below |= t.provides;
  }

  // Duplicate layers are configuration mistakes (except checking layers).
  std::map<LayerId, int> counts;
  for (LayerId id : layers_top_first) {
    if (++counts[id] == 2 && id != LayerId::kFifoCheck && id != LayerId::kTotalCheck) {
      fail(std::string("layer ") + LayerIdName(id) + " appears more than once");
    }
  }
  return check;
}

std::vector<LayerId> BuildStackForProperties(PropertySet requested, StackCheck* check) {
  StackCheck local;
  StackCheck& out = check != nullptr ? *check : local;

  // Closure: pull in providers bottom-up until every needed property is
  // covered.  Iterating the table sorted by descending position means a
  // provider's own requirements are resolved by layers even lower that we
  // have already had a chance to include.
  std::vector<LayerTraits> sorted = TraitsTable();
  std::erase_if(sorted, [](const LayerTraits& t) { return t.id == LayerId::kTotalBuggy; });
  std::sort(sorted.begin(), sorted.end(),
            [](const LayerTraits& a, const LayerTraits& b) { return a.position > b.position; });

  PropertySet needed = requested | kPropNet | kPropAppInterface;
  PropertySet covered = 0;
  std::vector<LayerId> chosen;

  // Fixed-point: keep sweeping while new requirements appear.
  for (int round = 0; round < 8; round++) {
    bool progress = false;
    for (const LayerTraits& t : sorted) {
      if ((t.provides & needed & ~covered) == 0) {
        continue;  // Contributes nothing new.
      }
      if (std::find(chosen.begin(), chosen.end(), t.id) != chosen.end()) {
        continue;
      }
      // Prefer partial_appl over top as interface when membership or total
      // order is requested (blocked-send queueing matters there).
      if (t.id == LayerId::kTop &&
          (needed & (kPropMembership | kPropTotalOrder)) != 0) {
        continue;
      }
      if (t.id == LayerId::kPartialAppl &&
          (needed & (kPropMembership | kPropTotalOrder)) == 0) {
        continue;
      }
      chosen.push_back(t.id);
      covered |= t.provides;
      needed |= t.requires_below;
      progress = true;
    }
    if (!progress) {
      break;
    }
  }

  if ((needed & ~covered) != 0) {
    out.ok = false;
    out.errors.push_back("no layers in the library provide " +
                         PropertySetToString(needed & ~covered));
    return {};
  }

  std::sort(chosen.begin(), chosen.end(), [](LayerId a, LayerId b) {
    return TraitsFor(a).position < TraitsFor(b).position;
  });
  out = CheckAdjacency(chosen);
  if (!out.ok) {
    return {};
  }
  return chosen;
}

}  // namespace ensemble
