// collect — stability collection.
//
// Tracks, per sender, how far this member has received that sender's casts —
// in mnak's sequence-number space, via the seq_hint mnak stamps on every
// delivered cast.  Stability is computed in one place, the view's rank 0 (the
// coordinator):
//
//   * Every other member reports its ack vector to the coordinator
//     point-to-point (kCollectReport) on the first timer tick after
//     `stable_interval` data deliveries, and on the first quiet tick (no data
//     since the previous tick) if the vector moved since its last report.
//     The coordinator folds its own vector in directly at the same moments.
//   * The coordinator keeps the n x n matrix of reported vectors and, for
//     each sender, the minimum over the *other* members' rows (a sender
//     trivially has its own casts).  When that vector advances it emits
//     kStable down (mnak prunes its retransmission buffer) and up.  At its
//     own report moments it sends the vector point-to-point (kCollectStable)
//     to the members whose own column advanced since they were last told:
//     their column is all their mnak prune reads.
//
// A round costs at most 2(n-1) messages — n-1 reports in, at most n-1 stable
// vectors out — against (n-1)^2 for all-to-all gossip.  Reports and stable
// vectors are pt2pt sends, so they never enter mnak's sequence space or
// retransmission buffer: a member that only receives keeps an empty buffer,
// and stability traffic never causes more stability traffic (DESIGN.md,
// "Stability protocol").

#ifndef ENSEMBLE_SRC_LAYERS_COLLECT_H_
#define ENSEMBLE_SRC_LAYERS_COLLECT_H_

#include <cstdint>
#include <vector>

#include "src/stack/layer.h"

namespace ensemble {

struct CollectHeader {
  uint8_t kind;  // CollectKind.
};

enum CollectKind : uint8_t {
  kCollectData = 0,    // A cast or send of the layers above.
  kCollectReport = 1,  // To the coordinator: the sender's ack vector.
  kCollectStable = 2,  // From the coordinator: the stability vector.
};

struct CollectFast {
  class CollectLayer* self = nullptr;
};

class CollectLayer : public Layer {
 public:
  static constexpr Rank kCoordinator = 0;

  explicit CollectLayer(const LayerParams& params)
      : Layer(LayerId::kCollect), interval_(params.stable_interval) {
    fast_.self = this;
  }

  void Dn(Event ev, EventSink& sink) override;
  void Up(Event ev, EventSink& sink) override;
  void* FastState() override { return &fast_; }
  uint64_t StateDigest() const override;

  // Bookkeeping for a delivered cast (shared by the normal path and the
  // bypass rule): advances the watermark for `origin` to seq_hint + 1 and
  // counts toward the report interval.
  void CountDelivered(Rank origin, uint64_t seq_hint);
  const std::vector<uint64_t>& acks() const { return acks_; }
  const std::vector<uint64_t>& last_stable() const { return last_stable_; }
  // Stability messages this member has sent in the current view.
  uint64_t reports_sent() const { return reports_sent_; }
  uint64_t stables_sent() const { return stables_sent_; }

 private:
  void Report(EventSink& sink);
  void Fold(Rank from, const std::vector<uint64_t>& their_acks, EventSink& sink);
  void AnnounceStable(EventSink& sink);
  void ResetForView();

  CollectFast fast_;
  uint32_t interval_;                         // Data deliveries per report.
  uint32_t since_report_ = 0;                 // Data deliveries since the last report.
  bool data_since_tick_ = false;              // Data delivered since the last timer tick.
  std::vector<uint64_t> last_reported_;       // acks_ as of the last report.
  std::vector<uint64_t> acks_;                // acks_[r]: watermark of r's casts.
  std::vector<std::vector<uint64_t>> rows_;   // Coordinator only: each member's last vector.
  std::vector<uint64_t> told_;                // Coordinator only: column value last sent.
  std::vector<uint64_t> last_stable_;         // Last announced minimum.
  uint64_t reports_sent_ = 0;
  uint64_t stables_sent_ = 0;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_LAYERS_COLLECT_H_
