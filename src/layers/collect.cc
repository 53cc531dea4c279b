#include "src/layers/collect.h"

#include <algorithm>

#include "src/marshal/header_desc.h"
#include "src/marshal/wire.h"
#include "src/util/hash.h"
#include "src/util/logging.h"

namespace ensemble {

ENSEMBLE_REGISTER_HEADER(CollectHeader, LayerId::kCollect, ENS_FIELD(CollectHeader, kU8, kind));
ENSEMBLE_REGISTER_LAYER(LayerId::kCollect, CollectLayer);

namespace {

Event VectorSend(Rank dest, CollectKind kind, const std::vector<uint64_t>& vec) {
  WireWriter w;
  w.U16(static_cast<uint16_t>(vec.size()));
  for (uint64_t v : vec) {
    w.U64(v);
  }
  Event ev = Event::Send(dest, Iovec(w.Take()));
  ev.hdrs.Push(LayerId::kCollect, CollectHeader{kind});
  return ev;
}

// Decodes a vector of exactly `n` entries; false on a malformed payload.
bool DecodeVector(const Iovec& payload, size_t n, std::vector<uint64_t>* out) {
  WireReader r(payload.Flatten());
  if (r.U16() != n) {
    return false;
  }
  out->resize(n);
  for (uint64_t& v : *out) {
    v = r.U64();
  }
  return r.ok();
}

}  // namespace

void CollectLayer::CountDelivered(Rank origin, uint64_t seq_hint) {
  if (origin >= 0 && static_cast<size_t>(origin) < acks_.size()) {
    acks_[static_cast<size_t>(origin)] =
        std::max(acks_[static_cast<size_t>(origin)], seq_hint + 1);
  }
  data_since_tick_ = true;
  since_report_++;
}

void CollectLayer::Report(EventSink& sink) {
  since_report_ = 0;
  if (acks_.empty()) {
    return;  // Not in a view.
  }
  last_reported_ = acks_;
  if (rank_ != kCoordinator) {
    reports_sent_++;
    sink.PassDn(VectorSend(kCoordinator, kCollectReport, acks_));
    return;
  }
  // The coordinator folds its own vector in and, once per round, tells each
  // member whose column advanced since it was last told.
  Fold(rank_, acks_, sink);
  for (size_t r = 0; r < told_.size(); r++) {
    if (r != static_cast<size_t>(kCoordinator) && last_stable_[r] > told_[r]) {
      told_[r] = last_stable_[r];
      stables_sent_++;
      sink.PassDn(VectorSend(static_cast<Rank>(r), kCollectStable, last_stable_));
    }
  }
}

void CollectLayer::Fold(Rank from, const std::vector<uint64_t>& their_acks,
                        EventSink& sink) {
  size_t n = acks_.size();
  if (from < 0 || static_cast<size_t>(from) >= rows_.size() || their_acks.size() != n) {
    return;
  }
  std::vector<uint64_t>& row = rows_[static_cast<size_t>(from)];
  bool advanced = false;
  for (size_t col = 0; col < n; col++) {
    if (their_acks[col] <= row[col]) {
      continue;  // Watermarks only grow.
    }
    uint64_t old = row[col];
    row[col] = their_acks[col];
    // A sender's own row never constrains its own column, and a row above
    // the column's minimum cannot move it.  Unheard members hold it at zero.
    if (col == static_cast<size_t>(from) || old != last_stable_[col]) {
      continue;
    }
    uint64_t m = UINT64_MAX;
    for (size_t r = 0; r < n; r++) {
      if (r != col) {
        m = std::min(m, rows_[r][col]);
      }
    }
    if (m > last_stable_[col]) {
      last_stable_[col] = m;
      advanced = true;
    }
  }
  if (advanced) {
    AnnounceStable(sink);
  }
}

void CollectLayer::AnnounceStable(EventSink& sink) {
  Event stable = Event::OfType(EventType::kStable);
  stable.vec = last_stable_;
  sink.PassDn(std::move(stable));
  Event stable_up = Event::OfType(EventType::kStable);
  stable_up.vec = last_stable_;
  sink.PassUp(std::move(stable_up));
}

void CollectLayer::Dn(Event ev, EventSink& sink) {
  switch (ev.type) {
    case EventType::kCast:
    case EventType::kSend:
      ev.hdrs.Push(LayerId::kCollect, CollectHeader{kCollectData});
      sink.PassDn(std::move(ev));
      return;
    case EventType::kTimer:
      // Reports go out on the tick, never from inside a delivery: the
      // functional engine passes a layer's down events before its up
      // events, so a report sent there would run ahead of the application's
      // callback.  A quiet tick also ends a round when data stops
      // mid-interval, and lets the coordinator pass on what the last reports
      // advanced.  Reports and stable vectors are sends, not casts, so they
      // move no one's vector and the exchange ends.
      if (since_report_ >= interval_ ||
          (!data_since_tick_ && (rank_ == kCoordinator || acks_ != last_reported_))) {
        Report(sink);
      }
      data_since_tick_ = false;
      sink.PassDn(std::move(ev));
      return;
    case EventType::kView:
      NoteView(ev);
      ResetForView();
      sink.PassDn(std::move(ev));
      return;
    default:
      sink.PassDn(std::move(ev));
      return;
  }
}

void CollectLayer::Up(Event ev, EventSink& sink) {
  switch (ev.type) {
    case EventType::kDeliverCast: {
      ev.hdrs.Pop<CollectHeader>(LayerId::kCollect);  // Casts are always data.
      CountDelivered(ev.origin, ev.seq_hint);
      sink.PassUp(std::move(ev));
      return;
    }
    case EventType::kDeliverSend: {
      CollectHeader hdr = ev.hdrs.Pop<CollectHeader>(LayerId::kCollect);
      std::vector<uint64_t> vec;
      switch (hdr.kind) {
        case kCollectReport:
          if (rank_ == kCoordinator && DecodeVector(ev.payload, acks_.size(), &vec)) {
            Fold(ev.origin, vec, sink);
          }
          return;
        case kCollectStable:
          if (DecodeVector(ev.payload, last_stable_.size(), &vec)) {
            for (size_t col = 0; col < vec.size(); col++) {
              last_stable_[col] = std::max(last_stable_[col], vec[col]);
            }
            AnnounceStable(sink);
          }
          return;
        default:
          sink.PassUp(std::move(ev));
          return;
      }
    }
    case EventType::kInit:
      NoteView(ev);
      ResetForView();
      sink.PassUp(std::move(ev));
      return;
    default:
      sink.PassUp(std::move(ev));
      return;
  }
}

void CollectLayer::ResetForView() {
  size_t n = view_ ? static_cast<size_t>(nmembers_) : 0;
  since_report_ = 0;
  data_since_tick_ = false;
  reports_sent_ = 0;
  stables_sent_ = 0;
  last_reported_.assign(n, 0);
  acks_.assign(n, 0);
  last_stable_.assign(n, 0);
  if (rank_ == kCoordinator) {
    rows_.assign(n, std::vector<uint64_t>(n, 0));
    told_.assign(n, 0);
  } else {
    rows_.clear();
    told_.clear();
  }
}

uint64_t CollectLayer::StateDigest() const {
  uint64_t h = kFnvOffset;
  h = FnvMixU64(h, since_report_);
  for (uint64_t a : acks_) {
    h = FnvMixU64(h, a);
  }
  for (uint64_t s : last_stable_) {
    h = FnvMixU64(h, s);
  }
  return h;
}

}  // namespace ensemble
