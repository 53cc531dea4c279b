// A forwarding Network owned by the benchmark.
//
// The endpoints under test talk to the real UdpNetwork through this shim,
// which forwards every virtual unchanged.  It exists so the traced run can
// put spans around the network boundary — Send/Broadcast/Flush on the way
// down and the endpoint's DeliverFn (wrapped at Attach) on the way up —
// without touching the library.  Untraced, each call costs one extra
// indirect call.

#ifndef ENSEMBLE_PERFBENCH_SHIM_H_
#define ENSEMBLE_PERFBENCH_SHIM_H_

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "perfbench/spans.h"
#include "src/app/endpoint.h"
#include "src/net/network.h"

namespace perfbench {

class ShimNetwork : public ensemble::Network {
 public:
  // Forwarded virtuals, in declaration order (the self-test checks each).
  enum Virtual {
    kAttach,
    kDetach,
    kSend,
    kBroadcast,
    kScheduleTimer,
    kNow,
    kFlush,
    kSetDrainHook,
    kSetPressure,
    kDeliver,  // A wrapped DeliverFn ran.
    kVirtuals,
  };

  // Up-path time split by the route each received message took.
  struct UpSplit {
    uint64_t bypass_msgs = 0;
    uint64_t bypass_ns = 0;
    uint64_t stack_msgs = 0;
    uint64_t stack_ns = 0;
  };

  explicit ShimNetwork(ensemble::Network* inner) : inner_(inner) {}

  // Spans on (non-null) or off.  Set between phases, never mid-call.
  void set_spans(SpanRecorder* spans) { spans_ = spans; }
  // Endpoint whose stats attribute each delivered datagram's time to the
  // bypass or the stack.
  void Watch(ensemble::EndpointId ep, const ensemble::GroupEndpoint::Stats* stats) {
    watched_.emplace_back(ep, stats);
  }

  uint64_t calls(Virtual v) const { return calls_[v]; }
  const UpSplit& up_split() const { return up_; }

  void Attach(ensemble::EndpointId ep, DeliverFn deliver) override {
    calls_[kAttach]++;
    inner_->Attach(ep, [this, ep, fn = std::move(deliver)](const ensemble::Packet& p) {
      Deliver(ep, fn, p);
    });
  }
  void Detach(ensemble::EndpointId ep) override {
    calls_[kDetach]++;
    inner_->Detach(ep);
  }
  void Send(ensemble::EndpointId src, ensemble::EndpointId dst,
            const ensemble::Iovec& gather) override {
    calls_[kSend]++;
    if (spans_ == nullptr) {
      inner_->Send(src, dst, gather);
      return;
    }
    spans_->Begin(SpanName::kNetSend);
    inner_->Send(src, dst, gather);
    spans_->End();
  }
  void Broadcast(ensemble::EndpointId src, const ensemble::Iovec& gather) override {
    calls_[kBroadcast]++;
    if (spans_ == nullptr) {
      inner_->Broadcast(src, gather);
      return;
    }
    spans_->Begin(SpanName::kNetBroadcast);
    inner_->Broadcast(src, gather);
    spans_->End();
  }
  void ScheduleTimer(ensemble::VTime delay, TimerFn fn) override {
    calls_[kScheduleTimer]++;
    inner_->ScheduleTimer(delay, std::move(fn));
  }
  ensemble::VTime Now() const override {
    calls_[kNow]++;
    return inner_->Now();
  }
  void Flush() override {
    calls_[kFlush]++;
    if (spans_ == nullptr) {
      inner_->Flush();
      return;
    }
    spans_->Begin(SpanName::kNetFlush);
    inner_->Flush();
    spans_->End();
  }
  void SetDrainHook(ensemble::EndpointId ep, std::function<void()> hook) override {
    calls_[kSetDrainHook]++;
    inner_->SetDrainHook(ep, std::move(hook));
  }
  void SetPressure(int level) override {
    calls_[kSetPressure]++;
    inner_->SetPressure(level);
  }

 private:
  void Deliver(ensemble::EndpointId ep, const DeliverFn& fn, const ensemble::Packet& p) {
    calls_[kDeliver]++;
    const ensemble::GroupEndpoint::Stats* st = nullptr;
    if (spans_ != nullptr) {
      for (const auto& [id, stats] : watched_) {
        if (id == ep) {
          st = stats;
        }
      }
    }
    if (st == nullptr) {
      fn(p);
      return;
    }
    uint64_t bypass0 = st->bypass_up.value();
    uint64_t packed0 = st->packed_in.value();
    spans_->Begin(SpanName::kNetDeliver);
    fn(p);
    uint64_t self = spans_->End();
    // A packed datagram carries several messages; split its self time evenly
    // and give the bypass the share of messages it delivered.
    uint64_t msgs = std::max<uint64_t>(st->packed_in.value() - packed0, 1);
    uint64_t bypass = std::min(st->bypass_up.value() - bypass0, msgs);
    uint64_t bypass_ns = self * bypass / msgs;
    up_.bypass_msgs += bypass;
    up_.bypass_ns += bypass_ns;
    up_.stack_msgs += msgs - bypass;
    up_.stack_ns += self - bypass_ns;
  }

  ensemble::Network* inner_;
  SpanRecorder* spans_ = nullptr;
  std::vector<std::pair<ensemble::EndpointId, const ensemble::GroupEndpoint::Stats*>> watched_;
  mutable std::array<uint64_t, kVirtuals> calls_{};
  UpSplit up_;
};

}  // namespace perfbench

#endif  // ENSEMBLE_PERFBENCH_SHIM_H_
