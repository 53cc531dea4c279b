// In-memory spans for the traced run.
//
// The benchmark records a span around each call it makes across a layer
// boundary (Cast/Send/Flush/Poll, its own deliver callback, and the Network
// shim's virtuals).  Spans nest on one thread, so a span's self time is its
// duration minus the time its child spans cover.  The recorder keeps running
// totals for every span and stores the first `keep` spans whole; they are
// written out when the run ends.

#ifndef ENSEMBLE_PERFBENCH_SPANS_H_
#define ENSEMBLE_PERFBENCH_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kCast,         // GroupEndpoint::Cast
  kSend,         // GroupEndpoint::Send
  kFlush,        // GroupEndpoint::Flush
  kPoll,         // UdpNetwork::Poll
  kDeliverCb,    // The benchmark's OnDeliver callback
  kNetSend,      // Network::Send through the shim
  kNetBroadcast, // Network::Broadcast through the shim
  kNetFlush,     // Network::Flush through the shim
  kNetDeliver,   // The endpoint's DeliverFn, wrapped by the shim at Attach
  kCount,
};
constexpr size_t kSpanNames = static_cast<size_t>(SpanName::kCount);
const char* SpanNameStr(SpanName n);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: no enclosing span.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t cast_id = 0;  // (origin << 40) | seq + 1, or 0 when not a cast.
  SpanName name = SpanName::kCast;
};

inline uint64_t CastId(uint64_t origin, uint64_t seq) { return (origin << 40) | (seq + 1); }

class SpanRecorder {
 public:
  using Clock = uint64_t (*)();

  struct Totals {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  explicit SpanRecorder(size_t keep, Clock clock = nullptr);

  void Begin(SpanName name, uint64_t cast_id = 0);
  // Tags the innermost open span with the cast it turned out to carry.
  void Annotate(uint64_t cast_id);
  // Closes the innermost open span and returns its self time.
  uint64_t End();

  const Totals& totals(SpanName n) const { return totals_[static_cast<size_t>(n)]; }
  const std::vector<Span>& kept() const { return kept_; }
  uint64_t recorded() const { return next_id_ - 1; }

 private:
  struct Open {
    Span span;
    uint64_t child_ns = 0;
  };

  Clock clock_;
  size_t keep_;
  uint64_t next_id_ = 1;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  Totals totals_[kSpanNames];
};

// Reference self time of every span in `spans`: its duration minus the union
// of its children's intervals, clipped to the span.  The recorder's running
// totals must agree with this on any properly nested trace.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

// Writes the kept spans as a validated JSON document.  False on failure.
bool WriteSpans(const std::string& path, const std::string& workload,
                const std::vector<Span>& spans, uint64_t recorded);

}  // namespace perfbench

#endif  // ENSEMBLE_PERFBENCH_SPANS_H_
