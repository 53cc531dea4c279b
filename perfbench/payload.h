// Self-checking application payloads and the delivery checker.
//
// Every cast the benchmark issues carries a 40-byte header — workload, group,
// origin, per-origin sequence number, the Cast() stamp and a check word — in
// front of seeded body bytes.  The check word covers the header fields and a
// hash of the body, so a receiver can tell an intact delivery from a corrupt
// one without any side channel.  The Tracker then applies the delivery rule:
// a cast succeeds only if every peer of its group delivers it exactly once,
// intact and in per-origin order, and no endpoint outside the group delivers
// it.

#ifndef ENSEMBLE_PERFBENCH_PAYLOAD_H_
#define ENSEMBLE_PERFBENCH_PAYLOAD_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "src/util/bytes.h"

namespace perfbench {

using ensemble::Bytes;
using ensemble::Iovec;

constexpr size_t kHeaderBytes = 40;
constexpr uint32_t kPayloadMagic = 0x31424650;  // "PFB1".

enum class PayloadKind : uint8_t { kCast = 0, kAnswer = 1 };

struct PayloadInfo {
  uint8_t workload = 0;
  PayloadKind kind = PayloadKind::kCast;
  uint16_t group = 0;
  uint32_t origin = 0;  // Member index of the sender.
  uint32_t length = 0;  // Whole payload, header included.
  uint64_t seq = 0;     // Per-origin, per-kind sequence number.
  uint64_t stamp_ns = 0;
};

// Word-at-a-time body hash that can be fed in pieces (received payloads may
// be split across fragments) and resumed from a saved word boundary.
class BodyHasher {
 public:
  void Update(const uint8_t* p, size_t n);
  uint64_t Final() const;

  uint64_t state() const { return h_; }
  static BodyHasher Resume(uint64_t state, size_t words);

 private:
  void MixWord(uint64_t w);

  uint64_t h_ = 0x9E3779B97F4A7C15ull;
  uint8_t buf_[8] = {};
  size_t nbuf_ = 0;
  size_t total_ = 0;
};

uint64_t HeaderCheck(const PayloadInfo& info, uint64_t body_hash);

// Seeded body bytes shared by every payload of a run, with the hash state at
// every 8-byte boundary precomputed, so a sender stamps a payload of any
// length in O(1) and only the receiver pays for hashing.
class BodyPool {
 public:
  static constexpr size_t kVariants = 16;

  BodyPool(uint64_t seed, size_t max_body);

  // Body of `len` bytes from variant `v` (zero-copy slice) and its hash.
  Bytes Body(size_t v, size_t len) const;
  uint64_t Hash(size_t v, size_t len) const;

 private:
  std::vector<Bytes> bodies_;
  std::vector<std::vector<uint64_t>> prefix_;  // [variant][words] state.
};

// Builds payloads: header slices are carved from a shared arena chunk so the
// benchmark adds almost no heap allocations of its own per cast.  One writer
// per sending thread.
class PayloadWriter {
 public:
  explicit PayloadWriter(const BodyPool* pool) : pool_(pool) {}
  Iovec Make(const PayloadInfo& info);

 private:
  static constexpr size_t kArenaBytes = 4 * 1024;
  const BodyPool* pool_;
  Bytes arena_;
  size_t used_ = kArenaBytes;
};

// Parses and verifies one delivered payload.  False when the payload is
// malformed or its check word does not match (corrupt).
bool ParsePayload(const Iovec& payload, PayloadInfo* out);

// Outcome counters of one measurement window.
struct Window {
  uint64_t completed = 0;        // Casts delivered by every peer.
  uint64_t delivered_bytes = 0;  // Payload bytes delivered at peers.
  std::vector<uint64_t> latency_ns;  // One sample per peer delivery.
};

// The delivery checker.  Thread-safe: deliveries of one run may arrive on
// several worker threads.
class Tracker {
 public:
  // group_of[m] is member m's group.  A cast needs every other member of its
  // origin's group.
  explicit Tracker(std::vector<int> group_of);

  // Origin side: registers the cast about to be issued.
  void OnCast(uint32_t origin, uint64_t seq);
  // Receiver side: checks one delivery and accounts it.  Fills *info and
  // returns true when the payload parsed; false when it was corrupt.
  bool OnDeliver(int receiver, const Iovec& payload, uint64_t now_ns, PayloadInfo* info);

  // Closes the current window and starts a new one.
  Window TakeWindow();
  // Marks every cast not yet delivered by all its peers as failed.
  void FailOutstanding();

  uint64_t attempted() const;
  // Failed casts plus violations no cast can be charged with (corrupt
  // payloads, out-of-order answers), capped at attempted().
  uint64_t failed() const;
  uint64_t outstanding() const;
  uint64_t outstanding_of(uint32_t origin) const;
  uint64_t progress() const;  // Valid peer deliveries so far.

  // Violation counters, for the run report.
  struct Violations {
    uint64_t foreign = 0;    // Delivered outside the origin's group.
    uint64_t duplicate = 0;  // Delivered twice at one peer.
    uint64_t reordered = 0;  // Delivered after a later cast of its origin.
    uint64_t corrupt = 0;    // Bad header or check word.
    uint64_t answers_bad = 0;  // Point-to-point answers out of order.
    uint64_t stalled = 0;    // Outstanding when the run gave up.
  };
  Violations violations() const;
  uint64_t own_deliveries() const;

 private:
  struct Record {
    int32_t pending = 0;
    bool failed = false;
  };
  struct OriginBook {
    uint64_t base = 0;  // Sequence number of records.front().
    std::deque<Record> records;
    std::unordered_set<uint64_t> failed_retired;  // Retired casts that failed.
  };

  Record* Find(uint32_t origin, uint64_t seq);
  void FailCast(uint32_t origin, uint64_t seq);
  // Pops the finished casts at the front of `book`.
  void Retire(OriginBook& book);

  mutable std::mutex mu_;
  std::vector<int> group_of_;
  std::vector<int> group_size_;
  std::vector<OriginBook> books_;
  // expected_[receiver][origin]: next in-order cast sequence number.
  std::vector<std::vector<uint64_t>> expected_;
  std::vector<std::vector<uint64_t>> expected_answer_;
  Window window_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t unattributed_ = 0;
  uint64_t outstanding_ = 0;
  uint64_t progress_ = 0;
  uint64_t own_ = 0;
  Violations v_;
};

}  // namespace perfbench

#endif  // ENSEMBLE_PERFBENCH_PAYLOAD_H_
