#include "perfbench/payload.h"

#include <algorithm>
#include <cstring>

#include "src/util/rng.h"

namespace perfbench {

namespace {

constexpr uint64_t kMul = 0x9FB21C651E98DF25ull;

uint64_t Fmix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

template <typename T>
void Put(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(v));
}

template <typename T>
T Get(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Header layout (little-endian host order; sender and receiver share a host):
//   u32 magic | u8 workload | u8 kind | u16 group | u32 origin | u32 length
//   u64 seq | u64 stamp_ns | u64 check
void EncodeHeader(const PayloadInfo& info, uint64_t check, uint8_t* p) {
  Put<uint32_t>(p + 0, kPayloadMagic);
  p[4] = info.workload;
  p[5] = static_cast<uint8_t>(info.kind);
  Put<uint16_t>(p + 6, info.group);
  Put<uint32_t>(p + 8, info.origin);
  Put<uint32_t>(p + 12, info.length);
  Put<uint64_t>(p + 16, info.seq);
  Put<uint64_t>(p + 24, info.stamp_ns);
  Put<uint64_t>(p + 32, check);
}

}  // namespace

void BodyHasher::MixWord(uint64_t w) {
  h_ ^= w;
  h_ *= kMul;
  h_ = (h_ << 31) | (h_ >> 33);
}

void BodyHasher::Update(const uint8_t* p, size_t n) {
  total_ += n;
  if (nbuf_ > 0) {
    size_t take = std::min(n, 8 - nbuf_);
    std::memcpy(buf_ + nbuf_, p, take);
    nbuf_ += take;
    p += take;
    n -= take;
    if (nbuf_ < 8) {
      return;
    }
    MixWord(Get<uint64_t>(buf_));
    nbuf_ = 0;
  }
  while (n >= 8) {
    MixWord(Get<uint64_t>(p));
    p += 8;
    n -= 8;
  }
  std::memcpy(buf_, p, n);
  nbuf_ = n;
}

uint64_t BodyHasher::Final() const {
  uint64_t h = h_;
  if (nbuf_ > 0) {
    uint8_t word[8] = {};
    std::memcpy(word, buf_, nbuf_);
    h ^= Get<uint64_t>(word);
    h *= kMul;
  }
  return Fmix(h ^ total_);
}

BodyHasher BodyHasher::Resume(uint64_t state, size_t words) {
  BodyHasher b;
  b.h_ = state;
  b.total_ = words * 8;
  return b;
}

uint64_t HeaderCheck(const PayloadInfo& info, uint64_t body_hash) {
  uint64_t h = body_hash;
  auto mix = [&h](uint64_t v) { h = Fmix(h ^ (v * kMul)); };
  mix(info.workload);
  mix(static_cast<uint64_t>(info.kind));
  mix(info.group);
  mix(info.origin);
  mix(info.length);
  mix(info.seq);
  mix(info.stamp_ns);
  return h;
}

BodyPool::BodyPool(uint64_t seed, size_t max_body) {
  ensemble::Rng rng(seed);
  for (size_t v = 0; v < kVariants; v++) {
    Bytes b = Bytes::Allocate(max_body);
    uint8_t* p = b.MutableData();
    for (size_t i = 0; i < max_body; i += 8) {
      uint64_t r = rng.Next();
      std::memcpy(p + i, &r, std::min<size_t>(8, max_body - i));
    }
    std::vector<uint64_t> prefix(max_body / 8 + 1);
    BodyHasher h;
    prefix[0] = h.state();
    for (size_t w = 0; w < max_body / 8; w++) {
      h.Update(p + w * 8, 8);
      prefix[w + 1] = h.state();
    }
    bodies_.push_back(std::move(b));
    prefix_.push_back(std::move(prefix));
  }
}

Bytes BodyPool::Body(size_t v, size_t len) const {
  return bodies_[v % kVariants].Slice(0, len);
}

uint64_t BodyPool::Hash(size_t v, size_t len) const {
  size_t words = len / 8;
  BodyHasher h = BodyHasher::Resume(prefix_[v % kVariants][words], words);
  h.Update(bodies_[v % kVariants].data() + words * 8, len - words * 8);
  return h.Final();
}

Iovec PayloadWriter::Make(const PayloadInfo& info) {
  if (used_ + kHeaderBytes > kArenaBytes) {
    arena_ = Bytes::Allocate(kArenaBytes);
    used_ = 0;
  }
  size_t body_len = info.length - kHeaderBytes;
  size_t variant = info.seq ^ info.origin;
  EncodeHeader(info, HeaderCheck(info, pool_->Hash(variant, body_len)),
               arena_.MutableData() + used_);
  Iovec out;
  out.Reserve(2);
  out.Append(arena_.Slice(used_, kHeaderBytes));
  out.Append(pool_->Body(variant, body_len));
  used_ += kHeaderBytes;
  return out;
}

bool ParsePayload(const Iovec& payload, PayloadInfo* out) {
  if (payload.size() < kHeaderBytes) {
    return false;
  }
  // Gather the header (it may straddle parts), then hash the body in place.
  uint8_t hdr[kHeaderBytes];
  size_t have = 0;
  BodyHasher body;
  for (size_t i = 0; i < payload.part_count(); i++) {
    const Bytes& part = payload.part(i);
    size_t take = std::min(part.size(), kHeaderBytes - have);
    std::memcpy(hdr + have, part.data(), take);
    have += take;
    body.Update(part.data() + take, part.size() - take);
  }
  if (Get<uint32_t>(hdr) != kPayloadMagic) {
    return false;
  }
  PayloadInfo info;
  info.workload = hdr[4];
  info.kind = static_cast<PayloadKind>(hdr[5]);
  info.group = Get<uint16_t>(hdr + 6);
  info.origin = Get<uint32_t>(hdr + 8);
  info.length = Get<uint32_t>(hdr + 12);
  info.seq = Get<uint64_t>(hdr + 16);
  info.stamp_ns = Get<uint64_t>(hdr + 24);
  if (info.length != payload.size() ||
      Get<uint64_t>(hdr + 32) != HeaderCheck(info, body.Final())) {
    return false;
  }
  *out = info;
  return true;
}

// ---- Tracker ----------------------------------------------------------------

Tracker::Tracker(std::vector<int> group_of) : group_of_(std::move(group_of)) {
  size_t n = group_of_.size();
  int groups = 0;
  for (int g : group_of_) {
    groups = std::max(groups, g + 1);
  }
  group_size_.assign(static_cast<size_t>(groups), 0);
  for (int g : group_of_) {
    group_size_[static_cast<size_t>(g)]++;
  }
  books_.resize(n);
  expected_.assign(n, std::vector<uint64_t>(n, 0));
  expected_answer_.assign(n, std::vector<uint64_t>(n, 0));
}

void Tracker::OnCast(uint32_t origin, uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  OriginBook& book = books_[origin];
  if (book.records.empty()) {
    book.base = seq;
  }
  Record r;
  r.pending = group_size_[static_cast<size_t>(group_of_[origin])] - 1;
  book.records.push_back(r);
  attempted_++;
  outstanding_++;
  Retire(book);  // A group of one completes at once.
}

Tracker::Record* Tracker::Find(uint32_t origin, uint64_t seq) {
  if (origin >= books_.size()) {
    return nullptr;
  }
  OriginBook& book = books_[origin];
  if (seq < book.base || seq - book.base >= book.records.size()) {
    return nullptr;
  }
  return &book.records[seq - book.base];
}

void Tracker::FailCast(uint32_t origin, uint64_t seq) {
  Record* r = Find(origin, seq);
  if (r != nullptr) {
    r->failed = true;
  } else if (books_[origin].failed_retired.insert(seq).second) {
    failed_++;  // Retired as delivered, now violated: it failed after all.
  }
}

void Tracker::Retire(OriginBook& book) {
  while (!book.records.empty()) {
    const Record& r = book.records.front();
    if (r.failed) {
      failed_++;
      book.failed_retired.insert(book.base);
    } else if (r.pending <= 0) {
      window_.completed++;
    } else {
      break;
    }
    outstanding_--;
    book.records.pop_front();
    book.base++;
  }
}

bool Tracker::OnDeliver(int receiver, const Iovec& payload, uint64_t now_ns,
                        PayloadInfo* info_out) {
  PayloadInfo info;
  bool ok = ParsePayload(payload, &info);
  std::lock_guard<std::mutex> lock(mu_);
  size_t rcv = static_cast<size_t>(receiver);
  if (!ok || info.origin >= books_.size()) {
    v_.corrupt++;
    unattributed_++;
    return false;
  }
  if (info.kind == PayloadKind::kAnswer) {
    uint64_t& want = expected_answer_[rcv][info.origin];
    if (info.seq != want) {
      v_.answers_bad++;
      unattributed_++;
    }
    want = info.seq + 1;
    *info_out = info;
    return true;
  }
  if (info.origin == static_cast<uint32_t>(receiver)) {
    own_++;  // Local loopback of our own cast: not a peer delivery.
    *info_out = info;
    return true;
  }
  if (group_of_[info.origin] != group_of_[rcv] ||
      info.group != static_cast<uint16_t>(group_of_[info.origin])) {
    v_.foreign++;
    FailCast(info.origin, info.seq);
    Retire(books_[info.origin]);
    *info_out = info;
    return true;
  }
  uint64_t& want = expected_[rcv][info.origin];
  if (info.seq < want) {
    // A cast this receiver skipped over earlier is already failed: its late
    // arrival is the reordering.  Anything else is a second copy.
    Record* r = Find(info.origin, info.seq);
    bool skipped = r != nullptr ? r->failed : books_[info.origin].failed_retired.count(info.seq) > 0;
    if (skipped) {
      v_.reordered++;
    } else {
      v_.duplicate++;
    }
    FailCast(info.origin, info.seq);
  } else {
    for (uint64_t s = want; s < info.seq; s++) {
      FailCast(info.origin, s);  // Skipped over: out of order if it ever comes.
    }
    want = info.seq + 1;
    Record* r = Find(info.origin, info.seq);
    if (r != nullptr) {
      r->pending--;
      progress_++;
      window_.delivered_bytes += info.length;
      window_.latency_ns.push_back(now_ns > info.stamp_ns ? now_ns - info.stamp_ns : 0);
    } else if (books_[info.origin].failed_retired.count(info.seq) == 0) {
      v_.corrupt++;  // Valid check word but never cast.
      unattributed_++;
    }
  }
  Retire(books_[info.origin]);
  *info_out = info;
  return true;
}

Window Tracker::TakeWindow() {
  std::lock_guard<std::mutex> lock(mu_);
  Window w = std::move(window_);
  window_ = Window{};
  window_.latency_ns.reserve(w.latency_ns.capacity());
  return w;
}

void Tracker::FailOutstanding() {
  std::lock_guard<std::mutex> lock(mu_);
  for (OriginBook& book : books_) {
    for (Record& r : book.records) {
      if (!r.failed) {
        r.failed = true;
        v_.stalled++;
      }
    }
    Retire(book);
  }
}

uint64_t Tracker::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}
uint64_t Tracker::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::min(attempted_, failed_ + unattributed_);
}
uint64_t Tracker::outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outstanding_;
}
uint64_t Tracker::outstanding_of(uint32_t origin) const {
  std::lock_guard<std::mutex> lock(mu_);
  return books_[origin].records.size();
}
uint64_t Tracker::progress() const {
  std::lock_guard<std::mutex> lock(mu_);
  return progress_;
}
Tracker::Violations Tracker::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return v_;
}
uint64_t Tracker::own_deliveries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return own_;
}

}  // namespace perfbench
