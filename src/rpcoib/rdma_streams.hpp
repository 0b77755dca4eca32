// RDMAOutputStream / RDMAInputStream (paper Section III-A/III-B, Fig. 2).
//
// Java-IO-compatible streams whose backing storage is a pre-registered
// native buffer from the two-level pool. Serialization writes land
// directly in RDMA-accessible memory: no JVM-heap intermediate, no
// serialize-then-copy, no heap->native copy at send time. When the buffer
// fills, the stream re-gets a doubled buffer from the pool (the warm path
// never does this, thanks to message size locality).
#pragma once

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "rpc/writable.hpp"
#include "rpcoib/buffer_pool.hpp"

namespace rpcoib::oib {

class RDMAOutputStream final : public rpc::DataOutput {
 public:
  /// Acquires the initial buffer via the shadow pool's history for `key`,
  /// which must outlive the stream.
  RDMAOutputStream(const cluster::CostModel& cm, ShadowPool& pool, const rpc::MethodKey& key)
      : rpc::DataOutput(cm), pool_(pool), key_(key) {
    for (std::size_t n = 0; n < put_cost_.size(); ++n) put_cost_[n] = cm.direct_copy(n);
    adopt(pool_.acquire_for(key_), 0);
    // Pool acquire is a freelist pop, amortizing the registration done at
    // library load — orders of magnitude below a JVM allocation.
    accrue(kAcquireDur);
  }
  RDMAOutputStream(const cluster::CostModel&, ShadowPool&, rpc::MethodKey&&) = delete;

  ~RDMAOutputStream() override {
    // Streams normally hand the buffer to the transport via take_buffer();
    // if serialization failed mid-way, return it without history update.
    if (buf_ != nullptr) pool_.release(buf_);
  }

  /// Writes the put area cannot take: empty and bulk ones, and any that
  /// overflow the buffer.
  void write_raw(net::ByteSpan bs) override {
    const std::size_t count = length();
    while (count + bs.size() > buf_->span.size()) regrow(count + bs.size());
    if (!bs.empty()) std::memcpy(put_cur_, bs.data(), bs.size());  // data() may be null
    accrue(cost_model().direct_copy(bs.size()));
    put_cur_ += bs.size();
  }

  net::ByteSpan data() const { return net::ByteSpan(base_, length()); }
  std::size_t length() const { return static_cast<std::size_t>(put_cur_ - base_); }
  const verbs::MemoryRegion& mr() const { return buf_->mr; }

  /// Times the stream had to re-get a larger buffer (the RPCoIB analogue
  /// of Algorithm 1's "memory adjustment"; ~0 on the warm path).
  std::uint64_t regets() const { return regets_; }

  /// Detach the buffer for the transport to own until the call completes.
  /// The caller must eventually `finish()` it back to the pool.
  NativeBuffer* take_buffer() {
    put_end_ = put_cur_;  // the stream no longer owns the free space
    return std::exchange(buf_, nullptr);
  }

  /// Return a taken buffer to the pool, updating the size history.
  void finish(NativeBuffer* b) { pool_.release_for(key_, b, length()); }

  const rpc::MethodKey& key() const { return key_; }

  static constexpr double kAcquireUs = 0.15;

 private:
  static constexpr sim::Dur kAcquireDur = sim::from_us(kAcquireUs);

  /// Make `b` the stream's buffer, its first `count` bytes already written.
  void adopt(NativeBuffer* b, std::size_t count) {
    buf_ = b;
    base_ = b->span.data();
    put_cur_ = base_ + count;
    put_end_ = base_ + b->span.size();
  }

  void regrow(std::size_t need) {
    // Mid-serialization grows honor demand_alloc_cap exactly like the
    // server's rendezvous fetch: a capped-out pool refuses the re-get
    // instead of expanding registered native memory without bound, and
    // callers degrade (client: socket fallback; server: retryable busy).
    const std::size_t want = std::max(need, buf_->span.size() * 2);
    NativeBuffer* bigger = pool_.try_acquire_sized(want);
    if (bigger == nullptr) {
      throw PoolExhaustedError("buffer pool exhausted re-getting " +
                               std::to_string(want) + " bytes for " + key_.protocol + "." +
                               key_.method);
    }
    const std::size_t count = length();
    std::memcpy(bigger->span.data(), base_, count);
    accrue(cost_model().direct_copy(count) + kAcquireDur);
    pool_.release(buf_);
    adopt(bigger, count);
    ++regets_;
  }

  ShadowPool& pool_;
  const rpc::MethodKey& key_;
  NativeBuffer* buf_ = nullptr;
  net::Byte* base_ = nullptr;  // start of the buffer (kept after take_buffer)
  std::uint64_t regets_ = 0;
};

/// Reads directly from a registered native buffer — the receive side of
/// Fig. 2. No per-call heap allocation, no native->heap copy: the paper's
/// Section II-B bottleneck is structurally absent.
class RDMAInputStream final : public rpc::DataInput {
 public:
  RDMAInputStream(const cluster::CostModel& cm, net::ByteSpan data) : rpc::DataInput(cm, data) {}
};

}  // namespace rpcoib::oib
