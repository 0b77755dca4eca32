#include "rpcoib/buffer_pool.hpp"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "sim/frame_pool.hpp"
#include "trace/trace.hpp"

namespace rpcoib::oib {

// Payload vectors of every size the pool serves come from the heap.
static_assert(PoolConfig{}.max_class == sim::kHeapMmapThreshold);

namespace {

// ---------------------------------------------------------------------------
// Block store: the host memory behind every pool's buffers.
//
// The paper's pool pre-registers far more native memory than a run ever
// leases, and a benchmark builds and tears down its endpoints repeatedly.
// So blocks are carved from large anonymous mappings, which read as zero
// and become resident only in the pages something writes, and a destroyed
// pool's blocks are recycled by exact size instead of being freed. Every
// block taken reads all-zero, as a fresh net::Bytes(n) did: a block whose
// buffer was ever leased is cleared when it comes back.
//
// A cleared block stays resident ("warm"), so the next pool of the same
// shape reuses it without page faults. Before new memory is carved, the
// whole pages of every warm block are handed back to the kernel (they read
// as zero again), so a run whose buffer sizes change from one set-up to
// the next does not keep the old sizes resident.
//
// Under AddressSanitizer a stored block is poisoned, so use of a destroyed
// pool's buffer is reported, and every block is followed by a poisoned
// guard, so an overflow into the next block is reported. The ASAN_* macros
// are no-ops in other builds.
class BlockStore {
 public:
  BlockStore() = default;
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;
  ~BlockStore() {
    for (const auto& [base, len] : chunks_) ::munmap(base, len);
  }

  net::Byte* take(std::size_t size) {
    Stored& stored = stored_[size];
    net::Byte* p;
    if (!stored.warm.empty()) {
      p = stored.warm.back();
      stored.warm.pop_back();
      --warm_blocks_;
    } else if (!stored.cold.empty()) {
      p = stored.cold.back();
      stored.cold.pop_back();
    } else {
      cool_down();
      p = carve(size);
    }
    ASAN_UNPOISON_MEMORY_REGION(p, size);
    return p;
  }

  void give(net::Byte* p, std::size_t size, bool dirty) {
    Stored& stored = stored_[size];
    if (dirty) {
      std::memset(p, 0, size);
      stored.warm.push_back(p);
      ++warm_blocks_;
    } else {
      stored.cold.push_back(p);
    }
    ASAN_POISON_MEMORY_REGION(p, size);
  }

 private:
  struct Stored {
    std::vector<net::Byte*> warm;  // cleared on return, so resident
    std::vector<net::Byte*> cold;  // resident at most in pages shared with neighbours
  };

  static constexpr std::size_t kChunkBytes = 4u << 20;
  static constexpr std::size_t kAlign = 64;
  static constexpr std::size_t kGuardBytes = RPCOIB_ASAN_BUILD ? kAlign : 0;

  static std::size_t round_up(std::size_t n, std::size_t to) { return (n + to - 1) / to * to; }

  void cool_down() {
    if (warm_blocks_ == 0) return;
    static const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    for (auto& [size, stored] : stored_) {
      for (net::Byte* p : stored.warm) {
        const std::uintptr_t lo = round_up(reinterpret_cast<std::uintptr_t>(p), page);
        const std::uintptr_t hi = (reinterpret_cast<std::uintptr_t>(p) + size) / page * page;
        if (lo < hi) ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
      }
      stored.cold.insert(stored.cold.end(), stored.warm.begin(), stored.warm.end());
      stored.warm.clear();
    }
    warm_blocks_ = 0;
  }

  net::Byte* carve(std::size_t size) {
    const std::size_t need = round_up(size + kGuardBytes, kAlign);
    if (need > left_) {
      const std::size_t len = round_up(need, kChunkBytes);
      void* m = ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (m == MAP_FAILED) throw std::bad_alloc();
      chunks_.emplace_back(m, len);
      // A transparent huge page would make 2 MB resident for one written byte.
      ::madvise(m, len, MADV_NOHUGEPAGE);
      ASAN_POISON_MEMORY_REGION(m, len);
      auto* chunk = static_cast<net::Byte*>(m);
      // Keep carving from whichever chunk has more room left.
      if (len - need <= left_) return chunk;
      next_ = chunk;
      left_ = len;
    }
    net::Byte* p = next_;
    next_ += need;
    left_ -= need;
    return p;
  }

  std::vector<std::pair<void*, std::size_t>> chunks_;  // every mapping, for the destructor
  std::unordered_map<std::size_t, Stored> stored_;
  std::size_t warm_blocks_ = 0;
  net::Byte* next_ = nullptr;  // uncarved tail of the current chunk
  std::size_t left_ = 0;
};

thread_local BlockStore store;

}  // namespace

NativeBufferPool::NativeBufferPool(cluster::Host& host, verbs::VerbsStack& stack,
                                   PoolConfig cfg)
    : host_(host), pd_(stack, host), cfg_(cfg) {
  if (cfg_.min_class == 0 || cfg_.min_class > cfg_.max_class) {
    throw std::invalid_argument("bad pool class bounds");
  }
  for (std::size_t s = cfg_.min_class; s <= cfg_.max_class; s *= 2) {
    class_sizes_.push_back(s);
  }
  free_.resize(class_sizes_.size());
}

NativeBufferPool::~NativeBufferPool() {
  for (NativeBuffer& b : owned_) store.give(b.span.data(), b.span.size(), b.dirty);
}

std::size_t NativeBufferPool::class_index_for(std::size_t size) const {
  for (std::size_t i = 0; i < class_sizes_.size(); ++i) {
    if (class_sizes_[i] >= size) return i;
  }
  throw std::length_error("buffer request exceeds pool max class");
}

std::size_t NativeBufferPool::class_size_for(std::size_t size) const {
  return class_sizes_[class_index_for(size)];
}

NativeBuffer& NativeBufferPool::make_buffer(std::size_t cls_index) {
  const std::size_t size = class_sizes_[cls_index];
  net::Byte* block = store.take(size);
  NativeBuffer& buf = owned_.emplace_back();
  buf.span = net::MutByteSpan(block, size);
  buf.cls = cls_index;
  return buf;
}

sim::Co<void> NativeBufferPool::initialize(std::size_t extra_size,
                                           std::size_t extra_count) {
  if (initialized_) co_return;
  initialized_ = true;
  // Registration happens once at library load; its span is a root of its
  // own trace (no RPC is in flight yet) so the cost stays visible even
  // though it is off every call's critical path.
  trace::SpanScope reg(trace::active(host_.tracer()), "pool.register",
                       trace::Kind::kInternal, trace::Category::kBuffer,
                       trace::TraceContext{}, host_.id());
  std::size_t registered = 0;
  for (std::size_t c = 0; c < class_sizes_.size(); ++c) {
    if (class_sizes_[c] > cfg_.prealloc_max_class) break;
    for (std::size_t i = 0; i < cfg_.buffers_per_class; ++i) {
      NativeBuffer& buf = make_buffer(c);
      buf.mr = co_await pd_.register_mr(buf.span);
      stats_.registered_bytes += buf.span.size();
      free_[c].push_back(&buf);
      ++registered;
    }
  }
  if (extra_size > 0) {
    const std::size_t c = class_index_for(extra_size);
    for (std::size_t i = 0; i < extra_count; ++i) {
      NativeBuffer& buf = make_buffer(c);
      buf.mr = co_await pd_.register_mr(buf.span);
      stats_.registered_bytes += buf.span.size();
      free_[c].push_back(&buf);
      ++registered;
    }
  }
  if (reg) reg.annotate("buffers", std::to_string(registered));
}

NativeBuffer* NativeBufferPool::acquire(std::size_t size) {
  const std::size_t c = class_index_for(size);
  ++stats_.acquires;
  if (!free_[c].empty()) {
    ++stats_.freelist_hits;
    NativeBuffer* buf = free_[c].back();
    free_[c].pop_back();
    buf->leased = buf->dirty = true;
    return buf;
  }
  // Pool ran dry for this class: demand-allocate + register (untimed here;
  // the miss is visible in stats and the registration cost is charged by
  // the caller if it cares — on the paper's workloads this path is cold).
  ++stats_.demand_allocations;
  NativeBuffer& buf = make_buffer(c);
  buf.mr = pd_.register_mr_untimed(buf.span);
  stats_.registered_bytes += buf.span.size();
  buf.leased = buf.dirty = true;
  return &buf;
}

NativeBuffer* NativeBufferPool::try_acquire(std::size_t size) {
  const std::size_t c = class_index_for(size);
  if (free_[c].empty() && cfg_.demand_alloc_cap != 0 &&
      stats_.demand_allocations >= cfg_.demand_alloc_cap) {
    ++stats_.demand_denied;
    return nullptr;
  }
  return acquire(size);
}

void NativeBufferPool::release(NativeBuffer* buf) {
  if (buf == nullptr) return;
  if (!buf->leased) throw std::logic_error("double release of pooled buffer");
  buf->leased = false;
  ++stats_.releases;
  free_[buf->cls].push_back(buf);
}

NativeBuffer* ShadowPool::acquire_for(const rpc::MethodKey& key) {
  auto it = history_.find(key);
  const std::size_t want = it == history_.end() ? native_.config().min_class : it->second;
  return native_.acquire(want);
}

void ShadowPool::update_history(const rpc::MethodKey& key, std::size_t used) {
  const std::size_t fit = native_.class_size_for(used == 0 ? 1 : used);
  auto [it, inserted] = history_.emplace(key, fit);
  if (!inserted) {
    if (fit > it->second) {
      // The stream had to re-get bigger buffers: grow the record.
      it->second = fit;
      ++native_.stats().history_misses;
    } else if (fit < it->second) {
      // Oversized: shrink toward the actual need to bound footprint.
      it->second = fit;
      ++native_.stats().history_shrinks;
    } else {
      ++native_.stats().history_hits;
    }
  }
}

void ShadowPool::release_for(const rpc::MethodKey& key, NativeBuffer* buf,
                             std::size_t used) {
  update_history(key, used);
  native_.release(buf);
}

std::size_t ShadowPool::history(const rpc::MethodKey& key) const {
  auto it = history_.find(key);
  return it == history_.end() ? 0 : it->second;
}

}  // namespace rpcoib::oib
