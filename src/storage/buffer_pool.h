#ifndef VIEWJOIN_STORAGE_BUFFER_POOL_H_
#define VIEWJOIN_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/pager.h"
#include "util/status.h"

namespace viewjoin::storage {

/// Sharded LRU page cache in front of a Pager. All list cursors read through
/// a pool; hit/miss counters let benches report logical vs. physical page
/// accesses.
///
/// Pages are immutable once written (views are write-once, read-many), so the
/// pool never writes back. The pool is safe for concurrent readers: frames
/// are distributed over N shards keyed by a PageId hash, each shard with its
/// own mutex and LRU list, so queries running on different worker threads
/// only contend when they touch the same shard at the same instant.
///
/// Returned pages are *pinned*: Fetch/GetPage hand back a PinnedPage handle
/// that holds a per-frame pin count, and a pinned frame is never evicted —
/// the data pointer stays valid for as long as the handle lives, no matter
/// what other threads fetch in the meantime. (The previous design returned
/// raw pointers valid only "until the next eviction", a latent dangling-
/// pointer hazard once two cursors shared one pool.) Eviction takes the
/// least-recently-used *unpinned* frame; when every frame of a shard is
/// pinned the shard temporarily overflows its capacity share rather than
/// invalidating a held page.
///
/// Failure model: Fetch is the Status-returning primitive. GetPage keeps the
/// infallible signature the join inner loops rely on — on a failed fetch it
/// latches the error (error()/error_page()) and hands back a poison page of
/// 0xFF bytes, which every algorithm reads as an exhausted stream with null
/// pointers. The engine checks the latch after a run and discards the
/// result, so a corrupt page can stop a run early but never fabricate a
/// match. Under ExecuteBatch each query installs a thread-local ErrorScope,
/// so one query's poison latch never contaminates a sibling query running
/// against the same pool.
///
/// `capacity` is the total number of cached frames and must be >= 1; a pool
/// constructed with capacity 0 is rejected at use: every Fetch returns
/// Status::InvalidArgument (and GetPage latches it and returns poison).
/// Capacity is split evenly across shards (at least one frame per shard), so
/// tiny pools may cache slightly more than `capacity` frames in total.
class BufferPool {
 private:
  struct Frame;
  struct Shard;

 public:
  /// Default shard count (rounded down to the pool capacity when smaller, so
  /// a capacity-1 pool degenerates to one shard with exact LRU behaviour).
  static constexpr size_t kDefaultShards = 8;

  BufferPool(Pager* pager, size_t capacity, size_t shards = kDefaultShards);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// RAII pin on one cached page. While any PinnedPage for a frame lives,
  /// the frame cannot be evicted and data() stays valid. Copying re-pins;
  /// destruction (or Release) unpins. A default-constructed handle is
  /// invalid; a poison handle (from a failed GetPage) is valid but unpinned
  /// (the poison page is owned by the pool and immortal).
  class PinnedPage {
   public:
    PinnedPage() = default;
    PinnedPage(const PinnedPage& other);
    PinnedPage& operator=(const PinnedPage& other);
    PinnedPage(PinnedPage&& other) noexcept;
    PinnedPage& operator=(PinnedPage&& other) noexcept;
    ~PinnedPage() { Release(); }

    bool valid() const { return data_ != nullptr; }
    /// Page id this handle was fetched for (kInvalidPage when invalid).
    PageId page() const { return page_; }
    /// The kPageSize-byte page content (nullptr when invalid).
    const uint8_t* data() const { return data_; }

    /// Drops the pin (idempotent); the handle becomes invalid.
    void Release();

   private:
    friend class BufferPool;
    PinnedPage(BufferPool* pool, Shard* shard, Frame* frame);
    PinnedPage(PageId page, const uint8_t* poison);  // unpinned poison handle

    BufferPool* pool_ = nullptr;  // null for empty and poison handles
    Shard* shard_ = nullptr;
    Frame* frame_ = nullptr;
    PageId page_ = kInvalidPage;
    const uint8_t* data_ = nullptr;
  };

  /// Redirects the calling thread's error latching on `pool` into a private
  /// latch for the scope's lifetime: page faults observed while the scope is
  /// active are recorded here instead of in the pool-global latch. This is
  /// how ExecuteBatch keeps degraded/quarantine state per query — each worker
  /// wraps each query in a scope, so a sibling's fault is invisible to it.
  /// Scopes nest (per thread, innermost matching pool wins) and must be
  /// destroyed on the thread that created them.
  class ErrorScope {
   public:
    explicit ErrorScope(BufferPool* pool);
    ~ErrorScope();

    ErrorScope(const ErrorScope&) = delete;
    ErrorScope& operator=(const ErrorScope&) = delete;

    /// First fetch failure observed in this scope since the last Clear().
    const util::Status& error() const { return error_; }
    /// Page id of that first failure (kInvalidPage when none).
    PageId error_page() const { return error_page_; }
    void Clear() {
      error_ = util::Status::Ok();
      error_page_ = kInvalidPage;
    }

   private:
    friend class BufferPool;
    BufferPool* pool_;
    ErrorScope* prev_;
    util::Status error_;
    PageId error_page_ = kInvalidPage;
  };

  /// Counts this thread's page accesses on `pool` for the scope's lifetime,
  /// in addition to the pool-global hit/miss counters. Unlike ErrorScope
  /// (where the innermost matching scope *captures* the fault), every active
  /// StatsScope for the pool is credited, so a plan-step scope nested inside
  /// a whole-query scope sees its own slice while the outer scope still sees
  /// the total. Scopes nest per thread and must be destroyed on the thread
  /// that created them.
  class StatsScope {
   public:
    explicit StatsScope(BufferPool* pool);
    ~StatsScope();

    StatsScope(const StatsScope&) = delete;
    StatsScope& operator=(const StatsScope&) = delete;

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t reads() const { return hits_ + misses_; }

   private:
    friend class BufferPool;
    BufferPool* pool_;
    StatsScope* prev_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
  };

  /// Fetches `page` through the cache and pins it into `*out` (replacing
  /// whatever `*out` held). Failed reads are not cached and do not touch the
  /// error latch.
  util::Status Fetch(PageId page, PinnedPage* out);

  /// Returns a pinned handle on `page`, or an unpinned poison handle (all
  /// 0xFF) after latching the error when the read fails.
  PinnedPage GetPage(PageId page);

  /// First fetch failure since the last ResetError() (OK when none). Errors
  /// captured by an active ErrorScope bypass this pool-global latch.
  util::Status error() const;
  /// Page id of that first failure (kInvalidPage when none).
  PageId error_page() const;
  /// Clears the pool-global error latch. Clear() also does this, and the
  /// engine's quarantine path calls it after re-materializing a view so a
  /// stale poison latch cannot outlive the fault it recorded.
  void ResetError();

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  void ResetStats() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    prefetch_issued_.store(0, std::memory_order_relaxed);
    prefetch_hits_.store(0, std::memory_order_relaxed);
    prefetch_wasted_.store(0, std::memory_order_relaxed);
  }

  // ---- Asynchronous read-ahead ---------------------------------------------
  //
  // An optional background I/O thread fetches pages a cursor is about to
  // land on so the demand fetch finds them resident. Prefetch is pure
  // speculation and therefore side-effect free on every observable failure
  // surface: a failed prefetch read never latches the error (the demand
  // fetch will re-read and report it with full retry/scope semantics), a
  // full shard drops the speculative page instead of overflowing capacity,
  // and prefetch reads are not counted as pool misses (those mean "a demand
  // read had to wait"). The counters tell the speculation's worth: a hit is
  // a demand fetch served by a prefetched frame, a wasted prefetch is a
  // prefetched frame evicted (or cleared) untouched.

  /// Sets the read-ahead depth cursors should use and starts (depth > 0) or
  /// stops and joins (depth == 0) the background thread. Thread-safe.
  void SetReadAhead(size_t depth);

  /// Depth set by SetReadAhead; cursors prefetch this many pages ahead of a
  /// block landing (0 = read-ahead off, the default).
  size_t read_ahead_depth() const {
    return read_ahead_depth_.load(std::memory_order_relaxed);
  }

  /// Enqueues `page` for background fetch. No-op when read-ahead is off,
  /// the page is already cached or queued, or the queue is full (speculation
  /// never blocks the caller).
  void Prefetch(PageId page);

  /// True when `page` is currently cached (pinned or not). A one-shard probe
  /// with no LRU movement and no counter side effects — the planner uses it
  /// to price resident vs cold lists.
  bool Contains(PageId page);

  /// Blocks until the prefetch queue is empty and the worker is idle (tests
  /// and benches use this to measure with a settled cache). No-op when
  /// read-ahead is off.
  void DrainPrefetches();

  uint64_t prefetch_issued() const {
    return prefetch_issued_.load(std::memory_order_relaxed);
  }
  uint64_t prefetch_hits() const {
    return prefetch_hits_.load(std::memory_order_relaxed);
  }
  uint64_t prefetch_wasted() const {
    return prefetch_wasted_.load(std::memory_order_relaxed);
  }

  /// Total frames evicted so far. Cursors no longer need to revalidate
  /// against this (pins make their pointers stable); it remains as an
  /// observability counter for tests and benches.
  uint64_t eviction_version() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }

  /// Number of frames currently pinned by live PinnedPage handles. Quiescent
  /// engines must report 0 — governance tests assert an aborted (timed-out,
  /// cancelled) query leaks no pins.
  size_t pinned_frames();

  /// Drops every cached frame that is not currently pinned (cold-cache
  /// experiments) and resets the pool-global error latch — a cleared pool
  /// must not keep reporting a fault from a previous run.
  void Clear();

 private:
  struct Frame {
    PageId page = kInvalidPage;
    uint32_t pins = 0;  // guarded by the owning shard's mutex
    /// Landed via the read-ahead thread and not yet demanded (guarded by the
    /// owning shard's mutex, like pins).
    bool prefetched = false;
    std::vector<uint8_t> data;
  };

  struct Shard {
    std::mutex mu;
    std::list<Frame> lru;  // front = most recent; node addresses are stable
    std::unordered_map<PageId, std::list<Frame>::iterator> index;
  };

  Shard& ShardFor(PageId page);
  /// Evicts LRU unpinned frames until the shard is under its capacity share.
  /// Caller holds the shard mutex.
  void EvictForSpace(Shard* shard);
  void Unpin(Shard* shard, Frame* frame);
  void LatchError(const util::Status& status, PageId page);
  void CreditScopes(bool hit);
  /// The background read-ahead thread's main loop.
  void ReadAheadLoop();
  /// Fetches one prefetch request (outside all shard locks) and inserts it.
  void FulfillPrefetch(PageId page);
  /// Stops and joins the read-ahead thread; pending requests are dropped.
  void StopReadAhead();

  Pager* pager_;
  size_t capacity_;
  size_t per_shard_capacity_ = 1;
  uint32_t shard_mask_ = 0;  // shard count is a power of two
  std::vector<Shard> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  mutable std::mutex error_mu_;
  util::Status error_;
  PageId error_page_ = kInvalidPage;
  std::vector<uint8_t> poison_;

  // Read-ahead state. The queue and its membership set are guarded by
  // prefetch_mu_; the worker thread exists iff read_ahead_depth_ > 0 (both
  // transitions under prefetch_mu_ via SetReadAhead).
  static constexpr size_t kMaxPrefetchQueue = 256;
  std::atomic<size_t> read_ahead_depth_{0};
  std::atomic<uint64_t> prefetch_issued_{0};
  std::atomic<uint64_t> prefetch_hits_{0};
  std::atomic<uint64_t> prefetch_wasted_{0};
  std::mutex prefetch_mu_;
  std::condition_variable prefetch_cv_;
  std::condition_variable prefetch_idle_cv_;
  std::deque<PageId> prefetch_queue_;
  std::unordered_set<PageId> prefetch_queued_;
  bool prefetch_stop_ = false;
  bool prefetch_busy_ = false;
  std::thread prefetch_thread_;
};

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_BUFFER_POOL_H_
