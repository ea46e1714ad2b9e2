#ifndef VIEWJOIN_STORAGE_MATERIALIZED_VIEW_H_
#define VIEWJOIN_STORAGE_MATERIALIZED_VIEW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/manifest.h"
#include "storage/stored_list.h"
#include "tpq/pattern.h"
#include "util/status.h"
#include "xml/document.h"

namespace viewjoin::storage {

/// Physical storage scheme of a materialized view (paper Sections I & III).
enum class Scheme {
  kElement,               // E : one plain label list per view node
  kTuple,                 // T : sorted n-tuples of labels (InterJoin's input)
  kLinkedElement,         // LE : label lists + all pointers
  kLinkedElementPartial,  // LE_p : child pointers + "far" follow/desc pointers
};

/// Human-readable scheme name ("E", "T", "LE", "LE_p").
const char* SchemeName(Scheme scheme);

/// Inverse of SchemeName: parses "E"/"T"/"LE"/"LE_p" (case-sensitive).
/// std::nullopt on anything else — callers reject unknown spellings instead
/// of silently defaulting.
std::optional<Scheme> ParseScheme(std::string_view name);

/// One materialized TPQ view in one storage scheme, resident in a pager file.
///
/// For E/LE/LE_p schemes, `lists()[i]` is L_q for view pattern node i — the
/// document-ordered solution nodes of that node, as 12-byte labels (E) or
/// labels + pointers (LE/LE_p). For the T scheme, `tuple_list()` holds all
/// view matches as n-tuples of labels sorted by composite start key.
///
/// Pointer deviation from the paper (see DESIGN.md): the stored *following*
/// pointer targets the first following same-type node in the list with no
/// "same lowest parent-type ancestor" side condition. The unconstrained
/// pointer makes every pointer jump provably safe (it skips exactly the
/// failed node's same-type descendants); the constrained variant can jump
/// over live nodes when view types nest recursively.
class MaterializedView {
 public:
  const tpq::TreePattern& pattern() const { return pattern_; }
  Scheme scheme() const { return scheme_; }

  /// The catalog epoch at which this view was installed — its durable
  /// identity in the manifest journal (0 only before installation).
  uint64_t epoch() const { return epoch_; }

  /// Per-view-node stored lists (E/LE/LE_p). Index = pattern node index.
  const std::vector<StoredList>& lists() const { return lists_; }
  const StoredList& list(int vnode) const {
    return lists_[static_cast<size_t>(vnode)];
  }

  /// The tuple list (T scheme only).
  const StoredList& tuple_list() const { return tuple_list_; }

  /// |L_q| for view node q (solution-node count; same for all schemes).
  uint32_t ListLength(int vnode) const {
    return list_lengths_[static_cast<size_t>(vnode)];
  }

  /// Number of matches of the view pattern (= tuple count in the T scheme).
  uint64_t MatchCount() const { return match_count_; }

  /// Logical size in bytes: labels (12 B each) for every scheme, plus 4 B
  /// per materialized (non-null, non-dropped) pointer for LE/LE_p.
  uint64_t SizeBytes() const { return size_bytes_; }

  /// Number of materialized pointers (LE/LE_p; 0 for E/T). Paper Table IV.
  uint64_t PointerCount() const { return pointer_count_; }

 private:
  friend class ViewCatalog;

  tpq::TreePattern pattern_;
  Scheme scheme_ = Scheme::kElement;
  uint64_t epoch_ = 0;
  std::vector<StoredList> lists_;
  StoredList tuple_list_;
  std::vector<uint32_t> list_lengths_;
  uint64_t match_count_ = 0;
  uint64_t size_bytes_ = 0;
  uint64_t pointer_count_ = 0;
};

/// What startup recovery did (and found) while reopening a persistent
/// catalog. Every action is the safe one: uncommitted state is rolled back,
/// not patched forward, and anything lost is re-queued for rebuilding.
struct RecoveryReport {
  /// The manifest journal ended in a torn record (crash mid-append); the
  /// fragment was dropped and the journal truncated at the last valid record.
  bool journal_tail_truncated = false;
  /// Pager pages past the journal's durable prefix (a crash between the data
  /// append and the journal commit) that were truncated away.
  uint32_t orphan_pages_truncated = 0;
  /// A "<path>.manifest.tmp" left by a checkpoint compaction that died
  /// before its rename was deleted (the original journal stayed in force).
  bool stale_checkpoint_removed = false;
  /// Update batches whose commit record never landed: replay rolled their
  /// installs back wholesale and recovery truncated the half-applied suffix,
  /// so the store reopened at the pre-batch epoch with the pre-batch views.
  uint64_t rolled_back_update_batches = 0;
  /// Views whose (re-)materialization a crash rolled back, plus quarantined
  /// views with no healthy replacement: the store serves without them, but a
  /// caller holding the source document should re-materialize each one.
  std::vector<std::pair<std::string, Scheme>> pending_rebuild;
};

/// Owns the pager + buffer pool and materializes views into them.
///
/// Usage:
///   ViewCatalog catalog("/tmp/views.db", /*pool_pages=*/256);
///   const MaterializedView* v = catalog.Materialize(doc, pattern, scheme);
///   ListCursor cursor(&v->list(0), catalog.pool());
///
/// Durability (persistent catalogs): every view's pages are staged in
/// memory, then installed as begin record -> one contiguous append to the
/// pager file + fsync -> install record in the manifest journal
/// ("<path>.manifest"). Only the install record makes the view exist, so a
/// crash at any instant leaves either the old catalog or the new one, never
/// a half-installed view: Open() replays the journal, truncates uncommitted
/// pager pages and torn journal tails, and reports rolled-back views in
/// recovery_report().pending_rebuild.
///
/// Thread-safety: the view registry (views/quarantine/replacement maps) is
/// mutex-guarded and the pager/pool are internally synchronized, so batch
/// workers can read views, look up replacements and even quarantine +
/// re-materialize concurrently; installs are serialized by an internal
/// install mutex (staging runs outside it, so evaluations still overlap).
/// views() returns the registry by reference and is for single-threaded
/// setup/inspection only — concurrent readers use ViewsSnapshot().
class ViewCatalog {
 public:
  /// `path` is the backing pager file; `pool_pages` the buffer pool capacity
  /// (must be >= 1 — the pool rejects capacity 0). With `persistent` the
  /// pager file survives the catalog and every install is journaled (pair
  /// with Open to reuse materialized views across processes).
  ViewCatalog(const std::string& path, size_t pool_pages,
              bool persistent = false);
  ~ViewCatalog();

  /// Compacts the manifest journal to one install record per live view
  /// (atomic tmp + fsync + rename) and reopens it for appending. Requires
  /// `persistent`. Journaled installs make this optional — it bounds journal
  /// growth and replay time, nothing more.
  util::Status Checkpoint();

  /// Point-in-time image of the catalog's durable state, for the hot-backup
  /// module: install records for every live view, quarantined epochs, the
  /// epoch counter, and the pager page count. Taken under the install mutex,
  /// so no install or update transaction is mid-flight: every page below
  /// `page_count` is committed and — because the catalog pager is
  /// append-only for committed pages — immutable, copyable afterwards with
  /// no lock held. Writing these records as a checkpoint-format manifest
  /// next to a copy of those pages yields a store Open() recovers cleanly.
  struct BackupSnapshot {
    std::vector<ManifestViewRecord> records;
    std::vector<uint64_t> quarantined_epochs;
    uint64_t epoch = 0;
    uint32_t page_count = 0;
  };
  BackupSnapshot SnapshotForBackup();

  /// Reopens a persisted catalog: the pager file plus its manifest journal,
  /// running startup recovery (see class comment; recovery_report() tells
  /// what it did). Returns kNotFound when either file is missing, kCorruption
  /// when the pager header is invalid, a journal record fails its checksum
  /// mid-file, or an install record points outside the pager file. A torn
  /// journal tail or a crash-truncated pager file is NOT corruption — those
  /// are the crash artifacts recovery exists to repair.
  static util::StatusOr<std::unique_ptr<ViewCatalog>> Open(
      const std::string& path, size_t pool_pages);

  /// What startup recovery did when this catalog was opened via Open()
  /// (default-constructed for fresh catalogs).
  const RecoveryReport& recovery_report() const { return recovery_; }

  /// Flushes and closes the journal and the pager, surfacing the final
  /// flush verdict (a swallowed close-time failure would hand the next Open
  /// a truncated file with no witness). Idempotent; the destructor calls it
  /// and logs — callers that must know invoke Close() explicitly first.
  util::Status Close();

  ViewCatalog(const ViewCatalog&) = delete;
  ViewCatalog& operator=(const ViewCatalog&) = delete;

  /// Materializes `pattern` over `doc` in `scheme`. The returned view lives
  /// as long as the catalog. The view pattern must have unique element types.
  /// Dies on storage failure (setup-time convenience); TryMaterialize is the
  /// recoverable variant.
  const MaterializedView* Materialize(const xml::Document& doc,
                                      const tpq::TreePattern& pattern,
                                      Scheme scheme);

  /// Recoverable materialization: surfaces staging/install failures as a
  /// Status and leaves the catalog's view list untouched on failure (an
  /// interrupted install leaves at most dead bytes past the durable prefix,
  /// which the next Open truncates).
  util::StatusOr<const MaterializedView*> TryMaterialize(
      const xml::Document& doc, const tpq::TreePattern& pattern, Scheme scheme);

  /// Materializes a view from precomputed solution-node lists (one
  /// document-ordered list per pattern node) instead of evaluating the
  /// pattern — how a query's answer is stored back as a view (ViewJoin
  /// keeps its intermediate solutions in the view DAG structure precisely to
  /// enable this, paper Section IV-B feature 2). List schemes only.
  util::StatusOr<const MaterializedView*> TryMaterializeFromLists(
      const xml::Document& doc, const tpq::TreePattern& pattern,
      const std::vector<std::vector<xml::NodeId>>& solutions, Scheme scheme);

  // ---- Incremental maintenance (live document updates) ---------------------
  //
  // After the source document mutates, each affected view is either
  // delta-maintained — its sorted per-node label deltas are merged into the
  // stored lists and the pointers recomputed — or fully rebuilt from fresh
  // solution lists when deltas are unavailable (T scheme, or a relabel).
  // The whole batch commits as ONE manifest transaction: kUpdateBegin, the
  // new views' install+replace records, kUpdateCommit. A crash anywhere
  // before the commit record rolls the entire batch back on reopen; after
  // it, the batch is fully applied. Old views stay registered (in-flight
  // queries keep reading their pages) with replacement links to the new
  // ones, exactly like quarantine replacements.

  /// Start-sorted label deltas for one view: added[q] / removed[q] are the
  /// labels entering / leaving the solution list of view pattern node q.
  struct ListDeltas {
    std::vector<std::vector<xml::Label>> added;
    std::vector<std::vector<xml::Label>> removed;
    bool empty() const {
      for (const auto& a : added)
        if (!a.empty()) return false;
      for (const auto& r : removed)
        if (!r.empty()) return false;
      return true;
    }
  };

  /// One view's maintenance work inside an update batch.
  struct ViewUpdateSpec {
    const MaterializedView* view = nullptr;
    /// Sorted deltas to merge (list schemes; ignored when full_rebuild).
    ListDeltas deltas;
    /// Rebuild from scratch instead of merging: required for the T scheme
    /// (tuples have no per-node delta form) and after a document relabel.
    bool full_rebuild = false;
    /// Fresh solution-node lists for a list-scheme full rebuild; T-scheme
    /// rebuilds re-evaluate the pattern over `doc` instead.
    std::vector<std::vector<xml::NodeId>> solutions;
  };

  struct UpdateBatchResult {
    /// Epoch of the kUpdateBegin record (the transaction's identity).
    uint64_t txn_epoch = 0;
    /// New view per spec, in spec order.
    std::vector<const MaterializedView*> new_views;
    size_t delta_maintained = 0;
    size_t fully_rebuilt = 0;
  };

  /// Applies one update batch atomically (see section comment). `doc` is the
  /// post-update document (T-scheme rebuilds and list-scheme solutions are
  /// resolved against it). Crash-point injectable at kCrashMidDeltaMerge /
  /// kCrashBeforeEpochBump / kCrashAfterEpochBump; on an injected crash the
  /// catalog object must be abandoned and the store reopened, like the
  /// install crash points. InvalidArgument when a delta does not match the
  /// stored list (a removed label absent, an added label already present, a
  /// T-scheme spec without full_rebuild).
  util::StatusOr<UpdateBatchResult> ApplyUpdateBatch(
      const xml::Document& doc, const std::vector<ViewUpdateSpec>& specs);

  // ---- Quarantine (fault-tolerant degradation) -----------------------------
  //
  // A view whose pages fail checksum or read verification is quarantined:
  // it stays owned by the catalog (callers may hold pointers) but is marked
  // unusable. The engine re-materializes a replacement when the source
  // document is at hand and records the mapping here, so later Execute calls
  // holding the stale pointer are transparently redirected. On a persistent
  // catalog both events are journaled, so quarantine and replacement survive
  // a restart.

  void Quarantine(const MaterializedView* view);
  bool IsQuarantined(const MaterializedView* view) const;
  size_t quarantined_count() const;

  /// Latest healthy replacement for `view` (follows replacement chains), or
  /// nullptr when none has been materialized yet.
  const MaterializedView* ReplacementFor(const MaterializedView* view) const;
  void SetReplacement(const MaterializedView* from, const MaterializedView* to);

  /// The view whose stored lists contain `page`, or nullptr (spill pages and
  /// dead space belong to no view).
  const MaterializedView* ViewOfPage(PageId page) const;

  /// Scans every page of `view`'s lists through checksum verification.
  util::Status VerifyView(const MaterializedView* view);

  BufferPool* pool() { return pool_.get(); }
  Pager* pager() { return pager_.get(); }

  /// Cumulative I/O statistics (pager counters + pool hit/miss).
  IoStats Stats() const;
  void ResetStats();

  /// Drops cached pages so a subsequent query run starts cold.
  void DropCaches() { pool_->Clear(); }

  /// Views held by the catalog, in installation (epoch) order. Reference into
  /// the registry — single-threaded setup/inspection only.
  const std::vector<std::unique_ptr<MaterializedView>>& views() const {
    return views_;
  }

  /// Registry snapshot safe to take while other threads install or
  /// quarantine views (the scrubber's worklist). View pointers stay valid
  /// for the catalog's lifetime.
  std::vector<const MaterializedView*> ViewsSnapshot() const;

  /// Monotone catalog epoch: the largest epoch any recorded event (install,
  /// quarantine, replacement) carries, resuming across restarts on a
  /// persistent catalog because it is replayed from the manifest journal.
  /// Cached plans key on it, so any change to the set of usable views — in
  /// this process or a previous one — invalidates every plan referencing the
  /// old catalog state without the cache having to enumerate dependencies.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// The healthy view with the given pattern serialization and scheme, or
  /// nullptr. Quarantined views (without a replacement) never match; a
  /// replaced view resolves to its latest replacement. The planner uses this
  /// to find same-pattern twins in alternative schemes.
  const MaterializedView* FindView(const std::string& pattern_string,
                                   Scheme scheme) const;

  /// Physical encoding for lists materialized after the call (existing views
  /// keep the format they were built with; both read fine side by side).
  /// Defaults from VIEWJOIN_LIST_FORMAT ("fixed"/"delta"; delta if unset).
  ListFormat list_format() const { return list_format_; }
  void set_list_format(ListFormat format) { list_format_ = format; }

 private:
  /// Payload pages of a view staged in memory before installation.
  struct StagedPages;

  ViewCatalog(const std::string& path, size_t pool_pages, bool persistent,
              Pager::Mode mode);

  /// Lays `bytes` (records of `layout`) out into staged pages — verbatim
  /// fixed records or delta-compressed varint pages per `format`; the
  /// returned list's first_page is *relative* to the staged build until
  /// InstallView rebases it onto final page ids. InvalidArgument when a
  /// record cannot fit one page (pathological pattern fan-out).
  static util::StatusOr<StoredList> StageList(StagedPages& staged,
                                              const std::vector<uint8_t>& bytes,
                                              RecordLayout layout,
                                              uint32_t count,
                                              ListFormat format);

  /// The journaled install protocol (see class comment). Takes
  /// ownership of `view`; on success the registered pointer is returned.
  util::StatusOr<const MaterializedView*> InstallView(
      std::unique_ptr<MaterializedView> view, StagedPages& staged);

  /// Builds a list-scheme view (records, pointers, lengths) from per-node
  /// solution labels and stages its pages into `staged` without installing —
  /// the update batch stages many views into one StagedPages and installs
  /// them under a single manifest transaction.
  util::StatusOr<std::unique_ptr<MaterializedView>> StageListView(
      const tpq::TreePattern& pattern, Scheme scheme,
      const std::vector<std::vector<xml::Label>>& labels, StagedPages& staged);

  /// Delta-merges `deltas` into an E-scheme view without rewriting the
  /// unchanged prefix: encoded pages wholly below the first changed label
  /// are copied into `staged` verbatim (no decode / re-encode), and only
  /// the affected suffix is read, merged, and freshly encoded. Lists with
  /// empty deltas are copied page-for-page. Element records carry no
  /// cross-list pointers, so prefix bytes cannot go stale — pointer
  /// schemes must take the full re-encode path instead.
  util::StatusOr<std::unique_ptr<MaterializedView>> StageMergedElementView(
      const MaterializedView& old, const ListDeltas& deltas,
      StagedPages& staged);

  /// The journal install record describing `view`.
  ManifestViewRecord RecordFor(const MaterializedView& view,
                               uint32_t page_count_after) const;

  uint64_t AllocateEpoch() {
    return epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  /// Journal of view-lifecycle events; null for non-persistent catalogs.
  std::unique_ptr<ManifestJournal> journal_;
  /// Serializes InstallView (page-id assignment through journal commit) and
  /// Checkpoint. Ordered before registry_mu_ when both are taken.
  std::mutex install_mu_;
  /// Guards views_, quarantined_ and replacement_. MaterializedView objects
  /// themselves are immutable once registered and may be read lock-free.
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<MaterializedView>> views_;
  std::unordered_set<const MaterializedView*> quarantined_;
  std::unordered_map<const MaterializedView*, const MaterializedView*>
      replacement_;
  /// Last allocated epoch (== current catalog epoch).
  std::atomic<uint64_t> epoch_{1};
  RecoveryReport recovery_;
  bool persistent_ = false;
  ListFormat list_format_ = ListFormat::kDelta;
};

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_MATERIALIZED_VIEW_H_
