#include "storage/materialized_view.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <set>

#include "storage/list_codec.h"
#include "tpq/evaluator.h"
#include "util/check.h"
#include "util/fault_injection.h"

namespace viewjoin::storage {

using tpq::TreePattern;
using xml::Document;
using xml::Label;
using xml::NodeId;

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kElement:
      return "E";
    case Scheme::kTuple:
      return "T";
    case Scheme::kLinkedElement:
      return "LE";
    case Scheme::kLinkedElementPartial:
      return "LE_p";
  }
  return "?";
}

std::optional<Scheme> ParseScheme(std::string_view name) {
  if (name == "E") return Scheme::kElement;
  if (name == "T") return Scheme::kTuple;
  if (name == "LE") return Scheme::kLinkedElement;
  if (name == "LE_p") return Scheme::kLinkedElementPartial;
  return std::nullopt;
}

// ---- Staging ---------------------------------------------------------------

/// Payload pages of one view accumulated in memory before installation. The
/// staged lists carry page ids *relative* to this build; InstallView rebases
/// them onto the pager's tail under the install lock, so staging (and the
/// pattern evaluation feeding it) runs outside any catalog lock.
struct ViewCatalog::StagedPages {
  std::vector<uint8_t> payload;  // page_count * kPageSize, zero-padded
  uint32_t page_count = 0;
};

util::StatusOr<StoredList> ViewCatalog::StageList(
    StagedPages& staged, const std::vector<uint8_t>& bytes, RecordLayout layout,
    uint32_t count, ListFormat format) {
  StoredList list;
  list.layout = layout;
  list.count = count;
  list.format = format;
  uint32_t record_size = layout.RecordSize();
  // A record wider than one page has no (page, offset) representation:
  // RecordsPerPage() would be 0 and every PageOf/OffsetOf a division by
  // zero. Wide fan-out patterns (LE child pointers grow the record by 4
  // bytes per pc/ad child) must be rejected here, at materialization, with
  // a typed error — not crash in the cursor arithmetic later.
  if (record_size == 0 || record_size > Pager::kPageSize) {
    return util::Status::InvalidArgument(
        "list record layout (" + std::to_string(record_size) +
        " bytes) does not fit a " + std::to_string(Pager::kPageSize) +
        "-byte page; pattern fan-out too wide to materialize");
  }
  if (count == 0) {
    list.first_page = kInvalidPage;
    return list;
  }
  if (format == ListFormat::kDelta) {
    util::StatusOr<DeltaEncoded> encoded =
        EncodeDeltaList(bytes.data(), count, layout);
    if (!encoded.ok()) return encoded.status();
    uint32_t pages = static_cast<uint32_t>(encoded->pages.size());
    list.first_page = staged.page_count;  // relative until installed
    list.page_first_entry = std::move(encoded->page_first_entry);
    list.page_first_start = std::move(encoded->page_first_start);
    staged.payload.resize(
        static_cast<size_t>(staged.page_count + pages) * Pager::kPageSize, 0);
    for (uint32_t p = 0; p < pages; ++p) {
      std::memcpy(staged.payload.data() +
                      static_cast<size_t>(staged.page_count + p) *
                          Pager::kPageSize,
                  encoded->pages[p].data(), Pager::kPageSize);
    }
    staged.page_count += pages;
    return list;
  }
  uint32_t per_page = static_cast<uint32_t>(Pager::kPageSize) / record_size;
  uint32_t pages = (count + per_page - 1) / per_page;
  list.first_page = staged.page_count;  // relative until installed
  staged.payload.resize(
      static_cast<size_t>(staged.page_count + pages) * Pager::kPageSize, 0);
  list.page_first_start.reserve(pages);
  for (uint32_t p = 0; p < pages; ++p) {
    uint32_t first_record = p * per_page;
    uint32_t n_records = std::min(per_page, count - first_record);
    std::memcpy(staged.payload.data() +
                    static_cast<size_t>(staged.page_count + p) *
                        Pager::kPageSize,
                bytes.data() + static_cast<size_t>(first_record) * record_size,
                static_cast<size_t>(n_records) * record_size);
    // Fence key: the first record's start label, for page-level galloping.
    uint32_t fence;
    std::memcpy(&fence,
                bytes.data() + static_cast<size_t>(first_record) * record_size,
                4);
    list.page_first_start.push_back(fence);
  }
  staged.page_count += pages;
  return list;
}

// ---- Construction / teardown ----------------------------------------------

ViewCatalog::ViewCatalog(const std::string& path, size_t pool_pages,
                         bool persistent)
    : ViewCatalog(path, pool_pages, persistent,
                  persistent ? Pager::Mode::kPersist : Pager::Mode::kTruncate) {
  // A zero-frame pool would make every Fetch fail with InvalidArgument; a
  // fresh catalog asking for one is a configuration error, like a catalog
  // that cannot create its backing file (Open() is the recoverable path).
  VJ_CHECK(pool_pages > 0) << "view catalog needs a pool of >= 1 page";
  VJ_CHECK(pager_->init_status().ok()) << pager_->init_status().ToString();
  if (persistent) {
    auto journal = ManifestJournal::Create(ManifestJournal::PathFor(path));
    VJ_CHECK(journal.ok()) << journal.status().ToString();
    journal_ = std::move(*journal);
  }
}

namespace {

ListFormat DefaultListFormat() {
  const char* env = std::getenv("VIEWJOIN_LIST_FORMAT");
  if (env == nullptr || *env == '\0') return ListFormat::kDelta;
  if (std::strcmp(env, "fixed") == 0) return ListFormat::kFixed;
  if (std::strcmp(env, "delta") == 0) return ListFormat::kDelta;
  VJ_CHECK(false) << "VIEWJOIN_LIST_FORMAT must be \"fixed\" or \"delta\", "
                     "got \""
                  << env << "\"";
  return ListFormat::kDelta;
}

}  // namespace

ViewCatalog::ViewCatalog(const std::string& path, size_t pool_pages,
                         bool persistent, Pager::Mode mode)
    : pager_(std::make_unique<Pager>(path, mode)),
      pool_(std::make_unique<BufferPool>(pager_.get(), pool_pages)),
      persistent_(persistent),
      list_format_(DefaultListFormat()) {}

ViewCatalog::~ViewCatalog() { (void)Close(); }

util::Status ViewCatalog::Close() {
  if (journal_ != nullptr) journal_->Close();
  return pager_->Close();
}

// ---- Manifest journal / checkpoint ----------------------------------------

ManifestViewRecord ViewCatalog::RecordFor(const MaterializedView& view,
                                          uint32_t page_count_after) const {
  ManifestViewRecord record;
  record.epoch = view.epoch_;
  record.scheme = static_cast<uint8_t>(view.scheme_);
  record.pattern = view.pattern_.ToString();
  record.match_count = view.match_count_;
  record.size_bytes = view.size_bytes_;
  record.pointer_count = view.pointer_count_;
  record.page_count_after = page_count_after;
  record.list_lengths = view.list_lengths_;
  record.lists = view.lists_;
  record.tuple_list = view.tuple_list_;
  return record;
}

util::Status ViewCatalog::Checkpoint() {
  if (!persistent_) {
    return util::Status::InvalidArgument(
        "checkpoint requires a persistent catalog");
  }
  std::lock_guard<std::mutex> install_lock(install_mu_);
  std::vector<ManifestViewRecord> records;
  std::vector<uint64_t> quarantined;
  uint32_t pages = pager_->page_count();
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    records.reserve(views_.size());
    for (const auto& view : views_) records.push_back(RecordFor(*view, pages));
    quarantined.reserve(quarantined_.size());
    for (const MaterializedView* view : quarantined_) {
      quarantined.push_back(view->epoch_);
    }
    std::sort(quarantined.begin(), quarantined.end());
  }
  const std::string journal_path = ManifestJournal::PathFor(pager_->path());
  util::Status written = ManifestJournal::WriteCheckpoint(
      journal_path, records, quarantined, epoch());
  if (!written.ok()) return written;
  // The rename replaced the inode the open journal handle points at; switch
  // appends over to the fresh compact file.
  journal_->Close();
  auto reopened = ManifestJournal::OpenForAppend(journal_path,
                                                 /*valid_bytes=*/-1);
  if (!reopened.ok()) return reopened.status();
  journal_ = std::move(*reopened);
  return util::Status::Ok();
}

ViewCatalog::BackupSnapshot ViewCatalog::SnapshotForBackup() {
  std::lock_guard<std::mutex> install_lock(install_mu_);
  BackupSnapshot snap;
  snap.page_count = pager_->page_count();
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    snap.records.reserve(views_.size());
    for (const auto& view : views_) {
      snap.records.push_back(RecordFor(*view, snap.page_count));
    }
    snap.quarantined_epochs.reserve(quarantined_.size());
    for (const MaterializedView* view : quarantined_) {
      snap.quarantined_epochs.push_back(view->epoch_);
    }
    std::sort(snap.quarantined_epochs.begin(), snap.quarantined_epochs.end());
  }
  snap.epoch = epoch();
  return snap;
}

// ---- Open / startup recovery ----------------------------------------------

namespace {

util::Status MalformedManifest(const std::string& path,
                               const std::string& message) {
  return util::Status::Corruption("malformed manifest for " + path + ": " +
                                  message);
}

/// Every stored list must lie inside the (checksummed) pager file; a
/// manifest pointing past the end means one of the two files is stale.
bool ListInRange(const StoredList& list, uint32_t pages) {
  if (list.count == 0) return true;
  uint32_t record = list.layout.RecordSize();
  if (record == 0 || record > Pager::kPageSize) return false;
  if (list.format == ListFormat::kDelta) {
    // Delta lists locate records through the page directory; a manifest with
    // a non-monotone or truncated directory would send cursors to arbitrary
    // offsets, so reject it as decisively as an out-of-range page.
    if (list.page_first_entry.empty() ||
        list.page_first_entry.size() != list.page_first_start.size() ||
        list.page_first_entry.front() != 0 ||
        list.page_first_entry.back() >= list.count) {
      return false;
    }
    for (size_t p = 1; p < list.page_first_entry.size(); ++p) {
      if (list.page_first_entry[p] <= list.page_first_entry[p - 1] ||
          list.page_first_start[p] < list.page_first_start[p - 1]) {
        return false;
      }
    }
  } else if (!list.page_first_start.empty() &&
             list.page_first_start.size() != list.PageSpan()) {
    return false;
  }
  return list.first_page != kInvalidPage && list.first_page < pages &&
         list.PageSpan() <= pages - list.first_page;
}

}  // namespace

util::StatusOr<std::unique_ptr<ViewCatalog>> ViewCatalog::Open(
    const std::string& path, size_t pool_pages) {
  if (pool_pages == 0) {
    return util::Status::InvalidArgument(
        "cannot open catalog " + path + " with a zero-page buffer pool");
  }
  const std::string journal_path = ManifestJournal::PathFor(path);
  auto replayed = ManifestJournal::Replay(journal_path);
  if (!replayed.ok()) {
    if (replayed.status().code() == util::StatusCode::kNotFound) {
      return util::Status::NotFound("missing manifest for " + path);
    }
    return replayed.status();
  }
  ManifestReplayResult replay = std::move(*replayed);

  RecoveryReport report;
  // A checkpoint tmp is a compaction that died before its rename: the
  // journal just replayed is still the authoritative one.
  report.stale_checkpoint_removed =
      std::remove(ManifestJournal::CheckpointTmpPath(journal_path).c_str()) ==
      0;
  report.rolled_back_update_batches = replay.rolled_back_update_batches;

  // Roll the pager file back to the journal's durable prefix *before* the
  // pager validates it: a crash between the data append and the journal
  // commit leaves uncommitted tail pages (possibly a partial page) that
  // would otherwise be rejected as a truncated/oversized file.
  struct stat st;
  if (::stat(path.c_str(), &st) == 0) {
    const long expected =
        static_cast<long>(Pager::kHeaderSize) +
        static_cast<long>(replay.durable_page_count) *
            static_cast<long>(Pager::kPhysicalPageSize);
    if (st.st_size < expected) {
      return util::Status::Corruption(
          "manifest for " + path + " records " +
          std::to_string(replay.durable_page_count) +
          " durable pages but the pager file is shorter — journal and data "
          "file are out of step");
    }
    if (st.st_size > expected) {
      if (::truncate(path.c_str(), expected) != 0) {
        return util::Status::IoError("cannot roll back uncommitted pages of " +
                                     path + ": " + std::strerror(errno));
      }
      report.orphan_pages_truncated = static_cast<uint32_t>(
          (st.st_size - expected + Pager::kPhysicalPageSize - 1) /
          Pager::kPhysicalPageSize);
    }
  }

  auto catalog = std::unique_ptr<ViewCatalog>(new ViewCatalog(
      path, pool_pages, /*persistent=*/true, Pager::Mode::kReopen));
  if (!catalog->pager_->init_status().ok()) {
    return catalog->pager_->init_status();
  }

  report.journal_tail_truncated = replay.tail_torn;
  auto journal = ManifestJournal::OpenForAppend(journal_path,
                                                replay.valid_bytes);
  if (!journal.ok()) return journal.status();
  catalog->journal_ = std::move(*journal);

  const uint32_t pages = catalog->pager_->page_count();
  std::unordered_map<uint64_t, MaterializedView*> by_epoch;
  for (ManifestViewRecord& r : replay.installed) {
    std::optional<TreePattern> pattern = TreePattern::Parse(r.pattern);
    if (!pattern.has_value()) {
      return MalformedManifest(path, "unparsable view pattern " + r.pattern);
    }
    auto view = std::make_unique<MaterializedView>();
    view->pattern_ = *pattern;
    view->scheme_ = static_cast<Scheme>(r.scheme);
    view->epoch_ = r.epoch;
    view->match_count_ = r.match_count;
    view->size_bytes_ = r.size_bytes;
    view->pointer_count_ = r.pointer_count;
    view->list_lengths_ = std::move(r.list_lengths);
    view->lists_ = std::move(r.lists);
    view->tuple_list_ = r.tuple_list;
    for (const StoredList& list : view->lists_) {
      if (!ListInRange(list, pages)) {
        return MalformedManifest(path, "view " + r.pattern +
                                           " references pages beyond the "
                                           "pager file");
      }
    }
    if (!ListInRange(view->tuple_list_, pages)) {
      return MalformedManifest(path, "view " + r.pattern +
                                         " references pages beyond the pager "
                                         "file");
    }
    by_epoch[r.epoch] = view.get();
    catalog->views_.push_back(std::move(view));
  }
  for (uint64_t e : replay.quarantined) {
    auto it = by_epoch.find(e);
    if (it != by_epoch.end()) catalog->quarantined_.insert(it->second);
  }
  for (const auto& [old_epoch, new_epoch] : replay.replaced) {
    auto from = by_epoch.find(old_epoch);
    auto to = by_epoch.find(new_epoch);
    if (from != by_epoch.end() && to != by_epoch.end() &&
        from->second != to->second) {
      catalog->replacement_[from->second] = to->second;
    }
  }
  catalog->epoch_.store(std::max<uint64_t>(replay.last_epoch, 1),
                        std::memory_order_release);

  // Re-queue what recovery could not restore: rolled-back builds and
  // quarantined views with no healthy stand-in.
  std::set<std::pair<std::string, int>> seen;
  auto queue_rebuild = [&](const std::string& pattern, Scheme scheme) {
    if (seen.insert({pattern, static_cast<int>(scheme)}).second) {
      report.pending_rebuild.emplace_back(pattern, scheme);
    }
  };
  for (const auto& [pattern, scheme] : replay.rolled_back) {
    // A Begin with no Install at its epoch stays in the journal until the
    // next checkpoint; if a later attempt (new epoch) did commit the same
    // view, there is nothing left to rebuild.
    if (catalog->FindView(pattern, static_cast<Scheme>(scheme)) == nullptr) {
      queue_rebuild(pattern, static_cast<Scheme>(scheme));
    }
  }
  for (const MaterializedView* view : catalog->quarantined_) {
    const std::string pattern = view->pattern_.ToString();
    if (catalog->FindView(pattern, view->scheme_) == nullptr) {
      queue_rebuild(pattern, view->scheme_);
    }
  }
  catalog->recovery_ = std::move(report);
  return catalog;
}

IoStats ViewCatalog::Stats() const {
  IoStats stats = pager_->stats();
  stats.pool_hits = pool_->hits();
  stats.pool_misses = pool_->misses();
  stats.prefetch_issued = pool_->prefetch_issued();
  stats.prefetch_hits = pool_->prefetch_hits();
  stats.prefetch_wasted = pool_->prefetch_wasted();
  return stats;
}

void ViewCatalog::ResetStats() {
  pager_->ResetStats();
  pool_->ResetStats();
}

// ---- Installation ----------------------------------------------------------

util::StatusOr<const MaterializedView*> ViewCatalog::InstallView(
    std::unique_ptr<MaterializedView> view, StagedPages& staged) {
  auto& injector = util::FaultInjector::Global();
  std::lock_guard<std::mutex> install_lock(install_mu_);

  const uint64_t epoch = AllocateEpoch();
  view->epoch_ = epoch;
  const long journal_mark =
      journal_ != nullptr ? journal_->AppendOffset() : -1;
  if (journal_ != nullptr) {
    // Intent record first: if the rest of the install never commits, replay
    // finds a begin without an install and re-queues the pattern.
    util::Status begun =
        journal_->AppendBegin(epoch, static_cast<uint8_t>(view->scheme_),
                              view->pattern_.ToString());
    if (!begun.ok()) return begun;
  }

  // Rebase the staged lists onto their final page ids and encode the pages
  // with those ids stamped in the footers — the bytes appended below are
  // byte-identical to what page-at-a-time writes would have produced.
  const PageId base = pager_->page_count();
  for (StoredList& list : view->lists_) {
    if (list.count != 0) list.first_page += base;
  }
  if (view->tuple_list_.count != 0) view->tuple_list_.first_page += base;
  std::vector<uint8_t> phys(static_cast<size_t>(staged.page_count) *
                            Pager::kPhysicalPageSize);
  for (uint32_t p = 0; p < staged.page_count; ++p) {
    Pager::EncodePhysicalPage(
        base + p,
        staged.payload.data() + static_cast<size_t>(p) * Pager::kPageSize,
        phys.data() + static_cast<size_t>(p) * Pager::kPhysicalPageSize);
  }

  // A returned ENOSPC is an in-process abort, not a crash: the process is
  // alive to undo its own partial transaction, so roll the store back to
  // exactly its pre-install state (no orphan pages, no dangling begin
  // record) and fsck finds nothing to repair. Every other failure kind —
  // injected crashes above all — must keep leaving the artifacts a dying
  // process would, because recovery is what handles them.
  auto abort_on_no_space = [&](const util::Status& status) {
    if (status.code() != util::StatusCode::kResourceExhausted) return;
    (void)pager_->TruncateToPageCount(base);
    if (journal_ != nullptr && journal_mark >= 0) {
      (void)journal_->TruncateTo(journal_mark);
    }
  };

  if (staged.page_count > 0) {
    util::Status appended =
        pager_->AppendPhysicalPages(phys.data(), staged.page_count);
    if (appended.ok() && journal_ != nullptr) appended = pager_->Sync();
    if (!appended.ok()) {
      abort_on_no_space(appended);
      return appended;
    }
  }
  if (injector.AtCrashPoint(util::CrashPoint::kCrashAfterDataSync)) {
    // Crash with the pages durable but uncommitted: recovery must truncate
    // them away (they are unreferenced dead bytes) and roll the view back.
    return util::Status::IoError(
        "injected crash after data sync, before journal commit");
  }

  if (journal_ != nullptr) {
    util::Status committed =
        journal_->AppendInstall(RecordFor(*view, pager_->page_count()));
    if (!committed.ok()) {
      // Mid-journal crash injection surfaces here: leave everything exactly
      // as a dying process would (appended pages, torn record) for recovery
      // to clean up. A typed ENOSPC instead aborts cleanly — see
      // abort_on_no_space above.
      abort_on_no_space(committed);
      return committed;
    }
  }

  const MaterializedView* result = view.get();
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    views_.push_back(std::move(view));
  }
  return result;
}

// ---- Materialization -------------------------------------------------------

namespace {

void AppendU32(std::vector<uint8_t>* out, uint32_t value) {
  uint8_t buf[4];
  std::memcpy(buf, &value, 4);
  out->insert(out->end(), buf, buf + 4);
}

void AppendLabel(std::vector<uint8_t>* out, const Label& label) {
  AppendU32(out, label.start);
  AppendU32(out, label.end);
  AppendU32(out, label.level);
}

/// Streams tuple-scheme matches straight into the record byte buffer.
class TupleWriterSink : public tpq::MatchSink {
 public:
  TupleWriterSink(const Document& doc, std::vector<uint8_t>* out)
      : doc_(doc), out_(out) {}

  void OnMatch(const tpq::Match& match) override {
    for (NodeId n : match) AppendLabel(out_, doc_.NodeLabel(n));
    ++count_;
  }

  uint64_t count() const { return count_; }

 private:
  const Document& doc_;
  std::vector<uint8_t>* out_;
  uint64_t count_ = 0;
};

/// First index j in `labels` with labels[j].start > bound, starting the
/// binary search at `from`.
size_t FirstStartAfter(const std::vector<Label>& labels, size_t from,
                       uint32_t bound) {
  return static_cast<size_t>(
      std::lower_bound(labels.begin() + static_cast<ptrdiff_t>(from),
                       labels.end(), bound,
                       [](const Label& l, uint32_t b) { return l.start <= b; }) -
      labels.begin());
}

/// Encodes the stored records of view node q — labels plus, for the linked
/// schemes, the following/descendant/child pointers recomputed from the
/// given solution labels of *every* node. Shared by initial materialization
/// and delta maintenance (merged lists re-enter here, so freshly patched
/// lists carry exactly the pointers a from-scratch build would).
/// InvalidArgument when a child pointer has no target: the lists are not a
/// consistent view instance (e.g. a delta removed a child but not its
/// parent match).
util::StatusOr<std::vector<uint8_t>> EncodeListRecords(
    const TreePattern& pattern, const std::vector<std::vector<Label>>& labels,
    size_t q, Scheme scheme, uint64_t* pointer_count) {
  const bool with_pointers = scheme != Scheme::kElement;
  const bool partial = scheme == Scheme::kLinkedElementPartial;
  const std::vector<Label>& lq = labels[q];
  const tpq::PatternNode& pn = pattern.node(static_cast<int>(q));
  RecordLayout layout;
  layout.label_count = 1;
  layout.has_pointers = with_pointers;
  layout.child_count =
      with_pointers ? static_cast<uint32_t>(pn.children.size()) : 0;
  std::vector<uint8_t> bytes;
  bytes.reserve(lq.size() * layout.RecordSize());
  for (size_t i = 0; i < lq.size(); ++i) {
    AppendLabel(&bytes, lq[i]);
    if (!with_pointers) continue;
    // Following pointer: first entry starting after this node ends.
    EntryIndex follow = kNullEntry;
    size_t j = FirstStartAfter(lq, i + 1, lq[i].end);
    if (j < lq.size()) follow = static_cast<EntryIndex>(j);
    if (partial && follow != kNullEntry && follow <= i + 1) {
      follow = kNullEntry;  // adjacent targets are not materialized in LE_p
    }
    if (follow != kNullEntry) ++*pointer_count;
    AppendU32(&bytes, follow);
    // Descendant pointer: the next entry iff it is nested in this one.
    EntryIndex desc = kNullEntry;
    if (i + 1 < lq.size() && lq[i + 1].start < lq[i].end) {
      desc = static_cast<EntryIndex>(i + 1);
    }
    if (partial) desc = kNullEntry;  // always one entry away
    if (desc != kNullEntry) ++*pointer_count;
    AppendU32(&bytes, desc);
    // Child pointers: first matching child/descendant entry per pc/ad
    // child of q in the view. Never null for a consistent view instance
    // (every stored node participates in at least one view match).
    for (int c : pn.children) {
      const std::vector<Label>& lc = labels[static_cast<size_t>(c)];
      size_t k = FirstStartAfter(lc, 0, lq[i].start);
      EntryIndex child = kNullEntry;
      if (pattern.node(c).incoming == tpq::Axis::kDescendant) {
        if (k < lc.size() && lc[k].start < lq[i].end) {
          child = static_cast<EntryIndex>(k);
        }
      } else {
        while (k < lc.size() && lc[k].start < lq[i].end) {
          if (lc[k].level == lq[i].level + 1) {
            child = static_cast<EntryIndex>(k);
            break;
          }
          ++k;
        }
      }
      if (child == kNullEntry) {
        return util::Status::InvalidArgument(
            "missing child pointer target in view " + pattern.ToString() +
            ": solution lists are not a consistent view instance");
      }
      ++*pointer_count;
      AppendU32(&bytes, child);
    }
  }
  return bytes;
}

}  // namespace

const MaterializedView* ViewCatalog::Materialize(const Document& doc,
                                                 const TreePattern& pattern,
                                                 Scheme scheme) {
  util::StatusOr<const MaterializedView*> result =
      TryMaterialize(doc, pattern, scheme);
  VJ_CHECK(result.ok()) << "materialization of " << pattern.ToString()
                        << " failed: " << result.status().ToString();
  return *result;
}

util::StatusOr<const MaterializedView*> ViewCatalog::TryMaterialize(
    const Document& doc, const TreePattern& pattern, Scheme scheme) {
  VJ_CHECK(pattern.HasUniqueTags())
      << "view patterns must have unique element types: " << pattern.ToString();
  tpq::NaiveEvaluator evaluator(doc, pattern);

  if (scheme == Scheme::kTuple) {
    auto view = std::make_unique<MaterializedView>();
    view->pattern_ = pattern;
    view->scheme_ = scheme;
    std::vector<uint8_t> bytes;
    TupleWriterSink sink(doc, &bytes);
    evaluator.Evaluate(&sink);
    RecordLayout layout;
    layout.label_count = static_cast<uint32_t>(pattern.size());
    StagedPages staged;
    util::StatusOr<StoredList> tuples =
        StageList(staged, bytes, layout, static_cast<uint32_t>(sink.count()),
                  list_format_);
    if (!tuples.ok()) return tuples.status();
    view->tuple_list_ = *tuples;
    view->match_count_ = sink.count();
    view->size_bytes_ = sink.count() * 12ull * pattern.size();
    // The per-node solution list lengths still drive the cost model.
    std::vector<std::vector<NodeId>> solutions = evaluator.SolutionNodes();
    for (const auto& list : solutions) {
      view->list_lengths_.push_back(static_cast<uint32_t>(list.size()));
    }
    return InstallView(std::move(view), staged);
  }

  // Element-list based schemes. Gather solution node lists and their labels.
  std::vector<std::vector<NodeId>> solutions = evaluator.SolutionNodes();
  return TryMaterializeFromLists(doc, pattern, solutions, scheme);
}

util::StatusOr<std::unique_ptr<MaterializedView>> ViewCatalog::StageListView(
    const TreePattern& pattern, Scheme scheme,
    const std::vector<std::vector<Label>>& labels, StagedPages& staged) {
  VJ_CHECK(scheme != Scheme::kTuple)
      << "StageListView supports the list schemes only";
  VJ_CHECK_EQ(labels.size(), pattern.size());
  auto view = std::make_unique<MaterializedView>();
  view->pattern_ = pattern;
  view->scheme_ = scheme;
  view->match_count_ = 0;  // not tracked for list schemes (cheap to recount)
  const size_t nq = pattern.size();
  const bool with_pointers = scheme != Scheme::kElement;
  view->lists_.resize(nq);
  for (size_t q = 0; q < nq; ++q) {
    view->list_lengths_.push_back(static_cast<uint32_t>(labels[q].size()));
    view->size_bytes_ += 12ull * labels[q].size();
    const tpq::PatternNode& pn = pattern.node(static_cast<int>(q));
    RecordLayout layout;
    layout.label_count = 1;
    layout.has_pointers = with_pointers;
    layout.child_count =
        with_pointers ? static_cast<uint32_t>(pn.children.size()) : 0;
    util::StatusOr<std::vector<uint8_t>> bytes =
        EncodeListRecords(pattern, labels, q, scheme, &view->pointer_count_);
    if (!bytes.ok()) return bytes.status();
    util::StatusOr<StoredList> staged_list =
        StageList(staged, *bytes, layout,
                  static_cast<uint32_t>(labels[q].size()), list_format_);
    if (!staged_list.ok()) return staged_list.status();
    view->lists_[q] = *staged_list;
  }
  view->size_bytes_ += 4ull * view->pointer_count_;
  return view;
}

util::StatusOr<const MaterializedView*> ViewCatalog::TryMaterializeFromLists(
    const Document& doc, const TreePattern& pattern,
    const std::vector<std::vector<NodeId>>& solutions, Scheme scheme) {
  VJ_CHECK(scheme != Scheme::kTuple)
      << "TryMaterializeFromLists supports the list schemes only";
  VJ_CHECK_EQ(solutions.size(), pattern.size());
  const size_t nq = pattern.size();
  std::vector<std::vector<Label>> labels(nq);
  for (size_t q = 0; q < nq; ++q) {
    labels[q].reserve(solutions[q].size());
    for (NodeId n : solutions[q]) labels[q].push_back(doc.NodeLabel(n));
  }
  StagedPages staged;
  util::StatusOr<std::unique_ptr<MaterializedView>> view =
      StageListView(pattern, scheme, labels, staged);
  if (!view.ok()) return view.status();
  return InstallView(std::move(*view), staged);
}

// ---- Incremental maintenance (ApplyUpdateBatch) ----------------------------

namespace {

/// Merges start-sorted `removed`/`added` deltas into the start-sorted
/// `old_labels`. Every removed start must name a present label and every
/// added start must be new — anything else means the delta and the stored
/// list disagree about the pre-update state, which would silently corrupt
/// the view if merged anyway.
util::StatusOr<std::vector<Label>> MergeDelta(
    const std::vector<Label>& old_labels, const std::vector<Label>& removed,
    const std::vector<Label>& added, const std::string& what) {
  std::vector<Label> merged;
  merged.reserve(old_labels.size() + added.size());
  size_t r = 0;
  size_t a = 0;
  for (const Label& l : old_labels) {
    if (r < removed.size() && removed[r].start < l.start) {
      return util::Status::InvalidArgument(
          "delta for " + what + " removes a label (start " +
          std::to_string(removed[r].start) + ") the stored list does not hold");
    }
    while (a < added.size() && added[a].start < l.start) {
      merged.push_back(added[a++]);
    }
    if (a < added.size() && added[a].start == l.start) {
      return util::Status::InvalidArgument(
          "delta for " + what + " adds a label (start " +
          std::to_string(added[a].start) + ") the stored list already holds");
    }
    if (r < removed.size() && removed[r].start == l.start) {
      ++r;
      continue;
    }
    merged.push_back(l);
  }
  if (r < removed.size()) {
    return util::Status::InvalidArgument(
        "delta for " + what + " removes a label (start " +
        std::to_string(removed[r].start) + ") the stored list does not hold");
  }
  while (a < added.size()) merged.push_back(added[a++]);
  return merged;
}

}  // namespace

util::StatusOr<std::unique_ptr<MaterializedView>>
ViewCatalog::StageMergedElementView(const MaterializedView& old,
                                    const ListDeltas& deltas,
                                    StagedPages& staged) {
  VJ_CHECK(old.scheme() == Scheme::kElement)
      << "prefix-preserving merge requires the pointerless E scheme";
  const TreePattern& pattern = old.pattern();
  const size_t nq = pattern.size();
  auto view = std::make_unique<MaterializedView>();
  view->pattern_ = pattern;
  view->scheme_ = Scheme::kElement;
  view->match_count_ = 0;  // not tracked for list schemes (cheap to recount)
  view->lists_.resize(nq);
  for (size_t q = 0; q < nq; ++q) {
    const StoredList& old_list = old.list(static_cast<int>(q));
    const std::vector<Label>& added = deltas.added[q];
    const std::vector<Label>& removed = deltas.removed[q];
    RecordLayout layout;
    layout.label_count = 1;

    // Prefix reuse needs per-page fence keys to prove a page holds only
    // labels below the first change; a list without them re-encodes fully
    // (prefix_pages stays 0).
    const uint32_t old_pages = old_list.PageSpan();
    const bool fenced =
        old_list.count > 0 && old_list.page_first_start.size() == old_pages &&
        (old_list.format != ListFormat::kDelta ||
         old_list.page_first_entry.size() == old_pages);
    uint32_t prefix_pages = 0;
    if (fenced) {
      if (added.empty() && removed.empty()) {
        prefix_pages = old_pages;  // untouched list: copy page-for-page
      } else {
        uint32_t first_change = 0xFFFFFFFFu;
        if (!removed.empty()) first_change = removed[0].start;
        if (!added.empty())
          first_change = std::min(first_change, added[0].start);
        // Pages [0, p) hold only labels strictly below fence p (starts are
        // strictly increasing), so every page before the last fence <=
        // first_change is reusable; the page containing the first change —
        // and everything after it — is re-encoded.
        auto it = std::upper_bound(old_list.page_first_start.begin(),
                                   old_list.page_first_start.end(),
                                   first_change);
        if (it != old_list.page_first_start.begin()) {
          prefix_pages =
              static_cast<uint32_t>(it - old_list.page_first_start.begin()) -
              1;
        }
      }
    }
    const uint32_t prefix_entries = prefix_pages >= old_pages
                                        ? old_list.count
                                        : old_list.FirstEntryOfPage(prefix_pages);

    // Raw-copy the reusable prefix pages into the staging area.
    const uint32_t rel_first_page = staged.page_count;
    if (prefix_pages > 0) {
      staged.payload.resize(
          static_cast<size_t>(staged.page_count + prefix_pages) *
              Pager::kPageSize,
          0);
      for (uint32_t p = 0; p < prefix_pages; ++p) {
        BufferPool::PinnedPage pin;
        util::Status fetched = pool_->Fetch(old_list.first_page + p, &pin);
        if (!fetched.ok()) return fetched;
        std::memcpy(staged.payload.data() +
                        static_cast<size_t>(staged.page_count + p) *
                            Pager::kPageSize,
                    pin.data(), Pager::kPageSize);
      }
      staged.page_count += prefix_pages;
    }

    // Read the affected suffix, merge the deltas, re-encode it as fresh
    // pages directly behind the prefix (one contiguous staged run).
    std::vector<Label> tail_old;
    tail_old.reserve(old_list.count - prefix_entries);
    ListCursor cursor(&old_list, pool_.get());
    cursor.Seek(prefix_entries);
    if (cursor.block_capable()) {
      while (!cursor.AtEnd()) {
        const BlockView block = cursor.CurrentBlock();
        const uint32_t off = cursor.index() - block.first;
        for (uint32_t j = off; j < block.count; ++j) {
          tail_old.push_back({block.starts[j], block.ends[j], block.levels[j]});
        }
        cursor.Seek(block.first + block.count);
      }
    }
    while (!cursor.AtEnd()) {
      tail_old.push_back(cursor.LabelAt(0));
      cursor.Next();
    }
    util::StatusOr<std::vector<Label>> merged = MergeDelta(
        tail_old, removed, added,
        pattern.ToString() + " node " + std::to_string(q));
    if (!merged.ok()) return merged.status();

    StoredList list;
    list.layout = layout;
    list.format = old_list.format;
    list.count = prefix_entries + static_cast<uint32_t>(merged->size());
    if (list.count == 0) {
      list.first_page = kInvalidPage;
    } else {
      list.first_page = rel_first_page;  // relative until installed
      list.page_first_start.assign(
          old_list.page_first_start.begin(),
          old_list.page_first_start.begin() + prefix_pages);
      if (old_list.format == ListFormat::kDelta) {
        list.page_first_entry.assign(
            old_list.page_first_entry.begin(),
            old_list.page_first_entry.begin() + prefix_pages);
      }
      if (!merged->empty()) {
        std::vector<uint8_t> bytes;
        bytes.reserve(merged->size() * 12);
        for (const Label& l : *merged) AppendLabel(&bytes, l);
        util::StatusOr<StoredList> tail =
            StageList(staged, bytes, layout,
                      static_cast<uint32_t>(merged->size()), old_list.format);
        if (!tail.ok()) return tail.status();
        list.page_first_start.insert(list.page_first_start.end(),
                                     tail->page_first_start.begin(),
                                     tail->page_first_start.end());
        for (uint32_t e : tail->page_first_entry) {
          list.page_first_entry.push_back(e + prefix_entries);
        }
      }
    }
    view->lists_[q] = list;
    view->list_lengths_.push_back(list.count);
    view->size_bytes_ += 12ull * list.count;
  }
  return view;
}

util::StatusOr<ViewCatalog::UpdateBatchResult> ViewCatalog::ApplyUpdateBatch(
    const Document& doc, const std::vector<ViewUpdateSpec>& specs) {
  if (specs.empty()) {
    return util::Status::InvalidArgument("empty update batch");
  }
  auto& injector = util::FaultInjector::Global();
  // One lock across staging AND install: the batch must observe a frozen
  // catalog (page ids, epochs) from first delta read to commit record.
  std::lock_guard<std::mutex> install_lock(install_mu_);

  UpdateBatchResult result;

  // ---- Validate specs ------------------------------------------------------
  for (const ViewUpdateSpec& spec : specs) {
    if (spec.view == nullptr) {
      return util::Status::InvalidArgument("update spec without a view");
    }
    const size_t nq = spec.view->pattern().size();
    if (spec.view->scheme() == Scheme::kTuple && !spec.full_rebuild) {
      return util::Status::InvalidArgument(
          "T-scheme view " + spec.view->pattern().ToString() +
          " cannot be delta-maintained; request full_rebuild");
    }
    if (spec.full_rebuild) {
      if (spec.view->scheme() != Scheme::kTuple && spec.solutions.size() != nq) {
        return util::Status::InvalidArgument(
            "full rebuild of " + spec.view->pattern().ToString() +
            " needs one solution list per pattern node");
      }
    } else if (spec.deltas.added.size() != nq ||
               spec.deltas.removed.size() != nq) {
      return util::Status::InvalidArgument(
          "delta for " + spec.view->pattern().ToString() +
          " needs one added+removed list per pattern node");
    }
  }

  // ---- Stage every new view into one page run ------------------------------
  StagedPages staged;
  std::vector<std::unique_ptr<MaterializedView>> new_views;
  new_views.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const ViewUpdateSpec& spec = specs[i];
    const MaterializedView& old = *spec.view;
    const TreePattern& pattern = old.pattern();
    if (spec.full_rebuild && old.scheme() == Scheme::kTuple) {
      tpq::NaiveEvaluator evaluator(doc, pattern);
      auto view = std::make_unique<MaterializedView>();
      view->pattern_ = pattern;
      view->scheme_ = Scheme::kTuple;
      std::vector<uint8_t> bytes;
      TupleWriterSink sink(doc, &bytes);
      evaluator.Evaluate(&sink);
      RecordLayout layout;
      layout.label_count = static_cast<uint32_t>(pattern.size());
      util::StatusOr<StoredList> tuples =
          StageList(staged, bytes, layout, static_cast<uint32_t>(sink.count()),
                    list_format_);
      if (!tuples.ok()) return tuples.status();
      view->tuple_list_ = *tuples;
      view->match_count_ = sink.count();
      view->size_bytes_ = sink.count() * 12ull * pattern.size();
      for (const auto& list : evaluator.SolutionNodes()) {
        view->list_lengths_.push_back(static_cast<uint32_t>(list.size()));
      }
      new_views.push_back(std::move(view));
      ++result.fully_rebuilt;
      continue;
    }
    if (!spec.full_rebuild && old.scheme() == Scheme::kElement) {
      // E-scheme delta merge: reuse encoded pages below the first changed
      // label instead of decoding and re-encoding whole lists.
      util::StatusOr<std::unique_ptr<MaterializedView>> view =
          StageMergedElementView(old, spec.deltas, staged);
      if (!view.ok()) return view.status();
      new_views.push_back(std::move(*view));
      ++result.delta_maintained;
      continue;
    }
    std::vector<std::vector<Label>> labels(pattern.size());
    if (spec.full_rebuild) {
      for (size_t q = 0; q < pattern.size(); ++q) {
        labels[q].reserve(spec.solutions[q].size());
        for (NodeId n : spec.solutions[q]) labels[q].push_back(doc.NodeLabel(n));
      }
      ++result.fully_rebuilt;
    } else {
      // Sorted-merge the deltas into the stored lists. Block-capable
      // cursors hand back whole decoded pages as struct-of-arrays spans —
      // one decode per page instead of one block lookup per record; scalar
      // cursors and multi-label layouts fall back to record-at-a-time.
      for (size_t q = 0; q < pattern.size(); ++q) {
        std::vector<Label> old_labels;
        old_labels.reserve(old.ListLength(static_cast<int>(q)));
        ListCursor cursor(&old.list(static_cast<int>(q)), pool_.get());
        if (cursor.block_capable() &&
            old.list(static_cast<int>(q)).layout.label_count == 1) {
          while (!cursor.AtEnd()) {
            const BlockView block = cursor.CurrentBlock();
            const uint32_t off = cursor.index() - block.first;
            for (uint32_t j = off; j < block.count; ++j) {
              old_labels.push_back(
                  {block.starts[j], block.ends[j], block.levels[j]});
            }
            cursor.Seek(block.first + block.count);
          }
        }
        while (!cursor.AtEnd()) {
          old_labels.push_back(cursor.LabelAt(0));
          cursor.Next();
        }
        util::StatusOr<std::vector<Label>> merged = MergeDelta(
            old_labels, spec.deltas.removed[q], spec.deltas.added[q],
            pattern.ToString() + " node " + std::to_string(q));
        if (!merged.ok()) return merged.status();
        labels[q] = std::move(*merged);
      }
      ++result.delta_maintained;
    }
    util::StatusOr<std::unique_ptr<MaterializedView>> view =
        StageListView(pattern, old.scheme(), labels, staged);
    if (!view.ok()) return view.status();
    new_views.push_back(std::move(*view));
  }

  // ---- Transaction: begin, data, installs, commit --------------------------
  const uint64_t ue = AllocateEpoch();
  result.txn_epoch = ue;
  const long journal_mark =
      journal_ != nullptr ? journal_->AppendOffset() : -1;
  if (journal_ != nullptr) {
    util::Status begun =
        journal_->AppendUpdateBegin(ue, static_cast<uint32_t>(specs.size()));
    if (!begun.ok()) return begun;
  }

  // Rebase all staged lists onto their final page ids and encode the pages.
  const PageId base = pager_->page_count();
  for (auto& view : new_views) {
    for (StoredList& list : view->lists_) {
      if (list.count != 0) list.first_page += base;
    }
    if (view->tuple_list_.count != 0) view->tuple_list_.first_page += base;
  }
  std::vector<uint8_t> phys(static_cast<size_t>(staged.page_count) *
                            Pager::kPhysicalPageSize);
  for (uint32_t p = 0; p < staged.page_count; ++p) {
    Pager::EncodePhysicalPage(
        base + p,
        staged.payload.data() + static_cast<size_t>(p) * Pager::kPageSize,
        phys.data() + static_cast<size_t>(p) * Pager::kPhysicalPageSize);
  }

  // In-process abort for a full disk: unlike the injected crashes below
  // (which must leave orphan pages and a dangling kUpdateBegin for
  // reopen-time recovery to roll back), a returned ENOSPC happens in a
  // process that is still alive to undo its own transaction. Roll the pager
  // and journal back to their pre-batch state so fsck finds nothing to
  // repair.
  auto abort_on_no_space = [&](const util::Status& status) {
    if (status.code() != util::StatusCode::kResourceExhausted) return;
    (void)pager_->TruncateToPageCount(base);
    if (journal_ != nullptr && journal_mark >= 0) {
      (void)journal_->TruncateTo(journal_mark);
    }
  };

  if (staged.page_count > 0) {
    util::Status appended =
        pager_->AppendPhysicalPages(phys.data(), staged.page_count);
    if (appended.ok() && journal_ != nullptr) appended = pager_->Sync();
    if (!appended.ok()) {
      abort_on_no_space(appended);
      return appended;
    }
  }

  // Per-view install + replace records inside the transaction. The crash
  // point fires at the top of the nth armed iteration, leaving views
  // [0, n-1) installed and the rest missing — exactly the half-merged state
  // replay must roll back.
  for (size_t i = 0; i < specs.size(); ++i) {
    if (injector.AtCrashPoint(util::CrashPoint::kCrashMidDeltaMerge)) {
      return util::Status::IoError(
          "injected crash mid delta merge (view " + std::to_string(i) + " of " +
          std::to_string(specs.size()) + ")");
    }
    const uint64_t view_epoch = AllocateEpoch();
    new_views[i]->epoch_ = view_epoch;
    if (journal_ != nullptr) {
      util::Status installed = journal_->AppendInstall(
          RecordFor(*new_views[i], pager_->page_count()));
      if (!installed.ok()) {
        abort_on_no_space(installed);
        return installed;
      }
      util::Status replaced = journal_->AppendReplace(
          AllocateEpoch(), specs[i].view->epoch(), view_epoch);
      if (!replaced.ok()) {
        abort_on_no_space(replaced);
        return replaced;
      }
    }
  }

  if (injector.AtCrashPoint(util::CrashPoint::kCrashBeforeEpochBump)) {
    return util::Status::IoError(
        "injected crash with all views installed but the update commit "
        "record missing");
  }
  if (journal_ != nullptr) {
    util::Status committed = journal_->AppendUpdateCommit(AllocateEpoch(), ue);
    if (!committed.ok()) {
      abort_on_no_space(committed);
      return committed;
    }
  }
  if (injector.AtCrashPoint(util::CrashPoint::kCrashAfterEpochBump)) {
    return util::Status::IoError(
        "injected crash after the update commit, before the new views are "
        "registered");
  }

  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (size_t i = 0; i < specs.size(); ++i) {
      result.new_views.push_back(new_views[i].get());
      replacement_[specs[i].view] = new_views[i].get();
      views_.push_back(std::move(new_views[i]));
    }
  }
  return result;
}

// ---- Quarantine / lookup ---------------------------------------------------

void ViewCatalog::Quarantine(const MaterializedView* view) {
  const uint64_t epoch = AllocateEpoch();
  if (journal_ != nullptr) {
    // Best-effort: a lost quarantine record means the view comes back
    // healthy-looking after a restart, where verification re-detects the
    // corruption — annoying, never incorrect.
    (void)journal_->AppendQuarantine(epoch, view->epoch());
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  quarantined_.insert(view);
}

bool ViewCatalog::IsQuarantined(const MaterializedView* view) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return quarantined_.count(view) != 0;
}

size_t ViewCatalog::quarantined_count() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return quarantined_.size();
}

const MaterializedView* ViewCatalog::ReplacementFor(
    const MaterializedView* view) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  const MaterializedView* current = nullptr;
  auto it = replacement_.find(view);
  // Follow the chain: a replacement may itself have been quarantined and
  // replaced again.
  while (it != replacement_.end()) {
    current = it->second;
    it = replacement_.find(current);
  }
  return current;
}

void ViewCatalog::SetReplacement(const MaterializedView* from,
                                 const MaterializedView* to) {
  VJ_CHECK(from != to);
  const uint64_t epoch = AllocateEpoch();
  if (journal_ != nullptr) {
    (void)journal_->AppendReplace(epoch, from->epoch(), to->epoch());
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  replacement_[from] = to;
}

const MaterializedView* ViewCatalog::FindView(
    const std::string& pattern_string, Scheme scheme) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  // Scan newest-first so a re-materialized twin wins over its corrupt
  // predecessor even before the replacement link is consulted.
  for (auto it = views_.rbegin(); it != views_.rend(); ++it) {
    const MaterializedView* v = it->get();
    if (v->scheme() != scheme || v->pattern().ToString() != pattern_string) {
      continue;
    }
    // Follow replacements, then reject anything still quarantined.
    auto r = replacement_.find(v);
    while (r != replacement_.end()) {
      v = r->second;
      r = replacement_.find(v);
    }
    if (quarantined_.count(v) != 0) continue;
    return v;
  }
  return nullptr;
}

std::vector<const MaterializedView*> ViewCatalog::ViewsSnapshot() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::vector<const MaterializedView*> snapshot;
  snapshot.reserve(views_.size());
  for (const auto& view : views_) snapshot.push_back(view.get());
  return snapshot;
}

const MaterializedView* ViewCatalog::ViewOfPage(PageId page) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto contains = [page](const StoredList& list) {
    return list.count != 0 && list.first_page != kInvalidPage &&
           page >= list.first_page && page - list.first_page < list.PageSpan();
  };
  for (const auto& view : views_) {
    for (const StoredList& list : view->lists_) {
      if (contains(list)) return view.get();
    }
    if (contains(view->tuple_list_)) return view.get();
  }
  return nullptr;
}

util::Status ViewCatalog::VerifyView(const MaterializedView* view) {
  std::vector<uint8_t> page(Pager::kPageSize);
  auto verify_list = [&](const StoredList& list) {
    if (list.count == 0) return util::Status::Ok();
    for (uint32_t p = 0; p < list.PageSpan(); ++p) {
      util::Status status = pager_->VerifyPage(list.first_page + p,
                                               page.data());
      if (!status.ok()) return status;
    }
    return util::Status::Ok();
  };
  for (const StoredList& list : view->lists_) {
    util::Status status = verify_list(list);
    if (!status.ok()) return status;
  }
  return verify_list(view->tuple_list_);
}

}  // namespace viewjoin::storage
