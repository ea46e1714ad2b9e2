#ifndef VIEWJOIN_STORAGE_FSCK_H_
#define VIEWJOIN_STORAGE_FSCK_H_

#include <string>
#include <utility>
#include <vector>

#include "storage/materialized_view.h"
#include "storage/pager.h"
#include "util/status.h"

namespace viewjoin::storage {

/// Result of scanning one pager file page by page.
struct FsckReport {
  /// Header/size validation of the file itself; pages are only scanned when
  /// this is OK.
  util::Status file_status;
  uint32_t page_count = 0;
  /// Per-page verification failures (checksum, footer, short read), in page
  /// order.
  std::vector<std::pair<PageId, util::Status>> bad_pages;

  bool ok() const { return file_status.ok() && bad_pages.empty(); }
};

/// Opens `path` read-only and verifies every page's footer and checksum with
/// single-attempt reads (no retry masking). The scan itself never aborts;
/// unreadable files are reported through file_status.
FsckReport FsckPagerFile(const std::string& path);

/// Result of cross-checking a persistent catalog: the pager file, its
/// manifest journal, and the consistency constraints between them. Findings
/// fall in two classes with different verdicts:
///   - *corruption* (bytes that validate as wrong): bad pages, a journal
///     record failing its CRC mid-file, an install record pointing past the
///     journal's durable prefix, or a data file shorter than that prefix;
///   - *crash artifacts* (interrupted-but-rolled-backable state): a torn
///     journal tail, pager pages past the durable prefix, a stale
///     checkpoint tmp. These are what RepairCatalog (or the next
///     ViewCatalog::Open) cleans up.
struct FsckCatalogReport {
  /// Page-level scan of the pager file (checksums, footers).
  FsckReport pager;
  /// Journal replay verdict: OK, kNotFound (no manifest), or kCorruption.
  util::Status manifest_status;
  // -- Journal summary (valid when manifest_status is OK) -------------------
  uint64_t last_epoch = 0;
  /// Epoch high-water mark over EVERY journal record, including records a
  /// rolled-back update batch undid — the value the epoch allocator resumes
  /// above. Equals last_epoch (kept as a named field so --json consumers can
  /// assert epoch monotonicity across update batches explicitly).
  uint64_t max_epoch = 0;
  uint32_t durable_page_count = 0;
  size_t view_count = 0;         // live install records
  size_t quarantined_count = 0;  // journaled quarantines without replacement
  size_t pending_rebuild = 0;    // begin records a crash cut down

  // -- Crash artifacts (repairable) -----------------------------------------
  bool journal_tail_torn = false;
  /// Pager pages (whole or partial) beyond the durable prefix — a crash
  /// between the data append and the journal commit.
  uint32_t orphan_pages = 0;
  /// The orphan region ends in a fraction of a page (crash mid-write). The
  /// pager rejects such a file wholesale, so the page scan is skipped; the
  /// journal still proves everything up to the durable prefix.
  bool pager_tail_partial = false;
  /// A "<path>.manifest.tmp" left by a checkpoint compaction that died
  /// before its rename; the journal it was replacing is still in force.
  bool stale_checkpoint = false;
  /// Update batches whose commit record never landed: replay rolls them
  /// back and the next Open truncates the half-applied journal suffix.
  uint64_t rolled_back_update_batches = 0;

  // -- Cross-check corruption -----------------------------------------------
  /// Checksum/footer failures *within* the durable prefix — committed data
  /// that rotted. (pager.bad_pages beyond the prefix are crash artifacts and
  /// excluded; truncating the orphan region discards them.)
  uint32_t corrupt_durable_pages = 0;
  /// The pager file is *shorter* than the journal's durable prefix: committed
  /// data is missing. Not repairable (the affected views must be rebuilt).
  bool data_missing = false;
  /// Install records whose stored lists point outside the durable prefix,
  /// as "epoch <e> (<pattern>): <problem>".
  std::vector<std::string> bad_views;
  /// Delta-format lists whose pages were decoded end to end (directory
  /// validated, every varint page decoded, record counts and fence keys
  /// cross-checked).
  size_t compressed_lists_checked = 0;
  /// Delta-format findings, as "epoch <e> (<pattern>): <list> <problem>".
  /// Pages already counted in corrupt_durable_pages are not re-reported;
  /// these are pages whose checksums pass but whose varint payload lies.
  std::vector<std::string> bad_compressed_lists;
  /// Journal records whose leading epoch ran *backwards*. The journal is
  /// append-only over a monotone allocator, so any regression means epochs
  /// were reused (e.g. by a compaction that lost the high-water mark) —
  /// plan-cache keys and view identities are no longer unique.
  uint64_t epoch_regressions = 0;

  /// Nothing wrong at all.
  bool clean() const {
    return pager.ok() && manifest_status.ok() && !corrupt() &&
           !repair_needed();
  }
  /// Something validates as wrong (vs. merely interrupted).
  bool corrupt() const {
    return corrupt_durable_pages > 0 ||
           manifest_status.code() == util::StatusCode::kCorruption ||
           data_missing || !bad_views.empty() ||
           !bad_compressed_lists.empty() || epoch_regressions > 0 ||
           (pager.file_status.code() == util::StatusCode::kCorruption &&
            !pager_tail_partial);
  }
  /// Crash artifacts present that RepairCatalog / Open would clean up.
  bool repair_needed() const {
    return journal_tail_torn || orphan_pages > 0 || pager_tail_partial ||
           stale_checkpoint || rolled_back_update_batches > 0;
  }
};

/// Read-only consistency check of the persistent catalog at `path` (pager
/// file + "<path>.manifest" journal + a stale checkpoint tmp). Never
/// modifies any file and never aborts; every finding lands in the report.
FsckCatalogReport FsckCatalog(const std::string& path);

/// Repairs the crash artifacts FsckCatalog flags: opens the catalog (which
/// runs startup recovery — truncating the torn journal tail and orphan
/// pages, deleting a stale checkpoint tmp), then checkpoints the journal
/// and closes cleanly. Returns the recovery report
/// describing what was done, or the error that prevented opening — genuine
/// corruption (checksum-bad pages, missing committed data) is NOT repaired,
/// because the backing data for those views is simply gone; rebuild them
/// from the source document instead.
util::StatusOr<RecoveryReport> RepairCatalog(const std::string& path,
                                             size_t pool_pages = 256);

/// Result of verifying a paged base-document store (DocumentStore): the
/// pager file, its manifest checkpoint (the store's table of contents), and
/// the doc-specific invariants — one list per record, a single "#nodes"
/// arena, unique tags, page ranges inside the durable prefix, and sorted
/// starts with fence keys that match the pages they describe. Base-document
/// corruption is a *different failure domain* than view corruption: views
/// rebuild from the document, but a rotten document store must be rebuilt
/// from the source XML — vj_fsck reports it with its own exit code.
struct FsckDocStoreReport {
  /// False when neither the pager file nor the manifest exists (no store at
  /// this path — vacuously clean).
  bool present = false;
  /// Page-level scan of the pager file (checksums, footers).
  FsckReport pager;
  /// Manifest replay verdict: OK, kNotFound, or kCorruption.
  util::Status manifest_status;
  /// Pager file exists but the manifest does not: an aborted build's orphan
  /// (the commit point is the manifest write). Rebuild, don't trust.
  bool orphan = false;

  // -- TOC summary (valid when manifest_status is OK) -----------------------
  uint64_t node_count = 0;
  size_t tag_count = 0;
  uint32_t durable_page_count = 0;

  // -- Corruption findings --------------------------------------------------
  /// Checksum/footer failures within the durable prefix.
  uint32_t corrupt_durable_pages = 0;
  /// The manifest carries no "#nodes" arena record.
  bool arena_missing = false;
  /// Structural findings per record, as "<pattern>: <problem>" (bad ranges,
  /// duplicate tags, unsorted label lists, fence-key mismatches).
  std::vector<std::string> bad_lists;
  /// The pager file is shorter than the manifest's durable prefix.
  bool data_missing = false;

  // -- Crash artifacts ------------------------------------------------------
  /// Leftover "<path>.runN.{a,b}" spill files from an interrupted build.
  std::vector<std::string> stray_runs;

  bool clean() const {
    return !present || (pager.ok() && manifest_status.ok() && !corrupt() &&
                        !orphan && stray_runs.empty());
  }
  bool corrupt() const {
    return corrupt_durable_pages > 0 || arena_missing || data_missing ||
           !bad_lists.empty() ||
           manifest_status.code() == util::StatusCode::kCorruption ||
           (present && !orphan && !pager.file_status.ok());
  }
};

/// Read-only consistency check of the document store at `path` (pager file +
/// "<path>.manifest" checkpoint + spill-run leftovers). Never modifies any
/// file and never aborts.
FsckDocStoreReport FsckDocumentStore(const std::string& path);

/// Machine-readable renderings (vj_fsck --json): one JSON object capturing
/// every report field plus the derived verdicts (clean/corrupt/
/// repair_needed), so CI gates parse the verdict instead of scraping text.
std::string ToJson(const FsckReport& report);
std::string ToJson(const FsckCatalogReport& report);
std::string ToJson(const FsckDocStoreReport& report);

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_FSCK_H_
