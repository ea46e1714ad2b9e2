#ifndef VIEWJOIN_STORAGE_MANIFEST_H_
#define VIEWJOIN_STORAGE_MANIFEST_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/stored_list.h"
#include "util/status.h"

namespace viewjoin::storage {

/// Record types of the manifest journal (see ManifestJournal below).
enum class ManifestRecordType : uint8_t {
  kBegin = 1,       // a (re-)materialization started: epoch, scheme, pattern
  kInstall = 2,     // a view's pages are durable and it is now visible
  kQuarantine = 3,  // an installed view was found corrupt and is unusable
  kReplace = 4,     // a quarantined view has a healthy replacement
  kDrop = 5,        // a view was removed from the catalog
  kUpdateBegin = 6,   // an update batch opened a multi-record transaction
  kUpdateCommit = 7,  // the update batch committed (its epoch bump is durable)
  kEpochMark = 8,     // epoch high-water mark; checkpoints write one so
                      // compaction never regresses the epoch counter
};

/// Everything an install record carries — the full metadata of one
/// materialized view, so the journal alone (plus the pager file it refers
/// to) reconstructs the catalog with no side files.
struct ManifestViewRecord {
  uint64_t epoch = 0;  // install epoch; doubles as the view's durable id
  uint8_t scheme = 0;  // storage::Scheme as stored on disk
  std::string pattern;
  uint64_t match_count = 0;
  uint64_t size_bytes = 0;
  uint64_t pointer_count = 0;
  /// Pager page count right after this view's pages were appended. The
  /// maximum over all install records is the durable prefix of the pager
  /// file; anything beyond it is an uncommitted crash artifact.
  uint32_t page_count_after = 0;
  std::vector<uint32_t> list_lengths;
  std::vector<StoredList> lists;
  StoredList tuple_list;
};

/// Outcome of replaying a manifest journal front to back.
struct ManifestReplayResult {
  /// Largest epoch any record carried; the catalog's epoch counter resumes
  /// above it so plan-cache keys stay monotone across restarts.
  uint64_t last_epoch = 0;
  /// Durable pager prefix (max page_count_after over installs).
  uint32_t durable_page_count = 0;
  /// A torn final record (crash mid-append) was skipped.
  bool tail_torn = false;
  /// File offset at which the torn tail starts (= file size when clean).
  long valid_bytes = 0;
  /// Install records in epoch order, dropped views already removed.
  std::vector<ManifestViewRecord> installed;
  /// Epochs of installed views currently quarantined.
  std::unordered_set<uint64_t> quarantined;
  /// old epoch -> replacement epoch.
  std::unordered_map<uint64_t, uint64_t> replaced;
  /// Begin records with no matching install: the (re-)materialization was
  /// cut down by a crash and rolled back; recovery re-queues these.
  std::vector<std::pair<std::string, uint8_t>> rolled_back;  // pattern, scheme
  /// Update transactions (kUpdateBegin) that never reached kUpdateCommit:
  /// their installs/replaces were undone wholesale and valid_bytes points at
  /// the kUpdateBegin record, so recovery truncates the half-applied batch
  /// and the catalog reopens at the pre-batch epoch.
  uint64_t rolled_back_update_batches = 0;
  /// Records whose leading epoch was *smaller* than an earlier record's.
  /// The journal is append-only with a monotone epoch allocator, so any
  /// regression means the epoch counter was reused after a faulty
  /// compaction; fsck reports this as corruption.
  uint64_t epoch_regressions = 0;
};

/// Append-only, checksummed journal of view-lifecycle events — the
/// authoritative record of which views exist and which pager pages are
/// durable. One journal lives next to each persistent pager file as
/// "<pager-path>.manifest".
///
/// On-disk layout:
///
///   [ 16-byte header: magic "VJMANIFJ", u32 version (2), u32 CRC32 ]
///   [ record ]*
///
/// where each record is
///
///   u32 payload_length | u8 type | payload | u32 CRC32(type || payload)
///
/// all little-endian. Appends are fsynced, so a record's presence implies
/// everything it describes is durable (install records are only appended
/// *after* the view's pages were synced into the pager file — write-ahead
/// ordering, data before commit).
///
/// Failure semantics, chosen so a crash is always distinguishable from rot:
///   - a record whose bytes are incomplete at EOF is a *torn tail* (crash
///     mid-append): replay ignores it and reports tail_torn, recovery
///     truncates it away;
///   - a fully present record with a CRC mismatch is *corruption* (bit rot
///     or tampering) and fails the replay with kCorruption, as does any file
///     without the journal header (a pre-journal text manifest included).
///
/// Thread-safety: appends are serialized by an internal mutex; Replay and
/// Checkpoint are static and operate on paths.
class ManifestJournal {
 public:
  /// StoredList encoding with a list format byte and the delta page
  /// directory / fence keys per list. Replay refuses any other header
  /// version with kCorruption.
  static constexpr uint32_t kFormatVersion = 2;
  /// Sanity cap on one record's payload (a view with thousands of lists is
  /// still far below this); a larger length prefix is treated as garbage.
  static constexpr uint32_t kMaxPayload = 1u << 24;

  /// The journal path for a pager file path.
  static std::string PathFor(const std::string& pager_path) {
    return pager_path + ".manifest";
  }

  /// The tmp file WriteCheckpoint stages a compaction in. One left on disk
  /// is a compaction that died before its rename; recovery sweeps it and
  /// fsck flags it.
  static std::string CheckpointTmpPath(const std::string& journal_path) {
    return journal_path + ".tmp";
  }

  /// Creates (truncating) a fresh journal with just the header.
  static util::StatusOr<std::unique_ptr<ManifestJournal>> Create(
      const std::string& path);

  /// Opens an existing, already-replayed journal for further appends.
  /// `valid_bytes` (from ManifestReplayResult) truncates a torn tail first,
  /// so new records never land after garbage; pass a negative value to skip
  /// the truncation (fresh checkpoint, nothing to trim).
  static util::StatusOr<std::unique_ptr<ManifestJournal>> OpenForAppend(
      const std::string& path, long valid_bytes);

  /// Reads and validates `path` front to back. kNotFound when missing,
  /// kCorruption on a bad header, mid-file CRC mismatch, or unparsable
  /// payload. A torn tail is NOT an error (see class comment).
  static util::StatusOr<ManifestReplayResult> Replay(const std::string& path);

  /// Atomically replaces `path` with a compact journal holding exactly
  /// `records` (+ quarantine markers for `quarantined_epochs`), via
  /// tmp file + fsync + rename. Used by checkpointing, hot backup and the
  /// document store. The header write is fault-injectable.
  static util::Status WriteCheckpoint(
      const std::string& path, const std::vector<ManifestViewRecord>& records,
      const std::vector<uint64_t>& quarantined_epochs, uint64_t last_epoch);

  ~ManifestJournal();

  ManifestJournal(const ManifestJournal&) = delete;
  ManifestJournal& operator=(const ManifestJournal&) = delete;

  // ---- Appends (each fsynced before returning) ----------------------------

  util::Status AppendBegin(uint64_t epoch, uint8_t scheme,
                           const std::string& pattern);
  util::Status AppendInstall(const ManifestViewRecord& record);
  util::Status AppendQuarantine(uint64_t epoch, uint64_t target_epoch);
  util::Status AppendReplace(uint64_t epoch, uint64_t old_epoch,
                             uint64_t new_epoch);
  util::Status AppendDrop(uint64_t epoch, uint64_t target_epoch);

  /// Opens an update-batch transaction: every record appended until the
  /// matching AppendUpdateCommit belongs to the batch and is undone by
  /// replay if the commit never lands. `view_count` is advisory (how many
  /// view installs the batch intends), recorded for observability.
  util::Status AppendUpdateBegin(uint64_t epoch, uint32_t view_count);

  /// Commits the update batch opened at `txn_epoch`. `epoch` is a freshly
  /// allocated epoch for the commit record itself, keeping leading epochs
  /// monotone through the journal.
  util::Status AppendUpdateCommit(uint64_t epoch, uint64_t txn_epoch);

  /// Current append position in bytes, or -1 if the handle is closed.
  /// Captured before a multi-record transaction so a clean in-process abort
  /// (a full disk, not a crash) can roll partial records back with
  /// TruncateTo — crash recovery never needs this (Replay drops an
  /// uncommitted batch on its own).
  long AppendOffset();

  /// Cuts the journal back to `offset` bytes (a value from AppendOffset)
  /// and resumes appending there. Only for the in-process abort path; the
  /// records removed must not have been acted on.
  util::Status TruncateTo(long offset);

  /// Closes the file handle (idempotent; the destructor calls it).
  void Close();

  const std::string& path() const { return path_; }

 private:
  ManifestJournal(std::string path, std::FILE* file);

  util::Status AppendRecord(ManifestRecordType type,
                            const std::vector<uint8_t>& payload);

  std::string path_;
  std::FILE* file_ = nullptr;
  std::mutex mu_;
};

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_MANIFEST_H_
