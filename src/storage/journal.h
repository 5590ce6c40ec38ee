#ifndef CHRONOQUEL_STORAGE_JOURNAL_H_
#define CHRONOQUEL_STORAGE_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "env/env.h"
#include "storage/page.h"
#include "util/status.h"

namespace tdb {

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

/// How much crash protection the database applies to mutating statements.
///
/// The paper's page-I/O metric is measured with durability OFF (the
/// default): the journal performs no I/O and the accounting to user
/// relations is byte-identical to the seed benchmarks.
enum class DurabilityMode : uint8_t {
  /// No journal.  A crash mid-statement can tear pages.  Benchmark default.
  kOff,
  /// Pre-image journal without fsync: every statement is atomic across
  /// process crashes (kill -9), but not across power loss.
  kJournal,
  /// Journal plus ordered fsyncs: the journal is synced before any data
  /// page is overwritten in place and the data files are synced before the
  /// commit mark, so statements are atomic across power loss too.
  kJournalSync,
};

/// "off", "journal", or "journal+sync".
const char* DurabilityModeName(DurabilityMode mode);

/// CRC-32 (IEEE 802.3 polynomial) of `n` bytes, seedable for chaining.
uint32_t Crc32(const uint8_t* data, size_t n, uint32_t seed = 0);

/// Write-ahead *undo* journal for one database directory.
///
/// Protocol (one batch per writing statement; a WriterLock serializes
/// whole batches, Begin .. CommitGroup or Rollback):
///   1. Begin() starts a batch, emptying the journal file once every
///      earlier batch's commit mark is durable.
///   2. Before any byte of database state is overwritten in place, the
///      owner of that state calls a Before*() hook and the journal appends
///      the *pre-image* — the first time only, per page / file per batch:
///        * BeforePageWrite: the 1024-byte on-disk page payload,
///        * BeforeTruncate (shrink) / BeforeDeleteFile / BeforeFileRewrite:
///          the whole file,
///        * any first mutation: the file's batch-start size (so rollback
///          can truncate away pages appended mid-batch, or delete files
///          created mid-batch).
///      In kJournalSync mode the appended records are fsynced before the
///      hook returns, so the pre-image always reaches stable storage
///      before the overwrite it protects.
///   3. CommitGroup() appends a commit-mark record (after the caller has
///      flushed — and in kJournalSync synced — the data files) and returns
///      a ticket.  The caller drops its WriterLock, then
///      WaitDurable(ticket) makes the mark durable: one fsync covers every
///      mark appended so far, so overlapping writers share it (group
///      commit).
///   4. Rollback() re-applies the batch's pre-images in reverse order,
///      returning every file to its batch-start image.
///
/// Recover() reads a journal left behind by a crash: everything up to the
/// last commit mark committed and is discarded; the records after it (a
/// batch cut off mid-statement) are rolled back.  A torn tail (short or CRC-mismatched
/// record) marks the exact point the crash interrupted an append; since
/// every append precedes the write it protects, the torn record's data
/// write never happened and the tail is simply ignored.  Recovery only
/// writes batch-start images, so running it any number of times — including
/// crashing *during* recovery and recovering again — converges to the same
/// state (idempotence).
class Journal {
 public:
  /// The journal file of a database directory.
  static std::string PathFor(const std::string& dir) {
    return dir + "/journal";
  }

  /// Opens (creating if missing) the journal for `dir`.  Call Recover()
  /// first: Open() assumes any previous batch has been resolved and
  /// truncates leftovers.
  static Result<std::unique_ptr<Journal>> Open(Env* env,
                                               const std::string& dir,
                                               DurabilityMode mode);

  /// Rolls back (or discards, if committed) whatever a crashed session left
  /// in `dir`'s journal.  A no-op when no journal file exists.
  static Status Recover(Env* env, const std::string& dir);

  DurabilityMode mode() const { return mode_; }

  /// True until a rollback fails (leaving disk state only recoverable by
  /// Recover() on reopen).
  bool healthy() const { return healthy_; }

  /// True between a successful Begin() and the matching
  /// CommitGroup()/Rollback().
  bool active() const { return active_; }

  /// Wires (or unwires, with nullptr) observability counters:
  /// journal.{batches,commits,rollbacks,records,pre_image_bytes,replay_ops}.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Page size BeforePageWrite captures (the database's resolved storage
  /// page size).  Replay needs no setter: each kPageImage record carries
  /// its payload length, so recovery derives offsets from the record.
  void set_page_size(uint32_t page_size) { page_size_ = page_size; }
  uint32_t page_size() const { return page_size_; }

  /// Serializes writers' batches: a writer holds one from before Begin()
  /// until after CommitGroup() or Rollback().  While it holds or awaits
  /// the lock, the writer counts as open for WaitDurable's group window.
  class WriterLock {
   public:
    explicit WriterLock(Journal* journal) : journal_(journal) {
      journal_->open_writers_.fetch_add(1, std::memory_order_acq_rel);
      journal_->writer_mu_.lock();
    }
    ~WriterLock() {
      journal_->writer_mu_.unlock();
      journal_->open_writers_.fetch_sub(1, std::memory_order_acq_rel);
    }
    WriterLock(const WriterLock&) = delete;
    WriterLock& operator=(const WriterLock&) = delete;

   private:
    Journal* journal_;
  };

  /// Starts a statement batch: empties the journal once nothing sealed
  /// awaits a sync, and forgets per-batch dedup state.
  Status Begin();

  /// Undoes the batch on disk by applying its pre-images in reverse.  The
  /// caller must discard all in-memory state derived from the rolled-back
  /// files (buffer frames, open relations, the catalog image).
  Status Rollback();

  /// Seals the batch: appends the commit mark and returns a ticket for
  /// WaitDurable().  The caller must have flushed (and, in kJournalSync,
  /// synced) all data files first: a durable mark asserts the batch's data
  /// is durable too.  The fsync and the truncate are deferred — the next
  /// Begin() reclaims the file once every sealed batch is synced.  An
  /// empty (read-only) batch returns an already-durable ticket.
  Result<uint64_t> CommitGroup();

  /// Blocks until every batch sealed at or before `ticket` has its commit
  /// mark on stable storage.  One caller is elected to fsync on behalf of
  /// all batches sealed so far (counted by journal.group_syncs); the rest
  /// return without touching the file.  No-op below kJournalSync.
  Status WaitDurable(uint64_t ticket);

  /// Group-commit window: how long an elected leader waits before its
  /// fsync while another writer holds or awaits the WriterLock, so that
  /// writer can land its mark and share the fsync.  A lone writer syncs at
  /// once.  The fsync itself dominates real devices; the window
  /// matters on fast storage where commits would otherwise each pay their
  /// own sync.
  void set_group_window_micros(int micros) { group_window_micros_ = micros; }

  // --- pre-image hooks (no-ops outside an active batch) -------------------

  /// Called by the pager before overwriting page `pno` of `path` in place.
  /// Reads the pre-image through `file` without touching any I/O counters.
  Status BeforePageWrite(const std::string& path, RandomRWFile* file,
                         uint32_t pno);

  /// Called before `path` is truncated to `new_size` (either direction;
  /// a shrink captures the whole current file).
  Status BeforeTruncate(const std::string& path, RandomRWFile* file,
                        uint64_t new_size);

  /// Called before `path` is rewritten wholesale (catalog, clock).
  Status BeforeFileRewrite(const std::string& path);

  /// Called before `path` is deleted.
  Status BeforeDeleteFile(const std::string& path);

 private:
  enum RecordType : uint8_t {
    kFileSize = 1,   // batch-start size of a file (0/absent when !existed)
    kPageImage = 2,  // pre-image of one page (length-prefixed payload)
    kFileImage = 3,  // pre-image of a whole file
    kCommit = 4,     // batch committed; nothing to undo
  };

  struct Record {
    RecordType type = kCommit;
    std::string path;
    bool existed = true;     // kFileSize / kFileImage
    uint64_t size = 0;       // kFileSize: batch-start size
    uint32_t pno = 0;        // kPageImage
    std::vector<uint8_t> payload;  // kPageImage / kFileImage bytes
  };

  /// Per-file dedup state for the active batch.
  struct FileState {
    bool whole_file_captured = false;
    uint64_t batch_start_size = 0;
    bool existed = false;
    std::set<uint32_t> pages_logged;
  };

  Journal(Env* env, std::string path, std::unique_ptr<RandomRWFile> file,
          DurabilityMode mode)
      : env_(env), path_(std::move(path)), file_(std::move(file)),
        mode_(mode) {}

  /// Logs the batch-start size of `path` once per batch and returns its
  /// dedup state.  `file` may be null (size probed through the env).
  Result<FileState*> EnsureFileLogged(const std::string& path,
                                      RandomRWFile* file);

  /// Captures the whole current content of `path` once per batch.
  Status CaptureWholeFile(const std::string& path, FileState* fs);

  Status AppendRecord(const Record& rec);
  Status SyncPending();

  static std::vector<uint8_t> EncodeRecord(const Record& rec);
  /// Decodes the record at `*offset`, advancing it.  Returns false on a
  /// torn / corrupt tail (parsing must stop there).
  static bool DecodeRecord(const std::vector<uint8_t>& buf, size_t* offset,
                           Record* out);

  /// Applies `records` (a batch's pre-images) in reverse order through
  /// `env`, then syncs every touched file.
  static Status ApplyReversed(Env* env, const std::vector<Record>& records);

  Env* env_;
  std::string path_;
  std::unique_ptr<RandomRWFile> file_;
  DurabilityMode mode_;
  uint32_t page_size_ = kPageSize;
  bool active_ = false;
  bool healthy_ = true;
  bool sync_pending_ = false;
  uint64_t write_offset_ = 0;
  /// File offset where the active batch's first record starts: non-zero
  /// when sealed batches whose marks await a sync still precede it.
  uint64_t batch_start_offset_ = 0;
  /// Batches sealed with a commit mark / batches whose mark reached stable
  /// storage.  Begin/CommitGroup/Rollback run under a WriterLock;
  /// WaitDurable runs outside it, hence atomics plus a sync leader mutex.
  std::atomic<uint64_t> committed_seq_{0};
  std::atomic<uint64_t> synced_seq_{0};
  std::mutex sync_mu_;
  /// Held by a WriterLock; open_writers_ counts the writers holding or
  /// awaiting it.
  std::mutex writer_mu_;
  std::atomic<int> open_writers_{0};
  std::atomic<int> group_window_micros_{0};
  std::vector<Record> batch_;  // in-memory mirror for in-session rollback
  std::map<std::string, FileState> files_;

  // Resolved once by set_metrics(); all null when metrics are disabled.
  obs::Counter* m_batches_ = nullptr;
  obs::Counter* m_commits_ = nullptr;
  obs::Counter* m_rollbacks_ = nullptr;
  obs::Counter* m_records_ = nullptr;
  obs::Counter* m_pre_image_bytes_ = nullptr;
  obs::Counter* m_replay_ops_ = nullptr;
  obs::Counter* m_group_syncs_ = nullptr;
};

}  // namespace tdb

#endif  // CHRONOQUEL_STORAGE_JOURNAL_H_
